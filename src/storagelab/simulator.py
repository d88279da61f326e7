"""Path simulation for the storage process X(t) = x + A(t) - int r(X) ds.

Event-driven and exact for finite-activity inputs: between jumps the state
follows the release family's drain flow ``release.flow``, at a jump the
size is added.  Infinite-activity inputs keep jumps above the truncation
level ``eps`` and fold the discarded mean into the inter-jump dynamics as a
constant inflow, so the flow solves x' = d_eps - r(x).

One engine draws every path.  ``_chunks`` lays the jumps out: chunk c of
``_CHUNK`` lanes draws from the key ``(seed, "grid", c)`` its starts, then
its jumps one time slab of about ``_SLAB`` jumps at a time as (slot, lane)
matrices, so memory stays bounded.  One kernel, ``_step_lanes``, steps the
lanes through a slab's rows, x = flow(x, t_k - t_{k-1}) + s_k.  Two
consumers read the engine:

* ``grid_ensemble`` records the lanes at each grid time (a single grid
  time gives endpoints).  Two calls with the same seed and ``n_paths``
  from two fixed starts are a synchronous coupling: lane i of each sees
  the same jumps.
* ``event_ensemble`` keeps every jump with its time, size and the state
  after it.

Both consume the same draws, so the last state of a lane of
``event_ensemble``, flowed to the horizon, is that lane of
``grid_ensemble(..., [horizon], ...)``.
"""

from __future__ import annotations

import math

import numpy as np

from .levy_input import LevyInput
from .release_rate import ReleaseRate
from .rng import substream

__all__ = ["grid_ensemble", "event_ensemble"]

_CHUNK = 8192      # lanes stepped together
_SLAB = 1 << 20    # jumps one slab expects across a chunk


def _step_lanes(release: ReleaseRate, x, t, s, drift: float, tp, out=None):
    """Step the lanes ``x`` from time ``tp`` through the rows of jump times
    ``t`` and sizes ``s``.  With ``out``, row k of it receives the state
    after row k; ``out`` may be ``s`` itself, as row k is read first."""
    for k, (tk, sk) in enumerate(zip(t, s)):
        x = release.flow(x, tk - tp, drift) + sk
        tp = tk
        if out is not None:
            out[k] = x
    return x


def _draw_slab(levy, gen, bufs, m, a, b, lam, eps):
    """Jump times and sizes of m lanes in (a, b] as (slot, lane) matrices in
    the chunk's buffers ``bufs``.  A lane draws a Poisson count and that
    many uniform times; padding slots, and a last row that takes every lane
    to b, sit at b with size 0, and sizes are drawn for real jumps only."""
    counts = gen.poisson(lam * (b - a), m)
    rows = int(counts.max())
    if bufs[0].shape[0] <= rows:
        bufs[:] = [None, None]  # free the old buffers first: never both
        bufs[:] = [np.empty((rows + rows // 8 + 1, m)) for _ in range(2)]
    t, s = bufs[0][:rows + 1], bufs[1][:rows + 1]
    pad = np.arange(rows + 1)[:, None] >= counts
    gen.random(out=t[:rows])
    t[:rows] *= a - b
    t[:rows] += b
    t[pad] = b
    t.sort(axis=0)
    s[pad] = 0.0
    s[~pad] = levy.sample_sizes(gen, int(counts.sum()), eps)
    return t, s


def _slabs(levy, gen, m, grid, lam, eps):
    """A chunk's slabs in time order, as ``(a, t, s, j)``: the slab starts
    at time a, and j is the index of the grid time it ends at, or None.
    The matrices t and s view the chunk's buffers: they are only valid
    until the next slab is drawn, and a view still held then keeps the old
    buffers alive next to the new ones."""
    bufs = [np.empty((0, m))] * 2
    a = 0.0
    for j, g in enumerate(grid):
        n_slabs = max(1, math.ceil(m * lam * (g - a) / _SLAB))
        for b in np.linspace(a, g, n_slabs + 1)[1:]:  # the last b is g
            yield (a, *_draw_slab(levy, gen, bufs, m, a, b, lam, eps),
                   j if b == g else None)
            a = b


def _chunks(levy, x0, grid, n_paths, seed, eps):
    """The engine's draws, one chunk of lanes at a time: ``(lo, x, slabs)``
    with the chunk's first lane lo, its starts x and its ``_slabs``.
    Chunk c draws from the Philox key ``(seed, "grid", c)``: its starts
    first (``x0`` is a level or a sampler ``(gen, m) -> array``), then its
    slabs, each expecting at most ``_SLAB`` jumps across the chunk."""
    lam = levy.proposal_rate(eps)
    for c, lo in enumerate(range(0, n_paths, _CHUNK)):
        m = min(_CHUNK, n_paths - lo)
        gen = substream(seed, "grid", c)
        x = (np.asarray(x0(gen, m), dtype=float) if callable(x0)
             else np.full(m, float(x0)))
        yield lo, x, _slabs(levy, gen, m, grid, lam, eps)


def grid_ensemble(levy: LevyInput, release: ReleaseRate, x0,
                  grid, n_paths: int, seed: int,
                  eps: float = 1e-4) -> np.ndarray:
    """Matrix (n_paths, len(grid)) of states at common grid times.

    ``x0`` is a level or a sampler ``(gen, m) -> array`` for random starts;
    ``grid_ensemble(..., [T], ...)[:, 0]`` is the ensemble of endpoints.
    Chunk c of ``_CHUNK`` lanes (rows c * _CHUNK onwards) draws its starts,
    then its jumps one time slab at a time, from the Philox key
    ``(seed, "grid", c)``; a slab expects at most ``_SLAB`` jumps across
    the chunk, so memory stays bounded whatever the intensity and horizon.

    A fixed start draws nothing, so two calls with equal seeds and equal
    ``n_paths`` give the same jumps lane by lane, whatever their starts:
    lane i of ``grid_ensemble(levy, release, x, ...)`` and of
    ``grid_ensemble(levy, release, y, ...)`` is a synchronously coupled pair.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or (np.diff(grid) < 0).any() or grid[0] < 0:
        raise ValueError("grid must be sorted and non-negative")
    drift = levy.compensator_drift(eps)
    out = np.empty((n_paths, grid.size))
    for lo, x, slabs in _chunks(levy, x0, grid, n_paths, seed, eps):
        for a, t, s, j in slabs:
            x = _step_lanes(release, x, t, s, drift, a)
            del t, s  # drop the views, so the next slab can regrow the buffers
            if j is not None:
                out[lo:lo + len(x), j] = x
    return out


def event_ensemble(levy: LevyInput, release: ReleaseRate, x0,
                   horizon: float, n_paths: int, seed: int,
                   eps: float = 1e-4):
    """Every jump of ``n_paths`` lanes on (0, horizon]: flat arrays
    ``(lane, t, size, x_after)``, lane-major and in time order within a
    lane, with the state just after each jump.  Only jumps of size > 0
    are kept; a lane without one has no entry.

    The draws are ``grid_ensemble(levy, release, x0, [horizon], n_paths,
    seed, eps)``'s, so a lane's last ``x_after`` flowed to the horizon (or
    its start, if it has no jump) is that call's value for the lane.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    drift = levy.compensator_drift(eps)
    parts = []
    for lo, x, slabs in _chunks(levy, x0, [horizon], n_paths, seed, eps):
        for a, t, s, _ in slabs:
            real = (s > 0.0).T  # (lane, slot), so the kept jumps are lane-major
            lane = np.repeat(np.arange(lo, lo + len(x)), real.sum(axis=1))
            sizes = s.T[real]
            # the states overwrite the sizes, which are copied out above
            x = _step_lanes(release, x, t, s, drift, a, out=s)
            parts.append((lane, t.T[real], sizes, s.T[real]))
            del t, s  # as in grid_ensemble
    cols = list(zip(*parts))
    del parts  # so that each column's pieces are freed once it is joined
    lane, t, size, x_after = (np.concatenate(cols.pop(0)) for _ in range(4))
    if (np.diff(lane) < 0).any():  # lanes span slabs, which run in time order
        order = np.argsort(lane, kind="stable")
        for col in (lane, t, size, x_after):
            col[:] = col[order]
    return lane, t, size, x_after
