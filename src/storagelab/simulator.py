"""Path simulation for the storage process X(t) = x + A(t) - int r(X) ds.

Event-driven and exact for finite-activity inputs: between jumps the state
follows the release family's drain flow ``release.flow``, at a jump the
size is added.  Infinite-activity inputs keep jumps above the truncation
level ``eps`` and fold the discarded mean into the inter-jump dynamics as a
constant inflow, so the flow solves x' = d_eps - r(x).

One engine draws every path.  Starts are given, never drawn: lane i starts
at ``x0[i]``, or at ``x0`` where it is a level.  ``_chunks`` lays the jumps
out: chunk c of ``_CHUNK`` lanes draws from the key ``(seed, "grid", c)``
its jumps, one time slab (a, b] of about ``_SLAB`` jumps at a time.  A slab
is a staircase held row-major: its lanes are ordered by Poisson count,
descending, a lane with c jumps has c + 1 rows, and row k, held by the
lanes with at least k jumps, is one contiguous run of a compact buffer.
The rows are exponential spacings (Renyi; Devroye 1986, ch. V.2): a lane
draws c + 1 standard exponentials e_k of sum S; its jump times a + (b - a)
(e_0 + ... + e_k) / S, k < c, are then c uniform order statistics on (a, b].
Row k steps by (b - a) e_k / S, the last by b less the last jump's time.
``_step_lanes`` walks the rows, x = flow(x, step) + size, one
``release.flow`` call per row on its lanes.  Two consumers read it here
(and ``ergodicity_lab``'s occupation tail reads its steps):

* ``grid_ensemble`` records the lanes at each grid time (a single grid
  time gives endpoints); it puts the lanes in a slab's order to step them
  and back after.  Two calls with the same seed and ``n_paths`` are a
  synchronous coupling whatever their starts: lane i of each sees the same
  jumps.
* ``event_ensemble`` yields, chunk by chunk, each lane's start and then
  every jump with its time, size and the state after it, lane by lane.

Both consume the same draws, so the last row of a lane of
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


def _step_lanes(release: ReleaseRate, x, width, dt, sizes, drift: float,
                out=None):
    """Step the lanes ``x`` through a staircase slab: row k, held by the
    first ``width[k]`` lanes, takes the next ``width[k]`` steps of ``dt``,
    then its first ``width[k + 1]`` lanes (for which it is a jump, not the
    slab end) the next as many ``sizes``; with ``out``, those cells of
    ``out`` get the states after the jumps.  ``x`` is read, never written."""
    width = width.tolist()
    lo = j = 0
    for w, v in zip(width, width[1:] + [0]):
        y = release.flow(x[:w], dt[lo:lo + w], drift)
        if w == x.size:  # as row 0 is: x is the flow's own array after it
            x = y
        elif v < w:
            x[v:w] = y[v:]
        np.add(y[:v], sizes[j:j + v], out=x[:v])
        if out is not None:
            out[j:j + v] = x[:v]
        lo, j = lo + w, j + v
    return x


def _positions(width):
    """The position of each cell of rows of widths ``width``, row by row: a
    slab's steps for its ``width``, its jumps for ``width[1:]``."""
    return np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)


def _draw_slab(levy, gen, buf, m, a, b, lam, eps, times=False):
    """The jumps of m lanes in (a, b] as a staircase slab ``(order, width,
    dt, sizes, t)``: lanes ordered by Poisson count, descending and stable
    (``order`` gives each position's lane), row k held by the first
    ``width[k]``; the rows' steps one after another in the chunk's buffer
    ``buf[0]``, valid until the next slab is drawn; the jumps' sizes and,
    with ``times``, times, row by row.  A lane's last step is b less its
    last jump's time as a consumer reads it, bit for bit."""
    counts = gen.poisson(lam * (b - a), m)
    top = int(counts.max())
    # a stable sort of a key of at most 16 bits is a radix sort
    order = np.argsort((top - counts).astype(np.min_scalar_type(top)),
                       kind="stable")
    width = np.cumsum(np.bincount(counts)[::-1])[::-1]
    n = int(width.sum())
    if buf[0].size < n:
        buf[0] = None  # free the old buffer first: never both
        buf[0] = np.empty(n + n // 8 + 1)
    dt = gen.standard_exponential(out=buf[0][:n])
    sizes = levy.sample_sizes(gen, n - m, eps)
    t = np.empty(n - m) if times else None
    # each lane's sum of spacings, and its sum before the last one
    total, before = np.zeros(m), np.empty(m)
    rows = list(zip(width.tolist(), width[1:].tolist() + [0]))
    lo = j = 0
    for w, v in rows:
        if v < w:
            before[v:w] = total[v:w]
        total[:w] += dt[lo:lo + w]
        if times:
            t[j:j + v] = total[:v]
        lo, j = lo + w, j + v
    scale = (b - a) / total
    end = b - (before * scale + a)
    lo = 0
    for w, v in rows:
        row = dt[lo:lo + w]
        row *= scale[:w]
        if v < w:
            row[v:] = end[v:w]
        lo += w
    if times:
        t *= scale[_positions(width[1:])]
        t += a
    return order, width, dt, sizes, t


def _slabs(levy, gen, m, grid, lam, eps, times):
    """A chunk's slabs in time order, as ``(a, order, width, dt, sizes, t,
    j)``: the slab starts at time a, ``_draw_slab`` gives the staircase,
    and j is the index of the grid time it ends at, or None.  A view of
    ``dt`` held as the next slab is drawn keeps the old buffer alive."""
    buf = [np.empty(0)]
    a = 0.0
    for j, g in enumerate(grid):
        n_slabs = max(1, math.ceil(m * lam * (g - a) / _SLAB))
        for b in np.linspace(a, g, n_slabs + 1)[1:]:  # the last b is g
            yield (a, *_draw_slab(levy, gen, buf, m, a, b, lam, eps, times),
                   j if b == g else None)
            a = b


def _chunks(levy, x0, grid, n_paths, seed, eps, times=False):
    """The engine's draws, one chunk of lanes at a time: ``(lo, x, slabs)``
    with the chunk's first lane lo, a copy of its starts x and its
    ``_slabs`` (with jump times if ``times``).  ``x0``, checked at the call,
    is a level or one start per lane.  Chunk c draws its slabs, each
    expecting at most ``_SLAB`` jumps, from ``(seed, "grid", c)`` alone."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim and x0.shape != (n_paths,):
        raise ValueError(f"x0 must be a level or {n_paths} starts, "
                         f"not an array of shape {x0.shape}")
    x0 = np.broadcast_to(x0, n_paths)
    lam = levy.restricted_rate(eps)
    return ((lo, x0[lo:lo + _CHUNK].copy(),
             _slabs(levy, substream(seed, "grid", c),
                    min(_CHUNK, n_paths - lo), grid, lam, eps, times))
            for c, lo in enumerate(range(0, n_paths, _CHUNK)))


def grid_ensemble(levy: LevyInput, release: ReleaseRate, x0,
                  grid, n_paths: int, seed: int,
                  eps: float = 1e-4) -> np.ndarray:
    """Matrix (n_paths, len(grid)) of states at common grid times.

    ``x0`` is a level or an array of ``n_paths`` starts, lane i from
    ``x0[i]``; ``grid_ensemble(..., [T], ...)[:, 0]`` is the ensemble of
    endpoints.  Memory stays bounded whatever the intensity and horizon, as
    chunks of ``_CHUNK`` lanes (rows c * _CHUNK onwards) draw slabs of
    ``_SLAB`` jumps.

    Starts draw nothing, so two calls with equal seeds and equal
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
        for _, order, width, dt, sizes, _, j in slabs:
            x[order] = _step_lanes(release, x[order], width, dt, sizes, drift)
            del dt  # drop the view, so the next slab can regrow the buffer
            if j is not None:
                out[lo:lo + len(x), j] = x
    return out


def event_ensemble(levy: LevyInput, release: ReleaseRate, x0,
                   horizon: float, n_paths: int, seed: int,
                   eps: float = 1e-4):
    """The rows of ``n_paths`` lanes on [0, horizon], as a generator of one
    chunk of lanes at a time: flat arrays ``(lane, t, size, x_after)``,
    lane-major.  A lane opens with its start (t = 0, size 0), then each
    jump in time order, with the state just after it.  ``x0`` is a level
    or one start per lane, as grid_ensemble takes it.

    The draws are ``grid_ensemble(levy, release, x0, [horizon], n_paths,
    seed, eps)``'s: a lane's last row, flowed from its ``t`` to the
    horizon, is that call's value for the lane.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    drift = levy.compensator_drift(eps)
    return (_chunk_rows(release, drift, *chunk) for chunk in
            _chunks(levy, x0, [horizon], n_paths, seed, eps, times=True))


def _chunk_rows(release, drift, lo, x, slabs):
    """``event_ensemble``'s rows of a chunk: lanes lo on, from starts ``x``."""
    parts = [(np.arange(len(x), dtype=np.uint16), np.zeros_like(x),
              np.zeros_like(x), x.copy())]
    for _, order, width, dt, sizes, t, _ in slabs:
        after = np.empty_like(sizes)
        x[order] = _step_lanes(release, x[order], width, dt, sizes, drift,
                               out=after)
        del dt  # as in grid_ensemble
        parts.append((order[_positions(width[1:])].astype(np.uint16), t,
                      sizes, after))
    lane, t, size, x_after = map(np.concatenate, zip(*parts))
    del parts
    # starts first, then slabs and their rows in time order: a stable sort
    # by the chunk's lane (a radix sort, as _CHUNK < 2^16) keeps that order
    by_lane = np.argsort(lane, kind="stable")
    for col in (t, size, x_after):
        col[:] = col[by_lane]
    return np.add(lane[by_lane], lo, dtype=np.int64), t, size, x_after
