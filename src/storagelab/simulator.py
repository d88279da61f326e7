"""Path simulation for the storage process X(t) = x + A(t) - int r(X) ds.

Event-driven and exact for finite-activity inputs: between jumps the state
follows the release family's drain flow ``release.flow``, at a jump the
size is added.  Infinite-activity inputs keep jumps above the truncation
level ``eps`` and fold the discarded mean into the inter-jump dynamics as a
constant inflow, so the flow solves x' = d_eps - r(x).

One engine draws every path.  ``_chunks`` lays the jumps out: chunk c of
``_CHUNK`` lanes draws from the key ``(seed, "grid", c)`` its starts, then
its jumps one time slab (a, b] of about ``_SLAB`` jumps at a time, so
memory stays bounded.  A slab is a staircase: its lanes are ordered by
their Poisson counts, descending, and a lane with c jumps has c + 1 rows,
its jumps in time order and then the slab end b with size 0.  Row k is
held by the lanes with at least k jumps, a prefix of the order, and no
cell past a lane's last row is drawn, sorted or stepped.  One kernel,
``_step_lanes``, steps the lanes through their rows, x = flow(x, t_k -
t_{k-1}) + s_k: one ``release.flow`` call per row on the lanes that have
it, in closed form or by the release's drain clock.  Two consumers read
the engine:

* ``grid_ensemble`` records the lanes at each grid time (a single grid
  time gives endpoints); it puts the lanes in a slab's order to step them
  and back after.  Two calls with the same seed and ``n_paths`` from two
  fixed starts are a synchronous coupling: lane i of each sees the same
  jumps.
* ``event_ensemble`` keeps every jump with its time, size and the state
  after it, gathered lane by lane in the lanes' own order.

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
_NETWORK = 5       # the longest rows sorted by a compare-exchange network


def _step_lanes(release: ReleaseRate, x, t, s, rows, drift: float, tp,
                out=None):
    """Step the lanes ``x`` from time ``tp`` through a staircase slab: lane
    p takes rows 0..rows[p]-1 of the (row, lane) matrices of jump times
    ``t`` and sizes ``s``, and ``rows`` is non-increasing, so row k is held
    by a prefix of the lanes.  With ``out``, cell (k, p) of it receives
    lane p's state after its row k; ``out`` may be ``s`` itself, as a cell
    is read first.  No cell past a lane's last row is read or written.  Rows
    that every lane has are stepped whole, the rest on their prefix, in place."""
    # the number of lanes that have row k, for each k
    width = np.searchsorted(-rows, -np.arange(rows[0]), side="left")
    for k, w in enumerate(width):
        tk, sk = t[k, :w], s[k, :w]
        if w == x.size:  # as row 0 is: x is the flow's own array after it
            x = release.flow(x, tk - tp, drift) + sk
        else:
            np.add(release.flow(x[:w], tk - tp[:w], drift), sk, out=x[:w])
        tp = tk
        if out is not None:
            out[k, :w] = x[:w]
    return x


def _sort_rows(u):
    """Sort each row of u in place; numpy takes one call per row, so short
    rows go through an insertion network of compare-exchanges on columns."""
    m, c = u.shape
    if c > _NETWORK or 64 * c * (c - 1) > m:  # 128 rows to a compare-exchange
        return u.sort(axis=1)
    for i in range(1, c):
        for j in range(i, 0, -1):
            a, b = u[:, j - 1], u[:, j]
            a[:], b[:] = np.minimum(a, b), np.maximum(a, b)


def _draw_slab(levy, gen, bufs, m, a, b, lam, eps):
    """The jumps of m lanes in (a, b] as a staircase slab in the chunk's
    buffers ``bufs``: ``(order, rows, t, s)``.

    Each lane draws a Poisson count c; the lanes are ordered by count,
    descending and stable, and ``order`` gives each position's lane.  The
    lane at position p has rows[p] = c + 1 rows: its c jumps in time order,
    then the slab end b with size 0.  t and s are (row, lane) views of
    lane-major (position, row) buffers, of which only those cells are
    drawn.  One ``sample_sizes`` call draws the sizes of every jump; then
    the lanes of each count, from the highest down, draw one block of
    uniform times sorted along the lane, in their own cells of the size
    buffer, which take their sizes once the times are written."""
    counts = gen.poisson(lam * (b - a), m)
    top = int(counts.max())
    # a stable sort of a key of at most 16 bits is a radix sort
    order = np.argsort((top - counts).astype(np.min_scalar_type(top)),
                       kind="stable")
    rows = counts[order] + 1
    n = top + 1
    if bufs[0].size < m * n:
        bufs[:] = [None, None]  # free the old buffers first: never both
        bufs[:] = [np.empty(m * (n + n // 8 + 1)) for _ in range(2)]
    t, s = (buf[:m * n].reshape(m, n) for buf in bufs)
    sizes = levy.sample_sizes(gen, int(rows.sum()) - m, eps)
    # the first position of each count, and the sizes its lanes take
    firsts = np.flatnonzero(np.diff(rows, prepend=0))
    for c, lo, hi in zip(rows[firsts] - 1, firsts, np.append(firsts[1:], m)):
        used, sizes = sizes[:(hi - lo) * c], sizes[(hi - lo) * c:]
        u = bufs[1][lo * n:lo * n + used.size].reshape(hi - lo, c)
        gen.random(out=u)
        _sort_rows(u)
        # b + (a - b) u is in (a, b] and falls as u rises
        np.multiply(u[:, ::-1], a - b, out=t[lo:hi, :c])
        t[lo:hi, :c] += b
        t[lo:hi, c] = b
        s[lo:hi, :c] = used.reshape(hi - lo, c)
        s[lo:hi, c] = 0.0
    return order, rows, t.T, s.T


def _slabs(levy, gen, m, grid, lam, eps):
    """A chunk's slabs in time order, as ``(a, order, rows, t, s, j)``: the
    slab starts at time a, ``_draw_slab`` gives the staircase, and j is
    the index of the grid time it ends at, or None.  The matrices t and s
    view the chunk's buffers: they are only valid until the next slab is
    drawn, and a view still held then keeps the old buffers alive next to
    the new ones."""
    bufs = [np.empty(0)] * 2
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
    Chunk c draws from the key ``(seed, "grid", c)``: its starts first
    (``x0`` is a level or a sampler ``(gen, m) -> array``), then its
    slabs, each expecting at most ``_SLAB`` jumps across the chunk."""
    lam = levy.restricted_rate(eps)
    for c, lo in enumerate(range(0, n_paths, _CHUNK)):
        m = min(_CHUNK, n_paths - lo)
        gen = substream(seed, "grid", c)
        x = (np.array(x0(gen, m), dtype=float) if callable(x0)
             else np.full(m, float(x0)))
        yield lo, x, _slabs(levy, gen, m, grid, lam, eps)


def grid_ensemble(levy: LevyInput, release: ReleaseRate, x0,
                  grid, n_paths: int, seed: int,
                  eps: float = 1e-4) -> np.ndarray:
    """Matrix (n_paths, len(grid)) of states at common grid times.

    ``x0`` is a level or a sampler ``(gen, m) -> array`` for random starts;
    ``grid_ensemble(..., [T], ...)[:, 0]`` is the ensemble of endpoints.
    Chunk c of ``_CHUNK`` lanes (rows c * _CHUNK onwards) draws its starts,
    then its jumps one time slab at a time, from the key
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
        for a, order, rows, t, s, j in slabs:
            x[order] = _step_lanes(release, x[order], t, s, rows, drift, a)
            del t, s  # drop the views, so the next slab can regrow the buffers
            if j is not None:
                out[lo:lo + len(x), j] = x
    return out


def event_ensemble(levy: LevyInput, release: ReleaseRate, x0,
                   horizon: float, n_paths: int, seed: int,
                   eps: float = 1e-4):
    """Every jump of ``n_paths`` lanes on (0, horizon]: flat arrays
    ``(lane, t, size, x_after)``, lane-major and in time order within a
    lane, with the state just after each jump.  A lane without a jump has
    no entry.

    The draws are ``grid_ensemble(levy, release, x0, [horizon], n_paths,
    seed, eps)``'s, so a lane's last ``x_after`` flowed to the horizon (or
    its start, if it has no jump) is that call's value for the lane.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    drift = levy.compensator_drift(eps)
    parts = []
    for lo, x, slabs in _chunks(levy, x0, [horizon], n_paths, seed, eps):
        m = len(x)
        for a, order, rows, t, s, _ in slabs:
            # lane i's jumps are the first rows of its position pos[i] in
            # the lane-major buffers t.T and s.T, here flat in lane order
            pos = np.empty_like(order)
            pos[order] = np.arange(m)
            c = rows[pos] - 1
            idx = np.repeat(pos * len(t) - (np.cumsum(c) - c), c)
            idx += np.arange(idx.size)
            sizes = s.T.ravel()[idx]
            # the states overwrite the sizes, which are copied out above
            x[order] = _step_lanes(release, x[order], t, s, rows, drift, a,
                                   out=s)
            parts.append((np.repeat(np.arange(lo, lo + m), c),
                          t.T.ravel()[idx], sizes, s.T.ravel()[idx]))
            del t, s  # as in grid_ensemble
    cols = list(zip(*parts))
    del parts  # so that each column's pieces are freed once it is joined
    lane, t, size, x_after = (np.concatenate(cols.pop(0)) for _ in range(4))
    if (np.diff(lane) < 0).any():  # lanes span slabs, which run in time order
        order = np.argsort(lane, kind="stable")
        for col in (lane, t, size, x_after):
            col[:] = col[order]
    return lane, t, size, x_after
