"""Path simulation for the storage process X(t) = x + A(t) - int r(X) ds.

Event-driven and exact for finite-activity inputs: between jumps the state
follows the release family's drain flow ``release.flow``, at a jump the
size is added.  Infinite-activity inputs keep jumps above the stream's
truncation level and fold the discarded mean into the inter-jump dynamics
as a constant inflow, so the flow solves x' = d_eps - r(x).

One kernel, ``_step_lanes``, steps every path through rows of jump times
and sizes, x = flow(x, t_k - t_{k-1}) + s_k; a row holds one jump per lane
of a (slot, lane) matrix, or one jump of a single path's column.  Three
feeders lay out the jumps:

* ``simulate_path``, one path's keyed draws as a column, float state;
* ``simulate_ensemble``, the draws of path i, keyed ``(seed, i, ...)``, as
  column i, padded after its last jump with size-0 slots at the horizon;
* ``grid_ensemble``, the engine of the estimators: chunk c of ``_CHUNK``
  lanes draws from the key ``(seed, "grid", c)`` one time slab of about
  ``_SLAB`` jumps at a time, so memory stays bounded, and records its
  lanes at each grid time (a single grid time gives endpoints).  Two calls
  with the same seed and ``n_paths`` from two fixed starts are a
  synchronous coupling: lane i of each sees the same jumps.

The per-path feeders record after stepping, so recording never perturbs
the dynamics: a grid value is the lane flowed from its last jump at or
before the grid time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .levy_input import JumpStream, LevyInput, sample_jumps
from .release_rate import ReleaseRate
from .rng import substream

__all__ = [
    "Endpoint", "Grid", "FullEvents", "PathConfig", "PathRecord",
    "simulate_path", "simulate_ensemble", "grid_ensemble",
]


@dataclass(frozen=True)
class Endpoint:
    pass


@dataclass(frozen=True)
class Grid:
    times: tuple

    def __post_init__(self):
        t = tuple(float(x) for x in self.times)
        if any(b < a for a, b in zip(t, t[1:])) or (t and t[0] < 0):
            raise ValueError("grid times must be sorted and non-negative")
        object.__setattr__(self, "times", t)


@dataclass(frozen=True)
class FullEvents:
    pass


@dataclass(frozen=True)
class PathConfig:
    x0: float
    horizon: float
    record: object = field(default_factory=Endpoint)
    seed: int = 0
    truncation_eps: float = 1e-4

    def __post_init__(self):
        if self.x0 < 0:
            raise ValueError("initial content must be non-negative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if isinstance(self.record, Grid):
            if not self.record.times:
                raise ValueError("grid must hold at least one time")
            if self.record.times[-1] > self.horizon:
                raise ValueError("grid times must lie within the horizon")


@dataclass(frozen=True)
class PathRecord:
    times: np.ndarray
    values: np.ndarray
    n_jumps: int
    compensator_used: bool
    jump_sizes: np.ndarray | None = None
    # mean-square truncation bias bound int_0^eps u^2 nu(du) * horizon;
    # zero when no compensation was needed
    bias_bound: float = 0.0


def _step_lanes(release: ReleaseRate, x, t, s, drift: float, tp, out=None):
    """Step the state ``x`` from time ``tp`` through the rows of jump times
    ``t`` and sizes ``s``; ``x`` is a vector of lanes or a float.  With
    ``out``, row k of it receives the state after row k."""
    for k, (tk, sk) in enumerate(zip(t, s)):
        x = release.flow(x, tk - tp, drift) + sk
        tp = tk
        if out is not None:
            out[k] = x
    return x


def _record_grid(cfg: PathConfig) -> np.ndarray:
    """The grid times ``cfg`` records at; the horizon unless a Grid."""
    times = cfg.record.times if isinstance(cfg.record, Grid) else [cfg.horizon]
    return np.asarray(times, dtype=float)


def _grid_values(release, t, n, states, grid, drift):
    """States at the grid times (first axis), each lane flowed from its last
    jump at or before the grid time: row 0 of the times ``t`` and ``states``
    is the start, row k jump k, and rows past a lane's ``n`` jumps pad."""
    k = np.array([(t <= g).sum(axis=0) - 1 for g in grid], dtype=np.intp)
    k = np.minimum(k.reshape(grid.shape + t.shape[1:]), n)
    g = grid.reshape(grid.shape + (1,) * (t.ndim - 1))
    return release.flow(np.take_along_axis(states, k, 0),
                        g - np.take_along_axis(t, k, 0), drift)


def _walk(levy, release, cfg: PathConfig, group, eps: float) -> list:
    """PathRecords of a group of paths' keyed draws, stepped from ``cfg.x0``.

    A lone path steps as a column with a float state, a group as the
    columns of (slot, lane) matrices, each padded after its last jump with
    slots at the horizon of size 0.  Row 0 of the layout is the start.
    """
    drift = levy.compensator_drift(eps)
    bias = levy.small_jump_msq(eps) * cfg.horizon  # 0 for finite activity
    n = np.array([times.size for times, _ in group])
    if n.size == 1:
        x, (times, s) = float(cfg.x0), group[0]
        t, n = np.concatenate([[0.0], times]), n[0]
    else:
        x = np.full(n.size, float(cfg.x0))
        t = np.full((n.max() + 1, n.size), cfg.horizon)
        t[0] = 0.0
        s = np.zeros((n.max(), n.size))
        real = np.arange(n.max()) < n[:, None]  # lane by lane, in order
        t[1:].T[real] = np.concatenate([times for times, _ in group])
        s.T[real] = np.concatenate([sizes for _, sizes in group])
    states = np.empty(t.shape)
    states[0] = x
    _step_lanes(release, x, t[1:], s, drift, 0.0, states[1:])
    if isinstance(cfg.record, FullEvents):
        lanes = states.reshape(len(t), -1)
        return [PathRecord(np.concatenate([[0.0], times]),
                           lanes[:times.size + 1, i].copy(), times.size,
                           drift > 0.0,
                           jump_sizes=np.concatenate([[0.0], sizes]),
                           bias_bound=bias)
                for i, (times, sizes) in enumerate(group)]
    grid = _record_grid(cfg)
    vals = _grid_values(release, t, n, states, grid, drift).reshape(grid.size, -1)
    return [PathRecord(grid, vals[:, i], times.size, drift > 0.0, bias_bound=bias)
            for i, (times, _) in enumerate(group)]


def simulate_path(levy: LevyInput, release: ReleaseRate, cfg: PathConfig,
                  stream: JumpStream | None = None) -> PathRecord:
    """One exact event-driven path; recording never perturbs the dynamics."""
    stream = stream or JumpStream(cfg.seed, cfg.truncation_eps)
    draws = sample_jumps(levy, stream, cfg.horizon)
    return _walk(levy, release, cfg, [draws], stream.truncation_eps)[0]


def _path_groups(levy, base: JumpStream, horizon: float, n_paths: int):
    """Per-path keyed draws in groups whose padded matrices hold at most
    ``_SLAB`` slots, and at least one path each."""
    group, rows = [], 0
    for i in range(n_paths):
        times, sizes = sample_jumps(levy, base.derive(i), horizon)
        if group and max(rows, times.size) * (len(group) + 1) > _SLAB:
            yield group
            group, rows = [], 0
        group.append((times, sizes))
        rows = max(rows, times.size)
    yield group


def simulate_ensemble(levy: LevyInput, release: ReleaseRate, cfg: PathConfig,
                      n_paths: int):
    """Independent paths on streams derived per path index from the master
    seed; results are order-independent and bit-reproducible.  Path i draws
    what ``simulate_path`` draws on ``JumpStream(seed, eps).derive(i)``, and
    groups of paths step together as lanes."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    base = JumpStream(cfg.seed, cfg.truncation_eps)
    records = [rec for group in _path_groups(levy, base, cfg.horizon, n_paths)
               for rec in _walk(levy, release, cfg, group, cfg.truncation_eps)]
    if isinstance(cfg.record, FullEvents):
        return records
    values = np.vstack([r.values for r in records])
    return values[:, -1] if isinstance(cfg.record, Endpoint) else values


# ---------------------------------------------------------------------------
# cross-path lane engine
# ---------------------------------------------------------------------------

_CHUNK = 8192      # lanes stepped together
_SLAB = 1 << 20    # jumps one slab expects across a chunk


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
    lam = levy.proposal_rate(eps)
    out = np.empty((n_paths, grid.size))
    for c, lo in enumerate(range(0, n_paths, _CHUNK)):
        m = min(_CHUNK, n_paths - lo)
        gen = substream(seed, "grid", c)
        x = (np.asarray(x0(gen, m), dtype=float) if callable(x0)
             else np.full(m, float(x0)))
        bufs = [np.empty((0, m))] * 2
        a = 0.0
        for j, g in enumerate(grid):
            n_slabs = max(1, math.ceil(m * lam * (g - a) / _SLAB))
            for b in np.linspace(a, g, n_slabs + 1)[1:]:
                # no view of the buffer outlives the step, so it can regrow
                x = _step_lanes(release, x, *_draw_slab(
                    levy, gen, bufs, m, a, b, lam, eps), drift, a)
                a = b
            out[lo:lo + m, j] = x
    return out
