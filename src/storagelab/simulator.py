"""Path simulation for the storage process X(t) = x + A(t) - int r(X) ds.

Event-driven and exact for finite-activity inputs: between jumps the state
follows the release family's drain flow ``release.flow``, at a jump the
size is added.  Infinite-activity inputs keep jumps above the stream's
truncation level and fold the discarded mean into the inter-jump dynamics
as a constant inflow, so the flow solves x' = d_eps - r(x).

Two ways draw the same law:

* ``simulate_*`` walk one path at a time under per-path derived streams
  (bit reproducible, order independent), calling the flow on floats;
* ``grid_ensemble`` is the one cross-path engine, which the estimators in
  ergodicity_lab call.  It steps chunks of ``_CHUNK`` lanes in lock step,
  calling the same flow on arrays of lanes, and records the lanes at common
  grid times (a single grid time gives endpoints).  Chunk c draws from the
  Philox key ``(seed, "grid", c)``, and its jumps are streamed one time slab
  of about ``_SLAB`` jumps at a time, so memory stays bounded however high
  the jump intensity or long the horizon.
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
    "DistanceCurve", "simulate_path", "simulate_coupled", "simulate_ensemble",
    "grid_ensemble",
]

MERGE_TOL = 1e-9


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
        if isinstance(self.record, Grid) and self.record.times:
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


@dataclass(frozen=True)
class DistanceCurve:
    times: np.ndarray
    gaps: np.ndarray
    merge_time: float  # inf if the paths never merged


def _drift_of(levy: LevyInput, eps: float) -> float:
    return levy.compensator_drift(eps) if levy.activity == "infinite" else 0.0


def simulate_path(levy: LevyInput, release: ReleaseRate, cfg: PathConfig,
                  stream: JumpStream | None = None) -> PathRecord:
    """One exact event-driven path; recording never perturbs the dynamics."""
    stream = stream or JumpStream(cfg.seed, cfg.truncation_eps)
    times, sizes = sample_jumps(levy, stream, cfg.horizon)
    drift = _drift_of(levy, stream.truncation_eps)
    comp = drift > 0.0
    bias = (levy.small_jump_msq(stream.truncation_eps) * cfg.horizon
            if comp else 0.0)

    if isinstance(cfg.record, Grid):
        grid = np.asarray(cfg.record.times, dtype=float)
    elif isinstance(cfg.record, Endpoint):
        grid = np.asarray([cfg.horizon])
    else:
        grid = None

    x, t_prev = float(cfg.x0), 0.0
    out_t, out_v = [], []
    gi = 0
    ev_t, ev_v = [0.0], [x]
    for tj, sj in zip(times, sizes):
        if grid is not None:
            while gi < len(grid) and grid[gi] < tj:
                out_t.append(grid[gi])
                out_v.append(release.flow(x, grid[gi] - t_prev, drift))
                gi += 1
        x = release.flow(x, tj - t_prev, drift) + sj
        t_prev = tj
        if grid is None:
            ev_t.append(tj)
            ev_v.append(x)
    if grid is not None:
        while gi < len(grid):
            out_t.append(grid[gi])
            out_v.append(release.flow(x, grid[gi] - t_prev, drift))
            gi += 1
        return PathRecord(np.asarray(out_t), np.asarray(out_v),
                          int(len(times)), comp, bias_bound=bias)
    return PathRecord(np.asarray(ev_t), np.asarray(ev_v), int(len(times)), comp,
                      jump_sizes=np.concatenate([[0.0], sizes]), bias_bound=bias)


def simulate_coupled(levy: LevyInput, release: ReleaseRate, x: float, y: float,
                     cfg: PathConfig, stream: JumpStream | None = None,
                     merge_tol: float = MERGE_TOL):
    """Two copies driven by the identical jump sequence (synchronous coupling).

    After the first recorded time the gap falls below ``merge_tol`` the paths
    are identified; the distance curve before merging is untouched.
    """
    if x < 0 or y < 0:
        raise ValueError("starts must be non-negative")
    stream = stream or JumpStream(cfg.seed, cfg.truncation_eps)
    times, sizes = sample_jumps(levy, stream, cfg.horizon)
    drift = _drift_of(levy, stream.truncation_eps)
    if isinstance(cfg.record, Grid):
        grid = np.asarray(cfg.record.times, dtype=float)
    else:
        grid = np.asarray([cfg.horizon])

    xa, xb = float(x), float(y)
    t_prev = 0.0
    merge_time = math.inf
    rec_a, rec_b = [], []
    gi = 0

    def advance(xa, xb, dt):
        xa2 = release.flow(xa, dt, drift)
        xb2 = xa2 if merge_time < math.inf else release.flow(xb, dt, drift)
        return xa2, xb2

    for tj, sj in zip(times, sizes):
        while gi < len(grid) and grid[gi] < tj:
            ga, gb = advance(xa, xb, grid[gi] - t_prev)
            rec_a.append(ga)
            rec_b.append(gb)
            if merge_time == math.inf and abs(ga - gb) < merge_tol:
                merge_time = float(grid[gi])
            gi += 1
        xa, xb = advance(xa, xb, tj - t_prev)
        xa += sj
        xb = xa if merge_time < math.inf else xb + sj
        t_prev = tj
        if merge_time == math.inf and abs(xa - xb) < merge_tol:
            merge_time = float(tj)
    while gi < len(grid):
        ga, gb = advance(xa, xb, grid[gi] - t_prev)
        rec_a.append(ga)
        rec_b.append(gb)
        if merge_time == math.inf and abs(ga - gb) < merge_tol:
            merge_time = float(grid[gi])
        gi += 1
    gaps = np.abs(np.asarray(rec_a) - np.asarray(rec_b))
    rec = lambda vals: PathRecord(grid.copy(), np.asarray(vals), int(len(times)),
                                  drift > 0.0)
    return rec(rec_a), rec(rec_b), DistanceCurve(grid.copy(), gaps, merge_time)


def simulate_ensemble(levy: LevyInput, release: ReleaseRate, cfg: PathConfig,
                      n_paths: int):
    """Independent paths on streams derived per path index from the master
    seed; results are order-independent and bit-reproducible, and a single
    path reduces exactly to simulate_path on the derived stream."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    base = JumpStream(cfg.seed, cfg.truncation_eps)
    records = [simulate_path(levy, release, cfg, stream=base.derive(i))
               for i in range(n_paths)]
    if isinstance(cfg.record, (Endpoint, Grid)):
        values = np.vstack([r.values for r in records])
        if isinstance(cfg.record, Endpoint):
            return values[:, -1]
        return values
    return records


# ---------------------------------------------------------------------------
# cross-path lane engine
# ---------------------------------------------------------------------------

_CHUNK = 8192      # lanes stepped together
_SLAB = 1 << 20    # jumps one slab expects across a chunk


def _step_slab(levy, release, gen, x, a, b, lam, drift, eps):
    """Advance the lanes ``x`` from time a to b through the jumps in (a, b].

    Each lane draws a Poisson count and that many uniform times on (a, b].
    Times and sizes are (slot, lane) matrices, so each step reads one
    contiguous row; padding slots sit at b with size zero, so the stepping
    loop needs no masks, and sizes are drawn for real jumps only.
    """
    counts = gen.poisson(lam * (b - a), x.size)
    pad = np.arange(counts.max())[:, None] >= counts
    t = gen.random(pad.shape)
    t *= a - b
    t += b
    t[pad] = b
    t.sort(axis=0)
    s = np.zeros(pad.shape)
    s[~pad] = levy.sample_sizes(gen, int(counts.sum()), eps)
    tp = a
    for tk, sk in zip(t, s):
        x = release.flow(x, tk - tp, drift) + sk
        tp = tk
    return release.flow(x, b - tp, drift)


def grid_ensemble(levy: LevyInput, release: ReleaseRate, x0,
                  grid, n_paths: int, seed: int,
                  eps: float = 1e-4) -> np.ndarray:
    """Matrix (n_paths, len(grid)) of states at common grid times.

    ``x0`` is a level or a sampler ``(gen, m) -> array`` for random starts;
    ``grid_ensemble(..., [T], ...)[:, 0]`` is the ensemble of endpoints.
    Paths run in chunks of ``_CHUNK`` lanes, and chunk c (rows
    c * _CHUNK onwards) draws its starts and then all its jumps from the
    Philox key ``(seed, "grid", c)``.  Jumps are drawn and stepped one time
    slab at a time between consecutive grid times, each slab expecting at
    most ``_SLAB`` jumps across the chunk, so memory stays bounded whatever
    the intensity and horizon.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or (np.diff(grid) < 0).any() or grid[0] < 0:
        raise ValueError("grid must be sorted and non-negative")
    drift = _drift_of(levy, eps)
    lam = levy.proposal_rate(eps)
    out = np.empty((n_paths, grid.size))
    for c, lo in enumerate(range(0, n_paths, _CHUNK)):
        m = min(_CHUNK, n_paths - lo)
        gen = substream(seed, "grid", c)
        x = (np.asarray(x0(gen, m), dtype=float) if callable(x0)
             else np.full(m, float(x0)))
        a = 0.0
        for j, g in enumerate(grid):
            n_slabs = max(1, math.ceil(m * lam * (g - a) / _SLAB))
            for b in np.linspace(a, g, n_slabs + 1)[1:]:
                x = _step_slab(levy, release, gen, x, a, b, lam, drift, eps)
                a = b
            out[lo:lo + m, j] = x
    return out
