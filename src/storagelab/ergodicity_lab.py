"""Monte Carlo estimation of stationary tails and convergence curves.

Estimators here are the empirical side of the story: occupation-based or
endpoint-based stationary tails, histogram total-variation decay against a
stationary reference sample, and one-dimensional Wasserstein decay from
sorted samples.  Each reports standard errors (bootstrap, or the spread
between independent chains) and, where a decay exponent is wanted, a
log-log fit restricted to the trustworthy part of the curve (past the
transient, above the estimator noise floor).  ``laplace_check`` tests the
engine's own jumps against E e^(-lam A(t)) = e^(t psi(lam)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import classify
from .errors import Divergent, MomentConditionFailed, NotStationaryRegime
from .levy_input import CompoundPoisson, Exponential, LevyInput
from .lyapunov import (
    DriftCertificate,
    GapBound,
    LowerRateCurve,
    check_wasserstein_contraction,
)
from .numerics import FitResult, fit_loglog, integrate_semiinfinite, invert_monotone
from .release_rate import Affine, Constant, ReleaseRate, signed_drain_time
from .rng import substream
from .simulator import _chunks, _positions, _step_lanes, grid_ensemble

__all__ = [
    "TailEstimate", "DecayCurve", "RateComparison", "estimate_tail",
    "estimate_tv_decay", "estimate_wp_decay", "compare_rates",
    "wasserstein_1d", "w1_cdf_area", "reference_horizon", "reference_draws",
    "tail_draws", "stationary_tail", "laplace_check",
]

N_BOOT = 200
# independent chains of the long-run tail estimator (see estimate_tail)
_LONGRUN_LANES = 16
# resampled draws one bootstrap block holds: the W_p bootstrap resamples a few
# replicates at a time, so its working memory stays near 1 MB per array
# whatever the ensemble size
_BOOT_CELLS = 1 << 17
# samples each lane of the stationary reference records (see
# _stationary_reference)
_REF_K = 16
# the stationary horizon's floor and target TV rate (see reference_horizon)
_T_MIN = 20.0
_TARGET_RATE = 100.0


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    levels: np.ndarray
    pi_bar_hat: np.ndarray
    stderr: np.ndarray
    method: str


@dataclass(frozen=True)
class DecayCurve:
    times: np.ndarray
    metric: str
    values: np.ndarray
    stderr: np.ndarray
    fitted: FitResult | None
    noise_floor: float
    fit_mask: np.ndarray
    reference_curve: np.ndarray | None = None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def reference_horizon(t_last: float,
                      certificate: DriftCertificate | None) -> float:
    """The chains' horizon t_ref: the latest of 2 ``t_last`` (the last time
    compared against), _T_MIN, and where a valid certificate's TV rate
    passes _TARGET_RATE."""
    t_ref, goal = max(2.0 * t_last, _T_MIN), math.log(_TARGET_RATE)
    if (certificate is not None and certificate.valid
            and certificate.log_predicted_tv_rate(1e6) >= goal):
        t_ref = max(t_ref, invert_monotone(certificate.log_predicted_tv_rate, goal,
                                           (1e-6, 1e6)))
    return t_ref


def _reference_grid(t_ref: float) -> np.ndarray:
    """The times each chain of the reference is recorded at."""
    return t_ref * (1.0 + np.arange(_REF_K) / _REF_K)


def _reference_lanes(n: int) -> int:
    """The lanes of a stationary reference of at least ``n`` draws: n /
    _REF_K rounded up, and at least two, so that the W_p noise floor has
    two halves of lanes to compare."""
    return max(2, -(-n // _REF_K))


def _load(levy, release) -> float | None:
    """rho = m_nu / a where the stationary law is the Pollaczek-Khinchine
    one (a Constant release, a CompoundPoisson input, rho < 1), else None."""
    if not (isinstance(release, Constant) and isinstance(levy, CompoundPoisson)):
        return None
    rho = levy.first_moment() / release.a
    return rho if rho < 1.0 else None


def stationary_tail(levy, release):
    """pi_bar as a function of levels where it has a closed form, else
    None: with CompoundPoisson(lam, Exponential(mu)) input, rho e^(-(mu -
    lam / a) u) under Constant(a) at load rho < 1 (M/M/1, see _load), and
    the Gamma(lam / b, mu) tail under Affine(0, b) (shot noise)."""
    if not (isinstance(levy, CompoundPoisson)
            and isinstance(levy.jump, Exponential)):
        return None
    lam, mu = levy.rate, levy.jump.mu
    rho = _load(levy, release)
    if rho is not None:
        return lambda u: rho * np.exp(-(mu - lam / release.a) * np.asarray(u))
    if isinstance(release, Affine) and release.a == 0.0 and lam > 0.0:
        tail = np.vectorize(_gamma_tail, otypes=[float])
        return lambda u: tail(lam / release.b, mu * np.asarray(u))
    return None


def _gamma_tail(s: float, x: float) -> float:
    """Q(s, x), the Gamma(s, 1) tail at x, s > 0: 1 less P's series below x
    = s + 1, else Q's continued fraction (modified Lentz; Numerical Recipes
    6.2), each to rounding.  Not scipy's gammaincc: scipy costs ~23 MB RSS."""
    if x <= 0.0:
        return 1.0
    front = math.exp(s * math.log(x) - x - math.lgamma(s))
    if x < s + 1.0:
        term = total = 1.0 / s
        k = s
        while term > total * 1e-17:
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - front * total
    # 1 / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / (...)))
    b = x + 1.0 - s
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 100_000):
        a = i * (s - i)
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return front * h


def reference_draws(levy, release, n: int, t_last: float,
                    certificate: DriftCertificate | None, eps: float) -> float:
    """The draws ``_stationary_reference`` expects to make with these
    arguments, before any is made: for the exact law M _REF_K counts and on
    average rho / (1 - rho) sizes each, M _REF_K / (1 - rho) in all; for
    the chains their retained jumps, M x rate x (31/16) t_ref."""
    lanes, rho = _reference_lanes(n), _load(levy, release)
    if rho is not None:
        return lanes * _REF_K / (1.0 - rho)
    horizon = reference_horizon(t_last, certificate)
    return lanes * levy.restricted_rate(eps) * _reference_grid(horizon)[-1]


def _stationary_reference(levy, release, n: int, t_last: float,
                          certificate: DriftCertificate | None, seed: int, eps: float):
    """At least ``n`` stationary draws as an (M, _REF_K) matrix, rows lanes,
    M = _reference_lanes(n), and their horizon t_ref (reference_horizon).

    Under constant release a with compound-Poisson input of load rho =
    m_nu / a < 1 the stationary law is the M/G/1 workload's, which the
    Pollaczek-Khinchine formula gives exactly: a Geometric(rho) number N of
    i.i.d. draws of the integrated-tail law P(J > y) / E[J] dy, summed, so
    an atom 1 - rho at 0.  Those draws come from the key ``(seed,
    "pollaczek-khinchine")``, and t_ref is inf.

    Any other model runs chains: the M lanes start at 0 and each is
    recorded at the _REF_K times t_ref (1 + j / _REF_K), j < _REF_K, many
    samples along a few long chains (Gelman & Rubin 1992) at about 2 /
    _REF_K of the cost of n independent endpoints at t_ref.  Samples on one
    lane are correlated, so resampling and splitting go by whole lanes; for
    the exact draws, which are i.i.d., that is exact too.
    """
    lanes, rho = _reference_lanes(n), _load(levy, release)
    if rho is not None:
        gen = substream(seed, "pollaczek-khinchine")
        count = gen.geometric(1.0 - rho, lanes * _REF_K) - 1
        sizes = levy.jump.sample_integrated_tail(gen, int(count.sum()))
        draws = np.bincount(np.repeat(np.arange(count.size), count),
                            weights=sizes, minlength=count.size)
        return draws.reshape(lanes, _REF_K), math.inf
    t_ref = reference_horizon(t_last, certificate)
    return grid_ensemble(levy, release, 0.0, _reference_grid(t_ref), lanes,
                         seed, eps), t_ref


def _fit_past_floor(t_grid: np.ndarray, values: np.ndarray, floor: float):
    """Fit mask (times > 0 from the grid midpoint on, above twice the floor)
    and its fit, or None with fewer than two distinct times in the mask."""
    mask = ((np.arange(t_grid.size) >= t_grid.size // 2) & (t_grid > 0.0)
            & (values > 2.0 * floor))
    times = t_grid[mask]
    return mask, fit_loglog(times, values[mask]) if np.unique(times).size >= 2 else None


def _as_lanes(reference: np.ndarray) -> np.ndarray:
    """A reference as a matrix of lanes: a 1-D sample is one draw per lane."""
    reference = np.asarray(reference, dtype=float)
    return reference.reshape(len(reference), -1)


def _regime_guard(levy, release, regime: str | None):
    if regime is None:
        regime = classify(levy, release).verdict
    if regime == "Transient":
        raise NotStationaryRegime("no stationary law: the model is transient")
    if regime != "PositiveRecurrent":
        warnings.warn(f"estimating a stationary tail in regime {regime!r}",
                      stacklevel=3)


def _burn_in(budget, certificate) -> float:
    """Each occupation chain's burn-in: a fifth of its window, capped by 10x
    the certificate's relaxation guess 1/drift_margin."""
    burn = budget / _LONGRUN_LANES / 5.0
    if certificate is not None and certificate.valid:
        burn = min(10.0 / max(certificate.drift_margin, 1e-2), burn)
    return burn


def _occupation_tails(levy, release, u_grid, budget, seed, eps, certificate):
    """Per-chain fractions of time above each level, (_LONGRUN_LANES,
    n_levels), and the method label: exact occupation times along
    _LONGRUN_LANES chains from 0, each over its _burn_in plus budget /
    _LONGRUN_LANES time units, read off the engine slab by slab.  A chain
    only drains between jumps, so a step, from the slab's start or a jump,
    spends G(x) - G(u) above u from its state x, capped by its dt, all at
    its start.  A step from s < burn is cut by c = burn - s: G(x) - c, dt -
    c, whatever the slab edges.  Steps that end before the burn-in, or
    start at 0 (where G may be -inf), are not read."""
    lane_window = budget / _LONGRUN_LANES
    burn = _burn_in(budget, certificate)
    occ = np.zeros((_LONGRUN_LANES, len(u_grid)))
    (_, x, slabs), = _chunks(levy, 0.0, [burn + lane_window], _LONGRUN_LANES,
                             seed, eps, times=True)  # one chunk of lanes
    for a, order, width, dt, sizes, t, _ in slabs:
        # each step's start: the lanes at a, then the states after jumps
        start = np.empty(len(dt))
        start[:x.size] = x[order]
        x[order] = _step_lanes(release, start[:x.size], width, dt, sizes, 0.0,
                               out=start[x.size:])
        # each step's cut: its time before the burn-in
        cut = np.maximum(burn - np.concatenate((np.full(x.size, a), t)), 0.0)
        keep = (start > 0.0) & (dt > cut)
        lane, cut = order[_positions(width)][keep], cut[keep]
        g_x = signed_drain_time(release, start[keep])
        g_x -= cut
        dt = dt[keep]
        dt -= cut
        del cut, start  # the level loop holds only its own arrays
        for j, gu in enumerate(signed_drain_time(release, u_grid)):
            above = np.minimum(np.maximum(g_x - gu, 0.0), dt)
            occ[:, j] += np.bincount(lane, above, minlength=_LONGRUN_LANES)
    return occ / lane_window, (f"LongRunTimeAverage(lanes={_LONGRUN_LANES}, "
                               f"window={budget:g}, burn={burn:g})")


def _endpoint_tails(levy, release, u_grid, budget, seed, eps, certificate):
    """Per-chain fractions of draws above each level, (lanes, n_levels),
    and the method label: the lanes of ``_stationary_reference`` (at least
    ``budget`` draws) at the horizon it picks."""
    lanes, horizon = _stationary_reference(levy, release, budget, 0.0,
                                           certificate, seed, eps)
    return ((lanes[:, :, None] > u_grid).mean(axis=1),
            f"EnsembleEndpoint(T={horizon:g})")


# fewest samples a tail estimate accepts as its budget
_MIN_TAIL_SAMPLES = 1000


def _occupies(levy, release, eps) -> bool:
    """Whether the tail reads occupation chains: a drift-free input, and no
    exact stationary law (_load)."""
    return levy.compensator_drift(eps) == 0.0 and _load(levy, release) is None


def tail_draws(levy: LevyInput, release: ReleaseRate, budget: int,
               certificate: DriftCertificate | None, eps: float) -> float:
    """The draws ``estimate_tail`` expects to make, before any is made: the
    occupation chains' window of ``budget`` time units and their burn-ins
    hold rate x (budget + _LONGRUN_LANES burn) jumps; the other branches
    draw their reference."""
    if _occupies(levy, release, eps):
        return levy.restricted_rate(eps) * (
            budget + _LONGRUN_LANES * _burn_in(budget, certificate))
    return reference_draws(levy, release, budget, 0.0, certificate, eps)


def estimate_tail(levy: LevyInput, release: ReleaseRate, u_grid, budget: int,
                  seed: int = 0, eps: float = 1e-4,
                  certificate: DriftCertificate | None = None,
                  regime: str | None = None) -> TailEstimate:
    """Stationary tail pi_bar on a strictly increasing level grid, with
    standard errors, from a few long chains (Gelman & Rubin 1992).

    Between jumps a drift-free input (``levy.compensator_drift(eps) == 0``,
    finite activity) only drains, so occupation times are exact: each of
    ``_LONGRUN_LANES`` chains integrates them over budget / _LONGRUN_LANES
    time units past its burn-in (_occupation_tails).  Any other input, and
    one with an exact stationary law (_load), reads ``budget`` draws of the
    stationary reference (_endpoint_tails).  The estimate is the mean over
    chains and its stderr their spread / sqrt(chains).  A chain's fraction
    of time, or of draws, above a level cannot grow with the level, so
    neither can the estimate.
    """
    if budget < _MIN_TAIL_SAMPLES:
        raise ValueError(f"budget must provide at least {_MIN_TAIL_SAMPLES} "
                         "samples")
    _regime_guard(levy, release, regime)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.ndim != 1 or u_grid.size == 0 or (np.diff(u_grid) <= 0).any():
        raise ValueError("u_grid must be a non-empty, strictly increasing array")
    tails = (_occupation_tails if _occupies(levy, release, eps)
             else _endpoint_tails)
    per_chain, method = tails(levy, release, u_grid, budget, seed, eps,
                              certificate)
    return TailEstimate(u_grid, per_chain.mean(axis=0),
                        per_chain.std(axis=0, ddof=1) / math.sqrt(len(per_chain)),
                        method)


# ---------------------------------------------------------------------------
# total variation decay
# ---------------------------------------------------------------------------

def _equal_mass_edges(reference: np.ndarray, bins: int) -> np.ndarray:
    qs = np.quantile(reference, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    edges = np.unique(qs)
    return np.concatenate([[-np.inf], edges, [np.inf]])


def _lane_counts(lanes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram counts of each lane, shape (lanes, bins), binned as
    np.histogram bins them (half-open bins, finite values).  Each lane is
    sorted first, as numpy's search runs faster on sorted keys."""
    m, bins = len(lanes), len(edges) - 1
    idx = np.searchsorted(edges[1:-1], np.sort(lanes, axis=1), side="right")
    idx += np.arange(m)[:, None] * bins
    return np.bincount(idx.ravel(), minlength=m * bins).reshape(m, bins)


def estimate_tv_decay(levy: LevyInput, release: ReleaseRate, x0: float,
                      t_grid, n_paths: int, seed: int = 0, bins: int = 64,
                      eps: float = 1e-4,
                      certificate: DriftCertificate | None = None,
                      reference: np.ndarray | None = None,
                      regime: str | None = None) -> DecayCurve:
    """Histogram TV between the time-t ensemble and a stationary reference.

    The reference sample (doubled budget from _stationary_reference) fixes
    equal-mass bins; the reported TV is a lower bound on the true total
    variation up to binning bias.  The bootstrap resamples the time-t
    ensemble path by path and the reference lane by lane.  Points below
    twice the noise floor sqrt(bins / n_paths) and before the grid midpoint
    are excluded from the exponent fit, as are times <= 0; with fewer than
    two distinct times left ``fitted`` is None.
    """
    _regime_guard(levy, release, regime)
    t_grid = np.asarray(t_grid, dtype=float)
    if reference is None:
        reference = _stationary_reference(levy, release, 2 * n_paths, float(t_grid[-1]),
                                          certificate, seed + 1, eps)[0]
    lanes = _as_lanes(reference)
    edges = _equal_mass_edges(lanes.ravel(), bins)
    ref_counts = _lane_counts(lanes, edges)
    p_ref = ref_counts.sum(axis=0) / lanes.size
    mat = grid_ensemble(levy, release, x0, t_grid, n_paths, seed, eps)
    gen = substream(seed, "tv-boot")
    # the reference is one sample for the whole curve, so one set of lane
    # resamples serves every time point: Multinomial(m, 1/m) weights, as
    # the counts of m uniform picks, by one bincount offset by replicate
    m = len(lanes)
    picks = gen.integers(0, m, (N_BOOT, m))
    picks += m * np.arange(N_BOOT)[:, None]
    weights = np.bincount(picks.ravel(), minlength=N_BOOT * m).reshape(N_BOOT, m)
    br = weights @ ref_counts.astype(float) / lanes.size
    probs = _lane_counts(mat.T, edges) / n_paths
    values = np.empty(t_grid.size)
    se = np.empty(t_grid.size)
    for j, p_t in enumerate(probs):
        values[j] = 0.5 * np.abs(p_t - p_ref).sum()
        bt = gen.multinomial(n_paths, p_t, N_BOOT) / n_paths
        se[j] = (0.5 * np.abs(bt - br).sum(axis=1)).std(ddof=1)
    floor = math.sqrt(len(p_ref) / n_paths)
    mask, fitted = _fit_past_floor(t_grid, values, floor)
    return DecayCurve(t_grid, "TV", values, se, fitted, floor, mask)


# ---------------------------------------------------------------------------
# Wasserstein decay
# ---------------------------------------------------------------------------

def wasserstein_1d(a: np.ndarray, b: np.ndarray, p: float = 1.0) -> float:
    """W_p between two empirical laws from order statistics.

    Equal sizes reduce to the mean p-th power gap of sorted samples; unequal
    sizes integrate |Q_a - Q_b|^p exactly over the quantile segments on
    which both empirical quantile functions are constant.
    """
    a = np.sort(np.asarray(a, dtype=float))
    return _wp_sorted([a], np.sort(np.asarray(b, dtype=float)), p)[0]


def _wp_sorted(cols, ref: np.ndarray, p: float) -> list[float]:
    """W_p of each sorted sample in ``cols`` (all of one size) from the
    sorted sample ``ref``.  The quantile segments of unequal sizes are
    built once for all of them."""
    n = len(cols[0])
    if n == ref.size:
        return [float(np.mean(np.abs(a - ref) ** p) ** (1.0 / p)) for a in cols]
    edges = np.union1d(np.arange(1, n) / n, np.arange(1, ref.size) / ref.size)
    edges = np.concatenate([[0.0], edges, [1.0]])
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mids * n).astype(np.int64), n - 1)
    qb = ref[np.minimum((mids * ref.size).astype(np.int64), ref.size - 1)]
    return [float(np.sum(widths * np.abs(a[ia] - qb) ** p) ** (1.0 / p))
            for a in cols]


def w1_cdf_area(a: np.ndarray, b: np.ndarray) -> float:
    """W_1 as the area between the two empirical CDFs (cross-check form)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.sort(np.concatenate([a, b]))
    xs = pooled[:-1]
    widths = np.diff(pooled)
    fa = np.searchsorted(np.sort(a), xs, side="right") / a.size
    fb = np.searchsorted(np.sort(b), xs, side="right") / b.size
    return float(np.sum(np.abs(fa - fb) * widths))


def _wp_moment_guard(levy: LevyInput, p: float):
    """int (u or u^p) nu(du) < inf, checked through the tail identity: one
    integral of the tail against 1 on (0, 1] and p u^(p-1) past 1."""
    try:
        moment = integrate_semiinfinite(
            lambda u: np.where(u <= 1.0, 1.0, p * u ** (p - 1.0)) * levy.tail(u)).value
    except Divergent as exc:
        raise MomentConditionFailed(
            f"int u^{p} nu(du) is infinite") from exc
    if not math.isfinite(moment):
        raise MomentConditionFailed(f"int u^{p} nu(du) is infinite")


def _lane_halves(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The draws of the first M // 2 lanes and of the next M // 2: the two
    independent halves whose self-distance is the W_p noise floor (an odd
    last lane is left out)."""
    half = len(lanes) // 2
    return lanes[:half].ravel(), lanes[half:2 * half].ravel()


def _wp_bootstrap_stderr(mat: np.ndarray, refq: np.ndarray, p: float,
                         gen: np.random.Generator):
    """Bootstrap stderr of W_p(column, reference) for every column of the
    (n_paths, T) ensemble ``mat``, and those columns sorted, as the rows of
    one contiguous (T, n_paths) array; ``refq`` holds the reference
    quantiles at the n_paths mid-probabilities.

    Each replicate resamples whole paths, the same ones at every time.  A
    column's resample is sorted as int32 ranks into the sorted column, which
    gives the same doubles as sorting the resampled values; each gather
    reads one contiguous row.
    """
    n_paths, n_t = mat.shape
    rank = np.empty((n_t, n_paths), dtype=np.int32)
    cols = np.empty((n_t, n_paths))
    ids = np.arange(n_paths, dtype=np.int32)
    for j in range(n_t):
        order = np.argsort(mat[:, j])
        rank[j, order] = ids
        cols[j] = mat[order, j]
    del mat  # the sorted rows replace the ensemble from here on
    # one contiguous row of replicates per time: its std sums them in the
    # same order as the 1-D array of a single time would
    wp_boot = np.empty((n_t, N_BOOT))
    rows = max(1, _BOOT_CELLS // n_paths)
    for r in range(0, N_BOOT, rows):
        # the generator streams row by row, so block after block draws the
        # same resamples as one (N_BOOT, n_paths) matrix would.  The indices
        # stay intp: numpy converts an int32 index array before gathering.
        ridx = gen.integers(0, n_paths, (min(rows, N_BOOT - r), n_paths))
        for j in range(n_t):
            pos = rank[j][ridx]
            pos.sort(axis=1)
            bs = np.take(cols[j], pos)
            bs -= refq
            np.abs(bs, out=bs)
            if p != 1.0:
                bs **= p
            wp_boot[j, r:r + len(bs)] = bs.mean(axis=1) ** (1.0 / p)
    return wp_boot.std(axis=1, ddof=1), cols


def estimate_wp_decay(levy: LevyInput, release: ReleaseRate, x0,
                      p: float, t_grid, n_paths: int,
                      seed: int = 0, eps: float = 1e-4,
                      reference: np.ndarray | None = None,
                      contraction: GapBound | None = None,
                      regime: str | None = None) -> DecayCurve:
    """Empirical W_p between the time-t ensemble and the stationary reference.

    ``x0`` is a level or an array of ``n_paths`` starts, as grid_ensemble
    takes it.
    The reference comes from _stationary_reference (doubled budget); the
    noise floor is the distance between its two halves of lanes.
    The bootstrap stderr resamples paths jointly across times: each of the
    N_BOOT replicates draws one set of paths and uses it at every time.
    With a contraction bound the curve carries the deterministic reference
    (W_p(mu_0, pi)/kappa + 1) B_kappa^{-1}(Gamma t) alongside the estimates,
    but only when ``release`` satisfies the contraction the bound assumes
    (``check_wasserstein_contraction``); otherwise ``reference_curve`` is
    None.  mu_0 is the empirical law of the starts: a point mass at a level,
    or the start array.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    # W_p to pi needs pi's p-th moment, so jumps' of order p + max(0, 1 -
    # beta): pi's tail is u^(1 - alpha - beta) for jumps' u^-alpha and a
    # release growing as u^beta (bounded: 0); order p where it gives no beta
    ra = release.asymptotics()
    beta = {"bounded": 0.0, "power": ra.exponent}.get(ra.kind)
    _wp_moment_guard(levy, p if beta is None else p + max(0.0, 1.0 - beta))
    _regime_guard(levy, release, regime)
    t_grid = np.asarray(t_grid, dtype=float)
    if reference is None:
        reference = _stationary_reference(levy, release, 2 * n_paths, float(t_grid[-1]),
                                          None, seed + 1, eps)[0]
    lanes = _as_lanes(reference)
    ref_sorted = np.sort(lanes, axis=None)
    q = (np.arange(n_paths) + 0.5) / n_paths
    refq = ref_sorted[np.minimum((q * ref_sorted.size).astype(np.int64),
                                 ref_sorted.size - 1)]
    se, cols = _wp_bootstrap_stderr(
        grid_ensemble(levy, release, x0, t_grid, n_paths, seed, eps), refq, p,
        substream(seed, "wp-boot"))
    values = np.array(_wp_sorted(cols, ref_sorted, p))
    floor = wasserstein_1d(*_lane_halves(lanes), p)
    mask, fitted = _fit_past_floor(t_grid, values, floor)
    ref_curve = None
    if contraction is not None and check_wasserstein_contraction(
            release, contraction.modulus, contraction.Gamma)[0]:
        start = (np.full(256, float(x0)) if np.ndim(x0) == 0
                 else np.sort(np.asarray(x0, dtype=float)))
        w0 = _wp_sorted([start], ref_sorted, p)[0]
        scale = w0 / contraction.kappa + 1.0
        ref_curve = np.asarray([scale * contraction(t) for t in t_grid])
    return DecayCurve(t_grid, f"W{p:g}", values, se, fitted, floor, mask,
                      reference_curve=ref_curve)


# ---------------------------------------------------------------------------
# rate comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateComparison:
    fitted: float
    fitted_stderr: float
    predicted_upper: float | None
    predicted_lower: float | None
    tol: float
    verdict: str
    note: str = ""


def compare_rates(curve: DecayCurve, certificate: DriftCertificate | None = None,
                  lower: LowerRateCurve | None = None,
                  eps: float = 0.1) -> RateComparison:
    """Fitted exponent vs the certificate's upper and the lower-bound
    machinery's exponents, with tolerance 2 eps + 2 fit stderr."""
    if curve.fitted is None:
        raise ValueError("curve has no usable fit")
    fitted = curve.fitted.exponent
    stderr = curve.fitted.stderr
    upper = certificate.tv_exponent if certificate is not None else None
    low = lower.fitted.exponent if lower is not None else None
    tol = 2.0 * eps + 2.0 * stderr
    lo_bound = low - tol if low is not None else -math.inf
    hi_bound = (upper + tol) if (upper is not None and math.isfinite(upper)) else 0.0
    if upper == -math.inf:
        # geometric certificate: any polynomial fit is consistent only if
        # the curve is still far from its asymptote; flag it for diagnosis
        verdict = "FAIL" if math.isfinite(fitted) else "PASS"
        note = "geometric certificate against a polynomial fit"
    else:
        verdict = "PASS" if lo_bound <= fitted <= hi_bound else "FAIL"
        note = ""
    return RateComparison(fitted, stderr, upper, low, tol, verdict, note)


# ---------------------------------------------------------------------------
# the input law
# ---------------------------------------------------------------------------

def _input_totals(levy: LevyInput, t: float, n_paths: int, seed: int,
                  eps: float) -> np.ndarray:
    """A(t) of each of ``n_paths`` lanes, read off the engine's draws one
    slab at a time: lane i sums the sizes of the jumps that lane i of
    ``grid_ensemble(levy, release, x0, [t], n_paths, seed, eps)`` takes,
    whatever the release, and adds the compensator drift times t."""
    a = np.zeros(n_paths)
    for lo, x, slabs in _chunks(levy, 0.0, [t], n_paths, seed, eps):
        m = len(x)
        for _, order, width, _, sizes, _, _ in slabs:
            a[lo:lo + m] += np.bincount(order[_positions(width[1:])], sizes,
                                        minlength=m)
    a += levy.compensator_drift(eps) * t
    return a


def laplace_check(levy: LevyInput, t: float, lambdas, n_paths: int,
                  seed: int, eps: float = 1e-4):
    """Empirical vs analytic Laplace transform of A(t), with z-scores.

    A(t) is read off the engine's own jumps, drawn from the keys ``(seed,
    "grid", c)`` (``_input_totals``).  The standard error is the closed one, from the
    variance e^(t psi(2 lam)) - e^(2 t psi(lam)) of e^(-lam A(t)): a sample
    spread misses the rare small A(t) that carry it on a concentrated input.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    a = _input_totals(levy, t, n_paths, seed, eps)
    out = []
    for lam in np.atleast_1d(lambdas):
        lam = float(lam)
        vals = np.exp(-lam * a)
        emp = float(vals.mean())
        psi, psi2 = levy.laplace_exponent(lam), levy.laplace_exponent(2.0 * lam)
        analytic = math.exp(t * psi)
        # the variance as e^(t psi2) (1 - e^(t (2 psi - psi2))): both
        # exponents are <= 0, so it neither overflows nor cancels
        var = math.exp(t * psi2) * -math.expm1(t * (2.0 * psi - psi2))
        se = math.sqrt(max(var, 0.0) / n_paths)
        z = 0.0 if se == 0 else (emp - analytic) / se
        out.append({"lam": lam, "empirical": emp, "analytic": analytic,
                    "se": se, "z": z})
    return out
