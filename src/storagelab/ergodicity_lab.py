"""Monte Carlo estimation of stationary tails and convergence curves.

Estimators here are the empirical side of the story: occupation-based or
endpoint-based stationary tails, histogram total-variation decay against a
stationary reference sample, and one-dimensional Wasserstein decay from
sorted samples.  Each reports standard errors (bootstrap, or the spread
between independent chains) and, where a decay exponent is wanted, a
log-log fit restricted to the trustworthy part of the curve (past the
transient, above the estimator noise floor).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import classify
from .errors import Divergent, MomentConditionFailed, NotStationaryRegime
from .levy_input import LevyInput
from .lyapunov import (
    DriftCertificate,
    GapBound,
    LowerRateCurve,
    check_wasserstein_contraction,
)
from .numerics import FitResult, fit_loglog, integrate_semiinfinite, invert_monotone
from .release_rate import ReleaseRate, signed_drain_time
from .rng import substream
from .simulator import event_ensemble, grid_ensemble

__all__ = [
    "TailEstimate", "DecayCurve", "RateComparison", "estimate_tail",
    "estimate_tv_decay", "estimate_wp_decay", "compare_rates",
    "wasserstein_1d", "w1_cdf_area", "select_tail_scale",
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
# the stationary horizon: at least _T_MIN, and where the certificate
# predicts a TV rate above _TARGET_RATE (see _endpoint_time)
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

def _endpoint_time(certificate: DriftCertificate | None) -> float:
    """Horizon with predicted rate above _TARGET_RATE (TV bound below its
    inverse), and at least _T_MIN."""
    if certificate is None or not certificate.valid:
        return _T_MIN
    goal = math.log(_TARGET_RATE)
    if certificate.log_predicted_tv_rate(1e6) < goal:
        return _T_MIN
    t = invert_monotone(certificate.log_predicted_tv_rate, goal, (1e-6, 1e6))
    return max(t, _T_MIN)


def _stationary_reference(levy, release, n: int, t_ref: float, seed: int,
                          eps: float) -> np.ndarray:
    """At least ``n`` stationary draws as an (M, _REF_K) matrix, rows lanes.

    M = ceil(n / _REF_K) lanes start at 0 and each is recorded at the
    _REF_K times t_ref (1 + j / _REF_K), j < _REF_K: many samples along a
    few long chains (Gelman & Rubin 1992) cost about 2 / _REF_K of n
    independent endpoints at t_ref.  Samples on one lane are correlated, so
    resampling and splitting go by whole lanes.
    """
    grid = t_ref * (1.0 + np.arange(_REF_K) / _REF_K)
    return grid_ensemble(levy, release, 0.0, grid, -(-n // _REF_K), seed, eps)


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


def _occupation_tails(levy, release, u_grid, budget, seed, eps, certificate):
    """Per-chain fractions of time above each level, (_LONGRUN_LANES,
    n_levels), and the method label: exact occupation times along
    _LONGRUN_LANES chains from 0, each over its burn-in plus budget /
    _LONGRUN_LANES time units.  The burn-in is a fifth of a chain's window,
    capped by 10x the certificate's relaxation guess 1/drift_margin.

    Chains start empty, and an empty chain stays so until its next jump, so
    the segments that count start at jumps and run to the chain's next jump
    or to its end; a segment that starts before the burn-in is dropped."""
    lane_window = budget / _LONGRUN_LANES
    burn = lane_window / 5.0
    if certificate is not None and certificate.valid:
        burn = min(10.0 / max(certificate.drift_margin, 1e-2), burn)
    total = burn + lane_window
    lane, t, _, x = event_ensemble(levy, release, 0.0, total, _LONGRUN_LANES,
                                   seed, eps)
    end = np.full(t.shape, total)
    nxt = lane[1:] == lane[:-1]  # the next jump is on the same lane
    end[:-1][nxt] = t[1:][nxt]
    keep = t >= burn
    lane, x, dur = lane[keep], x[keep], (end - t)[keep]
    # time above u from a start x is G(x) - G(u), capped by the duration
    g_x = signed_drain_time(release, x)
    occ = np.empty((_LONGRUN_LANES, len(u_grid)))
    for j, gu in enumerate(signed_drain_time(release, u_grid)):
        above = np.minimum(np.maximum(g_x - gu, 0.0), dur)
        occ[:, j] = np.bincount(lane, weights=above, minlength=_LONGRUN_LANES)
    return occ / lane_window, (f"LongRunTimeAverage(lanes={_LONGRUN_LANES}, "
                               f"window={budget:g}, burn={burn:g})")


def _endpoint_tails(levy, release, u_grid, budget, seed, eps, certificate):
    """Per-chain fractions of draws above each level, (lanes, n_levels),
    and the method label: the lanes of ``_stationary_reference`` (at least
    ``budget`` draws) from the certificate's ``_endpoint_time``."""
    horizon = _endpoint_time(certificate)
    lanes = _stationary_reference(levy, release, budget, horizon, seed, eps)
    return ((lanes[:, :, None] > u_grid).mean(axis=1),
            f"EnsembleEndpoint(T={horizon:g})")


# fewest samples a tail estimate accepts as its budget
_MIN_TAIL_SAMPLES = 1000


def estimate_tail(levy: LevyInput, release: ReleaseRate, u_grid, budget: int,
                  seed: int = 0, eps: float = 1e-4,
                  certificate: DriftCertificate | None = None,
                  regime: str | None = None) -> TailEstimate:
    """Stationary tail pi_bar on a strictly increasing level grid, with
    standard errors, from a few long chains (Gelman & Rubin 1992).

    Between jumps a drift-free input (``levy.compensator_drift(eps) == 0``,
    finite activity) only drains, so occupation times are exact: each of
    ``_LONGRUN_LANES`` chains integrates them over budget / _LONGRUN_LANES
    time units past its burn-in (_occupation_tails).  Any other input reads
    the chains of the stationary reference, ``budget`` draws in all
    (_endpoint_tails).  The estimate is the mean over chains and its stderr
    their spread / sqrt(chains).  A chain's fraction of time, or of draws,
    above a level cannot grow with the level, so neither can the estimate.
    """
    if budget < _MIN_TAIL_SAMPLES:
        raise ValueError(f"budget must provide at least {_MIN_TAIL_SAMPLES} "
                         "samples")
    _regime_guard(levy, release, regime)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.ndim != 1 or u_grid.size == 0 or (np.diff(u_grid) <= 0).any():
        raise ValueError("u_grid must be a non-empty, strictly increasing array")
    tails = (_occupation_tails if levy.compensator_drift(eps) == 0.0
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


def _hist_probs(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    counts = np.histogram(x, bins=edges)[0]
    return counts / x.size


def _lane_counts(lanes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram counts of each lane, shape (lanes, bins), binned as
    np.histogram bins them (half-open bins, finite values)."""
    m, bins = len(lanes), len(edges) - 1
    idx = np.searchsorted(edges[1:-1], lanes, side="right")
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
    are excluded from the exponent fit; with fewer than two usable points
    ``fitted`` is None.
    """
    _regime_guard(levy, release, regime)
    t_grid = np.asarray(t_grid, dtype=float)
    if reference is None:
        t_ref = max(2.0 * float(t_grid[-1]), _endpoint_time(certificate))
        reference = _stationary_reference(levy, release, 2 * n_paths, t_ref,
                                          seed + 1, eps)
    lanes = _as_lanes(reference)
    edges = _equal_mass_edges(lanes.ravel(), bins)
    p_ref = _hist_probs(lanes.ravel(), edges)
    mat = grid_ensemble(levy, release, x0, t_grid, n_paths, seed, eps)
    gen = substream(seed, "tv-boot")
    # the reference is one sample for the whole curve, so one set of lane
    # resamples serves every time point
    m = len(lanes)
    weights = gen.multinomial(m, np.full(m, 1.0 / m), N_BOOT)
    br = weights @ _lane_counts(lanes, edges).astype(float) / lanes.size
    values = np.empty(t_grid.size)
    se = np.empty(t_grid.size)
    for j in range(t_grid.size):
        p_t = _hist_probs(mat[:, j], edges)
        values[j] = 0.5 * np.abs(p_t - p_ref).sum()
        bt = gen.multinomial(n_paths, p_t, N_BOOT) / n_paths
        se[j] = (0.5 * np.abs(bt - br).sum(axis=1)).std(ddof=1)
    floor = math.sqrt(len(p_ref) / n_paths)
    mask = (np.arange(t_grid.size) >= t_grid.size // 2) & (values > 2.0 * floor)
    fitted = fit_loglog(t_grid[mask], values[mask]) if mask.sum() >= 2 else None
    return DecayCurve(t_grid, "TV", values, se, fitted, floor, mask)


def _certificate_decay_exponent(cert: DriftCertificate | None) -> float | None:
    """Polynomial decay exponent promised by the certificate; -inf marks a
    geometric certificate (faster than any polynomial)."""
    if cert is None or not cert.valid:
        return None
    if cert.phi.family == "power":
        a = cert.phi.a
        return -a / (1.0 - a)
    if cert.phi.family == "linear":
        return -math.inf
    if cert.phi.family == "constant1":
        return 0.0
    return None


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
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == b.size:
        return float(np.mean(np.abs(a - b) ** p) ** (1.0 / p))
    edges = np.union1d(np.arange(1, a.size) / a.size,
                       np.arange(1, b.size) / b.size)
    edges = np.concatenate([[0.0], edges, [1.0]])
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qa = a[np.minimum((mids * a.size).astype(np.int64), a.size - 1)]
    qb = b[np.minimum((mids * b.size).astype(np.int64), b.size - 1)]
    return float(np.sum(widths * np.abs(qa - qb) ** p) ** (1.0 / p))


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
    """int (u or u^p) nu(du) < inf, checked through the tail identity."""
    try:
        head = integrate_semiinfinite(
            lambda u: np.where(u <= 1.0, levy.tail(np.minimum(u, 1.0)), 0.0)).value
        tail_part = integrate_semiinfinite(
            lambda u: p * u ** (p - 1.0) * levy.tail(u), lower=1.0).value
    except Divergent as exc:
        raise MomentConditionFailed(
            f"int u^{p} nu(du) is infinite") from exc
    if not (math.isfinite(head) and math.isfinite(tail_part)):
        raise MomentConditionFailed(f"int u^{p} nu(du) is infinite")


def _lane_halves(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The draws of the first M // 2 lanes and of the next M // 2: the two
    independent halves whose self-distance is the W_p noise floor (an odd
    last lane is left out)."""
    half = len(lanes) // 2
    return lanes[:half].ravel(), lanes[half:2 * half].ravel()


def _wp_bootstrap_stderr(mat: np.ndarray, refq: np.ndarray, p: float,
                         gen: np.random.Generator) -> np.ndarray:
    """Bootstrap stderr of W_p(column, reference) for every column of the
    (n_paths, T) ensemble ``mat``, which this sorts in place; ``refq`` holds
    the reference quantiles at the n_paths mid-probabilities.

    Each replicate resamples whole paths, the same ones at every time.  A
    column's resample is sorted as int32 ranks into the sorted column, which
    gives the same doubles as sorting the resampled values.
    """
    n_paths, n_t = mat.shape
    rank = np.empty((n_t, n_paths), dtype=np.int32)
    ids = np.arange(n_paths, dtype=np.int32)
    for j in range(n_t):
        order = np.argsort(mat[:, j])
        rank[j, order] = ids
        mat[:, j] = mat[order, j]
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
            bs = np.take(mat[:, j], pos)
            bs -= refq
            np.abs(bs, out=bs)
            if p != 1.0:
                bs **= p
            wp_boot[j, r:r + len(bs)] = bs.mean(axis=1) ** (1.0 / p)
    return wp_boot.std(axis=1, ddof=1)


def estimate_wp_decay(levy: LevyInput, release: ReleaseRate, x0,
                      p: float = 1.0, t_grid=None,
                      n_paths: int = 10_000, seed: int = 0, eps: float = 1e-4,
                      reference: np.ndarray | None = None,
                      contraction: GapBound | None = None,
                      certificate: DriftCertificate | None = None,
                      regime: str | None = None) -> DecayCurve:
    """Empirical W_p between the time-t ensemble and the stationary reference.

    ``x0`` is a level or a sampler (gen, m) -> levels, as grid_ensemble
    takes it.
    The reference comes from _stationary_reference (doubled budget); the
    noise floor is the distance between its two halves of lanes.
    The bootstrap stderr resamples paths jointly across times: each of the
    N_BOOT replicates draws one set of paths and uses it at every time.
    With a contraction bound the curve carries the deterministic reference
    (W_p(mu_0, pi)/kappa + 1) B_kappa^{-1}(Gamma t) alongside the estimates,
    but only when ``release`` satisfies the contraction the bound assumes
    (``check_wasserstein_contraction``); otherwise ``reference_curve`` is
    None.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    _wp_moment_guard(levy, p)
    _regime_guard(levy, release, regime)
    t_grid = np.asarray(t_grid, dtype=float)
    if reference is None:
        t_ref = max(2.0 * float(t_grid[-1]), _endpoint_time(certificate))
        reference = _stationary_reference(levy, release, 2 * n_paths, t_ref,
                                          seed + 1, eps)
    lanes = _as_lanes(reference)
    reference = lanes.ravel()
    mat = grid_ensemble(levy, release, x0, t_grid, n_paths, seed, eps)
    values = np.array([wasserstein_1d(col, reference, p) for col in mat.T])
    floor = wasserstein_1d(*_lane_halves(lanes), p)
    mask = (np.arange(t_grid.size) >= t_grid.size // 2) & (values > 2.0 * floor)
    fitted = fit_loglog(t_grid[mask], values[mask]) if mask.sum() >= 2 else None
    ref_curve = None
    if contraction is not None and check_wasserstein_contraction(
            release, contraction.modulus, contraction.Gamma)[0]:
        w0 = wasserstein_1d(mat[:, 0] if callable(x0) else
                            np.full(256, float(x0)), reference, p)
        scale = w0 / contraction.kappa + 1.0
        ref_curve = np.asarray([scale * contraction(t) for t in t_grid])
    ref_sorted = np.sort(reference)
    q = (np.arange(n_paths) + 0.5) / n_paths
    refq = ref_sorted[np.minimum((q * ref_sorted.size).astype(np.int64),
                                 ref_sorted.size - 1)]
    se = _wp_bootstrap_stderr(mat, refq, p, substream(seed, "wp-boot"))
    return DecayCurve(t_grid, f"W{p:g}", values, se, fitted, floor, mask,
                      reference_curve=ref_curve)


# ---------------------------------------------------------------------------
# rate comparison and tail-scale selection
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
    upper = _certificate_decay_exponent(certificate)
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


def select_tail_scale(levels, pibar):
    """Pick power vs exponential tail scale by the better r^2.

    Power fits ln pi on ln u; exponential fits ln pi on u (realised as a
    log-log fit against e^u, which linearises to exactly that regression).
    """
    levels = np.asarray(levels, dtype=float)
    pibar = np.asarray(pibar, dtype=float)
    keep = pibar > 0
    levels, pibar = levels[keep], pibar[keep]
    power = fit_loglog(levels, pibar)
    expo = fit_loglog(np.exp(levels), pibar) if levels.max() < 500 else None
    if expo is not None and expo.r_squared > power.r_squared:
        return "exponential", expo
    return "power", power
