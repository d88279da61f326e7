"""Monte Carlo estimation of stationary tails and convergence curves.

Estimators here are the empirical side of the story: occupation-based or
endpoint-based stationary tails, histogram total-variation decay against a
stationary reference sample, and one-dimensional Wasserstein decay from
sorted samples.  Each reports bootstrap standard errors and, where a decay
exponent is wanted, a log-log fit restricted to the trustworthy part of the
curve (past the transient, above the estimator noise floor).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import classify
from .errors import Divergent, MomentConditionFailed, NotStationaryRegime
from .levy_input import JumpStream, LevyInput
from .lyapunov import DriftCertificate, GapBound, LowerRateCurve
from .numerics import FitResult, fit_loglog, integrate_semiinfinite, invert_monotone
from .release_rate import ReleaseRate, signed_drain_time
from .rng import substream
from .simulator import FullEvents, PathConfig, grid_ensemble, simulate_path

__all__ = [
    "LongRunTimeAverage", "EnsembleEndpoint", "TailEstimate", "DecayCurve",
    "RateComparison", "estimate_tail", "estimate_tv_decay", "estimate_wp_decay",
    "compare_rates", "wasserstein_1d", "w1_cdf_area", "select_tail_scale",
]

N_BOOT = 200
N_BLOCKS = 100
# resampled draws one bootstrap block holds: the W_p bootstrap resamples a few
# replicates at a time, so its working memory stays near 2 MB per array
# whatever the ensemble size
_BOOT_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    levels: np.ndarray
    pi_bar_hat: np.ndarray
    stderr: np.ndarray
    method: str
    n_effective: float


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


@dataclass(frozen=True)
class LongRunTimeAverage:
    burn_in: float | None = None
    spacing: float = 1.0


@dataclass(frozen=True)
class EnsembleEndpoint:
    horizon: float | None = None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _isotonic_decreasing(y: np.ndarray) -> np.ndarray:
    """Pool adjacent violators, enforcing a non-increasing sequence."""
    vals = list(-np.asarray(y, dtype=float))
    weights = [1.0] * len(vals)
    merged = [[vals[0], weights[0]]]
    for v in vals[1:]:
        merged.append([v, 1.0])
        while len(merged) > 1 and merged[-2][0] > merged[-1][0]:
            v2, w2 = merged.pop()
            v1, w1 = merged.pop()
            merged.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for v, w in merged:
        out.extend([v] * int(w))
    return -np.asarray(out)


def _endpoint_time(certificate: DriftCertificate | None, t_min: float = 20.0,
                   target_rate: float = 100.0) -> float:
    """Horizon with predicted rate above target (TV bound below 1/target)."""
    if certificate is None or not certificate.valid:
        return t_min
    goal = math.log(target_rate)
    if certificate.log_predicted_tv_rate(1e6) < goal:
        return t_min
    t = invert_monotone(certificate.log_predicted_tv_rate, goal, (1e-6, 1e6))
    return max(t, t_min)


def _regime_guard(levy, release, regime: str | None):
    if regime is None:
        regime = classify(levy, release).verdict
    if regime == "Transient":
        raise NotStationaryRegime("no stationary law: the model is transient")
    if regime != "PositiveRecurrent":
        warnings.warn(f"estimating a stationary tail in regime {regime!r}",
                      stacklevel=3)


def _occupation_matrix(release, t_start, starts, durations, u_grid, burn,
                       total_time):
    """Time above each level per equal time block: (N_BLOCKS, n_levels)."""
    keep = t_start >= burn
    t0, xs, dur = t_start[keep], starts[keep], durations[keep]
    window = total_time - burn
    # time above u from a start x is G(x) - G(u), capped by the duration; an
    # empty start (-inf) never rises, as the inter-jump motion is drift-free
    full = xs > 0.0
    g_x = np.where(full, signed_drain_time(release, np.where(full, xs, 1.0)), -np.inf)
    g_u = signed_drain_time(release, u_grid)
    block = np.minimum(((t0 - burn) / window * N_BLOCKS).astype(np.int64),
                       N_BLOCKS - 1)
    occ = np.zeros((N_BLOCKS, len(u_grid)))
    for j, gu in enumerate(g_u):
        above = np.minimum(np.maximum(g_x - gu, 0.0), dur)
        np.add.at(occ[:, j], block, above)
    return occ, window


def _geweke_stationary(series: np.ndarray, z_max: float = 2.0) -> bool:
    """Geweke-style mean comparison: first 10% of blocks vs last 50%."""
    n = series.size
    a = series[: max(n // 10, 2)]
    b = series[-(n // 2):]
    var = a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
    if var == 0.0:
        return True
    return abs(a.mean() - b.mean()) / math.sqrt(var) <= z_max


def estimate_tail(levy: LevyInput, release: ReleaseRate, method, u_grid,
                  budget: int, seed: int = 0, eps: float = 1e-4,
                  certificate: DriftCertificate | None = None,
                  regime: str | None = None) -> TailEstimate:
    """Stationary tail pi_bar on a strictly increasing level grid, with
    bootstrap errors.

    LongRunTimeAverage integrates exact occupation times of one long path
    (time window = budget * spacing) with a block bootstrap; burn-in
    defaults to 10x the certificate's relaxation guess 1/drift_margin,
    capped at a fifth of the window.  EnsembleEndpoint draws ``budget``
    independent endpoints at a horizon where the certificate's predicted
    rate exceeds 100.  Estimates are isotonically corrected to be
    non-increasing in the level.
    """
    if budget < 1000:
        raise ValueError("budget must provide at least 1e3 effective samples")
    _regime_guard(levy, release, regime)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.ndim != 1 or u_grid.size == 0 or (np.diff(u_grid) <= 0).any():
        raise ValueError("u_grid must be a non-empty, strictly increasing array")
    gen = substream(seed, "tail-boot")

    if isinstance(method, EnsembleEndpoint):
        horizon = method.horizon or _endpoint_time(certificate)
        samples = grid_ensemble(levy, release, 0.0, [horizon], budget,
                                seed, eps)[:, 0]
        pibar = (samples[None, :] > u_grid[:, None]).mean(axis=1)
        se = np.empty_like(pibar)
        for j, p in enumerate(pibar):
            boots = gen.binomial(budget, min(max(p, 0.0), 1.0), N_BOOT) / budget
            se[j] = boots.std(ddof=1)
        return TailEstimate(u_grid, _isotonic_decreasing(pibar), se,
                            f"EnsembleEndpoint(T={horizon:g})", float(budget))

    if isinstance(method, LongRunTimeAverage):
        window = budget * method.spacing
        geweke = False
        if method.burn_in is not None:
            burn = method.burn_in
        elif certificate is not None and certificate.valid:
            burn = min(10.0 / max(certificate.drift_margin, 1e-2), window / 5.0)
        else:
            # no relaxation guess: start small and double until the occupation
            # series looks stationary under a Geweke-style mean comparison
            burn = window / 50.0
            geweke = True
        total = window + burn
        if levy.compensator_drift(eps) > 0.0:
            raise ValueError("occupation engine needs drift-free inter-jump motion")
        rec = simulate_path(levy, release,
                            PathConfig(0.0, total, FullEvents(), seed, eps),
                            stream=JumpStream(seed, eps).derive("longrun"))
        t0, xs = rec.times, rec.values
        dur = np.diff(np.append(t0, total))
        occ, w_eff = _occupation_matrix(release, t0, xs, dur, u_grid, burn, total)
        if geweke:
            mid = len(u_grid) // 2
            for _ in range(5):
                series = occ[:, mid] / (w_eff / N_BLOCKS)
                if _geweke_stationary(series):
                    break
                burn *= 2.0
                if burn > total / 3.0:
                    warnings.warn("burn-in doubling hit its cap before the "
                                  "occupation series stabilised", stacklevel=2)
                    break
                occ, w_eff = _occupation_matrix(release, t0, xs, dur, u_grid,
                                                burn, total)
        pibar = occ.sum(axis=0) / w_eff
        idx = gen.integers(0, N_BLOCKS, (N_BOOT, N_BLOCKS))
        boots = occ[idx].sum(axis=1) / w_eff  # (N_BOOT, n_levels)
        se = boots.std(axis=0, ddof=1)
        return TailEstimate(u_grid, _isotonic_decreasing(pibar), se,
                            f"LongRunTimeAverage(window={window:g}, burn={burn:g})",
                            float(budget))

    raise ValueError(f"unknown estimation method {method!r}")


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


def estimate_tv_decay(levy: LevyInput, release: ReleaseRate, x0: float,
                      t_grid, n_paths: int, seed: int = 0, bins: int = 64,
                      eps: float = 1e-4,
                      certificate: DriftCertificate | None = None,
                      reference: np.ndarray | None = None,
                      regime: str | None = None) -> DecayCurve:
    """Histogram TV between the time-t ensemble and a stationary reference.

    The reference sample (doubled budget, long horizon) fixes equal-mass
    bins; the reported TV is a lower bound on the true total variation up
    to binning bias.  Points below twice the noise floor
    sqrt(bins / n_paths) and before the grid midpoint are excluded from the
    exponent fit; with fewer than two usable points ``fitted`` is None.
    """
    _regime_guard(levy, release, regime)
    t_grid = np.asarray(t_grid, dtype=float)
    if reference is None:
        t_ref = max(2.0 * float(t_grid[-1]), _endpoint_time(certificate))
        reference = grid_ensemble(levy, release, 0.0, [t_ref], 2 * n_paths,
                                  seed + 1, eps)[:, 0]
    edges = _equal_mass_edges(reference, bins)
    p_ref = _hist_probs(reference, edges)
    mat = grid_ensemble(levy, release, x0, t_grid, n_paths, seed, eps)
    gen = substream(seed, "tv-boot")
    values = np.empty(t_grid.size)
    se = np.empty(t_grid.size)
    for j in range(t_grid.size):
        p_t = _hist_probs(mat[:, j], edges)
        values[j] = 0.5 * np.abs(p_t - p_ref).sum()
        bt = gen.multinomial(n_paths, p_t, N_BOOT) / n_paths
        br = gen.multinomial(reference.size, p_ref, N_BOOT) / reference.size
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


def estimate_wp_decay(levy: LevyInput, release: ReleaseRate, x0,
                      mu0=None, p: float = 1.0, t_grid=None,
                      n_paths: int = 10_000, seed: int = 0, eps: float = 1e-4,
                      reference: np.ndarray | None = None,
                      contraction: GapBound | None = None,
                      certificate: DriftCertificate | None = None,
                      regime: str | None = None) -> DecayCurve:
    """Empirical W_p between the time-t ensemble and the stationary reference.

    ``mu0`` overrides the fixed start with a sampler (gen, m) -> levels.
    With a contraction bound the curve carries the deterministic reference
    (W_p(mu0, pi)/kappa + 1) B_kappa^{-1}(Gamma t) alongside the estimates.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    _wp_moment_guard(levy, p)
    _regime_guard(levy, release, regime)
    t_grid = np.asarray(t_grid, dtype=float)
    starts = mu0 if mu0 is not None else x0
    if reference is None:
        t_ref = max(2.0 * float(t_grid[-1]), _endpoint_time(certificate))
        reference = grid_ensemble(levy, release, 0.0, [t_ref], 2 * n_paths,
                                  seed + 1, eps)[:, 0]
    mat = grid_ensemble(levy, release, starts, t_grid, n_paths, seed, eps)
    gen = substream(seed, "wp-boot")
    values = np.empty(t_grid.size)
    se = np.empty(t_grid.size)
    ref_sorted = np.sort(reference)
    q = (np.arange(n_paths) + 0.5) / n_paths
    refq = ref_sorted[np.minimum((q * ref_sorted.size).astype(np.int64),
                                 ref_sorted.size - 1)]
    rows = max(1, _BOOT_CELLS // n_paths)
    wp_boot = np.empty(N_BOOT)
    for j in range(t_grid.size):
        col = mat[:, j]
        values[j] = wasserstein_1d(col, reference, p)
        # the generator streams row by row, so block after block draws the
        # same resamples as one (N_BOOT, n_paths) matrix would
        for r in range(0, N_BOOT, rows):
            ridx = gen.integers(0, n_paths, (min(rows, N_BOOT - r), n_paths))
            bs = np.sort(col[ridx], axis=1)
            wp_boot[r:r + len(bs)] = ((np.abs(bs - refq) ** p).mean(axis=1)
                                      ** (1.0 / p))
        se[j] = wp_boot.std(ddof=1)
    # floor: self-distance of two reference halves
    half = reference.size // 2
    floor = wasserstein_1d(reference[:half], reference[half:2 * half], p)
    mask = (np.arange(t_grid.size) >= t_grid.size // 2) & (values > 2.0 * floor)
    fitted = fit_loglog(t_grid[mask], values[mask]) if mask.sum() >= 2 else None
    ref_curve = None
    if contraction is not None:
        w0 = wasserstein_1d(mat[:, 0] if mu0 is not None else
                            np.full(256, float(x0)), reference, p)
        scale = w0 / contraction.kappa + 1.0
        ref_curve = np.asarray([scale * contraction(t) for t in t_grid])
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
