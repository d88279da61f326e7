"""Long-run regime classification: transient / null recurrent / positive recurrent.

Three numeric criteria drive the verdict:

  * bounded drift:  limsup r(u) < m_nu  (escape by sheer input volume);
  * heavy tail:     liminf (u/r(u)) int_0^inf nu_bar(uv)/(1+v^2) dv > 1;
  * positive rec.:  limsup int_0^inf nu_bar(v)/r(u+v) dv < 1.

Limits are estimated on a fixed probe grid with a min/max-of-last-3
convention plus a decision margin; near-threshold cases come back
Inconclusive instead of guessing.  A symbolic fast path covers preset
power/power pairs, where the verdict is pure exponent bookkeeping
(alpha + beta vs 1), with the boundary left Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergent
from .levy_input import LevyInput
from .numerics import integrate_semiinfinite
from .release_rate import Plateau, ReleaseRate

__all__ = [
    "DEFAULT_PROBE_GRID", "DEFAULT_DECISION_MARGIN", "limit_estimate",
    "RegimeReport", "CriterionResult",
    "criterion_bounded_drift", "criterion_heavy_tail",
    "criterion_positive_recurrent", "classify",
]

DEFAULT_PROBE_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)
DEFAULT_DECISION_MARGIN = 0.05
_LAST_K = 3


def limit_estimate(values, mode: str, k: int = _LAST_K) -> float:
    """liminf/limsup proxy: min/max of the last k probe values."""
    tail_vals = [v for v in values[-k:]]
    if not tail_vals:
        raise ValueError("no probe values")
    return min(tail_vals) if mode == "liminf" else max(tail_vals)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    probe_values: tuple
    estimate: float
    threshold: float
    satisfied: bool
    note: str = ""


@dataclass(frozen=True)
class RegimeReport:
    verdict: str           # Transient | NullRecurrent | PositiveRecurrent | Inconclusive
    via: str               # BoundedDrift | HeavyTailCriterion | structural | criterion
    method: str            # Symbolic | Numeric
    evidence: dict
    uniform: bool
    decision_margin: float


def criterion_bounded_drift(levy: LevyInput, release: ReleaseRate) -> CriterionResult:
    """Transience test (a): limsup r(u) < m_nu, read from the asymptotic class."""
    limsup_r = release.asymptotics().limsup()
    m_nu = levy.first_moment()
    satisfied = limsup_r < m_nu
    return CriterionResult(
        "bounded_drift", (limsup_r,), limsup_r, m_nu, bool(satisfied),
        note=f"limsup r = {limsup_r}, m_nu = {m_nu}")


def _heavy_tail_value(levy, release, u):
    integral = integrate_semiinfinite(
        lambda v: levy.tail(u * v) / (1.0 + v * v))
    return u / float(release.rate(u)) * integral.value


def criterion_heavy_tail(levy: LevyInput, release: ReleaseRate,
                         probe_grid=DEFAULT_PROBE_GRID,
                         margin: float = DEFAULT_DECISION_MARGIN) -> CriterionResult:
    """Transience test (b) for unbounded drain against very heavy input."""
    probe_grid = tuple(probe_grid)
    if len(probe_grid) < 3 or any(b <= a for a, b in zip(probe_grid, probe_grid[1:])):
        raise ValueError("probe grid must be increasing with >= 3 points")
    values = []
    for u in probe_grid:
        try:
            values.append(_heavy_tail_value(levy, release, u))
        except Divergent:
            # non-negative integrand: divergence means +inf, criterion holds
            values.append(math.inf)
    est = limit_estimate(values, "liminf")
    return CriterionResult("heavy_tail", tuple(values), est, 1.0,
                           bool(est > 1.0 + margin))


def _pos_rec_value(levy, release, u):
    integral = integrate_semiinfinite(
        lambda v: levy.tail(v) / release.rate(u + v))
    return integral.value


def criterion_positive_recurrent(levy: LevyInput, release: ReleaseRate,
                                 probe_grid=DEFAULT_PROBE_GRID,
                                 margin: float = DEFAULT_DECISION_MARGIN) -> CriterionResult:
    """Ergodicity criterion: limsup int nu_bar(v)/r(u+v) dv < 1."""
    probe_grid = tuple(probe_grid)
    if len(probe_grid) < 3 or any(b <= a for a, b in zip(probe_grid, probe_grid[1:])):
        raise ValueError("probe grid must be increasing with >= 3 points")
    values = []
    for u in probe_grid:
        try:
            values.append(_pos_rec_value(levy, release, u))
        except Divergent:
            values.append(math.inf)
    est = limit_estimate(values, "limsup")
    return CriterionResult("positive_recurrent", tuple(values), est, 1.0,
                           bool(est < 1.0 - margin))


def _plateau_matches_mean(levy, release) -> bool:
    if not isinstance(release, Plateau):
        return False
    m_nu = levy.first_moment()
    if not math.isfinite(m_nu):
        return False
    return math.isclose(release.m, m_nu, rel_tol=1e-9)


def _uniform_flag(levy, release, pos_rec_ok: bool) -> bool:
    if not pos_rec_ok:
        return False
    return math.isfinite(float(release.drain_time(1.0, math.inf)))


def _symbolic_available(levy, release) -> bool:
    ia = levy.asymptotics()
    ra = release.asymptotics()
    return ia.kind in ("power", "exp") and ra.kind in ("bounded", "power")


def _classify_symbolic(levy, release, margin) -> RegimeReport | None:
    ia = levy.asymptotics()
    ra = release.asymptotics()
    m_nu = levy.first_moment()
    evidence = {"input_tail": ia, "release_class": ra, "m_nu": m_nu}

    if _plateau_matches_mean(levy, release):
        return RegimeReport("NullRecurrent", "structural", "Symbolic",
                            evidence, False, margin)
    limsup_r = ra.limsup()
    if limsup_r < m_nu:
        return RegimeReport("Transient", "BoundedDrift", "Symbolic",
                            evidence, False, margin)
    if ra.kind == "bounded":
        # bounded drain exceeding the mean input drains any finite load
        if math.isfinite(m_nu) and m_nu < limsup_r:
            uni = _uniform_flag(levy, release, True)
            return RegimeReport("PositiveRecurrent", "criterion", "Symbolic",
                                evidence, uni, margin)
        return RegimeReport("Inconclusive", "boundary", "Symbolic",
                            evidence, False, margin)
    beta = ra.exponent
    if beta <= 0:
        return None  # decreasing drains have no exponent shortcut
    if ia.kind == "exp":
        uni = _uniform_flag(levy, release, True)
        return RegimeReport("PositiveRecurrent", "criterion", "Symbolic",
                            evidence, uni, margin)
    alpha = ia.index
    s = alpha + beta
    if s < 1.0:
        return RegimeReport("Transient", "HeavyTailCriterion", "Symbolic",
                            evidence, False, margin)
    if s > 1.0:
        uni = _uniform_flag(levy, release, True)
        return RegimeReport("PositiveRecurrent", "criterion", "Symbolic",
                            evidence, uni, margin)
    return RegimeReport("Inconclusive", "boundary", "Symbolic",
                        evidence, False, margin)


def classify(levy: LevyInput, release: ReleaseRate,
             probe_grid=DEFAULT_PROBE_GRID,
             margin: float = DEFAULT_DECISION_MARGIN,
             method: str = "auto") -> RegimeReport:
    """Regime verdict; structural null-recurrence first, then the criteria.

    ``method`` is 'auto' (symbolic shortcut when both sides are presets with
    known exponents), 'symbolic', or 'numeric'.  Verdicts are deterministic
    functions of the inputs and the configuration.
    """
    if method not in ("auto", "symbolic", "numeric"):
        raise ValueError("method must be auto, symbolic or numeric")
    if method != "numeric" and _symbolic_available(levy, release):
        report = _classify_symbolic(levy, release, margin)
        if report is not None:
            return report
    if method == "symbolic":
        raise ValueError("symbolic classification unavailable for these inputs")

    evidence = {}
    if _plateau_matches_mean(levy, release):
        return RegimeReport("NullRecurrent", "structural", "Numeric",
                            evidence, False, margin)
    bd = criterion_bounded_drift(levy, release)
    evidence["bounded_drift"] = bd
    if bd.satisfied:
        return RegimeReport("Transient", "BoundedDrift", "Numeric",
                            evidence, False, margin)
    ht = criterion_heavy_tail(levy, release, probe_grid, margin)
    evidence["heavy_tail"] = ht
    if ht.satisfied:
        return RegimeReport("Transient", "HeavyTailCriterion", "Numeric",
                            evidence, False, margin)
    pr = criterion_positive_recurrent(levy, release, probe_grid, margin)
    evidence["positive_recurrent"] = pr
    if pr.satisfied:
        uni = _uniform_flag(levy, release, True)
        return RegimeReport("PositiveRecurrent", "criterion", "Numeric",
                            evidence, uni, margin)
    return RegimeReport("Inconclusive", "criterion", "Numeric",
                        evidence, False, margin)
