"""Long-run regime classification: transient / null recurrent / positive recurrent.

Three numeric criteria drive the verdict:

  * bounded drift:  limsup r(u) < m_nu  (escape by sheer input volume);
  * heavy tail:     liminf (u/r(u)) int_0^inf nu_bar(uv)/(1+v^2) dv > 1;
  * positive rec.:  limsup int_0^inf nu_bar(v)/r(u+v) dv < 1.

Limits are estimated on a fixed probe grid with a min/max-of-last-3
convention plus a decision margin; near-threshold cases come back
Inconclusive instead of guessing.  Where the input declares a power or
exp tail and the release a bounded or power growth, an exponent shortcut
(_exponent_shortcut) stands in for the last two criteria.
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
    "criterion_positive_recurrent", "classify", "drain_time_from_infinity",
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


def _probe(name, value, probe_grid, mode: str, margin: float) -> CriterionResult:
    """A probe criterion against the threshold 1: ``value(u)`` at each probe
    u, then its liminf, satisfied above 1 + margin, or its limsup,
    satisfied below 1 - margin."""
    probe_grid = tuple(probe_grid)
    if len(probe_grid) < 3 or any(b <= a for a, b in zip(probe_grid, probe_grid[1:])):
        raise ValueError("probe grid must be increasing with >= 3 points")
    values = []
    for u in probe_grid:
        try:
            values.append(value(u))
        except Divergent:
            # non-negative integrand: divergence means +inf
            values.append(math.inf)
    est = limit_estimate(values, mode)
    satisfied = est > 1.0 + margin if mode == "liminf" else est < 1.0 - margin
    return CriterionResult(name, tuple(values), est, 1.0, bool(satisfied))


def _heavy_tail_value(levy, release, u):
    integral = integrate_semiinfinite(
        lambda v: levy.tail(u * v) / (1.0 + v * v))
    return u / float(release.rate(u)) * integral.value


def criterion_heavy_tail(levy: LevyInput, release: ReleaseRate,
                         probe_grid=DEFAULT_PROBE_GRID,
                         margin: float = DEFAULT_DECISION_MARGIN) -> CriterionResult:
    """Transience test (b) for unbounded drain against very heavy input."""
    return _probe("heavy_tail", lambda u: _heavy_tail_value(levy, release, u),
                  probe_grid, "liminf", margin)


def _pos_rec_value(levy, release, u):
    integral = integrate_semiinfinite(
        lambda v: levy.tail(v) / release.rate(u + v))
    return integral.value


def criterion_positive_recurrent(levy: LevyInput, release: ReleaseRate,
                                 probe_grid=DEFAULT_PROBE_GRID,
                                 margin: float = DEFAULT_DECISION_MARGIN) -> CriterionResult:
    """Ergodicity criterion: limsup int nu_bar(v)/r(u+v) dv < 1."""
    return _probe("positive_recurrent",
                  lambda u: _pos_rec_value(levy, release, u),
                  probe_grid, "limsup", margin)


def _plateau_matches_mean(levy, release) -> bool:
    if not isinstance(release, Plateau):
        return False
    m_nu = levy.first_moment()
    if not math.isfinite(m_nu):
        return False
    return math.isclose(release.m, m_nu, rel_tol=1e-9)


def drain_time_from_infinity(release: ReleaseRate) -> float:
    """int_1^inf du / r(u), +inf where the integral diverges; a positive
    recurrent model is uniformly ergodic exactly when it is finite."""
    try:
        return float(release.drain_time(1.0, math.inf))
    except Divergent:
        return math.inf


def _exponent_shortcut(ia, ra, m_nu):
    """``(verdict, via)`` from the asymptotic classes of the input tail and
    the release once bounded drift has failed, or None for a decreasing
    drain; m_nu = limsup r and alpha + beta = 1 stay Inconclusive."""
    if ra.kind == "bounded":
        # bounded drain exceeding the mean input drains any finite load
        if math.isfinite(m_nu) and m_nu < ra.limsup():
            return "PositiveRecurrent", "criterion"
        return "Inconclusive", "boundary"
    if ra.exponent <= 0:
        return None
    if ia.kind == "exp":
        return "PositiveRecurrent", "criterion"
    s = ia.index + ra.exponent
    if s < 1.0:
        return "Transient", "HeavyTailCriterion"
    if s > 1.0:
        return "PositiveRecurrent", "criterion"
    return "Inconclusive", "boundary"


def classify(levy: LevyInput, release: ReleaseRate,
             probe_grid=DEFAULT_PROBE_GRID,
             margin: float = DEFAULT_DECISION_MARGIN,
             method: str = "auto") -> RegimeReport:
    """Regime verdict in the paper's order: structural null recurrence,
    transience by bounded drift, then the exponent shortcut or the heavy
    tail and positive-recurrence criteria.

    ``method`` is 'auto' (the shortcut where both sides declare their
    asymptotics; the report's method is then 'Symbolic' up to the step
    that decided) or 'numeric' (the criteria alone, the reference the
    shortcut is tested against).  Verdicts are deterministic functions of
    the inputs and the configuration.
    """
    if method not in ("auto", "numeric"):
        raise ValueError("method must be auto or numeric")
    ia, ra = levy.asymptotics(), release.asymptotics()
    symbolic = (method == "auto" and ia.kind in ("power", "exp")
                and ra.kind in ("bounded", "power"))
    evidence = {}

    def report(verdict, via, label="Symbolic" if symbolic else "Numeric"):
        uniform = (verdict == "PositiveRecurrent"
                   and math.isfinite(drain_time_from_infinity(release)))
        return RegimeReport(verdict, via, label, evidence, uniform, margin)

    if _plateau_matches_mean(levy, release):
        return report("NullRecurrent", "structural")
    bd = criterion_bounded_drift(levy, release)
    evidence["bounded_drift"] = bd
    if bd.satisfied:
        return report("Transient", "BoundedDrift")
    shortcut = _exponent_shortcut(ia, ra, bd.threshold) if symbolic else None
    if shortcut is not None:
        evidence.update(input_tail=ia, release_class=ra)
        return report(*shortcut)
    ht = criterion_heavy_tail(levy, release, probe_grid, margin)
    evidence["heavy_tail"] = ht
    if ht.satisfied:
        return report("Transient", "HeavyTailCriterion", "Numeric")
    pr = criterion_positive_recurrent(levy, release, probe_grid, margin)
    evidence["positive_recurrent"] = pr
    if pr.satisfied:
        return report("PositiveRecurrent", "criterion", "Numeric")
    return report("Inconclusive", "criterion", "Numeric")
