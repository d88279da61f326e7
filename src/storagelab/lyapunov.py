"""Drift certificates, rate predictions, and tail envelopes.

The machinery rests on a rate function phi (non-decreasing, differentiable,
concave on [1, inf)), its clock Phi(t) = int_1^t ds/phi(s), whose inverse
is defined on clock values s >= 0, and the profile Vbar(u) = Phi^{-1}(s(u)),
s(u) = max(G(u) + 1, 0), built from the drain-time primitive
G(u) = int_1^u dv/r(v) and defined once (``_profile_clock``).  So Vbar >= 1,
Vbar = 1 where G(u) <= -1, a flat stretch with no drift (ratio +inf), and
elsewhere Vbar'(u) r(u) = phi(Vbar(u)), so the drift ratio

    ratio(u) = int_0^inf [phi(Vbar(u+v)) / r(u+v)] nu_bar(v) dv / phi(Vbar(u))

having limsup < 1 certifies ergodicity with total-variation rate
phi(Phi^{-1}(t)) and stationary tail envelope 1 / max(phi(Phi^{-1}(u)),
phi(Vbar(u))).  Geometric certificates make phi(Vbar) astronomically large,
so Vbar is read in log space only (``log_profile``, ``log_phi_profile``)
and every integrand is exponentiated once.
The power law phi = c t^a and the power moduli beta = t^d run the release
families' power flow ``release_rate._power_flow``; a custom phi, and a
custom modulus beta, read ``numerics.DrainClock`` (see
``RateFunction._clock`` and ``GapBound``).

One function per stationary-tail envelope theorem, each checking its own
hypotheses: ``tail_upper`` (sub-geometric), ``tail_upper_exponential``,
``tail_lower`` (polynomial quotient) and ``tail_lower_log`` (log scale).
The total-variation lower rate, Wasserstein contraction moduli, and the
sufficient small-jump density check for irreducibility live here too;
uniform ergodicity is answered by ``classifier.classify``.  One function,
``check_wasserstein_contraction``, states the contraction
r(u) - r(v) <= -Gamma beta(v - u) that the gap bound ``GapBound``
B_kappa^{-1}(Gamma t) assumes; ``estimate_wp_decay`` reports that bound
only for a release that passes it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classifier import (
    DEFAULT_DECISION_MARGIN,
    DEFAULT_PROBE_GRID,
    limit_estimate,
)
from .errors import (
    C3Violation,
    Divergent,
    HypothesisFailed,
    InvalidModulus,
    InvalidRateFunction,
)
from .levy_input import LevyInput
from .numerics import (
    DrainClock,
    FitResult,
    _elementwise,
    fit_loglog,
    integrate_semiinfinite,
    invert_monotone,
)
from .release_rate import (
    ReleaseRate,
    _power_flow,
    modulus_R,
    signed_drain_time,
)

__all__ = [
    "RateFunction", "DriftCertificate", "TailEnvelope",
    "PowerModulus", "CustomModulus", "GapBound", "LowerRateCurve",
    "generator_apply", "build_certificate",
    "tail_upper", "tail_upper_exponential", "tail_lower", "tail_lower_log",
    "tv_lower_rate",
    "check_wasserstein_contraction",
    "check_irreducibility_sufficient",
]


# ---------------------------------------------------------------------------
# rate functions phi and their clocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    """phi on [1, inf): the power law phi = c t^a with 0 <= a <= 1, or a
    custom callable read off the drain clock (finite on [1, 1e30]).  The
    closed families fix (c, a): 'constant1' is (1, 0), 'linear' (c, 1) and
    'power' (1, a) with a in (0, 1)."""

    family: str
    c: float = 1.0
    a: float = 0.0
    fn: object = None

    def __post_init__(self):
        laws = {"constant1": (1.0, 0.0), "linear": (self.c, 1.0),
                "power": (1.0, self.a)}
        if self.family not in (*laws, "custom"):
            raise InvalidRateFunction(f"unknown family {self.family!r}")
        if self.family == "linear" and self.c <= 0:
            raise InvalidRateFunction("linear rate needs c > 0")
        if self.family == "power" and not 0 < self.a < 1:
            raise InvalidRateFunction("power rate needs exponent in (0, 1)")
        if self.family == "custom":
            if self.fn is None:
                raise InvalidRateFunction("custom rate needs a callable")
            _check_concave_nondecreasing(self.fn)
        elif (self.c, self.a) != laws[self.family]:
            raise InvalidRateFunction(
                f"{self.family} rate needs (c, a) = {laws[self.family]}")

    @classmethod
    def constant1(cls):
        return cls("constant1")

    @classmethod
    def linear(cls, c: float):
        return cls("linear", c=c, a=1.0)

    @classmethod
    def power(cls, a: float):
        return cls("power", a=a)

    @classmethod
    def custom(cls, fn):
        return cls("custom", fn=fn)

    def value(self, t):
        """phi(t) for a float or an array; a custom callable is applied per
        element."""
        if self.fn is not None:
            return _elementwise(self.fn, t)
        return self.c * t ** self.a

    def log_clock_inv(self, s):
        """log Phi^{-1}(s) at clock values s >= 0 (Phi^{-1}'s domain; below
        it raises ValueError), stable deep into geometric growth: a custom
        phi reads its clock's log coordinate, finite past the float range,
        for a float or an array of clock values."""
        _check_clock(s)
        if self.fn is not None:
            w = self._clock().log_flow(1.0, s)
            if not np.isfinite(w).all():
                raise Divergent("clock inverse out of range")
            return w
        if self.a == 1.0:
            return self.c * s
        return np.log1p(self.c * (1.0 - self.a) * s) / (1.0 - self.a)

    def log_rate_at_clock(self, s):
        """log phi(Phi^{-1}(s)), the log of the predicted rate at clock
        s >= 0, for a float or an array of clock values.  A custom phi is
        read at w = log Phi^{-1}(s): phi itself within its clock's table,
        past the table's end (x > 1e30, maybe past the floats) the end's
        continuation dT/dw = mu e^(a (w - w_e)), as dT/dw = x / phi(x)."""
        if self.fn is not None:
            w = np.atleast_1d(self.log_clock_inv(s))
            we, _, mu, a = self._clock().basins[0].ends[1]
            out = w - math.log(mu) - a * (w - we)
            inside = w <= we
            out[inside] = np.log(self.value(np.exp(w[inside])))
            return out if np.ndim(s) else float(out[0])
        _check_clock(s)
        if self.a == 1.0:
            return math.log(self.c) + self.c * s
        return math.log(self.c) + self.a / (1.0 - self.a) * np.log1p(
            self.c * (1.0 - self.a) * s)

    @functools.lru_cache(maxsize=16)
    def _clock(self):
        """The drain clock of x' = phi(x), phi held at phi(1) below 1."""
        return DrainClock(lambda x: -self.value(np.maximum(x, 1.0)), 0.0, 1.0)


def _check_clock(s) -> None:
    """Refuse clock values (a float or an array) below Phi^{-1}'s domain."""
    if np.minimum.reduce(s, axis=None, initial=0.0) < 0.0:
        raise ValueError("clock values are non-negative")


def _check_concave_nondecreasing(fn):
    tol = 1e-7
    t = np.linspace(1.0, 1e4, 400)
    vals = _elementwise(fn, t)
    if not (np.isfinite(vals) & (vals > 0)).all():
        raise InvalidRateFunction("rate function must be positive and finite")
    if (np.diff(vals) < -tol * np.abs(vals[:-1])).any():
        raise InvalidRateFunction("rate function must be non-decreasing")
    if (np.diff(vals, 2) > tol * np.max(np.abs(vals))).any():
        raise InvalidRateFunction("rate function must be concave")


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def generator_apply(levy: LevyInput, release: ReleaseRate, f, u: float,
                    f_prime=None, form: str = "fubini") -> float:
    """L f(u) = -r(u) f'(u) + jump part.

    'fubini' uses int_0^inf f'(u+v) nu_bar(v) dv (valid for non-decreasing
    C^1 f); 'direct' integrates (f(u+v) - f(u)) against the Levy density.
    Both are exposed so they can cross-check each other.  ``f`` and
    ``f_prime`` take arrays (numpy arithmetic), as the quadrature evaluates
    them on all nodes of a panel at once; a constant return broadcasts.
    """
    if form not in ("fubini", "direct"):
        raise ValueError("form must be 'fubini' or 'direct'")
    if f_prime is None:
        h = 1e-6 * max(1.0, abs(u))
        f_prime = lambda w: (f(w + h) - f(w - h)) / (2.0 * h)
    drift_term = -float(release.rate(u)) * float(f_prime(u))
    if form == "fubini":
        jump = integrate_semiinfinite(
            lambda v: f_prime(u + v) * levy.tail(v)).value
    else:
        jump = integrate_semiinfinite(
            lambda v: (f(u + v) - f(u)) * levy.density(v)).value
    return drift_term + jump


# ---------------------------------------------------------------------------
# drift certificates
# ---------------------------------------------------------------------------

def _exp(x):
    """exp of a float or an array, saturating to inf above 709 instead of
    overflowing (and to 0 far below); infinities then surface through the
    quadrature's divergence handling."""
    return np.exp(np.where(x > 709.0, np.inf, x))


def _profile_clock(release, u):
    """s(u) = max(G(u) + 1, 0), the clock value of the profile
    Vbar(u) = Phi^{-1}(s(u)) at a float or an array of levels u > 0:
    G(u) + 1 itself on Phi^{-1}'s domain, its origin 0 below it."""
    return np.maximum(signed_drain_time(release, u) + 1.0, 0.0)


@dataclass(frozen=True)
class DriftCertificate:
    levy: LevyInput
    release: ReleaseRate
    phi: RateFunction
    u_probe: tuple
    ratios: tuple
    drift_margin: float

    @property
    def valid(self) -> bool:
        return self.drift_margin > 0.0

    @property
    def tv_exponent(self) -> float | None:
        """The t-exponent of the promised TV bound 1 / phi(Phi^{-1}(t)) ~
        t^{-a/(1-a)}: -inf for a geometric certificate (a = 1), 0.0 for
        constant1, None for a custom phi or an invalid certificate."""
        if not self.valid or self.phi.fn is not None:
            return None
        if self.phi.a == 1.0:
            return -math.inf
        return 0.0 - self.phi.a / (1.0 - self.phi.a)

    # -- profile -----------------------------------------------------------
    def log_profile(self, u):
        """log Vbar(u) at a float or an array of levels u > 0
        (``_profile_clock``), usable where Vbar itself overflows."""
        return self.phi.log_clock_inv(_profile_clock(self.release, u))

    def log_phi_profile(self, u):
        """log phi(Vbar(u)) at a float or an array of levels u > 0, stable
        for geometric certificates."""
        return self.phi.log_rate_at_clock(_profile_clock(self.release, u))

    # -- predictions --------------------------------------------------------
    def log_predicted_tv_rate(self, t: float) -> float:
        return self.phi.log_rate_at_clock(t)

    def predicted_tv_rate(self, t: float) -> float:
        """phi(Phi^{-1}(t)); grows to +inf for valid certificates."""
        return math.exp(min(self.log_predicted_tv_rate(t), 700.0))

    def predicted_tail_upper(self, u):
        """Envelope 1 / max(phi(Phi^{-1}(u)), phi(Vbar(u))) from the moment
        bound on the invariant law, at a float or an array of levels."""
        biggest = np.maximum(self.log_predicted_tv_rate(u), self.log_phi_profile(u))
        return np.exp(-biggest)


def _ratio_integrand(levy, release, phi, u):
    # unclamped: where Vbar is flat (no drift) this raises, not reads phi(1)
    base = phi.log_rate_at_clock(signed_drain_time(release, u) + 1.0)

    def integrand(v):
        w = u + v
        lr = phi.log_rate_at_clock(_profile_clock(release, w))
        return _exp(lr - base + levy.log_tail(v)) / release.rate(w)

    return integrand


def _drift_ratio(levy, release, phi, u) -> float:
    return integrate_semiinfinite(_ratio_integrand(levy, release, phi, u)).value


def _c3_jump_integral(levy, release, phi, u) -> float:
    """Tail form of condition (C3): finiteness of int_1^inf Vbar'(u+v)
    nu_bar(v) dv.  Evaluated relative to phi(Vbar(u)), which rescales by a
    positive constant without changing convergence; the unscaled value can
    legitimately exceed float range for geometric certificates."""
    return integrate_semiinfinite(_ratio_integrand(levy, release, phi, u),
                                  lower=1.0).value


def build_certificate(levy: LevyInput, release: ReleaseRate, phi: RateFunction,
                      probe_grid=DEFAULT_PROBE_GRID) -> DriftCertificate:
    """Assemble the drift certificate and verify its hypotheses numerically.

    One pass: each ratio integrates the non-negative (C3) integrand over
    [0, inf) instead of [1, inf), so a finite ratio proves (C3).  Where the
    ratio diverges, (C3) raises C3Violation if it diverges too, else the
    ratio is +inf, as it is at a probe where Vbar is flat (no drift).  A
    ratio above 1 only marks the certificate invalid.
    """
    probe_grid = tuple(probe_grid)
    ratios = []
    for u in probe_grid:
        try:
            ratios.append(math.inf if _profile_clock(release, u) == 0.0
                          else _drift_ratio(levy, release, phi, u))
        except Divergent:
            try:
                _c3_jump_integral(levy, release, phi, u)
            except Divergent as exc:
                raise C3Violation(
                    f"profile jump integral diverges at probe u = {u}") from exc
            ratios.append(math.inf)
    margin = 1.0 - limit_estimate(ratios, "limsup")
    return DriftCertificate(levy, release, phi, probe_grid, tuple(ratios),
                            float(margin))


# ---------------------------------------------------------------------------
# tail envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEnvelope:
    kind: str
    fn: object
    u_report: float
    up_to_constant: bool = False

    def __call__(self, u):
        return self.fn(u)


def _subgeometric_ratio(levy, release, eps, u) -> float:
    """Folded form of the sub-geometric ratio hypothesis: one integral,
    assembled in log space so exponential tails cause no overflow, with
    log nu_bar(v) - log nu_bar(u + v) read as one term (``log_tail_drop``),
    so a family with a closed form does not cancel two logs near -mu v."""
    lt_u = levy.log_tail(u)
    lr_u = np.log(release.rate(u))
    lu = np.log(u)

    def integrand(v):
        expo = (lt_u + levy.log_tail_drop(u, v)
                + (1.0 + eps) * (lu - np.log(u + v)) - lr_u)
        return _exp(expo)

    return integrate_semiinfinite(integrand).value


def tail_upper(levy: LevyInput, release: ReleaseRate, eps: float = 0.1,
               probe_grid=DEFAULT_PROBE_GRID,
               margin: float = DEFAULT_DECISION_MARGIN) -> TailEnvelope:
    """Sub-geometric upper envelope u^{1+eps} nu_bar(u) / r(u), up to a
    constant: needs r(u) / (u^{1+eps} nu_bar(u)) eventually non-decreasing
    and its ratio integral's limsup below 1 - margin on the probe grid."""
    probe_grid = tuple(probe_grid)
    us = np.geomspace(probe_grid[0], probe_grid[-1], 40)
    lt = levy.log_tail(us)
    if not np.all(np.isfinite(lt)):
        raise HypothesisFailed("positive-tail", "nu_bar vanishes on the grid")
    incr = np.log(release.rate(us)) - (1.0 + eps) * np.log(us) - lt
    if np.any(incr[-11:] < incr[-12:-1] - 1e-9):
        raise HypothesisFailed(
            "monotone-ratio", "r(u)/(u^{1+eps} nu_bar(u)) is not eventually non-decreasing")
    vals = []
    for u in probe_grid:
        try:
            vals.append(_subgeometric_ratio(levy, release, eps, u))
        except Divergent as exc:
            raise HypothesisFailed(
                "subgeometric-ratio",
                f"ratio integral diverges at u = {u}") from exc
    if limit_estimate(vals, "limsup") >= 1.0 - margin:
        raise HypothesisFailed("subgeometric-ratio",
                               f"limsup estimate {limit_estimate(vals, 'limsup'):.3g} not below 1")

    def env(u):
        return _exp((1.0 + eps) * np.log(u) + levy.log_tail(u)
                    - np.log(release.rate(u)))

    return TailEnvelope("UpperPower", env, probe_grid[0], up_to_constant=True)


def tail_upper_exponential(levy: LevyInput, release: ReleaseRate, c: float,
                           eps: float = 0.1,
                           probe_grid=DEFAULT_PROBE_GRID) -> TailEnvelope:
    """Exponential upper envelope e^{-(c-eps)u} / r(u), up to a constant:
    needs an unbounded release rate and e^{cu} nu_bar(u) bounded on the
    probe grid."""
    if not 0 < eps < c:
        raise ValueError("need 0 < eps < c")
    if release.asymptotics().limsup() != math.inf:
        raise HypothesisFailed("rate-unbounded", "release rate must diverge")
    pg = np.asarray(probe_grid, dtype=float)
    checks = c * pg + levy.log_tail(pg)
    if limit_estimate(checks, "limsup") > 700.0:
        raise HypothesisFailed("exp-moment",
                               "e^{cu} nu_bar(u) is unbounded on the probe grid")

    def env(u):
        return _exp(-(c - eps) * u) / release.rate(u)

    return TailEnvelope("UpperExponential", env, probe_grid[0],
                        up_to_constant=True)


def _submultiplicative(log_tail_fn, lo: float, hi: float) -> bool:
    """Sampled check of nu_bar(u) nu_bar(v) <= C nu_bar(u+v), C in {1,2,4,8},
    at 1000 pairs drawn log-uniform on [lo, hi]."""
    rng = np.random.default_rng(7)
    u = np.exp(rng.uniform(math.log(lo), math.log(hi), 1000))
    v = np.exp(rng.uniform(math.log(lo), math.log(hi), 1000))
    gap = log_tail_fn(u) + log_tail_fn(v) - log_tail_fn(u + v)
    return bool(np.max(gap) <= math.log(8.0) + 1e-9)


def _check_tail_decreasing(levy, eps, probe_grid) -> None:
    """The hypotheses both lower envelopes share: eps > 0 and 1/nu_bar
    increasing on [1, the last probe]."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lt = levy.log_tail(np.geomspace(1.0, probe_grid[-1], 50))
    if (np.diff(lt) > 1e-12).any():
        raise HypothesisFailed("tail-decreasing", "1/nu_bar is not increasing")


def tail_lower(levy: LevyInput, release: ReleaseRate, eps: float,
               probe_grid=DEFAULT_PROBE_GRID) -> TailEnvelope:
    """Polynomial-quotient lower envelope L(u) = u^{1-eps} nu_bar(u) / r(u),
    up to an unknown constant (set to 1, so only its exponent is
    meaningful): needs 1/nu_bar increasing and submultiplicative and r(u)/u
    decreasing to 0."""
    _check_tail_decreasing(levy, eps, probe_grid)
    if not _submultiplicative(lambda x: np.asarray(levy.log_tail(x), dtype=float),
                              0.05, 50.0):
        raise HypothesisFailed("submultiplicative",
                               "1/nu_bar fails the sampled submultiplicativity check")
    if release.asymptotics().exponent >= 1.0:
        raise HypothesisFailed("rate-sublinear", "r(u)/u does not decrease to 0")

    def env(u):
        return _exp((1.0 - eps) * np.log(u) + levy.log_tail(u)
                    - np.log(release.rate(u)))

    return TailEnvelope("LowerPolyQuotient", env, 1.0, up_to_constant=True)


def tail_lower_log(levy: LevyInput, release: ReleaseRate, eps: float,
                   probe_grid=DEFAULT_PROBE_GRID) -> TailEnvelope:
    """Log-scale lower envelope L(u) = u^{-eps} nu_bar(u), up to an unknown
    constant (set to 1): needs 1/nu_bar increasing, 1/nu_bar(e^u)
    submultiplicative and r(u)/(u log u) decreasing to 0."""
    _check_tail_decreasing(levy, eps, probe_grid)
    if not _submultiplicative(
            lambda x: np.asarray(levy.log_tail(np.exp(x)), dtype=float),
            0.5, 20.0):
        raise HypothesisFailed("submultiplicative-log",
                               "1/nu_bar(e^u) fails the sampled submultiplicativity check")
    if release.asymptotics().exponent > 1.0:
        raise HypothesisFailed("rate-subloglinear",
                               "r(u)/(u log u) does not decrease to 0")

    def env(u):
        return _exp(-eps * np.log(u) + levy.log_tail(u))

    return TailEnvelope("LowerLogScale", env, 1.0, up_to_constant=True)


# ---------------------------------------------------------------------------
# total-variation lower rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerRateCurve:
    fn: object
    fitted: FitResult

    def __call__(self, t):
        return self.fn(t)


def default_h_exponent(levy: LevyInput) -> float:
    """Largest power with int u^{a} nu(du) finite by a clear margin, 0.1
    below a power tail's index."""
    asym = levy.asymptotics()
    if asym.kind == "power":
        return max(asym.index - 0.1, 0.1)
    return 1.0


def tv_lower_rate(levy: LevyInput, release: ReleaseRate, eps: float = 0.1,
                  a_h: float | None = None, x: float = 1.0) -> LowerRateCurve:
    """Lower bound t -> 0.5 L(h^{-1}(F^{-1}(2(h(x) + c t)))).

    h(u) = u^{a_h} must have a verified moment drift L h <= c on the probe
    grid, and F(u) = u L(h^{-1}(u)) must increase to infinity; the fitted
    t-exponent of the returned curve is reported for table comparisons.
    Note the eps and a_h slacks compound through F^{-1}: the asymptotic
    t-exponent is l/(a_h + l) with l the u-exponent of L, which approaches
    the sharp value only as both slacks vanish.
    """
    if a_h is None:
        a_h = default_h_exponent(levy)
    envelope = tail_lower(levy, release, eps)

    # moment drift: c bounding L h over a wide grid
    grid = np.concatenate([[1e-2, 0.1, 1.0], np.geomspace(10.0, 1e6, 21)])
    h = lambda w: w ** a_h
    h_prime = lambda w: a_h * w ** (a_h - 1.0)
    drift_vals = []
    for u in grid:
        try:
            drift_vals.append(generator_apply(levy, release, h, float(u), h_prime))
        except Divergent as exc:
            raise HypothesisFailed(
                "moment-drift",
                f"jump integral of u^{a_h} diverges (tail too heavy)") from exc
    c = max(max(drift_vals), 1e-6)

    def log_L(w: float) -> float:
        # an envelope that underflowed to 0, or whose level e^w is past the
        # float range, logs as -inf and fails F-monotone
        try:
            level = math.exp(w)
        except OverflowError:
            return -math.inf
        value = float(envelope.fn(level))
        return math.log(value) if value > 0.0 else -math.inf

    def log_F(y: float) -> float:
        return y + log_L(y / a_h)

    ys = np.linspace(0.0, 600.0, 121)
    lf = np.array([log_F(y) for y in ys])
    if (not np.isfinite(lf).all() or (np.diff(lf) <= 0).any()
            or lf[-1] <= lf[0] + 1.0):
        raise HypothesisFailed("F-monotone", "u L(h^{-1}(u)) is not increasing to infinity")

    def curve(t: float) -> float:
        s = 2.0 * (h(x) + c * t)
        y = invert_monotone(log_F, math.log(s), (0.0, 600.0))
        return 0.5 * math.exp(log_L(y / a_h))

    # fit past the transient knee so the asymptotic exponent is measured
    t0 = max(10.0, 10.0 * h(x) / c)
    ts = np.geomspace(t0, t0 * 1e6, 41)
    fitted = fit_loglog(ts, np.array([curve(t) for t in ts]))
    return LowerRateCurve(curve, fitted)


# ---------------------------------------------------------------------------
# Wasserstein contraction
# ---------------------------------------------------------------------------

# the gaps g at which check_wasserstein_contraction compares the release's
# decrease modulus_R(g) against Gamma beta(g)
_CONTRACTION_GAPS = np.geomspace(1e-3, 1e4, 29)


@dataclass(frozen=True)
class PowerModulus:
    """beta(t) = t^d with d >= 1 (convex, vanishing only at 0)."""

    d: float

    def __post_init__(self):
        if self.d < 1.0:
            raise InvalidModulus("power modulus needs d >= 1")

    def value(self, t):
        return np.asarray(t, dtype=float) ** self.d


@dataclass(frozen=True)
class CustomModulus:
    fn: object

    def __post_init__(self):
        vals = _elementwise(self.fn, np.linspace(0.0, 10.0, 200))
        if vals[0] != 0.0 or not (np.isfinite(vals) & (vals > 0))[1:].all():
            raise InvalidModulus("modulus must vanish exactly at 0 and be positive "
                                 "and finite after")
        if (np.diff(vals, 2) < -1e-9 * max(1.0, vals.max())).any():
            raise InvalidModulus("modulus must be convex")

    def value(self, t):
        return _elementwise(self.fn, t)


def check_wasserstein_contraction(release: ReleaseRate, modulus, Gamma: float):
    """The paper's contraction r(u) - r(v) <= -Gamma beta(v - u) for all
    u < v, read gap by gap: modulus_R(release, g) + Gamma beta(g) <= 0 on
    the gaps ``_CONTRACTION_GAPS``, with a relative tolerance of 1e-9.

    Returns (passed, worst_margin, worst_gap); worst_margin <= 0 passes.
    """
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    beta = np.asarray(modulus.value(_CONTRACTION_GAPS), dtype=float)
    margins = [modulus_R(release, g) + Gamma * b
               for g, b in zip(_CONTRACTION_GAPS, beta)]
    k = int(np.argmax(margins))
    worst = float(margins[k])
    # an unbounded decrease (a rate singular at 0+) never passes
    passed = math.isfinite(worst) and worst <= 1e-9 * (1.0 + abs(worst))
    return passed, worst, float(_CONTRACTION_GAPS[k])


@dataclass(frozen=True)
class GapBound:
    """t -> B_kappa^{-1}(Gamma t): deterministic bound on the coupled gap.

    Decreasing, with value kappa at t = 0: the flow over s = Gamma t from
    kappa of x' = -beta(x), the power flow for a power modulus, else read
    off its drain clock, beta held at beta(kappa) above kappa."""

    modulus: object
    Gamma: float
    kappa: float

    def __post_init__(self):
        if self.kappa <= 0 or self.Gamma <= 0:
            raise ValueError("kappa and Gamma must be positive")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        s = self.Gamma * t
        if s == 0.0:
            return self.kappa
        if isinstance(self.modulus, PowerModulus):
            return _power_flow(1.0, self.modulus.d, self.kappa, s)
        return self._clock().flow(self.kappa, s)

    @functools.lru_cache(maxsize=16)
    def _clock(self):
        return DrainClock(lambda x: self.modulus.value(np.minimum(x, self.kappa)),
                          0.0, self.kappa)


# ---------------------------------------------------------------------------
# irreducibility (sufficient small-jump density bound)
# ---------------------------------------------------------------------------

def check_irreducibility_sufficient(levy: LevyInput):
    """Search for (alpha, theta) with density >= theta u^{-1-alpha} on (0,1).

    A pass supports irreducibility/aperiodicity of the model; a fail proves
    nothing (the bound is only sufficient).  Finite-activity inputs fail by
    construction and rely on the compound-Poisson route instead.
    """
    if levy.activity == "finite":
        return False, None, 0.0
    u = np.geomspace(1e-8, 1.0, 60)
    dens = np.asarray(levy.density(u), dtype=float)
    if not np.all(np.isfinite(dens)) or (dens <= 0).any():
        return False, None, 0.0
    best = (False, None, 0.0)
    for alpha in np.arange(0.1, 0.95, 0.1):
        prod = dens * u ** (1.0 + alpha)
        small = u <= 1e-3
        slope = fit_loglog(u[small], np.maximum(prod[small], 1e-300)).exponent
        if slope > 0.02:
            continue  # product vanishes toward 0: no positive theta works
        theta = float(np.min(prod))
        if theta > best[2]:
            best = (True, float(alpha), theta)
    return best
