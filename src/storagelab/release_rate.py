"""Release-rate families r(u) and their regularity diagnostics.

Families follow the convention r(0) = 0 (exactly 0 for u <= 0), keeping
the content non-negative.  Each family owns two operations, each taking
floats or arrays: ``flow(x, dt, drift)``, the drain flow x' = drift - r(x)
of a lane or of many, and the drain-time primitive ``drain_time(lo, hi)`` =
int dv / r(v), which quadrature integrands call on all nodes of a panel at
once.  Both use one closed-form body where the family has one; otherwise
both read the drain clock ``numerics.DrainClock``, built once per drift:
``drain_time`` at drift 0, ``flow`` at its own (see ``Custom``).  A family's
declared growth, ``asymptotics()``, gives its beta and its ``modulus_R``.

Regularity is verified numerically: local Lipschitz constants by
finite-difference slopes on dyadic grids (including pairs against 0, which
is where constant and raw-power rates fail), and integrability of 1/r near
0 by ``drain_time(0, 1)``, which every family, closed form or drain clock,
makes raise Divergent where that integral diverges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergent, NonFiniteEvaluation
from .numerics import DrainClock, _elementwise

__all__ = [
    "ReleaseRate", "Constant", "Affine", "Power", "PowerSmoothed", "Plateau",
    "Custom", "RateAsymptotics", "RegularityReport",
    "check_regularity", "signed_drain_time",
    "modulus_R",
]


@dataclass(frozen=True)
class RateAsymptotics:
    """A release's growth: 'bounded', r(u) -> a finite limit, or 'power',
    r(u) ~ coef * u^exponent, exponent finite; no other kind.  So
    ``exponent`` is the growth exponent beta of every release (bounded: 0)."""

    kind: str
    exponent: float = 0.0
    coef: float = math.nan
    limit: float = math.nan

    def __post_init__(self):
        if not (self.kind == "bounded" and self.exponent == 0.0 and math.isfinite(self.limit)
                or self.kind == "power" and math.isfinite(self.exponent)):
            raise ValueError("rate asymptotics are 'bounded' (exponent 0, a "
                             "finite limit) or 'power' (a finite exponent)")

    def limsup(self) -> float:
        if self.kind == "bounded":
            return self.limit
        return math.inf if self.exponent > 0 else 0.0


class ReleaseRate:
    """Base class; subclasses are immutable and shareable."""

    kink = None  # a level where r is not smooth: a knot of its clock tables

    def rate(self, u):
        raise NotImplementedError

    def asymptotics(self) -> RateAsymptotics:
        raise NotImplementedError

    def flow(self, x, dt, drift: float = 0.0):
        """x' = drift - r(x) from x over dt >= 0, absorbing at the empty
        state when the drift cannot lift it; ``x`` and ``dt`` are floats or
        arrays of lanes.  Closed forms override this drain-clock flow."""
        return self._clock(float(drift)).flow(x, dt)

    @functools.lru_cache(maxsize=16)
    def _clock(self, drift):
        return DrainClock(self.rate, drift, self.kink)

    def drain_time(self, lo, hi):
        """int_lo^hi dv / r(v) for 0 <= lo <= hi (hi may be inf); ``lo`` and
        ``hi`` are floats or arrays.  Closed forms override this drain-clock
        read, which raises Divergent at an end where the integral diverges."""
        return self._clock(0.0).drain_time(lo, hi)


def _on_positive(u, vals):
    """``vals`` where u > 0, and exactly 0 elsewhere even if vals is not."""
    return np.where(np.greater(u, 0.0), vals, 0.0)[()]


@dataclass(frozen=True)
class Constant(ReleaseRate):
    """r(u) = a for u > 0.  Lipschitz fails at 0; the compound-Poisson route
    applies instead (finite time to empty, integrable 1/r)."""

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("release level must be positive")

    def rate(self, u):
        return _on_positive(u, self.a)

    def asymptotics(self):
        return RateAsymptotics("bounded", limit=self.a)

    def flow(self, x, dt, drift=0.0):
        # the empty state stays empty whenever inflow cannot outrun the level
        return np.maximum(x + (drift - self.a) * dt, 0.0)

    def drain_time(self, lo, hi):
        return (hi - lo) / self.a


@dataclass(frozen=True)
class Affine(ReleaseRate):
    """r(u) = a + b u for u > 0.  With a = 0 this is the shot-noise drain."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b <= 0:
            raise ValueError("need a >= 0 and b > 0")

    def rate(self, u):
        u = np.asarray(u, dtype=float)
        return _on_positive(u, self.a + self.b * u)

    def asymptotics(self):
        return RateAsymptotics("power", 1.0, self.b)

    def flow(self, x, dt, drift=0.0):
        x_eq = (drift - self.a) / self.b
        return np.maximum(x_eq + (x - x_eq) * np.exp(-self.b * dt), 0.0)

    def drain_time(self, lo, hi):
        if self.a == 0.0 and np.asarray(lo).min(initial=np.inf) == 0.0:
            raise Divergent("time integral diverges at the empty state")
        return np.log((self.a + self.b * hi) / (self.a + self.b * lo)) / self.b


def _power_flow(k, beta, x, dt, lifted=None):
    """Drift-free flow of x' = -k x^beta from x > 0 (floats or lanes);
    ``lifted`` is x^(1 - beta) if the caller has it."""
    if beta == 1.0:
        return x * np.exp(-k * dt)
    lifted = x ** (1.0 - beta) if lifted is None else lifted
    base = lifted - k * (1.0 - beta) * dt
    # for beta < 1 the content empties in finite time: base <= 0 means empty
    return np.maximum(base, 0.0) ** (1.0 / (1.0 - beta))


def _power_time(k, beta, lo, hi, lifted=None):
    """int_lo^hi dv / (k v^beta) for 0 < lo <= hi; hi may be inf.  ``lo``
    and ``hi`` are floats or arrays, ``lifted`` hi^(1 - beta) if known."""
    if beta == 1.0:
        return np.log(hi / lo) / k
    lifted = hi ** (1.0 - beta) if lifted is None else lifted
    return (lifted - lo ** (1.0 - beta)) / (k * (1.0 - beta))


@dataclass(frozen=True)
class Power(ReleaseRate):
    """r(u) = k u^beta for u > 0, beta != 0 (negative beta allowed)."""

    k: float
    beta: float

    def __post_init__(self):
        if self.k <= 0 or self.beta == 0:
            raise ValueError("need k > 0 and beta != 0")

    def rate(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            vals = self.k * np.maximum(u, 1e-300) ** self.beta
        return _on_positive(u, vals)

    def asymptotics(self):
        return RateAsymptotics("power", self.beta, self.k)

    def flow(self, x, dt, drift=0.0):
        if drift != 0.0:
            return super().flow(x, dt, drift)
        # empty lanes stay empty: they run the formula from 1.0, then are zeroed
        return _power_flow(self.k, self.beta, x + (x <= 0.0), dt) * (x > 0.0)

    def drain_time(self, lo, hi):
        if self.beta >= 1.0 and np.asarray(lo).min(initial=np.inf) == 0.0:
            raise Divergent("time integral diverges at the empty state")
        return _power_time(self.k, self.beta, lo, hi)


@dataclass(frozen=True)
class PowerSmoothed(ReleaseRate):
    """Power rate with a linear ramp on [0, u_s] restoring local Lipschitz.

    For beta in (0, 1) the raw power has unbounded slope at 0; the ramp
    changes nothing at large u, which is all the asymptotic criteria see.
    """

    k: float
    beta: float
    u_s: float = 0.01

    def __post_init__(self):
        if self.k <= 0 or self.beta <= 0 or self.u_s <= 0:
            raise ValueError("need k > 0, beta > 0, u_s > 0")

    @property
    def _ramp_slope(self):
        return self.k * self.u_s ** (self.beta - 1.0)

    def rate(self, u):
        u = np.asarray(u, dtype=float)
        ramp = self._ramp_slope * u
        power = self.k * np.maximum(u, 1e-300) ** self.beta
        return _on_positive(u, np.where(u <= self.u_s, ramp, power))

    @property
    def kink(self):
        return self.u_s

    def asymptotics(self):
        return RateAsymptotics("power", self.beta, self.k)

    def flow(self, x, dt, drift=0.0):
        if drift != 0.0:
            return super().flow(x, dt, drift)
        if self.beta == 1.0:
            # ramp and power are then one line, r(u) = k u
            return _power_flow(self.k, 1.0, x, dt)
        us = self.u_s
        top = np.maximum(x, us)
        # power law for the time tau spent above the knee, then the ramp
        # decays exponentially and never reaches 0; both read top^(1 - beta)
        lifted = top ** (1.0 - self.beta)
        tau = np.minimum(dt, _power_time(self.k, self.beta, us, top, lifted))
        y = np.minimum(x, _power_flow(self.k, self.beta, top, tau, lifted))
        return y * np.exp(-self._ramp_slope * (dt - tau))

    def drain_time(self, lo, hi):
        if np.asarray(lo).min(initial=np.inf) <= 0.0:
            raise Divergent("ramp time integral diverges at 0")
        # the part of [lo, hi] below the knee on the ramp, the rest on the
        # power law; an empty part contributes exactly 0
        us = self.u_s
        ramp = np.log(np.minimum(hi, us) / np.minimum(lo, us)) / self._ramp_slope
        return ramp + _power_time(self.k, self.beta, np.maximum(lo, us),
                                  np.maximum(hi, us))


@dataclass(frozen=True)
class Plateau(ReleaseRate):
    """Linear ramp up to u0, constant m beyond: realises drains that exactly
    match the input rate at high content."""

    m: float
    u0: float = 1.0

    def __post_init__(self):
        if self.m <= 0 or self.u0 <= 0:
            raise ValueError("need m > 0 and u0 > 0")

    def rate(self, u):
        u = np.asarray(u, dtype=float)
        return _on_positive(u, np.minimum(self.m * u / self.u0, self.m))

    def asymptotics(self):
        return RateAsymptotics("bounded", limit=self.m)

    def flow(self, x, dt, drift=0.0):
        u0, slope = self.u0, self.m / self.u0
        x_eq = drift / slope
        if drift < self.m:
            # linear descent for the time tau spent above the knee, then
            # exponential approach to x_eq
            tau = np.minimum(dt, np.maximum(x - u0, 0.0) / (self.m - drift))
            y = x - (self.m - drift) * tau
            return np.maximum(x_eq + (y - x_eq) * np.exp(-slope * (dt - tau)), 0.0)
        # the ramp rises towards x_eq >= u0 and crosses the knee after tau
        # (never if x_eq = u0), then the content grows at drift - m
        x = np.maximum(x, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.log(np.where(x < u0, (x_eq - x) / (x_eq - u0), 1.0)) / slope
        y = x - (x_eq - x) * np.expm1(-slope * np.minimum(dt, tau))
        return y + (drift - self.m) * np.maximum(dt - tau, 0.0)

    def drain_time(self, lo, hi):
        if np.asarray(lo).min(initial=np.inf) <= 0.0:
            raise Divergent("ramp time integral diverges at 0")
        # ramp below the knee, constant m above it, as for PowerSmoothed
        u0 = self.u0
        ramp = np.log(np.minimum(hi, u0) / np.minimum(lo, u0)) / (self.m / u0)
        return ramp + (np.maximum(hi, u0) - np.maximum(lo, u0)) / self.m


@dataclass(frozen=True)
class Custom(ReleaseRate):
    """User callable with a declared asymptotic class.  Its flows, drain
    time and certificates read the drain clock, which evaluates ``fn`` on
    all of (0, 1e30], and past it at an end that is no pure power.  There
    ``fn`` may overflow: an OverflowError or a value of +inf reads as r =
    +inf, an end the clock's tables cut.  A NaN or -inf value raises
    NonFiniteEvaluation."""

    fn: object
    declared: RateAsymptotics

    def rate(self, u):
        vals = _elementwise(self._value, u)
        if not np.greater(vals, -math.inf).all():
            raise NonFiniteEvaluation("custom release rate returned NaN or -inf")
        return _on_positive(u, vals)

    def _value(self, u):
        try:
            return self.fn(u)
        except OverflowError:
            return math.inf

    def asymptotics(self):
        return self.declared


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def signed_drain_time(release: ReleaseRate, u):
    """G(u) = int_1^u dv / r(v), negative below 1, for a float (a float
    back) or an array of levels (an array back)."""
    u = np.asarray(u, dtype=float)
    g = np.copysign(release.drain_time(np.minimum(u, 1.0), np.maximum(u, 1.0)),
                    u - 1.0)
    return g if g.ndim else float(g)


def modulus_R(release: ReleaseRate, u: float) -> float:
    """sup_{v >= 0} (r(v) - r(v+u)).  A closed family reads it off the
    growth exponent e of its asymptotics: +inf if e < 0 (r blows up at 0+),
    0 if e < 1 (r is concave: increments fall to 0 at infinity), -coef * u
    if e = 1 (r is linear past 0), and -r(u) if e > 1 (r is convex from
    r(0) = 0, a smoothed power's ramp being flatter than its power at the
    knee, so the sup is at v = 0).  A Custom release's declared class is
    not checked: it gets a lower bound at v = 0 and 121 v in [1e-6, 1e6]."""
    if u <= 0:
        raise ValueError("gap must be positive")
    if isinstance(release, (Constant, Affine, Power, PowerSmoothed, Plateau)):
        ra = release.asymptotics()
        if ra.exponent < 1.0:
            return math.inf if ra.exponent < 0.0 else 0.0
        return -ra.coef * u if ra.exponent == 1.0 else -float(release.rate(u))
    v = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 121)])
    with np.errstate(invalid="ignore"):  # inf - inf where a Custom rate overflows
        diffs = release.rate(v) - release.rate(v + u)
    return float(np.nanmax(diffs))


@dataclass(frozen=True)
class RegularityReport:
    c1: bool
    c2: bool
    lipschitz_constants: dict
    cbar1: bool
    cbar2: bool
    applicable_regime: str  # "smooth" | "finite_activity" | "none"


def _lipschitz_scan(release: ReleaseRate, rho: float):
    """(bounded?, max slope) from dyadic pair slopes on [0, rho].

    Pairs against 0 probe the behaviour at the empty state; geometric
    refinement decides whether slopes stabilise or keep growing.
    """
    ks = np.arange(2, 40)
    x = rho * 2.0 ** -ks.astype(float)
    r0 = float(release.rate(0.0))
    slopes_zero = np.abs(release.rate(x) - r0) / x
    grid = np.linspace(0.0, rho, 513)[1:]
    vals = release.rate(grid)
    slopes_grid = np.abs(np.diff(vals)) / np.diff(grid)
    finest = float(np.max(slopes_zero[-6:]))
    mid = float(np.max(slopes_zero[-18:-12]))
    growing = finest > 8.0 * max(mid, 1e-12)
    gamma = float(max(np.max(slopes_zero), np.max(slopes_grid)))
    return (not growing), gamma


def _inv_rate_integrable(release: ReleaseRate) -> bool:
    try:
        return math.isfinite(release.drain_time(0.0, 1.0))
    except Divergent:
        return False


def check_regularity(release: ReleaseRate, activity: str) -> RegularityReport:
    """Numeric verification of the smooth and finite-activity condition sets.

    The constant family fails the local Lipschitz bound at 0 and is routed
    to the finite-activity route, which only needs left continuity and an
    integrable 1/r near the origin.
    """
    if activity not in ("finite", "infinite"):
        raise ValueError("activity must be 'finite' or 'infinite'")
    c1 = float(release.rate(0.0)) == 0.0 and bool(
        np.all(release.rate(np.geomspace(1e-9, 1e6, 61)) > 0.0))
    lipschitz = {}
    c2 = True
    for rho in (1.0, 10.0, 100.0):
        ok, gamma = _lipschitz_scan(release, rho)
        lipschitz[rho] = gamma
        c2 = c2 and ok
    cbar2 = _inv_rate_integrable(release)
    if c1 and c2:
        regime = "smooth"
    elif activity == "finite" and cbar2:
        regime = "finite_activity"
    else:
        regime = "none"
    # (Cbar1), left continuity, is assumed: no finite scan can test it
    return RegularityReport(c1, c2, lipschitz, True, cbar2, regime)
