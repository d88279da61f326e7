"""Input subordinators: Levy measures, tails, moments, and jump sampling.

Each family knows its tail function nu_bar(u) = nu((u, inf)), Levy density,
first moment, Laplace exponent, and how to sample its jumps.  Infinite
activity families are simulated by keeping the jumps above a truncation
level ``eps``, which arrive at rate nu_bar(eps) and whose sizes are exact
draws of the restricted law (Pareto for the stable family; for Gamma and
tempered stable one rejection sampler, ``_tempered_draw``, which takes per
call the smaller of two dominating envelopes with closed-form inverses, so
no draw branches, and keeps 0.937 of its proposals at alpha = 0, c eps =
1e-4, the gamma-linear preset, and above 0.292 anywhere), and replacing
the discarded small jumps by their mean drift int_0^eps u nu(du); the
induced bias is controlled by the discarded second moment
int_0^eps u^2 nu(du), which every family reports.  Only ``simulator``'s
engine draws A(t); ``ergodicity_lab.laplace_check`` checks its sums.

``scipy.special`` is imported inside the gamma, stable and tempered-stable
closed forms that use it, so importing the package does not load scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import Divergent
from .numerics import integrate_semiinfinite

__all__ = [
    "Exponential", "ParetoJumps", "DeterministicJumps",
    "CompoundPoisson", "GammaSub", "StableSub", "TemperedStableSub",
    "TabulatedTail", "TailAsymptotics",
]


@dataclass(frozen=True)
class TailAsymptotics:
    """Declared behaviour of nu_bar at infinity, for symbolic shortcuts.

    kind 'power': nu_bar(u) ~ coef * u^{-index}; kind 'exp': nu_bar decays
    at least as fast as exp(-index * u); kind 'other': no shortcut.
    """

    kind: str
    index: float = math.nan
    coef: float = math.nan


# ---------------------------------------------------------------------------
# jump size laws for compound Poisson inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exponential:
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("exponential rate must be positive")

    def mean(self):
        return 1.0 / self.mu

    def sf(self, u):
        return np.exp(-self.mu * np.asarray(u, dtype=float))

    def pdf(self, u):
        u = np.asarray(u, dtype=float)
        return self.mu * np.exp(-self.mu * u)

    def sample(self, gen, n):
        return gen.exponential(1.0 / self.mu, n)

    def sample_integrated_tail(self, gen, n):
        """n draws of the integrated-tail law P(J > y) / E[J] dy: Exp(mu)
        again, as the exponential law is memoryless."""
        return gen.exponential(1.0 / self.mu, n)

    def asymptotics(self):
        return TailAsymptotics("exp", self.mu)


def _pareto_draw(gen, n, alpha, xm):
    """n Pareto(alpha) draws on [xm, inf), xm * u^(-1/alpha) of n uniforms
    u, computed in place on the uniforms: the output is the only array."""
    u = gen.random(n)
    u **= -1.0 / alpha
    u *= xm
    return u


@dataclass(frozen=True)
class ParetoJumps:
    """Pareto(alpha) sizes on [xm, inf): P(J > u) = (u/xm)^{-alpha}."""

    alpha: float
    xm: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.xm <= 0:
            raise ValueError("alpha and xm must be positive")

    def mean(self):
        if self.alpha <= 1:
            return math.inf
        return self.xm * self.alpha / (self.alpha - 1.0)

    def sf(self, u):
        u = np.asarray(u, dtype=float)
        return np.minimum((np.maximum(u, 1e-300) / self.xm) ** -self.alpha, 1.0)

    def pdf(self, u):
        u = np.asarray(u, dtype=float)
        out = self.alpha / self.xm * (u / self.xm) ** (-self.alpha - 1.0)
        return np.where(u >= self.xm, out, 0.0)

    def sample(self, gen, n):
        return _pareto_draw(gen, n, self.alpha, self.xm)

    def sample_integrated_tail(self, gen, n):
        """n draws of the integrated-tail law P(J > y) / E[J] dy (alpha > 1),
        by inversion of its CDF: uniform on [0, xm) with mass (alpha - 1) /
        alpha, so u E[J] for a uniform u below that mass, and above it
        xm (alpha (1 - u))^(-1 / (alpha - 1))."""
        if self.alpha <= 1:
            raise ValueError("the integrated tail needs a finite mean, alpha > 1")
        u = gen.random(n)  # in [0, 1), so 1 - u > 0
        low = u < (self.alpha - 1.0) / self.alpha
        high = self.xm * (self.alpha * (1.0 - u)) ** (-1.0 / (self.alpha - 1.0))
        return np.where(low, u * self.mean(), high)

    def asymptotics(self):
        return TailAsymptotics("power", self.alpha, self.xm ** self.alpha)


@dataclass(frozen=True)
class DeterministicJumps:
    size: float

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("jump size must be positive")

    def mean(self):
        return self.size

    def sf(self, u):
        return np.where(np.asarray(u, dtype=float) < self.size, 1.0, 0.0)

    def pdf(self, u):
        raise NotImplementedError("point mass has no density")

    def sample(self, gen, n):
        return np.full(n, self.size)

    def sample_integrated_tail(self, gen, n):
        """n draws of the integrated-tail law P(J > y) / E[J] dy: U(0, size)."""
        return gen.uniform(0.0, self.size, n)

    def asymptotics(self):
        return TailAsymptotics("exp", math.inf)


# ---------------------------------------------------------------------------
# subordinator families
# ---------------------------------------------------------------------------

class LevyInput:
    """Common interface; concrete families are frozen dataclasses below."""

    activity: str  # "finite" | "infinite"

    def tail(self, u):
        """nu_bar(u) = nu((u, inf)) for u > 0."""
        raise NotImplementedError

    def density(self, u):
        raise NotImplementedError

    def first_moment(self) -> float:
        """m_nu = int u nu(du) = int_0^inf nu_bar(u) du, possibly +inf."""
        raise NotImplementedError

    def log_tail(self, u):
        """log nu_bar(u), stable far into the tail (exact where closed forms
        exist, -inf once the tail is genuinely below the floating range)."""
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.tail(u), dtype=float))

    def log_tail_drop(self, u, v):
        """log nu_bar(v) - log nu_bar(u + v) for u, v > 0: the plain
        difference, which cancels far into a light tail, where a family with
        a closed form overrides it."""
        return self.log_tail(v) - self.log_tail(u + v)

    def laplace_exponent(self, lam: float) -> float:
        """psi(lam) = int (e^{-lam u} - 1) nu(du) <= 0, via the tail identity
        psi(lam) = -lam * int_0^inf e^{-lam u} nu_bar(u) du."""
        if lam == 0.0:
            return 0.0
        res = integrate_semiinfinite(lambda u: np.exp(-lam * u) * self.tail(u))
        return -lam * res.value

    def asymptotics(self) -> TailAsymptotics:
        return TailAsymptotics("other")

    # --- truncation bookkeeping ------------------------------------------
    def restricted_rate(self, eps: float) -> float:
        """Arrival rate of the retained jumps, nu_bar(eps); finite activity
        families, which retain every jump, give their total rate."""
        return float(self.tail(eps))

    def sample_sizes(self, gen, n: int, eps: float):
        """The sizes of n retained jumps: n independent draws of the
        restricted law nu(. & (eps, inf)) / nu_bar(eps) (of the jump law,
        for finite activity).  No size is a zero placeholder."""
        raise NotImplementedError

    def compensator_drift(self, eps: float) -> float:
        """Mean drift of discarded small jumps, int_0^eps u nu(du); 0 for
        finite activity, which discards none."""
        return 0.0

    def small_jump_msq(self, eps: float) -> float:
        """Discarded second moment int_0^eps u^2 nu(du) (bias control)."""
        return 0.0


@dataclass(frozen=True)
class CompoundPoisson(LevyInput):
    """Finite activity: jumps arrive at ``rate`` with i.i.d. sizes.

    rate == 0 gives the degenerate zero-input model (useful for pure-drain
    couplings); every tail/moment is then identically zero.
    """

    rate: float
    jump: Exponential | ParetoJumps | DeterministicJumps
    activity: str = field(default="finite", init=False)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be non-negative")

    def tail(self, u):
        return self.rate * self.jump.sf(u)

    def log_tail(self, u):
        u = np.asarray(u, dtype=float)
        if self.rate == 0.0:
            return np.full_like(u, -np.inf)
        if isinstance(self.jump, Exponential):
            return math.log(self.rate) - self.jump.mu * u
        if isinstance(self.jump, ParetoJumps):
            lo = np.log(np.maximum(u, 1e-300) / self.jump.xm)
            return math.log(self.rate) - self.jump.alpha * np.maximum(lo, 0.0)
        return super().log_tail(u)

    def log_tail_drop(self, u, v):
        """Exact for exponential jumps, mu u, and for Pareto jumps: alpha
        log1p(u / v) for v >= xm, below xm alpha log((u + v) / xm) floored
        at 0.  No two logs of a far tail cancel."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        if self.rate > 0.0 and isinstance(self.jump, Exponential):
            return self.jump.mu * u
        if self.rate > 0.0 and isinstance(self.jump, ParetoJumps):
            alpha, xm = self.jump.alpha, self.jump.xm
            below = np.log(np.maximum((u + v) / xm, 1.0))
            return alpha * np.where(v >= xm, np.log1p(u / np.maximum(v, xm)), below)
        return super().log_tail_drop(u, v)

    def density(self, u):
        return self.rate * self.jump.pdf(u)

    def first_moment(self):
        return self.rate * self.jump.mean()

    def laplace_exponent(self, lam):
        if lam == 0.0 or self.rate == 0.0:
            return 0.0
        if isinstance(self.jump, Exponential):
            return -self.rate * lam / (self.jump.mu + lam)
        if isinstance(self.jump, DeterministicJumps):
            return self.rate * (math.exp(-lam * self.jump.size) - 1.0)
        return super().laplace_exponent(lam)

    def asymptotics(self):
        a = self.jump.asymptotics()
        if a.kind == "power":
            return TailAsymptotics("power", a.index, self.rate * a.coef)
        return a

    def restricted_rate(self, eps):
        return self.rate

    def sample_sizes(self, gen, n, eps):
        return self.jump.sample(gen, n)


# proposals _tempered_draw makes at a time: about 2 MB of work arrays
_PROPOSALS = 1 << 15


def _tempered_draw(gen, n, alpha, c, eps):
    """n independent draws of the density f(u) proportional to u^(-1-alpha)
    e^(-c u) on (eps, inf), 0 <= alpha < 1, by rejection in blocks of at
    most ``_PROPOSALS`` proposals from one of two envelopes that dominate f:

    - h1 = u^(-1-alpha) (1 + c u)^(alpha-1), which y = u / (1 + c u) maps
      to y^(-1-alpha) on (eps / (1 + c eps), 1/c], drawn by inversion; a
      proposal is kept with probability e^(-c u) (1 + c u)^(1-alpha);
    - h2 = eps^(-1-alpha) e^(-c u): eps + Exp(c), kept with probability
      (eps / u)^(1+alpha).

    The call takes the envelope of smaller mass, so no draw branches.  Its
    acceptance is 0.937 at alpha = 0, c eps = 1e-4, and above 0.292 for
    every alpha in [0, 1) and c eps > 0, that bound being approached as
    alpha -> 1 at c eps = 0.567, where the two masses meet.  The kept
    proposals keep their order."""
    ce = c * eps
    span = math.log1p(1.0 / ce)  # log((1/c) / y0)
    k = math.expm1(alpha * span)
    # the logs of h1's and h2's masses, both times c^alpha
    inverted = math.log(k / alpha if alpha else span) <= -(1.0 + alpha) * math.log(ce) - ce
    out = np.empty(n)
    filled = proposed = 0
    while filled < n:
        # the draws still wanted at the acceptance seen so far, and 64 more
        m = min(_PROPOSALS, (n - filled) * (proposed + 1) // (filled + 1) + 64)
        proposed += m
        v = 1.0 - gen.random(m)  # uniform on (0, 1]
        w = gen.random(m)  # kept where w < acceptance probability
        if inverted:
            # x = c u, at which h1 holds the share v of its mass above u
            x = 1.0 / np.expm1(np.log1p(k * v) / alpha if alpha else span * v)
            keep = w < np.exp((1.0 - alpha) * np.log1p(x) - x)
        else:
            x = ce - np.log(v)
            keep = w < (ce / x) ** (1.0 + alpha)
        kept = x[keep][:n - filled]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    out *= 1.0 / c
    return out


def _exp_tail_drop(levy, c, k, u, v):
    """``log_tail_drop`` of a tail whose ``log_tail`` reads C x^-k e^-x
    (1 - k/x), x = c u, past x = 600.  There the drop is that form taken
    apart, c u + k log1p(u / v) plus the two corrections, so no two logs
    near -c v cancel; elsewhere it is the plain difference."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    x, y = c * np.maximum(v, 600.0 / c), c * np.maximum(u + v, 600.0 / c)
    far = c * u + k * np.log1p(u / v) + np.log1p(-k / x) - np.log1p(-k / y)
    return np.where(c * v > 600.0, far, levy.log_tail(v) - levy.log_tail(u + v))


@dataclass(frozen=True)
class GammaSub(LevyInput):
    """Gamma subordinator: nu(du) = shape * exp(-rate * u) / u du."""

    shape: float
    rate: float
    activity: str = field(default="infinite", init=False)

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")

    def tail(self, u):
        from scipy import special
        u = np.asarray(u, dtype=float)
        return self.shape * special.exp1(self.rate * u)

    def log_tail(self, u):
        from scipy import special
        u = np.asarray(u, dtype=float)
        x = self.rate * u
        # exp1(x) ~ e^{-x}/x (1 - 1/x) for large x, beyond float range of exp1
        asym = -x - np.log(x) + np.log1p(-1.0 / np.maximum(x, 2.0))
        with np.errstate(divide="ignore"):
            direct = np.log(self.shape * special.exp1(np.minimum(x, 600.0)))
        return np.where(x > 600.0, math.log(self.shape) + asym, direct)

    def log_tail_drop(self, u, v):
        return _exp_tail_drop(self, self.rate, 1.0, u, v)

    def density(self, u):
        u = np.asarray(u, dtype=float)
        return self.shape * np.exp(-self.rate * u) / u

    def first_moment(self):
        return self.shape / self.rate

    def laplace_exponent(self, lam):
        return -self.shape * math.log1p(lam / self.rate)

    def asymptotics(self):
        return TailAsymptotics("exp", self.rate)

    def sample_sizes(self, gen, n, eps):
        return _tempered_draw(gen, n, 0.0, self.rate, eps)

    def compensator_drift(self, eps):
        return self.shape * (1.0 - math.exp(-self.rate * eps)) / self.rate

    def small_jump_msq(self, eps):
        t = self.rate * eps
        return self.shape * (1.0 - math.exp(-t) * (1.0 + t)) / self.rate ** 2


@dataclass(frozen=True)
class StableSub(LevyInput):
    """Pure power tail nu_bar(u) = scale * u^{-alpha}, alpha in (0, 1).

    The normalisation is pinned directly by the tail: regime criteria only
    see nu_bar and the first moment, so (alpha, scale) is the whole story.
    """

    alpha: float
    scale: float = 1.0
    activity: str = field(default="infinite", init=False)

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("stable index must lie in (0, 1)")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def tail(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * np.maximum(u, 1e-300) ** -self.alpha

    def log_tail(self, u):
        u = np.asarray(u, dtype=float)
        return math.log(self.scale) - self.alpha * np.log(np.maximum(u, 1e-300))

    def density(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * self.alpha * u ** (-1.0 - self.alpha)

    def first_moment(self):
        return math.inf

    def laplace_exponent(self, lam):
        from scipy import special
        if lam == 0.0:
            return 0.0
        return -self.scale * special.gamma(1.0 - self.alpha) * lam ** self.alpha

    def asymptotics(self):
        return TailAsymptotics("power", self.alpha, self.scale)

    def restricted_rate(self, eps):
        return self.scale * eps ** -self.alpha

    def sample_sizes(self, gen, n, eps):
        # restricted law is exactly Pareto(alpha) above eps
        return _pareto_draw(gen, n, self.alpha, eps)

    def compensator_drift(self, eps):
        return self.scale * self.alpha * eps ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def small_jump_msq(self, eps):
        return self.scale * self.alpha * eps ** (2.0 - self.alpha) / (2.0 - self.alpha)


@dataclass(frozen=True)
class TemperedStableSub(LevyInput):
    """nu(du) = scale * alpha * u^{-1-alpha} e^{-tempering u} du."""

    alpha: float
    scale: float = 1.0
    tempering: float = 1.0
    activity: str = field(default="infinite", init=False)

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("index must lie in (0, 1)")
        if self.scale <= 0 or self.tempering <= 0:
            raise ValueError("scale and tempering must be positive")

    def tail(self, u):
        from scipy import special
        u = np.asarray(u, dtype=float)
        x = self.tempering * np.maximum(u, 1e-300)
        upper = special.gammaincc(1.0 - self.alpha, x) * special.gamma(1.0 - self.alpha)
        return self.scale * self.tempering ** self.alpha * (
            x ** -self.alpha * np.exp(-x) - upper)

    def log_tail(self, u):
        u = np.asarray(u, dtype=float)
        x = self.tempering * u
        # Gamma(-alpha, x) ~ x^{-alpha-1} e^{-x} (1 - (1 + alpha)/x) for large x
        asym = (math.log(self.scale * self.alpha / self.tempering)
                - (1.0 + self.alpha) * np.log(np.maximum(u, 1e-300)) - x
                + np.log1p(-(1.0 + self.alpha) / np.maximum(x, 2.0)))
        with np.errstate(divide="ignore"):
            direct = np.log(np.maximum(self.tail(np.minimum(u, 600.0 / self.tempering)),
                                       1e-300))
        return np.where(x > 600.0, asym, direct)

    def log_tail_drop(self, u, v):
        return _exp_tail_drop(self, self.tempering, 1.0 + self.alpha, u, v)

    def density(self, u):
        u = np.asarray(u, dtype=float)
        return (self.scale * self.alpha * u ** (-1.0 - self.alpha)
                * np.exp(-self.tempering * u))

    def first_moment(self):
        from scipy import special
        return (self.scale * self.alpha * special.gamma(1.0 - self.alpha)
                * self.tempering ** (self.alpha - 1.0))

    def laplace_exponent(self, lam):
        from scipy import special
        if lam == 0.0:
            return 0.0
        c = self.tempering
        return -self.scale * special.gamma(1.0 - self.alpha) * (
            (lam + c) ** self.alpha - c ** self.alpha)

    def asymptotics(self):
        return TailAsymptotics("exp", self.tempering)

    def sample_sizes(self, gen, n, eps):
        return _tempered_draw(gen, n, self.alpha, self.tempering, eps)

    def compensator_drift(self, eps):
        from scipy import special
        a, c = self.alpha, self.tempering
        lower = special.gammainc(1.0 - a, c * eps) * special.gamma(1.0 - a)
        return self.scale * a * c ** (a - 1.0) * lower

    def small_jump_msq(self, eps):
        from scipy import special
        a, c = self.alpha, self.tempering
        lower = special.gammainc(2.0 - a, c * eps) * special.gamma(2.0 - a)
        return self.scale * a * c ** (a - 2.0) * lower


@dataclass(frozen=True)
class TabulatedTail(LevyInput):
    """Tail given on a knot grid, log-log interpolated, finite activity.

    All mass sits at or above the first knot; queries beyond the last knot
    use the declared parametric extension ('power', alpha) or ('exp', rate),
    matched continuously at the last knot.
    """

    knots_u: tuple
    knots_tail: tuple
    extension: tuple
    activity: str = field(default="finite", init=False)

    def __post_init__(self):
        # a numeral string or a bool would convert to a float
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                   for x in (*self.knots_u, *self.knots_tail)):
            raise ValueError("knots must be finite numbers")
        try:
            u = np.asarray(self.knots_u, dtype=float)
            t = np.asarray(self.knots_tail, dtype=float)
        except OverflowError as exc:  # an integer beyond the float range
            raise ValueError("knots must be finite numbers") from exc
        if u.ndim != 1 or u.size < 2 or t.shape != u.shape:
            raise ValueError("need matching 1-d knot arrays with >= 2 points")
        if (np.diff(u) <= 0).any() or (u <= 0).any():
            raise ValueError("knot levels must be positive and increasing")
        if (t <= 0).any() or (np.diff(t) > 0).any():
            raise ValueError("tail values must be positive and non-increasing")
        kind, par = self.extension
        if kind not in ("power", "exp") or par <= 0:
            raise ValueError("extension must be ('power', a>0) or ('exp', c>0)")
        # a NaN passes the order checks, which compare it as False
        if not (np.isfinite(u).all() and np.isfinite(t).all()):
            raise ValueError("knots must be finite numbers")
        object.__setattr__(self, "knots_u", tuple(float(x) for x in u))
        object.__setattr__(self, "knots_tail", tuple(float(x) for x in t))

    def _u(self):
        return np.asarray(self.knots_u)

    def _t(self):
        return np.asarray(self.knots_tail)

    def tail(self, u):
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        ku, kt = self._u(), self._t()
        out = np.exp(np.interp(np.log(np.maximum(u, ku[0])), np.log(ku), np.log(kt)))
        out[u <= ku[0]] = kt[0]
        beyond = u > ku[-1]
        if beyond.any():
            kind, par = self.extension
            if kind == "power":
                out[beyond] = kt[-1] * (u[beyond] / ku[-1]) ** -par
            else:
                out[beyond] = kt[-1] * np.exp(-par * (u[beyond] - ku[-1]))
        return float(out[0]) if scalar else out

    def density(self, u):
        h = 1e-5 * max(float(np.min(np.abs(np.atleast_1d(u)))), 1e-3)
        return (self.tail(np.asarray(u) - h) - self.tail(np.asarray(u) + h)) / (2 * h)

    def first_moment(self):
        try:
            res = integrate_semiinfinite(self.tail)
        except Divergent:
            return math.inf
        return res.value

    def asymptotics(self):
        kind, par = self.extension
        ku, kt = self.knots_u[-1], self.knots_tail[-1]
        if kind == "power":
            return TailAsymptotics("power", par, kt * ku ** par)
        return TailAsymptotics("exp", par)

    def restricted_rate(self, eps):
        return self.knots_tail[0]

    def sample_sizes(self, gen, n, eps):
        # inverse transform through the normalised tail S = tail / tail(u_0):
        # -log S is piecewise linear in log u between knots, and follows the
        # extension beyond the last knot
        lu = np.log(self._u())
        lt = np.log(self._t())
        drop = lt[0] - lt  # -log S at the knots: 0, then non-decreasing
        x = -np.log1p(-gen.random(n))  # -log S of each draw
        k = np.searchsorted(drop, x, side="right") - 1
        inside = k < drop.size - 1  # drop[k] <= x < drop[k + 1]
        i = k[inside]
        slope = (lu[i + 1] - lu[i]) / (drop[i + 1] - drop[i])
        log_u = np.empty(n)
        log_u[inside] = lu[i] + (x[inside] - drop[i]) * slope
        over = x[~inside] - drop[-1]  # -log of the tail relative to the last knot
        kind, par = self.extension
        if kind == "power":
            log_u[~inside] = lu[-1] + over / par
        else:
            log_u[~inside] = np.log(self.knots_u[-1] + over / par)
        return np.exp(log_u)

