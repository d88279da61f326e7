"""Shared numeric kernel.

Adaptive quadrature on semi-infinite domains, monotone root finding, the
drain clock (a table of the time integral G of x' = drift - r(x), read for
the flow and for G differences: the one numeric clock, of release rates,
custom rate functions phi and custom moduli beta), and log-log regression.

The semi-infinite integrator splits [0, inf) at ``_TAIL_SPLIT`` and covers
each side by dyadic scale blocks ([a, 2a] outward, [a/2, a] inward), each
integrated with a globally adaptive 7-15 Gauss-Kronrod rule.  Block sums of
a power-law integrand form a geometric series, so convergence and
divergence are read off the block-ratio trend; divergence is reported as
Divergent, never silently truncated.  One rule stops every march, with no
first pass: Wynn's epsilon algorithm extrapolates the partial sums (as
QUADPACK's QAGI does), and the march stops once the extrapolation's error
bound is below a quarter of ``_REL_TOL`` of the integral built so far plus
what lies outside the march.

Integrands are array-native: one pass of the rule (``_gk``) evaluates a
set of panels from one call on all their nodes, so an integrand maps an
ndarray of nodes to an array of the same shape.  The sets are a lone
block's panel, the two halves of a split panel, and, along the dyadic
march, the whole-block panels of a run of blocks (1, 2, 4, ... up to
``_PREFETCH``).  Each panel's Kronrod and Gauss sums are sums along its row
of values, so its numbers do not depend on the call that held it.  A block
whose whole-block panel meets the tolerance is taken as it is and never
enters the adaptive refinement, which only the other blocks reach.  The
march still takes the blocks one at a time and stops where it would
without the shared call, so every adaptive tree is the same; the integrand
may thus be evaluated on nodes past the stopping block, at most as many as
the march used.  A run whose shared call raises, a NaN or an infinite
value included, falls back to one call per block as the march reaches
each block, so an error surfaces only at a block the march reaches.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, Divergent, NonFiniteEvaluation, NotBracketed

__all__ = [
    "QuadResult",
    "FitResult",
    "integrate_semiinfinite",
    "invert_monotone",
    "fit_loglog",
]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# tolerances and panel budget of the adaptive integrator, and where the
# semi-infinite integral splits into head and tail
_REL_TOL = 1e-8
_ABS_TOL = 1e-12
_MAX_PANELS = 2000
_TAIL_SPLIT = 1e3


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    subdivisions: int


# 7-point Gauss / 15-point Kronrod nodes and weights on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# the Kronrod weights and the Gauss weights on the Kronrod nodes, as rows
_W = np.vstack([_WK, np.zeros(15)])
_W[1, 1::2] = _WG


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    """f on an array of nodes; a scalar return broadcasts, any other shape
    than the nodes' raises ValueError."""
    y = np.asarray(f(x), dtype=float)
    if y.shape == x.shape:
        return y
    if y.ndim == 0:
        return np.full(x.shape, float(y))
    raise ValueError(f"integrand returned shape {y.shape} for {x.shape} nodes")


def _gk(f, lo: np.ndarray, hi: np.ndarray):
    """One Gauss-Kronrod pass over the panels [lo[i], hi[i]], 1-D arrays,
    from one integrand call on all their nodes; returns (integrals, error
    estimates) as lists.  Each panel's Kronrod and Gauss sums are sums along
    its row of values, so a panel gets the same numbers alone, as half of a
    split or in a run of blocks.  A NaN value raises NonFiniteEvaluation and
    an infinite one Divergent, in the first panel whose integral is not
    finite."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _XK
    y = _evaluate(f, x.ravel()).reshape(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        ik, ig = ((y[:, None, :] * _W).sum(axis=2).T * half).tolist()
    err = []
    for i, (k, g) in enumerate(zip(ik, ig)):
        # a NaN or an infinite value makes the sum non-finite; so may
        # overflow of finite values, which passes both checks
        if not math.isfinite(k):
            if np.isnan(y[i]).any():
                bad = x[i][np.isnan(y[i])][0]
                raise NonFiniteEvaluation(f"integrand returned NaN at node {float(bad)!r}")
            if np.isinf(y[i]).any():
                raise Divergent("integrand is infinite at a quadrature node")
        diff = abs(k - g)
        err.append(diff if diff == 0.0 or diff > 1e200
                   else min(diff, (200.0 * diff) ** 1.5))
    return ik, err


def _adaptive(f, a: float, b: float, budget: int, first):
    """Globally adaptive integration over a finite [a, b] free of endpoint
    singularities, from ``first``, the (value, error) of the panel over all
    of [a, b].  Returns (value, error, panels_used)."""
    val, err = first
    heap = [(-err, a, b, val, err)]
    total, total_err = val, err
    used = 1
    while total_err > max(_ABS_TOL, _REL_TOL * abs(total)) and used < budget:
        neg_err, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa < 1e-13 * max(1.0, abs(pa), abs(pb)):
            heapq.heappush(heap, (neg_err, pa, pb, pval, perr))
            break
        m = 0.5 * (pa + pb)
        (lv, rv), (le, re) = _gk(f, np.array([pa, m]), np.array([m, pb]))
        total += (lv + rv) - pval
        total_err += (le + re) - perr
        heapq.heappush(heap, (-le, pa, m, lv, le))
        heapq.heappush(heap, (-re, m, pb, rv, re))
        used += 1
    return total, total_err, used


_MAX_BLOCKS = 420
_GROWTH_OCTAVES = 60      # octaves of non-decaying blocks before declaring divergence
_RATIO_DIVERGENT = 0.997  # geometric block ratio treated as non-summable
_EDGE = -math.log2(_RATIO_DIVERGENT)  # the same boundary for an end exponent of G
_PREFETCH = 64            # most blocks whose first panels share one call


def _first_panels(f, blocks: list):
    """(value, error) of each (a, b) block's whole-block panel, from one
    ``_gk`` pass for the run.  Each block of a run whose call raises gets
    None and is evaluated on its own when reached, so an error surfaces at
    the block that causes it (a lone block is always reached, so its call
    raises at once)."""
    try:
        return list(zip(*_gk(f, *np.array(blocks).T)))
    except Exception:
        if len(blocks) == 1:
            raise
        return [None] * len(blocks)


def _wynn_step(diag: list, s: float) -> list:
    """Wynn's epsilon table with the partial sum ``s`` appended: ``diag``
    holds the last ascending diagonal, columns 0 to 4 (fewer at the start),
    and so does the list returned.  Column 2 is Aitken's extrapolation of
    the last three sums, column 4 Shanks' e2 of the last five, exact for a
    remainder r^k (a k + b).  A difference of exactly 0 gives inf, and the
    difference of two infs nan; callers read only finite even entries."""
    new = [s]
    for k, d in enumerate(diag[:4]):
        gap = new[k] - d
        new.append((diag[k - 1] if k else 0.0) + (1.0 / gap if gap else math.inf))
    return new


def _block_sum(f, edges, budget: list, scale: float, direction: str):
    """Sum adaptive block integrals along a dyadic edge sequence; returns
    (value, error).

    ``edges`` yields (a, b) block endpoints marching toward the singular end
    (v -> inf for 'tail', v -> 0 for 'head').  One rule: ``tol`` is a quarter
    of max(``_ABS_TOL``, ``_REL_TOL`` |scale + total|), ``total`` the march's
    sum so far and ``scale`` what lies outside it.  After each block the
    epsilon table (``_wynn_step``) extrapolates the partial sums; its bound
    is the distance of the latest extrapolated limit from the three before
    it (QUADPACK's), over (1 - r)^2 for r the recent mean block ratio.  The
    scale keeps the bound above the miss where the ratios drift toward 1 (a
    log factor: the extrapolants then converge only as fast as the sums).
    Once the ratios are geometric (r < 0.98), the march stops with the
    limit when its bound is below ``tol`` and adds the bound to the error;
    a march that runs out of blocks returns the limit and its bound as they
    stand.  Blocks above ``tol`` still not decaying after
    ``_GROWTH_OCTAVES`` octaves (growth, or the flat log-divergent pattern)
    raise Divergent.  Two zero blocks end the march once ``scale + total``
    is not 0.  A block whose whole-block panel meets the tolerance is taken
    as it is; only the others are refined by ``_adaptive``.
    """
    total, total_err = 0.0, 0.0
    prev = None
    logs: list[float] = []  # log block ratios; their recent mean is the trend
    rbar = None
    mag = tol = 0.0
    eps = [total]  # the epsilon table's last ascending diagonal
    limits = [total] * 3  # the last three extrapolated limits, latest last
    spread = 0.0  # the distances of the latest limit from those three
    zero_run = 0
    octaves = 0
    edges = iter(edges)
    run: list = []
    size = 1
    while budget[0] > 8 and octaves < _MAX_BLOCKS:
        if not run:
            # every block takes a panel, so no more than this many are left
            room = min(size, budget[0] - 8, _MAX_BLOCKS - octaves)
            blocks = list(itertools.islice(edges, room))
            if not blocks:
                break
            run = list(zip(blocks, _first_panels(f, blocks)))[::-1]
            size = min(2 * size, _PREFETCH)
        (a, b), first = run.pop()
        if first is None:  # its run's shared call raised
            first = _first_panels(f, [(a, b)])[0]
        v, e = first
        if e > _ABS_TOL and e > _REL_TOL * abs(v):
            v, e, used = _adaptive(f, a, b, min(64, budget[0]), first)
            budget[0] -= used
        else:
            budget[0] -= 1
        total += v
        total_err += e
        tol = max(_ABS_TOL, _REL_TOL * abs(scale + total)) / 4.0
        octaves += 1
        mag = abs(v)
        if mag == 0.0:
            # zeros only terminate once mass has been collected; during the
            # inward approach they just mean the mass sits further along
            zero_run += 1
            if zero_run >= 2 and scale + total != 0.0:
                return total, total_err
            prev = None
            eps = [total]
            continue
        zero_run = 0
        if prev is not None:
            logs.append(math.log(max(mag / prev, 1e-12)))
            recent = logs[-5:]
            rbar = math.exp(sum(recent) / len(recent))
        prev = mag
        old, eps = eps, _wynn_step(eps, total)
        # the deepest even column finite on both diagonals; column 0, the
        # partial sums, always is
        k = (len(old) - 1) // 2 * 2
        while not math.isfinite(eps[k] - old[k]):
            k -= 2
        limit = eps[k]
        spread = abs(limit - limits[0]) + abs(limit - limits[1]) + abs(limit - limits[2])
        limits = limits[1:] + [limit]
        if rbar is not None and rbar < 0.98 and spread <= tol * (1.0 - rbar) ** 2:
            return limit, total_err + spread / (1.0 - rbar) ** 2
        if (octaves >= _GROWTH_OCTAVES and mag > tol
                and (rbar is None or rbar >= _RATIO_DIVERGENT)):
            raise Divergent(f"non-decaying {direction} blocks")
    rbar = rbar or 1.0
    if rbar >= _RATIO_DIVERGENT and mag > tol:
        raise Divergent(f"{direction} fails to converge within budget")
    return limits[2], total_err + spread / max(1.0 - rbar, 1e-6) ** 2


def _tail_edges(start: float):
    a = start
    while True:
        yield a, 2.0 * a
        a *= 2.0


def _head_edges(stop: float):
    b = stop
    while b > 1e-290:
        yield 0.5 * b, b
        b *= 0.5


def integrate_semiinfinite(f, lower: float = 0.0) -> QuadResult:
    """Integral of f over (lower, inf) with divergence detection.

    ``f`` maps an ndarray of nodes to an array of the same shape (a scalar
    return broadcasts; any other shape raises ValueError); a NaN value
    raises NonFiniteEvaluation and an infinite one Divergent.  The domain
    splits at ``_TAIL_SPLIT``; the head is resolved by dyadic blocks
    shrinking to the lower edge (integrable endpoint singularities such as
    v^{-1/2} are fine), the tail by dyadic blocks doubling outward.  Each
    march stops once the error bound of its extrapolated remainder is below
    a quarter of ``_REL_TOL`` of the integral so far: the head's own sum,
    then the head plus the tail's.  ``error`` sums the panels' estimates
    and those bounds.  There is no first pass.
    """
    g = (lambda v: f(lower + v)) if lower != 0.0 else f

    budget = [_MAX_PANELS]
    hv, he = _block_sum(g, _head_edges(_TAIL_SPLIT), budget, 0.0, "head")
    tv, te = _block_sum(g, _tail_edges(_TAIL_SPLIT), budget, hv, "tail")
    return QuadResult(hv + tv, he + te, _MAX_PANELS - budget[0])


def _elementwise(fn, x):
    """A user callable on floats applied to each element of ``x``: an array
    of x's shape for an array, a float for a float."""
    x = np.asarray(x, dtype=float)
    out = np.array([float(fn(xi)) for xi in x.ravel().tolist()]).reshape(x.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# monotone inversion
# ---------------------------------------------------------------------------

_INVERT_TOL = 1e-10
_INVERT_STEPS = 200


def invert_monotone(g, y: float, bracket: tuple[float, float]) -> float:
    """Solve g(u) = y for non-decreasing g on the given bracket.

    Bisection with secant acceleration, at most ``_INVERT_STEPS`` steps;
    terminates when |g(u) - y| <= ``_INVERT_TOL`` * (1 + |y|).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    glo, ghi = g(lo), g(hi)
    ytol = _INVERT_TOL * (1.0 + abs(y))
    slack = 1e-12 * (1.0 + abs(y))
    if y < glo - slack or y > ghi + slack:
        raise NotBracketed(f"target {y} outside [g(lo), g(hi)] = [{glo}, {ghi}]")
    if abs(glo - y) <= ytol:
        return lo
    if abs(ghi - y) <= ytol:
        return hi
    u = 0.5 * (lo + hi)
    for _ in range(_INVERT_STEPS):
        gu = g(u)
        if abs(gu - y) <= ytol:
            return u
        if gu < y:
            lo, glo = u, gu
        else:
            hi, ghi = u, gu
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        # secant proposal, fall back to bisection if it leaves the bracket
        if ghi != glo:
            us = lo + (y - glo) * (hi - lo) / (ghi - glo)
        else:
            us = 0.5 * (lo + hi)
        width = hi - lo
        if not (lo + 1e-3 * width <= us <= hi - 1e-3 * width):
            us = 0.5 * (lo + hi)
        u = us
    return u


# ---------------------------------------------------------------------------
# drain clock
# ---------------------------------------------------------------------------

_CLOCK_SCAN = np.geomspace(1e-30, 1e30, 1201)  # where equilibria are sought


def _poly(P, k, z):
    """Polynomial k of the (degree + 1, n) coefficients P at z, by lane."""
    t = P[-1, k]
    for row in P[-2::-1]:
        t = t * z + row[k]
    return t


def _running_sum(d):
    """np.cumsum(d) with each addition's rounding error added back (Knuth's
    TwoSum on the running sums), so a long table keeps its digits as a
    Kahan sum would."""
    s = np.cumsum(d)
    prev = np.concatenate([[0.0], s[:-1]])
    part = s - prev
    return s + np.cumsum((prev - (s - part)) + (d - part))


class _Basin:
    """G between adjacent equilibria lo < hi (or lo = 0, hi = inf) as T =
    sign * G, rising with x, in w = ln((x - lo) / ell) - ln((hi - x) / ell)
    (no second term if hi = inf), where it is smooth up to both ends.  Knots
    are 1/16 apart, one at any kink of r.  On each interval T is F(z), the
    integral of the polynomial through dT/dw at 8 Gauss-Legendre nodes, and
    w is W(p), the polynomial through the nodes and knots in T.  Past the
    ends dT/dw goes on as exp(a w); a = 0 at an equilibrium (G ~ log).  T
    at 0 or inf is ``DrainClock._end``'s."""

    def __init__(self, rate, drift, lo, hi, kink):
        h = self.h = 1.0 / 16
        self.lo, self.hi, self.ell = lo, hi, hi - lo if hi < math.inf else (lo or 1.0)
        w0 = -20.0 if lo > 0.0 else math.log(1e-16)
        w1 = 20.0 if hi < math.inf else max(math.log(1e30 / self.ell), 20.0)
        if kink is not None and lo < kink < hi:
            wk = float(self.coord(np.float64(kink)))
            w0 = wk - h * math.ceil((wk - w0) / h)
        # knot, the 8 Gauss-Legendre nodes, knot (numpy.polynomial is
        # imported here, by the first table, not with the package)
        zs = np.concatenate([[-1.0], np.polynomial.legendre.leggauss(8)[0], [1.0]])
        with np.errstate(all="ignore"):
            x, dxdw = self.place(w0 + h * (np.arange(math.ceil((w1 - w0) / h))[:, None]
                                           + 0.5 * (1.0 + zs)))
            f = rate(x) - drift
            self.sign = np.sign(np.median(f))
            m = self.sign * dxdw / f  # dT/dw
        # cut the end intervals where r overflows or r - drift rounds to 0
        good = np.flatnonzero(((m > 0) & np.isfinite(m)).all(axis=1))
        if np.isnan(f).any() or good.size == 0 or good[-1] - good[0] + 1 != good.size:
            raise NonFiniteEvaluation("release rate NaN, or r - drift not finite")
        self.w0, self.n, m = w0 + h * good[0], good.size, m[good]
        fit = np.linalg.inv(np.vander(zs[1:-1], 8, increasing=True)).T  # coefficients
        coef = 0.5 * h * m[:, 1:-1] @ fit / np.arange(1.0, 9.0)
        F = np.column_stack([-coef @ (-1.0) ** np.arange(1, 9), coef])
        dT = F @ np.vander(zs, 9, increasing=True).T  # T - T_k at zs
        (m00, m01), (m10, m11) = m[[0, -1]][:, [0, -1]]
        # an end slope within a few ulps of 0 is 0 (dT/dw constant, G ~ log):
        # the continuation exp(a w) would grow that rounding past the end
        q0, q1 = math.log(m01 / m00), math.log(m11 / m10)
        a0 = 0.0 if lo > 0 or abs(q0) < 2e-15 else q0 / h
        a1 = 0.0 if hi < math.inf or abs(q1) < 2e-15 else q1 / h
        # an end is a pure power (dT/dw is exp(a w) past it, and the
        # continuation exact) if its two outermost intervals share one ratio
        q0n, q1p = (math.log(m[k, -1] / m[k, 0])
                    for k in (min(1, self.n - 1), max(self.n - 2, 0)))
        self.pure = (abs(q0n - q0) <= 1e-12, abs(q1p - q1) <= 1e-12)
        # T is 0 at knot j: at inf where G converges (precise where |r| is
        # big), else at the low end, or, where G grows like a power there (T
        # would hold every digit), at the knot nearest w = 0
        j = (self.n if a1 <= -h else
             min(max(round(-self.w0 / h), 0), self.n) if a0 < 0 else 0)
        d = dT[:, -1]
        self.T = (np.concatenate([-_running_sum(d[:j][::-1])[::-1], [0.0],
                                  _running_sum(d[j:])])
                  + (m11 / a1 if a1 <= -h else 0.0))
        F[:, 0] += self.T[:-1]
        self.span = 2.0 / dT[:, -1]
        p = dT * self.span[:, None] - 1.0
        V = np.vander(p.ravel(), 10, increasing=True).reshape(-1, 10, 10)
        W = np.linalg.solve(V, zs[:, None])[..., 0] * (0.5 * h)
        W[:, 0] += self.w0 + h * (np.arange(self.n) + 0.5)
        self.F, self.W = F.T.copy(), W.T.copy()
        self.ends = ((self.w0, self.T[0], m00, a0),
                     (self.w0 + h * self.n, self.T[-1], m11, a1))

    # coord: x -> w, place: w -> (x, dx/dw); all run under a flow's errstate
    def coord(self, x):
        w = np.log((x - self.lo) / self.ell)
        return w if self.hi == math.inf else w - np.log((self.hi - x) / self.ell)

    def place(self, w):
        if self.hi == math.inf:
            e = self.ell * np.exp(w)
            return self.lo + e, e
        s = self.ell / (1.0 + np.exp(-w))
        return self.lo + s, s / (1.0 + np.exp(w))

    def clock(self, w):
        u = (w - self.w0) / self.h
        k = np.minimum(np.maximum(u, 0), self.n - 1).astype(np.intp)
        t = _poly(self.F, k, np.minimum(np.maximum(2.0 * (u - k) - 1.0, -1.0), 1.0))
        if u.min() < 0 or u.max() > self.n:
            for (we, te, mu, a), out in zip(self.ends, (u < 0, u > self.n)):
                v = w[out] - we  # int_0^v exp(a s) ds past the end
                t[out] = te + mu * (v if a == 0.0 else np.expm1(a * v) / a)
        return t

    def unclock(self, t):
        k = np.minimum(np.maximum(np.searchsorted(self.T, t) - 1, 0), self.n - 1)
        p = (t - self.T[k]) * self.span[k] - 1.0
        w = _poly(self.W, k, np.minimum(np.maximum(p, -1.0), 1.0))
        if p.min() < -1.0 or p.max() > 1.0:
            for (we, te, mu, a), out in zip(self.ends, (t < self.T[0], t > self.T[-1])):
                y = (t[out] - te) / mu  # the inverse of clock's continuation;
                # NaN below the low end, which a lane reaches in finite time
                w[out] = np.fmax(we + (y if a == 0.0 else np.log1p(a * y) / a), -np.inf)
        return w


class DrainClock:
    """The flow of x' = drift - r(x) by its clock G(x) = int dv / (r(v) -
    drift), which falls by dt along the flow: x(dt) = G^-1(G(x) - dt).
    Equilibria (r = drift, by a scan over ``_CLOCK_SCAN`` and bisection) cut
    (0, inf) into basins no lane leaves, each tabulating G (``_Basin``).  A
    lane at an equilibrium stays, as does one that empties (then r(0+) >=
    drift); dt = 0 gives max(x, 0).  ``kink``: a level where r is not smooth."""

    def __init__(self, rate, drift: float, kink=None):
        with np.errstate(all="ignore"):
            up = rate(_CLOCK_SCAN) >= drift
            i = np.flatnonzero(up[:-1] != up[1:])
            lo, hi = _CLOCK_SCAN[i], _CLOCK_SCAN[i + 1]
            for _ in range(64):  # bisection, down to adjacent floats
                mid = 0.5 * (lo + hi)
                left = (rate(mid) >= drift) == up[i]
                lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        self.roots, ends = hi, [0.0, *hi.tolist(), math.inf]
        self.basins = [_Basin(rate, drift, *pair, kink) for pair in zip(ends, ends[1:])]
        self.rate, self.drift, self._ends = rate, drift, {}

    def flow(self, x, dt):
        """The flow over dt >= 0 from x; floats or arrays of lanes."""
        x, dt = np.broadcast_arrays(x, dt)
        shape, x, dt = x.shape, np.maximum(x.ravel(), 0.0), dt.ravel()
        which, out = np.searchsorted(self.roots, x, side="right"), np.empty_like(x)
        first, last = which.min(), which.max()
        with np.errstate(all="ignore"):
            for i in np.unique(which) if first < last else (first,):
                on = which == i if first < last else slice(None)
                xo, dto, b = x[on], dt[on], self.basins[i]
                w = b.unclock(b.clock(b.coord(xo)) - b.sign * dto)
                out[on] = np.where(dto > 0.0, b.place(w)[0], xo)
        return out.reshape(shape) if shape else float(out[0])

    def log_flow(self, x: float, dt):
        """log flow(x, dt) for x > 0 on a clock without equilibria, dt a
        float or an array: its one basin (0, inf) has the coordinate
        w = log x, so the log is read off w and stays finite where the flow
        leaves the float range."""
        (b,) = self.basins
        dt = np.asarray(dt, dtype=float)
        with np.errstate(all="ignore"):
            w = b.unclock(b.clock(b.coord(np.array([x]))) - b.sign * dt.ravel())
        w = np.where(dt.ravel() == 0.0, math.log(x), w)
        return w.reshape(dt.shape) if dt.ndim else float(w[0])

    def drain_time(self, lo, hi):
        """G(hi) - G(lo) for 0 <= lo <= hi, hi possibly inf; floats or arrays.
        Divergent at or across an equilibrium, and at 0 or inf where G
        diverges there; T at 0 or inf is ``_end``'s."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), hi)
        shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
        span, out = lo < hi, np.zeros(lo.size)
        which = np.searchsorted(self.roots, lo, side="right")
        with np.errstate(all="ignore"):
            for i in np.unique(which[span]):
                on, b = span & (which == i), self.basins[i]
                at = (lo[on] == b.lo, hi[on] >= b.hi)
                # first, as a level past an equilibrium has no w
                ends = {side: self._end(i, side) for side in (0, 1) if at[side].any()}
                t = b.clock(b.coord(np.concatenate([lo[on], hi[on]]))).reshape(2, -1)
                for side, te in ends.items():
                    t[side, at[side]] = te
                out[on] = b.sign * (t[1] - t[0])
        return out.reshape(shape) if shape else float(out[0])

    def _end(self, i, side):
        """T at the low (side 0) or high end of basin i, 0 or inf, found
        once (cached as None where G diverges, raised as Divergent).  G
        diverges at an equilibrium (a = 0) and at an end exponent a past
        ``_EDGE``.  A pure-power end gives its continuation's limit.  Any
        other end gives the outermost knot's T plus the march of dT/dw over
        blocks dyadic in |w|, whose Divergent is the verdict: there a log
        factor of r (u log^2 u: dT/dw ~ w^-2) is a power, so its blocks are
        geometric and the march's extrapolation is exact.  The blocks stop
        where x leaves the floats."""
        if (i, side) not in self._ends:
            b = self.basins[i]
            we, te, mu, a = b.ends[side]
            d = 2 * side - 1  # w = d s, s > 0 growing toward the end
            if a * (1 - 2 * side) <= _EDGE:  # signed: > 0 converges
                t = None
            elif b.pure[side]:
                t = te - mu * (1.0 / a)  # the clock at w = d inf
            else:
                top = math.log(np.finfo(float).max) - abs(math.log(b.ell)) - 1.0

                def slope(s):
                    x, dxdw = b.place(d * s)
                    return b.sign * dxdw / (self.rate(x) - self.drift)

                edges = itertools.takewhile(lambda e: e[1] <= top, _tail_edges(d * we))
                try:
                    rem, _ = _block_sum(slope, edges, [_MAX_PANELS], d * te, "end")
                    t = te + d * rem
                except Divergent:
                    t = None
            self._ends[i, side] = t
        if self._ends[i, side] is None:
            raise Divergent("drain time diverges at or across an end")
        return self._ends[i, side]


# ---------------------------------------------------------------------------
# log-log regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Slope/intercept of a least-squares line through (ln x, ln y)."""

    exponent: float
    intercept: float
    stderr: float
    r_squared: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("a fit needs at least two points")


def fit_loglog(xs, ys) -> FitResult:
    """Least squares on (ln x, ln y); the slope is the exponent."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DegenerateInput("xs and ys must be 1-d arrays of equal length")
    if xs.size < 2 or np.unique(xs).size < 2:
        raise DegenerateInput("need at least 2 distinct x values")
    if (xs <= 0).any() or (ys <= 0).any():
        raise DegenerateInput("log-log fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    mx = lx.sum() / lx.size
    my = ly.sum() / ly.size
    sxx = ((lx - mx) ** 2).sum()
    if sxx <= 0:
        raise DegenerateInput("x values are not distinct")
    sxy = ((lx - mx) * (ly - my)).sum()
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    rss = float((resid ** 2).sum())
    tss = float(((ly - my) ** 2).sum())
    n = xs.size
    if n > 2:
        sigma2 = rss / (n - 2)
        stderr = math.sqrt(max(sigma2, 0.0) / sxx)
    else:
        stderr = 0.0
    if tss > 0:
        r2 = max(0.0, min(1.0, 1.0 - rss / tss))
    else:
        r2 = 1.0 if rss <= 1e-30 else 0.0
    return FitResult(float(slope), float(intercept), float(stderr), float(r2), int(n))
