"""Shared numeric kernel.

Adaptive quadrature on semi-infinite domains, monotone root finding, the
drain flow by step-doubling RK4 over lanes, and log-log regression.

The semi-infinite integrator splits [0, inf) at ``tail_split`` and covers
each side by dyadic scale blocks ([a, 2a] outward, [a/2, a] inward), each
integrated with a globally adaptive 7-15 Gauss-Kronrod rule.  Block sums of
a power-law integrand form a geometric series, so convergence, remainder
size, and divergence are all read off the block-ratio trend; divergence is
reported as Divergent, never silently truncated.

Integrands are array-native: the rule evaluates all 15 nodes of a panel in
one call, and both halves of a split panel (30 nodes) in one call, so an
integrand maps an ndarray of nodes to an array of the same shape.  Along
the dyadic march, the first panels of a run of blocks (1, 2, 4, ... up to
``_PREFETCH``) share one call too.  The march still takes the blocks one at
a time and stops where it would without the shared call, so every adaptive
tree is the same; the integrand may thus be evaluated on nodes past the
stopping block, at most as many as the march used.  A shared call that
raises is replaced by one call per block, so an error surfaces only at a
block the march reaches.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, Divergent, NonFiniteEvaluation, NotBracketed

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "FitResult",
    "integrate_semiinfinite",
    "integrate_interval",
    "invert_monotone",
    "fit_loglog",
]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive integrator."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    tail_split: float = 1e3

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.tail_split > 0:
            raise ValueError("tail_split must be positive")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    subdivisions: int

    def __float__(self):
        return self.value


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
_GAUSS_IDX = np.arange(1, 15, 2)


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    """f on an array of nodes; a scalar return broadcasts, any other shape
    than the nodes' raises ValueError."""
    y = np.asarray(f(x), dtype=float)
    if y.shape == x.shape:
        return y
    if y.ndim == 0:
        return np.full(x.shape, float(y))
    raise ValueError(f"integrand returned shape {y.shape} for {x.shape} nodes")


def _gk_rule(x: np.ndarray, y: np.ndarray, half: float):
    """Kronrod value and error estimate of one panel from its 15 values."""
    ik = half * float(_WK @ y)
    if not math.isfinite(ik):
        # a NaN or an infinite value makes the sum non-finite; so may
        # overflow of finite values, which passes both checks
        if np.isnan(y).any():
            bad = x[np.isnan(y)][0]
            raise NonFiniteEvaluation(f"integrand returned NaN at node {float(bad)!r}")
        if np.isinf(y).any():
            raise Divergent("integrand is infinite at a quadrature node")
    ig = half * float(_WG @ y[_GAUSS_IDX])
    diff = abs(ik - ig)
    if diff == 0.0 or diff > 1e200:
        err = diff
    else:
        err = min(diff, (200.0 * diff) ** 1.5)
    return ik, err


def _gk_panel(f, a: float, b: float):
    """One Gauss-Kronrod pass, one integrand call; returns (integral,
    error estimate)."""
    x = 0.5 * (a + b) + 0.5 * (b - a) * _XK
    return _gk_rule(x, _evaluate(f, x), 0.5 * (b - a))


def _gk_halves(f, a: float, m: float, b: float):
    """Gauss-Kronrod passes over [a, m] and [m, b] from one integrand call
    on their 30 nodes; returns ((integral, error), (integral, error))."""
    x = np.concatenate([0.5 * (a + m) + 0.5 * (m - a) * _XK,
                        0.5 * (m + b) + 0.5 * (b - m) * _XK])
    y = _evaluate(f, x)
    left = _gk_rule(x[:15], y[:15], 0.5 * (m - a))
    return left, _gk_rule(x[15:], y[15:], 0.5 * (b - m))


def _adaptive(f, a: float, b: float, spec: QuadratureSpec, budget: int,
              first=None):
    """Globally adaptive integration over a finite [a, b] free of endpoint
    singularities.  Returns (value, error, panels_used).  ``first``, the
    (nodes, values) of the panel over all of [a, b] if already evaluated,
    saves its integrand call."""
    if first is None:
        val, err = _gk_panel(f, a, b)
    else:
        val, err = _gk_rule(*first, 0.5 * (b - a))
    heap = [(-err, a, b, val, err)]
    total, total_err = val, err
    used = 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)) and used < budget:
        neg_err, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa < 1e-13 * max(1.0, abs(pa), abs(pb)):
            heapq.heappush(heap, (neg_err, pa, pb, pval, perr))
            break
        m = 0.5 * (pa + pb)
        (lv, le), (rv, re) = _gk_halves(f, pa, m, pb)
        total += (lv + rv) - pval
        total_err += (le + re) - perr
        heapq.heappush(heap, (-le, pa, m, lv, le))
        heapq.heappush(heap, (-re, m, pb, rv, re))
        used += 1
    return total, total_err, used


_MAX_BLOCKS = 420
_GROWTH_OCTAVES = 60      # octaves of non-decaying blocks before declaring divergence
_RATIO_DIVERGENT = 0.997  # geometric block ratio treated as non-summable
_PREFETCH = 64            # most blocks whose first panels share one call


def _geo_mean(ratios: list[float]) -> float | None:
    if not ratios:
        return None
    recent = ratios[-5:]
    return math.exp(sum(map(math.log, recent)) / len(recent))


def _first_panels(f, blocks: list):
    """(a, b, first) for each (a, b) block, ``first`` being the (nodes,
    values) of its whole-block panel, all from one integrand call.  A lone
    block, or a run whose call raises, gets None: each such block is
    evaluated on its own when reached, so an error surfaces at the block
    that causes it."""
    if len(blocks) > 1:
        lo, hi = np.array(blocks).T[:, :, None]
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _XK
        try:
            y = _evaluate(f, x.ravel()).reshape(x.shape)
        except Exception:
            pass
        else:
            return [(a, b, (x[i], y[i])) for i, (a, b) in enumerate(blocks)]
    return [(a, b, None) for a, b in blocks]


def _block_sum(f, edges, spec: QuadratureSpec, budget: list,
               tol_share: float, direction: str, mass_seen: bool = False):
    """Sum adaptive block integrals along a dyadic edge sequence.

    ``edges`` yields (a, b) block endpoints marching toward the singular end
    (v -> inf for 'tail', v -> 0 for 'head').  A power-law integrand gives a
    geometric block sequence, so trends decide everything: decaying blocks
    stop once the geometric remainder is below ``tol_share``; blocks that
    are still not decaying after ``_GROWTH_OCTAVES`` octaves (growth toward
    the singular end, or the flat log-divergent pattern) raise Divergent.
    Mass sitting many octaves from the split point merely delays the stop,
    it does not trip the divergence guard while block values stay below
    ``tol_share``.
    """
    total, total_err = 0.0, 0.0
    prev = None
    ratios: list[float] = []
    mag = 0.0
    last = 0.0
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
            run = _first_panels(f, blocks)[::-1]
            size = min(2 * size, _PREFETCH)
        a, b, first = run.pop()
        v, e, used = _adaptive(f, a, b, spec, min(64, budget[0]), first)
        budget[0] -= used
        total += v
        total_err += e
        octaves += 1
        mag = abs(v)
        last = v
        if mag == 0.0:
            # zeros only terminate once mass has been collected; during the
            # inward approach they just mean the mass sits further along
            zero_run += 1
            if zero_run >= 2 and (mass_seen or total != 0.0):
                return total, total_err, True
            prev = None
            continue
        zero_run = 0
        if prev not in (None, 0.0):
            ratios.append(max(mag / prev, 1e-12))
        prev = mag
        rbar = _geo_mean(ratios)
        if rbar is not None and rbar < 0.98:
            if mag <= tol_share * max(1.0 - rbar, 3e-3):
                # geometric extrapolation of the rest; ratios are already
                # near their asymptote here, so most of it is real mass
                rem = mag * rbar / (1.0 - rbar)
                return total + math.copysign(rem, last), total_err + 0.2 * rem, True
        if (octaves >= _GROWTH_OCTAVES and mag > tol_share
                and (rbar is None or rbar >= _RATIO_DIVERGENT)):
            raise Divergent(f"non-decaying {direction} blocks", partial=total)
    rbar = _geo_mean(ratios) or 1.0
    if rbar >= _RATIO_DIVERGENT and mag > tol_share:
        raise Divergent(f"{direction} fails to converge within budget",
                        partial=total)
    # geometric extrapolation of the unreached remainder
    rem = abs(last) * rbar / max(1.0 - rbar, 1e-6)
    return total + math.copysign(rem, last), total_err + rem, True


def _tail_edges(start: float):
    a = start
    while True:
        yield a, 2.0 * a
        a *= 2.0


def _head_edges(stop: float, floor: float = 1e-290):
    b = stop
    while b > floor:
        yield 0.5 * b, b
        b *= 0.5


def integrate_interval(f, a: float, b: float,
                       spec: QuadratureSpec | None = None,
                       singular_left: bool = False) -> QuadResult:
    """Adaptive integral of f over a finite interval [a, b].

    ``f`` maps an ndarray of nodes to an array of the same shape (a scalar
    return broadcasts; any other shape raises ValueError); a NaN value
    raises NonFiniteEvaluation and an infinite one Divergent.  With
    ``singular_left`` the left endpoint is approached through shrinking
    dyadic blocks, so integrable singularities converge and non-integrable
    ones raise Divergent.
    """
    spec = spec or QuadratureSpec()
    if b <= a:
        return QuadResult(0.0, 0.0, 0)
    budget = [spec.max_subdivisions]
    if not singular_left or a > 0:
        v, e, used = _adaptive(f, a, b, spec, budget[0])
        return QuadResult(v, e, used)
    tol_share = spec.abs_tol / 2
    v, e, _ = _block_sum(f, _head_edges(b), spec, budget, tol_share, "head")
    return QuadResult(v, e, spec.max_subdivisions - budget[0])


def integrate_semiinfinite(f, spec: QuadratureSpec | None = None,
                           lower: float = 0.0) -> QuadResult:
    """Integral of f over (lower, inf) with divergence detection.

    ``f`` maps an ndarray of nodes to an array of the same shape, as for
    ``integrate_interval``.  The domain splits at ``tail_split``; the head
    is resolved by dyadic blocks shrinking to the lower edge (integrable
    endpoint singularities such as v^{-1/2} are fine), the tail by dyadic
    blocks doubling outward.
    """
    spec = spec or QuadratureSpec()
    ustar = spec.tail_split
    g = (lambda v: f(lower + v)) if lower != 0.0 else f

    budget = [spec.max_subdivisions]
    # first pass gives the magnitude scale for tolerance shares
    coarse, _, used = _adaptive(g, ustar * 1e-3, ustar, spec, 32)
    budget[0] -= used
    tol = max(spec.abs_tol, spec.rel_tol * abs(coarse)) / 4.0

    hv, he, _ = _block_sum(g, _head_edges(ustar), spec, budget, tol, "head")
    tol = max(spec.abs_tol, spec.rel_tol * max(abs(hv), abs(coarse))) / 4.0
    tv, te, _ = _block_sum(g, _tail_edges(ustar), spec, budget, tol, "tail",
                           mass_seen=(hv != 0.0))
    return QuadResult(hv + tv, he + te, spec.max_subdivisions - budget[0])


def _elementwise(fn, x):
    """A user callable on floats applied to each element of ``x``: an array
    of x's shape for an array, a float for a float."""
    x = np.asarray(x, dtype=float)
    out = np.array([float(fn(xi)) for xi in x.ravel().tolist()]).reshape(x.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# monotone inversion
# ---------------------------------------------------------------------------

def invert_monotone(g, y: float, bracket: tuple[float, float],
                    tol: float = 1e-10, max_iter: int = 200) -> float:
    """Solve g(u) = y for non-decreasing g on the given bracket.

    Bisection with secant acceleration; terminates when
    |g(u) - y| <= tol * (1 + |y|).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    glo, ghi = g(lo), g(hi)
    ytol = tol * (1.0 + abs(y))
    slack = 1e-12 * (1.0 + abs(y))
    if y < glo - slack or y > ghi + slack:
        raise NotBracketed(f"target {y} outside [g(lo), g(hi)] = [{glo}, {ghi}]")
    if abs(glo - y) <= ytol:
        return lo
    if abs(ghi - y) <= ytol:
        return hi
    u = 0.5 * (lo + hi)
    for _ in range(max_iter):
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
# drain flow
# ---------------------------------------------------------------------------

_TINY = 1e-300  # where _rk_flow reads r(0+)


def _rk_flow(rate, x0, dt, drift: float, tol: float = 1e-10):
    """x' = drift - r(x) from ``x0`` over ``dt`` by step-doubling RK4 with
    per-step tolerance ``tol``; floats (a float back) or arrays of lanes.

    Each lane keeps its own time and step, the accept, reject and stopping
    rules are masks, and a lane leaves the running set when it stops.  The
    right-hand side takes r at r(0+), not r(0) = 0: a lane that empties
    while drift <= r(0+) then stays empty (a sliding motion) instead of
    chattering across 0 with shrinking steps.
    """
    def rhs(x):
        return drift - rate(np.maximum(x, _TINY))

    x0, dt = np.broadcast_arrays(np.asarray(x0, dtype=float),
                                 np.asarray(dt, dtype=float))
    out = np.maximum(x0.ravel(), 0.0)  # where a lane's time runs out
    lane = np.flatnonzero(dt.ravel() > 0.0)
    x, dt = x0.ravel()[lane], dt.ravel()[lane]
    t, h = np.zeros(lane.size), dt / 8.0
    scale = np.maximum(1.0, np.abs(x))
    sticks = drift <= rate(_TINY)
    # as on floats, inf - inf = nan from a rate singular at 0 rejects a step
    with np.errstate(over="ignore", invalid="ignore"):
        while lane.size:
            f0 = rhs(x)
            # rest point (drained reservoir or interior equilibrium)
            rest = np.abs(f0) <= 1e-14 * scale
            at_rest = np.where((x <= 1e-14 * scale) & (drift <= 0.0), 0.0, x)
            # a step of h and a first half step, stacked, then the second
            h = np.minimum(h, dt - t)
            y = _rk4_step(rhs, np.concatenate((x, x)),
                          np.concatenate((h, 0.5 * h)), np.concatenate((f0, f0)))
            x1, xh = y[:lane.size], y[lane.size:]
            x2 = _rk4_step(rhs, xh, 0.5 * h, rhs(xh))
            err = np.abs(x2 - x1) / 15.0
            ok = ~rest & (err <= tol * np.maximum(1.0, np.abs(x)))
            # accepted: a lane that crosses 0 ends there if the drift cannot
            # lift it, and restarts from 0 otherwise
            xa = x2 + (x2 - x1) / 15.0
            empty = ok & (xa <= 0.0) & sticks
            xa = np.where(xa <= 0.0, 0.0, xa)
            grow = err < 0.25 * tol * np.maximum(1.0, np.abs(xa))
            # rejected: a field that strengthens towards 0 (sampled below x,
            # down to r(0+)) empties the lane within x / |f0| and holds it
            # there, which RK cannot resolve for an r singular at 0
            strong = ~rest & ~ok & (x + (dt - t) * f0 <= 0.0)
            if strong.any():
                below = np.vstack([x[strong] * 0.5 ** np.arange(1.0, 9.0)[:, None],
                                   np.full((1, strong.sum()), _TINY)])
                strong[strong] = (rhs(below) <= f0[strong]).all(axis=0)
            t = np.where(ok, t + h, t)
            x = np.where(ok, xa, x)
            h = np.where(ok, np.where(grow, 2.0 * h, h), 0.5 * h)
            if (~rest & ~ok & ~strong & (h < 1e-15 * dt)).any():
                raise FloatingPointError("flow step size underflow")
            empty |= strong
            stop = rest | empty | (ok & (t >= dt))
            out[lane[stop]] = np.where(rest, at_rest, np.where(
                empty, 0.0, np.maximum(x, 0.0)))[stop]
            lane, x, t, h, dt, scale = (
                a[~stop] for a in (lane, x, t, h, dt, scale))
    return out.reshape(x0.shape) if x0.ndim else float(out[0])


def _rk4_step(rhs, x, h, k1):
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


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


def fit_loglog(xs, ys, weights=None) -> FitResult:
    """Weighted least squares on (ln x, ln y); the slope is the exponent."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DegenerateInput("xs and ys must be 1-d arrays of equal length")
    if xs.size < 2 or np.unique(xs).size < 2:
        raise DegenerateInput("need at least 2 distinct x values")
    if (xs <= 0).any() or (ys <= 0).any():
        raise DegenerateInput("log-log fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    if weights is None:
        w = np.ones_like(lx)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != lx.shape or (w <= 0).any():
            raise DegenerateInput("weights must be positive, one per point")
    sw = w.sum()
    mx = (w * lx).sum() / sw
    my = (w * ly).sum() / sw
    sxx = (w * (lx - mx) ** 2).sum()
    if sxx <= 0:
        raise DegenerateInput("x values are not distinct after weighting")
    sxy = (w * (lx - mx) * (ly - my)).sum()
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    rss = float((w * resid ** 2).sum())
    tss = float((w * (ly - my) ** 2).sum())
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
