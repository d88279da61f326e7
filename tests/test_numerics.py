"""Numeric kernel checks.

Derived expected values were computed with independent oracles before the
integrator existed: the heavy-tail integral via a high-resolution trapezoid
rule on the substitution v = tan(theta), the power-drain flow via the
separable closed form, the inversion example by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storagelab import numerics
from storagelab.errors import (
    DegenerateInput,
    Divergent,
    NonFiniteEvaluation,
    NotBracketed,
)
from storagelab.numerics import (
    FitResult,
    fit_loglog,
    integrate_semiinfinite,
    invert_monotone,
)
from storagelab.release_rate import Custom, RateAsymptotics


def trapezoid_tan_oracle(n=2_000_001):
    """Independent oracle for int_0^inf v^{-1/2}/(1+v^2) dv.

    Substituting v = tan(theta) gives int_0^{pi/2} tan(theta)^{-1/2} dtheta;
    the further substitution theta = phi^2 removes the endpoint singularity,
    leaving a smooth integrand 2 phi tan(phi^2)^{-1/2} for a dense trapezoid.
    """
    top = math.sqrt(math.pi / 2)
    phi = np.linspace(0.0, top, n)
    vals = np.empty(n)
    vals[0] = 2.0  # limit of 2 phi / sqrt(tan(phi^2)) as phi -> 0
    vals[1:] = 2.0 * phi[1:] * np.tan(phi[1:] ** 2) ** -0.5
    return float(np.trapezoid(vals, dx=top / (n - 1)))


class TestIntegrateSemiinfinite:
    def test_exponential(self):
        res = integrate_semiinfinite(lambda v: np.exp(-v))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_heavy_tail_oracle(self):
        oracle = trapezoid_tan_oracle()
        assert oracle == pytest.approx(math.pi / math.sqrt(2), abs=5e-7)
        res = integrate_semiinfinite(lambda v: v ** -0.5 / (1 + v * v))
        assert res.value == pytest.approx(2.221441469, abs=1e-6)
        assert res.value == pytest.approx(oracle, abs=5e-7)

    def test_harmonic_tail_divergent(self):
        with pytest.raises(Divergent):
            integrate_semiinfinite(lambda v: 1.0 / (1.0 + v))

    def test_divergent_head(self):
        with pytest.raises(Divergent):
            integrate_semiinfinite(lambda v: np.where(v > 0, 1.0 / v, math.inf))

    def test_nan_raises(self):
        with pytest.raises(NonFiniteEvaluation):
            integrate_semiinfinite(lambda v: math.nan)

    def test_nan_message_names_the_node_as_a_float(self):
        # the first NaN node of the panel [0, 1], 0.5 + 0.5 * 0.2077...,
        # written as a Python float and not as the numpy repr np.float64(...)
        f = lambda v: np.where(v > 0.5, math.nan, 1.0)
        with pytest.raises(NonFiniteEvaluation) as exc:
            numerics._gk(f, np.array([0.0]), np.array([1.0]))
        assert str(exc.value) == "integrand returned NaN at node 0.603892477503949"

    def test_shifted_lower(self):
        res = integrate_semiinfinite(lambda v: np.exp(-v), lower=2.0)
        assert res.value == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, 2)
            c1, c2 = rng.uniform(0.5, 2.0, 2)

            f = lambda v: np.exp(-c1 * v)
            g = lambda v: 1.0 / (1.0 + c2 * v * v)
            comb = lambda v: a * f(v) + b * g(v)
            i_f = integrate_semiinfinite(f).value
            i_g = integrate_semiinfinite(g).value
            i_c = integrate_semiinfinite(comb).value
            assert i_c == pytest.approx(a * i_f + b * i_g,
                                        abs=10 * numerics._REL_TOL * (abs(i_f) + abs(i_g) + 1))


def _quad_both_ways(f):
    """integrate_semiinfinite(f) with its runs of blocks, and with one block
    per call."""
    got = integrate_semiinfinite(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_PREFETCH", 1)
        return got, integrate_semiinfinite(f)


class TestClosedForms:
    """The block march against closed forms: blocks whose whole-block panel
    is accepted skip the adaptive refinement, and a march of one block per
    call must reach the same value, error and panel count."""

    @pytest.mark.parametrize("a", [0.2, 0.5, 1.0, 2.5, 5.0])
    def test_gamma_function(self, a):
        got, single = _quad_both_ways(lambda v: v ** (a - 1.0) * np.exp(-v))
        assert got.value == pytest.approx(math.gamma(a), rel=1e-8)
        assert (got.value, got.error, got.subdivisions) == (
            single.value, single.error, single.subdivisions)

    @pytest.mark.parametrize("p", [1.05, 1.3, 2.0, 4.0])
    def test_power_tail(self, p):
        got, single = _quad_both_ways(lambda v: (1.0 + v) ** -p)
        assert got.value == pytest.approx(1.0 / (p - 1.0), rel=1e-8)
        assert (got.value, got.error, got.subdivisions) == (
            single.value, single.error, single.subdivisions)

    def test_one_rule_for_runs_halves_and_lone_panels(self):
        # a panel's sums are row sums, the same whichever call holds it:
        # alone, as a half of a split (two adjacent panels) or in a run of 40
        rng = np.random.default_rng(3)
        edges = np.cumsum(rng.uniform(0.1, 3.0, 41))
        lo, hi = edges[:-1], edges[1:]
        f = lambda v: np.cos(7.0 * v) * np.exp(3.0 * np.sin(v)) * 10.0 ** (v % 6.0)
        run = numerics._gk(f, lo, hi)
        for i in range(39):
            lone = numerics._gk(f, np.array([lo[i]]), np.array([hi[i]]))
            assert lone == ([run[0][i]], [run[1][i]])
            split = numerics._gk(f, np.array([lo[i], hi[i]]), np.array([hi[i], hi[i + 1]]))
            assert split == (run[0][i:i + 2], run[1][i:i + 2])


class TestExtrapolatedStop:
    """A march stops once the epsilon extrapolation of its partial sums has
    an error bound below the tolerance, long before a single block is that
    small: closed forms hold the value and the bound to account.  Exact
    values: 1/(s - 1); 100 + int_1^inf x^-1.1 log(1 + e/x) dx and E1(1e-4)
    by mpmath at 30 digits."""

    @pytest.mark.parametrize("f, lower, exact", [
        *[(lambda x, s=s: x ** -s, 1.0, 1.0 / (s - 1.0))
          for s in (1.05, 1.1, 1.5, 2.0, 3.0)],
        (lambda x: x ** -1.1 * np.log(math.e + x), 1.0, 101.61154937036276),
        (lambda x: np.exp(-x) / x, 1e-4, 8.633224704574705),
    ], ids=["x^-1.05", "x^-1.1", "x^-1.5", "x^-2", "x^-3", "x^-1.1 log", "E1"])
    def test_value_within_tolerance_and_error(self, f, lower, exact):
        res = integrate_semiinfinite(f, lower)
        miss = abs(res.value - exact)
        assert miss <= max(1e-12, 1e-8 * abs(exact))
        assert miss <= res.error

    @pytest.mark.parametrize("f, lower", [
        (lambda x: 1.0 / x, 1.0),
        (lambda x: x ** -0.9, 1.0),
        (lambda x: 1.0 / (x * np.log(x)), math.e),
    ], ids=["x^-1", "x^-0.9", "1/(x log x)"])
    def test_non_summable_tails_still_diverge(self, f, lower):
        with pytest.raises(Divergent):
            integrate_semiinfinite(f, lower)

    def test_log_decaying_error_covers_its_miss(self):
        # block ratios tend to 1, so no extrapolation settles and the march
        # runs to its block cap; value 1.18988397 by mpmath in u = e^s
        res = integrate_semiinfinite(lambda u: 1.0 / (u * np.log(math.e + u) ** 2), 1.0)
        assert abs(res.value - 1.18988397034435) <= res.error


def _recorded(f):
    """f and the list of node arrays it is called on."""
    seen = []

    def g(v):
        seen.append(np.array(v))
        return f(v)
    return g, seen


class TestBlockRuns:
    """The first panels of a run of dyadic blocks share one integrand call;
    the march still takes its blocks one at a time."""

    def test_fewer_calls_at_most_twice_the_nodes(self, monkeypatch):
        f = lambda v: (1.0 + v) ** -1.1
        g, batched = _recorded(f)
        got = integrate_semiinfinite(g)
        monkeypatch.setattr(numerics, "_PREFETCH", 1)
        g, single = _recorded(f)
        ref = integrate_semiinfinite(g)
        assert got == ref
        assert 3 * len(batched) <= len(single)
        nodes = [sum(v.size for v in calls) for calls in (batched, single)]
        assert nodes[0] <= 2 * nodes[1]

    def test_accepted_blocks_skip_refinement(self, monkeypatch):
        calls = []
        adaptive = numerics._adaptive

        def spy(f, a, b, budget, first):
            calls.append(first)
            return adaptive(f, a, b, budget, first)

        monkeypatch.setattr(numerics, "_adaptive", spy)
        res = integrate_semiinfinite(lambda v: np.exp(-v / 50.0) * np.cos(v) ** 2)
        assert res.value == pytest.approx(25.0 + 0.01 / (4.0 + 1.0 / 2500.0), rel=1e-7)
        # there is no first pass: every block that reaches the refinement
        # brings a panel, one that fails the tolerance
        assert calls and None not in calls
        for val, err in calls:
            assert err > max(numerics._ABS_TOL, numerics._REL_TOL * abs(val))
        assert len(calls) < res.subdivisions / 4

    def test_callable_failing_past_the_stop(self, monkeypatch):
        # one block per call evaluates no node outside [lo, hi]; the batched
        # march meets nodes out there, and its answer must not change
        f = lambda v: v ** -0.5 / (1.0 + v) ** 2
        with monkeypatch.context() as mp:
            mp.setattr(numerics, "_PREFETCH", 1)
            g, seen = _recorded(f)
            ref = integrate_semiinfinite(g)
        lo = min(v.min() for v in seen)
        hi = max(v.max() for v in seen)
        failed = []

        def strict(v):
            if (v < lo).any() or (v > hi).any():
                failed.append(v.size)
                raise RuntimeError("node past the stopping block")
            return f(v)

        assert integrate_semiinfinite(strict) == ref
        assert failed

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_past_the_stop(self, monkeypatch, bad):
        # a value past the stopping block that is not finite raises in the
        # shared call, whose run then takes one call per block: the answer
        # is the one-block-per-call march's, which never meets that value
        f = lambda v: v ** -0.5 / (1.0 + v) ** 2
        with monkeypatch.context() as mp:
            mp.setattr(numerics, "_PREFETCH", 1)
            g, seen = _recorded(f)
            ref = integrate_semiinfinite(g)
        lo = min(v.min() for v in seen)
        hi = max(v.max() for v in seen)
        g, seen = _recorded(lambda v: np.where((v < lo) | (v > hi), bad, f(v)))
        got, single = _quad_both_ways(g)
        assert any((v < lo).any() or (v > hi).any() for v in seen)
        for res in (got, single):
            assert (res.value, res.error, res.subdivisions) == (
                ref.value, ref.error, ref.subdivisions)

    def test_error_inside_the_march_surfaces(self, monkeypatch):
        def f(v):
            if (v > 3e4).any():
                raise KeyError("left the table")
            return (1.0 + v) ** -1.5

        with pytest.raises(KeyError, match="left the table"):
            integrate_semiinfinite(f)
        monkeypatch.setattr(numerics, "_PREFETCH", 1)
        with pytest.raises(KeyError, match="left the table"):
            integrate_semiinfinite(f)


class TestInvertMonotone:
    def test_log(self):
        u = invert_monotone(math.log, 1.0, (1.0, 10.0))
        assert u == pytest.approx(math.e, abs=1e-9)

    def test_clock_example(self):
        # (sqrt(t) - 1) / 0.5 = 2  =>  t = 4, solved by hand
        g = lambda t: (math.sqrt(t) - 1.0) / 0.5
        assert invert_monotone(g, 2.0, (1.0, 10.0)) == pytest.approx(4.0, abs=1e-9)

    def test_identity(self):
        assert invert_monotone(lambda u: u, 3.5, (0.0, 10.0)) == pytest.approx(3.5)

    def test_not_bracketed(self):
        with pytest.raises(NotBracketed):
            invert_monotone(math.log, 5.0, (1.0, 10.0))

    def test_roundtrip_random_monotone(self):
        # 100 random increasing functions: cumulative mixtures of exp and power
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(0.1, 2.0)
            p = rng.uniform(0.3, 2.0)
            g = lambda u, a=a, b=b, p=p: a * u ** p + b * math.log1p(u)
            lo, hi = sorted(rng.uniform(0.01, 50.0, 2))
            if hi - lo < 1e-3:
                hi = lo + 1.0
            target_u = rng.uniform(lo, hi)
            y = g(target_u)
            u = invert_monotone(g, y, (lo, hi))
            assert abs(g(u) - y) <= 1e-9 * (1 + abs(y))

    @given(st.floats(0.1, 5.0), st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_hypothesis(self, scale, power):
        g = lambda u: scale * u ** power
        y = g(2.5)
        assert invert_monotone(g, y, (0.1, 10.0)) == pytest.approx(2.5, rel=1e-7)


def custom(fn):
    """A plain callable u -> r(u) as a release, whose flow runs the RK."""
    return Custom(fn, RateAsymptotics("power", 1.0, 1.0))


class TestOdeFlow:
    def test_linear_decay(self):
        x = custom(lambda u: u).flow(5.0, 1.0)
        assert x == pytest.approx(5 * math.exp(-1.0), abs=1e-8)

    def test_constant_drain_absorbs(self):
        r = custom(lambda u: 2.0 if u > 0 else 0.0)
        assert r.flow(3.0, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_sqrt_drain_closed_form(self):
        # x' = -sqrt(x) has x(t) = (sqrt(x0) - t/2)^2 until it empties
        x = custom(lambda u: math.sqrt(max(u, 0.0))).flow(4.0, 2.0)
        assert x == pytest.approx(1.0, abs=1e-7)

    def test_semigroup(self):
        for rate in (custom(lambda u: 1.5 if u > 0 else 0.0),
                     custom(lambda u: 0.7 * u),
                     custom(lambda u: max(u, 0.0) ** 1.7)):
            two_step = rate.flow(rate.flow(6.0, 0.8), 1.3)
            one_step = rate.flow(6.0, 2.1)
            assert two_step == pytest.approx(one_step, abs=1e-8)

    def test_monotone_nonnegative(self):
        rate = custom(lambda u: max(u, 0.0) ** 0.5)
        prev = 9.0
        for dt in np.linspace(0.1, 8.0, 25):
            x = rate.flow(9.0, float(dt))
            assert 0.0 <= x <= prev + 1e-12
            prev = x

    def test_drift_equilibrium(self):
        # x' = 1 - x saturates at 1 from both sides
        assert custom(lambda u: u).flow(5.0, 50.0, drift=1.0) == pytest.approx(1.0, abs=1e-6)
        assert custom(lambda u: u).flow(0.2, 50.0, drift=1.0) == pytest.approx(1.0, abs=1e-6)

    def test_zero_dt(self):
        assert custom(lambda u: u).flow(3.0, 0.0) == 3.0


class TestFitLoglog:
    def test_exact_power_law(self):
        xs = np.geomspace(1, 100, 20)
        fit = fit_loglog(xs, xs ** -2.0)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_near_exact(self):
        rng = np.random.default_rng(3)
        xs = np.geomspace(0.5, 50, 30)
        ys = 3.0 * xs ** 0.5 * (1 + 1e-10 * rng.standard_normal(30))
        fit = fit_loglog(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)

    def test_single_x_rejected(self):
        with pytest.raises(DegenerateInput):
            fit_loglog([2.0, 2.0], [1.0, 2.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(DegenerateInput):
            fit_loglog([1.0, 2.0], [1.0, -2.0])

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_planted_exponent(self, slope, coef):
        xs = np.geomspace(1.0, 30.0, 12)
        fit = fit_loglog(xs, coef * xs ** slope)
        assert fit.exponent == pytest.approx(slope, abs=1e-9)

    def test_fitresult_validation(self):
        with pytest.raises(ValueError):
            FitResult(1.0, 0.0, 0.0, 1.0, 1)
