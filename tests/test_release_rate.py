"""Release-rate family checks: values, flows, drain times, regularity."""

import math

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from storagelab.classifier import classify
from storagelab.errors import Divergent, NonFiniteEvaluation
from storagelab.levy_input import CompoundPoisson, Exponential
from storagelab.numerics import integrate_semiinfinite
from storagelab.release_rate import (
    Affine,
    Constant,
    Custom,
    Plateau,
    Power,
    PowerSmoothed,
    RateAsymptotics,
    ReleaseRate,
    check_regularity,
    modulus_R,
    signed_drain_time,
)

FAMILIES = [
    Constant(2.0),
    Affine(0.0, 1.0),
    Affine(1.0, 2.0),
    Power(1.0, 2.0),
    PowerSmoothed(1.0, 0.5),
    Plateau(1.0, 1.0),
]


def _dop853_flow(release, x0, dt, drift):
    """x' = drift - r(x) from x0 over dt by scipy's DOP853 (rtol 1e-13, atol
    1e-14), restarted at each kink of r.  Where |drift - r| falls below
    1e-10, near an equilibrium that may be stiff, Radau takes the rest at
    the same tolerances.  When drift <= r(0+) the empty state absorbs: a
    path that comes within 1e-13 of it, or whose step underflows on the way
    there (r singular at 0), ends at 0."""
    sticks = drift <= float(release.rate(1e-300))
    kinks = [k for k in (release.kink, getattr(release, "u0", None)) if k]

    def rhs(s, y):
        return [drift - float(release.rate(max(y[0], 1e-300)))]

    def near_rest(s, y):
        return abs(rhs(s, y)[0]) - 1e-10

    def empty(s, y):
        return y[0] - 1e-13

    near_rest.terminal = empty.terminal = True
    near_rest.direction = empty.direction = -1.0
    t, x, method = 0.0, float(x0), "DOP853"
    while t < dt:
        events = [lambda s, y, k=k: y[0] - k for k in kinks]
        for event in events:
            event.terminal = True
        events += [near_rest] * (method == "DOP853") + [empty] * sticks
        sol = solve_ivp(rhs, (t, dt), [x], method=method, rtol=1e-13,
                        atol=1e-14, events=events)
        hits = dict(zip(events, sol.t_events))
        if sticks and (hits[empty].size or sol.status == -1 and sol.y[0, -1] < 1e-6):
            return 0.0
        assert sol.status in (0, 1), sol.message
        t, x = sol.t[-1], sol.y[0, -1]
        if near_rest in hits and hits[near_rest].size:
            method = "Radau"
        # a monotone flow crosses a kink once: go on from it without it
        kinks = [k for k, hit in zip(kinks, sol.t_events) if not hit.size]
    return max(x, 0.0)


class TestEvaluate:
    def test_constant_indicator(self):
        r = Constant(2.0)
        assert float(r.rate(0.0)) == 0.0
        assert float(r.rate(0.1)) == 2.0

    def test_affine(self):
        assert float(Affine(1.0, 2.0).rate(3.0)) == 7.0

    def test_power(self):
        assert float(Power(1.0, 0.5).rate(9.0)) == pytest.approx(3.0)

    @pytest.mark.parametrize("r", FAMILIES, ids=lambda r: type(r).__name__)
    def test_nonnegative_zero_at_origin(self, r):
        assert float(r.rate(0.0)) == 0.0
        grid = np.geomspace(1e-9, 1e6, 50)
        assert (r.rate(grid) >= 0.0).all()


class TestFlowTimeIntegral:
    def test_constant(self):
        assert Constant(2.0).drain_time(1.0, 5.0) == pytest.approx(2.0)

    def test_power_beta2_to_infinity(self):
        # int_1^inf u^-2 du = 1, the uniform-ergodicity gate
        assert Power(1.0, 2.0).drain_time(1.0, math.inf) == pytest.approx(1.0)

    def test_linear_log(self):
        assert Affine(0.0, 1.0).drain_time(1.0, math.e) == pytest.approx(1.0)

    def test_sublinear_to_infinity_diverges(self):
        assert Affine(0.0, 1.0).drain_time(1.0, math.inf) == math.inf
        assert Constant(1.0).drain_time(1.0, math.inf) == math.inf

    def test_from_zero_divergent(self):
        with pytest.raises(Divergent):
            Power(1.0, 2.0).drain_time(0.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_shot_noise_from_zero_divergent(self):
        # int_0 dv / (b v) diverges: a float and an array raise alike,
        # with no division warning
        for lo in (0.0, np.array([0.0, 0.5])):
            with pytest.raises(Divergent):
                Affine(0.0, 1.0).drain_time(lo, 1.0)

    @pytest.mark.parametrize("r", FAMILIES, ids=lambda r: type(r).__name__)
    def test_additivity(self, r):
        lo, mid, hi = 0.5, 3.0, 40.0
        total = r.drain_time(lo, hi)
        split = r.drain_time(lo, mid) + r.drain_time(mid, hi)
        assert split == pytest.approx(total, abs=1e-9 * max(1.0, total))

    @pytest.mark.parametrize("r", FAMILIES, ids=lambda r: type(r).__name__)
    def test_matches_flow_descent(self, r):
        # time to drain from u_hi to u_lo equals the time integral
        u_hi, u_lo = 8.0, 2.0
        t = r.drain_time(u_lo, u_hi)
        assert r.flow(u_hi, t) == pytest.approx(u_lo, abs=1e-8 * u_hi)

    def test_custom_quadrature(self):
        r = Custom(lambda u: 1.0 + u, RateAsymptotics("power", 1.0, 1.0))
        expect = math.log(6.0 / 2.0)
        assert r.drain_time(1.0, 5.0) == pytest.approx(expect, rel=1e-7)


class TestClosedFlows:
    def test_constant_absorbs(self):
        assert Constant(2.0).flow(3.0, 2.0) == 0.0
        assert Constant(2.0).flow(3.0, 1.0) == pytest.approx(1.0)

    def test_linear_decay(self):
        assert Affine(0.0, 1.0).flow(5.0, 1.0) == pytest.approx(5 * math.exp(-1))

    def test_power_sqrt(self):
        assert Power(1.0, 0.5).flow(4.0, 2.0) == pytest.approx(1.0)

    def test_power_superlinear_never_empties(self):
        x = Power(1.0, 2.0).flow(5.0, 100.0)
        assert 0.0 < x < 0.02

    def test_smoothed_crosses_ramp(self):
        r = PowerSmoothed(1.0, 0.5, u_s=1.0)
        # above the knee: sqrt drain from 4 to 1 takes 2(2 - 1) = 2
        t_hit = r.drain_time(1.0, 4.0)
        assert t_hit == pytest.approx(2.0)
        x = r.flow(4.0, 3.0)
        assert x == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_plateau_piecewise(self):
        r = Plateau(2.0, 1.0)
        # constant drain 2 from 5 to 1 takes 2 s, then exponential
        assert r.flow(5.0, 2.0) == pytest.approx(1.0)
        assert r.flow(5.0, 3.0) == pytest.approx(math.exp(-2.0), rel=1e-9)

    @pytest.mark.parametrize("r", FAMILIES, ids=lambda r: type(r).__name__)
    def test_semigroup(self, r):
        x = r.flow(r.flow(7.0, 0.9), 1.4)
        assert x == pytest.approx(r.flow(7.0, 2.3), abs=1e-8)

    @pytest.mark.parametrize("r", FAMILIES, ids=lambda r: type(r).__name__)
    def test_closed_matches_rk(self, r):
        # closed forms against an adaptive Runge-Kutta integrator (DOP853)
        for x0, dt in ((6.0, 0.7), (0.5, 2.5)):
            closed = r.flow(x0, dt)
            rk = _dop853_flow(r, x0, dt, 0.0)
            assert closed == pytest.approx(rk, abs=2e-6)

    def test_drift_equilibrium_affine(self):
        # x' = 0.5 - x saturates at 0.5
        x = Affine(0.0, 1.0).flow(5.0, 60.0, drift=0.5)
        assert x == pytest.approx(0.5, abs=1e-9)

    def test_drift_power_rk_fallback(self):
        # no closed form with drift, so the drain clock: the lane settles at
        # the equilibrium drift^(1/beta)
        x = Power(1.0, 2.0).flow(5.0, 200.0, drift=0.25)
        assert x == pytest.approx(0.5, abs=1e-5)


class TestModulusR:
    def test_affine_constant_difference(self):
        assert modulus_R(Affine(1.0, 2.0), 0.5) == pytest.approx(-1.0)

    def test_non_decreasing_families_zero(self):
        assert modulus_R(Constant(2.0), 0.5) == 0.0
        assert modulus_R(Plateau(1.0, 1.0), 2.0) == 0.0
        assert modulus_R(PowerSmoothed(1.0, 0.5), 1.0) == 0.0

    def test_superlinear(self):
        assert modulus_R(Power(1.0, 2.0), 2.0) == pytest.approx(-4.0)

    def test_blowing_up_at_zero_is_infinite(self):
        assert modulus_R(Power(1.0, -0.5), 1.0) == math.inf

    def test_smoothed_power_linear_and_below_the_knee(self):
        # beta = 1: ramp and power are one line r(u) = u, so -g; beta = 2
        # below the knee u_s = 0.01: the sup at v = 0 is -r(g) on the ramp
        assert modulus_R(PowerSmoothed(1.0, 1.0), 1.0) == -1.0
        assert modulus_R(PowerSmoothed(1.0, 2.0), 1e-3) == pytest.approx(-1e-5, rel=1e-12)

    @pytest.mark.parametrize("release, gaps", [
        (Constant(2.0), (1e-3, 0.5, 2.0)),
        (Plateau(1.0, 1.0), (1e-3, 0.5, 2.0)),
        (Affine(1.0, 2.0), (1e-3, 0.5, 100.0)),
        (Power(1.0, -0.5), (1e-3, 1.0)),
        (Power(1.0, 0.5), (1e-3, 0.05)),
        (Power(1.0, 1.0), (1e-3, 1.0, 100.0)),
        (Power(1.0, 2.0), (1e-3, 1.0, 100.0)),
        # gaps below and above the knee u_s = 0.01
        (PowerSmoothed(1.0, 0.5), (1e-3, 0.05)),
        (PowerSmoothed(1.0, 1.0), (1e-3, 1.0, 100.0)),
        (PowerSmoothed(1.0, 2.0), (1e-3, 1.0, 100.0)),
    ], ids=repr)
    def test_closed_families_match_a_dense_sup(self, release, gaps):
        # the slow reference: r(v) - r(v + g) on a dense grid of v, which
        # modulus_R bounds (within rounding of the terms) and nearly meets;
        # sublinear gaps stay small enough that the grid's end at 1e9 sees
        # the vanishing increments
        v = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 4001)])
        for g in gaps:
            got = modulus_R(release, g)
            if release.asymptotics().exponent < 0.0:
                assert got == math.inf
                continue
            lo, hi = release.rate(v), release.rate(v + g)
            diffs = lo - hi
            assert (diffs <= got + 1e-12 * (np.abs(lo) + np.abs(hi))).all()
            assert abs(got - diffs.max()) <= 1e-6 * (1.0 + abs(got))

    def test_asymptotics_are_bounded_or_power(self):
        # the growth exponent every criterion reads is declared, never guessed
        for bad in (dict(kind="bound", limit=3.0), dict(kind="unknown"),
                    dict(kind="bounded", exponent=1.0, limit=3.0),
                    dict(kind="bounded"), dict(kind="bounded", limit=math.inf),
                    dict(kind="power", exponent=math.nan)):
            with pytest.raises(ValueError):
                RateAsymptotics(**bad)
        assert RateAsymptotics("bounded", limit=3.0).exponent == 0.0

    def test_custom_grid_bounded_by_range(self):
        # decreasing rate: sup difference is below r(0+) - inf r
        r = Custom(lambda u: 1.0 + 1.0 / (1.0 + u),
                   RateAsymptotics("bounded", limit=1.0))
        est = modulus_R(r, 1.0)
        assert 0.0 < est <= 1.0

    def test_custom_non_finite_rejected(self):
        from storagelab.errors import NonFiniteEvaluation
        r = Custom(lambda u: float("nan"), RateAsymptotics("bounded", limit=1.0))
        with pytest.raises(NonFiniteEvaluation):
            float(r.rate(2.0))


class TestRegularity:
    def test_constant_finite_activity_route(self):
        rep = check_regularity(Constant(2.0), "finite")
        assert not rep.c2 and rep.cbar1 and rep.cbar2
        assert rep.applicable_regime == "finite_activity"

    def test_constant_infinite_not_applicable(self):
        rep = check_regularity(Constant(2.0), "infinite")
        assert rep.applicable_regime == "none"

    def test_power_smooth(self):
        rep = check_regularity(Power(1.0, 2.0), "infinite")
        assert rep.c1 and rep.c2
        assert rep.applicable_regime == "smooth"

    def test_raw_sublinear_power_routed(self):
        rep = check_regularity(Power(1.0, 0.5), "finite")
        assert not rep.c2  # unbounded slope at 0
        assert rep.applicable_regime == "finite_activity"
        assert check_regularity(PowerSmoothed(1.0, 0.5), "infinite").c2

    def test_affine_zero_intercept_smooth(self):
        rep = check_regularity(Affine(0.0, 1.0), "infinite")
        assert rep.applicable_regime == "smooth"

    def test_affine_positive_intercept_finite_route(self):
        rep = check_regularity(Affine(1.0, 1.0), "finite")
        assert not rep.c2  # jump of size a at 0
        assert not rep.cbar2 is False or rep.cbar2  # integrable 1/r near 0
        assert rep.applicable_regime == "finite_activity"

    def test_shotnoise_inverse_rate_diverges(self):
        rep = check_regularity(Affine(0.0, 1.0), "finite")
        assert not rep.cbar2  # int dv/(b v) diverges at 0
        assert rep.applicable_regime == "smooth"

    def test_lipschitz_constants_reported(self):
        rep = check_regularity(Affine(0.0, 3.0), "infinite")
        for rho in (1.0, 10.0, 100.0):
            assert rep.lipschitz_constants[rho] == pytest.approx(3.0, rel=1e-6)

    def test_steep_decreasing_power_is_zero_at_empty(self):
        # u^-2 overflows near 0; r(0) is still exactly 0, so the slopes
        # against 0 stay finite
        r = Power(1.0, -2.0)
        assert float(r.rate(0.0)) == 0.0
        assert r.rate(np.array([-1.0, 0.0, 1e-200, 2.0])).tolist() == [
            0.0, 0.0, math.inf, 0.25]
        rep = check_regularity(r, "finite")
        assert rep.c1 and not rep.c2
        assert all(math.isfinite(g) for g in rep.lipschitz_constants.values())

    def test_decreasing_power_finite_route(self):
        # r(u) = k u^beta with beta < 0 blows up at 0+ but 1/r is integrable
        rep = check_regularity(Power(1.0, -0.5), "finite")
        assert not rep.c2
        assert rep.cbar2
        assert rep.applicable_regime == "finite_activity"


class TestDecreasingRelease:
    def test_flow_empties_in_finite_time(self):
        # x' = -x^{-1/2} empties from x0 at t = (2/3) x0^{3/2}
        r = Power(1.0, -0.5)
        t_empty = (2.0 / 3.0) * 4.0 ** 1.5
        assert r.flow(4.0, t_empty * 0.5) > 0.0
        assert r.flow(4.0, t_empty * 1.01) == 0.0

    def test_classified_transient(self):
        # vanishing drain loses to any input with positive mean
        from storagelab.classifier import classify
        from storagelab.levy_input import CompoundPoisson, Exponential
        rep = classify(CompoundPoisson(1.0, Exponential(1.0)), Power(1.0, -0.5))
        assert rep.verdict == "Transient"
        assert rep.via == "BoundedDrift"


# every family the drain clock serves, and Plateau's closed form above m
CLOCKED = [
    pytest.param(Power(1.0, -0.9), id="Power-negative"),
    pytest.param(Power(1.0, 0.5), id="Power-sublinear"),
    pytest.param(Power(1.0, 2.0), id="Power-superlinear"),
    pytest.param(PowerSmoothed(1.0, 0.5), id="PowerSmoothed"),
    pytest.param(Plateau(0.5, 1.0), id="Plateau-above-m"),
    pytest.param(Plateau(1e-4, 1.0), id="Plateau-at-m"),  # d = m: x_eq = u0
    pytest.param(Custom(lambda u: 0.5 + u ** 1.5,
                        RateAsymptotics("power", 1.5, 1.0)), id="Custom"),
    # asymptotically linear: G neither converges nor grows like a power
    pytest.param(Custom(lambda u: u + u * u / (1.0 + u),
                        RateAsymptotics("power", 1.0, 2.0)), id="Custom-linear"),
    # G diverges like a power at 0 and does not converge at inf: the table
    # accumulates T from an interior knot, else T ~ 1e16 at its low end
    # and a flow of order 1 keeps no digit
    pytest.param(Custom(lambda u: u * u / (1.0 + u * u),
                        RateAsymptotics("bounded", limit=1.0)), id="Custom-bounded"),
    pytest.param(Custom(lambda u: u * u / (1.0 + u),
                        RateAsymptotics("power", 1.0, 1.0)), id="Custom-quadratic-at-0"),
]


class TestDrainClock:
    """Flows against DOP853 at rtol 1e-13, within 1e-10 max(1, |x|), on
    random (x, dt): x log-uniform on [1e-12, 1e8], dt on [1e-6, 1e2]."""

    @pytest.mark.parametrize("drift", [0.0, 1e-4, 0.7])
    @pytest.mark.parametrize("rel", CLOCKED)
    def test_matches_dop853(self, rel, drift):
        rng = np.random.default_rng(20261019)
        xs, dts = 10.0 ** rng.uniform(-12, 8, 24), 10.0 ** rng.uniform(-6, 2, 24)
        ref = np.array([_dop853_flow(rel, x, t, drift) for x, t in zip(xs, dts)])
        assert (np.abs(rel.flow(xs, dts, drift) - ref) <= 1e-10 * np.maximum(1.0, ref)).all()

    @pytest.mark.parametrize("drift", [0.0, 1e-4, 0.7])
    @pytest.mark.parametrize("rel", CLOCKED)
    def test_semigroup(self, rel, drift):
        rng = np.random.default_rng(7)
        xs = 10.0 ** rng.uniform(-12, 8, 200)
        s, t = 10.0 ** rng.uniform(-6, 2, (2, 200))
        one = rel.flow(xs, s + t, drift)
        two = rel.flow(rel.flow(xs, s, drift), t, drift)
        assert (np.abs(two - one) <= 1e-10 * np.maximum(1.0, one)).all()

    @pytest.mark.parametrize("rel", CLOCKED)
    def test_zero_time_is_identity(self, rel):
        # at the drifts where the family has no closed form of old
        xs = np.array([-1.0, 0.0, 1e-12, 0.3, 7.0, 1e8])
        drifts = ((rel.m, 0.7) if isinstance(rel, Plateau) else
                  (0.0, 1e-4, 0.7) if isinstance(rel, Custom) else (1e-4, 0.7))
        for drift in drifts:
            assert rel.flow(xs, 0.0, drift).tolist() == np.maximum(xs, 0.0).tolist()

    def test_unstable_equilibrium_of_decreasing_rate(self):
        # r(x) = x^-0.5 crosses drift 0.7 at x* = 1/0.49: a lane there
        # stays, up to its rounding, which grows by e^(t r'(x*)) = e^0.86;
        # one below empties, one above grows without bound
        rel, eq = Power(1.0, -0.5), 1.0 / 0.49
        assert rel.flow(eq, 5.0, 0.7) == pytest.approx(eq, rel=1e-14)
        at = rel.flow(np.array([0.999 * eq, 1.001 * eq]), 50.0, 0.7)
        assert at[0] == 0.0 and at[1] > 2.0 * eq
        assert at[1] == pytest.approx(_dop853_flow(rel, 1.001 * eq, 50.0, 0.7), rel=1e-10)

    def test_lanes_in_basins_apart(self):
        # r = 1.2 at 0.13, 0.98, 2.09, ...: one call with lanes in the first
        # and the third basin, none in the second
        rel = Custom(lambda u: 1.0 + 0.5 * math.sin(3.0 * u) + 0.1 * u,
                     RateAsymptotics("power", 1.0, 0.1))
        xs = np.array([0.05, 1.5])
        ref = [_dop853_flow(rel, x, 0.5, 1.2) for x in xs]
        assert rel.flow(xs, 0.5, 1.2) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_overflowing_custom_rate_is_infinite(self):
        # math.exp overflows past u = 709.8; its OverflowError reads as r =
        # inf, an end the clock's tables cut.  References: DOP853 at rtol
        # 1e-13 for the flow, int_1^inf du / (e^u - 1) = -log(1 - 1/e)
        rel = Custom(lambda u: math.exp(u) - 1.0, RateAsymptotics("power", 1.0, 1.0))
        assert rel.rate(1e3) == math.inf
        assert rel.flow(2.0, 1.0, 0.5) == pytest.approx(0.6012781693542033, abs=1e-12)
        assert rel.drain_time(1.0, math.inf) == pytest.approx(
            -math.log1p(-math.exp(-1.0)), rel=1e-13)
        assert modulus_R(rel, 1.0) == pytest.approx(1.0 - math.e)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_custom_rate_nan_or_negative_infinite_refused(self, bad):
        # the clock tabulates r above 2 too, where it is not a rate
        rel = Custom(lambda u: bad if u > 2.0 else u, RateAsymptotics("power", 1.0, 1.0))
        with pytest.raises(NonFiniteEvaluation):
            rel.flow(1.0, 1.0)

    def test_table_is_built_once_per_drift(self):
        calls = []

        def fn(u):
            calls.append(u)
            return u * u

        rel = Custom(fn, RateAsymptotics("power", 2.0, 1.0))
        first = rel.flow(np.array([0.5, 3.0]), 1.0, 0.7)
        assert calls
        calls.clear()
        assert rel.flow(np.array([0.5, 3.0]), 1.0, 0.7).tolist() == first.tolist()
        assert not calls
        rel.flow(0.5, 1.0, 0.25)  # another drift, another table
        assert calls


def _power_twin(beta):
    """Power(1, beta) as a Custom rate, read through the drain clock."""
    return Custom(lambda u: u ** beta if u > 0.0 else 0.0,
                  RateAsymptotics("power", beta, 1.0))


def _assert_quadrature_ends(twin):
    """Divergent at 0 and at inf from the clock where the quadrature of 1/r
    raises it, a finite drain time where not; (finite at 0, finite at inf).
    The clock follows the quadrature outside the log band only: an end with
    a factor log^p, 1 < p < about 1.25, decays too slowly over blocks dyadic
    in x for the quadrature, which calls it divergent, while the clock's
    march in log x sums it."""
    inv = lambda v: 1.0 / twin.rate(v)
    finite = []
    for clock, quad in (
            (lambda: twin.drain_time(0.0, 1.0),
             lambda: integrate_semiinfinite(
                 lambda v: np.where(v <= 1.0, inv(np.minimum(v, 1.0)), 0.0))),
            (lambda: twin.drain_time(1.0, math.inf),
             lambda: integrate_semiinfinite(inv, lower=1.0))):
        try:
            quad()
        except Divergent:
            with pytest.raises(Divergent):
                clock()
            finite.append(False)
        else:
            assert math.isfinite(clock())
            finite.append(True)
    return tuple(finite)


# levels away from 1, where G's relative precision is not at stake
LEVELS = np.array([1e-6, 1e-3, 0.1, 0.5, 2.0, 10.0, 1e3, 1e6, 1e12])


class TestClockTwins:
    """The drain clock's G against the closed forms it replaces: Custom
    twins of Power, and PowerSmoothed's own clock (its knee is a knot)."""

    @pytest.mark.parametrize("beta", [-0.5, 0.5, 2.0])
    def test_custom_matches_power(self, beta):
        twin, closed = _power_twin(beta), Power(1.0, beta)
        lo, hi = LEVELS, 3.0 * LEVELS
        assert twin.drain_time(lo, hi) == pytest.approx(closed.drain_time(lo, hi), rel=1e-12)
        assert signed_drain_time(twin, LEVELS) == pytest.approx(
            signed_drain_time(closed, LEVELS), rel=1e-12)
        assert twin.drain_time(2.0, 5.0) == pytest.approx(closed.drain_time(2.0, 5.0), rel=1e-12)
        assert twin.drain_time(7.0, 7.0) == 0.0

    def test_clock_matches_power_smoothed(self):
        rel = PowerSmoothed(1.0, 0.5)
        lo, hi = LEVELS, 3.0 * LEVELS
        assert ReleaseRate.drain_time(rel, lo, hi) == pytest.approx(
            rel.drain_time(lo, hi), rel=1e-12)
        g = np.copysign(ReleaseRate.drain_time(rel, np.minimum(LEVELS, 1.0),
                                               np.maximum(LEVELS, 1.0)), LEVELS - 1.0)
        assert g == pytest.approx(signed_drain_time(rel, LEVELS), rel=1e-12)

    @pytest.mark.parametrize("beta", [-0.5, 0.5, 0.99, 0.998, 1.0, 1.002, 1.01, 2.0])
    def test_divergent_at_the_quadratures_ends(self, beta):
        # 1/r ~ u^-beta: the clock raises Divergent at 0 and at inf exactly
        # where the quadrature does, also within the quadrature's boundary
        # band around beta = 1
        _assert_quadrature_ends(_power_twin(beta))

    @pytest.mark.parametrize("fn", [
        lambda u: u * math.log(math.e + u),         # diverges at 0 and inf
        lambda u: u * math.log(math.e + u) ** 1.003,  # and so does this one
        lambda u: u * math.log(math.e + u) ** 2,    # converges at inf
        lambda u: u * math.log1p(1.0 / u) if u > 0.0 else 0.0,       # diverges
        lambda u: u * math.log1p(1.0 / u) ** 1.003 if u > 0.0 else 0.0,
        lambda u: u * math.log1p(1.0 / u) ** 2 if u > 0.0 else 0.0,  # converges at 0
    ], ids=["u-log-e+u", "u-log1.003-e+u", "u-log2-e+u", "u-log-1+1/u",
            "u-log1.003-1+1/u", "u-log2-1+1/u"])
    def test_log_ends_follow_the_quadrature(self, fn):
        # an end with a log factor is no power: its exponent at the table's
        # outermost knot (u log u: -1/ln 1e30) lies on the convergent side
        # of the boundary while the integral diverges.  The clock's march
        # in log x judges it; outside the log band 1 < p < about 1.25 its
        # verdict, and so the regime, is the quadrature's.  log^1.003 lies
        # within the march's own band around p = 1, so it diverges for both
        twin = Custom(fn, RateAsymptotics("power", 1.0, 1.0))
        at_0, at_inf = _assert_quadrature_ends(twin)
        levy = CompoundPoisson(1.0, Exponential(1.0))
        assert classify(levy, twin).uniform == at_inf
        assert check_regularity(twin, "finite").cbar2 == at_0

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_pure_power_end_keeps_its_extrapolation(self, beta):
        twin, closed = _power_twin(beta), Power(1.0, beta)
        assert twin.drain_time(LEVELS, math.inf) == pytest.approx(
            closed.drain_time(LEVELS, math.inf), rel=1e-12)

    def test_log_ends_read_the_march_past_the_last_knot(self):
        # past 1e30 (and below 1e-16) dT/dw of a log-factor end is a power
        # of w, not exp(a w): G reads the march there, not the end's slope
        declared = RateAsymptotics("power", 1.0, 1.0)
        closed = Custom(lambda u: (math.e + u) * math.log(math.e + u) ** 2, declared)
        assert closed.drain_time(1.0, math.inf) == pytest.approx(
            1.0 / math.log(1.0 + math.e), rel=1e-8)
        # the same integrals in s = +-log u, where both ends are powers of s
        at_inf = Custom(lambda u: u * math.log(math.e + u) ** 2, declared)
        ref = integrate_semiinfinite(lambda s: (s + np.log1p(np.exp(1.0 - s))) ** -2.0)
        assert at_inf.drain_time(1.0, math.inf) == pytest.approx(ref.value, rel=1e-8)
        at_0 = Custom(lambda u: u * math.log1p(1.0 / u) ** 2 if u > 0.0 else 0.0,
                      declared)
        ref = integrate_semiinfinite(lambda s: (s + np.log1p(np.exp(-s))) ** -2.0)
        assert at_0.drain_time(0.0, 1.0) == pytest.approx(ref.value, rel=1e-8)

    @pytest.mark.parametrize("p", [1.05, 1.2])
    def test_log_band_ends_converge(self, p):
        # 1/r is ds / s^p in s = +-log u, finite for p > 1; over blocks
        # dyadic in x it decays too slowly for the quadrature, which raises
        # Divergent, while the clock's march in s sums it
        declared = RateAsymptotics("power", 1.0, 1.0)
        at_inf = Custom(lambda u: u * math.log(math.e + u) ** p, declared)
        ref = integrate_semiinfinite(lambda s: (s + np.log1p(np.exp(1.0 - s))) ** -p)
        assert at_inf.drain_time(1.0, math.inf) == pytest.approx(ref.value, rel=1e-8)
        at_0 = Custom(lambda u: u * math.log1p(1.0 / u) ** p if u > 0.0 else 0.0,
                      declared)
        ref = integrate_semiinfinite(lambda s: (s + np.log1p(np.exp(-s))) ** -p)
        assert at_0.drain_time(0.0, 1.0) == pytest.approx(ref.value, rel=1e-8)
        assert classify(CompoundPoisson(1.0, Exponential(1.0)), at_inf).uniform
        assert check_regularity(at_0, "finite").cbar2

    def test_pure_power_end_reads_no_level_past_the_table(self):
        # the limit of the end's continuation needs no march; a march of
        # 1/r over blocks dyadic in x read r up to 2.7e126 here
        seen = []

        def fn(u):
            seen.append(u)
            return u ** 1.01 if u > 0.0 else 0.0

        twin = Custom(fn, RateAsymptotics("power", 1.01, 1.0))
        assert twin.drain_time(1.0, math.inf) == pytest.approx(100.0, rel=1e-10)
        assert max(seen) <= 1.1e30

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_each_end_is_answered_once(self, p):
        # the first read of the end marches past the table; a second read,
        # from another level, neither marches nor reads r, be it Divergent
        seen = []

        def fn(u):
            seen.append(u)
            return u * math.log(math.e + u) ** p

        twin = Custom(fn, RateAsymptotics("power", 1.0, 1.0))
        reads, answers = [], []
        for lo in (1.0, 5.0):
            seen.clear()
            try:
                answers.append(twin.drain_time(lo, math.inf))
            except Divergent:
                answers.append(None)
            reads.append(list(seen))
        assert max(reads[0]) > 1e30 and not reads[1]
        assert (answers[0] is None) == (p == 1.0)

    @pytest.mark.parametrize("beta", [-0.5, 0.5, 2.0])
    def test_same_regime(self, beta):
        twin, closed = _power_twin(beta), Power(1.0, beta)
        levy = CompoundPoisson(1.0, Exponential(1.0))
        assert classify(levy, twin).uniform == classify(levy, closed).uniform
        for activity in ("finite", "infinite"):
            a, b = check_regularity(twin, activity), check_regularity(closed, activity)
            assert (a.applicable_regime, a.cbar2) == (b.applicable_regime, b.cbar2)

    def test_divergent_across_an_equilibrium(self):
        # r = 0.7 at u = 0.49; drift 0.7 puts an equilibrium there
        clock = _power_twin(0.5)._clock(0.7)
        eq = float(clock.roots[0])
        assert eq == pytest.approx(0.49, rel=1e-15)
        # int dv / (v^0.5 - 0.7) = 2 (s + 0.7 ln(0.7 - s)), s = v^0.5 < 0.7
        g = lambda s: 2.0 * (s + 0.7 * math.log(0.7 - s))
        assert clock.drain_time(0.1, 0.4) == pytest.approx(
            g(math.sqrt(0.4)) - g(math.sqrt(0.1)), rel=1e-12)
        for lo, hi in ((0.1, 1.0), (eq, 1.0), (0.1, eq)):
            with pytest.raises(Divergent):
                clock.drain_time(lo, hi)
