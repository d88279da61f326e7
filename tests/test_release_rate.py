"""Release-rate family checks: values, flows, drain times, regularity."""

import math

import numpy as np
import pytest

from storagelab.errors import Divergent
from storagelab.numerics import _rk_flow
from storagelab.release_rate import (
    Affine,
    Constant,
    Custom,
    Plateau,
    Power,
    PowerSmoothed,
    RateAsymptotics,
    check_regularity,
    modulus_R,
)

FAMILIES = [
    Constant(2.0),
    Affine(0.0, 1.0),
    Affine(1.0, 2.0),
    Power(1.0, 2.0),
    PowerSmoothed(1.0, 0.5),
    Plateau(1.0, 1.0),
]


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
        # closed forms against the generic integrator
        for x0, dt in ((6.0, 0.7), (0.5, 2.5)):
            closed = r.flow(x0, dt)
            rk = _rk_flow(r.rate, x0, dt, 0.0)
            assert closed == pytest.approx(rk, abs=2e-6)

    def test_drift_equilibrium_affine(self):
        # x' = 0.5 - x saturates at 0.5
        x = Affine(0.0, 1.0).flow(5.0, 60.0, drift=0.5)
        assert x == pytest.approx(0.5, abs=1e-9)

    def test_drift_power_rk_fallback(self):
        # no closed form with drift: equilibrium at drift^(1/beta)
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
        assert not rep.applicable

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
