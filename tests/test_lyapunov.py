"""Drift-certificate machinery: generator, certificates, envelopes, bounds."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from storagelab import lyapunov
from storagelab.classifier import (
    DEFAULT_PROBE_GRID,
    classify,
    criterion_positive_recurrent,
    drain_time_from_infinity,
    limit_estimate,
)
from storagelab.errors import (
    C3Violation,
    Divergent,
    HypothesisFailed,
    InvalidModulus,
    InvalidRateFunction,
)
from storagelab.levy_input import (
    CompoundPoisson,
    DeterministicJumps,
    Exponential,
    GammaSub,
    LevyInput,
    ParetoJumps,
    StableSub,
    TemperedStableSub,
)
from storagelab.lyapunov import (
    CustomModulus,
    GapBound,
    PowerModulus,
    RateFunction,
    build_certificate,
    check_irreducibility_sufficient,
    check_wasserstein_contraction,
    default_h_exponent,
    generator_apply,
    tail_lower,
    tail_lower_log,
    tail_upper,
    tail_upper_exponential,
    tv_lower_rate,
)
from storagelab.numerics import fit_loglog
from storagelab.presets import load_preset, preset_names
from storagelab.release_rate import (
    Affine,
    Constant,
    Custom,
    Power,
    PowerSmoothed,
    RateAsymptotics,
    signed_drain_time,
)

MM1 = (CompoundPoisson(1.0, Exponential(1.0)), Constant(2.0))
POWER_SHARP = (CompoundPoisson(1.0, ParetoJumps(1.0)), PowerSmoothed(1.0, 0.5))
SHARP_CONST = (CompoundPoisson(0.5, ParetoJumps(1.5)), Constant(2.0))
# the drift ratio diverges at u = 1e5 and 1e6 while (C3) stays finite there
RATIO_DIVERGES = (CompoundPoisson(1.0, DeterministicJumps(1.0)), Power(1.0, -0.5),
                  RateFunction.linear(2.5))
# the levels a tail envelope's log-log slope is fitted on
ENVELOPE_U = np.geomspace(10.0, 1e5, 40)


class TestRateFunction:
    def test_clock_closed_forms(self):
        lin = RateFunction.linear(0.5)
        assert lin.log_clock_inv(4.0) == pytest.approx(2.0)
        pw = RateFunction.power(0.5)
        assert pw.log_clock_inv(2.0) == pytest.approx(math.log(4.0))
        one = RateFunction.constant1()
        assert one.log_clock_inv(4.0) == pytest.approx(math.log(5.0))
        # each closed family is phi = c t^a with the (c, a) it computes with
        assert (lin.c, lin.a) == (0.5, 1.0)
        assert (pw.c, pw.a) == (1.0, 0.5)
        assert (one.c, one.a) == (1.0, 0.0)

    def test_custom_matches_closed(self):
        # a custom phi reads the drain clock of x' = phi(x), the closed power
        # law the power flow; in log space they agree also where Phi^{-1}
        # leaves the float range (linear 2 at s = 600)
        s = np.array([0.1, 1.0, 3.0, 50.0, 600.0])
        for fn, closed in ((lambda t: 1.0, RateFunction.constant1()),
                           (lambda t: 0.2 * t, RateFunction.linear(0.2)),
                           (lambda t: 0.5 * t, RateFunction.linear(0.5)),
                           (lambda t: 2.0 * t, RateFunction.linear(2.0)),
                           (lambda t: t ** 0.1, RateFunction.power(0.1)),
                           (lambda t: t ** 0.45, RateFunction.power(0.45)),
                           (lambda t: t ** 0.9, RateFunction.power(0.9))):
            cust = RateFunction.custom(fn)
            for si in s:
                assert cust.log_clock_inv(si) == pytest.approx(
                    closed.log_clock_inv(si), rel=1e-12)
            assert cust.log_rate_at_clock(s) == pytest.approx(
                closed.log_rate_at_clock(s), rel=1e-12)
            assert cust.log_clock_inv(0.0) == 0.0

    @pytest.mark.parametrize("c", [0.2, 0.3, 0.5, 0.7, 1.3, 2.0])
    def test_custom_linear_keeps_its_digits_across_the_table(self, c):
        # log Phi^{-1}(w / c) = w for phi = c t: the drain clock's T table
        # sums ~1700 intervals, and its running sum is compensated
        w = np.linspace(1.0, 700.0, 1999)
        cust = RateFunction.custom(lambda t: c * t)
        assert np.abs(cust.log_clock_inv(w / c) - w).max() <= 1e-12
        assert max(abs(cust.log_clock_inv(wi / c) - wi) for wi in w[::37]) <= 1e-12

    def test_custom_log_clock_inv_is_finite_deep_into_geometric_growth(self):
        # Phi^{-1}(2000) = e^1000 leaves the float range; its log does not
        cust = RateFunction.custom(lambda t: 0.5 * t)
        assert cust.log_clock_inv(2000.0) == pytest.approx(1000.0, rel=1e-9)
        assert cust.log_clock_inv(0.0) == 0.0

    @pytest.mark.parametrize("phi", [
        RateFunction.constant1(), RateFunction.linear(0.5),
        RateFunction.power(0.5), RateFunction.custom(lambda t: 0.5 * t),
    ], ids=lambda p: p.family)
    def test_clock_values_below_zero_are_refused(self, phi):
        # Phi^{-1} is defined on s >= 0, closed and custom phi alike
        for s in (-0.5, np.array([1.0, -1e-12])):
            for read in (phi.log_clock_inv, phi.log_rate_at_clock):
                with pytest.raises(ValueError, match="non-negative"):
                    read(s)

    def test_tv_exponent(self):
        # the certificate's promised TV exponent -a/(1-a) of its phi
        def cert(phi, margin=0.5):
            return lyapunov.DriftCertificate(*MM1, phi, (1.0,), (1.0 - margin,),
                                             margin)

        assert cert(RateFunction.power(0.45)).tv_exponent == -0.45 / (1.0 - 0.45)
        assert cert(RateFunction.linear(0.5)).tv_exponent == -math.inf
        flat = cert(RateFunction.constant1()).tv_exponent
        assert flat == 0.0 and math.copysign(1.0, flat) == 1.0
        assert cert(RateFunction.custom(lambda t: 0.5 * t)).tv_exponent is None
        assert cert(RateFunction.power(0.45), margin=-0.1).tv_exponent is None

    def test_invalid_rejected(self):
        with pytest.raises(InvalidRateFunction):
            RateFunction.linear(-1.0)
        with pytest.raises(InvalidRateFunction):
            RateFunction.power(1.5)
        with pytest.raises(InvalidRateFunction):
            RateFunction.custom(lambda t: t * t)  # convex, not concave
        for bad in (math.nan, math.inf):  # not finite on the check grid
            with pytest.raises(InvalidRateFunction):
                RateFunction.custom(lambda t, bad=bad: bad if t > 5.0 else t)

    def test_log_rate_at_clock(self):
        lin = RateFunction.linear(0.5)
        assert lin.log_rate_at_clock(3.0) == pytest.approx(math.log(0.5) + 1.5)
        pw = RateFunction.power(0.5)
        assert pw.log_rate_at_clock(2.0) == pytest.approx(math.log(4.0) / 2.0)


class TestGenerator:
    def test_identity_function_mean_drift(self):
        levy, rel = MM1
        val = generator_apply(levy, rel, lambda u: u, 3.0, lambda u: 1.0)
        assert val == pytest.approx(-1.0, rel=1e-8)

    def test_constants_harmonic(self):
        levy, rel = MM1
        val = generator_apply(levy, rel, lambda u: 1.0, 2.0, lambda u: 0.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_linear_release(self):
        # L u^2 at u=1 with r(u)=u, exp(1) jumps: -2 + 2(1+1) = 2
        levy = CompoundPoisson(1.0, Exponential(1.0))
        rel = Affine(0.0, 1.0)
        val = generator_apply(levy, rel, lambda u: u * u, 1.0, lambda u: 2.0 * u)
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_fubini_direct_agree(self):
        levy = CompoundPoisson(1.0, Exponential(1.0))
        rel = Affine(0.0, 1.0)
        for u in (0.5, 1.0, 5.0):
            fub = generator_apply(levy, rel, lambda w: w * w, u, lambda w: 2 * w,
                                  form="fubini")
            dire = generator_apply(levy, rel, lambda w: w * w, u, lambda w: 2 * w,
                                   form="direct")
            assert fub == pytest.approx(dire, rel=1e-6)

    def test_numeric_derivative_fallback(self):
        levy, rel = MM1
        val = generator_apply(levy, rel, lambda u: u, 3.0)
        assert val == pytest.approx(-1.0, rel=1e-5)

    def test_divergent_jump_integral(self):
        # u^{1.2} against a Pareto(1) tail: the jump integral blows up
        from storagelab.errors import Divergent
        levy, rel = POWER_SHARP
        with pytest.raises(Divergent):
            generator_apply(levy, rel, lambda u: u ** 1.2, 5.0,
                            lambda u: 1.2 * u ** 0.2)


class TestCertificate:
    def test_mm1_geometric_margin(self):
        # ratio is int e^{cv/a} nu_bar(v) dv / a = (4/3)/2 for c=0.5, a=2
        levy, rel = MM1
        cert = build_certificate(levy, rel, RateFunction.linear(0.5))
        assert cert.drift_margin == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert cert.valid
        for r in cert.ratios:
            assert r == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_mm1_subgeometric_valid(self):
        levy, rel = MM1
        cert = build_certificate(levy, rel, RateFunction.power(0.5))
        assert cert.valid
        # predicted polynomial rate t^{a/(1-a)} = t
        t = 50.0
        assert cert.log_predicted_tv_rate(t) == pytest.approx(
            0.5 / 0.5 * math.log(1.0 + 0.5 * t) / 1.0, rel=1e-9)

    def test_too_greedy_phi_invalid(self):
        # c/a > mu makes int e^{cv/a} nu_bar(v) dv diverge: C3 violation
        levy, rel = MM1
        with pytest.raises(C3Violation):
            build_certificate(levy, rel, RateFunction.linear(2.5))

    def test_boundary_phi_exponent_violates_c3(self):
        # at a = (alpha-1)/alpha the profile moment int Vbar(u+v) nu(dv)
        # is exactly log-divergent; the certificate must refuse it
        levy, rel = SHARP_CONST
        with pytest.raises(C3Violation):
            build_certificate(levy, rel, RateFunction.power(1.0 / 3.0))

    def test_linear_release_power_input(self):
        levy = CompoundPoisson(1.0, ParetoJumps(2.0))
        rel = Affine(0.0, 1.0)
        cert = build_certificate(levy, rel, RateFunction.power(0.5))
        assert cert.valid
        assert cert.ratios[-1] < 0.05

    def test_linear_release_geometric_any_speed(self):
        # with light jumps a linear drain supports geometric certificates
        # both below and above the drain slope (the ratio vanishes)
        levy = CompoundPoisson(1.0, Exponential(1.0))
        rel = Affine(0.0, 1.0)
        for c in (0.5, 2.0):
            cert = build_certificate(levy, rel, RateFunction.linear(c))
            assert cert.valid, c
            assert cert.ratios[-1] < 0.05, c

    def test_superlinear_release_bounded_profile(self):
        # int_1^inf du/r < inf makes the profile bounded, so the ratio decays
        # like the ergodicity criterion itself: geometric for free
        levy = CompoundPoisson(1.0, ParetoJumps(1.0))
        rel = Power(1.0, 2.0)
        cert = build_certificate(levy, rel, RateFunction.linear(1.0))
        assert cert.valid
        assert cert.ratios[-1] < 1e-3
        # profile tends to a finite ceiling
        assert cert.log_profile(1e6) < cert.log_profile(10.0) + math.log(1.5)

    def test_constant1_matches_pos_rec_criterion(self):
        levy, rel = MM1
        cert = build_certificate(levy, rel, RateFunction.constant1())
        crit = criterion_positive_recurrent(levy, rel)
        for r, v in zip(cert.ratios, crit.probe_values):
            assert r == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("pair,phi", [
        (MM1, RateFunction.linear(0.5)),
        (MM1, RateFunction.power(0.5)),
        (SHARP_CONST, RateFunction.power(0.3)),
        (POWER_SHARP, RateFunction.power(0.45)),
    ], ids=["mm1-geo", "mm1-poly", "sharp-const", "power-sharp"])
    def test_profile_ode_identity(self, pair, phi):
        # d log Vbar / du * r(u) must equal phi(Vbar)/Vbar along the grid
        levy, rel = pair
        cert = build_certificate(levy, rel, phi)
        assert cert.valid
        for u in np.geomspace(1.5, 1e6, 20):
            h = 1e-5 * u
            dlog = (cert.log_profile(u + h) - cert.log_profile(u - h)) / (2 * h)
            lhs = dlog * float(rel.rate(u))
            rhs = math.exp(cert.log_phi_profile(u) - cert.log_profile(u))
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_profile_extension_below_one(self):
        levy, rel = MM1
        cert = build_certificate(levy, rel, RateFunction.linear(0.5))
        # the continuation below 1 is C^1 at 1, and the profile stays >= 1
        h = 1e-7
        left = (cert.log_profile(1.0) - cert.log_profile(1.0 - h)) / h
        right = (cert.log_profile(1.0 + h) - cert.log_profile(1.0)) / h
        assert left == pytest.approx(right, rel=1e-4)
        for u in (1e-9, 0.3, 0.9):
            assert cert.log_profile(u) >= 0.0

    @pytest.mark.parametrize("rel", [PowerSmoothed(1.0, 0.5), Affine(0.0, 1.0),
                                     Power(1.0, 2.0)], ids=repr)
    @pytest.mark.parametrize("phi", [
        RateFunction.constant1(), RateFunction.linear(0.5),
        RateFunction.power(0.45)], ids=lambda p: p.family)
    def test_profile_is_one_below_the_clock_origin(self, rel, phi):
        # where G(u) + 1 < 0 the profile reads its clock's origin, Vbar = 1,
        # for a closed phi and its custom twin alike; elsewhere it is the
        # continuation Phi^{-1}(G(u) + 1), bit for bit
        twin = RateFunction.custom(lambda t: phi.c * t ** phi.a)
        u = np.geomspace(1e-9, 1e6, 61)
        clock = signed_drain_time(rel, u) + 1.0
        below = clock < 0.0
        assert below.any() and not below.all()
        cert, cust = (lyapunov.DriftCertificate(MM1[0], rel, p, (1.0,), (0.5,), 0.5)
                      for p in (phi, twin))
        assert cert.log_phi_profile(u[below]) == pytest.approx(
            cust.log_phi_profile(u[below]), rel=1e-12, abs=1e-15)
        assert (cert.log_phi_profile(u[below]) == math.log(phi.c)).all()
        assert all(cert.log_profile(ui) == 0.0 for ui in u[below])
        assert (cert.log_phi_profile(u[~below])
                == phi.log_rate_at_clock(clock[~below])).all()
        assert all(cert.log_profile(ui) == phi.log_clock_inv(ci)
                   for ui, ci in zip(u[~below], clock[~below]))

    def test_probes_below_the_clock_origin_have_no_drift(self):
        # G(u) + 1 < 0 below u = 1/e for r(u) = u: Vbar is flat there, so
        # -r Vbar' = 0 gives no negative drift and the ratio is +inf, not
        # int Vbar'(u + v) nu_bar(v) dv over phi(1), which read valid
        levy, rel = CompoundPoisson(0.2, Exponential(1.0)), Affine(0.0, 1.0)
        phi = RateFunction.linear(0.5)
        cert = build_certificate(levy, rel, phi, (0.01, 0.05, 0.1))
        assert cert.ratios == (math.inf,) * 3 and not cert.valid
        with pytest.raises(ValueError, match="non-negative"):
            lyapunov._drift_ratio(levy, rel, phi, 0.01)
        # a probe just above the origin has its drift ratio
        assert math.isfinite(build_certificate(levy, rel, phi, (0.5,)).ratios[0])

    @pytest.mark.parametrize("phi", [
        RateFunction.constant1(), RateFunction.linear(0.5),
        RateFunction.power(0.5),
    ], ids=lambda p: p.family)
    def test_profile_anchor_above_one(self, phi):
        # Vbar(1) = Phi^{-1}(1) > 1 for every admissible rate function
        levy, rel = MM1
        cert = build_certificate(levy, rel, phi)
        assert cert.log_profile(1.0) == pytest.approx(phi.log_clock_inv(1.0),
                                                      rel=1e-12)
        assert cert.log_profile(1.0) > 0.0

    def test_tail_envelope_definitional_identity(self):
        levy, rel = MM1
        cert = build_certificate(levy, rel, RateFunction.power(0.5))
        for u in (2.0, 10.0, 100.0):
            direct = 1.0 / max(cert.predicted_tv_rate(u),
                               math.exp(cert.log_phi_profile(u)))
            assert cert.predicted_tail_upper(u) == pytest.approx(direct, rel=1e-12)


def _two_pass_certificate(levy, release, phi, probe_grid):
    """Reference: (C3) over [1, inf) at every probe, then every ratio."""
    for u in probe_grid:
        try:
            lyapunov._c3_jump_integral(levy, release, phi, u)
        except Divergent as exc:
            raise C3Violation(
                f"profile jump integral diverges at probe u = {u}") from exc
    ratios = []
    for u in probe_grid:
        try:
            ratios.append(lyapunov._drift_ratio(levy, release, phi, u))
        except Divergent:
            ratios.append(math.inf)
    return tuple(ratios), 1.0 - limit_estimate(ratios, "limsup")


def _phi_preset_cases():
    cases = {}
    for name in preset_names():
        scen = load_preset(name)
        if scen.phi is not None:
            cases[name] = (scen.levy, scen.release, scen.phi,
                           tuple(scen.grids["probe_u"]))
    return cases


_ONE_PASS_CASES = _phi_preset_cases() | {
    "mm1-c3": (*MM1, RateFunction.linear(2.5), DEFAULT_PROBE_GRID),
    "sharp-const-c3": (*SHARP_CONST, RateFunction.power(1.0 / 3.0),
                       DEFAULT_PROBE_GRID),
    "mm1-invalid": (*MM1, RateFunction.linear(1.5), DEFAULT_PROBE_GRID),
    "ratio-diverges": (*RATIO_DIVERGES, DEFAULT_PROBE_GRID),
}


class TestOnePassCertificate:
    def test_seven_presets_have_a_phi(self):
        assert len(_phi_preset_cases()) == 7

    @pytest.mark.parametrize("case", sorted(_ONE_PASS_CASES))
    def test_matches_two_pass_reference(self, case):
        levy, rel, phi, grid = _ONE_PASS_CASES[case]
        try:
            want = _two_pass_certificate(levy, rel, phi, grid)
        except Exception as exc:
            with pytest.raises(Exception) as got:
                build_certificate(levy, rel, phi, grid)
            assert (got.type, str(got.value)) == (type(exc), str(exc))
            return
        cert = build_certificate(levy, rel, phi, grid)
        assert (cert.ratios, cert.drift_margin) == want

    @staticmethod
    def _count_c3_calls(monkeypatch):
        calls = []
        real = lyapunov._c3_jump_integral

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(lyapunov, "_c3_jump_integral", counted)
        return calls

    def test_no_c3_integral_when_every_ratio_is_finite(self, monkeypatch):
        calls = self._count_c3_calls(monkeypatch)
        assert build_certificate(*MM1, RateFunction.linear(0.5)).valid
        assert calls == []

    def test_c3_integral_only_where_the_ratio_diverged(self, monkeypatch):
        calls = self._count_c3_calls(monkeypatch)
        cert = build_certificate(*RATIO_DIVERGES)
        assert calls == [1e5, 1e6]
        assert cert.ratios[-2:] == (math.inf, math.inf)
        assert all(math.isfinite(r) for r in cert.ratios[:-2])
        assert cert.drift_margin == -math.inf and not cert.valid

    def test_c3_violation_still_raised(self, monkeypatch):
        calls = self._count_c3_calls(monkeypatch)
        with pytest.raises(C3Violation):
            build_certificate(*MM1, RateFunction.linear(2.5))
        assert len(calls) >= 1


def _quad_in_log(f):
    """int_0^inf f(v) dv by scipy.integrate.quad at epsrel 1e-13 in v = e^t,
    over unit panels of t marching out from t = 0 both ways until three
    panels in a row add less than 1e-17 of the sum.  A panel edge sits at
    v = 1, the Pareto laws' kink."""
    from scipy.integrate import quad

    def g(t):
        return float(f(np.array([math.exp(t)]))[0]) * math.exp(t)

    total = 0.0
    for t, step in ((0.0, 1.0), (-1.0, -1.0)):
        small = 0
        while small < 3 and -740.0 < t < 700.0:
            part = quad(g, t, t + 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            total += part
            small = small + 1 if abs(part) <= 1e-17 * abs(total) else 0
            t += step
    return total


class TestRatiosAgainstQuad:
    # power-sharp-fast's ratios at u >= 1e3 read 3.3e-9 off whatever stops
    # the march: the Pareto(1.5) kink at v = 1 lies inside a head block,
    # whose adaptive refinement stops with its error estimate ten times
    # below its miss
    BOUND = {"power-sharp-fast": 5e-9}

    @pytest.mark.parametrize("name", sorted(_phi_preset_cases()))
    def test_ratios_match_quad(self, name):
        levy, rel, phi, grid = _phi_preset_cases()[name]
        probes = sorted(set(grid) | {1e6})
        cert = build_certificate(levy, rel, phi, probes)
        for u, got in zip(probes, cert.ratios):
            want = _quad_in_log(lyapunov._ratio_integrand(levy, rel, phi, u))
            assert got == pytest.approx(want, rel=self.BOUND.get(name, 1e-9)), u


class _Counted:
    """A user callable that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


class TestUserCallableCertificate:
    """A custom phi and a Custom release read drain clocks: the certificate
    matches its closed twin and calls user code a bounded number of times
    (quadrature per node used to take 30.7 M and 7.4 M calls here)."""

    def _pair(self, closed, custom):
        want = build_certificate(*closed)
        cert = build_certificate(*custom)
        assert cert.ratios == pytest.approx(want.ratios, rel=1e-12)
        assert cert.drift_margin == pytest.approx(want.drift_margin, rel=1e-12)

    def test_custom_phi(self):
        levy, rel = CompoundPoisson(2.0, Exponential(1.0)), Affine(0.0, 1.0)
        phi = _Counted(lambda t: 0.5 * t)
        self._pair((levy, rel, RateFunction.linear(0.5)),
                   (levy, rel, RateFunction.custom(phi)))
        assert phi.calls <= 100_000

    def test_custom_phi_past_the_floats(self):
        # Phi^{-1}(s) = e^(s/2) leaves the floats at s ~ 1420, inside the
        # ratio integral at probe u = 100: log phi is read in log space.  A
        # greedier phi still violates (C3), as its closed twin does
        levy, rel = MM1
        self._pair((levy, rel, RateFunction.linear(0.5)),
                   (levy, rel, RateFunction.custom(lambda t: 0.5 * t)))
        with pytest.raises(C3Violation):
            build_certificate(levy, rel, RateFunction.custom(lambda t: 2.5 * t))

    def test_custom_release(self):
        levy, phi = CompoundPoisson(1.0, ParetoJumps(1.5)), RateFunction.power(0.45)
        r = _Counted(lambda u: u ** 0.5)
        self._pair((levy, Power(1.0, 0.5), phi),
                   (levy, Custom(r, RateAsymptotics("power", 0.5, 1.0)), phi))
        assert r.calls <= 100_000


class TestUniform:
    def test_superlinear_uniform(self):
        levy = CompoundPoisson(1.0, ParetoJumps(1.0))
        rel = Power(1.0, 2.0)
        assert classify(levy, rel).uniform
        assert math.isfinite(drain_time_from_infinity(rel))

    def test_linear_not_uniform(self):
        levy = CompoundPoisson(1.0, Exponential(1.0))
        rel = Affine(0.0, 1.0)
        assert not classify(levy, rel).uniform
        assert drain_time_from_infinity(rel) == math.inf

    def test_constant_not_uniform(self):
        levy, rel = MM1
        assert not classify(levy, rel).uniform

    def test_divergent_drain_time_not_uniform(self):
        # int_1^inf du / (2 + u) diverges: not uniform, and no Divergent
        levy = CompoundPoisson(1.0, Exponential(1.0))
        rel = Custom(lambda u: 2.0 + u, RateAsymptotics("power", 1.0, 1.0))
        rep = classify(levy, rel)
        assert rep.verdict == "PositiveRecurrent" and not rep.uniform
        assert criterion_positive_recurrent(levy, rel).satisfied
        assert drain_time_from_infinity(rel) == math.inf
        rel = Custom(lambda u: 1.0 + u * u, RateAsymptotics("power", 2.0, 1.0))
        assert classify(levy, rel).uniform


@dataclass(frozen=True)
class _GaussianTailInput(LevyInput):
    """Test-only input with nu_bar(u) = e^{-u^2} (superexponential decay)."""

    activity: str = field(default="finite", init=False)

    def tail(self, u):
        return np.exp(-np.asarray(u, dtype=float) ** 2)

    def log_tail(self, u):
        return -np.asarray(u, dtype=float) ** 2

    def first_moment(self):
        return math.sqrt(math.pi) / 2.0


class TestTailUpper:
    def test_subgeometric_power_power(self):
        levy, rel = (CompoundPoisson(1.0, ParetoJumps(1.0)), Power(1.0, 2.0))
        env = tail_upper(levy, rel, 0.1)
        fit = fit_loglog(ENVELOPE_U, env(ENVELOPE_U))
        assert fit.exponent == pytest.approx(1.1 - 1.0 - 2.0, abs=1e-3)

    def test_exponential_mode(self):
        levy = CompoundPoisson(1.0, Exponential(1.0))
        env = tail_upper_exponential(levy, Power(1.0, 2.0), 1.0, 0.1)
        # envelope e^{-0.9 u} / u^2
        assert env(10.0) == pytest.approx(math.exp(-9.0) / 100.0, rel=1e-9)

    def test_gaussian_tail_rejected(self):
        env_err = None
        with pytest.raises(HypothesisFailed) as exc:
            tail_upper(_GaussianTailInput(), Power(1.0, 2.0), 0.1)
        assert "ratio" in exc.value.condition

    def test_exponential_mode_needs_unbounded_rate(self):
        levy = CompoundPoisson(1.0, Exponential(1.0))
        with pytest.raises(HypothesisFailed):
            tail_upper_exponential(levy, Constant(2.0), 1.0, 0.1)


class TestSubgeometricRatio:
    """With exponential jumps nu_bar(v) / nu_bar(u + v) = e^{mu u}, so the
    ratio integral is lambda / r(u) int (u / (u + v))^{1 + eps} dv =
    lambda u / (eps r(u)), finite however far the tail runs."""

    @pytest.mark.parametrize("name", ["constant-mm1", "general-bounded",
                                      "shotnoise-gamma"])
    def test_matches_closed_form(self, name):
        scen = load_preset(name)
        levy, rel = scen.levy, scen.release
        for u in DEFAULT_PROBE_GRID:
            closed = levy.rate * u / (0.1 * float(rel.rate(u)))
            assert lyapunov._subgeometric_ratio(levy, rel, 0.1, u) == pytest.approx(
                closed, rel=1e-10)

    @pytest.mark.parametrize("levy, refs", [
        (GammaSub(1.0, 1.0), (0.14936428687, 0.0173222712491)),
        (TemperedStableSub(0.5, 1.0, 1.0), (0.022106635585, 0.00191472049684)),
    ], ids=["gamma", "tempered-stable"])
    def test_exponential_tails_do_not_cancel(self, levy, refs):
        # at u = 100 and 1e3, against 160-digit quadrature; the plain
        # difference of two logs near -v read 5.27e8 and 2.78e6 for gamma
        for u, ref in zip((100.0, 1e3), refs):
            assert lyapunov._subgeometric_ratio(levy, Affine(0.0, 1.0), 0.1, u) == \
                pytest.approx(ref, rel=1e-5)

    def test_refusal_names_the_limsup(self):
        # not "ratio integral diverges": the integral converges, to 5e6 at 1e6
        with pytest.raises(HypothesisFailed) as exc:
            tail_upper(*MM1, 0.1)
        assert str(exc.value).startswith("limsup estimate 5e+06")


class TestTailLower:
    def test_poly_quotient_power_sharp(self):
        levy, rel = POWER_SHARP
        env = tail_lower(levy, rel, 0.1)
        fit = fit_loglog(ENVELOPE_U, env(ENVELOPE_U))
        # 1 - eps - alpha - beta = -0.6, bracketing the sharp -0.5
        assert fit.exponent == pytest.approx(-0.6, abs=0.02)

    def test_affine_fails_poly_passes_log(self):
        levy = CompoundPoisson(1.0, ParetoJumps(2.0))
        rel = Affine(0.0, 1.0)
        with pytest.raises(HypothesisFailed):
            tail_lower(levy, rel, 0.1)
        env = tail_lower_log(levy, rel, 0.1)
        fit = fit_loglog(ENVELOPE_U, env(ENVELOPE_U))
        assert fit.exponent == pytest.approx(-2.1, abs=0.02)

    def test_gaussian_tail_not_submultiplicative(self):
        with pytest.raises(HypothesisFailed) as exc:
            tail_lower(_GaussianTailInput(), Constant(2.0), 0.1)
        assert "submult" in exc.value.condition


class TestTvLowerRate:
    def test_default_h_exponent(self):
        assert default_h_exponent(POWER_SHARP[0]) == pytest.approx(0.9)
        assert default_h_exponent(SHARP_CONST[0]) == pytest.approx(1.4)

    def test_power_sharp_composed_exponent(self):
        # l = 1 - eps - alpha - beta = -0.6; exponent l/(a_h + l) = -2 at
        # the default slacks (the composition amplifies both slacks)
        levy, rel = POWER_SHARP
        curve = tv_lower_rate(levy, rel, eps=0.1, a_h=0.9, x=1.0)
        assert curve.fitted.exponent == pytest.approx(-2.0, abs=0.05)

    def test_power_sharp_small_slack_approaches_sharp(self):
        # as both slacks shrink the exponent approaches (1-a-b)/(1-b) = -1
        levy, rel = POWER_SHARP
        curve = tv_lower_rate(levy, rel, eps=0.02, a_h=0.98, x=1.0)
        assert curve.fitted.exponent == pytest.approx(-1.13, abs=0.07)

    def test_sharp_constant_exponent(self):
        # l = -0.5 - eps; a_h = 1.4: exponent -0.6/0.8 = -0.75
        levy, rel = SHARP_CONST
        curve = tv_lower_rate(levy, rel, eps=0.1, a_h=1.4, x=1.0)
        assert curve.fitted.exponent == pytest.approx(-0.75, abs=0.05)

    def test_moment_gate_rejects_heavy_h(self):
        levy, rel = POWER_SHARP  # alpha = 1: u^{1.2} moment diverges
        with pytest.raises(HypothesisFailed) as exc:
            tv_lower_rate(levy, rel, eps=0.1, a_h=1.2, x=1.0)
        assert exc.value.condition == "moment-drift"

    def test_underflowed_envelope_fails_f_monotone(self):
        # an exponential-tail envelope underflows to 0 on the log grid
        with pytest.raises(HypothesisFailed) as exc:
            tv_lower_rate(*MM1)
        assert exc.value.condition == "F-monotone"

    def test_monotone_curve(self):
        levy, rel = SHARP_CONST
        curve = tv_lower_rate(levy, rel, eps=0.1, a_h=1.4, x=1.0)
        ts = np.geomspace(1.0, 1e5, 30)
        vals = [curve(t) for t in ts]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("pair,phi_a,a_h", [
        (POWER_SHARP, 0.45, 0.9),
        (SHARP_CONST, 0.3, 1.4),
    ], ids=["power-sharp", "sharp-const"])
    def test_lower_exponent_consistent_with_certificate(self, pair, phi_a, a_h):
        # a valid lower bound decays at least as fast as the certified upper
        # rate: fitted lower exponent <= predicted upper exponent + 2 eps
        levy, rel = pair
        cert = build_certificate(levy, rel, RateFunction.power(phi_a))
        assert cert.valid
        upper = -phi_a / (1.0 - phi_a)
        curve = tv_lower_rate(levy, rel, eps=0.1, a_h=a_h, x=1.0)
        assert curve.fitted.exponent <= upper + 2 * 0.1


class TestWasserstein:
    def test_affine_exact_margin(self):
        passed, worst, _ = check_wasserstein_contraction(
            Affine(0.0, 1.0), PowerModulus(1.0), 1.0)
        assert passed
        assert worst == pytest.approx(0.0, abs=1e-12)

    def test_affine_too_large_gamma_fails(self):
        passed, worst, _ = check_wasserstein_contraction(
            Affine(0.0, 1.0), PowerModulus(1.0), 1.5)
        assert not passed

    @pytest.mark.parametrize("Gamma, passes", [(1.0, True), (0.5, True), (1.5, False)])
    def test_linear_smoothed_power_as_affine(self, Gamma, passes):
        # PowerSmoothed(1, 1) is r(u) = u, the rate of Affine(0, 1): the
        # same margins, 0 at the worst gap for Gamma = 1
        got = check_wasserstein_contraction(PowerSmoothed(1.0, 1.0),
                                            PowerModulus(1.0), Gamma)
        assert got == check_wasserstein_contraction(Affine(0.0, 1.0),
                                                    PowerModulus(1.0), Gamma)
        assert got[0] is passes
        if Gamma == 1.0:
            assert got[1] == 0.0

    def test_power_d2(self):
        passed, _, _ = check_wasserstein_contraction(
            Power(1.0, 2.0), PowerModulus(2.0), 1.0)
        assert passed

    def test_constant_fails(self):
        passed, worst, _ = check_wasserstein_contraction(
            Constant(2.0), PowerModulus(1.0), 0.5)
        assert not passed
        assert worst > 0

    def test_modulus_validation(self):
        with pytest.raises(InvalidModulus):
            PowerModulus(0.5)
        with pytest.raises(InvalidModulus):
            CustomModulus(lambda t: math.sqrt(t))  # concave
        for bad in (math.nan, math.inf):  # not finite on the check grid
            with pytest.raises(InvalidModulus):
                CustomModulus(lambda t, bad=bad: bad if t > 5.0 else t * t)
        CustomModulus(lambda t: t * t)  # fine

    def test_rate_exponential(self):
        bound = GapBound(PowerModulus(1.0), 0.7, 2.0)
        for t in (0.0, 0.5, 3.0, 20.0):
            assert bound(t) == pytest.approx(2.0 * math.exp(-0.7 * t), abs=1e-9)

    def test_rate_power_limit(self):
        # d = 2, kappa = 1: B^{-1}(s) = 1/(1+s), so s B^{-1}(s) -> 1
        bound = GapBound(PowerModulus(2.0), 1.0, 1.0)
        s = 1e4
        assert s * bound(s) == pytest.approx(1.0, abs=1e-3)

    def test_rate_zero_time_kappa(self):
        for d in (1.0, 2.0, 3.0):
            assert GapBound(PowerModulus(d), 1.0, 0.8)(0.0) == 0.8

    def test_power_modulus_keeps_its_closed_form(self):
        # a power modulus runs the power flow of x' = -x^d: its closed
        # B_kappa^{-1}(s) to the bit for d != 1; for d = 1 numpy's exp stands
        # in for math.exp (an ulp apart), and the product with kappa may
        # round that to two
        rng = np.random.default_rng(5)
        for d in (1.0, 1.5, 2.0, 3.0):
            for kappa in (0.5, 1.0, 3.0):
                bound = GapBound(PowerModulus(d), 1.3, kappa)
                for t in rng.uniform(0.0, 50.0, 40):
                    s = 1.3 * t
                    if d == 1.0:
                        want = kappa * math.exp(-s)
                        assert abs(bound(t) - want) <= 2.0 * math.ulp(want)
                    else:
                        assert bound(t) == (s * (d - 1.0) + kappa ** (1.0 - d)) ** (
                            -1.0 / (d - 1.0))

    def test_custom_modulus_matches_closed(self):
        # a custom beta reads the drain clock of x' = -beta(x); for d > 1
        # its G grows like a power at 0 and does not converge at inf
        for d in (1.0, 1.5, 2.0, 3.0):
            for kappa in (1.0, 3.0):
                closed = GapBound(PowerModulus(d), 1.3, kappa)
                numeric = GapBound(CustomModulus(lambda t: t ** d), 1.3, kappa)
                for t in (1e-3, 0.1, 1.0, 10.0, 100.0):
                    assert numeric(t) == pytest.approx(closed(t), rel=1e-12)
                assert numeric(0.0) == kappa


class TestIrreducibility:
    def test_stable_self_witnessing(self):
        inp = StableSub(0.5, 0.5)
        passed, alpha, theta = check_irreducibility_sufficient(inp)
        assert passed and theta > 0
        # the returned witness really does minorise the density on (0, 1)
        u = np.geomspace(1e-8, 1.0, 50)
        assert (np.asarray(inp.density(u)) >= theta * u ** (-1.0 - alpha) - 1e-12).all()

    def test_gamma_no_witness(self):
        # density e^{-u}/u ~ u^{-1}: no u^{-1-alpha} lower bound with alpha > 0
        passed, _, _ = check_irreducibility_sufficient(GammaSub(1.0, 1.0))
        assert not passed

    def test_compound_poisson_fails(self):
        passed, _, _ = check_irreducibility_sufficient(
            CompoundPoisson(1.0, Exponential(1.0)))
        assert not passed
