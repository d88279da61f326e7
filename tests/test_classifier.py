"""Regime classification against the exponent bookkeeping and closed forms."""

import math

import numpy as np
import pytest

from storagelab.classifier import (
    classify,
    criterion_bounded_drift,
    criterion_heavy_tail,
    criterion_positive_recurrent,
    limit_estimate,
)
from storagelab.levy_input import (
    CompoundPoisson,
    DeterministicJumps,
    Exponential,
    GammaSub,
    ParetoJumps,
    StableSub,
    TemperedStableSub,
)
from storagelab.presets import load_preset, preset_names
from storagelab.release_rate import (
    Affine,
    Constant,
    Custom,
    Plateau,
    Power,
    PowerSmoothed,
    RateAsymptotics,
)


def power_pair(alpha, beta, k=1.0, scale=1.0):
    """Input with nu_bar ~ scale * u^-alpha and release ~ k * u^beta."""
    if alpha < 1.0:
        inp = StableSub(alpha, scale)
    else:
        inp = CompoundPoisson(scale, ParetoJumps(alpha))
    rel = Power(k, beta) if beta >= 1.0 else PowerSmoothed(k, beta)
    return inp, rel


EXP_TAILED = {"cp-exp": CompoundPoisson(1.0, Exponential(1.0)), "gamma": GammaSub(1.0, 1.0),
              "tempered-stable": TemperedStableSub(0.5)}
FINITE_MEAN = {**EXP_TAILED, "cp-pareto1.5": CompoundPoisson(1.0, ParetoJumps(1.5)),
               "cp-fixed": CompoundPoisson(1.0, DeterministicJumps(1.0))}

# (input, release, on a declared boundary): the power pairs by
# "beta-alpha", exp tails against power releases, and finite means against
# bounded releases, both above the mean and below it
AGREE_CASES = (
    [pytest.param(*power_pair(alpha, beta), alpha + beta == 1.0,
                  id=f"{beta}-{alpha}")
     for beta in (0.3, 0.7, 1.5) for alpha in (0.3, 0.7, 1.5)]
    + [pytest.param(inp, rel, False, id=f"{name}-{rel_id}")
       for name, inp in EXP_TAILED.items()
       for rel_id, rel in (("smoothed0.3", PowerSmoothed(1.0, 0.3)),
                           ("affine", Affine(0.0, 1.0)),
                           ("power1.5", Power(1.0, 1.5)))]
    + [pytest.param(inp, rel, False, id=f"{name}-{rel_id}")
       for name, inp in FINITE_MEAN.items()
       for rel_id, rel in (("constant2", Constant(2.0)),
                           ("plateau3", Plateau(3.0, 1.0)),
                           ("constant0.5", Constant(0.5)))])


class TestBoundedDrift:
    def test_underpowered_drain(self):
        res = criterion_bounded_drift(CompoundPoisson(2.0, Exponential(1.0)), Constant(1.0))
        assert res.satisfied

    def test_overpowered_drain(self):
        res = criterion_bounded_drift(CompoundPoisson(1.0, Exponential(1.0)), Constant(2.0))
        assert not res.satisfied

    def test_unbounded_release_never(self):
        res = criterion_bounded_drift(CompoundPoisson(1.0, Exponential(1.0)),
                                      PowerSmoothed(1.0, 0.5))
        assert not res.satisfied

    def test_infinite_mean_bounded_release(self):
        res = criterion_bounded_drift(StableSub(0.5), Constant(5.0))
        assert res.satisfied


class TestHeavyTail:
    def test_growing_criterion(self):
        # alpha + beta = 0.6 < 1: values grow like u^0.4
        inp, rel = power_pair(0.3, 0.3)
        res = criterion_heavy_tail(inp, rel)
        assert res.satisfied
        assert res.probe_values[-1] > res.probe_values[0]

    def test_light_tail_vanishes(self):
        res = criterion_heavy_tail(CompoundPoisson(1.0, Exponential(1.0)), Affine(0.0, 1.0))
        assert not res.satisfied
        assert res.estimate < 0.05

    def test_constant_release_heavy_tail(self):
        # u * u^{-0.5} * (pi/sqrt 2) / a grows without bound
        res = criterion_heavy_tail(StableSub(0.5), Constant(2.0))
        assert res.satisfied

    def test_closed_form_value(self):
        # at fixed u: (u/r) * K u^{-1/2} int v^{-1/2}/(1+v^2) dv
        inp = StableSub(0.5, 1.0)
        rel = Constant(2.0)
        res = criterion_heavy_tail(inp, rel, probe_grid=(100.0, 1000.0, 10000.0))
        expect = 10000.0 ** 0.5 * (math.pi / math.sqrt(2.0)) / 2.0
        assert res.probe_values[-1] == pytest.approx(expect, rel=1e-6)


class TestPositiveRecurrent:
    def test_mm1_half(self):
        res = criterion_positive_recurrent(CompoundPoisson(1.0, Exponential(1.0)),
                                           Constant(2.0))
        assert res.satisfied
        for v in res.probe_values:
            assert v == pytest.approx(0.5, rel=1e-7)

    def test_power_sum_above_one(self):
        inp, rel = power_pair(0.7, 0.7)
        res = criterion_positive_recurrent(inp, rel)
        assert res.satisfied
        assert res.probe_values[-1] < res.probe_values[0]

    def test_power_sum_below_one_diverges(self):
        inp, rel = power_pair(0.3, 0.3)
        res = criterion_positive_recurrent(inp, rel)
        assert not res.satisfied
        assert math.isinf(res.estimate)


class TestClassify:
    def test_transient_heavy(self):
        inp, rel = power_pair(0.3, 0.3)
        rep = classify(inp, rel)
        assert rep.verdict == "Transient"
        assert rep.method == "Symbolic"

    def test_null_recurrent_plateau(self):
        rep = classify(CompoundPoisson(1.0, Exponential(1.0)), Plateau(1.0, 1.0))
        assert rep.verdict == "NullRecurrent"

    def test_plateau_off_mean_not_null(self):
        rep = classify(CompoundPoisson(1.0, Exponential(1.0)), Plateau(3.0, 1.0))
        assert rep.verdict == "PositiveRecurrent"

    def test_mm1_positive_recurrent(self):
        rep = classify(CompoundPoisson(1.0, Exponential(1.0)), Constant(2.0))
        assert rep.verdict == "PositiveRecurrent"
        assert not rep.uniform

    def test_uniform_flag_superlinear(self):
        inp, rel = power_pair(1.0, 2.0)
        rep = classify(inp, rel)
        assert rep.verdict == "PositiveRecurrent"
        assert rep.uniform

    def test_uniform_flag_divergent_drain_time(self):
        # int_1^inf du / (2 + u) diverges: positive recurrent, not uniform
        inp = CompoundPoisson(1.0, Exponential(1.0))
        rep = classify(inp, Custom(lambda u: 2.0 + u,
                                   RateAsymptotics("power", 1.0, 1.0)))
        assert rep.verdict == "PositiveRecurrent"
        assert not rep.uniform
        rep = classify(inp, Custom(lambda u: 1.0 + u * u,
                                   RateAsymptotics("power", 2.0, 1.0)))
        assert rep.verdict == "PositiveRecurrent"
        assert rep.uniform

    def test_boundary_inconclusive(self):
        inp, rel = power_pair(0.3, 0.7)
        assert classify(inp, rel).verdict == "Inconclusive"
        inp, rel = power_pair(0.7, 0.3)
        assert classify(inp, rel).verdict == "Inconclusive"

    def test_deterministic(self):
        inp, rel = power_pair(0.7, 0.7)
        a = classify(inp, rel)
        b = classify(inp, rel)
        assert a == b

    @pytest.mark.parametrize("inp, rel, boundary", AGREE_CASES)
    def test_symbolic_numeric_agree(self, inp, rel, boundary):
        if boundary:
            pytest.skip("boundary: verdict pinned to Inconclusive by design")
        sym = classify(inp, rel, method="auto")
        num = classify(inp, rel, method="numeric")
        assert sym.method == "Symbolic"
        assert num.method == "Numeric"
        assert (sym.verdict, sym.uniform) == (num.verdict, num.uniform)

    def test_bounded_drift_evidence_past_the_structural_check(self):
        # bounded drift runs on every path, and its result is always kept
        models = ([case.values[:2] for case in AGREE_CASES]
                  # no input against a decreasing drain: the shortcut declines
                  + [(CompoundPoisson(0.0, Exponential(1.0)), Power(1.0, -0.5))]
                  + [(s.levy, s.release) for s in map(load_preset, preset_names())])
        for inp, rel in models:
            for method in ("auto", "numeric"):
                rep = classify(inp, rel, method=method)
                if rep.via == "structural":
                    continue
                bd = rep.evidence["bounded_drift"]
                assert bd == criterion_bounded_drift(inp, rel)
                assert bd.satisfied == (rep.via == "BoundedDrift")

    def test_monotone_in_parameters(self):
        # raising alpha or beta never turns PositiveRecurrent into Transient
        verdicts = {}
        for a in (0.3, 0.7, 1.5):
            for b in (0.3, 0.7, 1.5):
                inp, rel = power_pair(a, b)
                verdicts[(a, b)] = classify(inp, rel).verdict
        order = [0.3, 0.7, 1.5]
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                if verdicts[(a, b)] == "PositiveRecurrent":
                    for a2 in order[i:]:
                        for b2 in order[j:]:
                            assert verdicts[(a2, b2)] != "Transient"

    def test_method_validation(self):
        inp, rel = power_pair(0.5, 0.7)
        for method in ("guess", "symbolic"):
            with pytest.raises(ValueError):
                classify(inp, rel, method=method)

    def test_tabulated_tail_with_extension(self):
        # declared power extension gives the symbolic path its exponent
        from storagelab.levy_input import TabulatedTail
        u = np.geomspace(0.1, 10.0, 25)
        tab = TabulatedTail(tuple(u), tuple(np.minimum(u ** -2.0, 5.0)),
                            ("power", 2.0))
        rep = classify(tab, Affine(0.0, 1.0))
        assert rep.verdict == "PositiveRecurrent"
        rep2 = classify(tab, Constant(0.5))  # m_nu = 2.55 > 0.5: swamped
        assert rep2.verdict == "Transient"


class TestLimitEstimate:
    def test_modes(self):
        assert limit_estimate([5.0, 1.0, 2.0, 3.0], "liminf") == 1.0
        assert limit_estimate([5.0, 1.0, 2.0, 3.0], "limsup") == 3.0

    def test_empty(self):
        with pytest.raises(ValueError):
            limit_estimate([], "liminf")
