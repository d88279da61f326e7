"""Array-native integrands against their one-node-at-a-time references.

Every library integrand maps an array of quadrature nodes to an array of
values.  The reference wraps the same integrand with ``np.frompyfunc``, so
the quadrature sees it called on one node at a time; both must give the
same value within 1e-12 relative, exactly the same number of panels, and
the same error type where the reference fails (``Divergent`` included).

The dyadic block march evaluates the first panels of a run of blocks in one
integrand call; against a march that evaluates one block per call, value,
error and panel count must be equal, not close.
"""

import math

import numpy as np
import pytest

from storagelab import (
    classifier,
    ergodicity_lab,
    levy_input,
    lyapunov,
    numerics,
    release_rate,
)
from storagelab.classifier import DEFAULT_PROBE_GRID
from storagelab.errors import Divergent, HypothesisFailed, MomentConditionFailed
from storagelab.levy_input import LevyInput, TabulatedTail
from storagelab.lyapunov import CustomModulus, GapBound, RateFunction
from storagelab.numerics import integrate_interval, integrate_semiinfinite
from storagelab.presets import load_preset, preset_names
from storagelab.release_rate import Custom, RateAsymptotics, signed_drain_time


def _one_node_at_a_time(integrate, f, *args, **kwargs):
    one = np.frompyfunc(f, 1, 1)
    return integrate(lambda x: one(x).astype(float), *args, **kwargs)


def _one_block_per_call(integrate, f, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_PREFETCH", 1)
        return integrate(f, *args, **kwargs)


def _route(monkeypatch, reference, check):
    """Route every library quadrature through ``check(got, ref)`` against
    ``reference``, or through a check of the error type where the reference
    raises; returns the list of checked integrals."""
    checked = []

    def pair(integrate):
        def run(f, *args, **kwargs):
            try:
                ref = reference(integrate, f, *args, **kwargs)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    integrate(f, *args, **kwargs)
                checked.append(type(exc).__name__)
                raise
            got = integrate(f, *args, **kwargs)
            check(got, ref)
            checked.append("value")
            return got
        return run

    for mod in (classifier, lyapunov, levy_input, release_rate, ergodicity_lab):
        for name in ("integrate_semiinfinite", "integrate_interval"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, pair(getattr(numerics, name)))
    return checked


def _same_tree(got, ref):
    assert got.subdivisions == ref.subdivisions
    assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)


def _equal(got, ref):
    assert (got.value, got.error, got.subdivisions) == (
        ref.value, ref.error, ref.subdivisions)


@pytest.fixture
def paired(monkeypatch):
    """Every library quadrature checked against one node per call."""
    return _route(monkeypatch, _one_node_at_a_time, _same_tree)


@pytest.fixture
def block_paired(monkeypatch):
    """Every library quadrature checked against one block per call."""
    return _route(monkeypatch, _one_block_per_call, _equal)


def _quietly(call, *args):
    """Run a criterion whose divergence is an answer, not a failure."""
    try:
        call(*args)
    except (Divergent, MomentConditionFailed, HypothesisFailed):
        pass


def _preset_integrals(name):
    scen = load_preset(name)
    levy, rel = scen.levy, scen.release
    phi = scen.phi or RateFunction.constant1()
    for u in DEFAULT_PROBE_GRID:
        _quietly(classifier._heavy_tail_value, levy, rel, u)
        _quietly(classifier._pos_rec_value, levy, rel, u)
        _quietly(lyapunov._drift_ratio, levy, rel, phi, u)
        _quietly(lyapunov._c3_jump_integral, levy, rel, phi, u)
        _quietly(lyapunov._subgeometric_ratio, levy, rel, 0.1, u)
        for form in ("fubini", "direct"):
            _quietly(lyapunov.generator_apply, levy, rel,
                     lambda w: np.sqrt(1.0 + w), u,
                     lambda w: 0.5 / np.sqrt(1.0 + w), form)
    for lam in (0.5, 2.0):
        # the tail identity, also for families with a closed form
        LevyInput.laplace_exponent(levy, lam)
    for p in (1.0, 2.0):
        _quietly(ergodicity_lab._wp_moment_guard, levy, p)


@pytest.mark.parametrize("name", preset_names())
def test_preset_integrands_match_reference(name, paired):
    _preset_integrals(name)
    assert len(paired) >= 7 * len(DEFAULT_PROBE_GRID) + 4


@pytest.mark.parametrize("name", preset_names())
def test_preset_integrands_match_one_block_per_call(name, block_paired):
    _preset_integrals(name)
    assert len(block_paired) >= 7 * len(DEFAULT_PROBE_GRID) + 4


def _user_callable_integrals():
    rel = Custom(lambda x: 1.0 + math.sqrt(x), RateAsymptotics("power", 0.5, 1.0))
    for u in (0.05, 0.4, 3.0, 42.0):
        signed_drain_time(rel, u)
    _quietly(rel.drain_time, 1.0, math.inf)
    phi = RateFunction.custom(lambda t: 0.5 * t)
    for t in (2.0, 50.0):
        phi.clock(t)
    bound = GapBound(CustomModulus(lambda t: t * t), 1.0, 1.0)
    for t in (1e-3, 0.5):
        bound.clock(t)
    u = np.geomspace(0.1, 10.0, 30)
    tab = TabulatedTail(tuple(u), tuple(np.minimum(u ** -2.0, 100.0)), ("power", 2.0))
    tab.first_moment()
    LevyInput.laplace_exponent(tab, 1.0)


def test_user_callable_integrands_match_reference(paired):
    _user_callable_integrals()
    assert paired.count("value") >= 10


def test_user_callable_integrands_match_one_block_per_call(block_paired):
    _user_callable_integrals()
    assert block_paired.count("value") >= 10


class TestIntegrandContract:
    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            integrate_semiinfinite(lambda v: v[:3])
        with pytest.raises(ValueError):
            integrate_interval(lambda v: np.ones((2, v.size)), 0.0, 1.0)

    def test_scalar_return_broadcasts(self):
        res = integrate_interval(lambda v: 2.0, 0.0, 3.0)
        assert res.value == pytest.approx(6.0, rel=1e-14)

    def test_panel_is_one_call(self):
        shapes = []

        def f(v):
            shapes.append(v.shape)
            return np.exp(-v)

        integrate_interval(f, 0.0, 50.0)
        assert shapes[0] == (15,) and set(shapes[1:]) <= {(30,)}
        assert len(shapes) > 1
