"""Path simulation: exactness, coupling, ensembles, vector engines."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from storagelab import simulator
from storagelab.levy_input import (
    CompoundPoisson,
    Exponential,
    GammaSub,
    JumpStream,
    ParetoJumps,
)
from storagelab.lyapunov import PowerModulus, wasserstein_rate
from storagelab.numerics import QuadratureSpec, _rk_flow, integrate_interval
from storagelab.release_rate import (
    Affine,
    Constant,
    Custom,
    Plateau,
    Power,
    PowerSmoothed,
    RateAsymptotics,
    signed_drain_time,
)
from storagelab.simulator import (
    Endpoint,
    FullEvents,
    Grid,
    PathConfig,
    grid_ensemble,
    simulate_coupled,
    simulate_ensemble,
    simulate_path,
)

SEED = 20260810
NO_JUMPS = CompoundPoisson(0.0, Exponential(1.0))
CPP = CompoundPoisson(1.0, Exponential(1.0))
CUSTOM = Custom(lambda u: u + u * u / (1.0 + u), RateAsymptotics("power", 1.0, 2.0))


class TestSimulatePath:
    def test_pure_drain_matches_flow(self):
        cfg = PathConfig(3.0, 2.0, Endpoint(), seed=SEED)
        rec = simulate_path(NO_JUMPS, Constant(2.0), cfg)
        assert rec.values[-1] == 0.0
        assert rec.n_jumps == 0

    def test_values_non_negative(self):
        cfg = PathConfig(0.0, 50.0, Grid(tuple(np.linspace(0, 50, 101))), seed=SEED)
        rec = simulate_path(CPP, PowerSmoothed(1.0, 0.5), cfg)
        assert (rec.values >= 0.0).all()

    def test_events_mode_decreasing_between_jumps(self):
        cfg = PathConfig(5.0, 10.0, FullEvents(), seed=SEED)
        rec = simulate_path(CPP, Affine(0.0, 1.0), cfg)
        assert not rec.compensator_used
        assert rec.jump_sizes is not None
        # value after each jump = flow from previous value + jump
        for i in range(1, len(rec.times)):
            dt = rec.times[i] - rec.times[i - 1]
            drained = rec.values[i - 1] * math.exp(-dt)
            assert rec.values[i] == pytest.approx(drained + rec.jump_sizes[i], rel=1e-9)

    def test_shot_noise_mean(self):
        # E[X(t)] = (lam/mu)(1 - e^{-t}) for r(u) = u from x0 = 0
        cfg = PathConfig(0.0, 1.0, Endpoint(), seed=SEED)
        vals = simulate_ensemble(CPP, Affine(0.0, 1.0), cfg, 4000)
        target = 1.0 - math.exp(-1.0)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se

    def test_infinite_activity_compensator(self):
        cfg = PathConfig(0.0, 1.0, Endpoint(), seed=SEED, truncation_eps=1e-4)
        rec = simulate_path(GammaSub(1.0, 1.0), Affine(0.0, 1.0), cfg)
        assert rec.compensator_used
        assert rec.values[-1] >= 0.0
        # recorded mean-square truncation bias: int_0^eps u^2 nu(du) * horizon
        assert rec.bias_bound == pytest.approx(
            GammaSub(1.0, 1.0).small_jump_msq(1e-4) * 1.0)
        assert 0.0 < rec.bias_bound < 1e-7

    def test_finite_activity_no_bias(self):
        cfg = PathConfig(0.0, 1.0, Endpoint(), seed=SEED)
        rec = simulate_path(CPP, Affine(0.0, 1.0), cfg)
        assert not rec.compensator_used
        assert rec.bias_bound == 0.0

    def test_grid_requires_sorted(self):
        with pytest.raises(ValueError):
            PathConfig(0.0, 1.0, Grid((0.5, 0.2)))
        with pytest.raises(ValueError):
            PathConfig(0.0, 1.0, Grid((0.5, 2.0)))

    def test_grid_endpoint_consistent(self):
        # the last grid value on a stream equals the endpoint on that stream
        stream = JumpStream(SEED, 1e-4).derive(3)
        cfg_g = PathConfig(2.0, 8.0, Grid((1.0, 4.0, 8.0)), seed=SEED)
        cfg_e = PathConfig(2.0, 8.0, Endpoint(), seed=SEED)
        g = simulate_path(CPP, Affine(0.0, 1.0), cfg_g, stream=stream)
        e = simulate_path(CPP, Affine(0.0, 1.0), cfg_e, stream=stream)
        assert g.values[-1] == e.values[-1]

    def test_transient_model_escapes(self):
        # alpha + beta < 1: paths drift to infinity; medians must ratchet up
        levy = CompoundPoisson(1.0, ParetoJumps(0.3))
        rel = PowerSmoothed(1.0, 0.3)
        grid = Grid((5.0, 20.0, 50.0))
        cfg = PathConfig(0.0, 50.0, grid, seed=SEED)
        mat = simulate_ensemble(levy, rel, cfg, 200)
        med = np.median(mat, axis=0)
        assert med[0] < med[1] < med[2]
        assert med[2] > 10.0 * max(med[0], 1.0)

    def test_infinite_activity_drift_rk_path(self):
        # stable input against a power drain: the compensator enters the
        # inter-jump ODE, which only the step-halving integrator covers
        from storagelab.levy_input import StableSub
        levy, rel = StableSub(0.3, 1.0), PowerSmoothed(1.0, 0.3)
        grid = Grid((2.0, 8.0, 20.0))
        cfg = PathConfig(0.0, 20.0, grid, seed=SEED, truncation_eps=1e-2)
        mat = simulate_ensemble(levy, rel, cfg, 20)
        assert (mat >= 0.0).all()
        med = np.median(mat, axis=0)
        assert med[-1] > med[0]


class TestCoupled:
    def test_linear_gap_exact(self):
        grid = Grid((0.5, 1.0, 2.0, 4.0))
        cfg = PathConfig(5.0, 4.0, grid, seed=SEED)
        _, _, dist = simulate_coupled(CPP, Affine(0.0, 1.0), 5.0, 0.0, cfg)
        for t, g in zip(dist.times, dist.gaps):
            assert g == pytest.approx(5.0 * math.exp(-t), abs=1e-9)

    def test_identical_starts(self):
        cfg = PathConfig(2.0, 3.0, Grid((1.0, 2.0, 3.0)), seed=SEED)
        _, _, dist = simulate_coupled(CPP, Affine(0.0, 1.0), 2.0, 2.0, cfg)
        assert (dist.gaps == 0.0).all()
        assert dist.merge_time <= 1.0

    def test_constant_drain_gap_closes(self):
        cfg = PathConfig(1.0, 1.0, Grid(tuple(np.linspace(0.05, 1.0, 20))), seed=SEED)
        _, _, dist = simulate_coupled(NO_JUMPS, Constant(2.0), 1.0, 0.0, cfg)
        assert (np.diff(dist.gaps) <= 1e-12).all()
        at_half = np.searchsorted(dist.times, 0.5)
        assert (dist.gaps[at_half:] == pytest.approx(0.0, abs=1e-9))

    def test_order_preserved(self):
        grid = Grid(tuple(np.linspace(0.2, 20.0, 40)))
        cfg = PathConfig(9.0, 20.0, grid, seed=SEED)
        for rel in (Affine(0.0, 1.0), Power(1.0, 2.0), Plateau(2.0, 1.0)):
            ra, rb, _ = simulate_coupled(CPP, rel, 9.0, 1.0, cfg)
            assert (ra.values >= rb.values - 1e-12).all()

    def test_gap_dominated_by_contraction_bound(self):
        # power drain with quadratic modulus: |X - Z| <= B_kappa^{-1}(t),
        # and the gap only shrinks (jumps cancel, the drift contracts)
        grid = Grid(tuple(np.linspace(0.1, 10.0, 30)))
        cfg = PathConfig(3.0, 10.0, grid, seed=SEED)
        bound = wasserstein_rate(PowerModulus(2.0), 1.0, 2.0)
        _, _, dist = simulate_coupled(CPP, Power(1.0, 2.0), 3.0, 1.0, cfg)
        for t, g in zip(dist.times, dist.gaps):
            assert g <= bound(t) + 1e-6
        assert (np.diff(dist.gaps) <= 1e-12).all()

    def test_affine_gap_with_jumps_matches_exponential_bound(self):
        grid = Grid(tuple(np.linspace(0.25, 8.0, 16)))
        cfg = PathConfig(4.0, 8.0, grid, seed=SEED)
        bound = wasserstein_rate(PowerModulus(1.0), 1.0, 4.0)
        for i in range(20):
            stream = JumpStream(SEED, 1e-4).derive(i)
            _, _, dist = simulate_coupled(CPP, Affine(0.0, 1.0), 4.0, 0.0, cfg,
                                          stream=stream)
            for t, g in zip(dist.times, dist.gaps):
                assert g <= bound(t) + 1e-6


class TestEnsemble:
    def test_single_path_reduces(self):
        cfg = PathConfig(2.0, 5.0, Endpoint(), seed=SEED)
        single = simulate_ensemble(CPP, Constant(2.0), cfg, 1)
        direct = simulate_path(CPP, Constant(2.0), cfg,
                               stream=JumpStream(SEED, 1e-4).derive(0))
        assert single[0] == direct.values[-1]

    def test_bit_reproducible(self):
        cfg = PathConfig(1.0, 5.0, Endpoint(), seed=SEED)
        a = simulate_ensemble(CPP, Affine(0.0, 1.0), cfg, 50)
        b = simulate_ensemble(CPP, Affine(0.0, 1.0), cfg, 50)
        assert (a == b).all()

    def test_order_independent_streams(self):
        cfg3 = PathConfig(1.0, 5.0, Endpoint(), seed=SEED)
        big = simulate_ensemble(CPP, Affine(0.0, 1.0), cfg3, 20)
        small = simulate_ensemble(CPP, Affine(0.0, 1.0), cfg3, 7)
        assert (big[:7] == small).all()

    def test_disjoint_seed_halves_consistent(self):
        cfg_a = PathConfig(0.0, 2.0, Endpoint(), seed=101)
        cfg_b = PathConfig(0.0, 2.0, Endpoint(), seed=202)
        a = simulate_ensemble(CPP, Affine(0.0, 1.0), cfg_a, 3000)
        b = simulate_ensemble(CPP, Affine(0.0, 1.0), cfg_b, 3000)
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= 6 * se


class TestVectorEngines:
    @pytest.mark.parametrize("rel", [
        Constant(2.0), Affine(0.0, 1.0), Affine(1.0, 2.0),
        Power(1.0, 2.0), Power(1.0, 1.0), PowerSmoothed(1.0, 0.5),
        Plateau(2.0, 1.0),
        pytest.param(Power(1.0, 0.5), id="Power-sublinear"),
        pytest.param(CUSTOM, id="Custom"),
    ], ids=lambda r: f"{type(r).__name__}")
    def test_flow_vec_matches_scalar(self, rel):
        # one flow body serves floats and lanes, closed form or not
        xs = np.array([0.0, 0.005, 0.5, 1.0, 4.0, 50.0])
        dts = np.array([0.0, 0.3, 1.7, 9.0])
        for drift in (0.0, 0.7, 2.5):
            for dt in dts:
                lanes = rel.flow(xs, dt, drift)
                for x, lane in zip(xs, lanes):
                    one = rel.flow(float(x), float(dt), drift)
                    assert one == pytest.approx(lane, rel=1e-14, abs=1e-300)
                    ref = _rk_flow(rel.rate, float(x), float(dt), drift)
                    assert lane == pytest.approx(ref, abs=1e-8)
            for s, t in ((0.3, 1.4), (1.7, 9.0)):
                two_step = rel.flow(rel.flow(xs, s, drift), t, drift)
                assert two_step == pytest.approx(rel.flow(xs, s + t, drift), abs=1e-8)
        for x in xs[xs > 0.0]:
            for u in (0.05, 0.4, 1.0, 3.0):
                if u < x:
                    t = rel.drain_time(u, float(x))
                    assert rel.flow(float(x), t, 0.0) == pytest.approx(u, rel=1e-8)

    def test_flow_sticks_at_empty_below_r0(self):
        # 0 < drift <= r(0+): an emptied lane stays empty (a sliding motion)
        # where RK used to chatter across 0 without end or underflow its step
        calls = []

        def fn(u):
            calls.append(u)
            if len(calls) > 100_000:
                raise RuntimeError("RK flow does not terminate")
            return 1.0 + 2.0 * u

        rel = Custom(fn, RateAsymptotics("power", 1.0, 2.0))
        assert rel.flow(0.005, 0.3, 0.7) == 0.0
        assert Power(1.0, -0.5).flow(0.005, 0.3, 0.7) == 0.0
        # r more singular at 0 than u^-0.5, where RK alone underflows its step
        assert Power(1.0, -0.9).flow(0.5, 1.0, 0.7) == 0.0
        assert Power(1.0, -2.0).flow(0.5, 1.0, 0.7) == 0.0
        # a drift above r(0+) still lifts the empty state towards r(x) = drift
        assert Power(1.0, 0.5).flow(0.0, 30.0, 0.7) == pytest.approx(0.49, abs=1e-6)

    @pytest.mark.parametrize("rel", [
        Constant(2.0), Affine(0.0, 1.0), Power(1.0, 2.0),
        PowerSmoothed(1.0, 0.5), Plateau(2.0, 1.0),
        pytest.param(Power(1.0, 0.5), id="Power-sublinear"),
        pytest.param(CUSTOM, id="Custom"),
    ], ids=lambda r: f"{type(r).__name__}")
    def test_signed_drain_vec_matches_integral(self, rel):
        # G(u) = int_1^u dv / r(v) against quadrature of 1/r, not drain_time
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
        inv_rate = lambda v: 1.0 / rel.rate(v)
        for u in (0.05, 0.4, 1.0, 3.0, 42.0):
            ref = (integrate_interval(inv_rate, 1.0, u, spec).value if u >= 1.0
                   else -integrate_interval(inv_rate, u, 1.0, spec).value)
            assert signed_drain_time(rel, u) == pytest.approx(ref, rel=1e-9, abs=1e-12)
        # one array call gives each level's float call
        us = np.array([0.05, 0.4, 1.0, 3.0, 42.0])
        assert signed_drain_time(rel, us).tolist() == [signed_drain_time(rel, u)
                                                       for u in us.tolist()]

    def test_endpoint_engine_matches_law(self):
        # shot-noise mean against the per-path ensemble
        vals = grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, [1.0], 20_000, SEED)[:, 0]
        target = 1.0 - math.exp(-1.0)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3.5 * se

    def test_endpoint_engine_reproducible(self):
        a = grid_ensemble(CPP, Constant(2.0), 1.0, [5.0], 300, SEED)
        b = grid_ensemble(CPP, Constant(2.0), 1.0, [5.0], 300, SEED)
        assert (a == b).all()

    def test_grid_engine_consistent_with_endpoint(self):
        grid = np.array([0.5, 1.0, 2.0])
        mat = grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, grid, 5000, SEED)
        assert mat.shape == (5000, 3)
        assert (mat >= 0.0).all()
        end = grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, [2.0], 5000, SEED + 1)[:, 0]
        se = math.sqrt(mat[:, -1].var(ddof=1) / 5000 + end.var(ddof=1) / 5000)
        assert abs(mat[:, -1].mean() - end.mean()) <= 5 * se

    def test_grid_engine_no_jump_is_flow(self):
        grid = np.array([0.5, 1.0, 1.5, 2.0])
        mat = grid_ensemble(NO_JUMPS, Constant(2.0), 3.0, grid, 4, SEED)
        expect = np.maximum(3.0 - 2.0 * grid, 0.0)
        assert mat == pytest.approx(np.tile(expect, (4, 1)))

    @pytest.mark.parametrize("slab", [None, 256])
    @pytest.mark.parametrize("levy, rel, eps", [
        (CPP, PowerSmoothed(1.0, 0.5), 1e-4),
        (GammaSub(1.0, 1.0), Affine(0.0, 1.0), 1e-2),
    ], ids=["cpp-powersmoothed", "gamma-affine"])
    def test_grid_engine_agrees_in_law_with_walker(self, levy, rel, eps, slab,
                                                   monkeypatch):
        # at _SLAB = 256 each segment of 2000 lanes spans several slabs
        if slab is not None:
            monkeypatch.setattr(simulator, "_SLAB", slab)
        grid = (0.5, 1.0, 2.0, 4.0)
        lanes = grid_ensemble(levy, rel, 2.0, grid, 2000, SEED, eps)
        cfg = PathConfig(2.0, 4.0, Grid(grid), seed=SEED, truncation_eps=eps)
        walked = simulate_ensemble(levy, rel, cfg, 2000)
        # paths without jumps form an atom, which the lane engine reaches
        # through several slab steps and so in other last bits; KS needs
        # the atom at one value in both samples
        for a, b in zip(np.round(lanes, 9).T, np.round(walked, 9).T):
            assert stats.ks_2samp(a, b).pvalue > 1e-3

    def test_grid_engine_memory_bounded(self):
        # 2e7 jumps in one chunk: slabs keep the padded matrices small
        tracemalloc.start()
        try:
            grid_ensemble(CompoundPoisson(100.0, Exponential(1.0)),
                          Constant(120.0), 0.0, [100.0], 2000, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
