"""Estimator checks against independently derived stationary oracles.

Oracles, derived before the estimators existed:
  * constant drain a with Poisson(lam)/Exp(mu) input: level crossings give
    pi_bar(u) = rho e^{-(mu - lam/a) u} with rho = lam/(a mu)
    (a p(u) = lam e^{-mu u} (1-rho) + lam int e^{-mu(u-y)} dpi checks out);
  * linear drain r(u) = b u with the same input: the stationary Laplace
    transform exp(int_0^s psi(w)/(b w) dw) is (1+s/mu)^{-lam/b}, i.e. a
    Gamma(lam/b, mu) law, so pi_bar(2) = 3 e^{-2} for lam=2, b=mu=1.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from storagelab import ergodicity_lab
from storagelab.cli import main
from storagelab.errors import MomentConditionFailed, NotStationaryRegime
from storagelab.ergodicity_lab import (
    compare_rates,
    estimate_tail,
    estimate_tv_decay,
    estimate_wp_decay,
    stationary_tail,
    w1_cdf_area,
    wasserstein_1d,
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
from storagelab.lyapunov import (
    GapBound,
    PowerModulus,
    RateFunction,
    build_certificate,
    tv_lower_rate,
)
from storagelab.presets import load_preset, preset_names
from storagelab.release_rate import (
    Affine,
    Constant,
    PowerSmoothed,
    RateAsymptotics,
    signed_drain_time,
)
from storagelab import simulator
from storagelab.rng import substream
from storagelab.simulator import grid_ensemble

from event_stream import flat_events

SEED = 20260810
MM1 = (CompoundPoisson(1.0, Exponential(1.0)), Constant(2.0))
SHOTNOISE = (CompoundPoisson(2.0, Exponential(1.0)), Affine(0.0, 1.0))


def mm1_tail(u):
    return 0.5 * math.exp(-0.5 * u)


def shotnoise_tail(u):
    return (1.0 + u) * math.exp(-u)


def _segment_tails(levy, release, u_grid, budget, seed, eps, certificate):
    """The slow reference of ``_occupation_tails``: the chains' jumps as one
    event list, each segment running from a jump at t to its lane's next
    jump or to the chain's end, integrated from the state after the jump;
    of its time above a level, all at its start, the part past the burn-in
    counts (less max(0, burn - t), and at least 0)."""
    lanes = ergodicity_lab._LONGRUN_LANES
    lane_window = budget / lanes
    burn = ergodicity_lab._burn_in(budget, certificate)
    total = burn + lane_window
    lane, t, _, x = flat_events(levy, release, 0.0, total, lanes, seed, eps)
    end = np.full(t.shape, total)
    nxt = lane[1:] == lane[:-1]  # the next jump is on the same lane
    end[:-1][nxt] = t[1:][nxt]
    g_x, dur, before = signed_drain_time(release, x), end - t, np.maximum(burn - t, 0.0)
    occ = np.empty((lanes, len(u_grid)))
    for j, gu in enumerate(signed_drain_time(release, u_grid)):
        above = np.minimum(np.maximum(g_x - gu, 0.0), dur)
        occ[:, j] = np.bincount(lane, weights=np.maximum(above - before, 0.0),
                                minlength=lanes)
    return occ / lane_window


# the presets whose tail the occupation chains estimate
OCCUPATION_PRESETS = [
    name for name in preset_names()
    if ergodicity_lab._occupies(load_preset(name).levy, load_preset(name).release,
                                load_preset(name).truncation_eps)]


class TestEstimateTail:
    def test_mm1_longrun(self):
        grid = np.array([1.0, 2.0, 4.0])
        est = estimate_tail(*MM1, grid, 30_000,
                            seed=SEED, regime="PositiveRecurrent")
        for u, p, s in zip(est.levels, est.pi_bar_hat, est.stderr):
            assert abs(p - mm1_tail(u)) <= 3 * s

    def test_mm1_endpoint(self):
        # the chains estimate_tail reads for an input with drift
        cert = build_certificate(*MM1, RateFunction.linear(0.5))
        grid = np.array([1.0, 2.0, 4.0])
        per_chain, method = ergodicity_lab._endpoint_tails(
            *MM1, grid, 20_000, SEED, 1e-4, cert)
        assert method.startswith("EnsembleEndpoint(T=")
        pibar = per_chain.mean(axis=0)
        se = per_chain.std(axis=0, ddof=1) / math.sqrt(len(per_chain))
        for u, p, s in zip(grid, pibar, se):
            assert abs(p - mm1_tail(u)) <= 3.5 * s

    def test_mm1_occupation_chains(self):
        # estimate_tail reads M/M/1's exact law, so the long-run chains are
        # checked against it here, as test_mm1_endpoint checks the ensemble
        grid = np.array([1.0, 2.0, 4.0])
        per_chain, method = ergodicity_lab._occupation_tails(
            *MM1, grid, 30_000, SEED, 1e-4, None)
        assert method.startswith("LongRunTimeAverage(")
        pibar = per_chain.mean(axis=0)
        se = per_chain.std(axis=0, ddof=1) / math.sqrt(len(per_chain))
        for u, p, s in zip(grid, pibar, se):
            assert abs(p - mm1_tail(u)) <= 3 * s

    def test_shotnoise_gamma(self):
        est = estimate_tail(*SHOTNOISE, np.array([2.0]),
                            30_000, seed=SEED, regime="PositiveRecurrent")
        assert abs(est.pi_bar_hat[0] - 3 * math.exp(-2.0)) <= 3 * est.stderr[0]

    def test_level_zero_bounded(self):
        est = estimate_tail(*MM1, np.array([1e-9, 1.0]),
                            10_000, seed=SEED, regime="PositiveRecurrent")
        # emptiness has positive probability, so P(X > 0) < 1
        assert est.pi_bar_hat[0] < 1.0
        assert est.pi_bar_hat[0] > est.pi_bar_hat[1]

    def test_monotone_after_isotonic(self):
        # no correction pass: per-chain fractions above a level cannot grow
        # with it, and their mean keeps that order exactly, on both paths
        grid = np.geomspace(0.5, 8.0, 12)
        gamma = load_preset("gamma-linear")
        for levy, rel, eps in (MM1 + (1e-4,),
                               (gamma.levy, gamma.release,
                                gamma.truncation_eps)):
            est = estimate_tail(levy, rel, grid, 5_000, seed=SEED, eps=eps,
                                regime="PositiveRecurrent")
            assert (np.diff(est.pi_bar_hat) <= 0).all()
            assert ((est.pi_bar_hat >= 0) & (est.pi_bar_hat <= 1)).all()

    def test_transient_hard_error(self):
        levy, rel = StableSub(0.3, 1.0), PowerSmoothed(1.0, 0.3)
        with pytest.raises(NotStationaryRegime):
            estimate_tail(levy, rel, np.array([1.0]), 2_000,
                          seed=SEED)

    def test_shift_consistency(self):
        grid = np.array([1.0, 2.0, 4.0])
        a = estimate_tail(*MM1, grid, 20_000, seed=11,
                          regime="PositiveRecurrent")
        b = estimate_tail(*MM1, grid, 20_000, seed=22,
                          regime="PositiveRecurrent")
        joint = np.sqrt(a.stderr ** 2 + b.stderr ** 2)
        assert (np.abs(a.pi_bar_hat - b.pi_bar_hat) <= 6 * joint).all()

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            estimate_tail(*MM1, np.array([1.0]), 100,
                          seed=SEED, regime="PositiveRecurrent")

    @pytest.mark.parametrize("grid", [[], [4.0, 1.0, 2.0], [1.0, 1.0]],
                             ids=["empty", "unsorted", "repeated"])
    def test_level_grid_must_increase(self, grid):
        # the estimate is non-increasing only along increasing levels
        with pytest.raises(ValueError, match="strictly increasing"):
            estimate_tail(*MM1, np.array(grid), 20_000,
                          seed=SEED, regime="PositiveRecurrent")

    def test_default_burnin_without_certificate(self):
        # no certificate: each of the 16 chains burns a fifth of its
        # window, 20_000 / 16 / 5 = 250, and the estimate still hits the
        # oracle
        grid = np.array([1.0, 2.0])
        est = estimate_tail(*SHOTNOISE, grid, 20_000,
                            seed=SEED, regime="PositiveRecurrent")
        assert est.method.endswith("burn=250)")
        for u, p, s in zip(est.levels, est.pi_bar_hat, est.stderr):
            assert abs(p - shotnoise_tail(u)) <= 4 * s
        # a certificate caps it at 10 / drift margin (0.9998 here)
        cert = build_certificate(*SHOTNOISE, RateFunction.linear(0.5))
        est = estimate_tail(*SHOTNOISE, grid, 20_000, seed=SEED,
                            certificate=cert, regime="PositiveRecurrent")
        assert est.method.endswith("burn=10.002)")

    @pytest.mark.parametrize("name", OCCUPATION_PRESETS)
    def test_occupation_matches_segments(self, name):
        # at these budgets each chain is one slab, whose steps are the
        # segments between jumps: the two sums agree to rounding.  A
        # duration carries the rounding of times up to the chain's end, so
        # the bound is relative to the largest fraction, not to each one
        scen = load_preset(name)
        grid = np.asarray(scen.grids["u_grid"])
        cert = (build_certificate(scen.levy, scen.release, scen.phi)
                if scen.phi is not None else None)
        for c in (None, cert):
            steps, _ = ergodicity_lab._occupation_tails(
                scen.levy, scen.release, grid, 20_000, SEED,
                scen.truncation_eps, c)
            ref = _segment_tails(scen.levy, scen.release, grid, 20_000, SEED,
                                 scen.truncation_eps, c)
            assert ref.max() > 0.0
            assert np.abs(steps - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize("slab", [50, simulator._SLAB],
                             ids=["edge-at-burn-in", "one-slab"])
    def test_occupation_cuts_steps_at_the_burn_in(self, slab, monkeypatch):
        # budget 4 000: each chain burns 50 and runs 250 more, in one slab
        # by default, or in 192 slabs of 50 jumps, an edge of which lands on
        # the burn-in.  A step that straddles the burn-in counts its part
        # past it either way, so both agree with the segments
        monkeypatch.setattr(simulator, "_SLAB", slab)
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        steps, method = ergodicity_lab._occupation_tails(
            *SHOTNOISE, grid, 4_000, 11, 1e-4, None)
        assert method.endswith("burn=50)")
        ref = _segment_tails(*SHOTNOISE, grid, 4_000, 11, 1e-4, None)
        assert steps == pytest.approx(ref, rel=1e-9)

    def test_occupation_memory_is_one_slab(self, monkeypatch):
        # slabs of 2^16 jumps, and a run of 4.8e5 across 8 of them: the
        # chains hold one slab's steps at a time, not the run's jumps
        monkeypatch.setattr(simulator, "_SLAB", 1 << 16)
        tracemalloc.start()
        try:
            estimate_tail(*SHOTNOISE, np.array([0.5, 1.0, 2.0, 4.0]), 200_000,
                          seed=SEED, regime="PositiveRecurrent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slab = 8 * simulator._SLAB  # bytes of one float per slab jump
        assert peak < 16 * slab < 4.8e5 * 32  # the run's events: 32 B a jump

    def test_sharp_constant_reads_the_exact_law(self):
        # constant release, compound-Poisson input: the tail is read off
        # the Pollaczek-Khinchine law, drawn exactly, where the occupation
        # chains were far too short for the heavy tail (0.0095 +- 0.0068).
        # The reference is independent: rho = 0.75, and a Geometric number
        # of integrated-tail draws, P(Y <= y) = y / 3 on [0, 1] and
        # 1 - (2 / 3) y^(-1/2) above
        levy, rel = CompoundPoisson(0.5, ParetoJumps(1.5)), Constant(2.0)
        est = estimate_tail(levy, rel, np.array([320.0]), 20_000, seed=SEED,
                            regime="PositiveRecurrent")
        assert est.method == "EnsembleEndpoint(T=inf)"
        gen, n = np.random.default_rng(SEED), 400_000
        count = gen.geometric(0.25, n) - 1
        v = gen.uniform(size=int(count.sum()))
        y = np.where(v < 1.0 / 3.0, 3.0 * v, (1.5 * (1.0 - v)) ** -2.0)
        x = np.bincount(np.repeat(np.arange(n), count), weights=y, minlength=n)
        p = (x > 320.0).mean()
        se = math.hypot(est.stderr[0], math.sqrt(p * (1.0 - p) / n))
        assert abs(est.pi_bar_hat[0] - p) <= 4.0 * se


class TestTvDecay:
    def test_self_distance_below_floor(self):
        # two stationary samples: TV estimate within the noise floor
        ref = grid_ensemble(*MM1, 0.0, [40.0], 20_000, SEED)[:, 0]
        curve_ref = grid_ensemble(*MM1, 0.0, [40.0], 20_000, SEED + 5)[:, 0]
        from storagelab.ergodicity_lab import _equal_mass_edges
        edges = _equal_mass_edges(ref, 64)
        p, q = (np.histogram(x, bins=edges)[0] / x.size for x in (curve_ref, ref))
        tv = 0.5 * np.abs(p - q).sum()
        assert tv <= math.sqrt(64 / 20_000)

    def test_distant_start_near_one(self):
        # equal-mass histograms saturate at 1 - 1/bins, so the 0.99 check
        # needs at least 128 bins to be reachable at all
        t_grid = np.array([0.05, 0.1, 0.2, 0.4])
        curve = estimate_tv_decay(*MM1, 1000.0, t_grid, 4_000, seed=SEED,
                                  bins=128, regime="PositiveRecurrent")
        assert (curve.values >= 0.99).all()

    def test_noise_floor_returns_curve_without_fit(self):
        # a stationary start stays within the noise floor: no fit, no raise
        t_grid = np.array([10.0, 20.0, 30.0, 40.0])
        curve = estimate_tv_decay(*MM1, 0.0, t_grid, 1_000, seed=SEED,
                                  regime="PositiveRecurrent")
        assert curve.fitted is None
        assert not curve.fit_mask.any()
        assert (curve.values <= 2.0 * curve.noise_floor).all()

    def test_power_sharp_exponent(self):
        levy, rel = CompoundPoisson(1.0, ParetoJumps(1.0)), PowerSmoothed(1.0, 0.5)
        t_grid = np.geomspace(2.0, 120.0, 16)
        curve = estimate_tv_decay(levy, rel, 0.0, t_grid, 20_000, seed=SEED,
                                  regime="PositiveRecurrent")
        assert -1.5 <= curve.fitted.exponent <= -0.5

    def test_sharp_constant_scenario_end_to_end(self):
        # bounded drain, Pareto(1.5) input: tail and TV decay are both
        # u (resp. t) to the power 1 - alpha = -1/2
        from storagelab.numerics import fit_loglog
        sc = (CompoundPoisson(0.5, ParetoJumps(1.5)), Constant(2.0))
        grid = np.geomspace(20.0, 1280.0, 13)
        est = estimate_tail(*sc, grid, 3_000_000, seed=SEED,
                            regime="PositiveRecurrent")
        tail_fit = fit_loglog(est.levels, est.pi_bar_hat)
        assert abs(tail_fit.exponent - (-0.5)) <= 0.3, tail_fit.exponent
        t_grid = np.geomspace(2.0, 200.0, 16)
        curve = estimate_tv_decay(*sc, 0.0, t_grid, 30_000, seed=SEED,
                                  regime="PositiveRecurrent")
        assert curve.fitted is not None
        assert abs(curve.fitted.exponent - (-0.5)) <= 0.3, curve.fitted.exponent

    def test_monotone_load(self):
        # larger start never decreases the early TV estimate
        t_grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
        vals = {}
        for x0 in (2.0, 20.0):
            vals[x0] = estimate_tv_decay(*MM1, x0, t_grid, 8_000, seed=SEED,
                                         regime="PositiveRecurrent")
        big, small = vals[20.0], vals[2.0]
        joint = np.sqrt(big.stderr ** 2 + small.stderr ** 2)
        assert (big.values[:3] >= small.values[:3] - 2 * joint[:3]).all()


class TestStationaryReference:
    def test_shape(self):
        for n in (1, 16, 17, 100):
            ref, t_ref = ergodicity_lab._stationary_reference(*SHOTNOISE, n, 5.0,
                                                              None, SEED, 1e-4)
            assert t_ref == ergodicity_lab._T_MIN
            assert ref.shape == (max(2, math.ceil(n / ergodicity_lab._REF_K)),
                                 ergodicity_lab._REF_K)
        # past the endpoint horizon, twice the last compared time decides
        assert ergodicity_lab._stationary_reference(*SHOTNOISE, 1, 30.0, None,
                                                    SEED, 1e-4)[1] == 60.0

    def test_estimators_draw_their_reference_from_long_chains(self, monkeypatch):
        calls = []
        real = ergodicity_lab.grid_ensemble

        def spy(levy, release, x0, grid, n_paths, seed, eps=1e-4):
            calls.append((len(grid), n_paths, seed))
            return real(levy, release, x0, grid, n_paths, seed, eps)

        monkeypatch.setattr(ergodicity_lab, "grid_ensemble", spy)
        t_grid = np.array([1.0, 2.0, 4.0])
        k = ergodicity_lab._REF_K
        estimate_tv_decay(*SHOTNOISE, 5.0, t_grid, 100, seed=SEED,
                          regime="PositiveRecurrent")
        estimate_wp_decay(*SHOTNOISE, 5.0, 1.0, t_grid, 100, seed=SEED,
                          regime="PositiveRecurrent")
        reference = (k, math.ceil(200 / k), SEED + 1)
        assert calls == [reference, (3, 100, SEED)] * 2
        # M/M/1's reference is drawn exactly: the ensemble is the only chain
        calls.clear()
        estimate_tv_decay(*MM1, 5.0, t_grid, 100, seed=SEED,
                          regime="PositiveRecurrent")
        assert calls == [(3, 100, SEED)]
        # the tail of an input with drift reads the chains alone
        calls.clear()
        gamma = load_preset("gamma-linear")
        estimate_tail(gamma.levy, gamma.release, np.array([1.0, 2.0]), 1_000,
                      seed=SEED, eps=gamma.truncation_eps,
                      regime="PositiveRecurrent")
        assert calls == [(k, math.ceil(1_000 / k), SEED)]

    @pytest.mark.parametrize("shape", [(40, 16), (300,)])
    def test_lane_counts_add_up_to_the_histogram(self, shape):
        from storagelab.ergodicity_lab import (
            _as_lanes, _equal_mass_edges, _lane_counts)
        # MM1's stationary law has an atom at 0, so draws sit on an edge
        ref, _ = ergodicity_lab._stationary_reference(*MM1, 640, 0.0, None, SEED, 1e-4)
        ref = ref.ravel()[:np.prod(shape)].reshape(shape)
        lanes = _as_lanes(ref)
        edges = _equal_mass_edges(ref.ravel(), 32)
        counts = _lane_counts(lanes, edges)
        assert counts.shape == (len(lanes), len(edges) - 1)
        assert (counts.sum(axis=1) == lanes.shape[1]).all()
        np.testing.assert_array_equal(
            counts.sum(axis=0), np.histogram(ref.ravel(), bins=edges)[0])
        # a column per lane, as the TV estimator counts its time columns
        np.testing.assert_array_equal(
            _lane_counts(lanes.T, edges),
            [np.histogram(col, bins=edges)[0] for col in lanes.T])

    def test_wp_floor_compares_disjoint_lanes(self):
        # an odd lane count: the split drops the last lane, where ravelling
        # and halving would put one lane on both sides
        lanes = np.repeat([[0.0], [1.0], [5.0]], 2, axis=1)
        a, b = ergodicity_lab._lane_halves(lanes)
        np.testing.assert_array_equal(a, [0.0, 0.0])
        np.testing.assert_array_equal(b, [1.0, 1.0])
        curve = estimate_wp_decay(*SHOTNOISE, 5.0, 1.0,
                                  np.array([1.0, 2.0]), 100, seed=SEED,
                                  reference=lanes, regime="PositiveRecurrent")
        assert curve.noise_floor == 1.0

    def test_mm1_tail_matches_the_oracle(self):
        # the long-chain reference of `converge-tv preset:constant-mm1`
        # against the preset's closed-form stationary tail; a level no
        # draw reaches is off by at most one draw's mass
        from storagelab.cli import _context_certificate
        scen = load_preset("constant-mm1")
        oracle = stationary_tail(scen.levy, scen.release)
        ref, _ = ergodicity_lab._stationary_reference(
            scen.levy, scen.release, 2 * scen.budgets["n_paths"],
            scen.grids["t_grid"][-1], _context_certificate(scen),
            scen.seed + 1, scen.truncation_eps)
        u = np.asarray(scen.grids["u_grid"])
        per_lane = (ref[:, :, None] > u).mean(axis=1)  # (lanes, levels)
        m = len(ref)
        weights = np.random.default_rng(SEED).multinomial(
            m, np.full(m, 1.0 / m), ergodicity_lab.N_BOOT)
        se = (weights @ per_lane / m).std(axis=0, ddof=1)
        gap = np.abs(per_lane.mean(axis=0) - oracle(u))
        assert (gap <= 5.0 * se + 1.0 / ref.size).all(), (gap, se)


class TestStationaryTail:
    """The closed-form tails ``tail`` writes as its reference column."""

    @pytest.mark.parametrize("lam, b, mu", [
        (2.0, 1.0, 1.0), (2.0, 2.0, 1.0), (0.3, 1.0, 2.0), (1.0, 0.02, 0.5),
        (7.0, 2.0, 3.0), (1.0, 1e-3, 1.0)])
    def test_shot_noise_is_the_gamma_tail(self, lam, b, mu):
        # Gamma(lam / b, mu) against scipy's regularized upper incomplete
        # gamma, over levels on both sides of the mean lam / (b mu)
        from scipy.special import gammaincc
        tail = stationary_tail(CompoundPoisson(lam, Exponential(mu)),
                               Affine(0.0, b))
        u = np.concatenate(([0.0], np.geomspace(1e-4, 50.0 * lam / (b * mu), 80)))
        want = gammaincc(lam / b, mu * u)
        live = want > 1e-280
        assert tail(u)[live] == pytest.approx(want[live], rel=1e-10)

    def test_mm1_and_models_without_a_closed_form(self):
        tail = stationary_tail(CompoundPoisson(0.5, Exponential(1.0)), Constant(2.0))
        u = np.array([0.5, 1.0, 4.0])
        assert tail(u) == pytest.approx(0.25 * np.exp(-0.75 * u), rel=1e-15)
        for levy, rel in [(CompoundPoisson(2.0, Exponential(1.0)), Constant(2.0)),
                          (CompoundPoisson(1.0, ParetoJumps(1.5)), Constant(2.0)),
                          (CompoundPoisson(2.0, DeterministicJumps(1.0)), Affine(0.0, 1.0)),
                          (CompoundPoisson(2.0, Exponential(1.0)), Affine(1.0, 1.0)),
                          (GammaSub(1.0, 1.0), Affine(0.0, 1.0))]:
            assert stationary_tail(levy, rel) is None


class TestPollaczekKhinchine:
    """Constant release with compound-Poisson input draws its reference from
    the Pollaczek-Khinchine law: a Geometric(rho) sum of integrated-tail
    draws, rho = m_nu / a."""

    @pytest.mark.parametrize("jump, tail", [
        (Exponential(1.5), lambda y: np.exp(-1.5 * y)),
        # mean 3; mass 1/3 uniform below xm = 1, then (y / xm)^(-1/2) / 1.5
        (ParetoJumps(1.5), lambda y: np.where(y < 1.0, 1.0 - y / 3.0,
                                              y ** -0.5 / 1.5)),
        (ParetoJumps(3.0, 0.5), lambda y: np.where(y < 0.5, 1.0 - y / 0.75,
                                                   (y / 0.5) ** -2.0 / 3.0)),
        (DeterministicJumps(2.0), lambda y: np.clip(1.0 - y / 2.0, 0.0, 1.0)),
    ], ids=["exp", "pareto-1.5", "pareto-3", "deterministic"])
    def test_integrated_tail_sampler_matches_its_tail(self, jump, tail):
        # P(Y > y) = int_y^inf P(J > u) du / E[J], in closed form
        n = 200_000
        y = jump.sample_integrated_tail(substream(SEED, "it"), n)
        assert y.shape == (n,) and (y >= 0.0).all()
        levels = np.quantile(y, [0.05, 0.25, 0.5, 0.75, 0.95, 0.999])
        p = tail(levels)
        gap = np.abs((y[:, None] > levels).mean(axis=0) - p)
        assert (gap <= 5.0 * np.sqrt(p * (1.0 - p) / n)).all(), (gap, p)

    @pytest.mark.parametrize("name", ["constant-mm1", "sharp-constant"])
    def test_atom_at_zero_is_one_minus_rho(self, name):
        scen = load_preset(name)
        rho = scen.levy.first_moment() / scen.release.a
        ref, t_ref = ergodicity_lab._stationary_reference(
            scen.levy, scen.release, 32_000, 0.0, None, SEED, 1e-4)
        assert t_ref == math.inf and ref.shape == (2_000, ergodicity_lab._REF_K)
        atom = (ref == 0.0).mean()
        assert abs(atom - (1.0 - rho)) <= 5.0 * math.sqrt(rho * (1.0 - rho)
                                                          / ref.size), atom

    def test_chains_agree_with_the_exact_draw(self):
        # the slow reference, long chains from 0 as every other model gets
        # them, against the exact draw in 64-bin TV: within the chains' own
        # noise, which the TV between their two halves of lanes doubles
        from storagelab.ergodicity_lab import _equal_mass_edges
        chains = grid_ensemble(*MM1, 0.0,
                               ergodicity_lab._reference_grid(40.0), 2_000, SEED)
        exact, _ = ergodicity_lab._stationary_reference(*MM1, 200_000, 0.0,
                                                        None, SEED, 1e-4)
        edges = _equal_mass_edges(exact.ravel(), 64)

        def tv(a, b):
            return 0.5 * np.abs(np.histogram(a, bins=edges)[0] / a.size
                                - np.histogram(b, bins=edges)[0] / b.size).sum()

        assert tv(chains, exact) <= tv(chains[:1_000], chains[1_000:])

    def test_load_at_or_above_one_keeps_the_chains(self):
        null = (CompoundPoisson(2.0, Exponential(1.0)), Constant(2.0))
        heavy = (CompoundPoisson(1.0, ParetoJumps(1.0)), Constant(2.0))
        for model in (null, heavy):
            assert ergodicity_lab._stationary_reference(
                *model, 16, 0.0, None, SEED, 1e-4)[1] == ergodicity_lab._T_MIN

    @pytest.mark.parametrize("model", [MM1, SHOTNOISE], ids=["exact", "chains"])
    def test_reference_draws_counts_what_is_drawn(self, model, monkeypatch):
        # the work bound's count against the draws the reference makes: jump
        # sizes for the chains, the counts and integrated-tail sizes for the
        # exact law; both are Poisson-like totals, so 5 sqrt(count) apart
        drawn = []
        jump = type(model[0].jump)
        for cls, name in ((CompoundPoisson, "sample_sizes"),
                          (jump, "sample_integrated_tail")):
            real = getattr(cls, name)

            def spy(self, gen, n, *rest, real=real):
                drawn.append(n)
                return real(self, gen, n, *rest)

            monkeypatch.setattr(cls, name, spy)
        n, t_last = 4_000, 5.0
        expected = ergodicity_lab.reference_draws(*model, n, t_last, None, 1e-4)
        ref, _ = ergodicity_lab._stationary_reference(*model, n, t_last, None,
                                                      SEED, 1e-4)
        total = sum(drawn) + (ref.size if model is MM1 else 0)
        assert abs(total - expected) <= 5.0 * math.sqrt(expected), (total,
                                                                    expected)

    @pytest.mark.parametrize("model", [MM1, SHOTNOISE], ids=["exact", "chains"])
    def test_reference_draws_counts_the_lanes_drawn(self, model):
        # the work bound reads the lane count the reference draws, two at
        # the least: a lane of the exact law makes _REF_K / (1 - rho) draws
        # (rho = 1/2), a chain rate 2 times its last record time t_ref 31/16
        k = ergodicity_lab._REF_K
        for n in (1, 8, 16, 17, 100):
            ref, t_ref = ergodicity_lab._stationary_reference(
                *model, n, 5.0, None, SEED, 1e-4)
            per_lane = (2.0 * k if model is MM1
                        else 2.0 * t_ref * (2 * k - 1) / k)
            assert len(ref) >= 2
            assert ergodicity_lab.reference_draws(
                *model, n, 5.0, None, 1e-4) == pytest.approx(len(ref) * per_lane)


class TestWasserstein1d:
    def test_identical(self):
        x = np.random.default_rng(1).exponential(1.0, 500)
        assert wasserstein_1d(x, x) == 0.0

    def test_point_masses(self):
        for p in (1.0, 2.0, 3.0):
            assert wasserstein_1d(np.zeros(10), np.full(10, 2.5), p) == pytest.approx(2.5)

    def test_cdf_area_identity(self):
        rng = np.random.default_rng(5)
        for na, nb in ((500, 500), (500, 701), (64, 1000)):
            a = rng.exponential(1.0, na)
            b = rng.gamma(2.0, 1.0, nb)
            assert wasserstein_1d(a, b, 1.0) == pytest.approx(
                w1_cdf_area(a, b), abs=1e-12)

    def test_translation(self):
        rng = np.random.default_rng(6)
        a = rng.exponential(1.0, 400)
        assert wasserstein_1d(a, a + 3.0, 1.0) == pytest.approx(3.0, rel=1e-12)


class TestWpDecay:
    def test_shotnoise_bounded_by_contraction(self):
        bound = GapBound(PowerModulus(1.0), 1.0, 5.0)
        t_grid = np.linspace(0.25, 6.0, 12)
        curve = estimate_wp_decay(*SHOTNOISE, 5.0, 1.0, t_grid, 10_000,
                                  seed=SEED, contraction=bound,
                                  regime="PositiveRecurrent")
        assert curve.reference_curve is not None
        assert (curve.values <= curve.reference_curve + 3 * curve.stderr).all()

    def test_t_grid_is_required(self):
        # a t_grid=None default reached t_grid[-1] as a 0-d array (IndexError)
        with pytest.raises(TypeError, match="t_grid"):
            estimate_wp_decay(*SHOTNOISE, 0.0, 1.0, n_paths=100)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("n_ref", [900, 500])
    def test_values_are_wasserstein_1d_per_time(self, p, n_ref):
        # the reference sorted once, and the columns as the bootstrap sorts
        # them, give wasserstein_1d at each time bit for bit, and so do the
        # reference column's W_p(mu_0, pi), for a level and a start array
        bound = GapBound(PowerModulus(1.0), 1.0, 5.0)
        t_grid = np.array([0.5, 1.0, 2.0])
        ref = np.random.default_rng(4).exponential(1.0, n_ref)
        starts = np.random.default_rng(5).uniform(0.0, 10.0, 500)
        for x0 in (5.0, starts):
            curve = estimate_wp_decay(*SHOTNOISE, x0, p, t_grid, 500,
                                      seed=SEED, reference=ref,
                                      contraction=bound,
                                      regime="PositiveRecurrent")
            mat = grid_ensemble(*SHOTNOISE, x0, t_grid, 500, SEED)
            assert curve.values.tolist() == [wasserstein_1d(col, ref, p)
                                             for col in mat.T]
            start = np.full(256, x0) if np.ndim(x0) == 0 else x0
            w0 = wasserstein_1d(start, ref, p)
            assert curve.reference_curve.tolist() == [
                (w0 / bound.kappa + 1.0) * bound(t) for t in t_grid]

    def test_sampled_start_reference_is_w_of_the_start_law(self):
        # W1(mu_0, pi) of uniform(0, 10) starts from pi = Gamma(2, 1), not
        # of the law at t_grid[0] = 0.5 (about 1.82).  mu_0 is the starts'
        # empirical law, so the exact value is theirs (3.10 here; 3.00 for
        # the uniform law itself)
        from scipy import stats
        bound = GapBound(PowerModulus(1.0), 1.0, 5.0)
        t_grid = np.array([0.5, 1.0, 2.0, 4.0])
        starts = np.random.default_rng(SEED).uniform(0.0, 10.0, 4000)
        curve = estimate_wp_decay(*SHOTNOISE, starts, 1.0, t_grid, 4000,
                                  seed=SEED, contraction=bound,
                                  regime="PositiveRecurrent")
        w0 = (curve.reference_curve[0] / bound(0.5) - 1.0) * bound.kappa
        q = (np.arange(100_000) + 0.5) / 100_000
        exact = wasserstein_1d(starts, stats.gamma.ppf(q, 2.0))
        assert w0 == pytest.approx(exact, abs=0.1)

    def test_no_reference_when_release_fails_contraction(self):
        # a constant drain does not contract: r(u) - r(v) = 0 > -5 (v - u)
        bound = GapBound(PowerModulus(1.0), 5.0, 1.0)
        curve = estimate_wp_decay(*MM1, 0.0, 1.0, np.array([2.0, 4.0]),
                                  2_000, seed=SEED, contraction=bound,
                                  regime="PositiveRecurrent")
        assert curve.reference_curve is None
        assert np.isfinite(curve.values).all()

    def test_coupling_bounds_w1_from_above(self):
        # lanes from 0 and lanes from stationary draws y see the same jumps
        # (starts draw nothing), so the mean coupled gap bounds
        # W1(law at t, pi) from above; the estimate may sit below it by its
        # stderr and its noise floor
        scen = load_preset("shotnoise-gamma")
        levy, rel, n = scen.levy, scen.release, 4000
        t_grid = np.asarray(scen.grids["t_grid"])
        y = np.random.default_rng(SEED).gamma(2.0, 1.0, n)  # pi is Gamma(2, 1)
        gap = np.abs(grid_ensemble(levy, rel, 0.0, t_grid, n, SEED)
                     - grid_ensemble(levy, rel, y, t_grid, n, SEED))
        upper = gap.mean(axis=0) + 3 * gap.std(axis=0, ddof=1) / math.sqrt(n)
        curve = estimate_wp_decay(levy, rel, 0.0, 1.0, t_grid, n,
                                  seed=SEED, regime="PositiveRecurrent")
        above = curve.values > 2 * curve.noise_floor
        assert above.sum() >= 4
        lower = curve.values - 3 * curve.stderr - curve.noise_floor
        assert (lower[above] <= upper[above]).all(), (lower, upper)

    def test_moment_gate(self):
        levy = CompoundPoisson(1.0, ParetoJumps(1.5))
        with pytest.raises(MomentConditionFailed):
            estimate_wp_decay(levy, PowerSmoothed(1.0, 0.5), 1.0, 2.0,
                              np.array([1.0, 2.0]), 2_000, seed=SEED,
                              regime="PositiveRecurrent")
        # under constant release pi's tail is the jumps' integrated tail,
        # u^(-1/2) on sharp-constant: no first moment, so W_1 to pi is
        # infinite
        with pytest.raises(MomentConditionFailed):
            estimate_wp_decay(CompoundPoisson(0.5, ParetoJumps(1.5)),
                              Constant(2.0), 1.0, 1.0,
                              np.array([1.0, 2.0]), 2_000, seed=SEED,
                              regime="PositiveRecurrent")
        steep = CompoundPoisson(1.0, ParetoJumps(2.5))
        curve = estimate_wp_decay(steep, Constant(2.0), 1.0, 1.0,
                                  np.array([1.0, 2.0]), 2_000, seed=SEED,
                                  regime="PositiveRecurrent")
        assert np.isfinite(curve.values).all()
        # a bounded release (general-bounded's plateau) slows pi's tail to
        # u^(1 - alpha) as a constant one does: no W_1 under Pareto(1.5)
        # jumps, though they have a mean and the chains would stop short
        general = load_preset("general-bounded")
        with pytest.raises(MomentConditionFailed):
            estimate_wp_decay(CompoundPoisson(0.5, ParetoJumps(1.5)),
                              general.release, 1.0, 1.0,
                              np.array([1.0, 2.0]), 2_000, seed=SEED,
                              regime="PositiveRecurrent")

    def test_moment_gate_order(self, monkeypatch):
        # the jump moment checked is of order p + max(0, 1 - beta) for a
        # release growing as u^beta, bounded ones at beta = 0, and of order
        # p for affine releases; asymptotics with no exponent are refused
        class Checked(Exception):
            pass

        def guard(levy, order):
            raise Checked(order)

        monkeypatch.setattr(ergodicity_lab, "_wp_moment_guard", guard)

        def order(release, p):
            with pytest.raises(Checked) as exc:
                estimate_wp_decay(SHOTNOISE[0], release, 1.0, p,
                                  np.array([1.0]), 100, seed=SEED)
            return exc.value.args[0]

        assert order(load_preset("general-bounded").release, 1.0) == 2.0
        assert order(Constant(2.0), 2.0) == 3.0
        assert order(PowerSmoothed(1.0, 0.5), 1.0) == 1.5
        assert order(Affine(0.0, 1.0), 2.0) == 2.0
        for name in ("shotnoise-gamma", "gamma-linear"):
            assert order(load_preset(name).release, 1.0) == 1.0
        with pytest.raises(ValueError):
            RateAsymptotics("unknown")

    def test_sampled_initial_law(self):
        t_grid = np.linspace(0.5, 4.0, 8)
        mu0 = np.random.default_rng(SEED).uniform(0.0, 10.0, 5_000)
        curve = estimate_wp_decay(*SHOTNOISE, mu0, 1.0, t_grid, 5_000,
                                  seed=SEED, regime="PositiveRecurrent")
        assert (np.diff(curve.values) <= 2 * (curve.stderr[1:] + curve.stderr[:-1])).all()

    @pytest.mark.parametrize("model", [MM1, SHOTNOISE], ids=["exact", "chains"])
    def test_few_paths_give_a_finite_floor(self, model):
        # 2 n_paths <= 16 reference draws still fill two lanes, so the floor
        # compares two halves that are not empty, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = estimate_wp_decay(*model, 5.0, 1.0,
                                      np.linspace(0.5, 4.0, 8), 4, seed=SEED,
                                      regime="PositiveRecurrent")
        assert math.isfinite(curve.noise_floor) and curve.noise_floor > 0.0

    def test_second_order(self):
        # p = 2 needs the second jump moment, which Exp(1) jumps provide
        t_grid = np.linspace(0.5, 4.0, 8)
        curve = estimate_wp_decay(*SHOTNOISE, 5.0, 2.0, t_grid, 5_000,
                                  seed=SEED, regime="PositiveRecurrent")
        assert curve.metric == "W2"
        assert (curve.values >= 0).all()
        assert curve.values[-1] < curve.values[0]

    def test_bootstrap_blocks_match_one_matrix(self, monkeypatch):
        # ragged blocks of 7 replicates draw the same resamples, hence the
        # same stderr bit for bit, as one (N_BOOT, n_paths) matrix
        t_grid = np.array([0.5, 2.0])
        ref = np.random.default_rng(4).exponential(1.0, 900)
        stderr = []
        for cells in (ergodicity_lab.N_BOOT * 500, 7 * 500 + 3):
            monkeypatch.setattr(ergodicity_lab, "_BOOT_CELLS", cells)
            curve = estimate_wp_decay(*SHOTNOISE, 5.0, 2.0, t_grid, 500,
                                      seed=SEED, reference=ref,
                                      regime="PositiveRecurrent")
            stderr.append(curve.stderr)
        assert (stderr[0] > 0).all()
        np.testing.assert_array_equal(stderr[0], stderr[1])

    @staticmethod
    def _ref_quantiles(ref, n):
        ref = np.sort(ref)
        q = (np.arange(n) + 0.5) / n
        return ref[np.minimum((q * ref.size).astype(np.int64), ref.size - 1)]

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_bootstrap_resamples_paths_jointly(self, monkeypatch, p):
        # the naive joint bootstrap: each block of resampled paths, its
        # values at every time sorted as floats; blocks of 7 are ragged
        cells, n = 7 * 500 + 3, 500
        monkeypatch.setattr(ergodicity_lab, "_BOOT_CELLS", cells)
        t_grid = np.array([0.5, 1.0, 2.0])
        ref = np.random.default_rng(4).exponential(1.0, 900)
        curve = estimate_wp_decay(*SHOTNOISE, 5.0, p, t_grid, n, seed=SEED,
                                  reference=ref, regime="PositiveRecurrent")
        mat = grid_ensemble(*SHOTNOISE, 5.0, t_grid, n, SEED)
        refq = self._ref_quantiles(ref, n)
        gen = substream(SEED, "wp-boot")
        boot = np.empty((t_grid.size, ergodicity_lab.N_BOOT))
        for r in range(0, ergodicity_lab.N_BOOT, cells // n):
            ridx = gen.integers(0, n, (min(cells // n,
                                           ergodicity_lab.N_BOOT - r), n))
            for j in range(t_grid.size):
                bs = np.sort(mat[ridx, j], axis=1)
                boot[j, r:r + len(bs)] = ((np.abs(bs - refq) ** p).mean(axis=1)
                                          ** (1.0 / p))
        np.testing.assert_array_equal(curve.stderr,
                                      [row.std(ddof=1) for row in boot])

    def test_bootstrap_first_time_matches_per_time_scheme(self):
        # the first time point draws the same blocks it drew when every time
        # had a bootstrap of its own, so its stderr has not moved
        n, t_grid = 500, np.array([0.5, 1.0, 2.0])
        ref = np.random.default_rng(4).exponential(1.0, 900)
        curve = estimate_wp_decay(*SHOTNOISE, 5.0, 1.0, t_grid, n, seed=SEED,
                                  reference=ref, regime="PositiveRecurrent")
        col = grid_ensemble(*SHOTNOISE, 5.0, t_grid, n, SEED)[:, 0]
        ridx = substream(SEED, "wp-boot").integers(
            0, n, (ergodicity_lab.N_BOOT, n))
        boot = np.abs(np.sort(col[ridx], axis=1)
                      - self._ref_quantiles(ref, n)).mean(axis=1)
        assert curve.stderr[0] == boot.std(ddof=1)

    def test_bootstrap_memory_bounded(self):
        # one (N_BOOT, 20000) matrix of resamples is 30.5 MiB, and the
        # bootstrap used to hold several such arrays at once
        ref = np.random.default_rng(4).exponential(1.0, 40_000)
        tracemalloc.start()
        try:
            estimate_wp_decay(*SHOTNOISE, 5.0, 1.0, np.array([0.5, 1.0]),
                              20_000, seed=SEED, reference=ref,
                              regime="PositiveRecurrent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_bootstrap_memory_bounded_eight_times(self):
        # the ranks of all eight columns are held at once, beside the block
        ref = np.random.default_rng(4).exponential(1.0, 40_000)
        tracemalloc.start()
        try:
            estimate_wp_decay(*SHOTNOISE, 5.0, 1.0, np.linspace(0.5, 4.0, 8),
                              20_000, seed=SEED, reference=ref,
                              regime="PositiveRecurrent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestCompareRates:
    def test_sharp_power_pass(self):
        levy, rel = CompoundPoisson(1.0, ParetoJumps(1.0)), PowerSmoothed(1.0, 0.5)
        cert = build_certificate(levy, rel, RateFunction.power(0.45))
        lower = tv_lower_rate(levy, rel, eps=0.1, a_h=0.9, x=1.0)
        t_grid = np.geomspace(2.0, 120.0, 16)
        curve = estimate_tv_decay(levy, rel, 0.0, t_grid, 20_000, seed=SEED,
                                  certificate=cert, regime="PositiveRecurrent")
        rep = compare_rates(curve, certificate=cert, lower=lower, eps=0.1)
        assert rep.verdict == "PASS"
        assert rep.predicted_lower <= rep.fitted <= rep.predicted_upper + rep.tol

    def test_geometric_vs_polynomial_diagnostic(self):
        levy, rel = MM1
        cert = build_certificate(levy, rel, RateFunction.linear(0.5))
        t_grid = np.linspace(1.0, 14.0, 14)
        curve = estimate_tv_decay(levy, rel, 30.0, t_grid, 8_000, seed=SEED,
                                  certificate=cert, regime="PositiveRecurrent")
        if curve.fitted is not None:
            rep = compare_rates(curve, certificate=cert)
            assert rep.predicted_upper == -math.inf
            assert rep.verdict == "FAIL"  # diagnostic mismatch path
            assert "geometric" in rep.note


class TestTailScaleSelection:
    def test_gamma_oracle_slope(self):
        # the shot-noise stationary law is Gamma(2, 1), tail (1+u)e^{-u}:
        # the input's exponential tail puts the scale at u.  The estimate's
        # slope is the OLS slope of ln pi on u over the levels, not the
        # asymptotic rate -1, so the reference is the same OLS slope of the
        # oracle (-0.822 on these 13 levels).  OLS is linear, so this is the
        # check that the ln(1+u)-corrected rate is -1 +- 0.15.
        assert SHOTNOISE[0].asymptotics().kind == "exp"
        est = estimate_tail(*SHOTNOISE,
                            np.linspace(2.0, 8.0, 13), 100_000, seed=SEED,
                            regime="PositiveRecurrent")
        keep = est.pi_bar_hat > 0
        slope = np.polyfit(est.levels[keep], np.log(est.pi_bar_hat[keep]), 1)[0]
        ref = np.polyfit(est.levels, np.log1p(est.levels) - est.levels, 1)[0]
        assert abs(slope - ref) <= 0.15


class TestLaplaceCheck:
    """``laplace`` reads A(t) off the engine's own jumps."""

    @pytest.mark.parametrize("levy, eps", [
        (CompoundPoisson(3.0, Exponential(1.0)), 1e-4),
        (GammaSub(1.0, 1.0), 1e-4),
        (StableSub(0.9), 1e-2),
        (TemperedStableSub(0.5), 1e-3),
    ], ids=["cpp-exp", "gamma", "stable", "tempered-stable"])
    def test_totals_are_the_event_ensembles_jumps(self, levy, eps,
                                                  monkeypatch):
        # 8 292 lanes are two chunks; small slabs give each chunk several
        monkeypatch.setattr(simulator, "_SLAB", 1 << 14)
        n, t = 8292, 1.0
        assert simulator._CHUNK < n < 2 * simulator._CHUNK
        lane, _, size, _ = flat_events(levy, Constant(1.0), 0.0, t, n, SEED,
                                       eps)
        want = np.bincount(lane, size, minlength=n)
        want += levy.compensator_drift(eps) * t
        got = ergodicity_lab._input_totals(levy, t, n, SEED, eps)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("preset, sets", [
        ("shotnoise-gamma", []),
        ("plateau-null", []),
        ("gamma-linear", []),
        ("gamma-linear",
         ["--set", 'input={"family":"tempered_stable","alpha":0.5}']),
    ], ids=["shotnoise-gamma", "plateau-null", "gamma-linear",
            "tempered-stable"])
    def test_command_z_bounded_over_seeds(self, preset, sets, tmp_path):
        for seed in range(1, 11):
            out = tmp_path / str(seed)
            assert main(["laplace", f"preset:{preset}", *sets,
                         "--set", f"seed={seed}", "--out", str(out)]) == 0
            z = np.loadtxt(out / "laplace.csv", delimiter=",", skiprows=2,
                           usecols=4)
            assert np.abs(z).max() < 4.0, (seed, z)
