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

import numpy as np
import pytest

from storagelab import ergodicity_lab
from storagelab.errors import MomentConditionFailed, NotStationaryRegime
from storagelab.ergodicity_lab import (
    compare_rates,
    estimate_tail,
    estimate_tv_decay,
    estimate_wp_decay,
    select_tail_scale,
    w1_cdf_area,
    wasserstein_1d,
)
from storagelab.levy_input import (
    CompoundPoisson,
    Exponential,
    ParetoJumps,
    StableSub,
)
from storagelab.lyapunov import (
    GapBound,
    PowerModulus,
    RateFunction,
    build_certificate,
    tv_lower_rate,
)
from storagelab.presets import load_preset
from storagelab.release_rate import Affine, Constant, PowerSmoothed
from storagelab.rng import substream
from storagelab.simulator import grid_ensemble

SEED = 20260810
MM1 = (CompoundPoisson(1.0, Exponential(1.0)), Constant(2.0))
SHOTNOISE = (CompoundPoisson(2.0, Exponential(1.0)), Affine(0.0, 1.0))


def mm1_tail(u):
    return 0.5 * math.exp(-0.5 * u)


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
        est = estimate_tail(*MM1, grid, 20_000,
                            seed=SEED, regime="PositiveRecurrent")
        assert est.method.endswith("burn=250)")
        for u, p, s in zip(est.levels, est.pi_bar_hat, est.stderr):
            assert abs(p - mm1_tail(u)) <= 4 * s
        # a certificate caps it at 10 / drift margin
        cert = build_certificate(*MM1, RateFunction.linear(0.5))
        est = estimate_tail(*MM1, grid, 20_000, seed=SEED,
                            certificate=cert, regime="PositiveRecurrent")
        assert est.method.endswith("burn=30)")


class TestTvDecay:
    def test_self_distance_below_floor(self):
        # two stationary samples: TV estimate within the noise floor
        ref = grid_ensemble(*MM1, 0.0, [40.0], 20_000, SEED)[:, 0]
        curve_ref = grid_ensemble(*MM1, 0.0, [40.0], 20_000, SEED + 5)[:, 0]
        from storagelab.ergodicity_lab import _equal_mass_edges, _hist_probs
        edges = _equal_mass_edges(ref, 64)
        tv = 0.5 * np.abs(_hist_probs(curve_ref, edges) - _hist_probs(ref, edges)).sum()
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
            ref = ergodicity_lab._stationary_reference(*MM1, n, 5.0, SEED, 1e-4)
            assert ref.shape == (math.ceil(n / ergodicity_lab._REF_K),
                                 ergodicity_lab._REF_K)

    def test_estimators_draw_their_reference_from_long_chains(self, monkeypatch):
        calls = []
        real = ergodicity_lab.grid_ensemble

        def spy(levy, release, x0, grid, n_paths, seed, eps=1e-4):
            calls.append((len(grid), n_paths, seed))
            return real(levy, release, x0, grid, n_paths, seed, eps)

        monkeypatch.setattr(ergodicity_lab, "grid_ensemble", spy)
        t_grid = np.array([1.0, 2.0, 4.0])
        k = ergodicity_lab._REF_K
        estimate_tv_decay(*MM1, 5.0, t_grid, 100, seed=SEED,
                          regime="PositiveRecurrent")
        estimate_wp_decay(*SHOTNOISE, 5.0, 1.0, t_grid, 100, seed=SEED,
                          regime="PositiveRecurrent")
        reference = (k, math.ceil(200 / k), SEED + 1)
        assert calls == [reference, (3, 100, SEED)] * 2
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
            _as_lanes, _equal_mass_edges, _hist_probs, _lane_counts)
        # MM1's stationary law has an atom at 0, so draws sit on an edge
        ref = ergodicity_lab._stationary_reference(*MM1, 640, 20.0, SEED, 1e-4)
        ref = ref.ravel()[:np.prod(shape)].reshape(shape)
        lanes = _as_lanes(ref)
        edges = _equal_mass_edges(ref.ravel(), 32)
        counts = _lane_counts(lanes, edges)
        assert counts.shape == (len(lanes), len(edges) - 1)
        assert (counts.sum(axis=1) == lanes.shape[1]).all()
        np.testing.assert_array_equal(
            counts.sum(axis=0), _hist_probs(ref.ravel(), edges) * ref.size)

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
        from storagelab.cli import _context_certificate, _tail_oracle
        scen = load_preset("constant-mm1")
        oracle = _tail_oracle(scen)
        t_ref = max(2.0 * scen.grids["t_grid"][-1],
                    ergodicity_lab._endpoint_time(_context_certificate(scen)))
        ref = ergodicity_lab._stationary_reference(
            scen.levy, scen.release, 2 * scen.budgets["n_paths"], t_ref,
            scen.seed + 1, scen.truncation_eps)
        u = np.asarray(scen.grids["u_grid"])
        per_lane = (ref[:, :, None] > u).mean(axis=1)  # (lanes, levels)
        m = len(ref)
        weights = np.random.default_rng(SEED).multinomial(
            m, np.full(m, 1.0 / m), ergodicity_lab.N_BOOT)
        se = (weights @ per_lane / m).std(axis=0, ddof=1)
        gap = np.abs(per_lane.mean(axis=0) - [oracle(x) for x in u])
        assert (gap <= 5.0 * se + 1.0 / ref.size).all(), (gap, se)


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
        # (the sampler draws nothing), so the mean coupled gap bounds
        # W1(law at t, pi) from above; the estimate may sit below it by its
        # stderr and its noise floor
        scen = load_preset("shotnoise-gamma")
        levy, rel, n = scen.levy, scen.release, 4000
        t_grid = np.asarray(scen.grids["t_grid"])
        y = np.random.default_rng(SEED).gamma(2.0, 1.0, n)  # pi is Gamma(2, 1)
        gap = np.abs(grid_ensemble(levy, rel, 0.0, t_grid, n, SEED)
                     - grid_ensemble(levy, rel, lambda gen, m: y[:m], t_grid,
                                     n, SEED))
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

    def test_sampled_initial_law(self):
        t_grid = np.linspace(0.5, 4.0, 8)
        mu0 = lambda gen, m: gen.uniform(0.0, 10.0, m)
        curve = estimate_wp_decay(*SHOTNOISE, mu0, 1.0, t_grid, 5_000,
                                  seed=SEED, regime="PositiveRecurrent")
        assert (np.diff(curve.values) <= 2 * (curve.stderr[1:] + curve.stderr[:-1])).all()

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
    def test_exact_power_law(self):
        u = np.geomspace(1.0, 100.0, 15)
        kind, fit = select_tail_scale(u, 2.0 * u ** -1.5)
        assert kind == "power"
        assert fit.exponent == pytest.approx(-1.5, abs=1e-9)

    def test_exact_exponential(self):
        u = np.linspace(1.0, 10.0, 15)
        kind, fit = select_tail_scale(u, 0.7 * np.exp(-0.8 * u))
        assert kind == "exponential"
        assert fit.exponent == pytest.approx(-0.8, abs=1e-9)

    def test_gamma_oracle_slope(self):
        # the shot-noise stationary law is Gamma(2, 1), tail (1+u)e^{-u}.
        # select_tail_scale returns the OLS slope of ln pi on u over the
        # levels, not the asymptotic rate -1, so the reference is the same
        # OLS slope of the oracle (-0.822 on these 13 levels).  OLS is linear,
        # so this is the check that the ln(1+u)-corrected rate is -1 +- 0.15.
        est = estimate_tail(*SHOTNOISE,
                            np.linspace(2.0, 8.0, 13), 100_000, seed=SEED,
                            regime="PositiveRecurrent")
        kind, fit = select_tail_scale(est.levels, est.pi_bar_hat)
        assert kind == "exponential"
        ref = np.polyfit(est.levels, np.log1p(est.levels) - est.levels, 1)[0]
        assert abs(fit.exponent - ref) <= 0.15
