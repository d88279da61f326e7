"""Input-subordinator checks: tails, moments, Laplace identities, sampling."""

import math

import numpy as np
import pytest
from scipy import special, stats

from storagelab.errors import OutOfGrid
from storagelab.levy_input import (
    CompoundPoisson,
    DeterministicJumps,
    Exponential,
    GammaSub,
    JumpStream,
    ParetoJumps,
    StableSub,
    TabulatedTail,
    TemperedStableSub,
    first_moment,
    laplace_check,
    sample_increment,
    sample_jumps,
    tail,
)
from storagelab.numerics import integrate_semiinfinite, invert_monotone

SEED = 20260810

PRESETS = [
    CompoundPoisson(1.0, Exponential(1.0)),
    CompoundPoisson(1.0, ParetoJumps(1.5)),
    GammaSub(1.0, 1.0),
    StableSub(0.5, 1.0),
    TemperedStableSub(0.5, 1.0, 1.0),
]


class TestTail:
    def test_cpp_exponential(self):
        inp = CompoundPoisson(1.0, Exponential(1.0))
        assert tail(inp, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_stable_power(self):
        inp = StableSub(0.5, 1.0)
        assert tail(inp, 4.0) == pytest.approx(0.5, rel=1e-12)

    def test_gamma_blows_up_at_zero(self):
        inp = GammaSub(1.0, 1.0)
        assert tail(inp, 1e-12) > 1e1
        assert inp.activity == "infinite"

    def test_tempered_tail_matches_density_integral(self):
        inp = TemperedStableSub(0.4, 0.7, 2.0)
        for u in (0.3, 1.0, 4.0):
            num = integrate_semiinfinite(lambda v: inp.density(v), lower=u)
            assert float(inp.tail(u)) == pytest.approx(num.value, rel=1e-6)

    def test_nonpositive_level_rejected(self):
        with pytest.raises(ValueError):
            tail(PRESETS[0], 0.0)

    @pytest.mark.parametrize("inp", PRESETS, ids=lambda i: type(i).__name__)
    def test_tail_non_increasing(self, inp):
        u = np.geomspace(1e-3, 1e3, 100)
        vals = np.asarray(inp.tail(u), dtype=float)
        assert (np.diff(vals) <= 1e-12 * vals[:-1]).all()


class TestFirstMoment:
    def test_cpp(self):
        assert first_moment(CompoundPoisson(2.0, Exponential(1.0))) == pytest.approx(2.0)

    def test_heavy_tail_infinite(self):
        assert first_moment(StableSub(0.5, 1.0)) == math.inf
        assert first_moment(CompoundPoisson(1.0, ParetoJumps(1.0))) == math.inf

    def test_gamma(self):
        # int u * shape e^{-rate u} / u du = shape / rate
        assert first_moment(GammaSub(3.0, 2.0)) == pytest.approx(1.5)

    def test_pareto_cpp(self):
        # rate * xm * alpha / (alpha - 1)
        assert first_moment(CompoundPoisson(0.5, ParetoJumps(1.5))) == pytest.approx(1.5)

    @pytest.mark.parametrize("inp", [
        CompoundPoisson(1.0, Exponential(1.0)),
        CompoundPoisson(1.0, ParetoJumps(1.5)),
        GammaSub(1.0, 1.0),
        TemperedStableSub(0.5, 1.0, 1.0),
    ], ids=lambda i: type(i).__name__)
    def test_matches_tail_integral(self, inp):
        res = integrate_semiinfinite(lambda u: inp.tail(u))
        assert inp.first_moment() == pytest.approx(res.value, rel=1e-6)


class TestLaplace:
    def test_cpp_closed_form(self):
        inp = CompoundPoisson(1.0, Exponential(1.0))
        assert inp.laplace_exponent(1.0) == pytest.approx(-0.5, rel=1e-12)

    def test_gamma_closed_form(self):
        inp = GammaSub(1.0, 1.0)
        assert inp.laplace_exponent(1.0) == pytest.approx(-math.log(2.0), rel=1e-12)

    def test_stable_closed_form(self):
        inp = StableSub(0.5, 1.0)
        assert inp.laplace_exponent(1.0) == pytest.approx(
            -special.gamma(0.5), rel=1e-12)

    @pytest.mark.parametrize("inp", PRESETS, ids=lambda i: type(i).__name__)
    def test_closed_form_matches_tail_identity(self, inp):
        for lam in (0.5, 2.0):
            numeric = -lam * integrate_semiinfinite(
                lambda u: np.exp(-lam * u) * inp.tail(u)).value
            assert inp.laplace_exponent(lam) == pytest.approx(numeric, rel=1e-6)

    def test_zero_lambda(self):
        for inp in PRESETS:
            assert inp.laplace_exponent(0.0) == 0.0

    def test_bounded_below_by_mean_slope(self):
        # psi(lam) >= -lam * m_nu whenever the first moment is finite
        inp = CompoundPoisson(2.0, Exponential(1.0))
        for lam in (0.1, 1.0, 5.0):
            assert inp.laplace_exponent(lam) >= -lam * inp.first_moment()

    @pytest.mark.parametrize("inp", PRESETS, ids=lambda i: type(i).__name__)
    def test_non_increasing_in_lambda(self, inp):
        lams = [0.0, 0.3, 1.0, 3.0, 10.0]
        vals = [inp.laplace_exponent(lam) for lam in lams]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestSampling:
    def test_zero_time(self):
        stream = JumpStream(SEED)
        a, jumps = sample_increment(CompoundPoisson(1.0, Exponential(1.0)), stream, 0.0)
        assert a == 0.0 and jumps == []

    def test_zero_rate_degenerate(self):
        stream = JumpStream(SEED)
        a, jumps = sample_increment(CompoundPoisson(0.0, Exponential(1.0)), stream, 5.0)
        assert a == 0.0 and jumps == []

    def test_reproducible(self):
        inp = GammaSub(1.0, 1.0)
        a1 = sample_increment(inp, JumpStream(SEED), 1.0)
        a2 = sample_increment(inp, JumpStream(SEED), 1.0)
        assert a1 == a2

    def test_nested_horizons_non_decreasing(self):
        inp = CompoundPoisson(2.0, Exponential(0.5))
        stream = JumpStream(SEED)
        values = [sample_increment(inp, stream, t)[0] for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # the t=0.5 jump set is a prefix of the t=2 jump set
        j_small = sample_increment(inp, stream, 0.5)[1]
        j_big = sample_increment(inp, stream, 2.0)[1]
        assert j_big[: len(j_small)] == j_small

    def test_gamma_increment_mean(self):
        # gamma subordinator: E[A(1)] = shape/rate = 1
        inp = GammaSub(1.0, 1.0)
        stream = JumpStream(SEED, truncation_eps=1e-4)
        draws = laplace_check(inp, 1.0, [0.0], 10_000, stream)  # warms stream
        gen_a = []
        for i in range(10_000):
            gen_a.append(sample_increment(inp, stream.derive(i), 1.0)[0])
        gen_a = np.asarray(gen_a)
        se = gen_a.std(ddof=1) / math.sqrt(gen_a.size)
        assert abs(gen_a.mean() - 1.0) <= 3 * se
        # exact law is Gamma(shape*t, rate): variance shape/rate^2 = 1
        assert abs(gen_a.var(ddof=1) - 1.0) <= 6 * gen_a.var(ddof=1) / math.sqrt(gen_a.size) + 0.05

    def test_stable_large_jump_rate(self):
        # jumps above 1 on [0, 1] are Poisson with mean nu_bar(1) = 1
        inp = StableSub(0.5, 1.0)
        counts = []
        for i in range(4000):
            _, jumps = sample_increment(inp, JumpStream(SEED, 1e-3).derive(i), 1.0)
            counts.append(sum(1 for _, s in jumps if s > 1.0))
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 1.0) <= 3 * se

    def test_truncation_consistency(self):
        # drop retained jumps in [eps/10, eps) and compare against the finer
        # sampler: the squared gap is bounded by the discarded second moment
        inp = GammaSub(1.0, 1.0)
        eps = 1e-3
        horizon = 1.0
        gaps = []
        for i in range(2000):
            stream = JumpStream(SEED, eps / 10).derive(i)
            times, sizes = sample_jumps(inp, stream, horizon)
            a_fine = sizes.sum() + inp.compensator_drift(eps / 10) * horizon
            kept = sizes[sizes >= eps]
            a_coarse = kept.sum() + inp.compensator_drift(eps) * horizon
            gaps.append(a_fine - a_coarse)
        gaps = np.asarray(gaps)
        bound = inp.small_jump_msq(eps) * horizon
        assert np.mean(gaps ** 2) <= 2.0 * bound
        assert abs(np.mean(gaps)) <= 4 * np.std(gaps) / math.sqrt(gaps.size) + 1e-12

    def test_tempered_thinning_matches_tail(self):
        # retained-jump count above u must follow the tempered tail
        inp = TemperedStableSub(0.5, 1.0, 1.0)
        stream = JumpStream(SEED, 1e-2)
        n, hits = 3000, 0
        for i in range(n):
            _, jumps = sample_increment(inp, stream.derive(i), 1.0)
            hits += sum(1 for _, s in jumps if s > 0.5)
        expect = float(inp.tail(0.5))
        se = math.sqrt(expect / n)
        assert abs(hits / n - expect) <= 4 * se


class TestLaplaceCheck:
    def test_cpp_analytic_value(self):
        inp = CompoundPoisson(1.0, Exponential(1.0))
        rows = laplace_check(inp, 1.0, [1.0], 20_000, JumpStream(SEED))
        assert rows[0]["analytic"] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert abs(rows[0]["z"]) <= 3.5

    def test_lambda_zero_exact(self):
        for inp in PRESETS:
            rows = laplace_check(inp, 1.0, [0.0], 200, JumpStream(SEED))
            assert rows[0]["empirical"] == 1.0
            assert rows[0]["analytic"] == 1.0

    def test_gamma_analytic_value(self):
        inp = GammaSub(1.0, 1.0)
        rows = laplace_check(inp, 1.0, [1.0], 20_000, JumpStream(SEED))
        assert rows[0]["analytic"] == pytest.approx(0.5, rel=1e-12)
        assert abs(rows[0]["z"]) <= 3.5

    def test_last_path_without_jumps(self):
        # at rate 0.01 most paths, the last one included, draw no jump
        inp = CompoundPoisson(0.01, Exponential(1.0))
        rows = laplace_check(inp, 1.0, [1.0], 1000, JumpStream(3))
        assert rows[0]["analytic"] == pytest.approx(math.exp(-0.005), rel=1e-12)
        assert abs(rows[0]["z"]) <= 4.0

    @pytest.mark.parametrize("inp", PRESETS, ids=lambda i: type(i).__name__)
    def test_presets_z_bounded(self, inp):
        rows = laplace_check(inp, 1.0, [0.5, 1.0, 2.0], 100_000, JumpStream(SEED))
        for row in rows:
            assert abs(row["z"]) <= 4.0, row


class TestTabulated:
    def make(self, extension=("power", 2.0)):
        u = np.geomspace(0.1, 10.0, 30)
        t = np.minimum(u ** -2.0, 100.0)  # capped power tail
        return TabulatedTail(tuple(u), tuple(t), extension)

    def test_interpolates(self):
        tab = self.make()
        assert float(tab.tail(1.0)) == pytest.approx(1.0, rel=1e-2)

    def test_extension_power(self):
        tab = self.make()
        assert float(tab.tail(100.0)) == pytest.approx(1e-4, rel=1e-2)

    def test_out_of_grid(self):
        tab = self.make(extension=None)
        with pytest.raises(OutOfGrid):
            tab.tail(100.0)

    def test_first_moment_finite(self):
        tab = self.make()
        assert 0.0 < tab.first_moment() < math.inf

    def test_sampling_matches_tail(self):
        tab = self.make()
        gen = np.random.default_rng(SEED)
        draws = tab.sample_sizes(gen, 2000, 0.0)
        frac = np.mean(draws > 1.0)
        expect = float(tab.tail(1.0)) / tab.knots_tail[0]
        assert abs(frac - expect) <= 4 * math.sqrt(expect * (1 - expect) / 2000)

    @staticmethod
    def invert_per_draw(tab, q):
        """Reference sampler: one monotone inversion of the tail per draw."""
        total, hi = tab.knots_tail[0], tab.knots_u[-1]
        kind, par = tab.extension
        out = np.empty(q.size)
        for i, qi in enumerate(q):
            target = 1.0 - qi
            if target < tab.tail(hi) / total:
                frac = target * total / tab.knots_tail[-1]
                out[i] = hi * frac ** (-1.0 / par) if kind == "power" else hi - math.log(frac) / par
            else:
                out[i] = invert_monotone(lambda u: 1.0 - tab.tail(u) / total, qi,
                                         (tab.knots_u[0], hi))
        return out

    @pytest.mark.parametrize("extension", [("power", 2.0), ("exp", 1.5)])
    def test_sampling_matches_per_draw_inverse(self, extension):
        knots = (0.5, 1.0, 2.0, 4.0, 8.0)
        tab = TabulatedTail(knots, (1.0, 0.6, 0.3, 0.1, 0.03), extension)
        fast = tab.sample_sizes(np.random.default_rng(SEED), 2000, 0.0)
        ref = self.invert_per_draw(tab, np.random.default_rng(SEED + 1).random(2000))
        assert stats.ks_2samp(fast, ref).pvalue > 1e-3
        assert fast.min() >= knots[0] and (fast > knots[-1]).any()
        # the same uniforms give the same sizes up to the inversion tolerance
        same = self.invert_per_draw(tab, np.random.default_rng(SEED).random(500))
        assert fast[:500] == pytest.approx(same, rel=1e-8)

    def test_sampling_without_extension_is_out_of_grid(self):
        # mass above the last knot has no law to draw from
        tab = TabulatedTail((0.5, 1.0, 2.0, 4.0, 8.0), (1.0, 0.6, 0.3, 0.1, 0.03))
        gen = np.random.default_rng(SEED)
        with pytest.raises(OutOfGrid):
            tab.sample_sizes(gen, 2000, 0.0)
        # raised before any draw
        assert gen.random() == np.random.default_rng(SEED).random()

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedTail((1.0, 0.5), (1.0, 0.5))
        with pytest.raises(ValueError):
            TabulatedTail((0.5, 1.0), (0.5, 1.0))


class TestJumpLaws:
    def test_deterministic(self):
        law = DeterministicJumps(2.0)
        inp = CompoundPoisson(1.0, law)
        assert float(inp.tail(1.0)) == 1.0
        assert float(inp.tail(3.0)) == 0.0
        assert inp.laplace_exponent(1.0) == pytest.approx(math.exp(-2.0) - 1.0)

    def test_pareto_sampler_tail(self):
        gen = np.random.default_rng(SEED)
        draws = ParetoJumps(1.5).sample(gen, 20_000)
        frac = np.mean(draws > 2.0)
        assert frac == pytest.approx(2.0 ** -1.5, abs=4 * math.sqrt(0.35 * 0.65 / 20_000))

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            ParetoJumps(-1.0)
        with pytest.raises(ValueError):
            CompoundPoisson(-1.0, Exponential(1.0))
