"""Input-subordinator checks: tails, moments, Laplace identities, sampling."""

import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from storagelab.errors import OutOfGrid
from storagelab.levy_input import (
    CompoundPoisson,
    DeterministicJumps,
    Exponential,
    GammaSub,
    ParetoJumps,
    StableSub,
    TabulatedTail,
    TemperedStableSub,
    laplace_check,
)
import storagelab
from storagelab.numerics import integrate_semiinfinite, invert_monotone
from storagelab.release_rate import Affine
from storagelab.rng import substream
from storagelab.simulator import event_ensemble, grid_ensemble

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
        assert inp.tail(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_stable_power(self):
        inp = StableSub(0.5, 1.0)
        assert inp.tail(4.0) == pytest.approx(0.5, rel=1e-12)

    def test_gamma_blows_up_at_zero(self):
        inp = GammaSub(1.0, 1.0)
        assert inp.tail(1e-12) > 1e1
        assert inp.activity == "infinite"

    def test_tempered_tail_matches_density_integral(self):
        inp = TemperedStableSub(0.4, 0.7, 2.0)
        for u in (0.3, 1.0, 4.0):
            num = integrate_semiinfinite(lambda v: inp.density(v), lower=u)
            assert float(inp.tail(u)) == pytest.approx(num.value, rel=1e-6)

    @pytest.mark.parametrize("inp", PRESETS, ids=lambda i: type(i).__name__)
    def test_tail_non_increasing(self, inp):
        u = np.geomspace(1e-3, 1e3, 100)
        vals = np.asarray(inp.tail(u), dtype=float)
        assert (np.diff(vals) <= 1e-12 * vals[:-1]).all()


DROP_FAMILIES = PRESETS + [
    CompoundPoisson(2.0, Exponential(3.0)),
    CompoundPoisson(1.0, ParetoJumps(0.8, xm=2.0)),
    CompoundPoisson(1.0, DeterministicJumps(60.0)),
    TabulatedTail(tuple(np.geomspace(0.1, 10.0, 30)),
                  tuple(np.minimum(np.geomspace(0.1, 10.0, 30) ** -2.0, 100.0)),
                  ("power", 2.0)),
]


class TestLogTailDrop:
    """log nu_bar(v) - log nu_bar(u + v): closed forms where the family has
    one, the plain difference of log_tail otherwise."""

    @pytest.mark.parametrize("inp", DROP_FAMILIES, ids=lambda i: repr(i)[:40])
    def test_matches_the_plain_difference(self, inp):
        v = np.geomspace(1e-3, 50.0, 200)
        for u in (0.1, 1.0, 7.5, 100.0):
            plain = inp.log_tail(v) - inp.log_tail(u + v)
            np.testing.assert_allclose(inp.log_tail_drop(u, v), plain,
                                       rtol=1e-12, atol=1e-13)

    def test_exponential_holds_far_into_the_tail(self):
        # log_tail is near -1e10 there, and the plain difference only noise
        inp = CompoundPoisson(1.0, Exponential(1.0))
        assert inp.log_tail_drop(100.0, np.array([1e10, 1e16])).tolist() == [100.0, 100.0]


class TestFirstMoment:
    def test_cpp(self):
        assert CompoundPoisson(2.0, Exponential(1.0)).first_moment() == pytest.approx(2.0)

    def test_heavy_tail_infinite(self):
        assert StableSub(0.5, 1.0).first_moment() == math.inf
        assert CompoundPoisson(1.0, ParetoJumps(1.0)).first_moment() == math.inf

    def test_gamma(self):
        # int u * shape e^{-rate u} / u du = shape / rate
        assert GammaSub(3.0, 2.0).first_moment() == pytest.approx(1.5)

    def test_pareto_cpp(self):
        # rate * xm * alpha / (alpha - 1)
        assert CompoundPoisson(0.5, ParetoJumps(1.5)).first_moment() == pytest.approx(1.5)

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


def _jumps(levy, t, n_paths, eps=1e-4, seed=SEED):
    """The lane engine's retained jumps on (0, t]: (lane, size) arrays."""
    lane, _, sizes, _ = event_ensemble(levy, Affine(0.0, 1.0), 0.0, t,
                                       n_paths, seed, eps)
    return lane, sizes


def _increments(levy, t, n_paths, eps=1e-4, seed=SEED):
    """A(t) of each lane under the truncation scheme: its retained jump
    sizes plus the compensator drift of the discarded small jumps."""
    lane, sizes = _jumps(levy, t, n_paths, eps, seed)
    sums = np.bincount(lane, weights=sizes, minlength=n_paths)
    return sums + levy.compensator_drift(eps) * t


class TestSampling:
    def test_zero_time(self):
        # at time 0 nothing has happened, and no event run covers no time
        x = grid_ensemble(CompoundPoisson(1.0, Exponential(1.0)),
                          Affine(0.0, 1.0), 3.0, [0.0], 50, SEED)
        assert (x == 3.0).all()
        with pytest.raises(ValueError):
            _jumps(CompoundPoisson(1.0, Exponential(1.0)), 0.0, 50)

    def test_zero_rate_degenerate(self):
        inp = CompoundPoisson(0.0, Exponential(1.0))
        assert _jumps(inp, 5.0, 50)[0].size == 0
        assert (_increments(inp, 5.0, 50) == 0.0).all()

    def test_reproducible(self):
        inp = GammaSub(1.0, 1.0)
        l1, s1 = _jumps(inp, 1.0, 50)
        l2, s2 = _jumps(inp, 1.0, 50)
        assert l1.size > 0 and (l1 == l2).all() and (s1 == s2).all()

    def test_gamma_increment_mean(self):
        # gamma subordinator: E[A(1)] = shape/rate = 1
        gen_a = _increments(GammaSub(1.0, 1.0), 1.0, 10_000)
        se = gen_a.std(ddof=1) / math.sqrt(gen_a.size)
        assert abs(gen_a.mean() - 1.0) <= 3 * se
        # exact law is Gamma(shape*t, rate): variance shape/rate^2 = 1
        assert abs(gen_a.var(ddof=1) - 1.0) <= 6 * gen_a.var(ddof=1) / math.sqrt(gen_a.size) + 0.05

    def test_stable_large_jump_rate(self):
        # jumps above 1 on [0, 1] are Poisson with mean nu_bar(1) = 1
        lane, sizes = _jumps(StableSub(0.5, 1.0), 1.0, 4000, eps=1e-3)
        counts = np.bincount(lane[sizes > 1.0], minlength=4000).astype(float)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 1.0) <= 3 * se

    def test_truncation_consistency(self):
        # drop retained jumps in [eps/10, eps) and compare against the finer
        # sampler: the squared gap is bounded by the discarded second moment
        inp = GammaSub(1.0, 1.0)
        eps = 1e-3
        horizon = 1.0
        lane, sizes = _jumps(inp, horizon, 2000, eps=eps / 10)
        a_fine = (np.bincount(lane, weights=sizes, minlength=2000)
                  + inp.compensator_drift(eps / 10) * horizon)
        kept = sizes >= eps
        a_coarse = (np.bincount(lane[kept], weights=sizes[kept], minlength=2000)
                    + inp.compensator_drift(eps) * horizon)
        gaps = a_fine - a_coarse
        bound = inp.small_jump_msq(eps) * horizon
        assert np.mean(gaps ** 2) <= 2.0 * bound
        assert abs(np.mean(gaps)) <= 4 * np.std(gaps) / math.sqrt(gaps.size) + 1e-12

    def test_tempered_thinning_matches_tail(self):
        # retained-jump count above u must follow the tempered tail
        inp = TemperedStableSub(0.5, 1.0, 1.0)
        n = 3000
        _, sizes = _jumps(inp, 1.0, n, eps=1e-2)
        hits = int((sizes > 0.5).sum())
        expect = float(inp.tail(0.5))
        se = math.sqrt(expect / n)
        assert abs(hits / n - expect) <= 4 * se


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class _Counting:
    """A generator that counts the values it hands out."""

    def __init__(self, gen):
        self._gen, self.values = gen, 0

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.values += np.size(out)
            return out
        return counted


class TestSizeKernels:
    """The exact samplers draw the restricted law, and the in-place power
    draws give the doubles of the plain expressions, leaving the generator
    where those leave it."""

    @pytest.mark.parametrize("inp, eps", [
        (GammaSub(1.0, 1.0), 1e-4),
        (GammaSub(1.0, 0.7), 1e-4),
        (GammaSub(1.0, 2.0), 1e-2),
        (GammaSub(1.0, 1.0), 1.0),
        (GammaSub(1.0, 1.0), 3.0),
        (TemperedStableSub(0.5, 1.0, 1.0), 1e-2),
        (TemperedStableSub(0.3, 1.0, 1.5), 1e-3),
        (TemperedStableSub(0.7, 1.0, 50.0), 0.1),
        (TemperedStableSub(0.5, 1.0, 1e3), 1e-4),
    ], ids=["gamma-1-1e-4", "gamma-0.7-1e-4", "gamma-2-1e-2", "gamma-1-1",
            "gamma-1-3", "ts-0.5-1-1e-2", "ts-0.3-1.5-1e-3", "ts-0.7-50-0.1",
            "ts-0.5-1e3-1e-4"])
    def test_tempered_draws_are_exact(self, inp, eps):
        # the sizes follow 1 - nu_bar(u)/nu_bar(eps), each above eps, at
        # most 3 proposals of 2 uniforms each per kept draw
        n = 200_000
        gen = _Counting(substream(SEED, "exact", eps))
        sizes = inp.sample_sizes(gen, n, eps)
        assert sizes.shape == (n,) and (sizes > eps).all()
        assert gen.values <= 2 * 3 * n, gen.values / (2 * n)
        top = float(inp.tail(eps))
        p = stats.kstest(sizes, lambda u: 1.0 - inp.tail(u) / top).pvalue
        assert p > 1e-3, p

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
    def test_power_families_are_the_plain_expressions(self, alpha):
        n, eps = 10_001, 1e-3
        cases = [(CompoundPoisson(1.0, ParetoJumps(alpha, 0.7)),
                  lambda g: 0.7 * g.random(n) ** (-1.0 / alpha))]
        if alpha < 1.0:
            cases.append((StableSub(alpha, 2.0),
                          lambda g: eps * g.random(n) ** (-1.0 / alpha)))
        for inp, plain in cases:
            gen = substream(SEED, "sizes", alpha)
            twin = copy.deepcopy(gen)
            got = inp.sample_sizes(gen, n, eps)
            assert (_bits(got) == _bits(plain(twin))).all(), inp
            assert gen.random() == twin.random()

    @pytest.mark.parametrize("inp, extra", [
        (GammaSub(1.0, 1.0), 4 << 20),
        (CompoundPoisson(1.0, ParetoJumps(1.5)), 1 << 20),
    ], ids=["gamma", "pareto"])
    def test_traced_peak_is_the_output_plus_a_block(self, inp, extra):
        n, eps = 1 << 20, 1e-4
        inp.sample_sizes(substream(SEED, "warm"), 1, eps)  # outside the trace
        gen = substream(SEED, "sizes")
        tracemalloc.start()
        try:
            out = inp.sample_sizes(gen, n, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 8 * n
        assert peak <= out.nbytes + extra, peak


class TestLaplaceCheck:
    def test_cpp_analytic_value(self):
        inp = CompoundPoisson(1.0, Exponential(1.0))
        rows = laplace_check(inp, 1.0, [1.0], 20_000, SEED)
        assert rows[0]["analytic"] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert abs(rows[0]["z"]) <= 3.5

    def test_lambda_zero_exact(self):
        for inp in PRESETS:
            rows = laplace_check(inp, 1.0, [0.0], 200, SEED)
            assert rows[0]["empirical"] == 1.0
            assert rows[0]["analytic"] == 1.0

    def test_gamma_analytic_value(self):
        inp = GammaSub(1.0, 1.0)
        rows = laplace_check(inp, 1.0, [1.0], 20_000, SEED)
        assert rows[0]["analytic"] == pytest.approx(0.5, rel=1e-12)
        assert abs(rows[0]["z"]) <= 3.5

    def test_last_path_without_jumps(self):
        # at rate 0.01 most paths, the last one included, draw no jump
        inp = CompoundPoisson(0.01, Exponential(1.0))
        rows = laplace_check(inp, 1.0, [1.0], 1000, 3)
        assert rows[0]["analytic"] == pytest.approx(math.exp(-0.005), rel=1e-12)
        assert abs(rows[0]["z"]) <= 4.0

    @pytest.mark.parametrize("inp", PRESETS, ids=lambda i: type(i).__name__)
    def test_presets_z_bounded(self, inp):
        rows = laplace_check(inp, 1.0, [0.5, 1.0, 2.0], 100_000, SEED)
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


def test_import_and_presets_leave_scipy_unloaded():
    # scipy.special is imported by the closed forms that use it, not by the
    # package, so the CLI and every preset's scenario load without scipy
    code = (
        "import sys, storagelab, storagelab.cli\n"
        "for name in storagelab.preset_names():\n"
        "    storagelab.Scenario.from_dict(storagelab.load_preset(name).raw)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(storagelab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
