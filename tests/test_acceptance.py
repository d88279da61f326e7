"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.  Budgets are sized so the whole module stays well
under its declared runtime limits on a desk machine.

Criterion 9 checks the lower-bound machinery against its sharp exponents.
``tv_lower_rate`` fits a t-exponent that composes to l/(a_h + l), with
l = 1 - eps - alpha - beta the u-exponent of the tail envelope L; it is a
lower bound at positive slacks and reaches the sharp value
(1 - alpha - beta)/(1 - beta) only as eps -> 0 and a_h -> alpha.  The
windows (-1 +/- 0.25 for power/power, -0.5 +/- 0.25 for constant release)
are therefore evaluated at small slacks the moment gate still accepts:
eps = 0.02 with a_h = 0.98 (composed -1.130) and a_h = 1.48 (composed
-0.542).  Each fitted exponent is also pinned to its composed value within
0.05, so a wrong composition fails even where it would stay in the window.
"""

import functools
import math
import time

import numpy as np
import pytest

from storagelab.classifier import classify, criterion_positive_recurrent
from storagelab.ergodicity_lab import (
    LongRunTimeAverage,
    estimate_tail,
    estimate_tv_decay,
    w1_cdf_area,
    wasserstein_1d,
)
from storagelab.levy_input import (
    CompoundPoisson,
    Exponential,
    GammaSub,
    ParetoJumps,
    StableSub,
    laplace_check,
)
from storagelab.lyapunov import (
    GapBound,
    PowerModulus,
    RateFunction,
    build_certificate,
    generator_apply,
    tail_lower,
    tv_lower_rate,
)
from storagelab.numerics import fit_loglog
from storagelab.release_rate import (
    Affine,
    Constant,
    Plateau,
    Power,
    PowerSmoothed,
)
from storagelab.simulator import event_ensemble, grid_ensemble

SEED = 20260810

MM1 = (CompoundPoisson(1.0, Exponential(1.0)), Constant(2.0))
SHOTNOISE = (CompoundPoisson(2.0, Exponential(1.0)), Affine(0.0, 1.0))
POWER_SHARP = (CompoundPoisson(1.0, ParetoJumps(1.0)), PowerSmoothed(1.0, 0.5))
POWER_SHARP_FAST = (CompoundPoisson(1.0, ParetoJumps(1.5)), PowerSmoothed(1.0, 0.5))
POWER_UNIFORM = (CompoundPoisson(1.0, ParetoJumps(1.0)), Power(1.0, 2.0))
SHARP_CONST = (CompoundPoisson(0.5, ParetoJumps(1.5)), Constant(2.0))

_LINES = []


def criterion(cid, desc, limit_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            start = time.time()
            try:
                fn(*a, **k)
            except BaseException:
                line = f"ACCEPTANCE {cid}: FAIL ({desc})"
                _LINES.append(line)
                print("\n" + line)
                raise
            elapsed = time.time() - start
            line = f"ACCEPTANCE {cid}: PASS ({desc}) [{elapsed:.1f}s]"
            _LINES.append(line)
            print("\n" + line)
            if limit_s is not None:
                assert elapsed < limit_s, f"runtime {elapsed:.1f}s over {limit_s}s"
        return wrapper
    return deco


@criterion(1, "input-law Laplace transforms, |z| <= 4 at 1e5 paths", 30)
def test_criterion_1_input_law():
    rows = laplace_check(CompoundPoisson(1.0, Exponential(1.0)), 1.0,
                         [0.5, 1.0, 2.0], 100_000, SEED)
    for row in rows:
        lam = row["lam"]
        assert row["analytic"] == pytest.approx(math.exp(-lam / (1 + lam)), rel=1e-12)
        assert abs(row["z"]) <= 4.0, row
    rows = laplace_check(GammaSub(1.0, 1.0), 1.0, [0.5, 1.0, 2.0], 100_000, SEED)
    for row in rows:
        lam = row["lam"]
        assert row["analytic"] == pytest.approx(1.0 / (1.0 + lam), rel=1e-12)
        assert abs(row["z"]) <= 4.0, row


@criterion(2, "classifier golden grid and structural cases, exact labels", 60)
def test_criterion_2_classifier_grid():
    def power_pair(alpha, beta):
        inp = (StableSub(alpha, 1.0) if alpha < 1.0
               else CompoundPoisson(1.0, ParetoJumps(alpha)))
        rel = Power(1.0, beta) if beta >= 1.0 else PowerSmoothed(1.0, beta)
        return inp, rel

    for alpha in (0.3, 0.7, 1.5):
        for beta in (0.3, 0.7, 1.5):
            rep = classify(*power_pair(alpha, beta))
            s = alpha + beta
            if s < 1.0:
                assert rep.verdict == "Transient", (alpha, beta, rep.verdict)
            elif s == 1.0:
                assert rep.verdict == "Inconclusive", (alpha, beta, rep.verdict)
            else:
                assert rep.verdict == "PositiveRecurrent", (alpha, beta, rep.verdict)
                assert rep.uniform == (beta > 1.0), (alpha, beta, rep.uniform)
    assert classify(*MM1).verdict == "PositiveRecurrent"
    assert classify(CompoundPoisson(1.0, Exponential(1.0)),
                    Plateau(1.0, 1.0)).verdict == "NullRecurrent"


@criterion(3, "stationary-law oracles: M/M/1 workload and Gamma(2,1) shot noise", 300)
def test_criterion_3_stationary_oracles():
    cert = build_certificate(*MM1, RateFunction.linear(0.5))
    grid = np.array([1.0, 2.0, 4.0])
    est = estimate_tail(*MM1, LongRunTimeAverage(), grid, 100_000, seed=SEED,
                        certificate=cert, regime="PositiveRecurrent")
    for u, p, s in zip(est.levels, est.pi_bar_hat, est.stderr):
        target = 0.5 * math.exp(-0.5 * u)
        assert abs(p - target) <= 3.0 * s, (u, p, target, s)
    est2 = estimate_tail(*SHOTNOISE, LongRunTimeAverage(), np.array([2.0]),
                         100_000, seed=SEED, regime="PositiveRecurrent")
    target = 3.0 * math.exp(-2.0)
    assert abs(est2.pi_bar_hat[0] - target) <= 3.0 * est2.stderr[0]


@criterion(4, "drift-certificate numerics: margin 1/3; phi=1 matches criterion", None)
def test_criterion_4_certificate_numerics():
    cert = build_certificate(*MM1, RateFunction.linear(0.5))
    assert cert.drift_margin == pytest.approx(1.0 / 3.0, abs=1e-6)
    cert1 = build_certificate(*MM1, RateFunction.constant1())
    crit = criterion_positive_recurrent(*MM1)
    for r, v in zip(cert1.ratios, crit.probe_values):
        assert r == pytest.approx(v, abs=1e-9)


@criterion(5, "stationary tail exponents reproduce the summary table", 600)
def test_criterion_5_tail_exponents():
    grid = np.geomspace(10.0, 1000.0, 13)
    est = estimate_tail(*POWER_SHARP, LongRunTimeAverage(spacing=10.0), grid,
                        100_000, seed=SEED, regime="PositiveRecurrent")
    fit = fit_loglog(est.levels, est.pi_bar_hat,
                     weights=1.0 / np.maximum(est.stderr, 1e-6) ** 2)
    assert abs(fit.exponent - (-0.5)) <= 0.3, fit.exponent

    grid2 = np.geomspace(5.0, 200.0, 11)
    est2 = estimate_tail(*POWER_UNIFORM, LongRunTimeAverage(spacing=10.0), grid2,
                         100_000, seed=SEED, regime="PositiveRecurrent")
    fit2 = fit_loglog(est2.levels, est2.pi_bar_hat,
                      weights=1.0 / np.maximum(est2.stderr, 1e-7) ** 2)
    assert fit2.exponent <= 1.0 - 1.0 - 2.0 + 0.3, fit2.exponent


@criterion(6, "TV decay: exponent window and faster-input ordering", 600)
def test_criterion_6_tv_rates():
    t_grid = np.geomspace(2.0, 120.0, 16)

    def curve_for(pair, seed):
        return estimate_tv_decay(*pair, 0.0, t_grid, 30_000, seed=seed,
                                 regime="PositiveRecurrent")

    c10 = curve_for(POWER_SHARP, SEED)
    c15 = curve_for(POWER_SHARP_FAST, SEED + 7)
    joint = np.sqrt(c10.stderr ** 2 + c15.stderr ** 2)
    burn = t_grid >= 6.0
    ordering = bool(np.all(c15.values[burn] <= c10.values[burn] + 2 * joint[burn]))
    assert ordering, "faster-decaying scenario is not below the slower one"
    in_window = (c10.fitted is not None
                 and -1.5 <= c10.fitted.exponent <= -0.5)
    mono10 = bool(np.all(np.diff(c10.values) <= 2 * joint[1:]))
    mono15 = bool(np.all(np.diff(c15.values) <= 2 * joint[1:]))
    # declared fallback: ordering plus monotone decay of both curves
    assert in_window or (mono10 and mono15), (
        c10.fitted.exponent if c10.fitted else None, mono10, mono15)


@criterion(7, "synchronous coupling matches the contraction bounds pathwise", 60)
def test_criterion_7_wasserstein_pathwise():
    # coupled pairs are lanes: two grid_ensemble calls with one seed give
    # lane i of each the same jumps
    levy = SHOTNOISE[0]
    grid = np.array([0.5, 1.0, 2.0, 4.0])
    a, b = (grid_ensemble(levy, Affine(0.0, 1.0), x, grid, 128, SEED)
            for x in (5.0, 0.0))
    assert (np.abs(np.abs(a - b) - 5.0 * np.exp(-grid)) <= 1e-6).all()
    # jump-driven quadratic-drain pairs against B_kappa^{-1}
    bound = GapBound(PowerModulus(2.0), 1.0, 3.0)
    grid2 = np.linspace(0.2, 10.0, 25)
    a, b = (grid_ensemble(levy, Power(1.0, 2.0), x, grid2, 4096, SEED)
            for x in (3.0, 0.0))
    assert (b[:, -1] > 0.0).all()  # every lane jumped
    worst = np.abs(a - b) - np.array([bound(t) for t in grid2])
    assert (worst <= 1e-6).all(), worst.max()


@criterion(8, "closed-form contraction clocks", None)
def test_criterion_8_contraction_clock():
    lin = GapBound(PowerModulus(1.0), 1.0, 2.0)
    for s in np.linspace(0.0, 20.0, 41):
        assert abs(lin(s) - 2.0 * math.exp(-s)) <= 1e-10
    quad = GapBound(PowerModulus(2.0), 1.0, 1.0)
    s = 1e4
    assert abs(s * quad(s) - 1.0) <= 1e-3


@criterion(9, "lower-bound machinery: hypothesis gates and sharp exponents", None)
def test_criterion_9_lower_bounds():
    # gates for the power/power pair: tail strictly decreasing and
    # submultiplicative, sublinear release, finite moment drift
    env = tail_lower(*POWER_SHARP, 0.1)
    assert env.kind == "LowerPolyQuotient"

    def composed(alpha, beta, eps, a_h):
        lu = 1.0 - eps - alpha - beta
        return lu / (a_h + lu)

    # constant release (alpha = 1.5, beta = 0): sharp 1 - alpha = -0.5
    curve_c = tv_lower_rate(*SHARP_CONST, eps=0.02, a_h=1.48, x=1.0)
    exp_c = curve_c.fitted.exponent
    assert abs(exp_c - composed(1.5, 0.0, 0.02, 1.48)) <= 0.05, exp_c
    assert abs(exp_c - (-0.5)) <= 0.25, exp_c
    # power/power (alpha = 1, beta = 0.5): sharp (1-alpha-beta)/(1-beta) = -1
    curve_pp = tv_lower_rate(*POWER_SHARP, eps=0.02, a_h=0.98, x=1.0)
    exp_pp = curve_pp.fitted.exponent
    assert abs(exp_pp - composed(1.0, 0.5, 0.02, 0.98)) <= 0.05, exp_pp
    assert abs(exp_pp - (-1.0)) <= 0.25, exp_pp


@criterion(10, "module invariants: flows, generator, profile, coupling, W1, determinism", 120)
def test_criterion_10_invariant_suites():
    # flow semigroup on the three preset families
    for rel in (Constant(1.5), Affine(0.0, 0.7), Power(1.0, 1.7)):
        lhs = rel.flow(rel.flow(6.0, 0.8), 1.3)
        assert lhs == pytest.approx(rel.flow(6.0, 2.1), abs=1e-8)
    # Fubini vs direct generator forms
    levy, rel = CompoundPoisson(1.0, Exponential(1.0)), Affine(0.0, 1.0)
    for u in (0.5, 2.0, 10.0):
        fub = generator_apply(levy, rel, lambda w: w * w, u, lambda w: 2 * w, "fubini")
        dire = generator_apply(levy, rel, lambda w: w * w, u, lambda w: 2 * w, "direct")
        assert fub == pytest.approx(dire, rel=1e-6)
    # profile ODE identity for a valid certificate
    cert = build_certificate(*MM1, RateFunction.power(0.5))
    for u in np.geomspace(1.5, 1e6, 10):
        h = 1e-5 * u
        dlog = (cert.log_profile(u + h) - cert.log_profile(u - h)) / (2 * h)
        lhs = dlog * float(MM1[1].rate(u))
        rhs = math.exp(cert.log_phi_profile(u) - cert.log_profile(u))
        assert lhs == pytest.approx(rhs, rel=1e-6)
    # coupling order preservation, lane by lane
    grid = np.linspace(0.2, 20.0, 40)
    ra, rb = (grid_ensemble(CompoundPoisson(1.0, Exponential(1.0)),
                            Affine(0.0, 1.0), x, grid, 256, SEED)
              for x in (9.0, 1.0))
    assert (ra >= rb - 1e-12).all()
    # one-dimensional W1 identity
    rng = np.random.default_rng(SEED)
    a, b = rng.exponential(1.0, 700), rng.gamma(2.0, 1.0, 400)
    assert wasserstein_1d(a, b, 1.0) == pytest.approx(w1_cdf_area(a, b), abs=1e-12)
    # determinism / bit-reproducibility, for both consumers of the engine
    run1, run2 = (grid_ensemble(*MM1, 1.0, [5.0], 64, SEED) for _ in range(2))
    assert run1.tobytes() == run2.tobytes()
    ev1, ev2 = (event_ensemble(*MM1, 1.0, 5.0, 64, SEED) for _ in range(2))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ev1, ev2))


def test_zzz_print_summary():
    print("\n" + "\n".join(_LINES))
