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
    ParetoJumps,
)
from storagelab.lyapunov import GapBound, PowerModulus
from storagelab.numerics import QuadratureSpec, _rk_flow, integrate_interval
from storagelab.presets import load_preset, preset_names
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
from storagelab.simulator import event_ensemble, grid_ensemble

SEED = 20260810
NO_JUMPS = CompoundPoisson(0.0, Exponential(1.0))
CPP = CompoundPoisson(1.0, Exponential(1.0))
CUSTOM = Custom(lambda u: u + u * u / (1.0 + u), RateAsymptotics("power", 1.0, 2.0))


# ---------------------------------------------------------------------------
# slow references: one float lane at a time, for the batched paths to match
# ---------------------------------------------------------------------------

def _scalar_rk_flow(rate, x0, dt, drift, tol=1e-10):
    """Step-doubling RK4 of x' = drift - r(x) on one float lane."""
    tiny = 1e-300

    def rhs(x):
        return drift - float(rate(max(x, tiny)))

    def rk4(x, h):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    x, t = x0, 0.0
    h = dt / 8.0
    scale = max(1.0, abs(x0))
    while t < dt:
        f0 = rhs(x)
        if abs(f0) <= 1e-14 * scale:
            if x <= 1e-14 * scale and drift <= 0.0:
                return 0.0
            return x
        h = min(h, dt - t)
        x1 = rk4(x, h)
        x2 = rk4(rk4(x, 0.5 * h), 0.5 * h)
        err = abs(x2 - x1) / 15.0
        if err <= tol * max(1.0, abs(x)):
            t += h
            x = x2 + (x2 - x1) / 15.0
            if x <= 0.0:
                if drift <= rate(tiny):
                    return 0.0
                x = 0.0
            if err < 0.25 * tol * max(1.0, abs(x)):
                h *= 2.0
        else:
            below = [x * 0.5 ** k for k in range(1, 9)] + [tiny]
            if (x + (dt - t) * f0 <= 0.0
                    and all(rhs(v) <= f0 for v in below)):
                return 0.0
            h *= 0.5
            if h < 1e-15 * dt:
                raise FloatingPointError("flow step size underflow")
    return max(x, 0.0)


def _walk_reference(levy, release, x0, times, sizes, grid, eps=1e-4):
    """One path jump by jump on floats, grid values flowed on the way:
    (the states after the jumps, the values at the grid times)."""
    drift = levy.compensator_drift(eps)
    x, t_prev, gi = float(x0), 0.0, 0
    after, at_grid = [], []
    for tj, sj in zip(times, sizes):
        while gi < len(grid) and grid[gi] < tj:
            at_grid.append(release.flow(x, grid[gi] - t_prev, drift))
            gi += 1
        x = release.flow(x, tj - t_prev, drift) + sj
        t_prev = tj
        after.append(x)
    at_grid += [release.flow(x, g - t_prev, drift) for g in grid[gi:]]
    return np.asarray(after), np.asarray(at_grid)


def _per_lane(events, n_paths):
    """``event_ensemble``'s flat (lane, t, size, x_after) as one
    (t, size, x_after) triple of arrays per lane."""
    cuts = np.searchsorted(events[0], np.arange(1, n_paths))
    return list(zip(*(np.split(col, cuts) for col in events[1:])))


def _engine_jumps(levy, x0, grid, n_paths, eps=1e-4):
    """Each lane's (times, sizes) as the engine draws them for ``grid``."""
    lanes = [([], []) for _ in range(n_paths)]
    for lo, _, slabs in simulator._chunks(levy, x0, grid, n_paths, SEED, eps):
        for _, t, s, _ in slabs:
            for i, (ti, si) in enumerate(zip(t.T, s.T)):
                lanes[lo + i][0].extend(ti[si > 0.0])
                lanes[lo + i][1].extend(si[si > 0.0])
    return lanes


def _last_states(release, events, x0, horizon, n_paths, drift):
    """Each lane's last state of ``event_ensemble`` (its start if it has no
    jump) flowed to the horizon."""
    lane, t, _, x = events
    last = np.searchsorted(lane, np.arange(n_paths), side="right") - 1
    jumped = (last >= 0) & (lane[np.maximum(last, 0)] == np.arange(n_paths))
    t_last = np.where(jumped, t[last], 0.0)
    x_last = np.where(jumped, x[last], x0)
    return release.flow(x_last, horizon - t_last, drift)


def _independent_paths(levy, horizon, n_paths, eps, gen):
    """Jump times and sizes of paths drawn one by one, apart from the
    engine: a Poisson count of uniform times, then the sizes."""
    lam = levy.proposal_rate(eps)
    for _ in range(n_paths):
        k = gen.poisson(lam * horizon)
        t = np.sort(gen.uniform(0.0, horizon, k))
        s = levy.sample_sizes(gen, k, eps)
        yield t[s > 0.0], s[s > 0.0]


class TestSimulatePath:
    def test_pure_drain_matches_flow(self):
        lane, _, _, _ = event_ensemble(NO_JUMPS, Constant(2.0), 3.0, 2.0, 1, SEED)
        assert lane.size == 0
        assert grid_ensemble(NO_JUMPS, Constant(2.0), 3.0, [2.0], 1, SEED)[0, 0] == 0.0

    def test_values_non_negative(self):
        mat = grid_ensemble(CPP, PowerSmoothed(1.0, 0.5), 0.0,
                            np.linspace(0, 50, 101), 8, SEED)
        assert (mat >= 0.0).all()

    def test_events_mode_decreasing_between_jumps(self):
        assert CPP.compensator_drift(1e-4) == 0.0
        events = event_ensemble(CPP, Affine(0.0, 1.0), 5.0, 10.0, 4, SEED)
        # value after each jump = flow from previous value + jump
        for t, sizes, x in _per_lane(events, 4):
            assert t.size > 1 and (np.diff(t) > 0.0).all()
            drained = np.append(5.0, x[:-1]) * np.exp(-np.diff(t, prepend=0.0))
            assert x == pytest.approx(drained + sizes, rel=1e-9)

    def test_shot_noise_mean(self):
        # E[X(t)] = (lam/mu)(1 - e^{-t}) for r(u) = u from x0 = 0
        vals = grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, [1.0], 4000, SEED)
        target = 1.0 - math.exp(-1.0)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se

    def test_infinite_activity_compensator(self):
        # the discarded small jumps enter as the inflow d_eps: E[X(1)] is
        # (1 - e^{-1}) E[A(1)] = 1 - e^{-1} with or without truncation
        levy = GammaSub(1.0, 1.0)
        assert levy.compensator_drift(1e-4) > 0.0
        lane, _, sizes, x = event_ensemble(levy, Affine(0.0, 1.0), 0.0, 1.0,
                                           4000, SEED)
        assert (x >= sizes).all() and (sizes > 0.0).all()
        vals = grid_ensemble(levy, Affine(0.0, 1.0), 0.0, [1.0], 4000, SEED)
        assert (vals >= 0.0).all()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - (1.0 - math.exp(-1.0))) <= 4 * se

    def test_finite_activity_no_bias(self):
        # finite activity keeps every jump: Poisson(rate * T) of them per
        # lane, with the jump law's sizes, and no compensating drift
        lane, _, sizes, _ = event_ensemble(CPP, Affine(0.0, 1.0), 0.0, 5.0,
                                           2000, SEED)
        counts = np.bincount(lane, minlength=2000)
        assert abs(counts.mean() - 5.0) <= 4 * math.sqrt(5.0 / 2000)
        assert abs(sizes.mean() - 1.0) <= 4 / math.sqrt(sizes.size)

    def test_grid_requires_sorted(self):
        with pytest.raises(ValueError):
            grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, (0.5, 0.2), 4, SEED)
        with pytest.raises(ValueError):
            grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, (-1.0, 0.5), 4, SEED)

    def test_grid_requires_a_time(self):
        with pytest.raises(ValueError):
            grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, (), 4, SEED)
        with pytest.raises(ValueError, match="horizon must be positive"):
            event_ensemble(CPP, Affine(0.0, 1.0), 0.0, 0.0, 4, SEED)

    def test_grid_endpoint_consistent(self):
        # both consumers read the same draws: a lane's last event state
        # flowed to T is its endpoint, closed-form flow or Runge-Kutta
        for levy, rel in ((CPP, Affine(0.0, 1.0)),
                          (GammaSub(1.0, 1.0), PowerSmoothed(1.0, 0.5))):
            events = event_ensemble(levy, rel, 2.0, 3.0, 64, SEED)
            end = grid_ensemble(levy, rel, 2.0, [3.0], 64, SEED)[:, 0]
            flowed = _last_states(rel, events, 2.0, 3.0, 64,
                                  levy.compensator_drift(1e-4))
            assert flowed == pytest.approx(end, rel=1e-12, abs=0.0)
            assert np.unique(events[0]).size > 48  # most lanes jumped

    def test_transient_model_escapes(self):
        # alpha + beta < 1: paths drift to infinity; medians must ratchet up
        levy = CompoundPoisson(1.0, ParetoJumps(0.3))
        rel = PowerSmoothed(1.0, 0.3)
        mat = grid_ensemble(levy, rel, 0.0, (5.0, 20.0, 50.0), 200, SEED)
        med = np.median(mat, axis=0)
        assert med[0] < med[1] < med[2]
        assert med[2] > 10.0 * max(med[0], 1.0)

    def test_infinite_activity_drift_rk_path(self):
        # stable input against a power drain: the compensator enters the
        # inter-jump ODE, which only the step-halving integrator covers
        from storagelab.levy_input import StableSub
        levy, rel = StableSub(0.3, 1.0), PowerSmoothed(1.0, 0.3)
        mat = grid_ensemble(levy, rel, 0.0, (2.0, 8.0, 20.0), 20, SEED, 1e-2)
        assert (mat >= 0.0).all()
        med = np.median(mat, axis=0)
        assert med[-1] > med[0]


def _coupled(levy, release, x, y, grid, n_paths):
    """Lanes (n_paths, len(grid)) of the pair started at x and at y: two
    calls with one seed, so lane i of each sees the same jumps."""
    return (grid_ensemble(levy, release, x, grid, n_paths, SEED),
            grid_ensemble(levy, release, y, grid, n_paths, SEED))


class TestCoupled:
    def test_equal_seeds_give_lanes_the_same_jumps(self):
        # the coupling rule, across two chunks: under the affine drain the
        # jump part X(t) - x e^{-t} of a lane does not depend on its start
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        n = simulator._CHUNK + 64
        a, b = _coupled(CPP, Affine(0.0, 1.0), 5.0, 0.0, grid, n)
        assert a - 5.0 * np.exp(-grid) == pytest.approx(b, rel=0, abs=1e-12)
        assert (b[:, -1] > 0.0).mean() > 0.9  # the lanes did jump
        other = grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, grid, n, SEED + 1)
        assert (other != b).any()

    def test_linear_gap_exact(self):
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        a, b = _coupled(CPP, Affine(0.0, 1.0), 5.0, 0.0, grid, 256)
        assert np.abs(a - b) == pytest.approx(
            np.tile(5.0 * np.exp(-grid), (256, 1)), abs=1e-9)

    def test_identical_starts(self):
        a, b = _coupled(CPP, Affine(0.0, 1.0), 2.0, 2.0, [1.0, 2.0, 3.0], 256)
        assert a.tobytes() == b.tobytes()

    def test_constant_drain_gap_closes(self):
        grid = np.linspace(0.05, 1.0, 20)
        a, b = _coupled(NO_JUMPS, Constant(2.0), 1.0, 0.0, grid, 16)
        gaps = np.abs(a - b)
        assert (np.diff(gaps, axis=1) <= 1e-12).all()
        at_half = np.searchsorted(grid, 0.5)
        assert (gaps[:, at_half:] == pytest.approx(0.0, abs=1e-9))

    def test_order_preserved(self):
        grid = np.linspace(0.2, 20.0, 40)
        for rel in (Affine(0.0, 1.0), Power(1.0, 2.0), Plateau(2.0, 1.0)):
            a, b = _coupled(CPP, rel, 9.0, 1.0, grid, 256)
            assert (a >= b - 1e-12).all()

    def test_gap_dominated_by_contraction_bound(self):
        # power drain with quadratic modulus: |X - Z| <= B_kappa^{-1}(t),
        # and the gap only shrinks (jumps cancel, the drift contracts)
        grid = np.linspace(0.1, 10.0, 30)
        bound = GapBound(PowerModulus(2.0), 1.0, 2.0)
        a, b = _coupled(CPP, Power(1.0, 2.0), 3.0, 1.0, grid, 256)
        gaps = np.abs(a - b)
        assert (gaps <= np.array([bound(t) for t in grid]) + 1e-6).all()
        assert (np.diff(gaps, axis=1) <= 1e-12).all()

    def test_affine_gap_with_jumps_matches_exponential_bound(self):
        grid = np.linspace(0.25, 8.0, 16)
        bound = GapBound(PowerModulus(1.0), 1.0, 4.0)
        a, b = _coupled(CPP, Affine(0.0, 1.0), 4.0, 0.0, grid, 256)
        assert (np.abs(a - b) <= np.array([bound(t) for t in grid]) + 1e-6).all()


PAIRS = {name: (load_preset(name).levy, load_preset(name).release)
         for name in preset_names()}


class TestEnsemble:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_matches_walker_reference(self, name):
        # each lane's draws, stepped as lanes, against the float walk of
        # those draws; only power-heavy's pair has no closed-form flow
        levy, rel = PAIRS[name]
        tol = (dict(rel=0.0, abs=1e-8) if name == "power-heavy"
               else dict(rel=1e-14, abs=1e-300))
        events = event_ensemble(levy, rel, 1.5, 6.0, 6, SEED)
        end = grid_ensemble(levy, rel, 1.5, [6.0], 6, SEED)[:, 0]
        for i, (t, sizes, x) in enumerate(_per_lane(events, 6)):
            after, at_end = _walk_reference(levy, rel, 1.5, t, sizes, [6.0])
            assert x == pytest.approx(after, **tol)
            assert end[i] == pytest.approx(at_end[0], **tol)
        grid = (0.5, 2.0, 3.0, 6.0)
        mat = grid_ensemble(levy, rel, 1.5, grid, 6, SEED)
        for i, (t, sizes) in enumerate(_engine_jumps(levy, 1.5, grid, 6)):
            _, at_grid = _walk_reference(levy, rel, 1.5, t, sizes, grid)
            assert mat[i] == pytest.approx(at_grid, **tol)

    def test_event_lanes_span_chunks_and_slabs(self, monkeypatch):
        # three chunks of up to 16 lanes, each over many slabs: the events
        # still come lane by lane in time order, and each lane walks to its
        # endpoint
        monkeypatch.setattr(simulator, "_CHUNK", 16)
        monkeypatch.setattr(simulator, "_SLAB", 64)
        rel = Affine(0.0, 1.0)
        events = event_ensemble(CPP, rel, 1.0, 20.0, 40, SEED)
        lane, t = events[:2]
        assert (np.diff(lane) >= 0).all() and np.unique(lane).size == 40
        end = grid_ensemble(CPP, rel, 1.0, [20.0], 40, SEED)[:, 0]
        for i, (t, sizes, x) in enumerate(_per_lane(events, 40)):
            assert (np.diff(t) > 0.0).all()
            after, at_end = _walk_reference(CPP, rel, 1.0, t, sizes, [20.0])
            assert x == pytest.approx(after, rel=1e-12)
            assert end[i] == pytest.approx(at_end[0], rel=1e-12)

    def test_single_path_reduces(self):
        # one lane: its events end where its endpoint does
        events = event_ensemble(CPP, Constant(2.0), 2.0, 5.0, 1, SEED)
        end = grid_ensemble(CPP, Constant(2.0), 2.0, [5.0], 1, SEED)
        assert events[0].size > 0
        assert _last_states(Constant(2.0), events, 2.0, 5.0, 1, 0.0) == end[0]

    def test_bit_reproducible(self):
        a = grid_ensemble(CPP, Affine(0.0, 1.0), 1.0, [5.0], 50, SEED)
        b = grid_ensemble(CPP, Affine(0.0, 1.0), 1.0, [5.0], 50, SEED)
        assert a.tobytes() == b.tobytes()
        a = event_ensemble(CPP, Affine(0.0, 1.0), 1.0, 5.0, 50, SEED)
        b = event_ensemble(CPP, Affine(0.0, 1.0), 1.0, 5.0, 50, SEED)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_disjoint_seed_halves_consistent(self):
        a = grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, [2.0], 3000, 101)
        b = grid_ensemble(CPP, Affine(0.0, 1.0), 0.0, [2.0], 3000, 202)
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
                    ref = _scalar_rk_flow(rel.rate, float(x), float(dt), drift)
                    assert lane == pytest.approx(ref, abs=1e-8)
            for s, t in ((0.3, 1.4), (1.7, 9.0)):
                two_step = rel.flow(rel.flow(xs, s, drift), t, drift)
                assert two_step == pytest.approx(rel.flow(xs, s + t, drift), abs=1e-8)
        for x in xs[xs > 0.0]:
            for u in (0.05, 0.4, 1.0, 3.0):
                if u < x:
                    t = rel.drain_time(u, float(x))
                    assert rel.flow(float(x), t, 0.0) == pytest.approx(u, rel=1e-8)

    @pytest.mark.parametrize("rel", [
        Constant(2.0), Affine(0.0, 1.0), Affine(1.0, 2.0),
        Power(1.0, 2.0), Power(1.0, 1.0), PowerSmoothed(1.0, 0.5),
        Plateau(2.0, 1.0),
        pytest.param(Power(1.0, 0.5), id="Power-sublinear"),
        pytest.param(Power(1.0, -0.9), id="Power-singular"),
        pytest.param(CUSTOM, id="Custom"),
    ], ids=lambda r: f"{type(r).__name__}")
    def test_batched_rk_matches_scalar_reference(self, rel):
        # every lane of one batched RK call is the float RK on that lane,
        # and the same lane run alone; Plateau also at drift >= m
        drifts = (0.0, 0.7, 2.5)
        if isinstance(rel, Plateau):
            drifts += (rel.m, 2.0 * rel.m)
        xs, dts = np.meshgrid([0.0, 0.005, 0.5, 1.0, 4.0, 50.0],
                              [0.0, 0.3, 1.7, 9.0])
        for drift in drifts:
            lanes = _rk_flow(rel.rate, xs, dts, drift)
            assert lanes.shape == xs.shape
            for x, dt, lane in zip(xs.ravel(), dts.ravel(), lanes.ravel()):
                ref = _scalar_rk_flow(rel.rate, float(x), float(dt), drift)
                assert lane == pytest.approx(ref, rel=1e-15, abs=0.0)
                alone = _rk_flow(rel.rate, float(x), float(dt), drift)
                assert isinstance(alone, float) and alone == lane

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
        # the same as lanes of one call, next to an empty lane and one that
        # sticks later
        lanes = np.array([0.005, 0.0, 0.002])
        assert (rel.flow(lanes, 0.3, 0.7) == 0.0).all()
        assert (Power(1.0, -0.5).flow(lanes, 0.3, 0.7) == 0.0).all()
        lanes = np.array([0.5, 0.0, 0.25])
        assert (Power(1.0, -0.9).flow(lanes, 1.0, 0.7) == 0.0).all()
        assert (Power(1.0, -2.0).flow(lanes, 1.0, 0.7) == 0.0).all()
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
        gen = np.random.default_rng(SEED)
        walked = np.array([
            _walk_reference(levy, rel, 2.0, t, s, grid, eps)[1]
            for t, s in _independent_paths(levy, grid[-1], 2000, eps, gen)])
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

    def test_event_ensemble_memory_bounded(self):
        # 2e6 jumps: beyond the arrays it returns, the event engine holds
        # one slab's buffers and copies, or a sort order over its output
        tracemalloc.start()
        try:
            events = event_ensemble(CompoundPoisson(100.0, Exponential(1.0)),
                                    Constant(120.0), 0.0, 10.0, 2000, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(col.nbytes for col in events)
        assert events[0].size == pytest.approx(2e6, rel=0.01)
        assert peak < 1.5 * out + 64 * 2**20
