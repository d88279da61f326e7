"""Path simulation: exactness, coupling, ensembles, vector engines."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from storagelab import simulator
from storagelab.levy_input import (
    CompoundPoisson,
    Exponential,
    GammaSub,
    ParetoJumps,
)
from storagelab.lyapunov import GapBound, PowerModulus
from storagelab.errors import NonFiniteEvaluation
from storagelab.presets import load_preset, preset_names
from storagelab.release_rate import (
    Affine,
    Constant,
    Custom,
    Plateau,
    Power,
    PowerSmoothed,
    RateAsymptotics,
    ReleaseRate,
    signed_drain_time,
)
from storagelab.simulator import event_ensemble, grid_ensemble

from event_stream import flat_events

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
    """``flat_events``'s (lane, t, size, x_after) as one (t, size, x_after)
    triple of arrays per lane."""
    cuts = np.searchsorted(events[0], np.arange(1, n_paths))
    return list(zip(*(np.split(col, cuts) for col in events[1:])))


def _engine_jumps(levy, x0, grid, n_paths, eps=1e-4):
    """Each lane's (times, sizes) as the engine draws them for ``grid``."""
    lanes = [([], []) for _ in range(n_paths)]
    for lo, _, slabs in simulator._chunks(levy, x0, grid, n_paths, SEED, eps,
                                          times=True):
        for _, order, width, _, sizes, t, _ in slabs:
            # row k's jumps are those of its first width[k + 1] positions
            j = 0
            for v in width[1:]:
                for i, tk, sk in zip(order[:v], t[j:j + v], sizes[j:j + v]):
                    lanes[lo + i][0].append(tk)
                    lanes[lo + i][1].append(sk)
                j += v
    return lanes


def _last_states(release, rows, horizon, n_paths, drift):
    """Each lane's last row of ``flat_events(..., starts=True)`` flowed from
    its time to the horizon."""
    lane, t, _, x = rows
    last = np.searchsorted(lane, np.arange(n_paths), side="right") - 1
    return release.flow(x[last], horizon - t[last], drift)


def _independent_paths(levy, horizon, n_paths, eps, gen):
    """Jump times and sizes of paths drawn one by one, apart from the
    engine: a Poisson count of uniform times, then the sizes."""
    lam = levy.restricted_rate(eps)
    for _ in range(n_paths):
        k = gen.poisson(lam * horizon)
        yield (np.sort(gen.uniform(0.0, horizon, k)),
               levy.sample_sizes(gen, k, eps))


class TestSimulatePath:
    def test_pure_drain_matches_flow(self):
        lane, _, _, _ = flat_events(NO_JUMPS, Constant(2.0), 3.0, 2.0, 1, SEED)
        assert lane.size == 0
        assert grid_ensemble(NO_JUMPS, Constant(2.0), 3.0, [2.0], 1, SEED)[0, 0] == 0.0

    def test_values_non_negative(self):
        mat = grid_ensemble(CPP, PowerSmoothed(1.0, 0.5), 0.0,
                            np.linspace(0, 50, 101), 8, SEED)
        assert (mat >= 0.0).all()

    def test_events_mode_decreasing_between_jumps(self):
        assert CPP.compensator_drift(1e-4) == 0.0
        events = flat_events(CPP, Affine(0.0, 1.0), 5.0, 10.0, 4, SEED)
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
        lane, _, sizes, x = flat_events(levy, Affine(0.0, 1.0), 0.0, 1.0,
                                        4000, SEED)
        assert (x >= sizes).all() and (sizes > 0.0).all()
        vals = grid_ensemble(levy, Affine(0.0, 1.0), 0.0, [1.0], 4000, SEED)
        assert (vals >= 0.0).all()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - (1.0 - math.exp(-1.0))) <= 4 * se

    def test_finite_activity_no_bias(self):
        # finite activity keeps every jump: Poisson(rate * T) of them per
        # lane, with the jump law's sizes, and no compensating drift
        lane, _, sizes, _ = flat_events(CPP, Affine(0.0, 1.0), 0.0, 5.0,
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
        # flowed to T is its endpoint, closed-form flow or drain clock, bit
        # for bit in one slab: its last step is T less the last jump's time
        for levy, rel in ((CPP, Affine(0.0, 1.0)),
                          (GammaSub(1.0, 1.0), PowerSmoothed(1.0, 0.5))):
            rows = flat_events(levy, rel, 2.0, 3.0, 64, SEED, starts=True)
            end = grid_ensemble(levy, rel, 2.0, [3.0], 64, SEED)[:, 0]
            flowed = _last_states(rel, rows, 3.0, 64,
                                  levy.compensator_drift(1e-4))
            assert flowed.tobytes() == end.tobytes()
            # most lanes jumped: they have a row past their start
            assert (np.bincount(rows[0]) > 1).sum() > 48

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
        # inter-jump ODE, which the drain clock covers
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


class TestStarts:
    """Starts are given, one per lane or one level for all, and draw
    nothing: lane i's jumps depend on the seed and n_paths alone."""

    N = simulator._CHUNK + 100  # two chunks
    GRID = np.array([0.5, 1.0, 2.0, 4.0])

    def test_given_starts_reach_their_lanes_past_one_chunk(self):
        y = np.random.default_rng(1).uniform(0.0, 10.0, self.N)
        at_0 = grid_ensemble(CPP, Affine(0.0, 1.0), y, [0.0], self.N, SEED)
        assert (at_0[:, 0] == y).all()

    def test_lanes_with_equal_starts_are_bit_equal(self):
        # the start arrays agree on two of three lanes, on both sides of the
        # chunk boundary; an affine drain never merges the other lanes
        x = np.random.default_rng(2).uniform(0.0, 10.0, self.N)
        differ = np.arange(self.N) % 3 == 0
        y = np.where(differ, x + 1.0, x)
        a = grid_ensemble(CPP, Affine(0.0, 1.0), x, self.GRID, self.N, SEED)
        b = grid_ensemble(CPP, Affine(0.0, 1.0), y, self.GRID, self.N, SEED)
        equal = (a == b).all(axis=1)
        assert (equal == ~differ).all()
        assert equal[:simulator._CHUNK].any() and equal[simulator._CHUNK:].any()
        assert (b[differ, -1] > 0.0).all()

    def test_a_level_is_its_full_array(self):
        full = np.full(self.N, 2.5)
        for rel in (Affine(0.0, 1.0), Constant(2.0)):
            a = grid_ensemble(CPP, rel, 2.5, self.GRID, self.N, SEED)
            b = grid_ensemble(CPP, rel, full, self.GRID, self.N, SEED)
            assert a.tobytes() == b.tobytes()
            a = flat_events(CPP, rel, 2.5, 4.0, self.N, SEED, starts=True)
            b = flat_events(CPP, rel, full, 4.0, self.N, SEED, starts=True)
            assert all(u.tobytes() == v.tobytes() for u, v in zip(a, b))

    @pytest.mark.parametrize("shape", [(99,), (101,), (1,), (100, 1)])
    def test_a_start_array_of_the_wrong_shape_is_refused(self, shape):
        x0 = np.ones(shape)
        with pytest.raises(ValueError, match="x0"):
            grid_ensemble(CPP, Affine(0.0, 1.0), x0, self.GRID, 100, SEED)
        with pytest.raises(ValueError, match="x0"):
            event_ensemble(CPP, Affine(0.0, 1.0), x0, 4.0, 100, SEED)


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
        events = flat_events(levy, rel, 1.5, 6.0, 6, SEED)
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
        events = flat_events(CPP, rel, 1.0, 20.0, 40, SEED)
        lane, t = events[:2]
        assert (np.diff(lane) >= 0).all() and np.unique(lane).size == 40
        end = grid_ensemble(CPP, rel, 1.0, [20.0], 40, SEED)[:, 0]
        for i, (t, sizes, x) in enumerate(_per_lane(events, 40)):
            assert (np.diff(t) > 0.0).all()
            after, at_end = _walk_reference(CPP, rel, 1.0, t, sizes, [20.0])
            assert x == pytest.approx(after, rel=1e-12)
            assert end[i] == pytest.approx(at_end[0], rel=1e-12)

    def test_every_lane_opens_with_its_start(self, monkeypatch):
        # three chunks of up to 16 lanes, and an input so sparse that some
        # lane has no jump: each chunk holds its own lanes, lane by lane,
        # and each lane opens with its start row, then its jumps
        monkeypatch.setattr(simulator, "_CHUNK", 16)
        x0 = np.random.default_rng(3).uniform(0.0, 10.0, 40)
        levy = CompoundPoisson(0.2, Exponential(1.0))
        chunks = list(event_ensemble(levy, Affine(0.0, 1.0), x0, 4.0, 40, SEED))
        assert len(chunks) == 3
        for c, (lane, t, size, x) in enumerate(chunks):
            first = np.append(True, lane[1:] != lane[:-1])
            assert (lane[first] == np.arange(16 * c, min(16 * c + 16, 40))).all()
            assert (t[first] == 0.0).all() and (size[first] == 0.0).all()
            assert (x[first] == x0[lane[first]]).all()
            assert (t[~first] > 0.0).all() and (size[~first] > 0.0).all()
        rows = np.bincount(np.concatenate([chunk[0] for chunk in chunks]))
        assert (rows == 1).any() and (rows > 1).any()

    def test_no_lanes_yield_nothing(self):
        assert list(event_ensemble(CPP, Affine(0.0, 1.0), 0.0, 1.0, 0, SEED)) == []

    def test_single_path_reduces(self):
        # one lane: its events end where its endpoint does
        rows = flat_events(CPP, Constant(2.0), 2.0, 5.0, 1, SEED, starts=True)
        end = grid_ensemble(CPP, Constant(2.0), 2.0, [5.0], 1, SEED)
        assert rows[0].size > 1  # a jump past the start row
        assert _last_states(Constant(2.0), rows, 5.0, 1, 0.0) == end[0]

    def test_bit_reproducible(self):
        a = grid_ensemble(CPP, Affine(0.0, 1.0), 1.0, [5.0], 50, SEED)
        b = grid_ensemble(CPP, Affine(0.0, 1.0), 1.0, [5.0], 50, SEED)
        assert a.tobytes() == b.tobytes()
        a = flat_events(CPP, Affine(0.0, 1.0), 1.0, 5.0, 50, SEED, starts=True)
        b = flat_events(CPP, Affine(0.0, 1.0), 1.0, 5.0, 50, SEED, starts=True)
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
        # every lane of one batched flow on a (dt, x) grid is the same lane
        # run alone, and the float RK on that lane within its tolerance;
        # Plateau also at drift >= m, where it has its own closed form
        drifts = (0.0, 0.7, 2.5)
        if isinstance(rel, Plateau):
            drifts += (rel.m, 2.0 * rel.m)
        xs, dts = np.meshgrid([0.0, 0.005, 0.5, 1.0, 4.0, 50.0],
                              [0.0, 0.3, 1.7, 9.0])
        for drift in drifts:
            lanes = rel.flow(xs, dts, drift)
            assert lanes.shape == xs.shape
            for x, dt, lane in zip(xs.ravel(), dts.ravel(), lanes.ravel()):
                ref = _scalar_rk_flow(rel.rate, float(x), float(dt), drift)
                assert lane == pytest.approx(ref, rel=1e-8, abs=1e-9)
                alone = rel.flow(float(x), float(dt), drift)
                assert isinstance(alone, float)
                assert alone == pytest.approx(lane, rel=1e-14, abs=1e-300)

    def test_flow_sticks_at_empty_below_r0(self):
        # 0 < drift <= r(0+): an emptied lane stays empty (a sliding motion)
        # where a Runge-Kutta flow chatters across 0 or underflows its step
        calls = []

        def fn(u):
            calls.append(u)
            if len(calls) > 100_000:
                raise RuntimeError("the flow does not terminate")
            return 1.0 + 2.0 * u

        rel = Custom(fn, RateAsymptotics("power", 1.0, 2.0))
        assert rel.flow(0.005, 0.3, 0.7) == 0.0
        assert Power(1.0, -0.5).flow(0.005, 0.3, 0.7) == 0.0
        # r more singular at 0 than u^-0.5, where Runge-Kutta underflows its step
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
        # G(u) = int_1^u dv / r(v) against scipy's quadrature of 1/r, not
        # drain_time
        inv_rate = lambda v: 1.0 / float(rel.rate(v))
        for u in (0.05, 0.4, 1.0, 3.0, 42.0):
            ref = integrate.quad(inv_rate, 1.0, u, epsabs=0.0, epsrel=1e-13,
                                 limit=200)[0]
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
        # 2e7 jumps in one chunk: slabs keep the staircase buffers small
        tracemalloc.start()
        try:
            grid_ensemble(CompoundPoisson(100.0, Exponential(1.0)),
                          Constant(120.0), 0.0, [100.0], 2000, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_event_ensemble_memory_bounded(self):
        # 2e6 jumps: beyond the arrays it yields, the event engine holds
        # one slab's buffers and copies, or a sort order over its output
        tracemalloc.start()
        try:
            chunks = list(event_ensemble(CompoundPoisson(100.0, Exponential(1.0)),
                                         Constant(120.0), 0.0, 10.0, 2000, SEED))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(col.nbytes for chunk in chunks for col in chunk)
        jumps = sum(chunk[0].size for chunk in chunks) - 2000  # less starts
        assert jumps == pytest.approx(2e6, rel=0.01)
        assert peak < 1.5 * out + 64 * 2**20

    def test_event_stream_holds_one_chunk(self, monkeypatch):
        # four chunks of 1 024 lanes, about 2e5 rows each: consumed chunk by
        # chunk, the stream holds one chunk's rows and their copies, never
        # the run's
        monkeypatch.setattr(simulator, "_CHUNK", 1024)
        n, sizes = 4 * 1024, []
        tracemalloc.start()
        try:
            for chunk in event_ensemble(CompoundPoisson(200.0, Exponential(1.0)),
                                        Constant(240.0), 0.0, 1.0, n, SEED):
                sizes.append(sum(col.nbytes for col in chunk))
                del chunk
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sizes) == 4
        assert peak < 3 * max(sizes) < sum(sizes)


def _rows_of(width):
    """The rows each position of a staircase slab has."""
    return (np.asarray(width)[:, None] > np.arange(width[0])).sum(axis=0)


def _row_loop(release, x, width, dt, sizes, drift, out=None):
    """The slow reference of ``simulator._step_lanes``: row k of the
    staircase on the lanes that have it, picked by a mask, through
    ``release.flow``, one row at a time, then the sizes on the lanes for
    which the row is a jump."""
    x = np.array(x, dtype=float)
    rows = _rows_of(width)
    lo = j = 0
    for k in range(rows.max()):
        on, jump = rows > k, rows > k + 1
        w, v = int(on.sum()), int(jump.sum())
        x[on] = release.flow(x[on], dt[lo:lo + w], drift)
        x[jump] = x[jump] + sizes[j:j + v]
        if out is not None:
            out[j:j + v] = x[jump]
        lo, j = lo + w, j + v
    return x


class _NanAbove(ReleaseRate):
    """r(u) = u up to 2, NaN beyond: no flow can cross 2."""

    def rate(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u > 2.0, np.nan, u)


GAMMA = GammaSub(1.0, 1.0)
# (input, release, eps): each release takes its drain clock at the drift,
# but Plateau its closed form above m
WALKS = {
    "Power-drift": (GAMMA, Power(1.0, 2.0), 1e-4),
    "PowerSmoothed-drift": (GAMMA, PowerSmoothed(1.0, 0.5), 1e-4),
    "Power-sticking": (GAMMA, Power(1.0, -0.5), 1e-4),
    "Custom": (CPP, CUSTOM, 1e-4),
    # at eps = 0.5 the drift, 1 - e^-0.5 = 0.39, is above m
    "Plateau-above-m": (GAMMA, Plateau(0.3, 1.0), 0.5),
    # most lanes have no jump in a slab
    "Custom-sparse": (CompoundPoisson(0.05, Exponential(1.0)), CUSTOM, 1e-4),
}


class TestRKWalk:
    """Releases with no closed-form flow at the drift, and Plateau above m:
    the engine walks their lanes through the staircase as the row loop."""

    @pytest.mark.parametrize("small", [False, True], ids=["preset", "small-slabs"])
    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_walk_is_the_row_loop(self, name, small, monkeypatch):
        # the engine gives the row loop's states bit for bit, so a clock
        # lane does not depend on which other lanes share its call; with
        # chunks of 16 lanes and slabs of 64 jumps the lanes cross chunks
        # and walk through many slabs
        levy, rel, eps = WALKS[name]
        if small:
            monkeypatch.setattr(simulator, "_CHUNK", 16)
            monkeypatch.setattr(simulator, "_SLAB", 64)
        grid = (0.0, 1.0, 2.5, 4.0)

        def run():
            return (grid_ensemble(levy, rel, 1.0, grid, 24, SEED, eps),
                    flat_events(levy, rel, 1.0, 4.0, 24, SEED, eps))

        mat, events = run()
        monkeypatch.setattr(simulator, "_step_lanes", _row_loop)
        ref_mat, ref_events = run()
        assert mat.tobytes() == ref_mat.tobytes()
        assert len(events) == 4
        for col, ref in zip(events, ref_events):
            assert col.tobytes() == ref.tobytes()
        if name == "Custom-sparse":
            # some lane walks a slab without a jump, and some lane has no
            # jump at all
            assert np.unique(events[0]).size < 24

    def test_clock_reads_no_rate_after_its_table(self, monkeypatch):
        # the table is built once per release and drift; after it, a run
        # flows every row without evaluating r
        calls = [0]
        rate = PowerSmoothed.rate

        def counting(self, u):
            calls[0] += 1
            return rate(self, u)

        monkeypatch.setattr(PowerSmoothed, "rate", counting)
        rel, grid = PowerSmoothed(1.0, 0.5, 0.02), (2.0, 3.0, 5.0, 8.0, 12.0)
        walk = grid_ensemble(GAMMA, rel, 1.0, grid, 8, SEED)
        assert calls[0] > 0
        calls[0] = 0
        assert grid_ensemble(GAMMA, rel, 1.0, grid, 8, SEED).tobytes() == walk.tobytes()
        assert calls[0] == 0

    def test_nan_rate_raises(self):
        # the clock tabulates r above 2 too, where it is NaN
        with pytest.raises(NonFiniteEvaluation, match="NaN"):
            grid_ensemble(CPP, _NanAbove(), 1.0, [2.0, 6.0], 16, SEED)


def _slabs_of(levy, grid, n_paths, eps=1e-4):
    """Every slab of the engine's draws for ``grid`` as ``(a, b, order,
    width, dt, sizes, t)``, with a copy of the steps."""
    out = []
    for _, _, slabs in simulator._chunks(levy, 0.0, grid, n_paths, SEED, eps,
                                         times=True):
        slabs = [(a, order, width, dt.copy(), sizes, t)
                 for a, order, width, dt, sizes, t, _ in slabs]
        # a slab ends where the next starts, the last at the last grid time
        ends = [slab[0] for slab in slabs[1:]] + [float(grid[-1])]
        out += [(a, b, *rest) for (a, *rest), b in zip(slabs, ends)]
    return out


def _cells(width):
    """Per row k of a staircase slab, the offsets of its steps and of its
    jumps, each run holding the row's positions in order."""
    steps = np.concatenate([[0], np.cumsum(width)[:-1]])
    jumps = np.concatenate([[0], np.cumsum(width[1:])])
    return steps, jumps


class TestStaircase:
    def test_each_lane_is_its_jumps_then_the_slab_end(self, monkeypatch):
        # lanes sorted by count; a lane's times are in (a, b] in order, its
        # steps are the gaps between them, and the last step ends at b
        monkeypatch.setattr(simulator, "_CHUNK", 300)
        monkeypatch.setattr(simulator, "_SLAB", 256)
        slabs = _slabs_of(CPP, (0.5, 2.0, 3.0), 700)
        assert len(slabs) > 10
        for a, b, order, width, dt, sizes, t in slabs:
            m = order.size
            assert np.sort(order).tolist() == list(range(m))
            assert width[0] == m and (np.diff(width) <= 0).all() and width[-1] >= 1
            assert dt.size == width.sum() and sizes.size == t.size == dt.size - m
            steps, jumps = _cells(width)
            rows = _rows_of(width)
            for p, n in enumerate(rows):
                dp = dt[steps[:n] + p]
                tp, sp = t[jumps[:n - 1] + p], sizes[jumps[:n - 1] + p]
                assert (tp > a).all() and (tp <= b).all()
                assert (np.diff(tp) >= 0.0).all() and (dp >= 0.0).all()
                assert (sp > 0.0).all()
                # the step to b is b less the last jump's time, bit for bit
                assert dp[-1] == b - (tp[-1] if n > 1 else a)
                gaps = np.diff(tp, prepend=a)
                assert dp[:-1] == pytest.approx(gaps, rel=0, abs=1e-14 * b)
                # the steps sum to b - a within a few ulp of b per row
                assert abs(math.fsum(dp) - (b - a)) <= n * 2 * math.ulp(b)
            # lanes of one count keep their order
            for n in np.unique(rows):
                assert (np.diff(order[rows == n]) > 0).all()
            assert stats.kstest((t - a) / (b - a), "uniform").pvalue > 1e-3

    def test_times_given_a_count_are_uniform_order_statistics(self):
        # the lanes with c jumps in a slab: their j-th normalised time is
        # the j-th of c uniform order statistics, Beta(j, c + 1 - j), over
        # more than 10^4 lanes
        levy, c = CompoundPoisson(3.0, Exponential(1.0)), 3
        slabs = _slabs_of(levy, np.arange(1.0, 7.0), simulator._CHUNK)
        assert len(slabs) == 6
        times = []
        for a, b, _, width, _, _, t in slabs:
            _, jumps = _cells(width)
            rows = _rows_of(width)
            at = np.flatnonzero(rows == c + 1)
            times.append((t[jumps[:c, None] + at] - a) / (b - a))
        times = np.concatenate(times, axis=1)
        assert times.shape[1] > 10_000
        for j, col in enumerate(times, start=1):
            beta = stats.beta(j, c + 1 - j)
            assert stats.kstest(col, beta.cdf).pvalue > 1e-3

    def test_counts_are_poisson(self):
        # 8192 lanes of one slab: mean and variance of Poisson(rate (b - a)),
        # and the counts' histogram
        levy = CompoundPoisson(3.0, Exponential(1.0))
        (a, b, _, width, _, _, _), = _slabs_of(levy, (2.0,), simulator._CHUNK)
        counts, mean = _rows_of(width) - 1, 3.0 * (b - a)
        n = counts.size
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(mean / n)
        assert abs(counts.var(ddof=1) - mean) <= 5 * math.sqrt(
            (2 * mean ** 2 + mean) / n)
        # the bins from 0 to 12, and 13 or more
        seen = np.bincount(np.minimum(counts, 13), minlength=14)
        pmf = stats.poisson(mean).pmf(np.arange(13))
        expected = n * np.append(pmf, 1.0 - pmf.sum())
        assert stats.chisquare(seen, expected).pvalue > 1e-3

    def test_flow_steps_only_real_rows(self, monkeypatch):
        # row k of a slab is flowed on the lanes that have it: each slab
        # costs its real jumps plus one end row per lane, in closed form or
        # by the drain clock (PowerSmoothed at drift 1e-4)
        monkeypatch.setattr(simulator, "_CHUNK", 300)
        monkeypatch.setattr(simulator, "_SLAB", 256)
        grid = (0.5, 2.0, 3.0)
        for levy, rel in ((CPP, Affine(0.0, 1.0)), (GAMMA, PowerSmoothed(1.0, 0.5))):
            sizes, flow = [], type(rel).flow

            def counting(self, x, dt, drift):
                sizes.append(np.size(x))
                return flow(self, x, dt, drift)

            monkeypatch.setattr(type(rel), "flow", counting)
            grid_ensemble(levy, rel, 1.0, grid, 700, SEED)
            slabs = _slabs_of(levy, grid, 700)
            assert sizes == [int(w) for _, _, _, width, *_ in slabs
                             for w in width]
            assert sum(sizes) == sum(t.size + order.size
                                     for _, _, order, *_, t in slabs)

    @pytest.mark.parametrize("rel", [Affine(0.0, 1.0), CUSTOM],
                             ids=["closed-flow", "RK"])
    def test_step_reads_no_cell_past_a_lane(self, rel):
        # a lane's cells are the slab's, held row by row with no padding:
        # with NaN in every cell past the slab's steps and sizes, as in a
        # chunk buffer drawn for a larger slab, the states stay finite,
        # those cells of out stay NaN, and the rest is the row loop's
        (_, _, _, width, dt, sizes, _), = _slabs_of(CPP, (4.0,), 64)
        tail = np.full(40, np.nan)
        dt, sizes = np.append(dt, tail), np.append(sizes, tail)
        x0 = np.linspace(0.0, 3.0, 64)
        out = np.full(sizes.size, np.nan)
        x = simulator._step_lanes(rel, x0.copy(), width, dt, sizes, 0.0, out=out)
        ref_out = np.full(sizes.size, np.nan)
        ref = _row_loop(rel, x0, width, dt, sizes, 0.0, out=ref_out)
        past = np.arange(sizes.size) >= sizes.size - tail.size
        assert np.isfinite(x).all() and np.isnan(out[past]).all()
        assert np.isfinite(out[~past]).all()
        assert x.tobytes() == ref.tobytes()
        assert out.tobytes() == ref_out.tobytes()
