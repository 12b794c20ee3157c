import csv
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaeuler import (
    AlphaParam,
    Grid,
    ParticleSet,
    PhysicalField,
    SpectralField,
    advect_particles,
    flow_distance,
    lagrangian_vorticity,
    measure_preservation_defect,
    sample,
    seed_particles,
    smooth_random,
    torus_distance,
)
from alphaeuler.lagrangian import (
    BicubicWork,
    TrajectoryStream,
    bicubic_sample,
    cumulative_trapezoid,
)
from sampled import velocity_l1_distance


def _catmull_rom_weights(f):
    f2 = f * f
    f3 = f2 * f
    w0 = 0.5 * (-f3 + 2.0 * f2 - f)
    w1 = 0.5 * (3.0 * f3 - 5.0 * f2 + 2.0)
    w2 = 0.5 * (-3.0 * f3 + 4.0 * f2 + f)
    w3 = 0.5 * (f3 - f2)
    return w0, w1, w2, w3


def _bicubic_stencil(positions, n, dx):
    g = positions / dx
    base = np.floor(g).astype(int)
    frac = g - base
    w1 = _catmull_rom_weights(frac[:, 0])
    w2 = _catmull_rom_weights(frac[:, 1])
    idx1 = [(base[:, 0] + o) % n for o in (-1, 0, 1, 2)]
    idx2 = [(base[:, 1] + o) % n for o in (-1, 0, 1, 2)]
    return w1, w2, idx1, idx2


def oracle_bicubic_sample(values, positions, dx):
    """The one-shot sampler the buffered one replaced: eight wrapped index
    arrays and 16 gathers from the flattened field."""
    n = values.shape[-1]
    w1, w2, idx1, idx2 = _bicubic_stencil(positions, n, dx)
    flat = values.reshape(values.shape[:-2] + (n * n,))
    out = np.zeros(values.shape[:-2] + (positions.shape[0],))
    for a in range(4):
        row = idx1[a] * n
        for b in range(4):
            out += (w1[a] * w2[b]) * np.take(flat, row + idx2[b], axis=-1)
    return out


def grids_at(history, j, t):
    """The velocity at time t blended from samples j and j + 1 of a history
    (times, snapshots) as one expression."""
    times, snapshots = history
    t0, t1 = times[j], times[j + 1]
    theta = (t - t0) / (t1 - t0)
    return (1.0 - theta) * snapshots[j] + theta * snapshots[j + 1]


def oracle_advect(positions, history, t0, t1, substeps):
    """advect_particles as the plain RK4 loop over oracle samples of
    `grids_at`, from t0 to t1 inside one interval of the history: the one
    starting at the last sample time at or before both."""
    times, snapshots = history
    j = max(i for i in range(len(times) - 1) if times[i] <= min(t0, t1))
    dx = 2 * np.pi / snapshots[j].shape[-1]

    def velocity(t, x):
        return oracle_bicubic_sample(grids_at(history, j, t), x, dx).T

    x = positions.copy()
    h = (t1 - t0) / substeps
    t = t0
    for _ in range(substeps):
        k1 = velocity(t, x)
        k2 = velocity(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = velocity(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = velocity(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return ParticleSet(np.mod(x, 2 * np.pi), t1)


def pair(history, j):
    """Interval j of a history (times, snapshots): its two times and its
    two samples, the arguments of advect_particles."""
    times, snapshots = history
    return (times[j], times[j + 1]), (snapshots[j], snapshots[j + 1])


def nearest_sample(values, positions, dx):
    n = values.shape[0]
    idx = np.rint(positions / dx).astype(int) % n
    return values[idx[:, 0], idx[:, 1]]


def nearest_vorticity(q0, flow_back):
    """Transport reconstruction with nearest-node sampling, which keeps the
    jump of patch data sharp."""
    g = q0.grid
    vals = nearest_sample(q0.values, flow_back.positions, g.dx)
    return PhysicalField(g, vals.reshape(g.n, g.n))


def steady_pair(u_phys, t0, t1):
    """One time-independent field over [t0, t1], as advect_particles takes
    it."""
    return (t0, t1), (u_phys, u_phys)


def export_particles_csv(p, path):
    """Particle snapshot as CSV with columns x1, x2, id."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "id"])
        for i, (x1, x2) in enumerate(p.positions):
            writer.writerow([repr(float(x1)), repr(float(x2)), i])


def constant_pair(u1, u2, grid, t0=0.0, t1=10.0):
    field = np.stack([np.full((grid.n, grid.n), u1), np.full((grid.n, grid.n), u2)])
    return steady_pair(field, t0, t1)


def shear_pair(grid, t0=0.0, t1=10.0):
    x1, _ = grid.mesh
    field = np.stack([np.zeros_like(x1), np.sin(x1)])
    return steady_pair(field, t0, t1)


class TestBicubic:
    def test_exact_at_nodes(self):
        g = Grid(16)
        f = sample(g, lambda x1, x2: np.cos(x1) * np.sin(2 * x2))
        pts = seed_particles(g).positions
        vals = bicubic_sample(f.values, pts, g.dx)
        assert np.abs(vals - f.values.ravel()).max() < 1e-14

    def test_accuracy_off_nodes(self):
        g = Grid(64)
        f = sample(g, lambda x1, x2: np.sin(x1 + 2 * x2))
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 2 * np.pi, size=(500, 2))
        vals = bicubic_sample(f.values, pts, g.dx)
        exact = np.sin(pts[:, 0] + 2 * pts[:, 1])
        # third-order kernel: error ~ h^3 |f'''| ~ 2.5e-4 at this resolution
        assert np.abs(vals - exact).max() < 2.5e-4


# Few, reproducible examples: the suite's run time stays where it was.
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@st.composite
def sampling_cases(draw):
    """A scalar or (2, n, n) field of odd, even or non-power-of-two size
    (power-of-two sizes are sampled, the others rejected) and positions
    from far below 0 to several periods past 2 pi, grid nodes among them."""
    n = draw(st.sampled_from([5, 8, 16, 17, 48, 64]))
    shape = draw(st.sampled_from([(n, n), (2, n, n)]))
    count = draw(st.sampled_from([1, 2, 7, 24]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    dx = 2 * np.pi / n
    coordinate = st.one_of(
        st.floats(-40.0, 40.0),
        st.integers(-6 * n, 6 * n).map(lambda i: i * dx),
    )
    point = st.tuples(coordinate, coordinate)
    positions = np.array(draw(st.lists(point, min_size=count, max_size=count)))
    return values, positions, dx


@PROPERTY
@given(sampling_cases())
def test_bicubic_sample_bitwise_equals_oracle(case):
    values, positions, dx = case
    n = values.shape[-1]
    if n & (n - 1):
        for work in (None, BicubicWork(values.shape, positions.shape[0])):
            with pytest.raises(ValueError, match=f"power-of-two grid size n, got n = {n}$"):
                bicubic_sample(values, positions, dx, work)
        return
    expected = oracle_bicubic_sample(values, positions, dx).tobytes()
    assert bicubic_sample(values, positions, dx).tobytes() == expected
    work = BicubicWork(values.shape, positions.shape[0])
    out = np.empty(values.shape[:-2] + positions.shape[:1])
    for _ in range(2):
        assert bicubic_sample(values, positions, dx, work, out) is out
        assert out.tobytes() == expected
    work.load(values)
    assert bicubic_sample(work.field, positions, dx, work).tobytes() == expected


def test_bicubic_work_rejects_other_shapes():
    g = Grid(16)
    values = np.zeros((2, g.n, g.n))
    positions = seed_particles(g, 4).positions
    with pytest.raises(ValueError):
        bicubic_sample(values, positions, g.dx, BicubicWork((g.n, g.n), positions.shape[0]))
    with pytest.raises(ValueError):
        bicubic_sample(values, positions, g.dx, BicubicWork(values.shape, 3))


class TestBufferedAdvection:
    def history(self, n=32, seed=1):
        """Fast random velocities: particles cross the torus several times
        and the stage positions leave [0, 2 pi)."""
        times = np.array([0.0, 0.1, 0.25, 0.3, 0.5])
        snapshots = 10.0 * np.random.default_rng(seed).standard_normal((5, 2, n, n))
        return Grid(n), (times, snapshots)

    @pytest.mark.parametrize("n, substeps", [(32, 1), (32, 4), (16, 3)])
    def test_whole_history_bitwise_equals_oracle_rk4(self, n, substeps):
        # every interval of the history, forward and back
        g, hist = self.history(n)
        times = hist[0]
        p = seed_particles(g)
        for j in range(times.size - 1):
            fwd = advect_particles(p, *pair(hist, j), times[j + 1], substeps=substeps)
            expected = oracle_advect(p.positions, hist, times[j], times[j + 1], substeps)
            assert fwd.positions.tobytes() == expected.positions.tobytes()
            back = advect_particles(fwd, *pair(hist, j), times[j], substeps=substeps)
            expected = oracle_advect(fwd.positions, hist, times[j + 1], times[j], substeps)
            assert back.positions.tobytes() == expected.positions.tobytes()
            p = fwd

    def test_single_particle_between_sample_times(self):
        # neither end of the advection need be a sample time
        g, hist = self.history(16)
        p0 = ParticleSet(np.array([[6.2, -0.1]]), 0.12)
        got = advect_particles(p0, *pair(hist, 1), 0.2, substeps=2)
        assert got.t_origin == 0.2
        assert got.positions.tobytes() == oracle_advect(p0.positions, hist, 0.12, 0.2, 2).positions.tobytes()

    def test_threads_match_serial(self):
        # each stream and each of its calls owns its buffers: streams
        # advecting at once, on more threads than cores and switching as
        # often as the interpreter allows, give the serial bits
        g, (times, snapshots) = self.history(64, seed=2)
        p0 = seed_particles(g)
        jobs = [
            (p0, times, snapshots),
            (ParticleSet(p0.positions, 0.5), times[::-1], snapshots[::-1]),
            (ParticleSet(p0.positions[::-1], 0.0), times, snapshots),
        ]

        def trace(p, times, snapshots):
            stream = TrajectoryStream(g, p)
            return [stream.push(t, u) for t, u in zip(times, snapshots)]

        serial = [trace(*job) for job in jobs]
        results = [None] * len(jobs)

        def advect(i, job):
            results[i] = trace(*job)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=advect, args=(i, job)) for i, job in enumerate(jobs)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got, expected in zip(results, serial):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]

    def test_reused_evaluation_allocates_at_most_its_result(self):
        import tracemalloc

        g, (_, snapshots) = self.history(128)
        x = seed_particles(g, 2).positions
        a, b, c = snapshots[:3]
        work = BicubicWork((2, 128, 128), x.shape[0])
        out = np.empty((2, x.shape[0]))
        work.blend(a, b, 0.5)
        bicubic_sample(work.field, x, g.dx, work, out)
        tracemalloc.start()
        try:
            work.blend(b, c, 2.0 / 3.0)
            result = bicubic_sample(work.field, x, g.dx, work, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * result.nbytes

    @pytest.mark.parametrize("transposed", [False, True])
    def test_reused_sample_allocates_no_iterator_buffer(self, transposed):
        # a ufunc that broadcasts or mixes layouts allocates a 64 KB
        # iterator buffer at 4,096 particles; the positions are a C-ordered
        # (count, 2) array, or the (count, 2) view of (2, count) rows that
        # advect_particles passes
        import tracemalloc

        g, (_, snapshots) = self.history(128)
        x = seed_particles(g, 2).positions
        if transposed:
            x = np.ascontiguousarray(x.T).T
        work = BicubicWork((2, 128, 128), x.shape[0])
        out = np.empty((2, x.shape[0]))
        work.load(snapshots[0])
        bicubic_sample(work.field, x, g.dx, work, out)
        tracemalloc.start()
        try:
            bicubic_sample(work.field, x, g.dx, work, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    @pytest.mark.parametrize("backward", [False, True])
    def test_one_interval_reads_only_its_two_samples(self, backward):
        # the last substep lands a rounding error past the interval's end
        # (or before its start, backward); it extrapolates within the pair
        # and stays finite
        g = Grid(16)
        times = overshooting_times(4, 4, seed=3)
        snapshots = np.random.default_rng(4).standard_normal((4, 2, g.n, g.n))
        j = 1
        start, end = (times[j + 1], times[j]) if backward else (times[j], times[j + 1])
        p0 = seed_particles(g, 2, t=float(start))
        got = advect_particles(p0, *pair((times, snapshots), j), float(end))
        assert np.isfinite(got.positions).all()
        expected = oracle_advect(p0.positions, (times, snapshots), float(start), float(end), 4)
        assert got.positions.tobytes() == expected.positions.tobytes()

    @pytest.mark.parametrize("substeps", [0, -2])
    def test_substeps_below_one_rejected(self, substeps):
        g = Grid(16)
        with pytest.raises(ValueError, match="substeps"):
            advect_particles(seed_particles(g), *constant_pair(1.0, 0.0, g), 1.0, substeps=substeps)
        with pytest.raises(ValueError, match="substeps"):
            TrajectoryStream(g, seed_particles(g), substeps=substeps)

    @pytest.mark.parametrize(
        "times", [(1.0, 1.0), (1.0, 0.0), (0.0, np.nan), (np.nan, 1.0), (-np.inf, 1.0), (0.0, np.inf)]
    )
    def test_times_not_finite_and_increasing_rejected(self, times):
        u = np.zeros((2, 8, 8))
        with pytest.raises(ValueError, match="increasing"):
            advect_particles(seed_particles(Grid(8), 4, t=0.5), times, (u, u), 0.5)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((2, 8, 8), (2, 16, 16)), ((8, 8), (8, 8)), ((3, 8, 8), (3, 8, 8)), ((2, 8, 4), (2, 8, 4))],
    )
    def test_samples_not_a_matching_2nn_pair_rejected(self, shape_a, shape_b):
        samples = (np.zeros(shape_a), np.zeros(shape_b))
        with pytest.raises(ValueError, match="shape"):
            advect_particles(seed_particles(Grid(8), 4, t=0.5), (0.0, 1.0), samples, 0.5)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="stride"):
            seed_particles(Grid(16), stride)


class TestAdvection:
    def test_zero_velocity(self):
        g = Grid(16)
        p0 = seed_particles(g)
        p1 = advect_particles(p0, *constant_pair(0.0, 0.0, g), 3.0)
        assert np.abs(p1.positions - p0.positions).max() == 0.0

    def test_constant_velocity_exact_shift(self):
        g = Grid(16)
        p0 = seed_particles(g)
        p1 = advect_particles(p0, *constant_pair(1.0, 0.0, g), np.pi)
        expected = np.mod(p0.positions + [np.pi, 0.0], 2 * np.pi)
        assert torus_distance(p1.positions, expected).max() < 1e-10

    def test_shear_single_particle(self):
        g = Grid(64)
        p0 = ParticleSet(np.array([[np.pi / 2, 0.0]]), 0.0)
        p1 = advect_particles(p0, *shear_pair(g), 1.0)
        # x1 frozen, x2' = sin(pi/2) = 1
        assert p1.positions[0, 0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert p1.positions[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_backward_forward_composition(self):
        g = Grid(64)
        from alphaeuler.solver import velocity

        q = SpectralField(g, smooth_random(11, 2.0, 5, g).coeffs * 8.0)
        steady = steady_pair(velocity(q, AlphaParam(0.1)).physical(), 0.0, 1.0)
        p0 = seed_particles(g)
        fwd = advect_particles(p0, *steady, 1.0, substeps=8)
        back = advect_particles(fwd, *steady, 0.0, substeps=8)
        assert torus_distance(back.positions, p0.positions).mean() < 1e-6

    def test_outside_history_rejected(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            advect_particles(seed_particles(g), *constant_pair(1.0, 0.0, g, t0=0.0, t1=1.0), 2.0)


class TestParticleSet:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_position_rejected(self, bad):
        # inf used to wrap to NaN with a RuntimeWarning, and NaN passed
        x = np.array([[1.0, 2.0], [3.0, bad]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"particle positions must be finite, got {bad}"):
                ParticleSet(x, 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match=f"t_origin must be finite, got {bad}"):
            ParticleSet(np.zeros((3, 2)), bad)

    def test_a_hair_below_zero_wraps_to_plus_zero(self):
        # one np.mod rounds -1e-17 + 2 pi up to 2 pi itself
        assert np.mod(-1e-17, 2 * np.pi) == 2 * np.pi
        x = ParticleSet(np.array([[-1e-17, 0.0]]), 0.0).positions
        assert x[0, 0] == 0.0 and not np.signbit(x[0, 0])

    def test_positions_lie_in_the_period(self):
        rng = np.random.default_rng(0)
        edges = np.array([-0.0, -5e-324, -1e-17, 2 * np.pi, np.nextafter(2 * np.pi, 0.0), -2 * np.pi, 4 * np.pi])
        wide = rng.uniform(-50.0, 50.0, size=(500, 2))
        near_zero = rng.uniform(-1e-15, 1e-15, size=(500, 2))
        rows = np.ascontiguousarray(wide.T).T  # the layout advect_particles hands over
        for x in (wide, near_zero, np.column_stack([edges, edges[::-1]]), rows):
            positions = ParticleSet(x, 0.0).positions
            assert np.all((positions >= 0.0) & (positions < 2 * np.pi))
            assert not np.signbit(positions).any()
            assert positions.flags.c_contiguous

    def test_stream_dipping_below_zero_returns_plus_zero(self):
        g = Grid(8)
        u = np.stack([np.full((8, 8), -1e-17), np.zeros((8, 8))])
        p0 = ParticleSet(np.array([[0.0, 1.0]]), 0.0)
        # the particle moves a hair below 0, where one np.mod gives 2 pi
        assert bicubic_sample(u, p0.positions, g.dx)[0, 0] < 0.0
        stream = TrajectoryStream(g, p0, substeps=2)
        stream.push(0.0, u)
        x = stream.push(1.0, u)
        assert x[0, 0] == 0.0 and not np.signbit(x[0, 0])
        assert x[0, 1] == 1.0


class TestMeasurePreservation:
    def test_identity_flow(self):
        g = Grid(32)
        p0 = seed_particles(g)
        f = sample(g, lambda x1, x2: np.cos(x1) + np.sin(x2))
        assert measure_preservation_defect(p0, f) < 1e-15

    def test_rigid_translation(self):
        g = Grid(32)
        p0 = seed_particles(g)
        shifted = ParticleSet(p0.positions + [0.3, 1.1], 1.0)
        f = sample(g, lambda x1, x2: np.cos(x1) + np.cos(3 * x2 + 1.0))
        assert measure_preservation_defect(shifted, f) < 1e-10

    def test_steady_shear_defect(self):
        g = Grid(64)
        p0 = seed_particles(g)
        p1 = advect_particles(p0, *shear_pair(g), 1.0, substeps=8)
        f = sample(g, lambda x1, x2: np.cos(x2))
        assert measure_preservation_defect(p1, f) < 1e-4


class TestLagrangianVorticity:
    def test_identity(self):
        g = Grid(32)
        q0 = sample(g, lambda x1, x2: np.cos(x1) * np.cos(x2))
        feet = seed_particles(g)
        recon = lagrangian_vorticity(q0, feet)
        assert np.abs(recon.values - q0.values).max() < 1e-13

    def test_translation_by_pi(self):
        g = Grid(32)
        q0 = sample(g, lambda x1, x2: np.cos(x1))
        feet = ParticleSet(seed_particles(g).positions + [np.pi, 0.0], 0.0)
        recon = lagrangian_vorticity(q0, feet)
        assert np.abs(recon.values + q0.values).max() < 1e-12

    def test_shear_preserves_cos_x1(self):
        g = Grid(64)
        pT = seed_particles(g, t=1.0)
        feet = advect_particles(pT, *shear_pair(g), 0.0, substeps=8)
        q0 = sample(g, lambda x1, x2: np.cos(x1))
        recon = lagrangian_vorticity(q0, feet)
        assert np.abs(recon.values - q0.values).max() < 1e-9

    def test_nearest_mode(self):
        g = Grid(32)
        q0 = sample(g, lambda x1, x2: np.cos(x1))
        feet = seed_particles(g)
        recon = nearest_vorticity(q0, feet)
        assert np.array_equal(recon.values, q0.values)

    def test_count_mismatch_rejected(self):
        g = Grid(32)
        q0 = sample(g, lambda x1, x2: np.cos(x1))
        with pytest.raises(ValueError):
            lagrangian_vorticity(q0, seed_particles(g, stride=2))


class TestFlowDistance:
    def test_identical_sets(self):
        g = Grid(16)
        p = seed_particles(g).positions
        comp = flow_distance(p, p, delta=0.01)
        assert comp.mean_distance == 0.0
        assert comp.g_delta == 0.0

    def test_log_bound_example(self):
        g = Grid(16)
        p = seed_particles(g).positions
        comp = flow_distance(p, p, delta=np.exp(-10.0), c_cal=1.0)
        assert comp.log_bound == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("c_cal", [np.nan, np.inf, 0.0, -2.0])
    def test_c_cal_not_positive_and_finite_rejected(self, c_cal):
        p = seed_particles(Grid(16)).positions
        with pytest.raises(ValueError, match="c_cal"):
            flow_distance(p, p, delta=0.5, c_cal=c_cal)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 0.0, -2.0])
    def test_delta_not_positive_and_finite_rejected(self, delta):
        # a NaN delta used to give a NaN g_delta, and an infinite one 0.0
        p = seed_particles(Grid(16)).positions
        with pytest.raises(ValueError, match=f"delta must be positive and finite, got {delta}"):
            flow_distance(p, p, delta=delta)

    def test_constant_offset(self):
        g = Grid(16)
        p = seed_particles(g).positions
        q = p + [0.2, 0.0]
        comp = flow_distance(p, q, delta=0.01)
        assert comp.mean_distance == pytest.approx(0.2, rel=1e-12)
        assert comp.l2_distance == pytest.approx(0.2, rel=1e-12)

    def test_delta_above_one_inapplicable(self):
        g = Grid(16)
        p = seed_particles(g).positions
        comp = flow_distance(p, p, delta=1.5)
        assert not comp.applicable
        assert np.isnan(comp.log_bound)

    def test_diameter_invariant(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 2 * np.pi, (200, 2))
        b = rng.uniform(0, 2 * np.pi, (200, 2))
        comp = flow_distance(a, b, delta=0.5)
        assert comp.mean_distance <= np.pi * np.sqrt(2)

    def test_unwrapped_positions_measure_as_wrapped(self):
        # `flows` hands over the stream's positions as they are; a shift by
        # whole periods changes no distance
        rng = np.random.default_rng(6)
        a, b = rng.uniform(0, 2 * np.pi, (2, 200, 2))
        wrapped = flow_distance(a, b, delta=0.5)
        shifted = flow_distance(a + 2 * np.pi, b - 4 * np.pi, delta=0.5)
        assert shifted.mean_distance == pytest.approx(wrapped.mean_distance, rel=1e-12)
        assert shifted.g_delta == pytest.approx(wrapped.g_delta, rel=1e-12)

    def test_mismatched_shapes_rejected(self):
        p = seed_particles(Grid(16)).positions
        with pytest.raises(ValueError, match="matching shapes"):
            flow_distance(p, p[:-1], delta=0.5)


class TestHistory:
    def test_linear_time_interpolation(self):
        # u = t / 2 from the samples 0 and 1 at t = 0 and 2: the particles
        # move by the integral, 1, which RK4 integrates exactly
        g = Grid(16)
        snaps = np.stack(
            [
                np.zeros((2, g.n, g.n)),
                np.ones((2, g.n, g.n)),
            ]
        )
        p0 = seed_particles(g, 4)
        p1 = advect_particles(p0, (0.0, 2.0), snaps, 2.0, substeps=3)
        assert torus_distance(p1.positions, p0.positions + 1.0).max() < 1e-14

    def test_outside_rejected(self):
        # an origin or a target outside the sample interval, in either
        # direction, or NaN
        g = Grid(16)
        steady = constant_pair(1.0, 0.0, g, t0=0.0, t1=1.0)
        for t0, t1 in [(1.5, 0.5), (0.5, -0.5), (0.5, np.nan)]:
            with pytest.raises(ValueError, match="outside"):
                advect_particles(seed_particles(g, 4, t=t0), *steady, t1)
        # a NaN origin is refused where the particle set is made
        with pytest.raises(ValueError, match="t_origin must be finite, got nan"):
            advect_particles(seed_particles(g, 4, t=np.nan), *steady, 0.5)


def overshooting_times(count, substeps, seed):
    """Increasing sample times from 0 whose intervals after the first all
    make advect_particles' last substep end a rounding error past the
    interval's end."""
    rng = np.random.default_rng(seed)
    times = [0.0, 0.05]
    while len(times) < count:
        a = times[-1]
        b = a + rng.uniform(0.01, 0.2)
        h, t = (b - a) / substeps, a
        for _ in range(substeps - 1):
            t += h
        if t + h > b:
            times.append(b)
    return np.array(times)


class TestTrajectoryStream:
    def full_history_trajectory(self, times, snapshots, grid, stride, substeps):
        """The reference: the oracle RK4 loop through the whole history,
        interval by interval, in the order of `times`, from the first of
        them."""
        history = (sorted(times), snapshots if times[0] < times[-1] else snapshots[::-1])
        p = seed_particles(grid, stride, t=float(times[0]))
        positions = [p.positions]
        for t0, t1 in zip(times[:-1], times[1:]):
            p = oracle_advect(p.positions, history, float(t0), float(t1), substeps)
            positions.append(p.positions)
        return positions

    def streamed(self, times, snapshots, grid, stride, substeps):
        stream = TrajectoryStream(grid, seed_particles(grid, stride, t=float(times[0])), substeps=substeps)
        return [stream.push(t, snap) for t, snap in zip(times, snapshots)]

    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_bitwise_equal_to_full_history(self, count):
        # the overshooting substeps extrapolate within their interval's
        # pair, as in the oracle
        g = Grid(16)
        times = overshooting_times(count, 4, seed=3)
        snapshots = np.random.default_rng(4).standard_normal((count, 2, g.n, g.n))
        got = self.streamed(times, snapshots, g, 2, 4)
        expected = self.full_history_trajectory(times, snapshots, g, 2, 4)
        assert len(got) == count
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))

    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_reversed_stream_bitwise_equal_to_backward_advection(self, count):
        # a back-trace: the particles start at the last sample time and the
        # samples are pushed last to first
        g = Grid(16)
        times = overshooting_times(count, 4, seed=5)[::-1]
        snapshots = np.random.default_rng(6).standard_normal((count, 2, g.n, g.n))
        got = self.streamed(times, snapshots, g, 2, 4)
        expected = self.full_history_trajectory(times, snapshots, g, 2, 4)
        assert len(got) == count
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))

    def test_round_trip_returns_to_the_start(self):
        g = Grid(16)
        x1, _ = g.mesh
        u = np.stack([np.zeros_like(x1), np.sin(x1)])
        times = np.linspace(0.0, 1.0, 5)
        forward = self.streamed(times, [u] * 5, g, 2, 4)
        stream = TrajectoryStream(g, ParticleSet(forward[-1], 1.0), substeps=4)
        back = [stream.push(t, u) for t in times[::-1]][-1]
        assert torus_distance(back, forward[0]).max() < 1e-12

    class Collected:
        """A stream on Grid(8) with the positions of every push it took."""

        def __init__(self, *times):
            g = Grid(8)
            self.stream = TrajectoryStream(g, seed_particles(g, 4, t=times[0]), substeps=2)
            self.positions = []
            for t in times:
                self.push(t, np.full((2, 8, 8), t))

        def push(self, t, snapshot):
            self.positions.append(self.stream.push(t, snapshot))

    def stream(self, *times):
        return self.Collected(*times)

    def assert_as_if_never_rejected(self, stream, times):
        # a rejected push leaves the stream as it was: pushed the samples
        # at `times` and then one at 0.5, it gives the bits of a stream
        # that never saw the rejected sample
        expected = self.stream(*times)
        expected.push(0.5, np.ones((2, 8, 8)))
        assert [x.tobytes() for x in stream.positions] == [x.tobytes() for x in expected.positions]

    @pytest.mark.parametrize("t", [0.0, -0.5, np.nan])
    def test_time_not_after_the_last_rejected_at_push(self, t):
        # after one push, a repeated or NaN time sets no direction; after
        # a forward interval, an earlier time reverses it
        times = (0.0, 0.25) if t < 0 else (0.0,)
        stream = self.stream(*times)
        before = list(stream.positions)
        with pytest.raises(ValueError, match="increase"):
            stream.push(t, np.ones((2, 8, 8)))
        assert stream.positions == before
        stream.push(0.5, np.ones((2, 8, 8)))
        assert len(stream.positions) == len(before) + 1
        self.assert_as_if_never_rejected(stream, times)

    @pytest.mark.parametrize("t", [0.75, 1.0, np.nan])
    def test_backward_stream_rejects_a_time_not_before_the_last(self, t):
        stream = self.stream(1.0, 0.75)
        with pytest.raises(ValueError, match="decrease"):
            stream.push(t, np.ones((2, 8, 8)))
        stream.push(0.5, np.ones((2, 8, 8)))
        self.assert_as_if_never_rejected(stream, (1.0, 0.75))

    @pytest.mark.parametrize("t", [0.0, 0.5, np.nan])
    def test_first_time_other_than_the_particles_rejected(self, t):
        # particles at 0.3 traced from a first sample at t would be
        # moved over the wrong interval
        g = Grid(8)
        stream = TrajectoryStream(g, seed_particles(g, 4, t=0.3))
        with pytest.raises(ValueError, match=f"particles' time 0.3, got {t}"):
            stream.push(t, np.ones((2, 8, 8)))
        first, last = stream.push(0.3, np.ones((2, 8, 8))), stream.push(1.3, np.ones((2, 8, 8)))
        assert torus_distance(last, first + 1.0).max() < 1e-14

    @pytest.mark.parametrize("t", [np.inf, -np.inf])
    def test_infinite_time_rejected(self, t):
        # an infinite interval would leave every position NaN
        for times in ((0.0,), (0.0, 0.25), (1.0, 0.75)):
            stream = self.stream(*times)
            before = list(stream.positions)
            with pytest.raises(ValueError, match="finite"):
                stream.push(t, np.ones((2, 8, 8)))
            assert stream.positions == before
            stream.push(0.5, np.ones((2, 8, 8)))
            self.assert_as_if_never_rejected(stream, times)

    @pytest.mark.parametrize("shape", [(2, 16, 16), (8, 8), (3, 8, 8)])
    def test_wrong_shape_rejected_at_push(self, shape):
        g = Grid(8)
        fresh = TrajectoryStream(g, seed_particles(g, 4))
        with pytest.raises(ValueError, match="shape"):
            fresh.push(0.0, np.zeros(shape))
        stream = self.stream(0.0)
        with pytest.raises(ValueError, match="shape"):
            stream.push(0.5, np.zeros(shape))
        stream.push(0.5, np.ones((2, 8, 8)))
        assert len(stream.positions) == 2


class TestVelocityL1Gap:
    def test_matches_whole_array_formula(self):
        # the gap is accumulated one sample at a time; the whole-array
        # formula it replaced must give the same bits
        g = Grid(16)
        rng = np.random.default_rng(7)
        times = np.array([0.0, 0.1, 0.25, 0.5])
        a = rng.standard_normal((4, 2, 16, 16))
        b = rng.standard_normal((4, 2, 16, 16))
        diff = a - b
        spatial = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2).sum(axis=(1, 2)) * g.cell_area
        expected = np.zeros_like(spatial)
        expected[1:] = np.cumsum(0.5 * np.diff(times) * (spatial[1:] + spatial[:-1]))
        got = cumulative_trapezoid(times, [velocity_l1_distance(x, y, g) for x, y in zip(a, b)])
        assert np.array_equal(got, expected)


def test_particles_csv_export(tmp_path):
    g = Grid(8)
    p = seed_particles(g, stride=4)
    path = tmp_path / "parts.csv"
    export_particles_csv(p, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,id"
    assert len(lines) == 1 + p.count
