import math
import re

import numpy as np
import pytest

from alphaeuler import (
    AlphaParam,
    Grid,
    PhysicalField,
    SimState,
    SolverConfig,
    SolverError,
    SpectralField,
    dealias,
    load_checkpoint,
    lp_norm,
    run,
    sample,
    save_checkpoint,
    shear,
    smooth_random,
    step,
    to_physical,
    to_spectral,
)
from alphaeuler import solver
from alphaeuler.solver import AdvectionStage, _EulerStage, cfl_timestep, velocity
from alphaeuler.spectral import pack_band, spectral_derivative
from sampled import run_states


def scaled(field, factor):
    return SpectralField(field.grid, field.coeffs * factor)


def random_vorticity(grid, seed=0):
    """Generic real mean-free field: every mode, Nyquist ones included."""
    rng = np.random.default_rng(seed)
    q = to_spectral(PhysicalField(grid, rng.standard_normal((grid.n, grid.n))))
    q.coeffs[0, 0] = 0.0
    return q


def full_fft_advection(q, a, use_dealias=True):
    """Oracle: four separate inverse transforms of the filtered Biot-Savart
    velocity and the gradient, one full complex forward FFT.  Returns
    (-u . grad q coefficients on the stored half columns, max speed)."""
    g = q.grid
    u = velocity(q, a)
    u1 = to_physical(u.u1).values
    u2 = to_physical(u.u2).values
    dq1 = to_physical(spectral_derivative(q, 1)).values
    dq2 = to_physical(spectral_derivative(q, 2)).values
    coeffs = -np.fft.fft2(u1 * dq1 + u2 * dq2)[:, : g.n // 2 + 1] / (g.n * g.n)
    if use_dealias:
        coeffs *= g.keep_mask
    coeffs[0, 0] = 0.0
    return coeffs, float(np.sqrt(u1**2 + u2**2).max())


def rhs_divergence_form(q, a, use_dealias=True):
    """Oracle: -div(u q), equal to the advection slope for divergence-free u."""
    g = q.grid
    u = velocity(q, a)
    qp = to_physical(q).values
    f1 = np.fft.fft2(to_physical(u.u1).values * qp)[:, : g.n // 2 + 1] / (g.n * g.n)
    f2 = np.fft.fft2(to_physical(u.u2).values * qp)[:, : g.n // 2 + 1] / (g.n * g.n)
    coeffs = -1j * (g.k1 * f1 + g.k2 * f2)
    if use_dealias:
        coeffs *= g.keep_mask
    coeffs[0, 0] = 0.0
    return SpectralField(g, coeffs)


class TestRhs:
    def test_zero_field(self):
        g = Grid(16)
        q = SpectralField(g, np.zeros((16, 9), dtype=np.complex128))
        assert np.abs(AdvectionStage(g, AlphaParam(0.3)).slope(q.coeffs)).max() == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_shear_is_steady(self, alpha):
        g = Grid(16)
        out = AdvectionStage(g, AlphaParam(alpha)).slope(shear(g).coeffs)
        assert np.abs(out).max() < 1e-15

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_collocation_oracle(self, alpha):
        # q = cos x1 + cos 2x2: u and grad q are exact trig expressions, so
        # the advection term can be assembled pointwise without any FFT.
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1) + np.cos(2 * x2)))
        x1, x2 = g.mesh
        u1 = -np.sin(2 * x2) / (2 * (1 + 4 * alpha))
        u2 = np.sin(x1) / (1 + alpha)
        dq1 = -np.sin(x1)
        dq2 = -2 * np.sin(2 * x2)
        oracle = to_spectral(PhysicalField(g, -(u1 * dq1 + u2 * dq2)))
        out = AdvectionStage(g, AlphaParam(alpha)).slope(q.coeffs)
        assert np.abs(out - dealias(oracle).coeffs).max() < 1e-10

    def test_mean_exactly_zero(self):
        g = Grid(32)
        q = smooth_random(5, 2.0, 6, g)
        assert AdvectionStage(g, AlphaParam(0.2)).slope(q.coeffs)[0, 0] == 0.0

    def test_advective_equals_divergence_form(self):
        g = Grid(32)
        q = smooth_random(5, 2.0, 6, g)
        a = AlphaParam(0.1)
        adv = AdvectionStage(g, a).slope(q.coeffs)
        div = rhs_divergence_form(q, a)
        scale = np.abs(adv).max()
        assert np.abs(adv - div.coeffs).max() < 1e-10 * max(scale, 1e-30)

    def test_alpha_zero_matches_dedicated_euler_path(self):
        # with alpha = 0 the filter multiplies by exactly 1.0, so the solver
        # must agree bitwise with the same half-spectrum stage built from the
        # unfiltered Biot-Savart multipliers
        g = Grid(32)
        n, nh = g.n, g.n // 2
        q = random_vorticity(g, seed=6)

        def euler_rhs(qf):
            k1, k2, inv = g.k1, g.k2, g.inv_ksq
            mult = np.stack(
                [
                    np.broadcast_to(m, (n, nh + 1))
                    for m in (1j * k2 * inv, -1j * k1 * inv, 1j * k1, 1j * k2)
                ]
            )
            mult[[1, 2], nh, :] = 0.0
            mult[[0, 3], :, nh] = 0.0
            u1, u2, dq1, dq2 = np.fft.irfft2(mult * qf.coeffs, s=(n, n), norm="forward")
            coeffs = -np.fft.rfft2(u1 * dq1 + u2 * dq2, norm="forward")
            coeffs *= g.keep_mask
            coeffs[0, 0] = 0.0
            return coeffs

        ours = AdvectionStage(g, AlphaParam(0.0)).slope(q.coeffs)
        assert np.array_equal(ours, euler_rhs(q))

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    @pytest.mark.parametrize("use_dealias", [True, False])
    def test_stage_matches_full_fft_oracle(self, n, alpha, use_dealias):
        # the stage always dealiases: against the unmasked oracle it matches
        # on the kept modes and zeroes the aliased ones the oracle leaves in
        g = Grid(n)
        q = random_vorticity(g, seed=n)
        a = AlphaParam(alpha)
        expected, expected_speed = full_fft_advection(q, a, use_dealias)
        stage = AdvectionStage(g, a)
        got = stage.slope(q.coeffs)
        speed = stage.speed()
        scale = np.abs(expected).max()
        if not use_dealias:
            dropped = ~g.keep_mask
            assert np.abs(expected[dropped]).max() > 1e-3 * scale
            assert not got[dropped].any()
            expected = expected * g.keep_mask
        assert np.abs(got - expected).max() <= 1e-14 * scale
        assert speed == pytest.approx(expected_speed, rel=1e-14)

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("alpha", [0.0, 2.0**-6])
    def test_stage_equals_2d_transforms_bitwise(self, n, alpha):
        # the per-axis passes into the stage's own buffers are the passes
        # irfft2/rfft2 make, in the same order and scaling
        g = Grid(n)
        q = dealias(random_vorticity(g, seed=n + 1)).coeffs
        stage = AdvectionStage(g, AlphaParam(alpha))
        u1, u2, dq1, dq2 = np.fft.irfft2(stage.mult * q, s=(n, n), norm="forward")
        expected = np.fft.rfft2(u1 * dq1 + u2 * dq2, norm="forward") * stage.post
        expected_speed = float(np.sqrt((u1 * u1 + u2 * u2).max()))
        got = stage.slope(q)
        speed = stage.speed()
        assert np.array_equal(got, expected)
        assert speed == expected_speed

    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize(
        "make", [_EulerStage, lambda g: AdvectionStage(g, AlphaParam(0.01))], ids=["euler", "advection"]
    )
    def test_slope_may_write_over_its_input(self, n, make):
        # `step` hands each stage input in as `out`: the stage reads q
        # whole before it writes
        g = Grid(n)
        q = dealias(random_vorticity(g, seed=n + 3)).coeffs
        stage = make(g)
        expected = stage.slope(q.copy())
        expected_speed = stage.speed()
        got = stage.slope(q, out=q)
        assert got is q
        assert got.tobytes() == expected.tobytes()
        assert stage.speed() == expected_speed

    def test_stage_call_allocates_only_its_result(self):
        import tracemalloc

        g = Grid(256)
        q = random_vorticity(g, seed=3).coeffs
        stage = AdvectionStage(g, AlphaParam(0.01))
        stage.slope(q)
        stage.speed()
        tracemalloc.start()
        try:
            coeffs = stage.slope(q)
            stage.speed()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * coeffs.nbytes

    def test_stage_rejects_foreign_tables(self):
        g = Grid(16)
        state = SimState(0.0, shear(g), AlphaParam(0.1))
        with pytest.raises(ValueError):
            step(state, SolverConfig(), stage=AdvectionStage(g, AlphaParam(0.2)))


class TestEulerStage:
    """The alpha = 0 stage of `run`: Basdevant's form of the advection term,
    exact on the dealiased states `run` keeps."""

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    def test_matches_advection_stage_on_dealiased_fields(self, n):
        g = Grid(n)
        q = dealias(random_vorticity(g, seed=n + 2)).coeffs
        advection, euler = AdvectionStage(g, AlphaParam(0.0)), _EulerStage(g)
        expected = advection.slope(q)
        expected_speed = advection.speed()
        got = euler.slope(q)
        speed = euler.speed()
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()
        assert not got[~g.keep_mask].any()
        assert got[0, 0] == 0.0
        # u1 and u2 come from the same tables and transform passes
        assert speed == expected_speed

    def test_writes_into_out(self):
        g = Grid(32)
        q = dealias(random_vorticity(g, seed=4)).coeffs
        stage = _EulerStage(g)
        expected = stage.slope(q)
        out = np.full_like(q, np.nan)
        got = stage.slope(q, out=out)
        assert got is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("alpha, expected", [(0.0, _EulerStage), (0.01, AdvectionStage)])
    def test_run_uses_it_only_at_alpha_zero(self, monkeypatch, alpha, expected):
        stages = []
        real_step = solver.step

        def recording_step(state, cfg, max_dt=None, stage=None):
            stages.append(type(stage))
            return real_step(state, cfg, max_dt, stage)

        monkeypatch.setattr(solver, "step", recording_step)
        run(scaled(smooth_random(2, 2.0, 5, Grid(32)), 5.0), AlphaParam(alpha), SolverConfig(), [0.0, 0.1])
        assert stages and set(stages) == {expected}

    def test_euler_run_matches_advection_stage_steps(self):
        g = Grid(64)
        q0 = scaled(smooth_random(7, 2.0, 6, g), 5.0)
        times = np.linspace(0.0, 0.4, 5)
        cfg = SolverConfig()
        _, states = run_states(q0, AlphaParam(0.0), cfg, times)
        stage = AdvectionStage(g, AlphaParam(0.0))
        s = states[0]
        for target, sampled in zip(times[1:], states[1:]):
            while s.t < target - 1e-13:
                s = step(s, cfg, max_dt=target - s.t, stage=stage)
            assert s.step_count == sampled.step_count
            scale = np.abs(s.q.coeffs).max()
            assert np.abs(sampled.q.coeffs - s.q.coeffs).max() <= 1e-12 * scale
            s.t = target


class TestBandColumns:
    """A warm step on a dealiased state: every transform one `numpy.fft`
    call along one axis, the complex ones over the dealias band only."""

    ONE_AXIS = ("fft", "ifft", "rfft", "irfft")
    N_D = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

    def count_calls(self, monkeypatch):
        """Wrap the one-axis and 2-D/n-D entry points of numpy.fft; the
        returned list gets (name, input shape) per call."""
        seen = []
        for name in self.ONE_AXIS + self.N_D:
            real = getattr(np.fft, name)

            def counted(a, *args, _name=name, _real=real, **kwargs):
                seen.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return seen

    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_warm_step_makes_four_one_axis_passes_per_stage(self, monkeypatch, n, alpha):
        g = Grid(n)
        a = AlphaParam(alpha)
        stage = _EulerStage(g) if alpha == 0.0 else AdvectionStage(g, a)
        cfg = SolverConfig()
        state = step(SimState(0.0, dealias(random_vorticity(g, seed=5)), a), cfg, stage=stage)
        seen = self.count_calls(monkeypatch)
        step(state, cfg, stage=stage)
        names = [name for name, _ in seen]
        # the Euler stage sends its two products forward one plane at a time
        rfft = 8 if alpha == 0.0 else 4
        assert {name: names.count(name) for name in self.ONE_AXIS} == {"fft": 4, "ifft": 4, "rfft": rfft, "irfft": 4}
        assert len(names) == 12 + rfft
        # each column pass sees the band's kmax + 1 columns
        columns = {shape[-1] for name, shape in seen if name in ("fft", "ifft")}
        assert columns == {g.kmax_dealias + 1}

    def test_stage_on_input_past_the_band_transforms_every_column(self, monkeypatch):
        g = Grid(32)
        q = random_vorticity(g, seed=6).coeffs
        stage = AdvectionStage(g, AlphaParam(0.01))
        seen = self.count_calls(monkeypatch)
        stage.slope(q)
        assert [shape[-1] for name, shape in seen if name == "ifft"] == [g.n // 2 + 1]
        assert [shape[-1] for name, shape in seen if name == "fft"] == [g.kmax_dealias + 1]


class TestStep:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    def test_steady_shear_100_steps(self, alpha):
        g = Grid(32)
        q0 = shear(g)
        cfg = SolverConfig()
        s = SimState(0.0, q0, AlphaParam(alpha))
        for _ in range(100):
            s = step(s, cfg)
        diff = to_physical(s.q).values - to_physical(q0).values
        assert np.abs(diff).max() < 1e-10

    def test_zero_field_fixed(self):
        g = Grid(16)
        q0 = SpectralField(g, np.zeros((16, 9), dtype=np.complex128))
        s = step(SimState(0.0, q0, AlphaParam(0.0)), SolverConfig())
        assert np.abs(s.q.coeffs).max() == 0.0
        assert s.t > 0  # the floor speed keeps dt finite

    def test_mean_zero_along_run(self):
        g = Grid(64)
        q0 = scaled(smooth_random(1, 2.0, 5, g), 5.0)
        _, states = run_states(q0, AlphaParam(0.1), SolverConfig(), np.linspace(0.0, 0.5, 11))
        for s in states:
            assert abs(s.q.coeffs[0, 0]) < 1e-13

    def test_nonfinite_velocity_aborts(self):
        g = Grid(16)
        coeffs = np.zeros((16, 9), dtype=np.complex128)
        coeffs[1, 0] = np.nan
        with pytest.raises(SolverError):
            step(SimState(0.0, SpectralField(g, coeffs), AlphaParam(0.0)), SolverConfig())

    def test_inf_vorticity_aborts_with_time_and_step(self):
        g = Grid(16)
        q = shear(g)
        q.coeffs[2, 1] = np.inf
        with np.errstate(all="ignore"), pytest.raises(SolverError, match=r"t=0\.25, step 3"):
            step(SimState(0.25, q, AlphaParam(0.1), step_count=3), SolverConfig())

    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_warm_step_allocates_only_the_new_state(self, alpha):
        import tracemalloc

        g = Grid(256)
        a = AlphaParam(alpha)
        stage = _EulerStage(g) if alpha == 0.0 else AdvectionStage(g, a)
        cfg = SolverConfig()
        state = step(SimState(0.0, dealias(random_vorticity(g, seed=3)), a), cfg, stage=stage)
        tracemalloc.start()
        try:
            new = step(state, cfg, stage=stage)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the new state, plus the (n, n/2 + 1) bool array of its finiteness check
        assert peak <= 1.1 * new.q.coeffs.nbytes

    def test_run_equals_rk4_in_the_plain_expression_order(self):
        # a test-side RK4 that allocates every stage and combination, in the
        # operation order q0 + (dt/6) (k1 + 2 k2 + 2 k3 + k4)
        g = Grid(64)
        a = AlphaParam(0.02)
        q0 = scaled(smooth_random(9, 2.0, 6, g), 5.0)
        times = np.linspace(0.0, 0.3, 4)
        cfg = SolverConfig(cfl=0.5)
        stage = AdvectionStage(g, a)
        q = dealias(q0).coeffs
        t = 0.0
        expected = [q]
        for target in times[1:]:
            while t < target - 1e-13:
                k1 = stage.slope(q)
                dt = min(cfl_timestep(stage.speed(), g, cfg.cfl), target - t)
                k2 = stage.slope(q + 0.5 * dt * k1)
                k3 = stage.slope(q + 0.5 * dt * k2)
                k4 = stage.slope(q + dt * k3)
                q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += dt
            t = target
            expected.append(q)
        got = [s.q.coeffs for s in run_states(q0, a, cfg, times)[1]]
        assert len(got) == len(expected)
        assert all(np.array_equal(x, y) for x, y in zip(got, expected))

    def test_nonfinite_update_aborts(self, monkeypatch):
        # an inf that appears only in the last stage leaves every stage
        # speed finite; the check on the new vorticity must still catch it.
        # All four stages make their slope with `slope`; only the first one
        # then reads its speed with `speed`
        calls = []
        real_slope = AdvectionStage.slope

        def poisoned(self, qh, out=None):
            coeffs = real_slope(self, qh, out=out)
            calls.append(1)
            if len(calls) == 4:
                coeffs[1, 0] = np.inf
            return coeffs

        monkeypatch.setattr(AdvectionStage, "slope", poisoned)
        g = Grid(16)
        state = SimState(0.5, shear(g), AlphaParam(0.0), step_count=7)
        with np.errstate(all="ignore"), pytest.raises(
            SolverError, match=r"non-finite vorticity .* t=0\.5, step 7"
        ):
            step(state, SolverConfig())
        assert len(calls) == 4

    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    @pytest.mark.parametrize("poisoned_stage", [2, 3])
    def test_nan_velocity_in_a_later_stage_aborts_in_that_step(self, monkeypatch, alpha, poisoned_stage):
        # stages 2-4 make no speed; a NaN velocity there reaches the slope,
        # and the check on the new vorticity names the step
        calls = []
        real_passes = solver.irfft2_passes

        def poisoned(spec, out=None):
            phys = real_passes(spec, out=out)
            calls.append(1)
            if len(calls) == poisoned_stage:
                phys[0, 3, 5] = np.nan
            return phys

        g = Grid(32)
        a = AlphaParam(alpha)
        stage = _EulerStage(g) if alpha == 0.0 else AdvectionStage(g, a)
        q = dealias(scaled(smooth_random(3, 2.0, 5, g), 5.0))
        monkeypatch.setattr(solver, "irfft2_passes", poisoned)
        state = SimState(0.5, q, a, step_count=7)
        with np.errstate(all="ignore"), pytest.raises(
            SolverError, match=r"non-finite vorticity .* t=0\.5, step 7"
        ):
            step(state, SolverConfig(), stage=stage)
        assert len(calls) == 4

    def test_rejects_nonzero_mean(self):
        g = Grid(16)
        q = shear(g)
        q.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            step(SimState(0.0, q, AlphaParam(0.0)), SolverConfig())


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs, named",
        [
            # fixed_dt = nan failed late, as a velocity overflow
            (dict(fixed_dt=float("nan")), "fixed_dt must be positive, got nan"),
            (dict(fixed_dt=0.0), "fixed_dt must be positive, got 0.0"),
        ],
    )
    def test_bad_time_is_named(self, kwargs, named):
        with pytest.raises(ValueError) as info:
            SolverConfig(**kwargs)
        assert str(info.value) == named

    def test_infinite_fixed_dt_is_capped_by_the_sample_times(self):
        times = np.linspace(0.0, 0.2, 3)
        cfg = SolverConfig(fixed_dt=float("inf"))
        sim, states = run_states(shear(Grid(16)), AlphaParam(0.1), cfg, times)
        assert [s.t for s in states] == list(times)
        assert sim.final.step_count == 2


class TestRun:
    @pytest.mark.parametrize(
        "times, named",
        [
            ([], "sample_times must be a non-empty list of times, got shape (0,)"),
            ([[0.0, 0.1]], "sample_times must be a non-empty list of times, got shape (1, 2)"),
            ([0.0, np.nan], "sample_times must be finite"),
            ([np.nan, 0.1], "sample_times must be finite"),
            ([0.0, np.inf], "sample_times must be finite"),
            ([0.1, 0.2], "sample_times must start at 0, got 0.1"),
            ([1e-300, 0.2], "sample_times must start at 0, got 1e-300"),
            ([0.0, 0.2, 0.2], "sample_times must increase strictly"),
            ([0.0, 0.2, 0.1], "sample_times must increase strictly"),
        ],
        ids=["empty", "2d", "nan", "nan_start", "inf", "late_start", "tiny_start", "repeat", "backward"],
    )
    def test_bad_clock_is_named_before_any_step(self, monkeypatch, times, named):
        steps = []
        monkeypatch.setattr(solver, "step", lambda *args, **kwargs: steps.append(1))
        with pytest.raises(ValueError) as info:
            run(shear(Grid(16)), AlphaParam(0.1), SolverConfig(), times)
        assert str(info.value) == named
        assert steps == []

    def test_t_end_zero_returns_initial_state(self):
        g = Grid(16)
        q0 = shear(g)
        sim, states = run_states(q0, AlphaParam(0.2), SolverConfig(), [0.0])
        assert len(states) == 1
        assert states[0] is sim.final
        assert sim.final.t == 0.0
        assert np.array_equal(sim.final.q.coeffs, dealias(q0).coeffs)

    def test_rejects_nonzero_mean(self):
        g = Grid(16)
        coeffs = np.zeros((16, 9), dtype=np.complex128)
        coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            run(SpectralField(g, coeffs), AlphaParam(0.0), SolverConfig(), [0.0, 0.1])

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_a_sampled_state_is_freed_by_the_next_sample(self, alpha):
        # the t = 0 state holds the run's dealiased copy of q0, and only it
        import gc
        import weakref

        g = Grid(32)
        q0 = scaled(smooth_random(2, 2.0, 5, g), 5.0)
        refs, alive = [], []

        def on_sample(s):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            refs.append(weakref.ref(s.q.coeffs))

        run(q0, AlphaParam(alpha), SolverConfig(), [0.0, 0.1, 0.2], on_sample=on_sample)
        assert alive == [[], [False], [False, False]]

    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_run_holds_its_stage_two_states_and_its_bands(self, alpha):
        import tracemalloc

        g = Grid(256)
        a = AlphaParam(alpha)
        q0 = scaled(smooth_random(2, 2.0, 5, g), 5.0)
        # a stage like the run's, which also fills the grid's cached tables
        stage = _EulerStage(g) if alpha == 0.0 else AdvectionStage(g, a)
        stage_bytes = sum(v.nbytes for v in vars(stage).values() if isinstance(v, np.ndarray))
        del stage
        bands = []
        tracemalloc.start()
        try:
            run(q0, a, SolverConfig(), [0.0, 0.01, 0.02], on_sample=lambda s: bands.append(pack_band(s.q, g)),
                monitor=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the stage, the state a step starts from, the one it makes and the
        # bands; a third state (a held copy of q0, say) is 4 % of the whole
        assert peak <= stage_bytes + 1.05 * (2 * q0.coeffs.nbytes + sum(band.nbytes for band in bands))

    def test_zero_field_run_has_zero_drift(self):
        g = Grid(16)
        q0 = SpectralField(g, np.zeros((16, 9), dtype=np.complex128))
        sim = run(q0, AlphaParam(0.1), SolverConfig(), [0.0, 0.1])
        assert sim.monitor.alpha_norm_drift().max() == 0.0
        assert sim.monitor.q_l2_drift().max() == 0.0

    def test_sample_times_hit_exactly(self):
        g = Grid(32)
        q0 = scaled(smooth_random(2, 2.0, 5, g), 5.0)
        times = np.linspace(0.0, 0.5, 6)
        sim = run(q0, AlphaParam(0.1), SolverConfig(), times)
        assert np.array_equal(sim.monitor.times, times)

    def test_conservation_sanity(self):
        g = Grid(64)
        q0 = scaled(smooth_random(11, 2.0, 4, g), 5.0)
        times = np.linspace(0.0, 1.0, 5)
        sim = run(q0, AlphaParam(0.1), SolverConfig(cfl=0.4), times)
        assert sim.monitor.alpha_norm_drift().max() < 1e-5
        assert sim.monitor.q_l2_drift().max() < 1e-5

    def test_fourth_order_drift_scaling(self):
        g = Grid(32)
        q0 = scaled(smooth_random(11, 2.0, 4, g), 5.0)
        times = np.linspace(0.0, 0.5, 3)

        def drift(cfl):
            sim = run(q0, AlphaParam(0.1), SolverConfig(cfl=cfl), times)
            return sim.monitor.q_l2_drift().max()

        coarse, fine = drift(0.8), drift(0.4)
        assert fine > 0
        assert coarse / fine >= 12.0  # nominal 16 for a 4th-order scheme

    def test_monitor_tracks_lp_norms(self):
        g = Grid(32)
        q0 = shear(g)
        sim = run(q0, AlphaParam(0.0), SolverConfig(), [0.0, 0.2])
        qp = to_physical(dealias(q0))
        assert sim.monitor.q_l2[0] == pytest.approx(lp_norm(qp, 2), rel=1e-12)
        assert sim.monitor.q_linf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_unmonitored_run_has_the_same_states(self):
        g = Grid(32)
        q0 = scaled(smooth_random(2, 2.0, 5, g), 5.0)
        cfg, times = SolverConfig(), np.linspace(0.0, 0.3, 4)
        _, watched = run_states(q0, AlphaParam(0.1), cfg, times)
        bare_run, bare = run_states(q0, AlphaParam(0.1), cfg, times, monitor=False)
        assert bare_run.monitor is None
        assert len(bare) == len(watched)
        for a, b in zip(watched, bare):
            assert (a.t, a.step_count) == (b.t, b.step_count)
            assert np.array_equal(a.q.coeffs, b.q.coeffs)

    def test_unmonitored_run_makes_no_velocity(self, monkeypatch):
        # only a monitor row reads it
        from alphaeuler import solver

        made = []
        make = solver.velocity
        monkeypatch.setattr(solver, "velocity", lambda *args, **kwargs: made.append(1) or make(*args, **kwargs))
        g = Grid(32)
        q0 = scaled(smooth_random(2, 2.0, 5, g), 5.0)
        cfg, times = SolverConfig(), np.linspace(0.0, 0.3, 4)
        run_states(q0, AlphaParam(0.1), cfg, times, monitor=False)
        assert made == []
        run(q0, AlphaParam(0.1), cfg, times)
        assert len(made) == 4

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_monitor_reads_the_velocity_of_the_state(self, alpha):
        # made once per sample from the stage's table, the velocity the
        # monitor reads must be bit for bit that of the state
        from alphaeuler import alpha_norm, velocity_l2

        g = Grid(32)
        q0 = scaled(smooth_random(2, 2.0, 5, g), 5.0)
        times = np.linspace(0.0, 0.3, 4)
        sim, seen = run_states(q0, AlphaParam(alpha), SolverConfig(), times)
        assert [s.t for s in seen] == list(times)
        assert seen[-1] is sim.final
        for j, s in enumerate(seen):
            expected = velocity(s.q, s.a)
            assert sim.monitor.energy[j] == velocity_l2(expected)
            assert sim.monitor.alpha_norm[j] == alpha_norm(expected, s.a)

    def test_sampled_run_equals_loop_of_public_steps(self):
        g = Grid(32)
        q0 = scaled(smooth_random(2, 2.0, 5, g), 5.0)
        times = np.linspace(0.0, 0.3, 4)
        cfg = SolverConfig()
        _, states = run_states(q0, AlphaParam(0.1), cfg, times)
        s = states[0]
        for target, sampled in zip(times[1:], states[1:]):
            while s.t < target - 1e-13:
                s = step(s, cfg, max_dt=target - s.t)
            s.t = target
            assert s.step_count == sampled.step_count
            assert np.array_equal(s.q.coeffs, sampled.q.coeffs)

    def test_threaded_runs_match_serial_runs(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        g = Grid(64)
        q0 = scaled(smooth_random(4, 2.0, 5, g), 5.0)
        cfg, times = SolverConfig(), np.linspace(0.0, 0.2, 3)
        alphas = (0.05, 0.02)

        def job(alpha):
            sim, states = run_states(q0, AlphaParam(alpha), cfg, times)
            return [s.q.coeffs for s in states], sim.monitor.alpha_norm

        serial = [job(alpha) for alpha in alphas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(job, alphas, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (qs_a, mon_a), (qs_b, mon_b) in zip(serial, threaded):
            assert all(np.array_equal(x, y) for x, y in zip(qs_a, qs_b))
            assert np.array_equal(mon_a, mon_b)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        g = Grid(32)
        q = smooth_random(3, 2.0, 6, g)
        state = SimState(0.375, q, AlphaParam(0.125), step_count=7)
        path = tmp_path / "state.aeul"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.t == state.t
        assert back.a.alpha == state.a.alpha
        assert back.grid.n == 32
        assert np.array_equal(back.q.coeffs, state.q.coeffs)

    def test_layout(self, tmp_path):
        import struct

        g = Grid(8)
        q = shear(g)
        state = SimState(1.5, q, AlphaParam(0.25))
        path = tmp_path / "state.aeul"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        magic, version, n, alpha, t = struct.unpack_from("<4sIIdd", raw)
        assert magic == b"AEUL"
        assert version == 1
        assert n == 8
        assert alpha == 0.25
        assert t == 1.5
        assert len(raw) == struct.calcsize("<4sIIdd") + 16 * 64
        flat = np.frombuffer(raw, dtype="<f8", offset=struct.calcsize("<4sIIdd"))
        # interleaved (re, im) in row-major order: entry (1, 0) is index n*2
        assert flat[2 * 8] == 0.5

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aeul"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        g = Grid(8)
        state = SimState(0.0, shear(g), AlphaParam(0.0))
        path = tmp_path / "state.aeul"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @staticmethod
    def _edited(tmp_path, edits):
        """A checkpoint of a smooth field whose full on-disk array has the
        given entries overwritten."""
        import struct

        path = tmp_path / "state.aeul"
        q = smooth_random(3, 2.0, 4, Grid(16))
        save_checkpoint(SimState(0.0, q, AlphaParam(0.1)), path)
        raw = path.read_bytes()
        head = struct.calcsize("<4sIIdd")
        full = np.frombuffer(raw, dtype="<c16", offset=head).reshape(16, 16).copy()
        for index, value in edits.items():
            full[index] = value
        path.write_bytes(raw[:head] + full.tobytes())
        return path

    def test_rejects_nonfinite_coefficients(self, tmp_path):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="not finite"):
                load_checkpoint(self._edited(tmp_path, {(2, 3): value}))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, tmp_path, t):
        # a NaN time was saved and loaded back as the state's clock
        import struct

        path = tmp_path / "state.aeul"
        save_checkpoint(SimState(0.0, shear(Grid(8)), AlphaParam(0.1)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, struct.calcsize("<4sIId"), t)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint time is not finite: {t}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_save_refuses_non_finite_time(self, tmp_path, t):
        # the file was written, and load_checkpoint then refused it
        path = tmp_path / "state.aeul"
        with pytest.raises(ValueError, match=re.escape(f"checkpoint time is not finite: {t}")):
            save_checkpoint(SimState(t, shear(Grid(8)), AlphaParam(0.1)), path)
        assert not path.exists()

    def test_rejects_nonzero_mean(self, tmp_path):
        with pytest.raises(ValueError, match="zero mean"):
            load_checkpoint(self._edited(tmp_path, {(0, 0): 0.5}))

    def test_rejects_broken_conjugate_symmetry(self, tmp_path):
        # (1, 13) is k = (1, -3), in the mirrored half; roundoff passes
        raw = self._edited(tmp_path, {}).read_bytes()
        c = np.frombuffer(raw, dtype="<c16", offset=28).reshape(16, 16)[1, 13]
        assert load_checkpoint(self._edited(tmp_path, {(1, 13): c * (1 + 1e-15)})).grid.n == 16
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            load_checkpoint(self._edited(tmp_path, {(1, 13): c + 0.25}))
