from dataclasses import dataclass

import numpy as np
import pytest

from alphaeuler import (
    AlphaParam,
    Grid,
    PhysicalField,
    SpectralField,
    alpha_norm,
    biot_savart,
    calderon_zygmund_ratio,
    curl,
    divergence,
    helmholtz_filter,
    helmholtz_unfilter,
    lp_norm,
    sample,
    to_physical,
    to_spectral,
    torus_distance,
    velocity_l2,
)
from alphaeuler.bounds import gamma0
from alphaeuler.initial_data import approximating_family, disc_patch, smooth_random
from alphaeuler.spectral import parseval_sum, restrict, spectral_derivative
from alphaeuler.vorticity import (
    VelocityField,
    laplacian_l2,
    velocity,
    velocity_l2_distance,
)

TOL = 1e-12


def gradient_l2(u: VelocityField) -> float:
    density = u.grid.ksq * (np.abs(u.u1.coeffs) ** 2 + np.abs(u.u2.coeffs) ** 2)
    return 2 * np.pi * np.sqrt(parseval_sum(density))


@dataclass(frozen=True)
class ScalingMonitor:
    """Gradient/Laplacian norms of the filtered velocity with the exponents
    their alpha-scaling is expected to follow."""

    grad_u_l2: float
    lap_u_l2: float
    grad_exponent: float
    lap_exponent: float


def scaling_monitor(q: SpectralField, a: AlphaParam, p: float) -> ScalingMonitor:
    """Evaluate ||grad u^alpha||_{L2} and ||lap u^alpha||_{L2} for the
    filtered Biot-Savart velocity of q, plus the predicted alpha-exponents
    (1/2 - 1/p and -1/p for p <= 2, 0 and -1/2 for p >= 2)."""
    if a.alpha <= 0:
        raise ValueError("the scaling monitor requires alpha > 0")
    if p <= 1:
        raise ValueError("scaling exponents are defined for p > 1")
    u = velocity(q, a)
    if p <= 2:
        grad_exp, lap_exp = 0.5 - 1.0 / p, -1.0 / p
    else:
        grad_exp, lap_exp = 0.0, -0.5
    return ScalingMonitor(gradient_l2(u), laplacian_l2(u), grad_exp, lap_exp)


def random_vorticity(grid, seed=0, scale=1.0):
    q = smooth_random(seed, 1.5, grid.kmax_dealias // 2, grid)
    return SpectralField(grid, q.coeffs * scale)


class TestBiotSavart:
    def test_zero(self):
        g = Grid(16)
        v = biot_savart(SpectralField(g, np.zeros((16, 9), dtype=np.complex128)))
        assert np.abs(v.u1.coeffs).max() == 0
        assert np.abs(v.u2.coeffs).max() == 0

    def test_single_mode(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1)))
        v = biot_savart(q)
        u1 = to_physical(v.u1).values
        u2 = to_physical(v.u2).values
        assert np.abs(u1).max() < TOL
        assert np.abs(u2 - np.sin(g.mesh[0])).max() < 1e-12

    def test_two_modes(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1) + np.cos(x2)))
        v = biot_savart(q)
        x1, x2 = g.mesh
        assert np.abs(to_physical(v.u1).values + np.sin(x2)).max() < 1e-12
        assert np.abs(to_physical(v.u2).values - np.sin(x1)).max() < 1e-12

    def test_divergence_free_and_curl_identity(self):
        g = Grid(32)
        q = random_vorticity(g, seed=4)
        v = biot_savart(q)
        assert np.abs(divergence(v).coeffs).max() < TOL
        assert np.abs(curl(v).coeffs - q.coeffs).max() < TOL

    def test_rejects_nonzero_mean(self):
        g = Grid(8)
        coeffs = np.zeros((8, 5), dtype=np.complex128)
        coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            biot_savart(SpectralField(g, coeffs))


def oracle_biot_savart(q):
    """The Biot-Savart velocity through the stream function q / |k|^2 and
    `spectral_derivative`: u = (d2 psi, -d1 psi)."""
    g = q.grid
    psi = SpectralField(g, q.coeffs * g.inv_ksq)
    return VelocityField(g, np.stack([spectral_derivative(psi, 2).coeffs, -spectral_derivative(psi, 1).coeffs]))


def oracle_velocity(q, a):
    """The filtered velocity as two operators: `helmholtz_filter` of the
    oracle Biot-Savart field."""
    return helmholtz_filter(oracle_biot_savart(q), a)


def oracle_velocity_gap(qa, alpha_a, qb, alpha_b):
    """||u^alpha_a - u^alpha_b||_{L2} spelt out as in the sweep's error
    columns: the filter factors, then Parseval with 1/|k|^2."""
    g = qa.grid
    fa = 1.0 / (1.0 + alpha_a * g.ksq)
    fb = 1.0 / (1.0 + alpha_b * g.ksq)
    diff = qa.coeffs * fa - qb.coeffs * fb
    return 2 * np.pi * np.sqrt(parseval_sum(np.abs(diff) ** 2 * g.inv_ksq))


def oracle_gamma0(q0_alpha, omega0, a):
    """gamma0 from the difference of the two velocity fields."""
    u_alpha = oracle_velocity(q0_alpha, a)
    u0 = oracle_biot_savart(omega0)
    diff = VelocityField(u0.grid, u_alpha.coeffs - u0.coeffs)
    return velocity_l2(diff) + a.alpha * laplacian_l2(u_alpha)


def white_vorticity(grid, seed):
    """Mean-free white noise: every coefficient nonzero, the Nyquist lines
    included."""
    rng = np.random.default_rng(seed)
    q = to_spectral(PhysicalField(grid, rng.standard_normal((grid.n, grid.n))))
    q.coeffs[0, 0] = 0.0
    return q


class TestVelocityTable:
    """`velocity` and `biot_savart` are one multiply by the stage's table."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    @pytest.mark.parametrize("alpha", [0.0, 2.0**-6])
    def test_matches_filtered_biot_savart(self, n, alpha):
        g = Grid(n)
        a = AlphaParam(alpha)
        for q in (white_vorticity(g, n), random_vorticity(g, seed=n)):
            expected = oracle_velocity(q, a)
            scale = max(np.abs(expected.u1.coeffs).max(), np.abs(expected.u2.coeffs).max())
            got = [velocity(q, a)]
            if alpha == 0.0:
                got.append(biot_savart(q))
            for u in got:
                assert np.abs(u.u1.coeffs - expected.u1.coeffs).max() <= 1e-15 * scale
                assert np.abs(u.u2.coeffs - expected.u2.coeffs).max() <= 1e-15 * scale
                # the sine modes of the Nyquist lines are dropped exactly
                assert np.all(u.u1.coeffs[:, n // 2] == 0.0)
                assert np.all(u.u2.coeffs[n // 2, :] == 0.0)

    def test_components_are_read_only_views_of_the_stack(self):
        g = Grid(16)
        u = velocity(white_vorticity(g, 5), AlphaParam(0.1))
        for j, comp in enumerate((u.u1, u.u2)):
            assert np.shares_memory(comp.coeffs, u.coeffs[j])
            with pytest.raises(ValueError):
                comp.coeffs[1, 0] = 0.0
        assert u.coeffs.flags.writeable

    def test_rejects_a_stack_of_another_shape(self):
        with pytest.raises(ValueError, match="does not match grid"):
            VelocityField(Grid(16), np.zeros((16, 9), dtype=np.complex128))

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_physical_is_per_component_to_physical(self, n):
        g = Grid(n)
        u = velocity(white_vorticity(g, 3), AlphaParam(0.1))
        got = u.physical()
        assert got.shape == (2, n, n)
        assert np.array_equal(got[0], to_physical(u.u1).values)
        assert np.array_equal(got[1], to_physical(u.u2).values)

    @pytest.mark.parametrize("alpha_a, alpha_b", [(0.1, 0.0), (0.0, 0.0), (2.0**-6, 0.25), (0.0, 0.5)])
    def test_l2_distance_is_the_error_column_formula(self, alpha_a, alpha_b):
        g = Grid(32)
        qa, qb = random_vorticity(g, seed=1), white_vorticity(g, 2)
        got = velocity_l2_distance(qa, AlphaParam(alpha_a), qb, AlphaParam(alpha_b))
        assert got == oracle_velocity_gap(qa, alpha_a, qb, alpha_b)

    def test_l2_distance_is_the_field_distance_for_dealiased_fields(self):
        g = Grid(32)
        qa, qb = random_vorticity(g, seed=5), random_vorticity(g, seed=6)
        a, b = AlphaParam(0.05), AlphaParam(0.0)
        ua, ub = velocity(qa, a), velocity(qb, b)
        diff = VelocityField(g, ua.coeffs - ub.coeffs)
        assert velocity_l2_distance(qa, a, qb, b) == pytest.approx(velocity_l2(diff), rel=1e-14)

    @pytest.mark.parametrize("family", ["identity", "mollified"])
    @pytest.mark.parametrize("kind", ["smooth", "disc"])
    def test_gamma0_matches_the_field_difference(self, family, kind):
        # The gap term subtracts two nearly equal velocities; the two
        # formulas round them differently, so their difference is a few
        # ulps of ||u_0|| at every alpha: 1e-15 relative to gamma0 down to
        # alpha = 2^-8, the smallest of the demo sweeps (2.3e-15 at 2^-11).
        g = Grid(64)
        fine = Grid(128)
        datum = smooth_random(11, 2.0, 4, fine) if kind == "smooth" else disc_patch((np.pi, np.pi), 1.0, 1.0, fine)
        omega0 = restrict(datum, g)
        u0 = velocity_l2(biot_savart(omega0))
        for k in range(1, 21):
            a = AlphaParam(2.0**-k)
            q0 = approximating_family(omega0, a, family)
            got, expected = gamma0(q0, omega0, a), oracle_gamma0(q0, omega0, a)
            assert abs(got - expected) <= 1e-15 * u0
            if k <= 8:
                assert abs(got - expected) <= 1e-15 * expected


class TestHelmholtzFilter:
    def test_alpha_zero_is_bitwise_identity(self):
        g = Grid(16)
        v = biot_savart(random_vorticity(g, seed=1))
        u = helmholtz_filter(v, AlphaParam(0.0))
        assert np.array_equal(u.u1.coeffs, v.u1.coeffs)
        assert np.array_equal(u.u2.coeffs, v.u2.coeffs)

    def test_single_mode_halved(self):
        g = Grid(16)
        v = biot_savart(to_spectral(sample(g, lambda x1, x2: np.cos(x1))))
        u = helmholtz_filter(v, AlphaParam(1.0))
        assert u.u2.coeffs[1, 0] == pytest.approx(0.5 * v.u2.coeffs[1, 0], rel=TOL)

    def test_mode_3_4_factor(self):
        # 1/(1 + 0.25 * 25) = 4/29
        g = Grid(16)
        coeffs = np.zeros((16, 9), dtype=np.complex128)
        coeffs[3, 4] = 1.0  # with its stored-by-symmetry mirror at (-3, -4)
        v = SpectralField(g, coeffs)
        # one filter for scalar and vector fields, mode by mode
        field = helmholtz_filter(biot_savart(v), AlphaParam(0.25))
        filtered = helmholtz_filter(v, AlphaParam(0.25))
        assert isinstance(filtered, SpectralField) and isinstance(field, VelocityField)
        assert filtered.coeffs[3, 4] == pytest.approx(1.0 / 7.25, rel=TOL)
        assert field.coeffs[:, 3, 4] == pytest.approx(biot_savart(v).coeffs[:, 3, 4] / 7.25, rel=TOL)

    def test_contraction(self):
        g = Grid(32)
        v = biot_savart(random_vorticity(g, seed=7))
        for alpha in (0.0, 0.01, 0.5, 3.0):
            u = helmholtz_filter(v, AlphaParam(alpha))
            assert np.all(np.abs(u.u1.coeffs) <= np.abs(v.u1.coeffs) + TOL)
            assert np.all(np.abs(u.u2.coeffs) <= np.abs(v.u2.coeffs) + TOL)

    def test_unfilter_round_trip(self):
        g = Grid(32)
        v = biot_savart(random_vorticity(g, seed=2))
        a = AlphaParam(0.37)
        back = helmholtz_unfilter(helmholtz_filter(v, a), a)
        scale = np.abs(v.u2.coeffs).max()
        assert np.abs(back.u1.coeffs - v.u1.coeffs).max() < TOL * scale
        assert np.abs(back.u2.coeffs - v.u2.coeffs).max() < TOL * scale

    def test_unfilter_doubles_single_mode(self):
        g = Grid(16)
        v = biot_savart(to_spectral(sample(g, lambda x1, x2: np.cos(x1))))
        w = helmholtz_unfilter(v, AlphaParam(1.0))
        assert w.u2.coeffs[1, 0] == pytest.approx(2.0 * v.u2.coeffs[1, 0], rel=TOL)

    def test_unfilter_alpha_zero_identity(self):
        g = Grid(16)
        v = biot_savart(random_vorticity(g, seed=3))
        w = helmholtz_unfilter(v, AlphaParam(0.0))
        assert np.array_equal(w.u1.coeffs, v.u1.coeffs)


class TestNorms:
    def test_constant_l2(self):
        g = Grid(16)
        f = PhysicalField(g, np.ones((16, 16)))
        assert lp_norm(f, 2) == pytest.approx(2 * np.pi, rel=TOL)

    def test_sin_linf(self):
        g = Grid(16)
        f = sample(g, lambda x1, x2: np.sin(x1))
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=TOL)

    def test_sin_l2(self):
        g = Grid(16)
        f = sample(g, lambda x1, x2: np.sin(x1))
        assert lp_norm(f, 2) == pytest.approx(np.pi * np.sqrt(2), rel=TOL)

    def test_sin_l1(self):
        # int |sin x1| over the torus = 2*pi * 4
        g = Grid(64)
        f = sample(g, lambda x1, x2: np.sin(x1))
        assert lp_norm(f, 1) == pytest.approx(8 * np.pi, rel=1e-3)

    def test_rejects_p_below_one(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            lp_norm(PhysicalField(g, np.ones((8, 8))), 0.5)

    def test_alpha_norm_examples(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1)))
        u = biot_savart(q)  # (0, sin x1)
        assert alpha_norm(u, AlphaParam(0.0)) == pytest.approx(velocity_l2(u), rel=TOL)
        assert alpha_norm(u, AlphaParam(0.5)) == pytest.approx(
            np.pi * np.sqrt(3), rel=TOL
        )
        zero = VelocityField(g, np.zeros((2, 16, 9), dtype=np.complex128))
        assert alpha_norm(zero, AlphaParam(0.5)) == 0.0


class TestTorusDistance:
    def test_coincident(self):
        assert torus_distance((1.0, 2.0), (1.0, 2.0)) == 0.0

    def test_wraparound(self):
        d = torus_distance((0.1, 0.0), (6.2, 0.0))
        assert d == pytest.approx(abs(0.1 - 6.2 + 2 * np.pi), rel=1e-12)

    def test_antipodal(self):
        assert torus_distance((0.0, 0.0), (np.pi, np.pi)) == pytest.approx(
            np.pi * np.sqrt(2), rel=1e-12
        )

    def test_against_nine_shift_oracle(self):
        rng = np.random.default_rng(12)
        xs = rng.uniform(0, 2 * np.pi, size=(50, 2))
        ys = rng.uniform(0, 2 * np.pi, size=(50, 2))
        shifts = [
            2 * np.pi * np.array([i, j]) for i in (-1, 0, 1) for j in (-1, 0, 1)
        ]
        oracle = np.min(
            [np.linalg.norm(xs - ys - s, axis=1) for s in shifts], axis=0
        )
        assert np.abs(torus_distance(xs, ys) - oracle).max() < 1e-12

    def test_not_larger_than_euclidean(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 2 * np.pi, size=(100, 2))
        ys = rng.uniform(0, 2 * np.pi, size=(100, 2))
        assert np.all(torus_distance(xs, ys) <= np.linalg.norm(xs - ys, axis=1) + 1e-15)


class TestScalingMonitor:
    def test_single_mode_values(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1)))
        mon = scaling_monitor(q, AlphaParam(1.0), 2.0)
        assert mon.grad_u_l2 == pytest.approx(np.pi * np.sqrt(2) / 2, rel=TOL)
        assert mon.lap_u_l2 == pytest.approx(np.pi * np.sqrt(2) / 2, rel=TOL)
        assert mon.grad_exponent == pytest.approx(0.0)
        assert mon.lap_exponent == pytest.approx(-0.5)

    def test_rejects_alpha_zero(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1)))
        with pytest.raises(ValueError):
            scaling_monitor(q, AlphaParam(0.0), 2.0)

    def test_laplacian_bound_p2(self):
        # sqrt(alpha) ||lap u^alpha|| <= ||q||_{L2} across an alpha sweep
        g = Grid(32)
        q = random_vorticity(g, seed=8)
        q_l2 = lp_norm(to_physical(q), 2)
        for k in range(2, 11):
            alpha = 2.0**-k
            mon = scaling_monitor(q, AlphaParam(alpha), 2.0)
            assert np.sqrt(alpha) * mon.lap_u_l2 <= q_l2 * (1 + 1e-12)

    def test_laplacian_slope_band(self):
        # slope of log ||lap u^alpha|| vs log alpha in [-0.55, 0] for L2 data
        g = Grid(32)
        q = random_vorticity(g, seed=8)
        alphas = [2.0**-k for k in range(2, 11)]
        laps = [scaling_monitor(q, AlphaParam(a), 2.0).lap_u_l2 for a in alphas]
        slope = np.polyfit(np.log(alphas), np.log(laps), 1)[0]
        assert -0.55 <= slope <= 0.0


class TestCalderonZygmund:
    # constants calibrated once over seeds {0..4}, then frozen with margin
    FROZEN_CP = {4.0 / 3.0: 2.0, 2.0: 1.01, 4.0: 2.0}

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 4.0])
    def test_gradient_bound(self, n, p):
        g = Grid(n)
        for seed in range(5):
            q = random_vorticity(g, seed=seed)
            assert calderon_zygmund_ratio(q, p) <= self.FROZEN_CP[p]

    def test_p2_is_spectral_identity(self):
        g = Grid(32)
        q = random_vorticity(g, seed=11)
        assert calderon_zygmund_ratio(q, 2.0) == pytest.approx(1.0, rel=1e-10)
