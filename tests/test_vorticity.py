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
    scaling_monitor,
    to_physical,
    to_spectral,
    torus_distance,
    velocity_l2,
)
from alphaeuler.initial_data import smooth_random

TOL = 1e-12


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
        field = helmholtz_filter(
            biot_savart(v), AlphaParam(0.25)
        )  # filter acts mode-wise; check the scalar factor directly too
        from alphaeuler import helmholtz_filter_scalar

        filtered = helmholtz_filter_scalar(v, AlphaParam(0.25))
        assert filtered.coeffs[3, 4] == pytest.approx(1.0 / 7.25, rel=TOL)
        assert field.grid.n == 16

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
        zero = SpectralField(g, np.zeros((16, 9), dtype=np.complex128))
        from alphaeuler import VelocityField

        assert alpha_norm(VelocityField(zero, zero), AlphaParam(0.5)) == 0.0


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
