import numpy as np
import pytest

from alphaeuler import (
    AlphaParam,
    Grid,
    approximating_family,
    disc_patch,
    fractal_patch,
    restrict,
    shear,
    smooth_random,
    to_physical,
)
from alphaeuler.initial_data import boundary_cells, box_counting_dimension
from alphaeuler.spectral import l2_norm


class TestSmoothRandom:
    def test_deterministic(self):
        g = Grid(32)
        a = smooth_random(7, 2.0, 5, g)
        b = smooth_random(7, 2.0, 5, g)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_different_seeds_differ(self):
        g = Grid(32)
        a = smooth_random(7, 2.0, 5, g)
        b = smooth_random(8, 2.0, 5, g)
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_kmax_one_is_four_lowest_modes(self):
        g = Grid(16)
        q = smooth_random(3, 2.0, 1, g)
        # the half spectrum stores (0, 1) and leaves its mirror (0, -1) implied
        nz = np.argwhere(np.abs(q.coeffs) > 0)
        modes = {(int(np.fft.fftfreq(16, 1 / 16)[i1]), int(i2)) for i1, i2 in nz}
        assert modes == {(1, 0), (-1, 0), (0, 1)}

    def test_mean_exactly_zero(self):
        g = Grid(32)
        q = smooth_random(9, 2.0, 6, g)
        assert q.coeffs[0, 0] == 0.0

    def test_unit_l2_norm(self):
        g = Grid(32)
        q = smooth_random(9, 2.0, 6, g)
        assert l2_norm(q) == pytest.approx(1.0, rel=1e-12)

    def test_resolution_independent(self):
        a = smooth_random(5, 2.0, 5, Grid(128))
        b = restrict(smooth_random(5, 2.0, 5, Grid(256)), Grid(128))
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-15

    def test_kmax_beyond_band_rejected(self):
        with pytest.raises(ValueError):
            smooth_random(0, 2.0, 3, Grid(8))


class TestDiscPatch:
    def test_mean_zero_exact(self):
        g = Grid(64)
        q = disc_patch((np.pi, np.pi), 1.0, 1.0, g)
        assert q.coeffs[0, 0] == 0.0

    def test_subtracted_mean_is_area_ratio(self):
        g = Grid(256)
        q = disc_patch((np.pi, np.pi), 1.0, 1.0, g)
        values = to_physical(q).values
        # inside value = 1 - mean, so the subtracted mean is 1 - max
        subtracted = 1.0 - values.max()
        assert subtracted == pytest.approx(1.0 / (4.0 * np.pi), abs=2e-3)

    def test_linf_at_most_amplitude(self):
        g = Grid(128)
        for amp in (0.5, 1.0, 3.0):
            q = disc_patch((1.0, 4.0), 0.8, amp, g)
            assert np.abs(to_physical(q).values).max() <= amp

    def test_l1_identity_of_two_level_function(self):
        # mean-subtracted indicator: ||q||_L1 = 2 A area (1 - area/(4 pi^2))
        g = Grid(128)
        amp, radius = 2.0, 1.0
        q = disc_patch((np.pi, np.pi), radius, amp, g)
        values = to_physical(q).values
        inside = values > 0
        area = inside.sum() * g.cell_area
        expected = 2.0 * amp * area * (1.0 - area / (4.0 * np.pi**2))
        measured = np.abs(values).sum() * g.cell_area
        assert measured == pytest.approx(expected, rel=1e-10)

    def test_tiny_radius_nearly_vanishes(self):
        g = Grid(64)
        q = disc_patch((np.pi, np.pi), 0.05, 1.0, g)
        assert np.abs(to_physical(q).values).max() <= 1.0
        assert l2_norm(q) < 0.2

    @pytest.mark.parametrize("n", [64, 256])
    def test_datum_bitwise_equals_the_mesh_formula(self, n):
        # membership by the torus distance of every node of the (n, n, 2)
        # mesh, its offsets wrapped with one %
        g = Grid(n)
        x1, x2 = g.mesh
        pts = np.stack([x1, x2], axis=-1)
        for center in ((np.pi, np.pi), (0.01, 6.28), (6.0, 0.3), (0.0, 0.0)):
            diff = pts - np.asarray(center)
            wrapped = (diff + np.pi) % (2 * np.pi) - np.pi
            inside = np.hypot(wrapped[..., 0], wrapped[..., 1]) <= 1.0
            values = 2.0 * inside.astype(float)
            expected = np.fft.rfft2(values - values.mean(), norm="forward")
            expected[0, 0] = 0.0
            assert disc_patch(center, 1.0, 2.0, g).coeffs.tobytes() == expected.tobytes()

    def test_radius_validated(self):
        g = Grid(32)
        for radius in (0.0, np.pi, 4.0):
            with pytest.raises(ValueError):
                disc_patch((np.pi, np.pi), radius, 1.0, g)


class TestFractalPatch:
    def test_depth_zero_square(self):
        g = Grid(512)
        field, meta = fractal_patch("koch-like", 0, 1.0, g)
        assert meta["boundary_dim_estimate"] == pytest.approx(1.0, abs=0.05)
        assert field.coeffs[0, 0] == 0.0

    def test_unresolvable_depth_rejected(self):
        with pytest.raises(ValueError):
            fractal_patch("koch-like", 5, 1.0, Grid(256))

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            fractal_patch("dragon", 1, 1.0, Grid(64))

    def test_edge_count_grows_fourfold(self):
        g = Grid(128)
        _, meta = fractal_patch("koch-like", 2, 1.0, g)
        assert meta["edge_count"] == 4 * 4 * 4


class TestBoxCounting:
    def test_full_frame_dimension_one(self):
        n = 256
        cells = np.zeros((n, n), dtype=bool)
        cells[64, :] = True  # a straight line of cells
        dim = box_counting_dimension(cells)
        assert dim == pytest.approx(1.0, abs=0.05)

    def test_filled_block_dimension_two(self):
        n = 256
        cells = np.zeros((n, n), dtype=bool)
        cells[32:224, 32:224] = True
        dim = box_counting_dimension(cells)
        assert dim == pytest.approx(2.0, abs=0.1)

    def test_boundary_cells_of_half_plane(self):
        inside = np.zeros((16, 16), dtype=bool)
        inside[:8, :] = True
        cells = boundary_cells(inside)
        assert cells[7, :].all() and cells[15, :].all()


class TestShear:
    def test_is_cos_of_the_wavenumber(self):
        g = Grid(32)
        values = to_physical(shear(g, 10)).values
        np.testing.assert_allclose(values, np.cos(10 * g.mesh[0]), atol=1e-14)

    @pytest.mark.parametrize("wavenumber", [0, -1, 11, 32])
    def test_outside_the_dealias_band_rejected(self, wavenumber):
        # 11 and beyond were dealiased away by the run, 32 aliased to the
        # mean and 0 failed later as a nonzero mean
        with pytest.raises(ValueError, match=f"wavenumber={wavenumber} lies outside 1..10"):
            shear(Grid(32), wavenumber)


class TestApproximatingFamily:
    def test_identity_returns_same_field(self):
        g = Grid(32)
        q = smooth_random(1, 2.0, 5, g)
        out = approximating_family(q, AlphaParam(0.5), "identity")
        assert np.array_equal(out.coeffs, q.coeffs)
        assert out.coeffs is not q.coeffs

    def test_mollified_alpha_zero(self):
        g = Grid(32)
        q = smooth_random(1, 2.0, 5, g)
        out = approximating_family(q, AlphaParam(0.0), "mollified")
        assert np.array_equal(out.coeffs, q.coeffs)

    def test_mollified_single_mode_halved(self):
        g = Grid(16)
        q = shear(g)
        out = approximating_family(q, AlphaParam(1.0), "mollified")
        assert out.coeffs[1, 0] == pytest.approx(0.25, rel=1e-12)

    def test_mollified_converges_monotonically(self):
        g = Grid(32)
        q = smooth_random(2, 2.0, 6, g)
        gaps = []
        for k in range(0, 8):
            out = approximating_family(q, AlphaParam(2.0**-k), "mollified")
            from alphaeuler.spectral import SpectralField

            gaps.append(l2_norm(SpectralField(g, out.coeffs - q.coeffs)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_unknown_mode_rejected(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            approximating_family(shear(g), AlphaParam(0.1), "bogus")
