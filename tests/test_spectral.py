import numpy as np
import pytest

from alphaeuler import (
    Grid,
    PhysicalField,
    SpectralField,
    dealias,
    dealias_cutoff,
    dealias_mask,
    restrict,
    sample,
    spectral_derivative,
    to_physical,
    to_spectral,
)
from alphaeuler.spectral import (
    HalfSpectrum,
    full_spectrum,
    half_spectrum,
    l2_norm,
)

TOL = 1e-12


def hermitian_defect(f):
    """Max deviation from the conjugate symmetry c(-k) = conj(c(k))."""
    c = f.coeffs
    mirrored = np.roll(c[::-1, ::-1], 1, axis=(0, 1))
    return float(np.max(np.abs(c - np.conj(mirrored))))


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return PhysicalField(grid, rng.standard_normal((grid.n, grid.n)))


def direct_dft(values):
    """Quartic-cost DFT of the collocation samples, coefficient convention."""
    n = values.shape[0]
    coeffs = np.zeros((n, n), dtype=complex)
    x = 2.0 * np.pi * np.arange(n) / n
    for i1 in range(n):
        for i2 in range(n):
            k1 = np.fft.fftfreq(n, 1.0 / n)[i1]
            k2 = np.fft.fftfreq(n, 1.0 / n)[i2]
            phases = np.exp(-1j * (k1 * x[:, None] + k2 * x[None, :]))
            coeffs[i1, i2] = np.sum(values * phases) / (n * n)
    return coeffs


class TestGrid:
    def test_accepts_powers_of_two(self):
        for n in (8, 16, 32, 64):
            assert Grid(n).n == n

    @pytest.mark.parametrize("n", [4, 6, 12, 17, 100])
    def test_rejects_other_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    def test_geometry(self):
        g = Grid(16)
        assert g.period == pytest.approx(2 * np.pi)
        assert g.dx == pytest.approx(2 * np.pi / 16)
        assert g.k1.min() == -8 and g.k1.max() == 7


class TestTransforms:
    def test_zero_field(self):
        g = Grid(8)
        q = to_spectral(PhysicalField(g, np.zeros((8, 8))))
        assert np.all(q.coeffs == 0)

    def test_cosine_single_mode(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1)))
        assert q.coeffs[1, 0] == pytest.approx(0.5, abs=TOL)
        assert q.coeffs[-1, 0] == pytest.approx(0.5, abs=TOL)
        others = q.coeffs.copy()
        others[1, 0] = others[-1, 0] = 0.0
        assert np.abs(others).max() < TOL

    def test_matches_direct_dft_on_n8(self):
        g = Grid(8)
        f = random_field(g, seed=3)
        fast = to_spectral(f).coeffs
        slow = direct_dft(f.values)
        assert np.abs(fast - slow).max() < TOL

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_round_trip(self, n):
        g = Grid(n)
        f = random_field(g, seed=n)
        back = to_physical(to_spectral(f))
        rel = np.abs(back.values - f.values).max() / np.abs(f.values).max()
        assert rel < TOL

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_parseval(self, n):
        g = Grid(n)
        f = random_field(g, seed=n + 1)
        q = to_spectral(f)
        spectral = (2 * np.pi) ** 2 * np.sum(np.abs(q.coeffs) ** 2)
        physical = np.sum(f.values**2) * g.cell_area
        assert spectral == pytest.approx(physical, rel=TOL)

    def test_hermitian_symmetry(self):
        g = Grid(16)
        q = to_spectral(random_field(g, seed=5))
        assert hermitian_defect(q) < TOL

    def test_l2_norm_spectral(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.sin(x1)))
        assert l2_norm(q) == pytest.approx(np.pi * np.sqrt(2), rel=TOL)


class TestHalfSpectrum:
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_half_full_half_round_trip_exact(self, n):
        g = Grid(n)
        h = half_spectrum(to_spectral(random_field(g, seed=n)))
        assert h.coeffs.shape == (n, n // 2 + 1)
        assert np.array_equal(half_spectrum(full_spectrum(h)).coeffs, h.coeffs)

    @pytest.mark.parametrize("n", [8, 32])
    def test_full_layout_is_hermitian_and_matches_fft2(self, n):
        g = Grid(n)
        f = to_spectral(random_field(g, seed=3))
        back = full_spectrum(half_spectrum(f))
        assert hermitian_defect(back) < TOL
        assert np.abs(back.coeffs - f.coeffs).max() < TOL

    def test_matches_rfft2_layout(self):
        g = Grid(16)
        f = random_field(g, seed=5)
        h = half_spectrum(to_spectral(f))
        assert np.abs(h.coeffs - np.fft.rfft2(f.values, norm="forward")).max() < TOL

    def test_rejects_full_shape(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            HalfSpectrum(g, np.zeros((8, 8), dtype=np.complex128))


class TestDerivative:
    def test_sin_to_cos(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.sin(x1)))
        d = to_physical(spectral_derivative(q, 1))
        expected = sample(g, lambda x1, x2: np.cos(x1)).values
        assert np.abs(d.values - expected).max() < 1e-12

    def test_transverse_mode_killed(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x2)))
        d = spectral_derivative(q, 1)
        assert np.abs(d.coeffs).max() < TOL

    def test_mixed_mode_symbolic(self):
        # d/dx2 cos(2 x1 + x2) = -sin(2 x1 + x2)
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(2 * x1 + x2)))
        d = to_physical(spectral_derivative(q, 2))
        expected = sample(g, lambda x1, x2: -np.sin(2 * x1 + x2)).values
        assert np.abs(d.values - expected).max() < 1e-12

    def test_derivative_of_constant(self):
        g = Grid(8)
        q = to_spectral(PhysicalField(g, np.full((8, 8), 2.5)))
        assert np.abs(spectral_derivative(q, 1).coeffs).max() < TOL

    def test_commutes_with_dealias(self):
        g = Grid(32)
        q = to_spectral(random_field(g, seed=9))
        a = spectral_derivative(dealias(q), 1)
        b = dealias(spectral_derivative(q, 1))
        assert np.abs(a.coeffs - b.coeffs).max() < TOL


class TestDealias:
    def test_cutoff_values(self):
        assert dealias_cutoff(12) == 3
        assert dealias_cutoff(128) == 42
        assert dealias_cutoff(8) == 2

    def test_rule_on_n12(self):
        # the retained band keeps 3K < n, so on n = 12 the cut sits at |k| = 4
        mask = dealias_mask(12)
        assert not mask[5, 0]
        assert not mask[4, 4]
        assert mask[3, 2]

    def test_zeroes_high_modes_only(self):
        g = Grid(32)
        q = to_spectral(random_field(g, seed=2))
        cut = dealias(q)
        kmax = np.maximum(np.abs(g.k1), np.abs(g.k2))
        assert np.all(cut.coeffs[kmax > g.kmax_dealias] == 0)
        keep = kmax <= g.kmax_dealias
        assert np.array_equal(cut.coeffs[keep], q.coeffs[keep])


class TestRestrict:
    def test_band_limited_exact(self):
        fine, coarse = Grid(64), Grid(32)
        f = sample(fine, lambda x1, x2: np.cos(3 * x1) + np.sin(2 * x2))
        down = restrict(to_spectral(f), coarse)
        expected = to_spectral(sample(coarse, lambda x1, x2: np.cos(3 * x1) + np.sin(2 * x2)))
        assert np.abs(down.coeffs - expected.coeffs).max() < TOL

    def test_rejects_refinement(self):
        with pytest.raises(ValueError):
            restrict(SpectralField(Grid(8), np.zeros((8, 8), dtype=np.complex128)), Grid(16))
