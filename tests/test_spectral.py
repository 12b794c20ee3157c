import numpy as np
import pytest

from alphaeuler import (
    AlphaParam,
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
from alphaeuler.spectral import TWO_PI, irfft2_passes, l2_norm, parseval_sum, wrap_periodic
from sampled import run_states

TOL = 1e-12


def self_mirror_defect(f):
    """Max deviation from c(-k1, k2) = conj(c(k1, k2)) on the columns
    k2 = 0 and n/2, the half-spectrum columns that are their own mirror."""
    cols = f.coeffs[:, [0, f.grid.n // 2]]
    return float(np.max(np.abs(cols - np.conj(cols[-np.arange(f.grid.n) % f.grid.n]))))


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
        slow = direct_dft(f.values)[:, : g.n // 2 + 1]
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
        spectral = (2 * np.pi) ** 2 * parseval_sum(np.abs(q.coeffs) ** 2)
        physical = np.sum(f.values**2) * g.cell_area
        assert spectral == pytest.approx(physical, rel=TOL)

    def test_hermitian_symmetry(self):
        g = Grid(16)
        q = to_spectral(random_field(g, seed=5))
        assert self_mirror_defect(q) < TOL

    def test_l2_norm_spectral(self):
        g = Grid(16)
        q = to_spectral(sample(g, lambda x1, x2: np.sin(x1)))
        assert l2_norm(q) == pytest.approx(np.pi * np.sqrt(2), rel=TOL)


def band_limited_stack(n, seed, count=3):
    """Random half spectra, zero past the dealias band's columns."""
    rng = np.random.default_rng(seed)
    shape = (count, n, n // 2 + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[..., dealias_cutoff(n) + 1 :] = 0.0
    return coeffs


class TestInversePasses:
    """`irfft2_passes`, the one inverse transform: bitwise irfft2, with the
    complex pass over the band columns only when the others are empty."""

    def column_passes(self, monkeypatch):
        widths = []
        real = np.fft.ifft

        def counted(a, *args, **kwargs):
            widths.append(a.shape[-1])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        return widths

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_band_limited_stack_equals_irfft2_bitwise(self, monkeypatch, n):
        coeffs = band_limited_stack(n, seed=n)
        expected = np.fft.irfft2(coeffs, s=(n, n), norm="forward")
        widths = self.column_passes(monkeypatch)
        got = irfft2_passes(coeffs.copy())
        assert np.array_equal(got, expected)
        assert widths == [dealias_cutoff(n) + 1]

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_one_coefficient_past_the_band_takes_every_column(self, monkeypatch, n):
        coeffs = band_limited_stack(n, seed=n + 1)
        coeffs[1, 3, dealias_cutoff(n) + 1] = 1e-3
        expected = np.fft.irfft2(coeffs, s=(n, n), norm="forward")
        widths = self.column_passes(monkeypatch)
        got = irfft2_passes(coeffs.copy())
        assert np.array_equal(got, expected)
        assert widths == [n // 2 + 1]

    def test_writes_into_out_and_overwrites_only_its_input(self):
        coeffs = band_limited_stack(16, seed=2, count=2)
        out = np.full((2, 16, 16), np.nan)
        assert irfft2_passes(coeffs.copy(), out=out) is out
        assert np.array_equal(out, np.fft.irfft2(coeffs, s=(16, 16), norm="forward"))

    @pytest.mark.parametrize("dealiased", [True, False])
    def test_to_physical_is_irfft2_and_keeps_its_input(self, dealiased):
        g = Grid(64)
        q = to_spectral(random_field(g, seed=7))
        if dealiased:
            q = dealias(q)
        before = q.coeffs.copy()
        got = to_physical(q).values
        assert np.array_equal(got, np.fft.irfft2(before, s=(64, 64), norm="forward"))
        assert np.array_equal(q.coeffs, before)


class TestHalfSpectrum:
    """The stored layout is the rfft2 half spectrum."""

    def test_matches_rfft2_layout(self):
        g = Grid(16)
        f = random_field(g, seed=5)
        q = to_spectral(f)
        assert np.abs(q.coeffs - np.fft.rfft2(f.values, norm="forward")).max() < TOL

    def test_rejects_full_shape(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            SpectralField(g, np.zeros((8, 8), dtype=np.complex128))


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


    def test_zero_outside_the_band_is_positive(self):
        # a sharp patch has coefficients of every sign; the cut modes must
        # still be +0, so that a field's dealias band is all of its bits
        from alphaeuler import disc_patch

        g = Grid(64)
        cut = dealias(disc_patch((np.pi, np.pi), 1.0, 1.0, g)).coeffs[~g.keep_mask]
        assert np.all(cut == 0)
        assert not np.signbit(cut.real).any() and not np.signbit(cut.imag).any()


class TestBandPacking:
    @pytest.mark.parametrize("n", [64, 256])
    def test_round_trip_of_run_samples_is_bitwise(self, n):
        from alphaeuler import SolverConfig, disc_patch
        from alphaeuler.spectral import pack_band, unpack_band

        g = Grid(n)
        q0 = disc_patch((np.pi, np.pi), 1.0, 1.0, g)
        times = np.linspace(0.0, 0.02, 3)
        _, states = run_states(q0, AlphaParam(0.01), SolverConfig(), times)
        for state in states:
            band = pack_band(state.q, g)
            assert band.size < 0.45 * state.q.coeffs.size
            back = unpack_band(band, g)
            assert back.grid == g
            assert back.coeffs.tobytes() == state.q.coeffs.tobytes()


class TestRestrict:
    def test_band_limited_exact(self):
        fine, coarse = Grid(64), Grid(32)
        f = sample(fine, lambda x1, x2: np.cos(3 * x1) + np.sin(2 * x2))
        down = restrict(to_spectral(f), coarse)
        expected = to_spectral(sample(coarse, lambda x1, x2: np.cos(3 * x1) + np.sin(2 * x2)))
        assert np.abs(down.coeffs - expected.coeffs).max() < TOL

    def test_rejects_refinement(self):
        with pytest.raises(ValueError):
            restrict(SpectralField(Grid(8), np.zeros((8, 5), dtype=np.complex128)), Grid(16))


class TestWrapPeriodic:
    """`wrap_periodic` against the double np.mod it stands for, bit for bit."""

    @staticmethod
    def double_mod(x):
        with np.errstate(invalid="ignore"):
            return np.mod(np.mod(x, TWO_PI), TWO_PI)

    def assert_matches(self, x):
        with np.errstate(invalid="ignore"):
            got = wrap_periodic(x)
        assert got.shape == np.shape(x)
        assert got.tobytes() == self.double_mod(x).tobytes()

    def test_edges_of_the_shift_range(self):
        edges = [
            -0.0, 0.0, 5e-324, -5e-324, -1e-17, -1e-300, TWO_PI, np.nextafter(TWO_PI, 0.0),
            np.nextafter(TWO_PI, 7.0), -TWO_PI, np.nextafter(-TWO_PI, 0.0), np.pi, -np.pi,
            np.nextafter(2.0 * TWO_PI, 0.0),
        ]
        self.assert_matches(np.array(edges))
        # every edge alone too: the shift or the fallback is chosen per call
        for x in edges:
            self.assert_matches(np.array(x))

    def test_second_period_shifts_exactly(self):
        self.assert_matches(np.linspace(TWO_PI, np.nextafter(2.0 * TWO_PI, 0.0), 4097))

    @pytest.mark.parametrize("extra", [40.0, -40.0, 2.0 * TWO_PI, np.nextafter(-TWO_PI, -7.0), np.nan, np.inf, -np.inf])
    def test_fallback(self, extra):
        x = np.array([-1e-17, -0.0, 1.0, TWO_PI, 7.0, extra])
        self.assert_matches(x)
        self.assert_matches(x[::-1].reshape(3, 2).T)

    def test_far_values_near_multiples_of_the_period(self):
        # a single np.mod of these lands on exactly 2 pi
        far = np.array([-k * TWO_PI for k in range(1, 40)])
        self.assert_matches(np.concatenate([far, np.nextafter(far, 0.0), np.nextafter(far, -np.inf)]))

    def test_random_positions_keep_their_layout(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(-TWO_PI, 2.0 * TWO_PI, size=(2, 4096))
        rows[:, :64] = rng.uniform(-1e-15, 1e-15, size=(2, 64))
        for x in (rows, rows.T, rows.T[::3]):
            self.assert_matches(x)
            assert wrap_periodic(x).strides == self.double_mod(x).strides

    def test_result_is_a_new_array_in_the_period(self):
        x = np.array([[-1e-17, 0.5], [TWO_PI, 3.0]])
        got = wrap_periodic(x)
        assert not np.shares_memory(got, x)
        assert np.all((got >= 0.0) & (got < TWO_PI))
        assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])

    def test_empty_and_scalar(self):
        self.assert_matches(np.empty((0, 2)))
        self.assert_matches(np.float64(-1e-17))
        assert wrap_periodic([[1.0, -0.5]]).tobytes() == self.double_mod(np.array([[1.0, -0.5]])).tobytes()
