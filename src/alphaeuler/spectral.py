"""Periodic grid, Fourier transforms, spectral differentiation and dealiasing.

Real scalar fields on the 2*pi-periodic square torus are stored either as
collocation samples (``PhysicalField``) or as Fourier-series coefficients
(``SpectralField``).  The coefficient convention is

    f(x) = sum_k c_k exp(i k . x),

so ``cos(x1)`` has coefficients 1/2 at k = (1, 0) and k = (-1, 0), and the
k = (0, 0) coefficient is the mean of the field.

A real field satisfies c(-k) = conj(c(k)), so only the ``rfft2`` half
spectrum is stored: shape (n, n//2 + 1), rows k1 in FFT order and columns
k2 = 0 .. n/2.  The ``Grid`` wavenumber tables have the same layout, and
``to_spectral`` is one ``rfft2`` with ``norm="forward"``, which is the
coefficient convention exactly because the power-of-two scaling is exact.
Every inverse transform in the package, ``to_physical`` included, goes
through ``irfft2_passes``: the two per-axis passes of ``irfft2``, with the
complex one over the dealias band's columns only when the columns past it
are empty.  Sums over the whole lattice of a quantity even in k go through
``parseval_sum``, which owns the column weights.  A dealiased field's
coefficients inside the band are kept flat (``pack_band``), row by row in
the one layout ``band_index`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_periodic(x) -> np.ndarray:
    """x mod 2*pi in [0, 2*pi): a new array in x's memory layout, bit for
    bit np.mod(np.mod(x, TWO_PI), TWO_PI).

    One np.mod rounds a value a hair below 0 up to exactly 2*pi; the second
    maps that to +0.0.  Values in [-2*pi, 4*pi) move by one 2*pi instead:
    the shift down is exact there, the shift up rounds as np.mod's does,
    and -0.0 becomes +0.0.  NaN, inf and farther values, and scalars, take
    the two np.mod calls.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.size == 0 or not (x.min() >= -TWO_PI and x.max() < 2.0 * TWO_PI):  # NaN included
        return np.mod(np.mod(x, TWO_PI), TWO_PI)
    # 1 below 0, -1 at or past 2 pi, else 0, times 2 pi; +0.0 + -0.0 is +0.0
    out = (np.less(x, 0.0).view(np.int8) - np.greater_equal(x, TWO_PI).view(np.int8)).astype(float)
    out *= TWO_PI
    out += x
    np.copyto(out, 0.0, where=out == TWO_PI)
    return out


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def dealias_cutoff(n: int) -> int:
    """Largest retained wavenumber of the 2/3-style rule on an n-point grid.

    The quadratic product of two fields band-limited to K is alias-free on
    the n-point grid iff 3K < n, so the cutoff is the largest such K.
    """
    return (n - 1) // 3


def dealias_mask(n: int) -> np.ndarray:
    """Boolean keep-mask over the half-spectrum (k1, k2 >= 0) lattice."""
    cutoff = dealias_cutoff(n)
    keep1 = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= cutoff
    keep2 = np.fft.rfftfreq(n, d=1.0 / n) <= cutoff
    return keep1[:, None] & keep2[None, :]


@dataclass(frozen=True)
class Grid:
    """Uniform n x n collocation grid on [0, 2*pi)^2, n a power of two >= 8."""

    n: int

    def __post_init__(self):
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")

    @property
    def dx(self) -> float:
        return TWO_PI / self.n

    @property
    def cell_area(self) -> float:
        return self.dx * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        """Collocation points along one axis."""
        return TWO_PI * np.arange(self.n) / self.n

    @property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X1, X2) meshes with values[i, j] = f(x[i], x[j]) indexing."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumbers along axis 1, shape (n, 1)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)[:, None]

    @cached_property
    def k2(self) -> np.ndarray:
        """Nonnegative wavenumbers along axis 2, shape (1, n//2 + 1)."""
        return np.fft.rfftfreq(self.n, d=1.0 / self.n)[None, :]

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.k1**2 + self.k2**2

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with the k = 0 entry set to zero (mean-zero inversion)."""
        inv = np.zeros(self.ksq.shape)
        np.divide(1.0, self.ksq, out=inv, where=self.ksq > 0)
        return inv

    @cached_property
    def keep_mask(self) -> np.ndarray:
        return dealias_mask(self.n)

    @property
    def kmax_dealias(self) -> int:
        return dealias_cutoff(self.n)


@dataclass(frozen=True)
class PhysicalField:
    """Real scalar field sampled at the collocation points."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ValueError("values shape does not match grid")
        if not np.isrealobj(self.values):
            raise ValueError("physical fields are real-valued")


@dataclass(frozen=True)
class SpectralField:
    """Real scalar field stored as its ``rfft2`` half spectrum: complex
    coefficients of shape (n, n//2 + 1), the k2 >= 0 columns; the k2 < 0
    columns follow from c(-k) = conj(c(k))."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n, self.grid.n // 2 + 1):
            raise ValueError("coefficient array shape does not match grid")
        if self.coeffs.dtype != np.complex128:
            raise ValueError("coefficients must be complex128")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def sample(grid: Grid, fn) -> PhysicalField:
    """Evaluate fn(X1, X2) on the collocation mesh."""
    x1, x2 = grid.mesh
    return PhysicalField(grid, np.asarray(fn(x1, x2), dtype=float))


def to_spectral(f: PhysicalField) -> SpectralField:
    return SpectralField(f.grid, np.fft.rfft2(f.values, norm="forward"))


def irfft2_passes(spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Collocation samples of a stack of half spectra (..., n, n//2 + 1),
    bitwise ``irfft2(spec, s=(n, n), norm="forward")``: its two per-axis
    passes in its order and scaling, the complex pass over k1 in place in
    `spec` (which it overwrites), the real pass over k2 into `out` when
    given.

    When every coefficient past the dealias band's columns k2 <= kmax is
    zero, as in every state `run` keeps, the complex pass covers the band
    columns only: the transform of a zero column is zero.  The width comes
    from the input, so any other input is transformed at full width.
    """
    n = spec.shape[-2]
    band = dealias_cutoff(n) + 1
    cols = spec if spec[..., band:].any() else spec[..., :band]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(spec, n=n, axis=-1, norm="forward", out=out)


def to_physical(f: SpectralField) -> PhysicalField:
    return PhysicalField(f.grid, irfft2_passes(f.coeffs.copy()))


def spectral_derivative(f: SpectralField, axis: int) -> SpectralField:
    """Differentiate along axis 1 or 2 by multiplying with i*k_axis.

    The Nyquist mode is zeroed: at the collocation points the odd derivative
    of that mode vanishes identically, and i*k would make the result complex.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    g = f.grid
    k = g.k1 if axis == 1 else g.k2
    out = 1j * k * f.coeffs
    nyq = g.n // 2
    if axis == 1:
        out[nyq, :] = 0.0
    else:
        out[:, nyq] = 0.0
    return SpectralField(g, out)


def dealias(f: SpectralField) -> SpectralField:
    """The field with every coefficient outside the dealias band set to +0."""
    return SpectralField(f.grid, np.where(f.grid.keep_mask, f.coeffs, 0.0))


def band_index(grid: Grid, n: int) -> tuple[np.ndarray, int]:
    """Where the dealias band of `grid` sits in an n-row half spectrum,
    n >= grid.n: its rows, k1 = 0 .. kmax then -kmax .. -1 in FFT order,
    and its width, the columns k2 = 0 .. kmax.  A band lists these rows
    in order, each over the width."""
    if grid.n > n:
        raise ValueError("target grid must not be finer than the source")
    kmax = grid.kmax_dealias
    return np.concatenate([np.arange(kmax + 1), np.arange(n - kmax, n)]), kmax + 1


def pack_band(f: SpectralField, grid: Grid) -> np.ndarray:
    """The coefficients of f inside the dealias band of `grid`, no finer
    than f's, row by row (`band_index`), taken in one gather: a flat array
    about 44 % the size of grid's half spectrum, all that f's restriction
    to grid holds."""
    rows, width = band_index(grid, f.grid.n)
    return f.coeffs[rows, :width].ravel()


def unpack_band(band: np.ndarray, grid: Grid) -> SpectralField:
    """Inverse of `pack_band` on `grid`: the band back in place and +0
    outside it."""
    rows, width = band_index(grid, grid.n)
    coeffs = np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128)
    coeffs[rows, :width] = band.reshape(rows.size, width)
    return SpectralField(grid, coeffs)


def restrict(f: SpectralField, coarse: Grid) -> SpectralField:
    """Spectral truncation of a fine-grid field onto a coarser grid.

    Keeps the modes inside the coarse grid's dealias band; coefficients are
    resolution-independent under the Fourier-series convention, so this is a
    plain copy of the band.
    """
    return unpack_band(pack_band(f, coarse), coarse)


def parseval_sum(density: np.ndarray) -> float:
    """Sum over the whole (k1, k2) lattice of a density even in k, given on
    the half spectrum.  Columns k2 = 0 and n/2 are their own mirror image and
    count once; every other column also stands for its k2 < 0 mirror and
    counts twice."""
    weight = np.full(density.shape[-1], 2.0)
    weight[0] = weight[-1] = 1.0
    return float(np.sum(density * weight))


def l2_norm(f: SpectralField) -> float:
    """L^2 norm over the torus via Parseval: 2*pi * sqrt(sum |c_k|^2)."""
    return TWO_PI * float(np.sqrt(parseval_sum(np.abs(f.coeffs) ** 2)))
