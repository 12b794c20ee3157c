"""Elliptic machinery on the torus.

The filtered Biot-Savart velocity u^alpha = K^alpha * q, defined once by
the multiplier table that `velocity` and the solver's stages use, the
Helmholtz filter and its inverse, collocation L^p norms, the filtered
energy norm, L2 velocity distances (by Parseval, without the table), and
the torus distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    Grid,
    PhysicalField,
    SpectralField,
    irfft2_passes,
    parseval_sum,
    spectral_derivative,
    to_physical,
    wrap_periodic,
)

MEAN_TOL = 1e-12


@dataclass(frozen=True)
class AlphaParam:
    """Square of the Helmholtz filter length scale; alpha = 0 is unfiltered."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


@dataclass(frozen=True)
class VelocityField:
    """Divergence-free vector field with spectral components (u1, u2)."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise ValueError("velocity components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    def physical(self) -> np.ndarray:
        """Collocation samples stacked as an array of shape (2, n, n): one
        `irfft2_passes` over the stacked coefficients, bitwise `to_physical`
        per plane, with the column pass over the dealias band only when both
        components are dealiased, as the velocities of a run's states are."""
        return irfft2_passes(np.stack([self.u1.coeffs, self.u2.coeffs]))


def _require_mean_zero(q: SpectralField, what: str) -> None:
    """Reject |mean| > MEAN_TOL * max(1, max |c_k|); an exactly zero mean,
    as inside a run, skips the scan for the largest coefficient."""
    mean = abs(q.coeffs[0, 0])
    if mean > MEAN_TOL and mean > MEAN_TOL * float(np.max(np.abs(q.coeffs))):
        raise ValueError(f"{what} must have zero mean on the torus")


def _velocity_multipliers(grid: Grid, a: AlphaParam) -> np.ndarray:
    """(2, n, n//2 + 1) multipliers of the filtered Biot-Savart velocity
    (u1, u2).  Each is odd in some k_j and loses its k_j = n/2 line: that
    sine mode vanishes at the collocation points."""
    n, nh = grid.n, grid.n // 2
    bs = grid.inv_ksq / (1.0 + a.alpha * grid.ksq)
    mult = np.empty((2, n, nh + 1), dtype=np.complex128)
    mult[0] = 1j * grid.k2 * bs
    mult[1] = -1j * grid.k1 * bs
    mult[0, :, nh] = 0.0  # u1: odd in k2
    mult[1, nh, :] = 0.0  # u2: odd in k1
    return mult


def velocity(q: SpectralField, a: AlphaParam, table: np.ndarray | None = None) -> VelocityField:
    """The advecting velocity u^alpha = K^alpha * q: the Helmholtz-filtered
    Biot-Savart field of q, the multiplier table times q; requires the mean
    of q to vanish.  `table` passes in the `_velocity_multipliers` of
    (q.grid, a) when the caller holds them, as a run's stage does, so they
    are not built again."""
    _require_mean_zero(q, "vorticity passed to the Biot-Savart solve")
    u = _velocity_multipliers(q.grid, a) if table is None else table.copy()
    u *= q.coeffs
    return VelocityField(SpectralField(q.grid, u[0]), SpectralField(q.grid, u[1]))


def biot_savart(q: SpectralField) -> VelocityField:
    """Divergence-free velocity with curl v = q (curl = d1 v2 - d2 v1).

    Spectrally v_hat(k) = i (k2, -k1) q_hat(k) / |k|^2 for k != 0 and
    v_hat(0) = 0, with the derivatives zeroed on their Nyquist line as in
    `spectral_derivative`, so v is the velocity of the collocation field;
    requires the mean of q to vanish.
    """
    return velocity(q, AlphaParam(0.0))


def helmholtz_factor(grid: Grid, a: AlphaParam) -> np.ndarray:
    return 1.0 / (1.0 + a.alpha * grid.ksq)


def helmholtz_filter_scalar(f: SpectralField, a: AlphaParam) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * helmholtz_factor(f.grid, a))


def helmholtz_filter(v: VelocityField, a: AlphaParam) -> VelocityField:
    """Apply (I - alpha Lap)^{-1}: damp each mode by 1/(1 + alpha |k|^2)."""
    return VelocityField(
        helmholtz_filter_scalar(v.u1, a), helmholtz_filter_scalar(v.u2, a)
    )


def helmholtz_unfilter(u: VelocityField, a: AlphaParam) -> VelocityField:
    """Apply (I - alpha Lap), the exact inverse of the Helmholtz filter."""
    factor = 1.0 + a.alpha * u.grid.ksq
    return VelocityField(
        SpectralField(u.u1.grid, u.u1.coeffs * factor),
        SpectralField(u.u2.grid, u.u2.coeffs * factor),
    )


def divergence(u: VelocityField) -> SpectralField:
    d1u1, d2u2 = spectral_derivative(u.u1, 1), spectral_derivative(u.u2, 2)
    return SpectralField(u.grid, d1u1.coeffs + d2u2.coeffs)


def curl(u: VelocityField) -> SpectralField:
    d1u2, d2u1 = spectral_derivative(u.u2, 1), spectral_derivative(u.u1, 2)
    return SpectralField(u.grid, d1u2.coeffs - d2u1.coeffs)


def lp_norm(f: PhysicalField, p: float) -> float:
    """Collocation quadrature of the L^p norm; p = inf returns max |f|."""
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"L^p norms require p >= 1, got {p}")
    cell = f.grid.cell_area
    return float((np.sum(np.abs(f.values) ** p) * cell) ** (1.0 / p))


def _coeff_weighted_sq(u: VelocityField, weight) -> float:
    return parseval_sum(weight * (np.abs(u.u1.coeffs) ** 2 + np.abs(u.u2.coeffs) ** 2))


def velocity_l2(u: VelocityField) -> float:
    return TWO_PI * math.sqrt(_coeff_weighted_sq(u, 1.0))


def laplacian_l2(u: VelocityField) -> float:
    return TWO_PI * math.sqrt(_coeff_weighted_sq(u, u.grid.ksq**2))


def alpha_norm(u: VelocityField, a: AlphaParam) -> float:
    """sqrt(||u||_{L2}^2 + alpha ||grad u||_{L2}^2), evaluated spectrally."""
    return TWO_PI * math.sqrt(_coeff_weighted_sq(u, 1.0 + a.alpha * u.grid.ksq))


def velocity_l2_distance(qa: SpectralField, a: AlphaParam, qb: SpectralField, b: AlphaParam) -> float:
    """||K^a * qa - K^b * qb||_{L2} by Parseval, |u_hat|^2 = |q_hat|^2 / |k|^2;
    exact for fields without the Nyquist-line modes `velocity` drops, as
    dealiased fields are."""
    g = qa.grid
    diff = qa.coeffs * helmholtz_factor(g, a) - qb.coeffs * helmholtz_factor(g, b)
    return TWO_PI * math.sqrt(parseval_sum(np.abs(diff) ** 2 * g.inv_ksq))


def torus_distance(x, y):
    """Geodesic distance on the 2*pi-periodic torus.

    Accepts single points or arrays of points with trailing dimension 2;
    equals the minimum of |x - y - 2*pi*k| over the nine integer shifts.
    """
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    wrapped = wrap_periodic(diff + np.pi) - np.pi
    dist = np.hypot(wrapped[..., 0], wrapped[..., 1])
    return float(dist) if dist.ndim == 0 else dist


def calderon_zygmund_ratio(q: SpectralField, p: float) -> float:
    """||grad(biot_savart q)||_{L^p} / ||q||_{L^p} with the pointwise
    Frobenius magnitude of the velocity gradient."""
    v = biot_savart(q)
    parts = [
        to_physical(spectral_derivative(comp, axis)).values
        for comp in (v.u1, v.u2)
        for axis in (1, 2)
    ]
    grad_mag = np.sqrt(sum(part**2 for part in parts))
    grad_norm = lp_norm(PhysicalField(q.grid, grad_mag), p)
    q_norm = lp_norm(to_physical(q), p)
    if q_norm == 0.0:
        raise ValueError("the ratio is undefined for a zero field")
    return grad_norm / q_norm
