"""Elliptic machinery on the torus.

Biot-Savart inversion of the vorticity, the Helmholtz low-pass filter and
its inverse, collocation L^p norms, the filtered energy norm, the torus
distance, and the gradient/Laplacian scaling monitors used by the
convergence studies.
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
    parseval_sum,
    spectral_derivative,
    to_physical,
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
        """Collocation samples stacked as an array of shape (2, n, n)."""
        return np.stack([to_physical(self.u1).values, to_physical(self.u2).values])


def _require_mean_zero(q: SpectralField, what: str) -> None:
    """Reject |mean| > MEAN_TOL * max(1, max |c_k|); an exactly zero mean,
    as inside a run, skips the scan for the largest coefficient."""
    mean = abs(q.coeffs[0, 0])
    if mean > MEAN_TOL and mean > MEAN_TOL * float(np.max(np.abs(q.coeffs))):
        raise ValueError(f"{what} must have zero mean on the torus")


def biot_savart(q: SpectralField) -> VelocityField:
    """Divergence-free velocity with curl v = q (curl = d1 v2 - d2 v1).

    Spectrally v_hat(k) = i (k2, -k1) q_hat(k) / |k|^2 for k != 0 and
    v_hat(0) = 0, with the derivatives zeroed on their Nyquist line as in
    `spectral_derivative`, so v is the velocity of the collocation field;
    requires the mean of q to vanish.
    """
    _require_mean_zero(q, "vorticity passed to the Biot-Savart solve")
    g = q.grid
    psi = SpectralField(g, q.coeffs * g.inv_ksq)
    u2 = spectral_derivative(psi, 1)
    return VelocityField(spectral_derivative(psi, 2), SpectralField(g, -u2.coeffs))


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


def gradient_l2(u: VelocityField) -> float:
    return TWO_PI * math.sqrt(_coeff_weighted_sq(u, u.grid.ksq))


def laplacian_l2(u: VelocityField) -> float:
    return TWO_PI * math.sqrt(_coeff_weighted_sq(u, u.grid.ksq**2))


def alpha_norm(u: VelocityField, a: AlphaParam) -> float:
    """sqrt(||u||_{L2}^2 + alpha ||grad u||_{L2}^2), evaluated spectrally."""
    return TWO_PI * math.sqrt(_coeff_weighted_sq(u, 1.0 + a.alpha * u.grid.ksq))


def torus_distance(x, y):
    """Geodesic distance on the 2*pi-periodic torus.

    Accepts single points or arrays of points with trailing dimension 2;
    equals the minimum of |x - y - 2*pi*k| over the nine integer shifts.
    """
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    wrapped = (diff + np.pi) % TWO_PI - np.pi
    dist = np.hypot(wrapped[..., 0], wrapped[..., 1])
    return float(dist) if dist.ndim == 0 else dist


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
    u = helmholtz_filter(biot_savart(q), a)
    if p <= 2:
        grad_exp, lap_exp = 0.5 - 1.0 / p, -1.0 / p
    else:
        grad_exp, lap_exp = 0.0, -0.5
    return ScalingMonitor(gradient_l2(u), laplacian_l2(u), grad_exp, lap_exp)


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
