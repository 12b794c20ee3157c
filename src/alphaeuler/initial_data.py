"""Initial vorticity generators.

Smooth random band-limited fields, sharp vortex patches (disc and
Koch-refined polygon with a box-counting dimension estimate of its
boundary), the steady shear mode, and the filtered approximating family.
All generators return exactly mean-free spectral fields and are
deterministic in their arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import (
    TWO_PI,
    Grid,
    PhysicalField,
    SpectralField,
    dealias_cutoff,
    l2_norm,
    to_spectral,
    wrap_periodic,
)
from .vorticity import AlphaParam, _require_mean_zero, helmholtz_filter_scalar


def smooth_random(
    seed: int, spectrum_slope: float, k_max: int, grid: Grid
) -> SpectralField:
    """Random-phase field with amplitude |k|^(-spectrum_slope) up to k_max.

    Coefficients are drawn mode by mode in a fixed lattice order, so the
    same seed produces the same analytic field on every grid that resolves
    it; a mode drawn with k2 < 0 is stored as the conjugate of its mirror.
    Modes are confined to the dealias band and the result is scaled to
    unit L^2 norm.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if k_max > dealias_cutoff(grid.n):
        raise ValueError(
            f"k_max={k_max} exceeds the dealias band of an n={grid.n} grid"
        )
    rng = np.random.default_rng(seed)
    n = grid.n
    coeffs = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for k1 in range(0, k_max + 1):
        for k2 in range(-k_max, k_max + 1):
            if k1 == 0 and k2 <= 0:
                continue
            phase = rng.uniform(0.0, TWO_PI)
            mag_sq = k1 * k1 + k2 * k2
            if mag_sq > k_max * k_max:
                continue
            amp = 0.5 * mag_sq ** (-spectrum_slope / 2.0)
            c = amp * np.exp(1j * phase)
            if k2 >= 0:
                coeffs[k1, k2] = c
            if k2 <= 0:
                coeffs[-k1 % n, -k2] = np.conj(c)
    coeffs /= l2_norm(SpectralField(grid, coeffs))
    return SpectralField(grid, coeffs)


def _mean_free_spectral(values: np.ndarray, grid: Grid) -> SpectralField:
    field = to_spectral(PhysicalField(grid, values - values.mean()))
    out = field.coeffs
    out[0, 0] = 0.0
    return SpectralField(grid, out)


def disc_patch(center: tuple[float, float], radius: float, amplitude: float, grid: Grid) -> SpectralField:
    """Mean-free disc of vorticity: amplitude inside, rasterized by
    cell-center membership."""
    if not 0.0 < radius < math.pi:
        raise ValueError("radius must lie in (0, pi)")
    # the torus distance from the centre, from the wrapped offsets along
    # each axis: one (n,) array each, not an (n, n, 2) mesh
    d1, d2 = (wrap_periodic(grid.x - c + np.pi) - np.pi for c in np.asarray(center, dtype=float))
    inside = np.hypot(d1[:, None], d2[None, :]) <= radius
    return _mean_free_spectral(amplitude * inside.astype(float), grid)


def _koch_refine(vertices: np.ndarray) -> np.ndarray:
    """Replace every edge of a counterclockwise polygon by the four-segment
    outward bump of the classic Koch construction."""
    out = []
    count = vertices.shape[0]
    for i in range(count):
        p = vertices[i]
        q = vertices[(i + 1) % count]
        d = q - p
        a = p + d / 3.0
        b = p + 2.0 * d / 3.0
        # outward = right of travel for a counterclockwise polygon
        normal = np.array([d[1], -d[0]])
        apex = 0.5 * (a + b) + normal * (math.sqrt(3.0) / 6.0)
        out.extend([p, a, apex, b])
    return np.asarray(out)


def _points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Even-odd rule point-in-polygon test, vectorized over edges."""
    x = points[:, 0]
    y = points[:, 1]
    inside = np.zeros(points.shape[0], dtype=bool)
    v1 = vertices
    v2 = np.roll(vertices, -1, axis=0)
    for (x1, y1), (x2, y2) in zip(v1, v2):
        crosses = (y1 > y) != (y2 > y)
        if not np.any(crosses):
            continue
        x_cross = x1 + (y[crosses] - y1) * (x2 - x1) / (y2 - y1)
        hits = np.zeros_like(inside)
        hits[crosses] = x[crosses] < x_cross
        inside ^= hits
    return inside


def boundary_cells(inside: np.ndarray) -> np.ndarray:
    """Cells adjacent to a membership change along either axis."""
    edges = np.zeros_like(inside)
    for axis in (0, 1):
        rolled = np.roll(inside, -1, axis=axis)
        edges |= inside != rolled
    return edges


def box_counting_dimension(cells: np.ndarray) -> float:
    """Box-counting dimension of a cell mask from dyadic box counts.

    Counts occupied boxes of side 1, 2, 4, ... cells and fits the slope of
    log N against log(1/side) over the window {4, 8, 16}, or every side
    when fewer than two of those are counted.  The window sits above the
    rasterization floor (1-2 cell boxes saturate on the pixelated boundary)
    and below the coarse scales where too few boxes remain to count.
    """
    n = cells.shape[0]
    sizes = []
    s = 1
    while s <= n // 4:
        sizes.append(s)
        s *= 2
    counts = []
    for s in sizes:
        coarse = cells.reshape(n // s, s, n // s, s).any(axis=(1, 3))
        counts.append(int(coarse.sum()))
    fit_sizes = {s for s in sizes if s in (4, 8, 16)}
    if len(fit_sizes) < 2:
        fit_sizes = set(sizes)
    pts = [(s, c) for s, c in zip(sizes, counts) if s in fit_sizes and c > 0]
    if len(pts) < 2:
        raise ValueError("not enough box scales for a dimension estimate")
    log_inv_s = np.log([1.0 / s for s, _ in pts])
    log_n = np.log([c for _, c in pts])
    slope = np.polyfit(log_inv_s, log_n, 1)[0]
    return float(slope)


KOCH_DIMENSION = math.log(4.0) / math.log(3.0)


def fractal_patch(
    generator: str, depth: int, amplitude: float, grid: Grid
) -> tuple[SpectralField, dict]:
    """Vortex patch over a Koch-refined polygon.

    depth = 0 is the base square (boundary dimension 1); each refinement
    level multiplies the edge count by four and drives the boundary's
    box-counting dimension toward log 4 / log 3.  Returns the mean-free
    field and metadata with the measured dimension estimate.
    """
    if generator != "koch-like":
        raise ValueError(f"unknown boundary generator {generator!r}")
    if depth < 0 or depth > math.log(grid.n, 4):
        raise ValueError(
            f"depth {depth} is unresolvable on an n={grid.n} grid"
        )
    side = 2.2
    half = side / 2.0
    cx = cy = math.pi
    vertices = np.array(
        [
            [cx - half, cy - half],
            [cx + half, cy - half],
            [cx + half, cy + half],
            [cx - half, cy + half],
        ]
    )
    for _ in range(depth):
        vertices = _koch_refine(vertices)

    x1, x2 = grid.mesh
    points = np.column_stack([x1.ravel(), x2.ravel()])
    inside = np.zeros(points.shape[0], dtype=bool)
    chunk = 8192
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        inside[start : start + chunk] = _points_in_polygon(block, vertices)
    inside = inside.reshape(grid.n, grid.n)

    field = _mean_free_spectral(amplitude * inside.astype(float), grid)
    metadata = {
        "boundary_dim_estimate": box_counting_dimension(boundary_cells(inside)),
        "nominal_dimension": 1.0 if depth == 0 else KOCH_DIMENSION,
        "edge_count": int(vertices.shape[0]),
    }
    return field, metadata


def approximating_family(
    omega0: SpectralField, a: AlphaParam, mode: str = "identity"
) -> SpectralField:
    """Initial data family converging to omega0: either omega0 itself or
    its Helmholtz mollification at scale alpha."""
    _require_mean_zero(omega0, "omega0")
    if mode == "identity":
        return omega0.copy()
    if mode == "mollified":
        return helmholtz_filter_scalar(omega0, a)
    raise ValueError(f"unknown approximating-family mode {mode!r}")


def shear(grid: Grid, wavenumber: int = 1) -> SpectralField:
    """The steady shear mode cos(wavenumber * x1), for a wavenumber in the
    dealias band of the grid."""
    n = grid.n
    if not 1 <= wavenumber <= dealias_cutoff(n):
        raise ValueError(
            f"wavenumber={wavenumber} lies outside 1..{dealias_cutoff(n)}, "
            f"the dealias band of an n={n} grid"
        )
    coeffs = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    coeffs[wavenumber % n, 0] = 0.5
    coeffs[-wavenumber % n, 0] = 0.5
    return SpectralField(grid, coeffs)
