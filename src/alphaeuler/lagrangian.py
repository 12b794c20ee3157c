"""Lagrangian flow maps driven by sampled velocity trajectories.

Particles follow dx/dt = u(t, x) with the velocity interpolated bicubically
in space (Catmull-Rom kernel, periodic wrap) and linearly in time between
trajectory samples.  Backward integration is supported, so both the forward
flow map and the back-trajectory foot points used for vorticity transport
reconstruction come from the same integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import TWO_PI, Grid, PhysicalField
from .vorticity import torus_distance


@dataclass
class ParticleSet:
    """Particle positions on the torus, tagged with the time they refer to."""

    positions: np.ndarray
    t_origin: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must have shape (count, 2)")
        self.positions = np.mod(self.positions, TWO_PI)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def seed_particles(grid: Grid, stride: int = 1, t: float = 0.0) -> ParticleSet:
    """One particle per grid cell (every stride-th point of the lattice)."""
    if grid.n % stride != 0:
        raise ValueError("stride must divide the grid size")
    x = grid.x[::stride]
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    return ParticleSet(np.column_stack([x1.ravel(), x2.ravel()]), t)


def _catmull_rom_weights(f: np.ndarray) -> tuple[np.ndarray, ...]:
    f2 = f * f
    f3 = f2 * f
    w0 = 0.5 * (-f3 + 2.0 * f2 - f)
    w1 = 0.5 * (3.0 * f3 - 5.0 * f2 + 2.0)
    w2 = 0.5 * (-3.0 * f3 + 4.0 * f2 + f)
    w3 = 0.5 * (f3 - f2)
    return w0, w1, w2, w3


def _bicubic_stencil(positions: np.ndarray, n: int, dx: float):
    g = positions / dx
    base = np.floor(g).astype(int)
    frac = g - base
    w1 = _catmull_rom_weights(frac[:, 0])
    w2 = _catmull_rom_weights(frac[:, 1])
    idx1 = [(base[:, 0] + o) % n for o in (-1, 0, 1, 2)]
    idx2 = [(base[:, 1] + o) % n for o in (-1, 0, 1, 2)]
    return w1, w2, idx1, idx2


def bicubic_sample(values: np.ndarray, positions: np.ndarray, dx: float) -> np.ndarray:
    """Sample a gridded field at arbitrary points with periodic bicubic
    (Catmull-Rom) interpolation; exact at the grid nodes."""
    n = values.shape[-1]
    w1, w2, idx1, idx2 = _bicubic_stencil(positions, n, dx)
    flat = values.reshape(values.shape[:-2] + (n * n,))
    out = np.zeros(values.shape[:-2] + (positions.shape[0],))
    for a in range(4):
        row = idx1[a] * n
        for b in range(4):
            out += (w1[a] * w2[b]) * np.take(flat, row + idx2[b], axis=-1)
    return out


def nearest_sample(values: np.ndarray, positions: np.ndarray, dx: float) -> np.ndarray:
    n = values.shape[0]
    idx = np.rint(positions / dx).astype(int) % n
    return values[idx[:, 0], idx[:, 1]]


class VelocityHistory:
    """Velocity snapshots (2, n, n) at increasing times, blended linearly."""

    def __init__(self, times, snapshots, grid: Grid):
        self.times = np.asarray(times, dtype=float)
        self.snapshots = np.asarray(snapshots, dtype=float)
        self.grid = grid
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("history times must be strictly increasing")
        if self.snapshots.shape != (self.times.size, 2, grid.n, grid.n):
            raise ValueError("snapshot array shape does not match times/grid")

    @classmethod
    def from_states(cls, states) -> "VelocityHistory":
        """Build a history from solver samples."""
        from .solver import velocity as solver_velocity

        grid = states[0].grid
        snaps = np.empty((len(states), 2, grid.n, grid.n))
        for snap, s in zip(snaps, states):
            snap[:] = solver_velocity(s.q, s.a).physical()
        return cls(np.asarray([s.t for s in states]), snaps, grid)

    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def grids_at(self, t: float) -> np.ndarray:
        lo, hi = self.span()
        if t < lo - 1e-10 or t > hi + 1e-10:
            raise ValueError(f"time {t} outside the sampled history [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        j = min(max(j, 0), self.times.size - 2) if self.times.size > 1 else 0
        if self.times.size == 1:
            return self.snapshots[0]
        t0, t1 = self.times[j], self.times[j + 1]
        theta = (t - t0) / (t1 - t0)
        return (1.0 - theta) * self.snapshots[j] + theta * self.snapshots[j + 1]

    def velocity_at(self, t: float, positions: np.ndarray) -> np.ndarray:
        grids = self.grids_at(t)
        return bicubic_sample(grids, positions, self.grid.dx).T


def advect_particles(
    p: ParticleSet,
    history: VelocityHistory,
    s_target: float,
    substeps: int = 4,
) -> ParticleSet:
    """RK4 particle integration from p.t_origin to s_target (either
    direction); steps are aligned with the history sample times so the
    in-step velocity is smooth in time."""
    lo, hi = history.span()
    t0, t1 = p.t_origin, s_target
    if min(t0, t1) < lo - 1e-10 or max(t0, t1) > hi + 1e-10:
        raise ValueError("requested interval is outside the sampled history")
    if t1 == t0:
        return ParticleSet(p.positions.copy(), t1)

    knots = history.times
    interior = knots[(knots > min(t0, t1) + 1e-13) & (knots < max(t0, t1) - 1e-13)]
    times = np.concatenate([[min(t0, t1)], interior, [max(t0, t1)]])
    if t1 < t0:
        times = times[::-1]

    x = p.positions.copy()
    for seg0, seg1 in zip(times[:-1], times[1:]):
        h = (seg1 - seg0) / substeps
        t = seg0
        for _ in range(substeps):
            k1 = history.velocity_at(t, x)
            k2 = history.velocity_at(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = history.velocity_at(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = history.velocity_at(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
    return ParticleSet(np.mod(x, TWO_PI), t1)


class TrajectoryStream:
    """Positions of a particle set at each sample time of a run, advanced
    as the velocity samples arrive (`push`), so no full VelocityHistory is
    held: the result is bit for bit that of `advect_particles` through the
    whole history, sample interval by sample interval.

    Each interval is advanced once the sample after it has arrived, through
    a window of those three samples: the last RK4 substep can land a
    rounding error past the interval's end, where the whole history already
    blends towards the next sample.  `finish` advances the last interval.
    """

    def __init__(self, grid: Grid, particles: ParticleSet, substeps: int = 4):
        self._grid = grid
        self._particles = particles
        self._substeps = substeps
        self._times = []
        self._snapshots = []
        self.positions = [particles.positions]

    def push(self, t: float, snapshot: np.ndarray) -> None:
        """Take the (2, n, n) velocity sample at time t."""
        self._times.append(float(t))
        self._snapshots.append(snapshot)
        if len(self._times) == 3:
            self._advance()
            del self._times[0], self._snapshots[0]

    def finish(self) -> tuple:
        """The positions at every sample time pushed, the first included."""
        if len(self._times) == 2:
            self._advance()
        return tuple(self.positions)

    def _advance(self) -> None:
        window = VelocityHistory(self._times, self._snapshots, self._grid)
        self._particles = advect_particles(
            self._particles, window, self._times[1], substeps=self._substeps
        )
        self.positions.append(self._particles.positions)


def measure_preservation_defect(
    p0: ParticleSet, advected: ParticleSet, test_function: PhysicalField
) -> float:
    """|mean of f over the advected particles - grid mean of f|; vanishes
    for an exactly measure-preserving flow sampled on the lattice."""
    if p0.count != advected.count:
        raise ValueError("particle sets must have matching counts")
    dx = test_function.grid.dx
    along_flow = bicubic_sample(test_function.values, advected.positions, dx)
    return float(abs(along_flow.mean() - test_function.values.mean()))


def lagrangian_vorticity(
    q0: PhysicalField, flow_back: ParticleSet, method: str = "bicubic"
) -> PhysicalField:
    """Transport reconstruction q(t, x) = q0(X_{t,0}(x)).

    flow_back holds the back-trajectory foot points of the full grid
    lattice in row-major order; `nearest` sampling is available for patch
    data where interpolation would smear the jump.
    """
    g = q0.grid
    if flow_back.count != g.n * g.n:
        raise ValueError("flow_back must hold one foot point per grid node")
    if method == "bicubic":
        vals = bicubic_sample(q0.values, flow_back.positions, g.dx)
    elif method == "nearest":
        vals = nearest_sample(q0.values, flow_back.positions, g.dx)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    return PhysicalField(g, vals.reshape(g.n, g.n))


@dataclass(frozen=True)
class FlowComparison:
    """Distance statistics between two flow maps plus the logarithmic
    bound they are tested against."""

    mean_distance: float
    l2_distance: float
    delta: float
    g_delta: float
    log_bound: float
    applicable: bool


def flow_distance(
    pa: ParticleSet, pb: ParticleSet, delta: float, c_cal: float = 1.0
) -> FlowComparison:
    """Mean/rms torus distance between matched particle sets, the averaged
    log-distance functional at scale delta, and the calibrated bound
    c_cal / |log delta| (inapplicable when delta >= 1)."""
    if pa.count != pb.count:
        raise ValueError("particle sets must have matching counts")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    d = torus_distance(pa.positions, pb.positions)
    mean_distance = float(d.mean())
    l2_distance = float(np.sqrt((d**2).mean()))
    g_delta = float(np.log(d / delta + 1.0).mean())
    applicable = delta < 1.0
    log_bound = c_cal / abs(np.log(delta)) if applicable else float("nan")
    return FlowComparison(mean_distance, l2_distance, delta, g_delta, log_bound, applicable)


def velocity_l1_gap(hist_a: VelocityHistory, hist_b: VelocityHistory) -> np.ndarray:
    """Cumulative L^1-in-time, L^1-in-space gap between two histories at
    the shared sample times (trapezoid rule in time)."""
    if hist_a.times.shape != hist_b.times.shape or np.any(hist_a.times != hist_b.times):
        raise ValueError("histories must share sample times")
    spatial = [
        velocity_l1_distance(a, b, hist_a.grid)
        for a, b in zip(hist_a.snapshots, hist_b.snapshots)
    ]
    return cumulative_trapezoid(hist_a.times, spatial)


def velocity_l1_distance(snap_a: np.ndarray, snap_b: np.ndarray, grid: Grid) -> float:
    """||u_a - u_b||_{L1} over the torus of two (2, n, n) velocity samples."""
    diff = snap_a - snap_b
    return np.sqrt(diff[0] ** 2 + diff[1] ** 2).sum() * grid.cell_area


def cumulative_trapezoid(times, values) -> np.ndarray:
    """Trapezoid-rule integrals of the sampled values from times[0] to each
    sample time."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * np.diff(times) * (values[1:] + values[:-1]))
    return out
