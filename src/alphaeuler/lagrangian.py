"""Lagrangian flow maps driven by sampled velocity trajectories.

Particles follow dx/dt = u(t, x) with the velocity interpolated bicubically
in space (Catmull-Rom kernel, periodic wrap) and linearly in time between
trajectory samples.  Backward integration is supported, so both the forward
flow map and the back-trajectory foot points used for vorticity transport
reconstruction come from the same integrator, and a `TrajectoryStream`
traces either way, one pushed sample at a time, keeping no history.

`bicubic_sample` reads the field from a halo-padded copy: (c, n+3, n+3)
planes that repeat the periodic field's last row and column before it and
its first two after it.  The 16 taps of a particle then sit at constant
offsets from one start index, so the stencil wraps one cell index per axis
(`& (n - 1)`: n is a power of two, as on every `Grid`) and each tap
gathers every component with one `take`.  The copy and the stencil,
weight, index and tap arrays live in a `BicubicWork`;
`advect_particles` builds one per call, blends the interval's two samples
straight into it, and keeps the RK4 stage positions in buffers of the
call too.  Made afresh on every evaluation, those 128-256 KB
temporaries cost about 1.15 M minor page faults inside `advect_particles`
on the `flows_dense` benchmark (16,384 particles at n = 128, 2,048
evaluations); reused, about 11 k.  Every result is bit for bit that of the
one-shot sampler: the same values, weights and products, summed in the
same order.

`advect_particles` advances across one sample interval, and
`TrajectoryStream.push` calls it once per interval with the interval's
two samples and returns the positions it reaches: a caller that wants a
whole trajectory collects the pushes itself.  A stage time that rounding
puts a hair outside the interval extrapolates within that pair.  The RK4
stage positions stay unwrapped, since the cell wrap covers them; positions
are wrapped into [0, 2*pi) only where a `ParticleSet` is made, once per
`advect_particles` call, by `spectral.wrap_periodic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import TWO_PI, Grid, PhysicalField, _is_power_of_two, wrap_periodic
from .vorticity import torus_distance


@dataclass
class ParticleSet:
    """Particle positions on the torus, tagged with the time they refer to:
    a C-ordered (count, 2) array in [0, 2*pi), from finite positions at a
    finite time."""

    positions: np.ndarray
    t_origin: float

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float, order="C")
        if x.ndim != 2 or x.shape[1] != 2:
            raise ValueError("positions must have shape (count, 2)")
        finite = np.isfinite(x)
        if not finite.all():
            raise ValueError(f"particle positions must be finite, got {x[~finite][0]}")
        if not math.isfinite(self.t_origin):
            raise ValueError(f"a particle set's t_origin must be finite, got {self.t_origin}")
        self.positions = wrap_periodic(x)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def seed_particles(grid: Grid, stride: int = 1, t: float = 0.0) -> ParticleSet:
    """One particle per grid cell (every stride-th point of the lattice)."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if grid.n % stride != 0:
        raise ValueError("stride must divide the grid size")
    x = grid.x[::stride]
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    return ParticleSet(np.column_stack([x1.ravel(), x2.ravel()]), t)


class BicubicWork:
    """The buffers of `bicubic_sample` for one field shape (..., n, n) and
    particle count.

    `field` is the interior of the halo-padded planes, filled by `load` or
    `blend`.  The buffers make an instance usable by one thread at a time.
    """

    def __init__(self, shape: tuple, count: int):
        self.shape = tuple(shape)
        self.count = count
        n = self.shape[-1]
        m = n + 3
        c = math.prod(self.shape[:-2])
        size = c * m * m
        # tap (a, b) of a particle is the plane element a*m + b past its
        # start index: one contiguous (c, m*m) view per tap, each reaching
        # at most 3*m + 3 past the planes
        flat = np.empty(size + 3 * m + 3)
        self._planes = flat[:size].reshape(c, m, m)
        self.field = self._planes[:, 1 : n + 1, 1 : n + 1].reshape(self.shape)
        offsets = [a * m + b for a in range(4) for b in range(4)]
        self.taps = [flat[o : o + size].reshape(c, m * m) for o in offsets]
        self.coords = np.empty((2, count))
        self.floors = np.empty((2, count))
        self.cubes = np.empty((2, count))
        self.weights = np.empty((4, 2, count))
        self.cells = np.empty((2, count), dtype=np.intp)
        self.start = np.empty(count, dtype=np.intp)
        self.pair = np.empty(count)
        self.gathered = np.empty((c, count))
        self._blend = None

    def load(self, values: np.ndarray) -> None:
        """Copy values into `field` and fill the halo around it."""
        n, p = self.shape[-1], self._planes
        self.field[...] = values
        p[:, 0, 1 : n + 1] = p[:, n, 1 : n + 1]
        p[:, n + 1 :, 1 : n + 1] = p[:, 1:3, 1 : n + 1]
        p[:, :, 0] = p[:, :, n]
        p[:, :, n + 1 :] = p[:, :, 1:3]

    def blend(self, a: np.ndarray, b: np.ndarray, theta: float) -> None:
        """Load (1 - theta) a + theta b, rounded as that expression is.  The
        arithmetic runs on contiguous buffers: a ufunc writing the strided
        `field` allocates iterator buffers."""
        if self._blend is None:
            self._blend = np.empty((2,) + self.shape)
        lo, hi = self._blend
        np.add(np.multiply(a, 1.0 - theta, out=lo), np.multiply(b, theta, out=hi), out=lo)
        self.load(lo)


def bicubic_sample(
    values: np.ndarray,
    positions: np.ndarray,
    dx: float,
    work: BicubicWork | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sample a gridded field at arbitrary points with periodic bicubic
    (Catmull-Rom) interpolation; exact at the grid nodes.

    values has shape (..., n, n) and positions (count, 2); the result has
    shape (..., count) and goes into `out` when given; n must be a power of
    two.  `work` passes in the BicubicWork of this shape and count so its
    buffers are reused; values is copied into it unless it is `work.field`
    itself, loaded already.
    """
    n = values.shape[-1]
    if not _is_power_of_two(n):
        raise ValueError(f"bicubic_sample needs a power-of-two grid size n, got n = {n}")
    count = positions.shape[0]
    if work is None:
        work = BicubicWork(values.shape, count)
    elif (work.shape, work.count) != (values.shape, count):
        raise ValueError("the sampling buffers were built for another field shape or particle count")
    if values is not work.field:
        work.load(values)
    if out is None:
        out = np.empty(values.shape[:-2] + (count,))

    # cells: floor(positions / dx) mod n (two's complement: -1 & (n - 1) is
    # n - 1); f: the offsets in them.  One axis at a time: a ufunc reading
    # (count, 2) positions into (2, count) rows allocates an iterator buffer
    f = work.coords
    for axis in range(2):
        np.divide(positions[:, axis], dx, out=f[axis])
    floors = np.floor(f, out=work.floors)
    np.subtract(f, floors, out=f)
    cells = work.cells
    np.copyto(cells, floors, casting="unsafe")
    np.bitwise_and(cells, n - 1, out=cells)
    start = np.multiply(cells[0], n + 3, out=work.start)
    start += cells[1]

    # Catmull-Rom weights of both axes, operation by operation as
    # 0.5 * (-f3 + 2 f2 - f), 0.5 * (3 f3 - 5 f2 + 2),
    # 0.5 * (-3 f3 + 4 f2 + f) and 0.5 * (f3 - f2)
    f2 = np.multiply(f, f, out=floors)
    f3 = np.multiply(f2, f, out=work.cubes)
    w0, w1, w2, w3 = work.weights
    np.negative(f3, out=w0)
    w0 += np.multiply(2.0, f2, out=w3)
    w0 -= f
    w0 *= 0.5
    np.multiply(3.0, f3, out=w1)
    w1 -= np.multiply(5.0, f2, out=w3)
    w1 += 2.0
    w1 *= 0.5
    np.multiply(-3.0, f3, out=w2)
    w2 += np.multiply(4.0, f2, out=w3)
    w2 += f
    w2 *= 0.5
    np.subtract(f3, f2, out=w3)
    w3 *= 0.5

    # summed from +0.0 in the one-shot order, so the signs of zeros match
    # too; the indices are in range, and mode="raise" would copy `out`.
    # The array method skips np.take's Python dispatch.  Each component
    # row takes the weight product on its own: broadcast over the
    # (c, count) gather, the product allocates an iterator buffer
    gathered = work.gathered
    term = gathered.reshape(out.shape)
    out[...] = 0.0
    taps = iter(work.taps)
    for wa in work.weights[:, 0]:
        for wb in work.weights[:, 1]:
            next(taps).take(start, axis=1, out=gathered, mode="clip")
            pair = np.multiply(wa, wb, out=work.pair)
            for row in gathered:
                row *= pair
            out += term
    return out


def advect_particles(
    p: ParticleSet,
    times: tuple,
    samples: tuple,
    s_target: float,
    substeps: int = 4,
) -> ParticleSet:
    """RK4 particle integration from p.t_origin to s_target (either
    direction), both inside the sample interval times = (ta, tb), ta < tb,
    of the (2, n, n) velocity samples = (ua, ub).

    The velocity blends (1 - theta) ua + theta ub with
    theta = (t - ta) / (tb - ta) into one BicubicWork at the start, at each
    substep's midpoint (k2 and k3) and at each substep's end (k4, and the
    next substep's k1).  The stage positions and slopes live in buffers of
    the call; the RK4 arithmetic keeps the operation order of
    x + h/6 (k1 + 2 k2 + 2 k3 + k4).
    """
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    (ta, tb), (ua, ub) = times, samples
    if not -math.inf < ta < tb < math.inf:  # NaN included
        raise ValueError(f"sample times must be finite and strictly increasing, got {ta} and {tb}")
    shape = np.shape(ua)
    if len(shape) != 3 or shape[0] != 2 or shape[1] != shape[2] or np.shape(ub) != shape:
        raise ValueError(f"velocity samples must both have shape (2, n, n), got {shape} and {np.shape(ub)}")
    t0, t1 = p.t_origin, s_target
    lo, hi = ta - 1e-10, tb + 1e-10
    if not (lo <= t0 <= hi and lo <= t1 <= hi):  # NaN included
        raise ValueError(f"advecting from {t0} to {t1} reaches outside the sample interval [{ta}, {tb}]")

    dx = TWO_PI / shape[-1]
    work = BicubicWork(shape, p.count)
    # (count, 2) views of (2, count) rows, the layout of the samples
    x, stage, acc, k = np.empty((4, 2, p.count)).transpose(0, 2, 1)
    np.copyto(x, p.positions)
    h = (t1 - t0) / substeps
    t = t0
    work.blend(ua, ub, (t - ta) / (tb - ta))
    for _ in range(substeps):
        # acc gathers k1 + 2 k2 + 2 k3 + k4
        bicubic_sample(work.field, x, dx, work, acc.T)
        np.add(x, np.multiply(acc, 0.5 * h, out=stage), out=stage)
        work.blend(ua, ub, (t + 0.5 * h - ta) / (tb - ta))
        bicubic_sample(work.field, stage, dx, work, k.T)
        np.add(x, np.multiply(k, 0.5 * h, out=stage), out=stage)
        acc += np.multiply(k, 2.0, out=k)
        bicubic_sample(work.field, stage, dx, work, k.T)
        np.add(x, np.multiply(k, h, out=stage), out=stage)
        acc += np.multiply(k, 2.0, out=k)
        work.blend(ua, ub, (t + h - ta) / (tb - ta))
        bicubic_sample(work.field, stage, dx, work, k.T)
        acc += k
        x += np.multiply(acc, h / 6.0, out=acc)
        t += h
    return ParticleSet(x, t1)


class TrajectoryStream:
    """Positions of a particle set at each sample time of a run, advanced
    as the velocity samples arrive and returned by `push`, so neither the
    run's velocities nor its positions are held whole.

    The first sample is at the particles' `t_origin`; the second sets the
    direction, forward or back, which every later one must keep.  Only the
    last sample and the last positions are kept.  Each later sample
    advances the particles across the interval between the two with
    `advect_particles`, which reads just those two samples.
    """

    def __init__(self, grid: Grid, particles: ParticleSet, substeps: int = 4):
        if substeps < 1:
            raise ValueError("substeps must be at least 1")
        self._grid = grid
        self._particles = particles
        self._substeps = substeps
        self._last = None
        self._sign = 0.0

    def push(self, t: float, snapshot: np.ndarray) -> np.ndarray:
        """Take the (2, n, n) velocity sample at time t and return the
        particles' positions at t, advanced from the last sample's (the
        particles' own at the first sample); a rejected sample leaves the
        stream as it was."""
        t = float(t)
        n = self._grid.n
        if np.shape(snapshot) != (2, n, n):
            raise ValueError(f"a velocity sample must have shape (2, {n}, {n}), got {np.shape(snapshot)}")
        if math.isinf(t):
            raise ValueError(f"a sample time must be finite, got {t}")
        if self._last is None:
            t_prev = self._particles.t_origin
            if not t == t_prev:  # NaN included
                raise ValueError(f"the first sample must be at the particles' time {t_prev}, got {t}")
        else:
            t_prev, u_prev = self._last
            sign = self._sign or math.copysign(1.0, t - t_prev)
            if not (t - t_prev) * sign > 0:  # NaN included
                way = {1.0: "increase", -1.0: "decrease", 0.0: "increase or decrease"}[self._sign]
                raise ValueError(f"sample times must {way}: {t} follows {t_prev}")
            self._sign = sign
            times, samples = ((t_prev, t), (u_prev, snapshot)) if sign > 0 else ((t, t_prev), (snapshot, u_prev))
            self._particles = advect_particles(self._particles, times, samples, t, substeps=self._substeps)
        self._last = (t, snapshot)
        return self._particles.positions


def measure_preservation_defect(advected: ParticleSet, test_function: PhysicalField) -> float:
    """|mean of f over the advected particles - grid mean of f|; vanishes
    for an exactly measure-preserving flow sampled on the lattice."""
    dx = test_function.grid.dx
    along_flow = bicubic_sample(test_function.values, advected.positions, dx)
    return float(abs(along_flow.mean() - test_function.values.mean()))


def lagrangian_vorticity(q0: PhysicalField, flow_back: ParticleSet) -> PhysicalField:
    """Transport reconstruction q(t, x) = q0(X_{t,0}(x)).

    flow_back holds the back-trajectory foot points of the full grid
    lattice in row-major order.
    """
    g = q0.grid
    if flow_back.count != g.n * g.n:
        raise ValueError("flow_back must hold one foot point per grid node")
    vals = bicubic_sample(q0.values, flow_back.positions, g.dx)
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


def flow_distance(xa: np.ndarray, xb: np.ndarray, delta: float, c_cal: float = 1.0) -> FlowComparison:
    """Mean/rms torus distance between matched (count, 2) particle
    positions, wrapped or not, the averaged log-distance functional at
    scale delta, and the calibrated bound c_cal / |log delta| (inapplicable
    when delta >= 1); delta must be positive and finite."""
    if np.shape(xa) != np.shape(xb):
        raise ValueError(f"particle positions must have matching shapes, got {np.shape(xa)} and {np.shape(xb)}")
    if not 0.0 < delta < math.inf:  # NaN included
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 < c_cal < math.inf:  # NaN included
        raise ValueError(f"c_cal must be positive and finite, got {c_cal}")
    d = torus_distance(xa, xb)
    mean_distance = float(d.mean())
    l2_distance = float(np.sqrt((d**2).mean()))
    g_delta = float(np.log(d / delta + 1.0).mean())
    applicable = delta < 1.0
    log_bound = c_cal / abs(np.log(delta)) if applicable else float("nan")
    return FlowComparison(mean_distance, l2_distance, delta, g_delta, log_bound, applicable)


def cumulative_trapezoid(times, values) -> np.ndarray:
    """Trapezoid-rule integrals of the sampled values from times[0] to each
    sample time."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * np.diff(times) * (values[1:] + values[:-1]))
    return out
