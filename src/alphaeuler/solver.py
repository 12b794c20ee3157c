"""Time integration of the filtered vorticity transport equation.

The advected vorticity q obeys dq/dt = -u . grad q with u the Helmholtz
filtered Biot-Savart velocity of q (alpha = 0 recovers the plain Euler
solver: the filter is then an exact identity).  The nonlinear term is
formed pseudo-spectrally and dealiased; time stepping is classical
four-stage Runge-Kutta with a CFL-limited step (``SolverConfig``), clipped
to land on each of the sample times that are a run's one clock.

States hold q as a ``SpectralField``, the ``rfft2`` half spectrum of shape
(n, n//2 + 1).  An ``AdvectionStage`` holds the operator tables of one
(grid, alpha) pair as a (4, n, n//2 + 1) stack: the velocity table of
``vorticity.velocity`` (u1, u2) and the derivatives d1, d2, each odd in
some k_j and zeroed on the k_j = n/2 Nyquist line, plus the negated
dealias mask with the mean mode zeroed.
One stage multiplies the stack by q, transforms it back to (u1, u2, d1 q,
d2 q), forms u . grad q and transforms that forward.  Each 2-D real
transform runs as its two per-axis passes, in the order and scaling of
``irfft2``/``rfft2`` (so the results are bitwise theirs), each pass into a
buffer the stage owns, the complex pass over k1 in place: ``irfft2`` would
allocate and page in a fresh (4, n, n//2 + 1) temporary on every stage.
The complex passes cover the dealias band's columns k2 <= kmax only where
the others are empty or unread: the inverse one when its input is
band-limited, as the states ``run`` keeps are (``spectral.irfft2_passes``
decides from the input), the forward one always, since the stage's output
mask zeroes every column past the band.

``run`` builds one stage per run and hands it to every ``step``.  At
alpha = 0 that is the private ``_EulerStage``, which forms the term in
Basdevant's form (Basdevant 1983, J. Comput. Phys. 50),

    -u . grad q = (d2^2 - d1^2)(u1 u2) + d1 d2 (u1^2 - u2^2),

dealiased and mean-free: u1 and u2 go back and two products come forward,
4 real transforms where ``AdvectionStage`` makes 5.  The identity holds
for the exact dealiased products, so on the dealiased states ``run``
keeps (it dealiases the initial state, and every stage output is masked)
the two stages agree to roundoff, which the k^2 weights scale by about
|k|.  ``AdvectionStage`` takes any input, where the two forms differ by
the aliased products, so it keeps the advective form; at alpha > 0 q is
not the curl of u, and the identity does not apply.

Each stage also owns the two work arrays of ``step``: the slope sum, and
the stage input, which the stage's slope overwrites (``out`` may be the
input ``q``: a stage reads it whole before it writes ``out``).  So a step
allocates only the new state.  ``slope`` makes the coefficients and
``speed`` the largest |u| from the buffers the last ``slope`` left;
``step`` reads the speed of its first stage only, the one the CFL time
step needs.  ``run`` keeps its dealiased initial copy in the first state
only, so it is freed with that state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField, dealias, irfft2_passes, to_physical
from .vorticity import (
    AlphaParam,
    VelocityField,
    _require_mean_zero,
    _velocity_multipliers,
    alpha_norm,
    lp_norm,
    velocity,
    velocity_l2,
)

CFL_SPEED_FLOOR = 1e-12


class SolverError(RuntimeError):
    """Simulation aborted; the message carries the diagnostic."""


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.5
    fixed_dt: float | None = None  # bypass the CFL choice (convergence studies)

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.fixed_dt is not None and not self.fixed_dt > 0.0:  # inf stays: max_dt caps it
            raise ValueError(f"fixed_dt must be positive, got {self.fixed_dt}")


@dataclass
class SimState:
    """Solver state: time, vorticity, filter scale and steps taken."""

    t: float
    q: SpectralField
    a: AlphaParam
    step_count: int = 0


def _rk4_buffers(grid: Grid) -> np.ndarray:
    """The work of one `step`: the slope sum, and the stage input that its
    slope overwrites."""
    return np.empty((2, grid.n, grid.n // 2 + 1), dtype=np.complex128)


class AdvectionStage:
    """-u . grad q for one (grid, alpha).

    `slope` maps the coefficients of q to those of -u . grad q (dealiased,
    mean exactly zero), into `out` when given, else into the one array a
    call allocates; `out` may be `q`, which is read whole before `out` is
    written.  `speed` then reads the largest collocation speed |u| of that
    input.  The work buffers make an instance usable by one thread
    at a time: build one per run.  The inverse column pass covers the band
    columns only when q is dealiased; any q is transformed exactly.
    """

    def __init__(self, grid: Grid, a: AlphaParam):
        n = grid.n
        nh = n // 2
        self.grid = grid
        self.alpha = a.alpha
        mult = np.empty((4, n, nh + 1), dtype=np.complex128)
        mult[:2] = _velocity_multipliers(grid, a)
        mult[2] = 1j * grid.k1
        mult[3] = 1j * grid.k2
        mult[2, nh, :] = 0.0  # d1: odd in k1
        mult[3, :, nh] = 0.0  # d2: odd in k2
        self.mult = mult
        post = np.full((n, nh + 1), -1.0)
        post[~grid.keep_mask] = 0.0
        post[0, 0] = 0.0
        self.post = post
        self._spec = np.empty_like(mult)
        self._phys = np.empty((4, n, n))
        self.rk4 = _rk4_buffers(grid)

    def slope(self, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The coefficients of -u . grad q."""
        spec = np.multiply(self.mult, q, out=self._spec)
        u1, u2, dq1, dq2 = irfft2_passes(spec, out=self._phys)
        product = np.multiply(u1, dq1, out=dq1)
        product += np.multiply(u2, dq2, out=dq2)
        # the spectrum buffer is free again once transformed
        half = np.fft.rfft(product, axis=-1, norm="forward", out=spec[0])
        band = half[:, : self.grid.kmax_dealias + 1]
        np.fft.fft(band, axis=0, norm="forward", out=band)
        return np.multiply(half, self.post, out=out)

    def speed(self) -> float:
        """The largest collocation speed |u| of the last `slope`'s input."""
        u1, u2, sq1, sq2 = self._phys
        speed_sq = np.multiply(u1, u1, out=sq1)
        speed_sq += np.multiply(u2, u2, out=sq2)
        return float(np.sqrt(speed_sq.max()))


class _EulerStage:
    """-u . grad q at alpha = 0 for dealiased q, in Basdevant's form.

    Equal to ``AdvectionStage(grid, AlphaParam(0.0))`` up to roundoff on
    dealiased input, and its speed is that stage's bit for bit: u1 and u2
    come from the same tables and the same transform passes.  `out` may
    be `q`, as in `AdvectionStage.slope`.  The work buffers make an
    instance usable by one thread at a time.
    """

    def __init__(self, grid: Grid):
        n = grid.n
        keep = grid.keep_mask
        self.grid = grid
        self.alpha = 0.0
        self.mult = _velocity_multipliers(grid, AlphaParam(0.0))
        # (k1^2 - k2^2) for F(u1 u2), -k1 k2 for F(u1^2 - u2^2); both vanish
        # at k = 0, so the mean stays exactly zero
        self.weights = np.stack([(grid.k1**2 - grid.k2**2) * keep, -grid.k1 * grid.k2 * keep])
        self._spec = np.empty_like(self.mult)
        self._phys = np.empty((2, n, n))
        self._prod = np.empty((n, n))
        self.rk4 = _rk4_buffers(grid)

    def slope(self, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The coefficients of -u . grad q, for dealiased q."""
        spec = np.multiply(self.mult, q, out=self._spec)
        u1, u2 = irfft2_passes(spec, out=self._phys)
        # one product plane: u1 u2 goes forward before it takes u1^2 - u2^2
        prod = np.multiply(u1, u2, out=self._prod)
        np.fft.rfft(prod, axis=-1, norm="forward", out=spec[0])
        sq1 = np.multiply(u1, u1, out=u1)
        sq2 = np.multiply(u2, u2, out=u2)
        np.fft.rfft(np.subtract(sq1, sq2, out=prod), axis=-1, norm="forward", out=spec[1])
        band = spec[..., : self.grid.kmax_dealias + 1]
        np.fft.fft(band, axis=-2, norm="forward", out=band)
        coeffs = np.multiply(spec[0], self.weights[0], out=out)
        coeffs += np.multiply(spec[1], self.weights[1], out=spec[1])
        return coeffs

    def speed(self) -> float:
        """The largest collocation speed |u| of the last `slope`'s input,
        from the squares it left in place of u1 and u2."""
        sq1, sq2 = self._phys
        return float(np.sqrt(np.add(sq1, sq2, out=self._prod).max()))


def step(
    state: SimState,
    cfg: SolverConfig,
    stage: AdvectionStage | _EulerStage,
    max_dt: float | None = None,
) -> SimState:
    """One RK4 step with `stage`, the stage its run built for the state's
    grid and alpha (a ValueError names any other); dt is CFL-limited,
    cfl dx / max(|u|, CFL_SPEED_FLOOR) unless `cfg.fixed_dt` sets it, and
    optionally capped by max_dt.

    The arithmetic keeps the operation order of
    q0 + (dt/6) (k1 + 2 k2 + 2 k3 + k4), with q0 + (dt/2) k1 etc. as the
    stage inputs; the new state is the one array a step allocates.  Two
    work arrays serve: `acc` gathers the sum, and `k` holds each stage
    input, which its slope overwrites.  The third and fourth inputs come
    from the doubled slope already in `k`, as q0 + (dt/4) (2 k2) and
    q0 + (dt/2) (2 k3): scaling by a power of two is exact, so each
    product rounds the same exact value as (dt/2) k2 and dt k3, bit for bit.

    Only the first stage makes its speed, the one dt needs; a non-finite
    speed raises `SolverError` with t and the step count.  Stages 2-4 make
    their slopes only: a non-finite velocity there makes the new vorticity
    non-finite, which raises the same way in the same step.  A finite
    velocity whose square overflows can leave the slope finite; the next
    step's first stage then reads an infinite speed and raises.
    """
    a = state.a
    g = state.q.grid
    if (stage.grid, stage.alpha) != (g, a.alpha):
        raise ValueError("the advection stage was built for another grid or alpha")
    _require_mean_zero(state.q, "vorticity passed to the RK4 step")
    q0 = state.q.coeffs
    # acc gathers k1 + 2 k2 + 2 k3 + k4
    acc, k = stage.rk4

    stage.slope(q0, out=acc)
    speed = stage.speed()
    if not np.isfinite(speed):
        raise SolverError(
            f"velocity is not finite at t={state.t}, step {state.step_count}; "
            "simulation aborted"
        )
    dt = cfg.fixed_dt if cfg.fixed_dt is not None else cfg.cfl * g.dx / max(speed, CFL_SPEED_FLOOR)
    if max_dt is not None:
        dt = min(dt, max_dt)
    if dt <= 0.0:
        raise SolverError(f"nonpositive time step dt={dt} at t={state.t}")

    np.add(q0, np.multiply(acc, 0.5 * dt, out=k), out=k)
    stage.slope(k, out=k)
    acc += np.multiply(k, 2.0, out=k)
    np.add(q0, np.multiply(k, 0.25 * dt, out=k), out=k)
    stage.slope(k, out=k)
    acc += np.multiply(k, 2.0, out=k)
    np.add(q0, np.multiply(k, 0.5 * dt, out=k), out=k)
    stage.slope(k, out=k)
    acc += k
    q_new = np.add(q0, np.multiply(acc, dt / 6.0, out=acc))
    if not np.isfinite(q_new).all():
        raise SolverError(
            f"non-finite vorticity after the RK4 step at t={state.t}, "
            f"step {state.step_count}"
        )
    return SimState(state.t + dt, SpectralField(g, q_new), a, state.step_count + 1)


@dataclass
class MonitorLog:
    """Conserved-quantity records sampled along a run."""

    times: np.ndarray
    energy: np.ndarray
    alpha_norm: np.ndarray
    q_l1: np.ndarray
    q_l2: np.ndarray
    q_l4: np.ndarray
    q_linf: np.ndarray

    def alpha_norm_drift(self) -> np.ndarray:
        return _relative_drift(self.alpha_norm)

    def q_l2_drift(self) -> np.ndarray:
        return _relative_drift(self.q_l2)


def _relative_drift(series: np.ndarray) -> np.ndarray:
    ref = series[0]
    gap = np.abs(series - ref)
    return gap / ref if ref > 0.0 else gap


def _monitor_row(state: SimState, u: VelocityField):
    qp = to_physical(state.q)
    return (
        state.t,
        velocity_l2(u),
        alpha_norm(u, state.a),
        lp_norm(qp, 1),
        lp_norm(qp, 2),
        lp_norm(qp, 4),
        lp_norm(qp, np.inf),
    )


def run(
    q0: SpectralField,
    a: AlphaParam,
    cfg: SolverConfig,
    sample_times,
    on_sample=None,
    monitor: bool = True,
) -> MonitorLog | None:
    """Integrate from t = 0 onto each of `sample_times`, the run's clock:
    non-empty, starting at exactly 0, finite and strictly increasing, or a
    ValueError names the fault.  The last step before each time is clipped
    to land on it.  `on_sample(state)` is invoked at every sample, the last
    included.  `run` returns the `MonitorLog` of the samples, each row from
    the state's filtered velocity made with the stage's table, or None with
    monitor=False, which skips the rows without changing the states.  The
    initial vorticity is dealiased.  `run` builds one stage and hands it to
    every `step`: the `_EulerStage`, which needs dealiased input, at
    alpha = 0, else an `AdvectionStage`.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"sample_times must be a non-empty list of times, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError("sample_times must be finite")
    if times[0] != 0.0:
        raise ValueError(f"sample_times must start at 0, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample_times must increase strictly")
    _require_mean_zero(q0, "initial vorticity")
    stage = _EulerStage(q0.grid) if a.alpha == 0.0 else AdvectionStage(q0.grid, a)
    # the first state holds the run's only dealiased copy of q0, dropped
    # with that state after the first step
    state = SimState(0.0, dealias(q0), a)
    state.q.coeffs[0, 0] = 0.0
    rows = []

    def take_sample(s: SimState):
        if monitor:
            rows.append(_monitor_row(s, velocity(s.q, a, table=stage.mult[:2])))
        if on_sample is not None:
            on_sample(s)

    take_sample(state)
    for target in times[1:]:
        while state.t < target - 1e-13:
            state = step(state, cfg, stage, max_dt=target - state.t)
        state = SimState(target, state.q, a, state.step_count)
        take_sample(state)

    return MonitorLog(*(np.asarray(c, dtype=float) for c in zip(*rows))) if monitor else None

