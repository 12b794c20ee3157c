"""Time integration of the filtered vorticity transport equation.

The advected vorticity q obeys dq/dt = -u . grad q with u the Helmholtz
filtered Biot-Savart velocity of q (alpha = 0 recovers the plain Euler
solver: the filter is then an exact identity).  The nonlinear term is
formed pseudo-spectrally and dealiased; time stepping is classical
four-stage Runge-Kutta with a CFL-limited step.

Stepping works on the ``rfft2`` half spectrum (``HalfSpectrum``, shape
(n, n//2 + 1)).  An ``AdvectionStage`` holds the operator tables of one
(grid, alpha, dealias) choice as a (4, n, n//2 + 1) stack: the filtered
Biot-Savart multipliers of u1 and u2 and the derivatives d1, d2, each odd
in some k_j and zeroed on the k_j = n/2 Nyquist line, plus the negated
dealias mask with the mean mode zeroed.  One stage multiplies the stack by q, does one batched inverse
real FFT to get (u1, u2, d1 q, d2 q), forms u . grad q and does one forward
real FFT.  Transforms use ``norm="forward"``, which is the package's
coefficient convention exactly because the power-of-two scaling is exact.

``run`` builds one stage per run, converts the initial state to the half
layout once and rebuilds the full layout (``SpectralField``) only at sample
times: the states it returns and hands to ``on_sample`` are full-spectrum,
as are checkpoints.  ``step`` and ``rhs`` accept full-spectrum input too
and convert on the way in and out.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    HalfSpectrum,
    SpectralField,
    dealias,
    full_spectrum,
    half_spectrum,
    to_physical,
)
from .vorticity import (
    AlphaParam,
    VelocityField,
    _require_mean_zero,
    alpha_norm,
    biot_savart,
    helmholtz_filter,
    lp_norm,
    velocity_l2,
)

CFL_SPEED_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"AEUL"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIdd")


class SolverError(RuntimeError):
    """Simulation aborted; the message carries the diagnostic."""


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.5
    dealias: bool = True
    monitor_every: int = 1
    sample_times: np.ndarray | None = None
    fixed_dt: float | None = None  # bypass the CFL choice (convergence studies)

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be a positive integer")
        if self.fixed_dt is not None and self.fixed_dt <= 0.0:
            raise ValueError("fixed_dt must be positive")


@dataclass
class SimState:
    """Solver state.  q is a SpectralField everywhere outside the solver;
    inside `run` it is the HalfSpectrum that `step` advances."""

    t: float
    q: SpectralField | HalfSpectrum
    a: AlphaParam
    step_count: int = 0

    @property
    def grid(self) -> Grid:
        return self.q.grid


def velocity(q: SpectralField, a: AlphaParam) -> VelocityField:
    """Advecting velocity: Helmholtz-filtered Biot-Savart field of q."""
    return helmholtz_filter(biot_savart(q), a)


class AdvectionStage:
    """-u . grad q on the half spectrum, for one (grid, alpha, dealias).

    Calling the stage with half-spectrum coefficients returns the
    half-spectrum coefficients of -u . grad q (dealiased if requested,
    mean exactly zero) and the largest collocation speed |u|.  The work
    buffers make an instance usable by one thread at a time: build one per
    run.
    """

    def __init__(self, grid: Grid, a: AlphaParam, use_dealias: bool = True):
        n = grid.n
        nh = n // 2
        self.grid = grid
        self.alpha = a.alpha
        self.use_dealias = use_dealias
        k1 = grid.k1
        k2 = grid.k2[:, : nh + 1]
        bs = grid.inv_ksq[:, : nh + 1] / (1.0 + a.alpha * grid.ksq[:, : nh + 1])
        # Multipliers odd in k_j lose their k_j = n/2 line: that sine mode
        # vanishes at the collocation points.
        mult = np.empty((4, n, nh + 1), dtype=np.complex128)
        mult[0] = 1j * k2 * bs
        mult[1] = -1j * k1 * bs
        mult[2] = 1j * k1
        mult[3] = 1j * k2
        mult[[1, 2], nh, :] = 0.0  # u2, d1: odd in k1
        mult[[0, 3], :, nh] = 0.0  # u1, d2: odd in k2
        self.mult = mult
        post = np.full((n, nh + 1), -1.0)
        if use_dealias:
            post[~grid.keep_mask[:, : nh + 1]] = 0.0
        post[0, 0] = 0.0
        self.post = post
        self._spec = np.empty_like(mult)
        self._phys = np.empty((4, n, n))
        self._prod = np.empty((n, n))

    def __call__(self, qh: np.ndarray) -> tuple[np.ndarray, float]:
        n = self.grid.n
        np.multiply(self.mult, qh, out=self._spec)
        u1, u2, dq1, dq2 = np.fft.irfft2(
            self._spec, s=(n, n), norm="forward", out=self._phys
        )
        product = np.multiply(u1, dq1, out=self._prod)
        product += np.multiply(u2, dq2, out=dq2)
        coeffs = np.fft.rfft2(product, norm="forward")
        coeffs *= self.post
        speed_sq = np.multiply(u1, u1, out=dq1)
        speed_sq += np.multiply(u2, u2, out=dq2)
        return coeffs, float(np.sqrt(speed_sq.max()))


def rhs(q: SpectralField, a: AlphaParam, use_dealias: bool = True) -> SpectralField:
    """-u^alpha . grad q, dealiased and exactly mean-free."""
    _require_mean_zero(q, "vorticity passed to the right-hand side")
    coeffs, _ = AdvectionStage(q.grid, a, use_dealias)(half_spectrum(q).coeffs)
    return full_spectrum(HalfSpectrum(q.grid, coeffs))


def cfl_timestep(speed: float, grid: Grid, cfl: float) -> float:
    if not np.isfinite(speed):
        raise SolverError("velocity is not finite; simulation aborted")
    return cfl * grid.dx / max(speed, CFL_SPEED_FLOOR)


def step(
    state: SimState,
    cfg: SolverConfig,
    max_dt: float | None = None,
    stage: AdvectionStage | None = None,
) -> SimState:
    """One RK4 step; dt is CFL-limited and optionally capped by max_dt.

    The new state has the layout of the given one: full spectrum for a
    SpectralField q, half spectrum for a HalfSpectrum q (as inside `run`).
    `stage` passes in the AdvectionStage of the state's grid and alpha so
    its tables are reused; by default one is built for this step.
    """
    a = state.a
    g = state.grid
    if stage is None:
        stage = AdvectionStage(g, a, cfg.dealias)
    elif (stage.grid, stage.alpha, stage.use_dealias) != (g, a.alpha, cfg.dealias):
        raise ValueError(
            "the advection stage was built for another grid, alpha or dealias"
        )
    half = isinstance(state.q, HalfSpectrum)
    if not half:
        _require_mean_zero(state.q, "vorticity passed to the RK4 step")
    q0 = state.q.coeffs if half else half_spectrum(state.q).coeffs

    k1, speed = stage(q0)
    if not np.isfinite(speed):
        raise SolverError(
            f"velocity is not finite at t={state.t}, step {state.step_count}; "
            "simulation aborted"
        )
    dt = cfg.fixed_dt if cfg.fixed_dt is not None else cfl_timestep(speed, g, cfg.cfl)
    if max_dt is not None:
        dt = min(dt, max_dt)
    if dt <= 0.0:
        raise SolverError(f"nonpositive time step dt={dt} at t={state.t}")

    k2, s2 = stage(q0 + 0.5 * dt * k1)
    k3, s3 = stage(q0 + 0.5 * dt * k2)
    k4, s4 = stage(q0 + dt * k3)
    if not (np.isfinite(s2) and np.isfinite(s3) and np.isfinite(s4)):
        raise SolverError(
            f"velocity overflow in RK4 stage at t={state.t}, step {state.step_count}"
        )
    q_new = q0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(q_new).all():
        raise SolverError(
            f"non-finite vorticity after the RK4 step at t={state.t}, "
            f"step {state.step_count}"
        )
    q_out = HalfSpectrum(g, q_new)
    return SimState(
        state.t + dt, q_out if half else full_spectrum(q_out), a, state.step_count + 1
    )


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


@dataclass
class SimRun:
    states: list
    monitor: MonitorLog

    @property
    def final(self) -> SimState:
        return self.states[-1]


def _monitor_row(state: SimState):
    u = velocity(state.q, state.a)
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
    on_sample=None,
    keep_states: bool = True,
) -> SimRun:
    """Integrate from t = 0 to cfg.t_end, sampling monitors along the way.

    If cfg.sample_times is set, steps are clipped so the trajectory lands
    exactly on those times (which must start at 0 and end at t_end);
    otherwise monitors fire every cfg.monitor_every steps.  `on_sample` is
    invoked with the state at every sample.  Setting keep_states=False
    keeps only the final state, to save memory.  Steps run on the half
    spectrum; sampled states are rebuilt in the full layout.
    """
    scale = max(1.0, float(np.max(np.abs(q0.coeffs))))
    if abs(q0.coeffs[0, 0]) > 1e-12 * scale:
        raise ValueError("initial vorticity must have zero mean")
    q_start = dealias(q0).coeffs if cfg.dealias else q0.coeffs.copy()
    q_start[0, 0] = 0.0
    stage = AdvectionStage(q0.grid, a, cfg.dealias)
    state = SimState(0.0, half_spectrum(SpectralField(q0.grid, q_start)), a)

    if cfg.sample_times is not None:
        targets = np.asarray(cfg.sample_times, dtype=float)
        if targets[0] != 0.0 or abs(targets[-1] - cfg.t_end) > 1e-12:
            raise ValueError("sample_times must span [0, t_end]")
        if np.any(np.diff(targets) <= 0):
            raise ValueError("sample_times must be strictly increasing")
    else:
        targets = None

    states: list[SimState] = []
    rows = []

    def take_sample(s: SimState):
        sampled = SimState(s.t, full_spectrum(s.q), s.a, s.step_count)
        if keep_states:
            states.append(sampled)
        rows.append(_monitor_row(sampled))
        if on_sample is not None:
            on_sample(sampled)

    take_sample(state)
    if targets is not None:
        for target in targets[1:]:
            while state.t < target - 1e-13:
                state = step(state, cfg, max_dt=target - state.t, stage=stage)
            state.t = target
            take_sample(state)
    else:
        while state.t < cfg.t_end - 1e-13:
            state = step(state, cfg, max_dt=cfg.t_end - state.t, stage=stage)
            if state.step_count % cfg.monitor_every == 0 or state.t >= cfg.t_end - 1e-13:
                take_sample(state)

    cols = list(zip(*rows))
    monitor = MonitorLog(*(np.asarray(c, dtype=float) for c in cols))
    if not keep_states:
        states = [SimState(state.t, full_spectrum(state.q), a, state.step_count)]
    return SimRun(states, monitor)


def save_checkpoint(state: SimState, path) -> None:
    """Binary snapshot: magic, version, n, alpha, t, then the coefficients
    as little-endian interleaved (re, im) float64 in row-major order."""
    g = state.grid
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, g.n, state.a.alpha, state.t
    )
    payload = np.ascontiguousarray(state.q.coeffs).astype("<c16", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def load_checkpoint(path) -> SimState:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("checkpoint file is truncated")
    magic, version, n, alpha, t = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    expected = _HEADER.size + 16 * n * n
    if len(raw) != expected:
        raise ValueError("checkpoint payload size does not match the header")
    coeffs = (
        np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
        .reshape(n, n)
        .astype(np.complex128)
    )
    return SimState(t, SpectralField(Grid(n), coeffs), AlphaParam(alpha))
