"""Experiment orchestration for filter-scale convergence studies.

A sweep runs the unfiltered reference once on a finer grid, and the
Richardson run and every filtered run once on the study grid.  It measures
velocity/vorticity/flow-map errors against the spectrally restricted
reference at shared sample times, fits log-log rates, and persists a CSV
table plus a JSON summary.

A filtered solve (`filtered_solve`) needs only the initial datum and the
sample times, not the reference, so the reference, the Richardson run and
every alpha solve go to one pool of `effective_workers()` threads at once:
the reference first, then the Richardson run, then the solves smallest
alpha first.  The filter bounds |u|, so a smaller alpha never takes fewer
CFL steps, and the costliest solves start first.  `run_sweep`'s own thread
is the one place a solve meets the reference: it waits for the reference,
takes the Richardson gap, then compares each solve in the order they were
submitted, while the pool runs the next.  A solve waiting for its
comparison holds little: its samples are kept as their dealias bands, next
to its lattice's positions at each sample time.  Every worker count
takes the same path; a one-thread pool runs its jobs first in, first out,
so every solve starts after the reference.  The report does not depend on
the worker count or the order.

Every run is traced one way, after it ends, from its bands: `trace_bands`
makes each sample's velocity from its band, with one velocity table per
call, and yields the particle lattice's positions one sample at a time.
A sweep's reference job and each solve job collect their own positions
inside the job, so the tracing runs on the pool.  Two sampled runs meet
in one place, `compare_bands`, band to band: a solve and the reference,
the Richardson run and the reference, and the `flows` command, which
makes the same calls as a sweep's alpha: `reference_run`,
`filtered_solve`, `compare_bands` and `trace_bands`, its two traces in
lockstep, so it holds no whole trajectory.
"""

from __future__ import annotations

import configparser
import datetime
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bounds import BoundParams, linear_fit, t95_quantile, velocity_rate_K
from .bounds import gamma0 as initial_velocity_gap
from .initial_data import approximating_family, disc_patch, fractal_patch, shear, smooth_random
from .lagrangian import TrajectoryStream, cumulative_trapezoid, seed_particles
from .solver import MonitorLog, SolverConfig, SolverError, run
from .spectral import Grid, PhysicalField, SpectralField, restrict
from .spectral import irfft2_passes, pack_band, unpack_band
from .vorticity import AlphaParam, _velocity_multipliers, biot_savart, lp_norm, torus_distance, velocity
from .vorticity import velocity_l2, velocity_l2_distance

CSV_COLUMNS = (
    "alpha,t,vel_l2_err,vort_l1_err,vort_l2_err,vort_l4_err,"
    "flow_dist,delta,alphanorm_drift,energy"
)
CSV_PS = (1.0, 2.0, 4.0)

WORKERS_ENV = "AEUL_WORKERS"

# The Richardson gate: the reference's restriction gap must stay below this
# fraction of the smallest filtered velocity error.
RICHARDSON_FACTOR = 0.1

EULER = AlphaParam(0.0)


class SweepError(RuntimeError):
    """Sweep-level failure (e.g. the reference failed its consistency check)."""


# --- configuration schema ------------------------------------------------


def _parse(name: str, raw, cast):
    """cast(raw), or a ValueError that names the setting and its value."""
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} = {raw!r} is invalid: {exc}") from None


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("expected 1/yes/true/on or 0/no/false/off") from None


def _family(raw: str) -> str:
    if raw not in ("identity", "mollified"):
        raise ValueError("expected one of identity, mollified")
    return raw


def _unknown(what: str, accepted) -> ValueError:
    return ValueError(f"unknown {what} (accepted: {', '.join(accepted)})")


def _list_of(cast):
    """The cast of a comma- or blank-separated list, entry by entry."""
    return lambda raw: tuple(cast(tok) for tok in raw.replace(",", " ").split())


_finite_list = _list_of(_finite)
_real_list = _list_of(float)

# The default of a [datum] seed: the [sweep] seed.
SWEEP_SEED = "[sweep] seed"

# Every [datum] kind: its builder, called with the grid and the kind's keys,
# and those keys as {key: (cast, default)}.  Each builder looks its
# generator up when called, so a wrapper installed on the module sees it.
DATUM_KINDS = {
    "smooth_random": (
        lambda grid, **keys: smooth_random(grid=grid, **keys),
        {"seed": (int, SWEEP_SEED), "spectrum_slope": (_finite, 2.0), "k_max": (int, 4)},
    ),
    "disc_patch": (
        lambda grid, center_x, center_y, **keys: disc_patch((center_x, center_y), grid=grid, **keys),
        {"center_x": (_finite, math.pi), "center_y": (_finite, math.pi), "radius": (_finite, 1.0),
         "amplitude": (_finite, 1.0)},
    ),
    "fractal_patch": (
        lambda grid, **keys: fractal_patch(grid=grid, **keys)[0],
        {"generator": (str, "koch-like"), "depth": (int, 2), "amplitude": (_finite, 1.0)},
    ),
    "shear": (lambda grid, **keys: shear(grid, **keys), {"wavenumber": (int, 1)}),
}

# The [datum] key of every kind: a factor applied to the whole field.
DATUM_SCALE = {"scale": (_finite, 1.0)}

# Each [section] key but the [datum] ones: its ExperimentConfig field and
# its cast.  The defaults are the dataclass's: a key whose field has none is
# required, except that [grid] n_ref falls back to n.
CONFIG_KEYS = {
    "grid": {"n": ("n", int), "n_ref": ("n_ref", int)},
    "time": {"t_end": ("t_end", _finite), "cfl": ("cfl", _finite), "samples": ("samples", int)},
    "sweep": {
        "alphas": ("alpha_list", _finite_list),
        "p_list": ("p_list", _real_list),
        "seed": ("seed", int),
        "particle_stride": ("particle_stride", int),
        "substeps": ("substeps", int),
        "family": ("family", _family),
        "workers": ("workers", int),
        "richardson": ("richardson", _boolean),
    },
    "output": {"dir": ("output_dir", str)},
}


def _datum_keys(kind: str) -> dict:
    """{key: (cast, default)} of every key a [datum] kind takes."""
    return {**DATUM_KINDS[kind][1], **DATUM_SCALE}


@dataclass(frozen=True)
class DatumSpec:
    """A [datum] kind and its keys, each checked and cast on construction."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DATUM_KINDS:
            raise _unknown(f"datum kind {self.kind!r}", DATUM_KINDS)
        accepted = _datum_keys(self.kind)
        params = {}
        for key, raw in self.params.items():
            if key not in accepted:
                raise _unknown(f"[datum] key {key!r} for kind {self.kind!r}", accepted)
            params[key] = _parse(f"[datum] {key}", raw, accepted[key][0])
        object.__setattr__(self, "params", params)


def build_datum(spec: DatumSpec, grid: Grid, default_seed: int = 0) -> SpectralField:
    """The kind's builder on `grid`, each key the spec's value or its
    default, times `scale`."""
    values = {
        key: default_seed if default is SWEEP_SEED else default
        for key, (_, default) in _datum_keys(spec.kind).items()
    }
    values.update(spec.params)
    scale = values.pop("scale")
    datum = DATUM_KINDS[spec.kind][0](grid, **values)
    if scale != 1.0:
        datum = SpectralField(grid, datum.coeffs * scale)
    return datum


def _study_restriction(datum: SpectralField, grid: Grid) -> SpectralField:
    """The datum restricted to the study grid, which must keep some of it:
    a restriction that is identically zero would give a table of zeros."""
    omega0 = restrict(datum, grid)
    if not omega0.coeffs.any():
        raise ValueError(
            f"the [datum] vorticity has no mode in the dealias band |k| <= "
            f"{grid.kmax_dealias} of the n = {grid.n} study grid"
        )
    return omega0


@dataclass
class ExperimentConfig:
    datum: DatumSpec
    alpha_list: tuple
    n: int
    n_ref: int
    t_end: float
    p_list: tuple = CSV_PS
    seed: int = 0
    output_dir: Path | None = None
    cfl: float = 0.5
    samples: int = 32
    particle_stride: int = 1
    substeps: int = 4
    family: str = "identity"
    workers: int | None = None
    richardson: bool = True

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alpha_list)
        if len(alphas) == 0:
            raise ValueError("alpha_list must not be empty")
        if not all(0 < a < math.inf for a in alphas):  # NaN included
            raise ValueError("alpha_list entries must be positive and finite")
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("alpha_list must be strictly decreasing")
        self.alpha_list = alphas
        if self.n_ref < self.n:
            raise ValueError("the reference grid must be at least as fine")
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.particle_stride < 1 or self.n % self.particle_stride != 0:
            raise ValueError(
                f"[sweep] particle_stride must be a positive divisor of n = {self.n}, "
                f"got {self.particle_stride}"
            )
        if self.substeps < 1:
            raise ValueError(f"[sweep] substeps must be at least 1, got {self.substeps}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"[sweep] workers must be at least 1, got {self.workers}")
        _parse("[sweep] family", self.family, _family)
        bad = [p for p in map(float, self.p_list) if not p >= 1.0]  # NaN included
        if bad:
            raise ValueError(f"[sweep] p_list entries must be >= 1 (or inf), got {bad[0]!r}")
        self.p_list = tuple(sorted(set(float(p) for p in self.p_list) | set(CSV_PS)))
        self.output_dir = Path(self.output_dir) if self.output_dir else None  # "" included

    def effective_workers(self) -> int:
        """[sweep] workers, else AEUL_WORKERS, else 1."""
        if self.workers is not None:
            return int(self.workers)
        env = os.environ.get(WORKERS_ENV)
        workers = _parse(WORKERS_ENV, env, int) if env else 1
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be at least 1, got {env!r}")
        return workers

    def solver_config(self) -> SolverConfig:
        """Solver settings of every run of the study, sampled at samples + 1
        equally spaced times on [0, t_end]."""
        return SolverConfig(
            t_end=self.t_end,
            cfl=self.cfl,
            sample_times=np.linspace(0.0, self.t_end, self.samples + 1),
        )


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    stderr: float
    ci95: float


def fit_rate(pairs) -> RateFit:
    """Log-log least squares of error against alpha: err ~ exp(b) alpha^slope."""
    pairs = [(float(a), float(e)) for a, e in pairs]
    if len(pairs) < 3:
        raise ValueError("rate fits need at least 3 (alpha, err) pairs")
    if any(e <= 0 for _, e in pairs):
        raise ValueError("rate fits require strictly positive errors")
    xs = np.log([a for a, _ in pairs])
    ys = np.log([e for _, e in pairs])
    slope, intercept, r, stderr = linear_fit(xs, ys)
    tq = t95_quantile(len(pairs) - 2)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r2=float(r**2),
        stderr=float(stderr),
        ci95=tq * float(stderr),
    )


@dataclass
class AlphaRecord:
    alpha: float
    times: np.ndarray | None = None
    vel_l2_err: np.ndarray | None = None
    vort_err: dict = field(default_factory=dict)
    flow_dist: np.ndarray | None = None
    delta: np.ndarray | None = None
    alphanorm_drift: np.ndarray | None = None
    alpha_norm: np.ndarray | None = None
    energy: np.ndarray | None = None
    q_l2_drift: np.ndarray | None = None
    gamma0: float = float("nan")
    failed: bool = False
    error: str = ""

    def sup_vel_err(self) -> float:
        return float(np.max(self.vel_l2_err))

    def sup_vort_err(self, p: float) -> float:
        return float(np.max(self.vort_err[p]))


@dataclass
class BoundsComparison:
    params: BoundParams
    curves: dict
    exceeded: list
    rescaled_c: float | None


@dataclass
class ConvergenceReport:
    n: int
    n_ref: int
    t_end: float
    times: np.ndarray
    p_list: tuple
    records: list
    velocity_rate: RateFit | None
    vorticity_rates: dict
    richardson_error: float
    u0_l2: float
    bounds: BoundsComparison | None = None

    def ok_records(self) -> list:
        return [r for r in self.records if not r.failed]


@dataclass(frozen=True)
class ReferenceRun:
    """The unfiltered reference of a study, run on the n_ref grid and kept
    on the study grid: the restricted initial datum and the dealias band of
    each restricted sample (`pack_band`; restriction keeps the band only,
    so the bands hold all of it)."""

    grid: Grid
    solver: SolverConfig
    omega0: SpectralField
    bands: tuple

    @property
    def times(self) -> np.ndarray:
        return self.solver.sample_times


@dataclass(frozen=True)
class FilteredSolve:
    """One filtered run on the study grid, before it meets the reference:
    the dealias band of each sample (`pack_band`; the solver keeps every
    sample dealiased, so the bands hold all of it), the monitor log and the
    initial velocity gap gamma0."""

    alpha: float
    bands: tuple
    monitor: MonitorLog
    gamma0: float


def reference_run(cfg: ExperimentConfig, datum: SpectralField | None = None) -> ReferenceRun:
    """Run the unfiltered reference on the n_ref grid, keeping each sample
    as the dealias band of its spectral restriction to the study grid.
    `datum` is the initial vorticity on the n_ref grid, built from
    cfg.datum when not given."""
    grid = Grid(cfg.n)
    solver = cfg.solver_config()
    if datum is None:
        datum = build_datum(cfg.datum, Grid(cfg.n_ref), cfg.seed)
    omega0 = _study_restriction(datum, grid)
    bands = []
    run(datum, EULER, solver, on_sample=lambda s, u: bands.append(pack_band(restrict(s.q, grid))), monitor=False)
    return ReferenceRun(grid=grid, solver=solver, omega0=omega0, bands=tuple(bands))


def _banded_run(q0: SpectralField, a: AlphaParam, cfg: ExperimentConfig, monitor=True):
    """`run` on the study's sample times, keeping each sample as its dealias
    band; returns the bands and the monitor log."""
    bands = []
    sim = run(q0, a, cfg.solver_config(), on_sample=lambda s, u: bands.append(pack_band(s.q)), monitor=monitor)
    return tuple(bands), sim.monitor


def filtered_solve(alpha: float, omega0: SpectralField, cfg: ExperimentConfig) -> FilteredSolve:
    """Solve from the approximating-family datum of omega0 at this alpha.
    Needs nothing of the reference run but its initial datum.  Raises
    SolverError when the solve fails."""
    a = AlphaParam(alpha)
    q0 = approximating_family(omega0, a, cfg.family)
    bands, monitor = _banded_run(q0, a, cfg)
    return FilteredSolve(alpha=alpha, bands=bands, monitor=monitor, gamma0=initial_velocity_gap(q0, omega0, a))


def trace_bands(bands, alpha: float, grid: Grid, cfg: ExperimentConfig):
    """Yield the positions of the study's particle lattice at each sample
    time of a run on `grid`, given as the dealias bands of its samples
    (`pack_band`): each velocity K^alpha q is made from its band with one
    velocity table per call and pushed into one `TrajectoryStream`, so at
    most two velocities and one set of positions are alive."""
    a = AlphaParam(alpha)
    table = _velocity_multipliers(grid, a)
    stream = TrajectoryStream(grid, seed_particles(grid, cfg.particle_stride), cfg.substeps)
    for t, band in zip(cfg.solver_config().sample_times, bands):
        yield stream.push(t, velocity(unpack_band(band, grid), a, table).physical())


def compare_bands(bands_a, alpha_a: float, bands_b, alpha_b: float, grid: Grid, times, p_list=CSV_PS):
    """The gaps between two sampled runs on `grid`, given as the dealias
    bands of their samples (`pack_band`): per sample the L2 velocity
    distance and the L^p vorticity distance for each p in `p_list`, and
    delta(t), the L1 velocity distance integrated over `times` (trapezoid
    rule).  Comparing a run against itself yields exact zeros.

    Per sample one two-plane half-spectrum stack, written on the band's
    rows and columns, is transformed twice: first the two components of
    K^a q_a - K^b q_b, from the band entries of the two velocity tables
    (built once per call); then q_a and q_b, whose L2 velocity distance is
    taken by Parseval before the transform, and whose difference in
    physical space serves every p; an empty `p_list` skips that second
    transform."""
    width = grid.kmax_dealias + 1
    # a band lists the rows of the band's k1 in order, each over k2 <= kmax
    rows = np.flatnonzero(grid.keep_mask[:, 0])
    block = (rows.size, width)
    a, b = AlphaParam(alpha_a), AlphaParam(alpha_b)
    k_a = _velocity_multipliers(grid, a)[:, rows, :width]
    k_b = _velocity_multipliers(grid, b)[:, rows, :width]
    spec = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    phys = np.empty((2, grid.n, grid.n))
    vel, gaps = [], []
    vort = {p: [] for p in p_list}
    for band_a, band_b in zip(bands_a, bands_b):
        qa, qb = band_a.reshape(block), band_b.reshape(block)
        spec[..., :width] = 0.0  # the inverse passes overwrite these columns
        spec[:, rows, :width] = k_a * qa - k_b * qb
        irfft2_passes(spec, out=phys)
        gaps.append(np.sqrt(phys[0] ** 2 + phys[1] ** 2).sum() * grid.cell_area)
        spec[..., :width] = 0.0
        spec[0, rows, :width] = qa
        spec[1, rows, :width] = qb
        vel.append(velocity_l2_distance(SpectralField(grid, spec[0]), a, SpectralField(grid, spec[1]), b))
        if not p_list:
            continue
        irfft2_passes(spec, out=phys)
        diff = PhysicalField(grid, phys[0] - phys[1])
        for p in p_list:
            vort[p].append(lp_norm(diff, p))
    return np.array(vel), {p: np.array(errs) for p, errs in vort.items()}, cumulative_trapezoid(times, gaps)


def _alpha_record(
    solve: FilteredSolve, trajectory: tuple, ref: ReferenceRun, ref_trajectory: tuple, cfg: ExperimentConfig
) -> AlphaRecord:
    """The comparison half of an alpha: the solve and its lattice's
    positions at each sample time (`trace_bands`) measured against the
    reference's."""
    vel_err, vort_err, delta = compare_bands(
        solve.bands, solve.alpha, ref.bands, 0.0, ref.grid, ref.times, cfg.p_list
    )
    flow_dist = np.array([float(torus_distance(pa, pr).mean()) for pa, pr in zip(trajectory, ref_trajectory)])
    monitor = solve.monitor
    return AlphaRecord(
        alpha=solve.alpha,
        times=ref.times,
        vel_l2_err=vel_err,
        vort_err=vort_err,
        flow_dist=flow_dist,
        delta=delta,
        alphanorm_drift=monitor.alpha_norm_drift(),
        alpha_norm=monitor.alpha_norm,
        energy=monitor.energy,
        q_l2_drift=monitor.q_l2_drift(),
        gamma0=solve.gamma0,
    )


def run_sweep(cfg: ExperimentConfig) -> ConvergenceReport:
    """Reference, Richardson check, one filtered run per alpha, rate fits
    and the default bound overlay (horizon max(1, t_end)); the outputs are
    written once when cfg.output_dir is set.

    If the reference, a solve or a comparison raises, the jobs not yet
    started are cancelled and the exception propagates."""
    workers = cfg.effective_workers()
    datum = build_datum(cfg.datum, Grid(cfg.n_ref), cfg.seed)
    omega0 = _study_restriction(datum, Grid(cfg.n))
    alphas = cfg.alpha_list
    records = [None] * len(alphas)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # The reference is submitted first, so it is the first unfiltered
        # run on the n_ref grid to start: traces tell it from the Richardson
        # run that way.  With n == n_ref the Richardson run is on that grid
        # too and, on two or more workers, may start first; the two runs are
        # then the same computation.  The solves follow, costliest
        # (smallest alpha) first.
        def traced_reference():
            ref = reference_run(cfg, datum)
            return ref, tuple(trace_bands(ref.bands, 0.0, ref.grid, cfg))

        reference = pool.submit(traced_reference)

        def done_reference() -> None:
            # a job that starts after the reference failed fails at once
            if reference.done():
                reference.result()

        def richardson():
            done_reference()
            return _banded_run(omega0, EULER, cfg, monitor=False)

        def solve(alpha: float):
            done_reference()
            solved = filtered_solve(alpha, omega0, cfg)
            return solved, tuple(trace_bands(solved.bands, alpha, omega0.grid, cfg))

        jobs = [pool.submit(richardson)]
        jobs += [pool.submit(solve, alpha) for alpha in reversed(alphas)]
        try:
            ref, ref_trajectory = reference.result()
            # Same-resolution unfiltered run: its gap to the restricted
            # reference estimates the discretization error floor
            # (Richardson consistency).
            richardson_error = float(compare_bands(
                jobs.pop(0).result()[0], 0.0, ref.bands, 0.0, ref.grid, ref.times, p_list=()
            )[0].max())
            # Each job is dropped once taken, and no name holds a compared
            # solve, so it is freed before the next solve is waited for.
            for i in reversed(range(len(alphas))):
                job = jobs.pop(0)
                if isinstance(job.exception(), SolverError):
                    records[i] = AlphaRecord(alpha=alphas[i], failed=True, error=str(job.exception()))
                else:
                    records[i] = _alpha_record(*job.result(), ref, ref_trajectory, cfg)
        except BaseException:
            for job in jobs:
                job.cancel()
            raise

    ok = [r for r in records if not r.failed]
    if not ok:
        raise SweepError("every filtered run failed; nothing to report")

    if cfg.richardson:
        min_err = min(r.sup_vel_err() for r in ok)
        if richardson_error > RICHARDSON_FACTOR * min_err:
            raise SweepError(
                "reference self-consistency failure: restriction gap "
                f"{richardson_error:.3e} exceeds {RICHARDSON_FACTOR} x the "
                f"smallest filtered velocity error ({min_err:.3e})"
            )

    def fit_or_none(pairs) -> RateFit | None:
        try:
            return fit_rate(pairs)
        except ValueError:  # fewer than 3 runs, or a degenerate fit
            return None

    velocity_rate = fit_or_none([(r.alpha, r.sup_vel_err()) for r in ok])
    vorticity_rates = {}
    for p in cfg.p_list:
        fit = fit_or_none([(r.alpha, r.sup_vort_err(p)) for r in ok])
        if fit is not None:
            vorticity_rates[p] = fit

    report = ConvergenceReport(
        n=cfg.n,
        n_ref=cfg.n_ref,
        t_end=cfg.t_end,
        times=ref.times,
        p_list=cfg.p_list,
        records=records,
        velocity_rate=velocity_rate,
        vorticity_rates=vorticity_rates,
        richardson_error=richardson_error,
        u0_l2=velocity_l2(biot_savart(ref.omega0)),
    )
    compare_bounds(report, BoundParams(horizon=max(1.0, cfg.t_end)))
    if cfg.output_dir is not None:
        persist_report(report, cfg)
    return report


def compare_bounds(report: ConvergenceReport, params: BoundParams) -> ConvergenceReport:
    """Overlay the closed-form velocity rate on the measured errors.

    Each record is compared to K(alpha, t) evaluated with its own measured
    initial gap; alphas where the measurement exceeds the bound are
    flagged, and the minimal uniform constant c1 = c2 = c restoring
    domination (if any) is reported.
    """
    if params.horizon < report.t_end:
        raise ValueError("bound horizon must cover the report's time span")

    def curve(rec: AlphaRecord, p: BoundParams) -> np.ndarray:
        p_rec = replace(p, gamma0=rec.gamma0)
        return np.array(
            [velocity_rate_K(AlphaParam(rec.alpha), float(t), p_rec) for t in rec.times]
        )

    ok = report.ok_records()
    curves = {}
    exceeded = []
    for rec in ok:
        curves[rec.alpha] = curve(rec, params)
        if np.any(rec.vel_l2_err > curves[rec.alpha]):
            exceeded.append(rec.alpha)

    rescaled_c = None
    if exceeded:
        for c in np.logspace(-3.0, 3.0, 601):
            scaled = replace(params, c1=c, c2=c, c=c)
            if not any(np.any(rec.vel_l2_err > curve(rec, scaled)) for rec in ok):
                rescaled_c = float(c)
                break

    report.bounds = BoundsComparison(params, curves, exceeded, rescaled_c)
    return report


def csv_row(values) -> str:
    """One CSV row of numbers, each rendered as its shortest round-trip
    decimal."""
    return ",".join(repr(float(v)) for v in values)


def csv_lines(header: str, rows, timestamp: str | None = None) -> list:
    """The lines of a CSV file the package writes: `# generated` and the
    UTC time (or `timestamp`), the header, then a `csv_row` per row."""
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return [f"# generated {timestamp}", header] + [csv_row(row) for row in rows]


def sweep_csv_lines(report: ConvergenceReport, timestamp: str | None = None) -> list:
    """The lines of `sweep.csv`: a row per sample time of each run that
    did not fail."""
    rows = [
        (rec.alpha, t, rec.vel_l2_err[j], *(rec.vort_err[p][j] for p in CSV_PS),
         rec.flow_dist[j], rec.delta[j], rec.alphanorm_drift[j], rec.energy[j])
        for rec in report.ok_records()
        for j, t in enumerate(rec.times)
    ]
    return csv_lines(CSV_COLUMNS, rows, timestamp)


def _ratefit_dict(fit: RateFit | None):
    return None if fit is None else asdict(fit)


def summary_dict(report: ConvergenceReport) -> dict:
    return {
        "n": report.n,
        "n_ref": report.n_ref,
        "t_end": report.t_end,
        "u0_l2": report.u0_l2,
        "richardson_error": report.richardson_error,
        "velocity_rate": _ratefit_dict(report.velocity_rate),
        "vorticity_rates": {
            repr(p): _ratefit_dict(f) for p, f in report.vorticity_rates.items()
        },
        "alphas": [r.alpha for r in report.records],
        "gamma0": {repr(r.alpha): r.gamma0 for r in report.ok_records()},
        "sup_vel_err": {repr(r.alpha): r.sup_vel_err() for r in report.ok_records()},
        "sup_vort_err_l2": {
            repr(r.alpha): r.sup_vort_err(2.0) for r in report.ok_records()
        },
        "failures": {
            repr(r.alpha): r.error for r in report.records if r.failed
        },
        "bounds": None
        if report.bounds is None
        else {
            "exceeded": report.bounds.exceeded,
            "rescaled_c": report.bounds.rescaled_c,
        },
    }


def persist_report(report: ConvergenceReport, cfg: ExperimentConfig) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(sweep_csv_lines(report)) + "\n")
    (out / "summary.json").write_text(
        json.dumps(summary_dict(report), indent=2, sort_keys=True) + "\n"
    )


# --- configuration files -------------------------------------------------


def load_config(path) -> ExperimentConfig:
    """Parse a flat key-value experiment file with [section] headers; an
    unknown section or key is a ValueError naming it."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    # no interpolation: a `%` in a value, as in a directory name, is literal;
    # no default section: `[DEFAULT]` is an unknown section like any other,
    # not one whose keys are copied into every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    parser.optionxform = str
    try:
        parser.read(str(path), encoding="utf-8")
    except configparser.Error as exc:
        raise ValueError(f"config file {path} is malformed: {exc}") from None

    if "datum" not in parser:
        raise ValueError("config requires a [datum] section")
    params = dict(parser["datum"])
    if "kind" not in params:
        raise ValueError("[datum] requires a 'kind' key")
    values = {"datum": DatumSpec(params.pop("kind"), params)}
    for section in (s for s in parser.sections() if s != "datum"):
        keys = CONFIG_KEYS.get(section)
        if keys is None:
            raise _unknown(f"config section [{section}]", (f"[{s}]" for s in ("datum", *CONFIG_KEYS)))
        for key, raw in parser[section].items():
            if key not in keys:
                raise _unknown(f"[{section}] key {key!r}", keys)
            name, cast = keys[key]
            values[name] = _parse(f"[{section}] {key}", raw, cast)

    values.setdefault("n_ref", values.get("n"))  # with no n either, n is reported missing first
    labels = {name: f"[{section}] {key}" for section, keys in CONFIG_KEYS.items() for key, (name, _) in keys.items()}
    for f in fields(ExperimentConfig):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"config is missing {labels[f.name]}")
    return ExperimentConfig(**values)
