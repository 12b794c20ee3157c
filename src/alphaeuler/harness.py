"""Experiment orchestration for filter-scale convergence studies.

A sweep runs the unfiltered reference once on a finer grid, and the
Richardson run and every filtered run once on the study grid.  It measures
velocity/vorticity/flow-map errors against the spectrally restricted
reference at shared sample times, fits log-log rates, and persists a CSV
table plus a JSON summary.

Every run of a study is one `banded_run`, kept as a `BandedRun`: its
alpha and the dealias band of each sample's restriction to the study grid.
The reference is the unfiltered run of the n_ref datum, the Richardson run
the unfiltered run of its restriction omega0 (`study_datum` makes both),
and a filtered solve (`filtered_solve`) the run of omega0's
approximating-family datum at its alpha, with its gamma0.  A solve needs
only omega0, not the reference, so the reference, the Richardson run and
every solve go to one pool of `[sweep] workers` threads at once: the
reference first, then the Richardson run, then the solves smallest alpha
first.  The filter bounds |u|, so a smaller alpha never takes fewer CFL
steps, and the costliest solves start first.  `run_sweep`'s own thread is
the one place a solve meets the reference: it waits for the reference,
takes the Richardson gap, then compares each solve in the order they were
submitted, while the pool runs the next.  A solve waiting for its
comparison holds little: its bands, next to its lattice's positions at
each sample time.  Every worker count takes the same path; a one-thread
pool runs its jobs first in, first out, so every solve starts after the
reference.  The report does not depend on the worker count or the order.

Every run is traced one way, after it ends, from its bands: `trace_bands`
writes each sample's velocity from its band, with one velocity table per
call, and yields the particle lattice's positions one sample at a time.
A sweep's reference job and each solve job collect their own positions
inside the job, so the tracing runs on the pool.  Two runs meet in one
place, `compare_bands`, band to band: a solve and the reference, the
Richardson run and the reference, and the `flows` command, which makes
the same calls as a sweep's alpha: `study_datum`, `banded_run`,
`filtered_solve`, `compare_bands` and `trace_bands`, its two traces in
lockstep, so it holds no whole trajectory.  Both read the study grid and
the one clock of every run, `ExperimentConfig.sample_times`, from the
config; the report keeps that clock once, as `ConvergenceReport.times`.

A completed solve is one `AlphaRecord`, which keeps the solve's own
`MonitorLog`.  The report's `records` hold only those, in `alpha_list`
order, and its `failures` map each alpha whose solve raised SolverError
to the message.
"""

from __future__ import annotations

import configparser
import datetime
import json
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bounds import BoundParams, linear_fit, t95_quantile, velocity_rate_K
from .bounds import gamma0 as initial_velocity_gap
from .initial_data import approximating_family, disc_patch, fractal_patch, shear, smooth_random
from .lagrangian import TrajectoryStream, cumulative_trapezoid, seed_particles
from .solver import MonitorLog, SolverConfig, SolverError, run
from .spectral import Grid, PhysicalField, SpectralField, band_index, irfft2_passes, pack_band, restrict
from .vorticity import AlphaParam, _velocity_multipliers, biot_savart, lp_norm, torus_distance
from .vorticity import velocity_l2, velocity_l2_distance

CSV_COLUMNS = (
    "alpha,t,vel_l2_err,vort_l1_err,vort_l2_err,vort_l4_err,"
    "flow_dist,delta,alphanorm_drift,energy"
)
CSV_PS = (1.0, 2.0, 4.0)

# The Richardson gate: the reference's restriction gap must stay below this
# fraction of the smallest filtered velocity error.
RICHARDSON_FACTOR = 0.1

class SweepError(RuntimeError):
    """Sweep-level failure (e.g. the reference failed its consistency check)."""


# --- configuration schema ------------------------------------------------


def _parse(name: str, raw, cast):
    """cast(raw), or a ValueError that names the setting and its value."""
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} = {raw!r} is invalid: {exc}") from None


def _check(cast, accepts, expected: str):
    """cast(raw), or a ValueError saying what is expected unless accepts(value)."""
    def check(raw):
        value = cast(raw)
        if not accepts(value):  # a NaN fails every comparison, so it is rejected
            raise ValueError(f"expected {expected}")
        return value
    return check


def _unknown(what: str, accepted) -> ValueError:
    return ValueError(f"unknown {what} (accepted: {', '.join(accepted)})")


def _list_of(cast):
    """The cast of a comma- or blank-separated list, entry by entry, or of
    each entry of a sequence from code."""
    return lambda raw: tuple(cast(tok) for tok in (raw.replace(",", " ").split() if isinstance(raw, str) else raw))


def _integer(raw) -> int:
    if isinstance(raw, bool):  # True from code is not 1
        raise TypeError("expected an integer, got a bool")
    return int(raw) if isinstance(raw, str) else operator.index(raw)  # 2.5 from code is not 2


_finite = _check(float, math.isfinite, "a finite number")
_finite_list = _list_of(_finite)
_real_list = _list_of(float)

# The checks of the [section] keys: each takes a file's text or a value from code.
_grid_size = _check(_integer, lambda n: n >= 8 and not n & (n - 1), "a power of two >= 8")
_count = _check(_integer, lambda n: n >= 1, "an integer >= 1")
_positive = _check(float, lambda x: 0.0 < x < math.inf, "a positive and finite number")
_cfl = _check(float, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]")
_alphas = _check(
    _real_list,
    lambda a: a and all(0.0 < x < math.inf for x in a) and all(y < x for x, y in zip(a, a[1:])),
    "strictly decreasing, positive and finite reals",
)
_family = _check(str, lambda f: f in ("identity", "mollified"), "one of identity, mollified")


def _norms(raw) -> tuple:
    """The p of every L^p error, CSV_PS always among them."""
    ps = _real_list(raw)
    bad = [p for p in ps if not p >= 1.0]  # NaN included
    if bad:
        raise ValueError(f"expected reals >= 1 (or inf), got {bad[0]!r}")
    return tuple(sorted(set(ps) | set(CSV_PS)))


def _boolean(raw) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(raw).lower()]  # True from code is "true"
    except KeyError:
        raise ValueError("expected 1/yes/true/on or 0/no/false/off") from None


def _directory(raw) -> Path | None:
    return Path(raw) if raw else None  # "" included


# Every [datum] kind: its builder, called with the grid and the kind's keys,
# and those keys as {key: (cast, default)}.  Each builder looks its
# generator up when called, so a wrapper installed on the module sees it.
DATUM_KINDS = {
    "smooth_random": (
        lambda grid, **keys: smooth_random(grid=grid, **keys),
        {"seed": (_integer, 0), "spectrum_slope": (_finite, 2.0), "k_max": (_integer, 4)},
    ),
    "disc_patch": (
        lambda grid, center_x, center_y, **keys: disc_patch((center_x, center_y), grid=grid, **keys),
        {"center_x": (_finite, math.pi), "center_y": (_finite, math.pi), "radius": (_finite, 1.0),
         "amplitude": (_finite, 1.0)},
    ),
    "fractal_patch": (
        lambda grid, **keys: fractal_patch(grid=grid, **keys)[0],
        {"generator": (str, "koch-like"), "depth": (_integer, 2), "amplitude": (_finite, 1.0)},
    ),
    "shear": (lambda grid, **keys: shear(grid, **keys), {"wavenumber": (_integer, 1)}),
}

# The [datum] key of every kind: a factor applied to the whole field.
DATUM_SCALE = {"scale": (_finite, 1.0)}

# Each [section] key but the [datum] ones: its ExperimentConfig field and
# its check, which ExperimentConfig applies on construction.  The defaults
# are the dataclass's: a key whose field has none is required, except that
# [grid] n_ref falls back to n.
CONFIG_KEYS = {
    "grid": {"n": ("n", _grid_size), "n_ref": ("n_ref", _grid_size)},
    "time": {"t_end": ("t_end", _positive), "cfl": ("cfl", _cfl), "samples": ("samples", _count)},
    "sweep": {
        "alphas": ("alpha_list", _alphas),
        "p_list": ("p_list", _norms),
        "particle_stride": ("particle_stride", _count),
        "substeps": ("substeps", _count),
        "family": ("family", _family),
        "workers": ("workers", _count),
        "richardson": ("richardson", _boolean),
    },
    "output": {"dir": ("output_dir", _directory)},
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


def build_datum(spec: DatumSpec, grid: Grid) -> SpectralField:
    """The kind's builder on `grid`, each key the spec's value or its
    default, times `scale`."""
    values = {key: default for key, (_, default) in _datum_keys(spec.kind).items()}
    values.update(spec.params)
    scale = values.pop("scale")
    datum = DATUM_KINDS[spec.kind][0](grid, **values)
    if scale != 1.0:
        datum = SpectralField(grid, datum.coeffs * scale)
    return datum


@dataclass(frozen=True)
class ExperimentConfig:
    """A study's settings, frozen, each cast and checked by its CONFIG_KEYS check on construction."""

    datum: DatumSpec
    alpha_list: tuple
    n: int
    n_ref: int
    t_end: float
    p_list: tuple = CSV_PS
    output_dir: Path | None = None
    cfl: float = 0.5
    samples: int = 32
    particle_stride: int = 1
    substeps: int = 4
    family: str = "identity"
    workers: int = 1
    richardson: bool = True

    def __post_init__(self):
        for section, keys in CONFIG_KEYS.items():
            for key, (name, check) in keys.items():
                object.__setattr__(self, name, _parse(f"[{section}] {key}", getattr(self, name), check))
        if self.n_ref < self.n:
            raise ValueError(f"[grid] n_ref = {self.n_ref} is invalid: expected at least [grid] n = {self.n}")
        if self.n % self.particle_stride:
            raise ValueError(
                f"[sweep] particle_stride = {self.particle_stride} is invalid: "
                f"expected a divisor of [grid] n = {self.n}"
            )

    @property
    def sample_times(self) -> np.ndarray:
        """The clock of every run: samples + 1 equally spaced times on [0, t_end]."""
        return np.linspace(0.0, self.t_end, self.samples + 1)

    def solver_config(self) -> SolverConfig:
        """The step settings of every run of the study."""
        return SolverConfig(cfl=self.cfl)


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
    """A completed solve's errors against the reference at each sample
    time, with its gamma0 and its own monitor log."""

    alpha: float
    vel_l2_err: np.ndarray
    vort_err: dict
    flow_dist: np.ndarray
    delta: np.ndarray
    monitor: MonitorLog
    gamma0: float

    def sup_vel_err(self) -> float:
        return float(np.max(self.vel_l2_err))

    def sup_vort_err(self, p: float) -> float:
        return float(np.max(self.vort_err[p]))


@dataclass
class BoundsComparison:
    exceeded: list
    rescaled_c: float | None


@dataclass
class ConvergenceReport:
    n: int
    n_ref: int
    times: np.ndarray
    records: list
    failures: dict
    velocity_rate: RateFit | None
    vorticity_rates: dict
    richardson_error: float
    u0_l2: float
    bounds: BoundsComparison | None = None


@dataclass(frozen=True)
class BandedRun:
    """One run of a study, kept on the study grid: the filter scale, the
    dealias band of each sample's restriction to the study grid
    (`banded_run`), the monitor log when the run kept one, and the initial
    velocity gap gamma0 of a filtered solve."""

    alpha: float
    bands: tuple
    monitor: MonitorLog | None = None
    gamma0: float = float("nan")


def study_datum(cfg: ExperimentConfig) -> tuple[SpectralField, SpectralField]:
    """The initial vorticity on the n_ref grid and its restriction omega0
    to the study grid, which must keep some of it: a restriction that is
    identically zero would give a table of zeros."""
    grid = Grid(cfg.n)
    datum = build_datum(cfg.datum, Grid(cfg.n_ref))
    omega0 = restrict(datum, grid)
    if not omega0.coeffs.any():
        raise ValueError(
            f"the [datum] vorticity has no mode in the dealias band |k| <= "
            f"{grid.kmax_dealias} of the n = {grid.n} study grid"
        )
    return datum, omega0


def banded_run(q0: SpectralField, alpha: float, cfg: ExperimentConfig, monitor: bool = True) -> BandedRun:
    """`run` q0, on the n_ref grid or the study grid, over the study's
    sample times, keeping each sample as the dealias band of its
    restriction to the study grid (`pack_band`: restriction keeps the band
    only, so the bands hold all of it)."""
    grid = Grid(cfg.n)
    bands = []
    log = run(
        q0, AlphaParam(alpha), cfg.solver_config(), cfg.sample_times,
        on_sample=lambda s: bands.append(pack_band(s.q, grid)), monitor=monitor,
    )
    return BandedRun(alpha, tuple(bands), log)


def filtered_solve(alpha: float, omega0: SpectralField, cfg: ExperimentConfig, monitor: bool = True) -> BandedRun:
    """Solve from the approximating-family datum of omega0 at this alpha,
    with its gamma0; `monitor` goes to `banded_run`.  Needs nothing of the
    reference run but its initial datum.  Raises SolverError when the
    solve fails."""
    a = AlphaParam(alpha)
    q0 = approximating_family(omega0, a, cfg.family)
    return replace(banded_run(q0, alpha, cfg, monitor), gamma0=initial_velocity_gap(q0, omega0, a))


def trace_bands(run: BandedRun, cfg: ExperimentConfig):
    """Yield the positions of the study's particle lattice at each sample
    time of a run: each velocity K^alpha q is written from its band, the
    band's rows of the one velocity table of the call times the band, into
    a zeroed two-plane half spectrum, and pushed into one
    `TrajectoryStream`, so at most two velocities and one set of positions
    are alive."""
    grid = Grid(cfg.n)
    rows, width = band_index(grid, grid.n)
    table = _velocity_multipliers(grid, AlphaParam(run.alpha))[:, rows, :width]
    spec = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    stream = TrajectoryStream(grid, seed_particles(grid, cfg.particle_stride), cfg.substeps)
    for t, band in zip(cfg.sample_times, run.bands):
        spec[..., :width] = 0.0  # the inverse passes overwrite these columns
        spec[:, rows, :width] = table * band.reshape(rows.size, width)
        yield stream.push(t, irfft2_passes(spec))


def compare_bands(run_a: BandedRun, run_b: BandedRun, cfg: ExperimentConfig, p_list):
    """The gaps between two runs of a study: per sample the L2 velocity
    distance and the L^p vorticity distance for each p in `p_list`, and
    delta(t), the L1 velocity distance integrated over the sample times
    (trapezoid rule).  Comparing a run against itself yields exact zeros.

    Per sample one two-plane half-spectrum stack, written on the band's
    rows and columns, is transformed twice: first the two components of
    K^a q_a - K^b q_b, from the band entries of the two velocity tables
    (built once per call); then q_a and q_b, whose L2 velocity distance is
    taken by Parseval before the transform, and whose difference in
    physical space serves every p; an empty `p_list` skips that second
    transform."""
    grid = Grid(cfg.n)
    rows, width = band_index(grid, grid.n)
    block = (rows.size, width)
    a, b = AlphaParam(run_a.alpha), AlphaParam(run_b.alpha)
    k_a = _velocity_multipliers(grid, a)[:, rows, :width]
    k_b = _velocity_multipliers(grid, b)[:, rows, :width]
    spec = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    phys = np.empty((2, grid.n, grid.n))
    vel, gaps = [], []
    vort = {p: [] for p in p_list}
    for band_a, band_b in zip(run_a.bands, run_b.bands):
        qa, qb = band_a.reshape(block), band_b.reshape(block)
        spec[..., :width] = 0.0
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
    return np.array(vel), {p: np.array(errs) for p, errs in vort.items()}, cumulative_trapezoid(cfg.sample_times, gaps)


def _alpha_record(
    solve: BandedRun, trajectory: tuple, ref: BandedRun, ref_trajectory: tuple, cfg: ExperimentConfig
) -> AlphaRecord:
    """The comparison half of an alpha: the solve and its lattice's
    positions at each sample time (`trace_bands`) measured against the
    reference's."""
    vel_err, vort_err, delta = compare_bands(solve, ref, cfg, cfg.p_list)
    flow_dist = np.array([float(torus_distance(pa, pr).mean()) for pa, pr in zip(trajectory, ref_trajectory)])
    return AlphaRecord(solve.alpha, vel_err, vort_err, flow_dist, delta, solve.monitor, solve.gamma0)


def run_sweep(cfg: ExperimentConfig) -> ConvergenceReport:
    """Reference, Richardson check, one filtered run per alpha, rate fits
    and the default bound overlay (horizon max(1, t_end)); the outputs are
    written once when cfg.output_dir is set.

    If the reference, a solve or a comparison raises, the jobs not yet
    started are cancelled and the exception propagates."""
    *held, omega0 = study_datum(cfg)  # the reference job pops the n_ref datum: no name keeps it alive
    alphas = cfg.alpha_list
    records, failures = [], {}
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        # The reference is submitted first, so it is the first unfiltered
        # run on the n_ref grid to start: traces tell it from the Richardson
        # run that way.  With n == n_ref the Richardson run is on that grid
        # too and, on two or more workers, may start first; the two runs are
        # then the same computation.  The solves follow, costliest
        # (smallest alpha) first.
        def traced_reference():
            ref = banded_run(held.pop(), 0.0, cfg, monitor=False)
            return ref, tuple(trace_bands(ref, cfg))

        reference = pool.submit(traced_reference)

        def done_reference() -> None:
            # a job that starts after the reference failed fails at once
            if reference.done():
                reference.result()

        def richardson():
            done_reference()
            return banded_run(omega0, 0.0, cfg, monitor=False)

        def solve(alpha: float):
            done_reference()
            solved = filtered_solve(alpha, omega0, cfg)
            return solved, tuple(trace_bands(solved, cfg))

        jobs = [pool.submit(richardson)]
        jobs += [pool.submit(solve, alpha) for alpha in reversed(alphas)]
        try:
            ref, ref_trajectory = reference.result()
            # Same-resolution unfiltered run: its gap to the restricted
            # reference estimates the discretization error floor
            # (Richardson consistency).
            richardson_error = float(compare_bands(jobs.pop(0).result(), ref, cfg, p_list=())[0].max())
            # Each job is dropped once taken, and no name holds a compared
            # solve, so it is freed before the next solve is waited for.
            for alpha in reversed(alphas):
                job = jobs.pop(0)
                if isinstance(job.exception(), SolverError):
                    failures[alpha] = str(job.exception())
                else:
                    records.insert(0, _alpha_record(*job.result(), ref, ref_trajectory, cfg))
        except BaseException:
            for job in jobs:
                job.cancel()
            raise

    if not records:
        raise SweepError("every filtered run failed; nothing to report")

    if cfg.richardson:
        min_err = min(r.sup_vel_err() for r in records)
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

    velocity_rate = fit_or_none([(r.alpha, r.sup_vel_err()) for r in records])
    vorticity_rates = {}
    for p in cfg.p_list:
        fit = fit_or_none([(r.alpha, r.sup_vort_err(p)) for r in records])
        if fit is not None:
            vorticity_rates[p] = fit

    report = ConvergenceReport(
        n=cfg.n,
        n_ref=cfg.n_ref,
        times=cfg.sample_times,
        records=records,
        failures=failures,
        velocity_rate=velocity_rate,
        vorticity_rates=vorticity_rates,
        richardson_error=richardson_error,
        u0_l2=velocity_l2(biot_savart(omega0)),
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
    if params.horizon < report.times[-1]:
        raise ValueError("bound horizon must cover the report's time span")

    def exceeds(rec: AlphaRecord, p: BoundParams) -> bool:
        p_rec = replace(p, gamma0=rec.gamma0)
        curve = [velocity_rate_K(AlphaParam(rec.alpha), float(t), p_rec) for t in report.times]
        return bool(np.any(rec.vel_l2_err > np.array(curve)))

    exceeded = [rec.alpha for rec in report.records if exceeds(rec, params)]
    rescaled_c = None
    if exceeded:
        for c in np.logspace(-3.0, 3.0, 601):
            if not any(exceeds(rec, replace(params, c1=c, c2=c, c=c)) for rec in report.records):
                rescaled_c = float(c)
                break

    report.bounds = BoundsComparison(exceeded, rescaled_c)
    return report


def csv_row(values) -> str:
    """One CSV row of numbers, each rendered as its shortest round-trip
    decimal."""
    return ",".join(repr(float(v)) for v in values)


def csv_lines(header: str, rows) -> list:
    """The lines of a CSV file the package writes: `# generated` and the
    UTC time, the header, then a `csv_row` per row."""
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return [f"# generated {timestamp}", header] + [csv_row(row) for row in rows]


def sweep_csv_lines(report: ConvergenceReport) -> list:
    """The lines of `sweep.csv`: a row per sample time of each completed
    solve."""
    rows = [
        (rec.alpha, t, rec.vel_l2_err[j], *(rec.vort_err[p][j] for p in CSV_PS),
         rec.flow_dist[j], rec.delta[j], drift, rec.monitor.energy[j])
        for rec in report.records
        for j, (t, drift) in enumerate(zip(report.times, rec.monitor.alpha_norm_drift()))
    ]
    return csv_lines(CSV_COLUMNS, rows)


def _ratefit_dict(fit: RateFit | None):
    return None if fit is None else asdict(fit)


def summary_dict(report: ConvergenceReport) -> dict:
    return {
        "n": report.n,
        "n_ref": report.n_ref,
        "t_end": report.times[-1],
        "u0_l2": report.u0_l2,
        "richardson_error": report.richardson_error,
        "velocity_rate": _ratefit_dict(report.velocity_rate),
        "vorticity_rates": {
            repr(p): _ratefit_dict(f) for p, f in report.vorticity_rates.items()
        },
        # alpha_list is strictly decreasing, so this is it, failed alphas included
        "alphas": sorted([r.alpha for r in report.records] + list(report.failures), reverse=True),
        "gamma0": {repr(r.alpha): r.gamma0 for r in report.records},
        "sup_vel_err": {repr(r.alpha): r.sup_vel_err() for r in report.records},
        "sup_vort_err_l2": {repr(r.alpha): r.sup_vort_err(2.0) for r in report.records},
        "failures": {repr(alpha): error for alpha, error in report.failures.items()},
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
    unknown section or key is a ValueError naming it.  Each value goes to
    ExperimentConfig as its text, and its CONFIG_KEYS check casts it."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    # no interpolation: a `%` in a value, as in a directory name, is literal;
    # no default section: `[DEFAULT]` is an unknown section like any other,
    # not one whose keys are copied into every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    parser.optionxform = str
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise ValueError(f"config file {path} cannot be read: {exc}") from None
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
            values[keys[key][0]] = raw  # ExperimentConfig checks and casts the text

    values.setdefault("n_ref", values.get("n"))  # with no n either, n is reported missing first
    labels = {name: f"[{section}] {key}" for section, keys in CONFIG_KEYS.items() for key, (name, _) in keys.items()}
    for f in fields(ExperimentConfig):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"config is missing {labels[f.name]}")
    return ExperimentConfig(**values)
