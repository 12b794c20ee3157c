import json
import re
import sys
import threading
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from alphaeuler import (
    BoundParams,
    ConvergenceReport,
    DatumSpec,
    ExperimentConfig,
    Grid,
    compare_bounds,
    fit_rate,
    load_config,
    run_sweep,
)
from alphaeuler import harness
from alphaeuler.bounds import t95_quantile
from alphaeuler.harness import (
    CSV_COLUMNS,
    DATUM_KINDS,
    AlphaRecord,
    build_datum,
    sweep_csv_lines,
    summary_dict,
)
from alphaeuler.spectral import unpack_band
from sampled import run_states, trajectory_of, velocity_l1_distance, vorticity_lp_distance

SHEAR_CFG = """
[datum]
kind = shear

[grid]
n = 32
n_ref = 64

[time]
t_end = 0.5
samples = 4

[sweep]
alphas = 0.5
particle_stride = 4
"""


def _self_errors(times, p_list):
    """The record of a run compared against itself: every error is zero."""
    zeros = np.zeros_like(times)
    return AlphaRecord(
        alpha=0.0,
        times=times,
        vel_l2_err=zeros.copy(),
        vort_err={p: zeros.copy() for p in p_list},
        flow_dist=zeros.copy(),
        delta=zeros.copy(),
        alphanorm_drift=zeros.copy(),
        energy=zeros.copy(),
        q_l2_drift=zeros.copy(),
        gamma0=0.0,
    )


def smooth_config(**overrides):
    base = dict(
        datum=DatumSpec("smooth_random", {"seed": 11, "spectrum_slope": 2.0, "k_max": 4}),
        alpha_list=(0.25, 0.125, 0.0625),
        n=32,
        n_ref=64,
        t_end=0.25,
        samples=4,
        particle_stride=4,
        substeps=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFitRate:
    def test_exact_square_root_law(self):
        pairs = [(0.1, 0.1**0.5), (0.01, 0.1), (0.001, 0.001**0.5)]
        fit = fit_rate(pairs)
        assert fit.slope == pytest.approx(0.5, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors(self):
        fit = fit_rate([(0.1, 2.0), (0.01, 2.0), (0.001, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_linear_law_intercept(self):
        fit = fit_rate([(0.1, 0.3), (0.01, 0.03), (0.001, 0.003)])
        assert fit.slope == pytest.approx(1.0, rel=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), rel=1e-10)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.01, 0.5)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.01, 0.0), (0.001, 0.1)])

    def test_equal_alphas_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.1, 0.5), (0.1, 0.2)])

    def test_ci95_is_student_t_quantile_times_stderr(self):
        # the quantile's accuracy is tested in test_bounds.TestT95Quantile
        pairs = [(0.1, 0.31), (0.05, 0.2), (0.01, 0.11), (0.005, 0.06), (0.001, 0.03)]
        fit = fit_rate(pairs)
        assert fit.ci95 == t95_quantile(len(pairs) - 2) * fit.stderr


class TestConfigValidation:
    def test_empty_alpha_list(self):
        with pytest.raises(ValueError):
            smooth_config(alpha_list=())

    def test_alphas_must_decrease(self):
        with pytest.raises(ValueError):
            smooth_config(alpha_list=(0.1, 0.2))

    def test_alphas_must_be_positive(self):
        with pytest.raises(ValueError):
            smooth_config(alpha_list=(0.1, 0.0))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha_list": (0.5, float("nan"), 0.1)},
            {"alpha_list": (float("inf"), 0.5)},
            {"t_end": float("nan")},
            {"t_end": float("inf")},
        ],
        ids=["alpha_nan", "alpha_inf", "t_end_nan", "t_end_inf"],
    )
    def test_non_finite_alphas_and_t_end_rejected(self, overrides):
        # a NaN alpha passed every comparison and failed only after the reference had run
        with pytest.raises(ValueError, match="positive and finite"):
            smooth_config(**overrides)

    def test_unknown_family_names_the_key_and_the_families(self):
        with pytest.raises(ValueError, match=r"\[sweep\] family = 'mollifed' is invalid: expected one of identity, mollified"):
            smooth_config(family="mollifed")

    def test_reference_grid_not_coarser(self):
        with pytest.raises(ValueError):
            smooth_config(n=64, n_ref=32)

    def test_p_list_always_covers_csv_columns(self):
        cfg = smooth_config(p_list=(3.0,))
        assert {1.0, 2.0, 4.0} <= set(cfg.p_list)


class TestConfigFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SHEAR_CFG)
        cfg = load_config(path)
        assert cfg.datum.kind == "shear"
        assert cfg.n == 32 and cfg.n_ref == 64
        assert cfg.alpha_list == (0.5,)
        assert cfg.t_end == 0.5

    def test_comments_and_sections(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[datum]\nkind = shear  # steady mode\n[grid]\nn = 32\n"
            "[time]\nt_end = 0.5\n[sweep]\nalphas = 0.5, 0.25\n"
        )
        cfg = load_config(path)
        assert cfg.alpha_list == (0.5, 0.25)
        assert cfg.n_ref == 32

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.cfg")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[datum]\nkind = shear\n[grid]\nn = 32\n[time]\nt_end = 1\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_misspelt_datum_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[datum]\nkind = disc_patch\nradus = 0.5\n[grid]\nn = 32\n"
            "[time]\nt_end = 0.5\n[sweep]\nalphas = 0.5\n"
        )
        with pytest.raises(ValueError, match="'radus'.*'disc_patch'"):
            load_config(path)

    def test_demo_configs_load(self):
        configs = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.cfg"))
        assert configs
        for path in configs:
            load_config(path)

    def test_required_keys_alone_load_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[datum]\nkind = shear\n[grid]\nn = 32\n[time]\nt_end = 0.5\n[sweep]\nalphas = 0.5\n")
        expected = ExperimentConfig(datum=DatumSpec("shear"), alpha_list=(0.5,), n=32, n_ref=32, t_end=0.5)
        assert load_config(path) == expected

    def test_every_key_reaches_its_field(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[datum]\nkind = smooth_random\nk_max = 3\n"
            "[grid]\nn = 32\nn_ref = 64\n"
            "[time]\nt_end = 0.25\ncfl = 0.4\nsamples = 4\n"
            "[sweep]\nalphas = 0.5 0.25\np_list = 3\nseed = 5\nparticle_stride = 4\n"
            "substeps = 2\nfamily = mollified\nworkers = 2\nrichardson = off\n"
            "[output]\ndir = out\n"
        )
        expected = ExperimentConfig(
            datum=DatumSpec("smooth_random", {"k_max": 3}),
            alpha_list=(0.5, 0.25),
            n=32,
            n_ref=64,
            t_end=0.25,
            p_list=(3.0,),
            seed=5,
            output_dir=Path("out"),
            cfl=0.4,
            samples=4,
            particle_stride=4,
            substeps=2,
            family="mollified",
            workers=2,
            richardson=False,
        )
        assert load_config(path) == expected

    def test_empty_p_list_and_dir_take_the_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SHEAR_CFG + "p_list =\n[output]\ndir =\n")
        cfg = load_config(path)
        assert cfg.p_list == (1.0, 2.0, 4.0)
        assert cfg.output_dir is None


class TestDatumSpec:
    def test_scale_accepted_for_every_kind(self):
        for kind in ("smooth_random", "disc_patch", "fractal_patch", "shear"):
            assert DatumSpec(kind, {"scale": "2.0"}).params == {"scale": 2.0}

    @pytest.mark.parametrize(
        "kind, key, raw",
        [
            ("smooth_random", "k_max", "4.0"),
            ("smooth_random", "seed", "one"),
            ("shear", "scale", "nan"),
            ("disc_patch", "radius", "inf"),
            ("fractal_patch", "depth", None),
        ],
    )
    def test_bad_value_raises_at_construction(self, kind, key, raw):
        with pytest.raises(ValueError, match=re.escape(f"[datum] {key} = {raw!r} is invalid")):
            DatumSpec(kind, {key: raw})

    @pytest.mark.parametrize("kind", sorted(DATUM_KINDS))
    def test_every_kind_builds_with_its_defaults(self, kind):
        grid = Grid(32)
        datum = build_datum(DatumSpec(kind), grid)
        assert datum.grid is grid
        assert np.all(np.isfinite(datum.coeffs)) and datum.coeffs.any()
        assert datum.coeffs[0, 0] == 0.0

    def test_datum_seed_defaults_to_the_sweep_seed(self):
        grid = Grid(32)
        spec = DatumSpec("smooth_random")
        seeded = build_datum(DatumSpec("smooth_random", {"seed": 7}), grid, default_seed=3)
        assert np.array_equal(build_datum(spec, grid, default_seed=7).coeffs, seeded.coeffs)
        assert not np.array_equal(build_datum(spec, grid, default_seed=3).coeffs, seeded.coeffs)

    def test_unknown_key_names_key_and_kind(self):
        with pytest.raises(ValueError, match="'seed'.*'shear'"):
            DatumSpec("shear", {"seed": 3})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown datum kind"):
            DatumSpec("vortex_sheet")


README = Path(__file__).resolve().parent.parent / "README.md"

# The README's name for each cast of the schema.
TYPE_NAMES = {
    int: "integer",
    str: "text",
    harness._finite: "finite real",
    harness._boolean: "boolean",
    harness._finite_list: "finite reals",
    harness._family: "`identity` or `mollified`",
    harness._real_list: "reals",
}


def _default_cell(default) -> str:
    if default is MISSING:
        return "required"
    if isinstance(default, tuple):
        return "`" + ", ".join(map(repr, default)) + "`"
    return f"`{default}`" if isinstance(default, str) else f"`{default!r}`"


def config_reference_tables() -> tuple:
    """The README's two tables as the schema defines them: every [section]
    key of ExperimentConfig, then every [datum] kind's keys."""
    defaults = {
        f.name: f.default if f.default_factory is MISSING else f.default_factory()
        for f in fields(ExperimentConfig)
    }
    defaults["n_ref"] = "[grid] n"
    sections = ["| section | key | type | default |", "| --- | --- | --- | --- |"]
    for section, keys in harness.CONFIG_KEYS.items():
        for key, (name, cast) in keys.items():
            sections.append(f"| `[{section}]` | `{key}` | {TYPE_NAMES[cast]} | {_default_cell(defaults[name])} |")
    kinds = ["| kind | key | type | default |", "| --- | --- | --- | --- |"]
    rows = [(f"`{kind}`", keys) for kind, (_, keys) in DATUM_KINDS.items()]
    for label, keys in rows + [("every kind", harness.DATUM_SCALE)]:
        for i, (key, (cast, default)) in enumerate(keys.items()):
            kinds.append(f"| {label if i == 0 else ''} | `{key}` | {TYPE_NAMES[cast]} | {_default_cell(default)} |")
    return "\n".join(sections), "\n".join(kinds)


@pytest.mark.parametrize("table", config_reference_tables(), ids=["sections", "datum_kinds"])
def test_readme_config_reference_matches_the_schema(table):
    assert table in README.read_text()


@pytest.fixture(scope="module")
def shear_report():
    cfg = ExperimentConfig(
        datum=DatumSpec("shear"),
        alpha_list=(0.5,),
        n=32,
        n_ref=64,
        t_end=0.5,
        samples=4,
        particle_stride=4,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def cfg(tmp_path_factory):
    return smooth_config(output_dir=tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def report(cfg):
    return run_sweep(cfg)


class TestSteadyShearSweep:
    def test_velocity_error_is_filter_gap(self, shear_report):
        # u^alpha differs from u by the filter factor on one mode:
        # error = alpha/(1+alpha) * pi sqrt(2) at every sample time
        rec = shear_report.records[0]
        expected = 0.5 / 1.5 * np.pi * np.sqrt(2.0)
        assert np.abs(rec.vel_l2_err - expected).max() < 1e-8

    def test_vorticity_errors_vanish(self, shear_report):
        rec = shear_report.records[0]
        for p in (1.0, 2.0, 4.0):
            assert rec.vort_err[p].max() < 1e-8

    def test_reference_is_self_consistent(self, shear_report):
        assert shear_report.richardson_error < 1e-10

    def test_default_bound_overlay(self, shear_report):
        assert shear_report.bounds.params == BoundParams(horizon=1.0)
        assert list(shear_report.bounds.curves) == [0.5]


class TestSweepInvariants:
    def test_errors_nonnegative(self, report):
        for rec in report.ok_records():
            assert np.all(rec.vel_l2_err >= 0)
            for arr in rec.vort_err.values():
                assert np.all(arr >= 0)

    def test_errors_decrease_with_alpha(self, report):
        sups = [r.sup_vel_err() for r in report.ok_records()]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_csv_written_with_schema(self, cfg, report):
        text = (cfg.output_dir / "sweep.csv").read_text().splitlines()
        assert text[0].startswith("# generated ")
        assert text[1] == CSV_COLUMNS
        assert len(text) == 2 + 3 * report.times.size

    def test_summary_json(self, cfg):
        data = json.loads((cfg.output_dir / "summary.json").read_text())
        assert data["n"] == 32 and data["n_ref"] == 64
        assert data["velocity_rate"] is not None

    def test_determinism_excluding_timestamp(self, cfg, report):
        again = run_sweep(smooth_config())
        a = sweep_csv_lines(report, timestamp="X")
        b = sweep_csv_lines(again, timestamp="X")
        assert a == b

    def test_worker_count_does_not_change_results(self, report):
        # 3 workers on a 2-core machine, with frequent thread switches, so
        # that solves finish before, during and after the reference
        expected_csv = sweep_csv_lines(report, timestamp="X")
        expected_summary = json.dumps(summary_dict(report), sort_keys=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                again = run_sweep(smooth_config(workers=workers))
                assert sweep_csv_lines(again, timestamp="X") == expected_csv
                assert json.dumps(summary_dict(again), sort_keys=True) == expected_summary
        finally:
            sys.setswitchinterval(interval)

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("AEUL_WORKERS", "2")
        assert smooth_config().effective_workers() == 2

    def test_self_comparison_yields_zero(self):
        from alphaeuler import AlphaParam, Grid, SolverConfig, smooth_random
        from alphaeuler.harness import compare_bands
        from alphaeuler.spectral import pack_band

        g = Grid(32)
        q0 = smooth_random(3, 2.0, 5, g)
        times = np.linspace(0.0, 0.2, 3)
        _, states = run_states(q0, AlphaParam(0.1), SolverConfig(t_end=0.2, sample_times=times))
        bands = [pack_band(s.q) for s in states]
        vel, vort, delta = compare_bands(bands, 0.1, bands, 0.1, g, times)
        assert not vel.any()
        assert not any(arr.any() for arr in vort.values())
        assert not delta.any()

    def test_compare_bands_matches_per_p_formula(self):
        # one transform per sample, reused for every p, must reproduce the
        # per-p evaluation bit for bit
        from alphaeuler import AlphaParam, Grid, SolverConfig, smooth_random
        from alphaeuler.harness import CSV_PS, compare_bands
        from alphaeuler.spectral import pack_band, parseval_sum
        from alphaeuler.vorticity import velocity_l2_distance

        g = Grid(32)
        times = np.linspace(0.0, 0.2, 3)
        cfg = SolverConfig(t_end=0.2, sample_times=times)
        a, b = AlphaParam(0.1), AlphaParam(0.0)
        qs_a = [s.q for s in run_states(smooth_random(3, 2.0, 5, g), a, cfg)[1]]
        qs_b = [s.q for s in run_states(smooth_random(3, 2.0, 5, g), b, cfg)[1]]
        vel, vort, _ = compare_bands(
            [pack_band(q) for q in qs_a], 0.1, [pack_band(q) for q in qs_b], 0.0, g, times
        )
        filt = 1.0 / (1.0 + 0.1 * g.ksq)
        for j, (qa, qb) in enumerate(zip(qs_a, qs_b)):
            diff = qa.coeffs * filt - qb.coeffs
            expected = 2 * np.pi * np.sqrt(parseval_sum(np.abs(diff) ** 2 * g.inv_ksq))
            assert vel[j] == expected
            assert vel[j] == velocity_l2_distance(qa, a, qb, b)
        for p in CSV_PS:
            expected = [vorticity_lp_distance(qa, qb, p) for qa, qb in zip(qs_a, qs_b)]
            assert np.array_equal(vort[p], expected)

    def test_empty_p_list_skips_only_the_vorticity_gaps(self):
        # the Richardson gate and `flows` ask for no vorticity gap; the
        # velocity gaps and delta are those of the full comparison
        from alphaeuler import AlphaParam, Grid, SolverConfig, smooth_random
        from alphaeuler.harness import compare_bands
        from alphaeuler.spectral import pack_band

        g = Grid(32)
        times = np.linspace(0.0, 0.2, 3)
        cfg = SolverConfig(t_end=0.2, sample_times=times)
        bands = [
            [pack_band(s.q) for s in run_states(smooth_random(3, 2.0, 5, g), AlphaParam(alpha), cfg)[1]]
            for alpha in (0.1, 0.0)
        ]
        vel, vort, delta = compare_bands(bands[0], 0.1, bands[1], 0.0, g, times)
        vel_only, vort_none, delta_only = compare_bands(bands[0], 0.1, bands[1], 0.0, g, times, p_list=())
        assert vort and vort_none == {}
        assert vel_only.tobytes() == vel.tobytes()
        assert delta_only.tobytes() == delta.tobytes()

    def test_richardson_error_is_the_gap_to_the_restricted_reference(self, cfg, report):
        # the gate reads the sup-in-time L2 velocity distance of the
        # same-grid Euler run to the restricted reference, bit for bit
        from alphaeuler import restrict
        from alphaeuler.harness import EULER
        from alphaeuler.vorticity import velocity_l2_distance

        grid = Grid(cfg.n)
        datum = build_datum(cfg.datum, Grid(cfg.n_ref), cfg.seed)
        _, ref_states = run_states(datum, EULER, cfg.solver_config(), monitor=False)
        _, states = run_states(restrict(datum, grid), EULER, cfg.solver_config(), monitor=False)
        assert len(states) == len(ref_states) == cfg.samples + 1
        expected = max(
            velocity_l2_distance(s.q, EULER, restrict(r.q, grid), EULER) for s, r in zip(states, ref_states)
        )
        assert expected > 0.0
        assert report.richardson_error == expected


class TestJobGraph:
    def test_streamed_trajectory_matches_history_trajectory(self):
        # traced from the solve's bands, the lattice takes the bits of the
        # trace through the velocities of the run's own states
        from alphaeuler import AlphaParam, Grid, approximating_family
        from alphaeuler.harness import build_datum, filtered_solve, trace_bands

        cfg = smooth_config(family="mollified")
        omega0 = build_datum(cfg.datum, Grid(cfg.n), cfg.seed)
        a = AlphaParam(cfg.alpha_list[0])
        _, states = run_states(approximating_family(omega0, a, cfg.family), a, cfg.solver_config())
        expected = trajectory_of(states, cfg.particle_stride, cfg.substeps)
        got = tuple(trace_bands(filtered_solve(a.alpha, omega0, cfg).bands, a.alpha, omega0.grid, cfg))
        assert len(got) == len(expected) == cfg.samples + 1
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, expected))

    def test_reference_trajectory_matches_history_trajectory(self):
        from alphaeuler import SimState
        from alphaeuler.harness import EULER, reference_run, trace_bands

        cfg = smooth_config()
        ref = reference_run(cfg)
        states = [SimState(float(t), unpack_band(band, ref.grid), EULER) for t, band in zip(ref.times, ref.bands)]
        expected = trajectory_of(states, cfg.particle_stride, cfg.substeps)
        got = tuple(trace_bands(ref.bands, 0.0, ref.grid, cfg))
        assert len(got) == len(expected) == cfg.samples + 1
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, expected))

    def test_reference_keeps_the_band_of_each_sample(self):
        # the samples are the restrictions of the reference's states, bit
        # for bit, kept as their dealias bands
        from alphaeuler import restrict
        from alphaeuler.harness import EULER, reference_run
        from alphaeuler.spectral import pack_band

        cfg = smooth_config()
        ref = reference_run(cfg)
        datum = build_datum(cfg.datum, Grid(cfg.n_ref), cfg.seed)
        _, states = run_states(datum, EULER, cfg.solver_config(), monitor=False)
        expected = [restrict(s.q, ref.grid) for s in states]
        got = [unpack_band(band, ref.grid) for band in ref.bands]
        assert len(ref.bands) == len(got) == len(expected) == len(ref.times)
        for band, q, e in zip(ref.bands, got, expected):
            assert q.grid == ref.grid
            assert q.coeffs.tobytes() == e.coeffs.tobytes()
            assert band.tobytes() == pack_band(e).tobytes()

    def test_reference_holds_no_physical_sample(self):
        # the reference used to keep each sample's (2, n, n) velocity and its
        # full half spectrum; the bands are all it keeps of a sample now
        from alphaeuler.harness import reference_run

        ref = reference_run(smooth_config())
        n = ref.grid.n
        arrays = []
        for f in fields(ref):
            value = getattr(ref, f.name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    arrays.append(item)
        assert not any(x.shape == (2, n, n) for x in arrays)
        assert all(band.ndim == 1 for band in ref.bands)
        half_spectra = len(ref.times) * n * (n // 2 + 1) * 16
        assert sum(band.nbytes for band in ref.bands) == pytest.approx(0.44 * half_spectra, rel=0.05)

    def test_velocity_gap_matches_physical_formula(self):
        # one inverse transform of the spectral velocity difference; the
        # oracle subtracts the two physical velocities
        from alphaeuler import AlphaParam, velocity
        from alphaeuler.harness import EULER, compare_bands, filtered_solve, reference_run
        from alphaeuler.lagrangian import cumulative_trapezoid

        cfg = smooth_config(family="mollified")
        ref = reference_run(cfg)
        for alpha in cfg.alpha_list:
            solve = filtered_solve(alpha, ref.omega0, cfg)
            a = AlphaParam(alpha)
            gaps = [
                velocity_l1_distance(
                    velocity(unpack_band(band, ref.grid), a).physical(),
                    velocity(unpack_band(band_ref, ref.grid), EULER).physical(),
                    ref.grid,
                )
                for band, band_ref in zip(solve.bands, ref.bands)
            ]
            expected = cumulative_trapezoid(ref.times, gaps)
            got = compare_bands(solve.bands, alpha, ref.bands, 0.0, ref.grid, ref.times)[2]
            assert expected[-1] > 0.0
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_filtered_solve_builds_no_velocity_table_per_sample(self, monkeypatch):
        # the run's stage builds the table, and gamma0 one for the
        # Laplacian of the initial velocity; the monitor row and the
        # trajectory used to build it again at every sample, 2 + 2 x
        # (samples + 1) builds in all
        from alphaeuler import Grid, solver, vorticity
        from alphaeuler.harness import build_datum, filtered_solve

        cfg = smooth_config()
        omega0 = build_datum(cfg.datum, Grid(cfg.n), cfg.seed)
        builds = []
        build = vorticity._velocity_multipliers

        def counting(grid, a):
            builds.append((grid.n, a.alpha))
            return build(grid, a)

        monkeypatch.setattr(vorticity, "_velocity_multipliers", counting)
        monkeypatch.setattr(solver, "_velocity_multipliers", counting)
        solve = filtered_solve(cfg.alpha_list[0], omega0, cfg)
        assert builds == [(cfg.n, cfg.alpha_list[0])] * 2
        assert len(solve.bands) == cfg.samples + 1

    def test_trace_builds_one_velocity_table(self, monkeypatch):
        # every velocity of a trace is made from its band with the one
        # table of the call
        from alphaeuler import harness
        from alphaeuler.harness import reference_run, trace_bands

        cfg = smooth_config()
        ref = reference_run(cfg)
        builds = []
        build = harness._velocity_multipliers

        def counting(grid, a):
            builds.append((grid.n, a.alpha))
            return build(grid, a)

        monkeypatch.setattr(harness, "_velocity_multipliers", counting)
        assert len(tuple(trace_bands(ref.bands, 0.0, ref.grid, cfg))) == cfg.samples + 1
        assert builds == [(cfg.n, 0.0)]

    def test_alpha_failing_while_reference_runs_keeps_its_slot(self, report, monkeypatch):
        from alphaeuler import harness
        from alphaeuler.solver import SolverError

        failed = threading.Event()
        reference_done = threading.Event()
        solve, reference = harness.filtered_solve, harness.reference_run
        solved_first = []  # solved before the reference was done

        def failing_solve(alpha, omega0, cfg):
            if alpha == 0.125:
                failed.set()
                raise SolverError("injected failure")
            if not reference_done.is_set():
                solved_first.append(alpha)
            return solve(alpha, omega0, cfg)

        def late_reference(cfg, datum=None):
            if not failed.wait(timeout=60):
                raise AssertionError("the alpha solve never failed")
            out = reference(cfg, datum)
            reference_done.set()
            return out

        monkeypatch.setattr(harness, "filtered_solve", failing_solve)
        monkeypatch.setattr(harness, "reference_run", late_reference)
        got = run_sweep(smooth_config(workers=2))
        assert [r.alpha for r in got.records] == [0.25, 0.125, 0.0625]
        assert [r.failed for r in got.records] == [False, True, False]
        assert got.records[1].error == "injected failure"
        # the solve done before the reference (alpha 0.0625, solved before
        # the failing one) is compared as the serial sweep's solves are,
        # after the reference: the two must agree bit for bit
        assert 0.0625 in solved_first
        for i in (0, 2):
            assert np.array_equal(got.records[i].vel_l2_err, report.records[i].vel_l2_err)
            assert np.array_equal(got.records[i].delta, report.records[i].delta)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reference_failure_cancels_solves_and_propagates(self, workers, monkeypatch):
        # on one worker the reference raises once every job is queued, so
        # the pool takes each queued solve after the failure: none may run
        import time

        from alphaeuler import harness
        from alphaeuler.solver import SolverError

        solved = []
        boom = SolverError("reference blew up")
        solve = harness.filtered_solve

        def counting_solve(alpha, omega0, cfg):
            solved.append(alpha)
            return solve(alpha, omega0, cfg)

        def failing_reference(cfg, datum=None):
            if workers == 1:
                time.sleep(0.05)
            raise boom

        monkeypatch.setattr(harness, "filtered_solve", counting_solve)
        monkeypatch.setattr(harness, "reference_run", failing_reference)
        alphas = tuple(2.0**-k for k in range(2, 10))
        with pytest.raises(SolverError) as info:
            run_sweep(smooth_config(workers=workers, alpha_list=alphas))
        assert info.value is boom
        if workers == 1:
            assert solved == []
        else:
            assert len(solved) < len(alphas)

    def test_failed_reference_runs_no_richardson_run(self, monkeypatch):
        # on one worker the pool takes the Richardson job as soon as the
        # reference raises; it must fail at once, as the solves do
        import time

        from alphaeuler import harness

        boom = RuntimeError("reference blew up late")
        banded = []
        banded_run = harness._banded_run

        def late_failing_reference(cfg, datum=None):
            time.sleep(0.05)
            raise boom

        def counting_banded_run(*args, **kwargs):
            banded.append(args[1].alpha)
            return banded_run(*args, **kwargs)

        monkeypatch.setattr(harness, "reference_run", late_failing_reference)
        monkeypatch.setattr(harness, "_banded_run", counting_banded_run)
        with pytest.raises(RuntimeError) as info:
            run_sweep(smooth_config(workers=1))
        assert info.value is boom
        assert banded == []

    def test_solves_start_smallest_alpha_first(self, monkeypatch):
        from alphaeuler import harness

        order = []
        solve = harness.filtered_solve

        def recording_solve(alpha, omega0, cfg):
            order.append(alpha)
            return solve(alpha, omega0, cfg)

        monkeypatch.setattr(harness, "filtered_solve", recording_solve)
        got = run_sweep(smooth_config(workers=1))
        assert order == [0.0625, 0.125, 0.25]
        assert [r.alpha for r in got.records] == [0.25, 0.125, 0.0625]

    def test_compared_solves_are_released(self, monkeypatch):
        # a join that kept its jobs would hold every solve until the sweep
        # ends; on one worker, a comparison meets at most the solve it
        # compares and the one solved meanwhile.  A solve job ends with its
        # trace, so a solve counts once its lattice is traced: the job
        # still running holds its solve whatever the join does
        import weakref

        from alphaeuler import harness

        solves = []
        traced = set()
        live = []
        solve, record, trace = harness.filtered_solve, harness._alpha_record, harness.trace_bands

        def tracked_solve(alpha, omega0, cfg):
            out = solve(alpha, omega0, cfg)
            solves.append((alpha, weakref.ref(out)))
            return out

        def tracked_trace(bands, alpha, grid, cfg):
            yield from trace(bands, alpha, grid, cfg)
            traced.add(alpha)

        def counting_record(*args):
            live.append(sum(r() is not None for alpha, r in solves if alpha in traced))
            return record(*args)

        monkeypatch.setattr(harness, "filtered_solve", tracked_solve)
        monkeypatch.setattr(harness, "trace_bands", tracked_trace)
        monkeypatch.setattr(harness, "_alpha_record", counting_record)
        alphas = tuple(2.0**-k for k in range(2, 8))
        run_sweep(smooth_config(workers=1, alpha_list=alphas, richardson=False))
        assert len(live) == len(alphas)
        assert max(live) <= 2

    @staticmethod
    def _failing_comparison(monkeypatch, workers):
        """A sweep whose comparisons raise; on two workers every solve is
        done before the reference, and each is compared once the reference
        is done."""
        from alphaeuler import harness
        from alphaeuler.harness import SweepError

        solved = threading.Event()
        count = []
        solve, reference = harness.filtered_solve, harness.reference_run
        boom = SweepError("comparison blew up")

        def counting_solve(alpha, omega0, cfg):
            out = solve(alpha, omega0, cfg)
            count.append(alpha)
            if len(count) == len(cfg.alpha_list):
                solved.set()
            return out

        def late_reference(cfg, datum=None):
            if workers > 1 and not solved.wait(timeout=60):
                raise AssertionError("the alpha solves never finished")
            return reference(cfg, datum)

        def failing_record(*args):
            raise boom

        monkeypatch.setattr(harness, "filtered_solve", counting_solve)
        monkeypatch.setattr(harness, "reference_run", late_reference)
        monkeypatch.setattr(harness, "_alpha_record", failing_record)
        return boom

    @pytest.mark.parametrize("workers", [1, 2])
    def test_comparison_failure_propagates(self, workers, monkeypatch):
        boom = self._failing_comparison(monkeypatch, workers)
        with pytest.raises(type(boom)) as info:
            run_sweep(smooth_config(workers=workers))
        assert info.value is boom

    def test_comparison_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        from alphaeuler.cli import main

        self._failing_comparison(monkeypatch, workers=2)
        path = tmp_path / "exp.cfg"
        path.write_text(SHEAR_CFG + "workers = 2\n")
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "comparison blew up" in err
        assert "Traceback" not in err

    def test_reference_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        from alphaeuler import harness
        from alphaeuler.cli import main
        from alphaeuler.solver import SolverError

        def failing_reference(cfg, datum=None):
            raise SolverError("reference blew up")

        monkeypatch.setattr(harness, "reference_run", failing_reference)
        path = tmp_path / "exp.cfg"
        path.write_text(SHEAR_CFG + "workers = 2\n")
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert "reference blew up" in capsys.readouterr().err


class TestRichardsonGate:
    def test_unresolvable_alpha_aborts(self):
        # a filter scale far below the discretization floor cannot be
        # measured; the reference consistency check must refuse to report
        from alphaeuler.harness import SweepError

        cfg = smooth_config(alpha_list=(1e-12,), t_end=0.5)
        with pytest.raises(SweepError):
            run_sweep(cfg)

    def test_gate_can_be_disabled(self):
        cfg = smooth_config(alpha_list=(1e-12,), t_end=0.5, richardson=False)
        report = run_sweep(cfg)
        assert len(report.ok_records()) == 1


class TestCompareBounds:
    def test_steady_case_respected(self):
        cfg = ExperimentConfig(
            datum=DatumSpec("shear"),
            alpha_list=(0.25,),
            n=32,
            n_ref=64,
            t_end=0.5,
            samples=2,
            particle_stride=8,
        )
        report = run_sweep(cfg)
        report = compare_bounds(report, BoundParams(c1=2.0, c2=1.0, c=2.0, horizon=1.0))
        assert report.bounds.exceeded == []
        assert report.bounds.rescaled_c is None

    def test_exceeding_measurement_is_flagged_and_rescaled(self):
        times = np.linspace(0.0, 1.0, 3)
        rec = _self_errors(times, (1.0, 2.0, 4.0))
        rec.alpha = 0.01
        rec.vel_l2_err = np.array([0.0, 5.0, 5.0])  # far above the tiny-c bound
        report = ConvergenceReport(
            n=32,
            n_ref=64,
            t_end=1.0,
            times=times,
            p_list=(1.0, 2.0, 4.0),
            records=[rec],
            velocity_rate=None,
            vorticity_rates={},
            richardson_error=0.0,
            u0_l2=1.0,
        )
        report = compare_bounds(report, BoundParams(c1=1e-3, c2=1e-3, c=1e-3, horizon=1.0))
        assert report.bounds.exceeded == [0.01]
        assert report.bounds.rescaled_c is not None
        # the rescaled constants must actually dominate the measurement
        from alphaeuler import AlphaParam, velocity_rate_K

        c = report.bounds.rescaled_c
        params = BoundParams(c1=c, c2=c, c=c, gamma0=rec.gamma0, horizon=1.0)
        curve = [velocity_rate_K(AlphaParam(0.01), float(t), params) for t in times]
        assert np.all(rec.vel_l2_err <= np.asarray(curve))

    def test_empty_report_annotation(self):
        times = np.linspace(0.0, 1.0, 3)
        report = ConvergenceReport(
            n=32,
            n_ref=64,
            t_end=1.0,
            times=times,
            p_list=(1.0, 2.0, 4.0),
            records=[],
            velocity_rate=None,
            vorticity_rates={},
            richardson_error=0.0,
            u0_l2=1.0,
        )
        report = compare_bounds(report, BoundParams(horizon=1.0))
        assert report.bounds.curves == {}
        assert report.bounds.exceeded == []


def test_summary_serializable():
    times = np.linspace(0.0, 1.0, 3)
    rec = _self_errors(times, (1.0, 2.0, 4.0))
    report = ConvergenceReport(
        n=32,
        n_ref=64,
        t_end=1.0,
        times=times,
        p_list=(1.0, 2.0, 4.0),
        records=[rec, AlphaRecord(alpha=0.5, failed=True, error="boom")],
        velocity_rate=None,
        vorticity_rates={},
        richardson_error=0.0,
        u0_l2=1.0,
    )
    text = json.dumps(summary_dict(report))
    assert "boom" in text
