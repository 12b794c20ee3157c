import json
import re
import sys
import threading
from dataclasses import MISSING, fields, replace
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
    CONFIG_KEYS,
    CSV_COLUMNS,
    DATUM_KINDS,
    AlphaRecord,
    build_datum,
    sweep_csv_lines,
    summary_dict,
)
from alphaeuler.solver import MonitorLog
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
        vel_l2_err=zeros.copy(),
        vort_err={p: zeros.copy() for p in p_list},
        flow_dist=zeros.copy(),
        delta=zeros.copy(),
        monitor=MonitorLog(times, *(zeros.copy() for _ in range(6))),
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
        with pytest.raises(ValueError, match=re.escape("[grid] n_ref = 32 is invalid: expected at least [grid] n = 64")):
            smooth_config(n=64, n_ref=32)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n": 32.0}, "[grid] n = 32.0 is invalid"),
            ({"samples": 0}, "[time] samples = 0 is invalid: expected an integer >= 1"),
            ({"substeps": 2.5}, "[sweep] substeps = 2.5 is invalid"),
            ({"workers": None}, "[sweep] workers = None is invalid"),
            ({"richardson": "flase"}, "[sweep] richardson = 'flase' is invalid"),
            ({"p_list": (2.0, 0.5)}, "[sweep] p_list = (2.0, 0.5) is invalid: expected reals >= 1 (or inf), got 0.5"),
        ],
        ids=["n_float", "samples", "substeps_fraction", "workers_none", "richardson", "p_list"],
    )
    def test_bad_value_from_code_is_named(self, overrides, message):
        # a config built in code used to skip the casts of load_config
        with pytest.raises(ValueError, match=re.escape(message)):
            smooth_config(**overrides)

    def test_p_list_always_covers_csv_columns(self):
        cfg = smooth_config(p_list=(3.0,))
        assert {1.0, 2.0, 4.0} <= set(cfg.p_list)


# The text of the required keys, and a file's text of every [section] key
# with the value it means.
REQUIRED_TEXT = {("grid", "n"): "32", ("grid", "n_ref"): "64", ("time", "t_end"): "0.5", ("sweep", "alphas"): "0.5"}
KEY_TEXT = {
    "n": ("16", 16),
    "n_ref": ("128", 128),
    "t_end": ("0.25", 0.25),
    "cfl": ("0.4", 0.4),
    "samples": ("4", 4),
    "alphas": ("0.5 0.25", (0.5, 0.25)),
    "p_list": ("3, inf", (1.0, 2.0, 3.0, 4.0, float("inf"))),
    "particle_stride": ("4", 4),
    "substeps": ("2", 2),
    "family": ("mollified", "mollified"),
    "workers": ("2", 2),
    "richardson": ("off", False),
    "dir": ("out", Path("out")),
}


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
            "[datum]\nkind = smooth_random\nk_max = 3\nseed = 5\n"
            "[grid]\nn = 32\nn_ref = 64\n"
            "[time]\nt_end = 0.25\ncfl = 0.4\nsamples = 4\n"
            "[sweep]\nalphas = 0.5 0.25\np_list = 3\nparticle_stride = 4\n"
            "substeps = 2\nfamily = mollified\nworkers = 2\nrichardson = off\n"
            "[output]\ndir = out\n"
        )
        expected = ExperimentConfig(
            datum=DatumSpec("smooth_random", {"k_max": 3, "seed": 5}),
            alpha_list=(0.5, 0.25),
            n=32,
            n_ref=64,
            t_end=0.25,
            p_list=(3.0,),
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

    @pytest.mark.parametrize("section, key", [(s, k) for s, keys in CONFIG_KEYS.items() for k in keys])
    def test_config_from_code_equals_config_from_file(self, tmp_path, section, key):
        # each key's file text, given to ExperimentConfig in code, makes the
        # config that load_config makes of the file
        text = {**REQUIRED_TEXT, (section, key): KEY_TEXT[key][0]}
        lines = ["[datum]", "kind = shear"]
        for s in CONFIG_KEYS:
            lines += [f"[{s}]"] + [f"{k} = {v}" for (s_, k), v in text.items() if s_ == s]
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(lines) + "\n")
        from_code = ExperimentConfig(
            datum=DatumSpec("shear"), **{CONFIG_KEYS[s][k][0]: v for (s, k), v in text.items()}
        )
        assert getattr(from_code, CONFIG_KEYS[section][key][0]) == KEY_TEXT[key][1]
        assert load_config(path) == from_code

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

    def test_datum_seed_defaults_to_0(self):
        grid = Grid(32)
        unseeded = build_datum(DatumSpec("smooth_random"), grid).coeffs
        assert np.array_equal(unseeded, build_datum(DatumSpec("smooth_random", {"seed": 0}), grid).coeffs)
        assert not np.array_equal(unseeded, build_datum(DatumSpec("smooth_random", {"seed": 3}), grid).coeffs)

    def test_unknown_key_names_key_and_kind(self):
        with pytest.raises(ValueError, match="'seed'.*'shear'"):
            DatumSpec("shear", {"seed": 3})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown datum kind"):
            DatumSpec("vortex_sheet")


README = Path(__file__).resolve().parent.parent / "README.md"

# The README's name for each cast of the schema: the values its check accepts.
TYPE_NAMES = {
    int: "integer",
    str: "text",
    harness._finite: "finite real",
    harness._grid_size: "power of two >= 8",
    harness._count: "integer >= 1",
    harness._positive: "positive finite real",
    harness._cfl: "real in (0, 1]",
    harness._alphas: "strictly decreasing positive finite reals",
    harness._norms: "reals >= 1 (or `inf`)",
    harness._family: "`identity` or `mollified`",
    harness._boolean: "boolean",
    harness._directory: "text",
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


def shear_config():
    return ExperimentConfig(
        datum=DatumSpec("shear"),
        alpha_list=(0.5,),
        n=32,
        n_ref=64,
        t_end=0.5,
        samples=4,
        particle_stride=4,
    )


@pytest.fixture(scope="module")
def shear_report():
    return run_sweep(shear_config())


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

    def test_default_bound_overlay(self, monkeypatch):
        # the overlay evaluates the bound of each record, at its own gamma0,
        # with the default constants and horizon max(1, t_end)
        evaluated = []
        rate_K = harness.velocity_rate_K

        def recording(a, t, params):
            evaluated.append((a.alpha, replace(params, gamma0=0.0)))
            return rate_K(a, t, params)

        monkeypatch.setattr(harness, "velocity_rate_K", recording)
        run_sweep(shear_config())
        assert evaluated[0][1] == BoundParams(horizon=1.0)
        assert sorted({alpha for alpha, _ in evaluated}) == [0.5]


class TestSweepInvariants:
    def test_errors_nonnegative(self, report):
        for rec in report.records:
            assert np.all(rec.vel_l2_err >= 0)
            for arr in rec.vort_err.values():
                assert np.all(arr >= 0)

    def test_errors_decrease_with_alpha(self, report):
        sups = [r.sup_vel_err() for r in report.records]
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
        a = sweep_csv_lines(report)
        b = sweep_csv_lines(again)
        assert a[0].startswith("# generated ") and b[0].startswith("# generated ")
        assert a[1:] == b[1:]

    def test_worker_count_does_not_change_results(self, report):
        # 3 workers on a 2-core machine, with frequent thread switches, so
        # that solves finish before, during and after the reference
        expected_csv = sweep_csv_lines(report)[1:]  # all but `# generated`
        expected_summary = json.dumps(summary_dict(report), sort_keys=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                again = run_sweep(smooth_config(workers=workers))
                assert sweep_csv_lines(again)[1:] == expected_csv
                assert json.dumps(summary_dict(again), sort_keys=True) == expected_summary
        finally:
            sys.setswitchinterval(interval)

    def test_self_comparison_yields_zero(self):
        from alphaeuler import smooth_random
        from alphaeuler.harness import CSV_PS, banded_run, compare_bands

        cfg = smooth_config(n=32, n_ref=32, t_end=0.2, samples=2)
        solve = banded_run(smooth_random(3, 2.0, 5, Grid(32)), 0.1, cfg)
        vel, vort, delta = compare_bands(solve, solve, cfg, CSV_PS)
        assert not vel.any()
        assert not any(arr.any() for arr in vort.values())
        assert not delta.any()

    def test_compare_bands_matches_per_p_formula(self):
        # one transform per sample, reused for every p, must reproduce the
        # per-p evaluation bit for bit
        from alphaeuler import AlphaParam, Grid, smooth_random
        from alphaeuler.harness import CSV_PS, BandedRun, compare_bands
        from alphaeuler.spectral import pack_band, parseval_sum
        from alphaeuler.vorticity import velocity_l2_distance

        g = Grid(32)
        cfg = smooth_config(n=32, n_ref=32, t_end=0.2, samples=2)
        a, b = AlphaParam(0.1), AlphaParam(0.0)
        q0, times = smooth_random(3, 2.0, 5, g), cfg.sample_times
        qs_a = [s.q for s in run_states(q0, a, cfg.solver_config(), times)[1]]
        qs_b = [s.q for s in run_states(q0, b, cfg.solver_config(), times)[1]]
        vel, vort, _ = compare_bands(
            BandedRun(0.1, tuple(pack_band(q, g) for q in qs_a)),
            BandedRun(0.0, tuple(pack_band(q, g) for q in qs_b)),
            cfg,
            CSV_PS,
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
        from alphaeuler import smooth_random
        from alphaeuler.harness import CSV_PS, banded_run, compare_bands

        cfg = smooth_config(n=32, n_ref=32, t_end=0.2, samples=2)
        runs = [banded_run(smooth_random(3, 2.0, 5, Grid(32)), alpha, cfg) for alpha in (0.1, 0.0)]
        vel, vort, delta = compare_bands(*runs, cfg, CSV_PS)
        vel_only, vort_none, delta_only = compare_bands(*runs, cfg, p_list=())
        assert vort and vort_none == {}
        assert vel_only.tobytes() == vel.tobytes()
        assert delta_only.tobytes() == delta.tobytes()

    def test_richardson_error_is_the_gap_to_the_restricted_reference(self, cfg, report):
        # the gate reads the sup-in-time L2 velocity distance of the
        # same-grid Euler run to the restricted reference, bit for bit
        from alphaeuler import AlphaParam, restrict
        from alphaeuler.vorticity import velocity_l2_distance

        euler = AlphaParam(0.0)
        grid = Grid(cfg.n)
        datum = build_datum(cfg.datum, Grid(cfg.n_ref))
        _, ref_states = run_states(datum, euler, cfg.solver_config(), cfg.sample_times, monitor=False)
        _, states = run_states(restrict(datum, grid), euler, cfg.solver_config(), cfg.sample_times, monitor=False)
        assert len(states) == len(ref_states) == cfg.samples + 1
        expected = max(
            velocity_l2_distance(s.q, euler, restrict(r.q, grid), euler) for s, r in zip(states, ref_states)
        )
        assert expected > 0.0
        assert report.richardson_error == expected


def patch_reference(monkeypatch, reference):
    """Run the sweep's reference, the one banded run on the n_ref grid of
    these configs (n < n_ref), as `reference(run_it)`, where `run_it()`
    runs it as the package does; every other run is the package's."""
    banded = harness.banded_run

    def patched(q0, alpha, cfg, monitor=True):
        if q0.grid.n == cfg.n_ref:
            return reference(lambda: banded(q0, alpha, cfg, monitor))
        return banded(q0, alpha, cfg, monitor)

    monkeypatch.setattr(harness, "banded_run", patched)


def reference_of(cfg):
    """The reference run of a study, as a sweep makes it."""
    from alphaeuler.harness import banded_run, study_datum

    return banded_run(study_datum(cfg)[0], 0.0, cfg, monitor=False)


class TestJobGraph:
    def test_streamed_trajectory_matches_history_trajectory(self):
        # traced from the solve's bands, the lattice takes the bits of the
        # trace through the velocities of the run's own states
        from alphaeuler import AlphaParam, Grid, approximating_family
        from alphaeuler.harness import build_datum, filtered_solve, trace_bands

        cfg = smooth_config(family="mollified")
        omega0 = build_datum(cfg.datum, Grid(cfg.n))
        a = AlphaParam(cfg.alpha_list[0])
        _, states = run_states(approximating_family(omega0, a, cfg.family), a, cfg.solver_config(), cfg.sample_times)
        expected = trajectory_of(states, cfg.particle_stride, cfg.substeps)
        got = tuple(trace_bands(filtered_solve(a.alpha, omega0, cfg), cfg))
        assert len(got) == len(expected) == cfg.samples + 1
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, expected))

    def test_reference_trajectory_matches_history_trajectory(self):
        from alphaeuler import AlphaParam, SimState
        from alphaeuler.harness import trace_bands

        cfg = smooth_config()
        ref = reference_of(cfg)
        grid, times = Grid(cfg.n), cfg.sample_times
        states = [SimState(float(t), unpack_band(band, grid), AlphaParam(0.0)) for t, band in zip(times, ref.bands)]
        expected = trajectory_of(states, cfg.particle_stride, cfg.substeps)
        got = tuple(trace_bands(ref, cfg))
        assert len(got) == len(expected) == cfg.samples + 1
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, expected))

    def test_reference_keeps_the_band_of_each_sample(self):
        # the samples are the restrictions of the reference's states, bit
        # for bit, kept as their dealias bands
        from alphaeuler import AlphaParam, restrict
        from alphaeuler.spectral import pack_band

        cfg = smooth_config()
        ref = reference_of(cfg)
        grid = Grid(cfg.n)
        datum = build_datum(cfg.datum, Grid(cfg.n_ref))
        _, states = run_states(datum, AlphaParam(0.0), cfg.solver_config(), cfg.sample_times, monitor=False)
        expected = [restrict(s.q, grid) for s in states]
        got = [unpack_band(band, grid) for band in ref.bands]
        assert ref.alpha == 0.0
        assert len(ref.bands) == len(got) == len(expected) == cfg.samples + 1
        for band, q, e in zip(ref.bands, got, expected):
            assert q.grid == grid
            assert q.coeffs.tobytes() == e.coeffs.tobytes()
            assert band.tobytes() == pack_band(e, grid).tobytes()

    def test_reference_holds_no_physical_sample(self):
        # the reference used to keep each sample's (2, n, n) velocity and its
        # full half spectrum; the bands are all it keeps of a sample now
        cfg = smooth_config()
        ref = reference_of(cfg)
        n = cfg.n
        arrays = []
        for f in fields(ref):
            value = getattr(ref, f.name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    arrays.append(item)
        assert not any(x.shape == (2, n, n) for x in arrays)
        assert all(band.ndim == 1 for band in ref.bands)
        half_spectra = (cfg.samples + 1) * n * (n // 2 + 1) * 16
        assert sum(band.nbytes for band in ref.bands) == pytest.approx(0.44 * half_spectra, rel=0.05)

    def test_velocity_gap_matches_physical_formula(self):
        # one inverse transform of the spectral velocity difference; the
        # oracle subtracts the two physical velocities
        from alphaeuler import AlphaParam, velocity
        from alphaeuler.harness import CSV_PS, compare_bands, filtered_solve, study_datum
        from alphaeuler.lagrangian import cumulative_trapezoid

        cfg = smooth_config(family="mollified")
        ref = reference_of(cfg)
        omega0 = study_datum(cfg)[1]
        grid, times = omega0.grid, cfg.sample_times
        for alpha in cfg.alpha_list:
            solve = filtered_solve(alpha, omega0, cfg)
            a = AlphaParam(alpha)
            gaps = [
                velocity_l1_distance(
                    velocity(unpack_band(band, grid), a).physical(),
                    velocity(unpack_band(band_ref, grid), AlphaParam(0.0)).physical(),
                    grid,
                )
                for band, band_ref in zip(solve.bands, ref.bands)
            ]
            expected = cumulative_trapezoid(times, gaps)
            got = compare_bands(solve, ref, cfg, CSV_PS)[2]
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
        omega0 = build_datum(cfg.datum, Grid(cfg.n))
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
        from alphaeuler.harness import trace_bands

        cfg = smooth_config()
        ref = reference_of(cfg)
        builds = []
        build = harness._velocity_multipliers

        def counting(grid, a):
            builds.append((grid.n, a.alpha))
            return build(grid, a)

        monkeypatch.setattr(harness, "_velocity_multipliers", counting)
        assert len(tuple(trace_bands(ref, cfg))) == cfg.samples + 1
        assert builds == [(cfg.n, 0.0)]

    def test_alpha_failing_while_reference_runs_keeps_its_slot(self, report, monkeypatch):
        from alphaeuler.solver import SolverError

        failed = threading.Event()
        reference_done = threading.Event()
        solve = harness.filtered_solve
        solved_first = []  # solved before the reference was done

        def failing_solve(alpha, omega0, cfg):
            if alpha == 0.125:
                failed.set()
                raise SolverError("injected failure")
            if not reference_done.is_set():
                solved_first.append(alpha)
            return solve(alpha, omega0, cfg)

        def late_reference(run_it):
            if not failed.wait(timeout=60):
                raise AssertionError("the alpha solve never failed")
            out = run_it()
            reference_done.set()
            return out

        monkeypatch.setattr(harness, "filtered_solve", failing_solve)
        patch_reference(monkeypatch, late_reference)
        got = run_sweep(smooth_config(workers=2))
        assert [r.alpha for r in got.records] == [0.25, 0.0625]
        assert got.failures == {0.125: "injected failure"}
        assert summary_dict(got)["alphas"] == [0.25, 0.125, 0.0625]
        # the solve done before the reference (alpha 0.0625, solved before
        # the failing one) is compared as the serial sweep's solves are,
        # after the reference: the two must agree bit for bit
        assert 0.0625 in solved_first
        for rec, serial in zip(got.records, (report.records[0], report.records[2])):
            assert np.array_equal(rec.vel_l2_err, serial.vel_l2_err)
            assert np.array_equal(rec.delta, serial.delta)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reference_failure_cancels_solves_and_propagates(self, workers, monkeypatch):
        # on one worker the reference raises once every job is queued, so
        # the pool takes each queued solve after the failure: none may run
        import time

        from alphaeuler.solver import SolverError

        solved = []
        boom = SolverError("reference blew up")
        solve = harness.filtered_solve

        def counting_solve(alpha, omega0, cfg):
            solved.append(alpha)
            return solve(alpha, omega0, cfg)

        def failing_reference(run_it):
            if workers == 1:
                time.sleep(0.05)
            raise boom

        monkeypatch.setattr(harness, "filtered_solve", counting_solve)
        patch_reference(monkeypatch, failing_reference)
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

        boom = RuntimeError("reference blew up late")
        banded = []

        def late_failing_reference(run_it):
            time.sleep(0.05)
            raise boom

        patch_reference(monkeypatch, late_failing_reference)
        reference = harness.banded_run

        def counting_banded_run(q0, alpha, cfg, monitor=True):
            if q0.grid.n != cfg.n_ref:
                banded.append(alpha)
            return reference(q0, alpha, cfg, monitor)

        monkeypatch.setattr(harness, "banded_run", counting_banded_run)
        with pytest.raises(RuntimeError) as info:
            run_sweep(smooth_config(workers=1))
        assert info.value is boom
        assert banded == []

    def test_solves_start_smallest_alpha_first(self, monkeypatch):
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
        # trace, so a solve (an alpha > 0 run) counts once its lattice is
        # traced: the job still running holds its solve whatever the join
        # does
        import weakref

        solves = []
        traced = set()
        live = []
        solve, record, trace = harness.filtered_solve, harness._alpha_record, harness.trace_bands

        def tracked_solve(alpha, omega0, cfg):
            out = solve(alpha, omega0, cfg)
            solves.append((alpha, weakref.ref(out)))
            return out

        def tracked_trace(run, cfg):
            yield from trace(run, cfg)
            traced.add(run.alpha)

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_datum_is_released_once_the_reference_has_run(self, monkeypatch, workers):
        # the sweep used to hold the n_ref datum, in a local name and in the
        # reference job, until it ended; the first comparison, the
        # Richardson gap, comes after the reference has run
        import weakref

        datums, alive = [], []
        study, compare = harness.study_datum, harness.compare_bands

        def tracked_study(cfg):
            datum, omega0 = study(cfg)
            datums.append(weakref.ref(datum))
            return datum, omega0

        def checking_compare(*args, **kwargs):
            alive.append(datums[0]() is not None)
            return compare(*args, **kwargs)

        monkeypatch.setattr(harness, "study_datum", tracked_study)
        monkeypatch.setattr(harness, "compare_bands", checking_compare)
        run_sweep(smooth_config(workers=workers))
        assert len(datums) == 1
        assert alive and not any(alive)

    @staticmethod
    def _failing_comparison(monkeypatch, workers):
        """A sweep whose comparisons raise; on two workers every solve is
        done before the reference, and each is compared once the reference
        is done."""
        from alphaeuler.harness import SweepError

        solved = threading.Event()
        count = []
        solve = harness.filtered_solve
        boom = SweepError("comparison blew up")

        def counting_solve(alpha, omega0, cfg):
            out = solve(alpha, omega0, cfg)
            count.append(alpha)
            if len(count) == len(cfg.alpha_list):
                solved.set()
            return out

        def late_reference(run_it):
            if workers > 1 and not solved.wait(timeout=60):
                raise AssertionError("the alpha solves never finished")
            return run_it()

        def failing_record(*args):
            raise boom

        monkeypatch.setattr(harness, "filtered_solve", counting_solve)
        patch_reference(monkeypatch, late_reference)
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
        from alphaeuler.cli import main
        from alphaeuler.solver import SolverError

        def failing_reference(run_it):
            raise SolverError("reference blew up")

        patch_reference(monkeypatch, failing_reference)
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
        assert len(report.records) == 1


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
            times=times,
            records=[rec],
            failures={},
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

    def test_empty_report_annotation(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(harness, "velocity_rate_K", lambda *args: evaluated.append(args))
        times = np.linspace(0.0, 1.0, 3)
        report = ConvergenceReport(
            n=32,
            n_ref=64,
            times=times,
            records=[],
            failures={},
            velocity_rate=None,
            vorticity_rates={},
            richardson_error=0.0,
            u0_l2=1.0,
        )
        report = compare_bounds(report, BoundParams(horizon=1.0))
        assert evaluated == []  # no bound curve
        assert report.bounds.exceeded == []


def test_summary_serializable():
    times = np.linspace(0.0, 1.0, 3)
    rec = _self_errors(times, (1.0, 2.0, 4.0))
    report = ConvergenceReport(
        n=32,
        n_ref=64,
        times=times,
        records=[rec],
        failures={0.5: "boom"},
        velocity_rate=None,
        vorticity_rates={},
        richardson_error=0.0,
        u0_l2=1.0,
    )
    text = json.dumps(summary_dict(report))
    assert "boom" in text
