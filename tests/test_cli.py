import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alphaeuler.cli import main
from alphaeuler.harness import CONFIG_KEYS, CSV_COLUMNS, DATUM_KINDS, ExperimentConfig, load_config
from alphaeuler.lagrangian import seed_particles
from alphaeuler.spectral import Grid

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

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
alphas = 0.5, 0.25
particle_stride = 8
"""

K_001_T1 = 1.6176565479800037


# Pieces of config text for the parser fuzz: every section and key the
# schema knows and some it does not, values at the edges of each cast, and
# lines that are not `key = value` at all.
FUZZ_SECTIONS = ["datum", *CONFIG_KEYS, "DEFAULT", "Grid", "bogus", "dätum", " grid"]
FUZZ_KEYS = sorted(
    {"kind", "scale", *(key for _, keys in DATUM_KINDS.values() for key in keys),
     *(key for keys in CONFIG_KEYS.values() for key in keys)}
) + ["N", "seed ", "ключ", "x"]
FUZZ_VALUES = [
    "", "0", "1", "-1", "4", "32", "64", "3.5", "0.5", "0.5, 0.25", "0.5 0.25 0.125", "1e-3",
    "1e999", "-1e999", "nan", "NaN", "inf", "-inf", "9" * 30, "9" * 5000, "0x10", "1_000",
    "shear", "smooth_random", "disc_patch", "fractal_patch", "koch-like", "identity", "mollified",
    "yes", "off", "flase", "out%x", "ü", "∞", "½", "１２", "\t4", "4 # comment", "[grid]", "a = b",
]
FUZZ_LINES = [
    "no value here", "= 4", "[grid", "grid]", "[]", "  continued", "# comment", "; comment", ":", "[[x]]",
]
# The values a key of SHEAR_CFG is swapped for: valid ones and the edges of
# its check, so that a useful share of the drawn texts loads, with varied grids.
SWAP_VALUES = {
    "kind": ["shear", "smooth_random", "disc_patch", "fractal_patch", "vortex"],
    "n": ["8", "16", "32", "64", "48", "0"],
    "n_ref": ["8", "16", "32", "64", "48", "0"],
    "t_end": ["0.5", "1e-3", "2", "0", "-1"],
    "samples": ["1", "4", "64", "0"],
    "alphas": ["0.5, 0.25", "0.1", "0.5 0.25 0.125", "0", "-0.5"],
    "particle_stride": ["1", "2", "3", "4", "5", "8", "16"],
}


@st.composite
def random_config_text(draw):
    """Config text: the sections of SHEAR_CFG or none, some of their values
    swapped for one of SWAP_VALUES, in half of the texts random sections
    and entries (any value) merged in, and now and then a malformed line."""
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    value = st.one_of(st.sampled_from(FUZZ_VALUES), text)
    sections = {}
    if draw(st.booleans()):
        for block in SHEAR_CFG.strip().split("\n\n"):
            header, *entries = block.splitlines()
            sections[header[1:-1]] = dict(entry.split(" = ") for entry in entries)
    for entries in sections.values():
        for key in entries:
            if draw(st.booleans()):
                entries[key] = draw(st.sampled_from(SWAP_VALUES[key]))
    for name in draw(st.lists(st.sampled_from(FUZZ_SECTIONS), max_size=3 * draw(st.booleans()))):
        sections.setdefault(name, {}).update(draw(st.dictionaries(st.sampled_from(FUZZ_KEYS), value, max_size=4)))
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key}{draw(st.sampled_from(['=', ':', ' = ']))}{v}" for key, v in entries.items()]
    if draw(st.integers(0, 3)) == 3:
        malformed = draw(st.one_of(st.sampled_from(FUZZ_LINES), text))
        lines.insert(draw(st.integers(0, len(lines))), malformed)
    return "\n".join(lines) + "\n"


def _forbid_solves(monkeypatch):
    import alphaeuler.cli as cli
    import alphaeuler.harness as harness

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the config was checked")

    monkeypatch.setattr(harness, "run", no_solve)
    monkeypatch.setattr(cli, "run", no_solve)


@pytest.fixture
def shear_cfg(tmp_path):
    path = tmp_path / "shear.cfg"
    path.write_text(SHEAR_CFG)
    return path


class TestBoundsCommand:
    def test_frozen_K_row(self, capsys):
        code = main(
            [
                "bounds",
                "--c1", "1", "--c2", "1", "--c", "1",
                "--T", "1", "--gamma0", "0",
                "--alphas", "0.01",
                "--nt", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "alpha,t,K,flow_bound,vort_bound"
        last = out[-1].split(",")
        assert float(last[0]) == 0.01
        assert float(last[1]) == 1.0
        assert float(last[2]) == pytest.approx(K_001_T1, rel=1e-12)

    def test_csv_file_output(self, tmp_path):
        target = tmp_path / "bounds.csv"
        code = main(["bounds", "--alphas", "0.1,0.01", "--output", str(target)])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 5

    def test_empty_alphas_rejected(self, capsys):
        assert main(["bounds", "--alphas", " "]) == 1

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--alphas", "0.1,abc"], "--alphas = '0.1,abc' is invalid: could not convert string to float: 'abc'"),
            (["--alphas", "0.1 nan"], "--alphas = '0.1 nan' is invalid: expected a finite number"),
            (["--alphas", "0.1", "--nt", "-1"], "--nt must be at least 1, got -1"),
            (["--alphas", "0.1", "--nt", "0"], "--nt must be at least 1, got 0"),
            (["--alphas", "0.1", "--c1", "nan"], "bound constant c1 must be finite, got nan"),
            (["--alphas", "0.1", "--c", "nan"], "bound constant c must be finite, got nan"),
            (["--alphas", "0.1", "--m", "nan"], "bound constant m must be finite, got nan"),
            (["--alphas", "0.1", "--gamma0", "nan"], "bound constant gamma0 must be finite, got nan"),
            (["--alphas", "0.1", "--T", "inf"], "bound constant horizon must be finite, got inf"),
        ],
        ids=["alphas_token", "alphas_nan", "nt_negative", "nt_zero", "c1_nan", "c_nan", "m_nan", "gamma0_nan",
             "T_inf"],
    )
    def test_bad_flag_value_is_named(self, capsys, flags, named):
        # "could not convert string to float: 'abc'" named no flag, and
        # --nt -1 ended in numpy's "Number of samples, -1, must be non-negative."
        # A NaN constant wrote rows of nan and exited 0, and --T inf printed
        # a numpy RuntimeWarning before failing on t = nan.
        assert main(["bounds", *flags]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_missing_config_exits_1(self, capsys):
        assert main(["sweep", "--config", "missing.cfg"]) == 1

    def test_sweep_writes_outputs(self, shear_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(shear_cfg), "--output", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert (out / "summary.json").exists()

    def test_out_of_memory_exits_2_without_traceback(self, shear_cfg, tmp_path, capsys, monkeypatch):
        import alphaeuler.cli as cli

        def no_memory(cfg):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(cli, "run_sweep", no_memory)
        assert main(["sweep", "--config", str(shear_cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "runtime failure: out of memory: Unable to allocate 8.00 TiB for an array\n"


class TestSimulateCommand:
    def test_monitor_csv_constant_alpha_norm(self, shear_cfg, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--config", str(shear_cfg), "--alpha", "0.1", "--output", str(out)]
        )
        assert code == 0
        lines = (out / "monitor.csv").read_text().strip().splitlines()
        assert lines[1] == "t,energy,alpha_norm,q_l1,q_l2,q_l4,q_linf"
        alpha_norms = [float(row.split(",")[2]) for row in lines[2:]]
        assert np.ptp(alpha_norms) < 1e-10
        assert sorted(path.name for path in out.iterdir()) == ["monitor.csv"]

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_alpha_exits_1_before_the_datum_is_built(self, shear_cfg, tmp_path, capsys, monkeypatch, value):
        # the message used to come from AlphaParam and did not name --alpha
        import alphaeuler.cli as cli

        def no_datum(*args, **kwargs):
            raise AssertionError("the datum was built before --alpha was checked")

        _forbid_solves(monkeypatch)
        monkeypatch.setattr(cli, "build_datum", no_datum)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(shear_cfg), "--alpha", value, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"--alpha must be finite and >= 0, got {float(value)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_alpha_zero_is_valid(self, shear_cfg, tmp_path):
        assert main(["simulate", "--config", str(shear_cfg), "--alpha", "0", "--output", str(tmp_path / "sim")]) == 0


class TestFlowsCommand:
    def test_flows_csv(self, shear_cfg, tmp_path):
        out = tmp_path / "flows"
        code = main(
            ["flows", "--config", str(shear_cfg), "--alpha", "0.5", "--output", str(out)]
        )
        assert code == 0
        lines = (out / "flows.csv").read_text().strip().splitlines()
        assert lines[1] == "t,mean_distance,l2_distance,g_delta,delta,log_bound"
        final = lines[-1].split(",")
        assert float(final[1]) > 0  # the filtered shear lags the reference

    def test_flows_holds_no_whole_trajectory(self, tmp_path):
        # the two lattices are traced in lockstep and each sample is reduced
        # at once, so the traced peak stays below the bytes of the two
        # whole trajectories it used to hold
        import tracemalloc

        path = tmp_path / "dense.cfg"
        path.write_text(SHEAR_CFG.replace("n = 32", "n = 64").replace("samples = 4", "samples = 64")
                        .replace("particle_stride = 8", "particle_stride = 1"))
        cfg = load_config(path)
        assert (cfg.n, cfg.n_ref, cfg.samples, cfg.particle_stride) == (64, 64, 64, 1)
        trajectories = 2 * (cfg.samples + 1) * cfg.n**2 * 16
        tracemalloc.start()
        try:
            assert main(["flows", "--config", str(path), "--output", str(tmp_path / "flows")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "flows" / "flows.csv").read_text().splitlines()) == 2 + cfg.samples + 1
        assert peak < trajectories

    def test_flows_wraps_each_position_once(self, shear_cfg, tmp_path, monkeypatch):
        # a row used to wrap the stream's positions again, in a particle set
        # of each lattice: two more wraps per row
        from alphaeuler import lagrangian, vorticity

        wraps = []
        wrap = lagrangian.wrap_periodic

        def counting(x):
            wraps.append(np.shape(x))
            return wrap(x)

        monkeypatch.setattr(lagrangian, "wrap_periodic", counting)
        monkeypatch.setattr(vorticity, "wrap_periodic", counting)
        assert main(["flows", "--config", str(shear_cfg), "--alpha", "0.5", "--output", str(tmp_path / "f")]) == 0
        samples = load_config(shear_cfg).samples
        # each lattice's seed and its advance across each sample interval,
        # and the torus distance of each row
        assert len(wraps) == 2 * (1 + samples) + (samples + 1)

    def test_datum_is_released_before_the_traces(self, shear_cfg, tmp_path, monkeypatch):
        # flows used to hold the n_ref datum through both traces
        import weakref

        import alphaeuler.cli as cli
        from alphaeuler.lagrangian import TrajectoryStream

        datums, alive = [], []
        study, push = cli.study_datum, TrajectoryStream.push

        def tracked_study(cfg):
            datum, omega0 = study(cfg)
            datums.append(weakref.ref(datum))
            return datum, omega0

        def checking_push(self, t, u):
            alive.append(datums[0]() is not None)
            return push(self, t, u)

        monkeypatch.setattr(cli, "study_datum", tracked_study)
        monkeypatch.setattr(TrajectoryStream, "push", checking_push)
        assert main(["flows", "--config", str(shear_cfg), "--output", str(tmp_path / "f")]) == 0
        assert len(datums) == 1
        assert alive and not any(alive)

    @pytest.mark.parametrize(
        "flag, value",
        [("--c-cal", "nan"), ("--c-cal", "inf"), ("--c-cal", "0"), ("--c-cal", "-2"),
         ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "0"), ("--alpha", "-1")],
    )
    def test_bad_flag_exits_1_before_any_solve(self, shear_cfg, tmp_path, capsys, monkeypatch, flag, value):
        # a NaN --c-cal used to write a log_bound column of nan, and a NaN
        # --alpha failed only after the reference had run
        _forbid_solves(monkeypatch)
        out = tmp_path / "flows"
        assert main(["flows", "--config", str(shear_cfg), flag, value, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{flag} must be positive and finite, got {float(value)}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestReportCommand:
    def test_merges_and_emits_gnuplot(self, shear_cfg, tmp_path):
        sweep_out = tmp_path / "out"
        main(["sweep", "--config", str(shear_cfg), "--output", str(sweep_out)])
        report_out = tmp_path / "report"
        code = main(
            ["report", "--inputs", str(sweep_out / "sweep.csv"), "--output", str(report_out)]
        )
        assert code == 0
        merged = (report_out / "merged.csv").read_text().splitlines()
        assert merged[1].startswith("source,alpha,")
        rates = (report_out / "rates.csv").read_text().splitlines()
        assert len(rates) == 1 + 2  # two alphas
        assert (report_out / "plot.gp").read_text().startswith("set logscale xy")

    def test_two_sweeps_keep_their_own_rows(self, tmp_path):
        # every sweep writes sweep.csv, and the file stem used to be the
        # source: two sweeps merged into one row of both
        a, b = tmp_path / "a" / "sweep.csv", tmp_path / "b" / "sweep.csv"
        rows = {a: "0.5,0.0,6.0,0.0,1.0,0.0,0.7,0.1,0.0,1.0", b: "0.5,0.0,2.0,0.0,0.5,0.0,0.8,0.9,0.0,1.0"}
        for path, row in rows.items():
            path.parent.mkdir()
            path.write_text(f"# generated 2026-01-01\n{CSV_COLUMNS}\n{row}\n")
        report_out = tmp_path / "report"
        assert main(["report", "--inputs", str(a), str(b), "--output", str(report_out)]) == 0
        rates = (report_out / "rates.csv").read_text().splitlines()
        assert rates[1:] == [f"{a},0.5,6.0,1.0,0.7,0.1", f"{b},0.5,2.0,0.5,0.8,0.9"]
        merged = (report_out / "merged.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in merged[2:]] == [str(a), str(b)]

    @pytest.mark.parametrize("folder, repeats, named", [("a", 2, "names {} more than once"), ("a,b", 1, "path {} holds a comma")])
    def test_unusable_source_exits_1_naming_it(self, tmp_path, capsys, folder, repeats, named):
        # the input path is the source cell of its rows
        path = tmp_path / folder / "sweep.csv"
        path.parent.mkdir()
        path.write_text(f"{CSV_COLUMNS}\n0.5,0.0,1.0,0.0,1.0,0.0,0.0,0.0,0.0,1.0\n")
        report_out = tmp_path / "report"
        assert main(["report", "--inputs", *[str(path)] * repeats, "--output", str(report_out)]) == 1
        err = capsys.readouterr().err
        assert f"error: --inputs {named.format(path)}" in err
        assert not report_out.exists()

    @pytest.mark.parametrize(
        "body, named",
        [
            (
                "t,mean_distance,l2_distance,g_delta,delta,log_bound\n0.0,0.0,0.0,0.0,0.0,nan\n",
                "no column alpha, vel_l2_err, vort_l2_err, flow_dist",
            ),
            (CSV_COLUMNS + "\n", "holds no data rows"),
            (CSV_COLUMNS + "\n0.5,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n0.5,0.1,1.0\n", "line 4"),
            (
                CSV_COLUMNS + "\n0.5,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n0.5,0.1,abc,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n",
                "line 4, column vel_l2_err: 'abc' is not a number",
            ),
            (CSV_COLUMNS + "\nhalf,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n", "line 3, column alpha: 'half' is not a number"),
            (
                CSV_COLUMNS + "\n0.5,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n0.5,0.1,nan,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n",
                "line 4, column vel_l2_err: 'nan' is not finite",
            ),
            (CSV_COLUMNS + "\n0.5,0.0,1.0,0.0,inf,0.0,0.0,0.0,0.0,1.0\n", "line 3, column vort_l2_err: 'inf' is not finite"),
        ],
        ids=["flows_csv", "header_only", "short_row", "not_a_number", "alpha_not_a_number", "nan_cell", "inf_cell"],
    )
    def test_bad_input_exits_1(self, tmp_path, capsys, body, named):
        # a flows CSV ended in KeyError: 'alpha' and a short row in an
        # IndexError, each with a traceback; max(sup, nan) kept sup, so a
        # NaN error cell left rates.csv as if it were not there
        path = tmp_path / "input.csv"
        path.write_text("# generated 2026-01-01\n" + body)
        report_out = tmp_path / "report"
        assert main(["report", "--inputs", str(path), "--output", str(report_out)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert "Traceback" not in err
        assert not report_out.exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["bounds", "--alphas", "0.1", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_module_entry_point(self, shear_cfg):
        proc = subprocess.run(
            [sys.executable, "-m", "alphaeuler", "bounds", "--alphas", "0.01"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("alpha,t,K,flow_bound,vort_bound")


class TestSharedPipeline:
    def test_sweep_persists_once(self, shear_cfg, tmp_path, monkeypatch):
        import alphaeuler.harness as harness

        calls = []
        original = harness.persist_report

        def counting(report, cfg):
            calls.append(report)
            original(report, cfg)

        monkeypatch.setattr(harness, "persist_report", counting)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(shear_cfg), "--output", str(out)]) == 0
        assert len(calls) == 1
        assert calls[0].bounds is not None
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bounds"] == {"exceeded": [], "rescaled_c": None}

    def test_flows_matches_sweep_with_mollified_family(self, tmp_path):
        # flows runs the sweep's reference and per-alpha path, approximating
        # family included, so its columns equal the sweep's bit for bit
        cfg = tmp_path / "mollified.cfg"
        cfg.write_text(SHEAR_CFG + "family = mollified\n")
        sweep_out, flows_out = tmp_path / "sweep", tmp_path / "flows"
        assert main(["sweep", "--config", str(cfg), "--output", str(sweep_out)]) == 0
        assert main(
            ["flows", "--config", str(cfg), "--alpha", "0.5", "--output", str(flows_out)]
        ) == 0

        def table(path):
            rows = [
                line.split(",")
                for line in path.read_text().splitlines()
                if not line.startswith("#")
            ]
            return [dict(zip(rows[0], row)) for row in rows[1:]]

        sweep_rows = [r for r in table(sweep_out / "sweep.csv") if r["alpha"] == "0.5"]
        flows_rows = table(flows_out / "flows.csv")
        assert len(flows_rows) == len(sweep_rows) == 5
        assert [r["delta"] for r in flows_rows] == [r["delta"] for r in sweep_rows]
        assert [r["mean_distance"] for r in flows_rows] == [r["flow_dist"] for r in sweep_rows]
        # the mollified datum lags the reference from the start
        assert float(flows_rows[-1]["delta"]) > 0.0

    def test_misspelt_datum_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(SHEAR_CFG.replace("kind = shear", "kind = shear\nwavenumbr = 2"))
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "'wavenumbr'" in err and "'shear'" in err

    @pytest.mark.parametrize("command", ["sweep", "flows"])
    @pytest.mark.parametrize(
        "key, value", [("substeps", 0), ("substeps", -2), ("particle_stride", 0), ("particle_stride", 3)]
    )
    def test_bad_particle_settings_exit_1_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, key, value
    ):
        # substeps < 1 froze the particles (flow_dist 0 in every row), stride
        # 0 divided by zero, and a stride not dividing n failed only after
        # the reference solve
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        keys = {"particle_stride": 8, "substeps": 4, key: value}
        lines = "".join(f"{k} = {v}\n" for k, v in keys.items())
        cfg.write_text(SHEAR_CFG.replace("particle_stride = 8\n", lines))
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"[sweep] {key}" in err
        assert "Traceback" not in err

    def test_cli_import_skips_scipy_stats(self):
        # the benchmark's set-up probe imports the CLI and parses a config;
        # neither may load scipy
        probe = (
            "import sys, alphaeuler.cli\n"
            "from alphaeuler.harness import load_config\n"
            "print('scipy.stats' in sys.modules)\n"
            f"load_config({str(DEMO_CONFIGS / 'smooth_sweep.cfg')!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        stats_loaded, scipy_modules = proc.stdout.split("\n")[:2]
        assert stats_loaded == "False"
        assert scipy_modules == "[]"


class TestConfigValues:
    @pytest.mark.parametrize("word, expected", [("off", False), ("No", False), ("0", False), ("ON", True), ("yes", True)])
    def test_richardson_takes_configparser_booleans(self, tmp_path, word, expected):
        cfg = tmp_path / "gate.cfg"
        cfg.write_text(SHEAR_CFG + f"richardson = {word}\n")
        assert load_config(cfg).richardson is expected

    @pytest.mark.parametrize("command", ["sweep", "flows"])
    def test_misspelt_richardson_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # "flase" used to switch the Richardson gate off without a word
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(SHEAR_CFG + "richardson = flase\n")
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "[sweep] richardson" in err and "'flase'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("n = 32", "n = 3.5e1", "[grid] n = '3.5e1'"),
            ("n_ref = 64", "n_ref = 6 4", "[grid] n_ref = '6 4'"),
            ("t_end = 0.5", "t_end = one", "[time] t_end = 'one'"),
            ("samples = 4", "samples = four", "[time] samples = 'four'"),
            ("alphas = 0.5, 0.25", "alphas = 0.5, quarter", "[sweep] alphas = '0.5, quarter'"),
            ("kind = shear", "kind = shear\nwavenumber = 1.5", "[datum] wavenumber = '1.5'"),
            ("t_end = 0.5", "t_end = nan", "[time] t_end = 'nan' is invalid: expected a positive and finite number"),
            ("t_end = 0.5", "t_end = inf", "[time] t_end = 'inf' is invalid: expected a positive and finite number"),
            ("samples = 4", "samples = 4\ncfl = nan", "[time] cfl = 'nan' is invalid: expected a number in (0, 1]"),
            ("alphas = 0.5, 0.25", "alphas = 0.5, nan, 0.1", "[sweep] alphas = '0.5, nan, 0.1' is invalid"),
            ("alphas = 0.5, 0.25", "alphas = inf, 0.5, 0.1", "[sweep] alphas = 'inf, 0.5, 0.1' is invalid"),
            (
                "particle_stride = 8",
                "particle_stride = 8\nfamily = mollifed",
                "[sweep] family = 'mollifed' is invalid: expected one of identity, mollified",
            ),
        ],
        ids=[
            "n", "n_ref", "t_end", "samples", "alphas", "datum",
            "t_end_nan", "t_end_inf", "cfl_nan", "alphas_nan", "alphas_inf", "family",
        ],
    )
    def test_uncastable_value_is_named(self, tmp_path, capsys, monkeypatch, old, new, named):
        # the message used to be only "invalid literal for int() with base 10: '3.5e1'"
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        assert old in SHEAR_CFG
        cfg.write_text(SHEAR_CFG.replace(old, new, 1))
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, named", [("0.5", "got 0.5"), ("nan", "got nan"), ("2, 0", "got 0.0"), ("-inf", "got -inf")]
    )
    def test_p_list_below_one_exits_1_before_any_solve(self, tmp_path, capsys, monkeypatch, value, named):
        # p = 0.5 used to fail only in the first comparison, after every solve
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "norms.cfg"
        cfg.write_text(SHEAR_CFG + f"p_list = {value}\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "[sweep] p_list" in err and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["2", "0", "-1"])
    @pytest.mark.parametrize("command", ["sweep", "flows", "simulate"])
    def test_cfl_outside_unit_interval_exits_1_naming_it(self, tmp_path, capsys, monkeypatch, command, value):
        # cfl = 2 used to pass load_config and fail as the first run
        # started, after the datum was built, with no key named
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "cfl.cfg"
        cfg.write_text(SHEAR_CFG.replace("samples = 4", f"samples = 4\ncfl = {value}"))
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: [time] cfl = {value!r} is invalid: expected a number in (0, 1]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_p_list_takes_inf(self, tmp_path):
        cfg = tmp_path / "norms.cfg"
        cfg.write_text(SHEAR_CFG + "p_list = 1, inf\n")
        assert load_config(cfg).p_list == (1.0, 2.0, 4.0, float("inf"))

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_non_positive_worker_count_exits_1(self, tmp_path, capsys, monkeypatch, value):
        # it used to run silently on one worker
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "workers.cfg"
        cfg.write_text(SHEAR_CFG + f"workers = {value}\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"[sweep] workers = {value!r} is invalid: expected an integer >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("n = 32", "n = 48", "[grid] n = '48' is invalid: expected a power of two >= 8"),
            ("n = 32", "n = 0", "[grid] n = '0' is invalid: expected a power of two >= 8"),
            ("n = 32", "n = -1", "[grid] n = '-1' is invalid: expected a power of two >= 8"),
            ("n_ref = 64", "n_ref = 48", "[grid] n_ref = '48' is invalid: expected a power of two >= 8"),
            ("n_ref = 64", "n_ref = 16", "[grid] n_ref = 16 is invalid: expected at least [grid] n = 32"),
            (
                "particle_stride = 8",
                "particle_stride = 3",
                "[sweep] particle_stride = 3 is invalid: expected a divisor of [grid] n = 32",
            ),
        ],
        ids=["n_48", "n_0", "n_negative", "n_ref_48", "n_ref_coarser", "stride_not_a_divisor"],
    )
    @pytest.mark.parametrize("command", ["sweep", "flows", "simulate"])
    def test_bad_grid_exits_1_naming_the_key(self, tmp_path, capsys, monkeypatch, command, old, new, named):
        # n = 48 used to load and fail in Grid with a message that named no key
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "grid.cfg"
        assert old in SHEAR_CFG
        cfg.write_text(SHEAR_CFG.replace(old, new, 1))
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: {named}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestConfigSyntax:
    @pytest.mark.parametrize(
        "text, named",
        [
            (SHEAR_CFG.replace("n = 32", "n = 32\nn = 64"), "option 'n' in section 'grid' already exists"),
            (SHEAR_CFG + "\n[grid]\nn = 64\n", "section 'grid' already exists"),
            ("kind = shear\n" + SHEAR_CFG, "no section headers"),
            (SHEAR_CFG.replace("kind = shear", "kind = shear\nthis line has no value"), "parsing errors"),
        ],
        ids=["duplicate_key", "duplicate_section", "no_section_header", "no_value"],
    )
    @pytest.mark.parametrize("command", ["sweep", "flows", "simulate"])
    def test_malformed_file_exits_1(self, tmp_path, capsys, monkeypatch, command, text, named):
        # each ended in a configparser traceback
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "malformed.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config file {cfg} is malformed" in err and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, named",
        [
            (SHEAR_CFG + "\n[bogus]\nx = 1\n", "unknown config section [bogus] (accepted: [datum], [grid], [time]"),
            (SHEAR_CFG + "\n[outptu]\ndir = o\n", "unknown config section [outptu]"),
            ("[DEFAULT]\nsamples = 4\n" + SHEAR_CFG, "unknown config section [DEFAULT]"),
            (SHEAR_CFG.replace("n_ref = 64", "nref = 64"), "unknown [grid] key 'nref' (accepted: n, n_ref)"),
            (SHEAR_CFG.replace("samples = 4", "sample = 4"), "unknown [time] key 'sample' (accepted: t_end, cfl, samples)"),
            (SHEAR_CFG + "worker = 2\n", "unknown [sweep] key 'worker' (accepted: alphas, p_list, particle_stride,"),
            (SHEAR_CFG + "particle_strde = 4\n", "unknown [sweep] key 'particle_strde'"),
            (
                SHEAR_CFG + "seed = 3\n",
                "unknown [sweep] key 'seed' (accepted: alphas, p_list, particle_stride, substeps, family, "
                "workers, richardson)",
            ),
            (SHEAR_CFG + "\n[output]\ndirectory = o\n", "unknown [output] key 'directory' (accepted: dir)"),
        ],
        ids=[
            "section", "misspelt_section", "default_section", "grid", "time", "sweep", "sweep_stride",
            "sweep_seed", "output",
        ],
    )
    @pytest.mark.parametrize("command", ["sweep", "flows", "simulate"])
    def test_unknown_section_or_key_exits_1(self, tmp_path, capsys, monkeypatch, command, text, named):
        # each loaded without a word, and the run used the default in its place
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "unknown.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_directory_as_config_exits_1_naming_it(self, tmp_path, capsys, monkeypatch):
        # the parser skipped what it could not open: "config requires a
        # [datum] section"
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "configs"
        cfg.mkdir()
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: config file {cfg} cannot be read: " in err
        assert "Traceback" not in err

    def test_non_utf8_config_exits_1_naming_it(self, tmp_path, capsys, monkeypatch):
        # the decode error named no file
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(SHEAR_CFG.encode() + b"# caf\xe9 \xff\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: config file {cfg} cannot be read: 'utf-8' codec can't decode byte 0xe9" in err
        assert "Traceback" not in err

    def test_percent_sign_is_literal(self, tmp_path):
        # it used to end in an InterpolationSyntaxError
        cfg = tmp_path / "percent.cfg"
        cfg.write_text(SHEAR_CFG + "\n[output]\ndir = out%x\n")
        assert load_config(cfg).output_dir == Path("out%x")

    @settings(
        max_examples=200, deadline=None, database=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=random_config_text())
    @example(text=SHEAR_CFG.replace("n = 32", "n = 48"))  # it loaded, and the run failed in Grid
    @example(text=SHEAR_CFG.replace("n_ref = 64", "n_ref = 48"))
    # loaded texts with a reference grid below 64, which the drawn ones lack
    @example(text=SHEAR_CFG.replace("n = 32\nn_ref = 64", "n = 16\nn_ref = 32"))
    @example(text=SHEAR_CFG.replace("n = 32\nn_ref = 64", "n = 8\nn_ref = 16"))
    def test_random_config_text_loads_or_exits_1(self, tmp_path, monkeypatch, text):
        # whatever the file holds, a config or a message naming the fault:
        # never another exception, never a traceback
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text(text, encoding="utf-8")
        try:
            loaded = load_config(cfg)
        except (ValueError, FileNotFoundError):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
            assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
        else:
            # a loaded config holds a study the package can set up
            assert isinstance(loaded, ExperimentConfig)
            Grid(loaded.n_ref)
            seed_particles(Grid(loaded.n), loaded.particle_stride)


class TestDatumValues:
    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("kind = shear", "kind = shear\nwavenumber = 15", "no mode in the dealias band |k| <= 10 of the n = 32"),
            ("kind = shear", "kind = shear\nwavenumber = 40", "wavenumber=40 lies outside 1..21"),
            ("kind = shear", "kind = shear\nwavenumber = 0", "wavenumber=0 lies outside 1..21"),
            ("kind = shear", "kind = shear\nscale = 0", "no mode in the dealias band"),
            ("kind = shear", "kind = shear\nscale = nan", "[datum] scale = 'nan' is invalid"),
            ("kind = shear", "kind = shear\nscale = -inf", "[datum] scale = '-inf' is invalid"),
            ("kind = shear", "kind = disc_patch\namplitude = inf", "[datum] amplitude = 'inf' is invalid"),
        ],
        ids=["outside_study_band", "aliased", "zero_wavenumber", "zero_scale", "nan_scale", "inf_scale", "inf_amplitude"],
    )
    @pytest.mark.parametrize("command", ["sweep", "flows"])
    def test_empty_or_non_finite_datum_exits_1_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, old, new, named
    ):
        # wavenumber 15 and 40 wrote a table of zeros and exited 0; a
        # non-finite scale exited 2 once the solves had started
        _forbid_solves(monkeypatch)
        cfg = tmp_path / "datum.cfg"
        cfg.write_text(SHEAR_CFG.replace(old, new, 1))
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()
