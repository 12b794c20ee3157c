"""Fast self-test of the benchmark (about a minute; not collected by pytest):

    python3 bench/selftest.py

Runs each workload's code path (config, child process, CLI command, output
check, tracing) on inputs of the size of demos/configs/shear.cfg, with
goldens captured on the spot, and checks that:
  - every metric named in BENCHMARK.json is emitted, untraced and traced;
  - the traced count metrics repeat exactly and the span bookkeeping holds;
  - a golden value perturbed beyond the tolerance, or a sweep with shorter
    time steps, fails the execution, while a roundoff-sized perturbation
    passes;
  - the checked-in goldens satisfy the acceptance bands, and a band
    violation is reported.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from run import ROOT, WORK, contract_line, run_benchmark
from workloads import GOLDEN_DIR, RTOL, WORKLOADS, check_bands, compare_outputs

COUNTS = ("spectral.fft.calls", "solver.steps", "lagrangian.bicubic.calls", "bounds.K.calls")


def fail(message: str):
    print(f"selftest: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def tiny(workload):
    """The workload at shear.cfg size: n = 32 (reference 64), a few samples."""
    return replace(
        workload,
        name="tiny_" + workload.name,  # the acceptance bands are not asserted
        n=32,
        n_ref=32 if workload.n_ref == workload.n else 64,
        t_end=0.25,
        samples=4,
        alphas=workload.alphas[:1] if len(workload.alphas) == 1 else (0.5, 0.25, 0.125),
        substeps=2,
    )


def perturb_golden(path: Path, factor: float) -> None:
    """Scale the last numeric cell of the file's last data row."""
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        data["u0_l2"] *= factor
        path.write_text(json.dumps(data))
        return
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * factor)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    golden = work / "golden"

    for full in WORKLOADS.values():
        w = tiny(full)
        seed = 11
        capture = run_benchmark(w, seed, 0, False, golden, probes=0, work=work, mode="capture")
        if capture["failed"]:
            fail(f"{w.name}: capture failed: {capture['problems']}")

        plain = run_benchmark(w, seed, 0, False, golden, probes=1, work=work)
        missing = {m["name"] for m in spec["end_to_end"]} - set(plain["metrics"])
        if plain["failed"] or missing:
            fail(f"{w.name}: untraced run {plain['problems']}, metrics missing {sorted(missing)}")
        if not contract_line(plain, False)["correct"]:
            fail(f"{w.name}: untraced run reported incorrect")

        traced = [run_benchmark(w, seed, 0, True, golden, probes=0, work=work) for _ in range(2)]
        for rec in traced:
            if rec["failed"]:
                fail(f"{w.name}: traced run failed: {rec['problems']}")
            missing = {m["name"] for m in spec["per_layer"]} - set(rec["metrics"])
            if missing:
                fail(f"{w.name}: traced run lacks metrics {sorted(missing)}")
        for name in COUNTS:
            a, b = (rec["metrics"][name] for rec in traced)
            if a != b:
                fail(f"{w.name}: count {name} differs between runs: {a} != {b}")
        m = traced[0]["metrics"]
        if not (m["solver.steps"] > 0 and m["spectral.fft.calls"] > 0 and m["lagrangian.bicubic.calls"] > 0):
            fail(f"{w.name}: trace recorded no solver, FFT or particle work")

        # A smaller CFL number shortens a sweep's time steps.  The flows
        # steps are capped by the sample spacing instead, and its particle
        # substeps are converged to roundoff, so neither shows there.
        if w.command == "sweep":
            changed = run_benchmark(replace(w, cfl=w.cfl / 5), seed, 0, False, golden, probes=0, work=work)
            if not changed["failed"]:
                fail(f"{w.name}: a run with shorter time steps passed the output check")

        target = w.golden_dir(seed, golden) / w.outputs()[0]
        keep = target.read_text()
        perturb_golden(target, 1.0 + 1e-13)
        rounded = run_benchmark(w, seed, 0, False, golden, probes=0, work=work)
        perturb_golden(target, 1.0 + 100 * RTOL)
        broken = run_benchmark(w, seed, 0, False, golden, probes=0, work=work)
        target.write_text(keep)
        if rounded["failed"]:
            fail(f"{w.name}: a roundoff-sized golden change failed: {rounded['problems']}")
        if not broken["metrics"]["failed_frac"] > 0:
            fail(f"{w.name}: a perturbed golden value passed the output check")
        print(f"selftest: {w.name} ok ({broken['problems'][0]})")

    for w in WORKLOADS.values():
        for v in range(len(w.variants)):
            problems = check_bands(w, GOLDEN_DIR / w.name / f"v{v}")
            if problems:
                fail(f"{w.name} v{v} golden outside the acceptance bands: {problems}")
        bad = work / "bands" / w.name
        shutil.copytree(GOLDEN_DIR / w.name / "v0", bad, dirs_exist_ok=True)
        if w.command == "sweep":
            summary = json.loads((bad / "summary.json").read_text())
            summary["vorticity_rates"]["2.0"]["slope"] = 0.0
            summary["velocity_rate"]["slope"] = 2.0
            (bad / "summary.json").write_text(json.dumps(summary))
        else:
            text = (bad / "flows.csv").read_text().splitlines()
            header = text[1].split(",")
            cells = text[-1].split(",")
            cells[header.index("delta")] = "1.5"
            text[-1] = ",".join(cells)
            (bad / "flows.csv").write_text("\n".join(text) + "\n")
        if not check_bands(w, bad):
            fail(f"{w.name}: a band violation was not reported")
        same, _ = compare_outputs(GOLDEN_DIR / w.name / "v0", GOLDEN_DIR / w.name / "v0", w.outputs())
        if same:
            fail(f"{w.name}: golden does not match itself: {same}")
    print("selftest: bands ok")
    shutil.rmtree(work, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
