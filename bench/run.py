"""Benchmark of the alphaeuler CLI: wall time, set-up time and peak memory
of the convergence-study commands, plus per-layer numbers from a traced run.

    python3 bench/run.py --workload sweep_smooth --seed 11 --seconds 40 --trace 0

Run from anywhere inside a checkout; it imports the package from the
checkout's `src/`.  Each execution is a fresh `python3 bench/child.py`
process.  A run first starts SETUP_PROBES processes that only import the
package and parse the config, then executes the workload as often as fits
in --seconds (at least once); with --trace 1 it adds one traced execution.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  A full record with provenance goes to
.bench_build/bench/results/.  Exit code 2, with no JSON line, means the
checkout holds no importable package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GOLDEN_DIR, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
ENV_FAILURE = 3
# The only threads are the sweep pool's; BLAS/OpenMP pools stay single.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class EnvironmentFailure(RuntimeError):
    """The checkout cannot run the workload at all (no importable package)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("AEUL_WORKERS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(job: dict, job_path: Path) -> dict:
    """Run one child process to completion and return its result."""
    job_path.write_text(json.dumps(job))
    result_path = Path(job["result"])
    result_path.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job_path)],
            stdout=sys.stderr,
            env=_child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    elapsed = time.monotonic() - t_spawn
    if code == ENV_FAILURE:
        raise EnvironmentFailure("the child could not import alphaeuler from " + str(SRC))
    if code != 0 or not result_path.is_file():
        return {"wall_s": elapsed, "problems": [f"child process ended with {code}"]}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["setup_end"] - t_spawn
    return result


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "alphaeuler").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    golden_root: Path = GOLDEN_DIR,
    probes: int = SETUP_PROBES,
    work: Path = WORK,
    mode: str = "run",
) -> dict:
    """Run one benchmark run and return its full record.  With mode
    "capture" the executions write the golden files instead of checking."""
    if not (SRC / "alphaeuler" / "__init__.py").is_file():
        raise EnvironmentFailure(f"no package at {SRC / 'alphaeuler'}")
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    tmp = work / "tmp" / f"{tag}-{os.getpid()}"
    results = work / "results"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    config_text = workload.config_text(seed)
    config = tmp / "workload.cfg"
    config.write_text(config_text)

    count = 0

    def job(kind: str, traced: bool = False) -> dict:
        nonlocal count
        count += 1
        out_dir = tmp / f"out{count}"
        return spawn(
            {
                "src": str(SRC),
                "workload": workload.to_json(),
                "config": str(config),
                "argv": workload.cli_args(config, out_dir),
                "out_dir": str(out_dir),
                "golden": str(workload.golden_dir(seed, golden_root)),
                "mode": kind,
                "trace": traced,
                "result": str(tmp / f"result{count}.json"),
                "spans": str(results / f"{tag}-spans.csv.gz"),
            },
            tmp / f"job{count}.json",
        )

    try:
        setups = [job("setup") for _ in range(probes)]
        # Execute until the next execution would end past `seconds`,
        # judged by the longest one so far; always at least once.
        executions = []
        t_begin = time.monotonic()
        longest = 0.0
        while not executions or time.monotonic() - t_begin + longest <= seconds:
            t0 = time.monotonic()
            executions.append(job(mode))
            longest = max(longest, time.monotonic() - t0)
        traced = job("run", traced=True) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = executions + ([traced] if traced else [])
    failed = [e for e in attempted if e["problems"]]
    wall = _median(e["wall_s"] for e in executions)
    metrics = {
        "wall_s": wall,
        "setup_s": _median(e.get("setup_s") for e in setups + attempted),
        "peak_rss_mb": _median(e.get("peak_rss_mb") for e in executions),
        "failed_frac": len(failed) / len(attempted),
        "output_max_rel_dev": max(e.get("max_rel_dev", 0.0) for e in attempted),
    }
    if traced is not None:
        metrics.update(traced.get("layer", {}))
        metrics["proc.cpu_s"] = _median(e.get("cpu_s") for e in executions)
        metrics["proc.import.s"] = _median(e.get("import_s") for e in setups + attempted)
        metrics["trace.overhead_frac"] = traced["wall_s"] / wall - 1.0

    versions = next((e["versions"] for e in setups + attempted if "versions" in e), {})
    record = {
        "workload": workload.name,
        "seed": seed,
        "variant": workload.variant(seed),
        "trace": bool(trace),
        "seconds": seconds,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": versions.get("numpy"),
            "scipy": versions.get("scipy"),
            "git_commit": _git_commit(),
            "src_sha256": _src_digest(),
            "sweep_workers": workload.workers,
            "thread_env": THREAD_ENV,
            "config": config_text,
        },
        "attempted": len(attempted),
        "failed": len(failed),
        "problems": [p for e in failed for p in e["problems"]],
        "metrics": metrics,
        "executions": [{k: v for k, v in e.items() if k != "layer"} for e in attempted],
        "setup_probes": setups,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def contract_line(record: dict, trace: bool, spec_path: Path = ROOT / "BENCHMARK.json") -> dict:
    spec = json.loads(spec_path.read_text())
    names = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            # a metric is missing only when its execution failed
            m["name"]: {"value": record["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except EnvironmentFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(contract_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
