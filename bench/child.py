"""One benchmark execution in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

The job file (written by run.py) names the workload, its config file, the
output directory and where to write the result.  Modes: `setup` imports
the package and parses the config, then exits; `run` also calls
`alphaeuler.cli.main`, times it and checks the outputs against the golden
files; `capture` writes the outputs as the new golden files instead.
Exit code 3 means the package could not be imported from the checkout.
"""

import json
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

ENV_FAILURE = 3


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    t_import = time.monotonic()
    try:
        import alphaeuler
        import alphaeuler.cli
        from alphaeuler.harness import load_config
    except ImportError as exc:
        print(f"bench: cannot import alphaeuler: {exc}", file=sys.stderr)
        return ENV_FAILURE
    if src not in Path(alphaeuler.__file__).resolve().parents:
        print(f"bench: alphaeuler imported from {alphaeuler.__file__}, not {src}", file=sys.stderr)
        return ENV_FAILURE
    import_s = time.monotonic() - t_import
    load_config(job["config"])
    setup_end = time.monotonic()

    import numpy
    import scipy

    result = {
        "setup_end": setup_end,
        "import_s": import_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if job["mode"] != "setup":
        result.update(execute(job, alphaeuler))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def execute(job: dict, alphaeuler) -> dict:
    from workloads import Workload, check_bands, compare_outputs

    workload = Workload.from_json(job["workload"])
    out_dir = Path(job["out_dir"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(alphaeuler)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    problems = []
    try:
        code = alphaeuler.cli.main(job["argv"])
    except Exception as exc:  # the CLI contract is an exit code, never a traceback
        code = None
        problems.append(f"cli.main raised {type(exc).__name__}: {exc}")
    wall = time.monotonic() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss * 1024 / 1e6,
        "exit_code": code,
        "max_rel_dev": 0.0,
    }
    if tracer is not None:
        tracer.uninstall()
        layer, trace_problems = tracer.layer_metrics(
            wall, workload.workers, workload.n_ref, threading.main_thread().ident
        )
        problems += trace_problems
        out["layer"] = layer
        out["layer_self_s"] = tracer.layer_self_times()
        out["spans"] = len(tracer.spans)
        tracer.write(job["spans"])

    if code != 0:
        problems.append(f"exit code {code}")
        out["problems"] = problems
        return out
    try:
        if job["mode"] == "capture":
            golden = Path(job["golden"])
            golden.mkdir(parents=True, exist_ok=True)
            for name in workload.outputs():
                shutil.copyfile(out_dir / name, golden / name)
        else:
            diffs, out["max_rel_dev"] = compare_outputs(
                out_dir, Path(job["golden"]), workload.outputs()
            )
            problems += diffs
        problems += check_bands(workload, out_dir)
    except (OSError, LookupError, ValueError) as exc:
        problems.append(f"output check: {type(exc).__name__}: {exc}")
    out["problems"] = problems
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1]))
