"""Write the golden output files that every benchmark execution is checked
against, one directory per workload variant:

    python3 bench/capture_golden.py [WORKLOAD ...]

Run this only on a commit whose outputs are the reference (the goldens in
the repository come from the commit that added the benchmark).  Each
variant is executed once; the acceptance bands are asserted on the result.
"""

import sys

from run import EnvironmentFailure, run_benchmark
from workloads import FIXTURE_SEED, WORKLOADS


def main(names) -> int:
    status = 0
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for v in range(len(workload.variants)):
            record = run_benchmark(workload, FIXTURE_SEED + v, 0, False, probes=0, mode="capture")
            wall = record["metrics"]["wall_s"]
            print(f"{name} v{v}: {wall:.2f} s, problems {record['problems']}", flush=True)
            status |= bool(record["problems"])
    return status


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except EnvironmentFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
