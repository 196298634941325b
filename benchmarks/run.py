"""Run one physlp benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload match-small --seed 1 --seconds 20 --trace 0

physlp is imported from the repository's src directory.  The last
line of output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it record the
environment and the figures that are printed but not gated, among them
the raw wall-clock times.  The end-to-end times are given at the
reference speed: each op's time is divided by that of a fixed numpy
kernel run right after it, so that the host's speed drifting does not
move them (see physbench/reference.py).
"""

import os

# One BLAS thread, fixed before numpy loads: on a small machine the
# default thread count measures oversubscription, not physlp.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
# The import is timed this many times, in this process and in fresh
# interpreters, and set-up counts the median.
IMPORT_REPEATS = 3
_TIMED_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t0 = time.perf_counter(); import physlp; print(time.perf_counter() - t0)")


def import_physlp():
    """Import physlp from SRC_DIR; returns the median seconds the import
    took here and in IMPORT_REPEATS - 1 fresh interpreters."""
    sys.path.insert(0, str(SRC_DIR))
    t0 = time.perf_counter()
    try:
        physlp = importlib.import_module("physlp")
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import physlp from {SRC_DIR}: {exc}")
    elapsed = time.perf_counter() - t0
    if Path(physlp.__file__).resolve().parent.parent != SRC_DIR.resolve():
        raise SystemExit(f"run.py: physlp came from {physlp.__file__}, not {SRC_DIR}")
    times = [elapsed]
    for _ in range(IMPORT_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", _TIMED_IMPORT, str(SRC_DIR)],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return median(times)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "commit": git_commit()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write every span here as JSON lines")
    args = parser.parse_args(argv)

    import_s = import_physlp()
    sys.path.insert(0, str(BENCH_DIR))
    from physbench import harness
    from physbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         import_s=import_s, spans_path=args.spans)
    for line in report.notes:
        print(line)
    print(json.dumps(report.result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
