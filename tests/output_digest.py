"""One SHA-256 per benchmark workload over what its ops compute.

For each workload of benchmarks/physbench/workloads.py, builds the pool
of seed 3 with the workload's own generator, runs each op
once as the benchmark times it (workloads.execute), and hashes, in pool
order, the bytes of the solution x and, on gradient ops, of grad_c,
grad_A and grad_b.  The pools are only read.  Two trees whose digests
agree on one machine gave bit-identical outputs on those pools, so a
change that should leave a route alone is checked by one command run
before and after it.  BLAS runs on one thread, as in the benchmark.

    python -m tests.output_digest
"""

import os
import sys

if __name__ == "__main__":
    # one BLAS thread, fixed before numpy loads, as benchmarks/run.py does
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "benchmarks", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from physbench import workloads  # noqa: E402


def digest(name, seed, tiny=False):
    """The SHA-256 hex digest of the outputs of workload name's pool of
    seed; tiny picks the pool of the benchmark's --tiny runs."""
    h = hashlib.sha256()
    for inst in workloads.WORKLOADS[name].make(seed, tiny):
        lp = inst.build()
        result, grads, _ = workloads.execute(inst, lp, inst.loss_grad(lp))
        arrays = [result.x]
        if grads is not None:
            arrays += [grads.grad_c, grads.grad_A, grads.grad_b]
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def main():
    for name in workloads.WORKLOADS:
        print(f"{name:<12} {digest(name, 3)}", flush=True)


if __name__ == "__main__":
    main()
