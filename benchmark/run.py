#!/usr/bin/env python3
"""Certified-solve throughput benchmark of minpower.

    python3 benchmark/run.py --workload {greedy-large,oracle-sweep,lp-mid} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0 only
when every instance passed its checks.  See README.md for the workloads.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    # one process, one BLAS/OpenMP thread: set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "minpower" / "__init__.py").is_file():
        print(f"benchmark: no minpower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
