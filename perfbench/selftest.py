"""Self-test: the correctness check must be able to fail.

For each workload, runs the job once through ``lapbel.cli.main`` in this
process, checks the good output (``failed_frac`` must be 0), then feeds the
check the corrupted copy from ``corrupted`` and requires ``failed_frac``
to rise: a value moved by 1e-6 on ``sphere-wide`` and ``orthogonal-general``,
a missing DomainError record on ``generic-torus`` and a failed verify check
on ``verify-all``. Run from the repository root:

    python3 perfbench/selftest.py [workload ...]

Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import tempfile

from run import OUT_DIR, SRC, WORKLOADS, run_in_process


def main(names) -> int:
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    ok = True
    for name in names:
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            job = workload.generate(0, tmp)
            _, code, stdout = run_in_process(job.argv)
            attempted, failed = workload.check(job, stdout, code)
            print(f"{name}: good output failed_frac={failed / attempted:.4g}")
            ok = ok and failed == 0
            attempted, failed = workload.check(job, *workload.corrupted(stdout))
            print(f"{name}: corrupted output failed_frac={failed / attempted:.4g}")
            ok = ok and failed > 0
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
