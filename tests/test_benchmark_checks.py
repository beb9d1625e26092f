"""The benchmark's own output checks pass on this tree and catch a fault.

``perfbench/workloads.py`` checks each workload's CLI output against a
second lapbel route; a benchmark run counts a run whose check fails as
failed operations. This follows ``perfbench/selftest.py`` in process for
each workload: the seed-0 job, run through ``run.run_in_process``, must
fail no check, and the workload's corrupted copy of that output must fail
at least one. Every file it writes goes under ``tmp_path``.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ["sphere-wide", "orthogonal-general", "generic-torus", "verify-all"]


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``run`` module. Importing it pins the BLAS thread counts in
    ``os.environ``; they are set here first, so each test restores them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    return run


def test_every_workload_is_checked_here(perfbench):
    assert sorted(perfbench.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_the_benchmark_check_passes_and_catches_a_corruption(perfbench, name, tmp_path):
    workload = perfbench.WORKLOADS[name]
    job = workload.generate(0, str(tmp_path))
    _, code, stdout = perfbench.run_in_process(job.argv)
    attempted, failed = workload.check(job, stdout, code)
    assert attempted > 0 and failed == 0
    attempted, failed = workload.check(job, *workload.corrupted(stdout))
    assert failed > 0
