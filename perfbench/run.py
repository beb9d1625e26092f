"""lapbel benchmark: end-to-end CLI timings and a traced per-module split.

Run from the root of a lapbel source tree:

    python3 perfbench/run.py --workload sphere-wide --seed 1 --seconds 28 --trace 0

Workloads (see ``workloads.py``): ``sphere-wide``, ``orthogonal-general``,
``generic-torus`` and ``verify-all``. The seed fixes the generated job.

With ``--trace 0`` the benchmark runs rounds of three children for
``--seconds`` seconds: a set-up child (import lapbel and build the
workload's manifold, function and frame), the real ``lapbel`` CLI on the
job, and a fixed reference child that does not use lapbel. Set-up and CLI
wall times are rescaled by the neighbouring reference times to reference
seconds (see ``run_children``), which a shared machine's changing speed
does not move. It reports medians over the rounds: ``setup_s``,
``wall_s``, ``points_per_s`` and ``peak_rss_mb``. The raw medians are
printed on the line before the result.

With ``--trace 1`` it runs the same job in this process through
``lapbel.cli.main``, alternating untraced runs with runs traced by
``spans.Tracer``, and reports the per-module split (medians over the traced
runs) and the tracing overhead.

Every output, child or in-process, is checked against a second lapbel route
outside the timed region; the checker itself is checked on every run by
feeding it corrupted copies of the first output, which it must reject.
Children run with BLAS and OpenMP pinned to one thread. The environment
(versions, thread settings, seed, calibration time) is printed as a JSON line
near the end, and samples and spans are written under ``.perfbench/``.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy is first imported, here and in every child.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Median wall time of reference_child.py on an unloaded vCPU of a 2-vCPU
# x86-64 VM at 2.1 GHz (Python 3.11.7, numpy 2.4.6, one BLAS thread).
REFERENCE_S = 0.5

from workloads import WORKLOADS  # noqa: E402  (after the thread pinning)


def pin_to_one_cpu():
    """Pin this process, and so every child it spawns, to the highest CPU it
    may use. On a shared host each vCPU is slowed by its own neighbours;
    with all children on one vCPU, a CLI child and the reference child next
    to it see the same neighbours. Returns the CPU, or None if not pinned."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list, out_path: str) -> dict:
    """Run one child to completion: wall time from spawn to exit, exit
    code, peak RSS from ``os.wait4`` and the captured standard output."""
    with open(out_path, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
    }


def calibrate() -> float:
    """Median time of a fixed pure-Python and numpy loop; shows machine
    speed drift between runs. Never used to scale or gate a metric."""
    import numpy as np

    rng = np.random.default_rng(0)
    M = rng.standard_normal((40, 40))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        for _ in range(500):
            np.linalg.eigvalsh(M + M.T)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(args, calibration_s: float, cpu) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "calibration_s": calibration_s,
    }


def check_all(workload, job, outputs) -> tuple:
    """Check every (stdout, exit code) output. The run is correct when none
    failed and the checker also rejects a corrupted copy of the first one.
    Returns (attempted, failed, correct)."""
    attempted = failed = 0
    for stdout, code in outputs:
        a, f = workload.check(job, stdout, code)
        attempted += a
        failed += f
    correct = failed == 0 and workload.check(job, *workload.corrupted(outputs[0][0]))[1] > 0
    return attempted, failed, correct


def run_children(workload, job, seconds: float, tmp: str) -> dict:
    """End-to-end metrics from CLI children, tracing off.

    Each round spawns a set-up child, a CLI child and a reference child, so
    every set-up and CLI child lies between two reference children. On a
    shared machine the speed of a core changes by up to 1.4x within seconds
    and the mix of slow and fast periods drifts over minutes; a child's wall
    time divided by the mean of its two neighbouring reference times does
    not. Each such ratio is multiplied by ``REFERENCE_S``, the reference
    child's time on an unloaded core, to give reference seconds: the wall
    time the child would have on that core. The metrics are medians of
    these over the run. The raw wall times are kept in the samples."""
    job_path = job.argv[-1] if job.argv[0] == "eval" else ""
    setup_argv = [sys.executable, os.path.join(HERE, "setup_child.py"), workload.name, job_path]
    cli_argv = [sys.executable, "-m", "lapbel", *job.argv]
    reference_argv = [sys.executable, os.path.join(HERE, "reference_child.py")]
    out_path = os.path.join(tmp, "child.out")

    def run_ok(argv, what):
        child = spawn(argv, out_path)
        if child["exit"] != 0:
            raise RuntimeError(f"{what} child exited with {child['exit']}")
        return child["wall_s"]

    # Fill the file cache and byte-code before timing.
    run_ok(setup_argv, "set-up")
    spawn(cli_argv, out_path)
    run_ok(reference_argv, "reference")

    setups, children, references = [], [], [run_ok(reference_argv, "reference")]
    start = time.perf_counter()
    deadline = start + seconds
    round_s = 0.0
    # A round starts only if it should end inside the window.
    while not children or time.perf_counter() + round_s < deadline:
        round_start = time.perf_counter()
        setups.append(run_ok(setup_argv, "set-up"))
        children.append(spawn(cli_argv, out_path))
        references.append(run_ok(reference_argv, "reference"))
        round_s = time.perf_counter() - round_start

    attempted, failed, correct = check_all(
        workload, job, [(c["stdout"], c["exit"]) for c in children]
    )
    # Round i lies between reference children i and i + 1.
    scales = [REFERENCE_S * 2.0 / (references[i] + references[i + 1])
              for i in range(len(children))]
    setup_ref = [t * k for t, k in zip(setups, scales)]
    wall_ref = [c["wall_s"] * k for c, k in zip(children, scales)]
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "wall_s": (statistics.median(wall_ref), "s"),
        "points_per_s": (statistics.median(job.items / w for w in wall_ref), "1/s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "reference_s": statistics.median(references),
        "rounds": len(children),
        "window_s": time.perf_counter() - start,
    }
    samples = {
        "reference_s": references,
        "setup_s": setups,
        "children": [{k: c[k] for k in ("wall_s", "exit", "peak_rss_mb")} for c in children],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": metrics,
        "raw": raw,
        "samples": samples,
    }


def run_in_process(argv: list):
    """``lapbel.cli.main`` in this process, with its standard output captured."""
    from lapbel import cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return time.perf_counter() - start, code, buffer.getvalue()


def layer_metrics(summary: dict, counts, items: int) -> dict:
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    return {
        "constraint_core.field_derivative_s": (total("constraint_core.field_derivative"), "s"),
        "constraint_core.field_derivative_calls": (calls("constraint_core.field_derivative"), "count"),
        "constraint_core.constraint_derivative_s": (total("constraint_core.constraint_derivative"), "s"),
        "constraint_core.constraint_derivative_calls": (calls("constraint_core.constraint_derivative"), "count"),
        "constraint_core.hessian_bytes": (counts["hessian_bytes"], "B"),
        "constraint_core.hessians_per_point": (counts["constraint_hessians"] / items, "count/point"),
        "constraint_core.admission_s": (total("constraint_core.admission"), "s"),
        "sphere.admission_s": (total("sphere.admission"), "s"),
        "orthogonal.admission_s": (total("orthogonal.admission"), "s"),
        "constraint_core.frame_s": (total("constraint_core.frame"), "s"),
        "constraint_core.multipliers_s": (total("constraint_core.multipliers"), "s"),
        "constraint_core.general_self_s": (own("constraint_core.general"), "s"),
        "numkit.solve_spd_s": (total("numkit.solve_spd"), "s"),
        "numkit.solve_spd_calls": (calls("numkit.solve_spd"), "count"),
        "numkit.solve_spd_per_point": (calls("numkit.solve_spd") / items, "count/point"),
        "numkit.sym_condition_s": (total("numkit.sym_condition"), "s"),
        "sphere.closed_form_s": (own("sphere.closed_form"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "oracles.hessian_check_s": (total("oracles.hessian_check"), "s"),
        "oracles.gradient_check_s": (total("oracles.gradient_check"), "s"),
        "oracles.geodesic_s": (total("oracles.geodesic"), "s"),
        "verify.lemmas_sphere_s": (own("verify.lemmas_sphere"), "s"),
        "verify.lemmas_on_s": (own("verify.lemmas_on"), "s"),
        "verify.theorem_equivalence_s": (own("verify.theorem_equivalence"), "s"),
        "verify.eigenfunctions_s": (own("verify.eigenfunctions"), "s"),
        "verify.oracle_s": (own("verify.oracle"), "s"),
    }


def print_split(summary: dict, remainder: float, total: float) -> None:
    """Self time per span name of the last traced run, on standard error.
    The self times and the untraced remainder add up to the traced total."""
    rows = sorted(summary.items(), key=lambda item: -item[1]["self_s"])
    for name, entry in rows:
        print(f"{name:40s} self {entry['self_s']:9.4f} s  {entry['self_s'] / total:6.1%}"
              f"  calls {entry['calls']}", file=sys.stderr)
    print(f"{'(untraced remainder)':40s} self {remainder:9.4f} s  {remainder / total:6.1%}",
          file=sys.stderr)
    print(f"{'(traced total)':40s}      {total:9.4f} s", file=sys.stderr)


def run_traced(workload, job, seconds: float, calibration_s: float) -> dict:
    """Per-layer metrics: untraced and traced in-process runs, alternating."""
    from spans import Tracer

    untraced, traced, summaries, outputs = [], [], [], []
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    # A pair starts only if it should end inside the window.
    while not traced or time.perf_counter() + pair_s < deadline:
        pair_start = time.perf_counter()
        wall, code, stdout = run_in_process(job.argv)
        untraced.append(wall)
        outputs.append((stdout, code))

        run_id = f"traced-{len(traced)}"
        tracer = Tracer()
        tracer.install(run_id)
        try:
            wall, code, stdout = run_in_process(job.argv)
        finally:
            tracer.uninstall()
        traced.append(wall)
        outputs.append((stdout, code))
        summaries.append((tracer.summary(run_id), tracer.counts))
        pair_s = time.perf_counter() - pair_start

    attempted, failed, correct = check_all(workload, job, outputs)
    # After the checks: verify-all learns its item count from its first report.
    layers = [layer_metrics(summary, counts, job.items) for summary, counts in summaries]
    metrics = {
        name: (statistics.median(rep[name][0] for rep in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0,
        "ratio",
    )
    metrics["bench.calibration_s"] = (calibration_s, "s")
    last = summaries[-1][0]
    remainder = traced[-1] - sum(entry["self_s"] for entry in last.values())
    print_split(last, remainder, traced[-1])
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": metrics,
        "samples": {"untraced_s": untraced, "traced_s": traced, "last_split": last,
                    "last_remainder_s": remainder},
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lapbel", "cli.py")):
        print(f"error: no lapbel sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cpu = pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        job = workload.generate(args.seed, tmp)
        calibration_s = calibrate()
        env = environment(args, calibration_s, cpu)
        print(json.dumps({"environment": env}, sort_keys=True), flush=True)
        if args.trace:
            result = run_traced(workload, job, args.seconds, calibration_s)
        else:
            result = run_children(workload, job, args.seconds, tmp)
            print(json.dumps({"raw": result["raw"]}, sort_keys=True), flush=True)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "samples": result["samples"]}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": result["spans"]}, fh)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
