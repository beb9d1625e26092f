"""The benchmark's span tracer still fits the package.

``perfbench/spans.py`` wraps package functions and methods by name, reading
``owner.__dict__[attr]`` for each (``ConstraintSet.__post_init__``,
``ScalarField.hessian``, ``numkit.solve_spd``, ``numkit.sym_condition``, …),
so renaming one or moving it to a base class breaks
``perfbench/run.py --trace 1``. This runs one traced in-process eval and
one traced in-process verify.
"""

import json
from pathlib import Path

import numpy as np

from lapbel import cli, constraint_core, numkit, orthogonal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_span_tracer_installs_traces_an_eval_and_uninstalls(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    wrapped = [
        (constraint_core.ConstraintSet, "__post_init__"),
        (constraint_core.ScalarField, "hessian"),
        (constraint_core.AdaptedFrame, "at"),
        (numkit, "solve_spd"),
        (numkit, "sym_condition"),
        (orthogonal.OrthogonalPoint, "__post_init__"),
        (cli, "main"),
    ]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    points = [orthogonal.random_orthogonal(3, s).to_vector().tolist() for s in range(3)]
    job = {
        "manifold": {"type": "orthogonal", "n": 3},
        "function": {"type": "brockett", "matrix": {"rows": 3, "cols": 3, "data": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]}, "diagonal": [1.0, 2.0, 3.0]},
        "points": points,
        "options": {"path": "general-frame"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))

    tracer = Tracer()
    tracer.install("run")
    try:
        code = cli.main(["eval", "--job", str(path)])
        registered = len(tracer._constraint_ids)
    finally:
        tracer.uninstall()

    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 3
    assert registered == 6  # the O(3) constraint fields, seen by __post_init__
    summary = tracer.summary("run")
    assert summary["cli.main"]["calls"] == 1
    assert summary["constraint_core.frame"]["calls"] == 1  # one stacked build for the 3 points
    assert [owner.__dict__[attr] for owner, attr in wrapped] == originals


def test_span_tracer_traces_a_verify_run_and_every_patched_attribute_exists(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    tracer.install("verify")  # reads owner.__dict__[attr] for every patch
    patched = list(tracer._patches)
    try:
        code = cli.main(["verify", "oracle", "--n", "2..3"])
    finally:
        tracer.uninstall()

    assert code == 0 and json.loads(capsys.readouterr().out)["pass"]
    summary = tracer.summary("verify")
    assert summary["verify.oracle"]["calls"] == 1
    # per n: 5 seeds of one sphere and four O(n) estimates, then 4 for convergence
    assert summary["oracles.geodesic"]["calls"] == 2 * (5 * 5 + 4)
    names = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in patched}
    assert {("lapbel.oracles", "check_gradient"), ("lapbel.oracles", "check_hessian")} <= names
    originals = {}  # an attribute patched twice keeps its first original
    for owner, attr, original in patched:
        originals.setdefault((owner, attr), original)
    assert all(owner.__dict__[attr] is original for (owner, attr), original in originals.items())
