"""End-to-end tests for the command-line interface."""

import importlib
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import lapbel
from lapbel import cli, on_constraint_set, orthogonal, sphere_constraint_set
from lapbel.cli import main


def child_env():
    """The environment for a child interpreter: this one's, with the
    checkout's ``src`` first on PYTHONPATH, so the child imports the same
    lapbel whether or not it is installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_records(capsys, tmp_path, job, name="job.json"):
    path = write_json(tmp_path / name, job)
    code, out, err = run_cli(capsys, ["eval", "--job", path])
    records = [json.loads(line) for line in out.splitlines()]
    return code, records, err


SPHERE_LINEAR_JOB = {
    "manifold": {"type": "sphere", "n": 3, "radius": 1.0},
    "function": {"type": "linear", "coefficients": [1.0, 0.0, 0.0]},
    "points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
}


# -- describe -------------------------------------------------------------


def test_describe_orthogonal(capsys):
    code, out, err = run_cli(capsys, ["describe", "orthogonal", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "dim": 3,
        "frame_shape": [9, 3],
        "k": 6,
        "m": 9,
        "manifold": "orthogonal",
        "n": 3,
    }


def test_describe_sphere(capsys):
    code, out, _ = run_cli(capsys, ["describe", "sphere", "4"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["m"], payload["k"], payload["dim"]) == (4, 1, 3)


def test_describe_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, ["describe", "torus", "3"])
    assert code == 2
    assert "error:" in err
    code, _, _ = run_cli(capsys, ["describe", "sphere", "1"])
    assert code == 2


# -- eval: sphere ----------------------------------------------------------


def test_eval_sphere_linear(capsys, tmp_path):
    code, records, _ = eval_records(capsys, tmp_path, SPHERE_LINEAR_JOB)
    assert code == 0
    assert len(records) == 2
    first, second = records
    assert first["path"] == "closed-form"
    assert first["ref"] == "inline[0]"
    assert abs(first["value"] - (-2.0)) <= 1e-12
    assert first["sigma"] == [0.5]
    assert first["trace_constraint"] == [4.0]
    assert abs(second["value"]) <= 1e-12


def test_eval_off_sphere_point_reports_error(capsys, tmp_path):
    job = dict(SPHERE_LINEAR_JOB)
    job["points"] = [[1.0, 0.0, 0.0], [1.1, 0.0, 0.0]]
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 4
    assert "value" in records[0]
    error = records[1]["error"]
    assert error["type"] == "DomainError"
    assert abs(error["residual"] - 0.21) <= 1e-12
    assert "0.21" in error["message"]


def test_eval_on_manifold_tolerance_option(capsys, tmp_path):
    job = dict(SPHERE_LINEAR_JOB)
    job["points"] = [[1.1, 0.0, 0.0]]
    job["options"] = {"on_manifold_tol": 0.3}
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0
    assert "value" in records[0]


def test_eval_sphere_paths_agree(capsys, tmp_path):
    base = {
        "manifold": {"type": "sphere", "n": 3, "radius": 2.5},
        "function": {
            "type": "polynomial",
            "terms": [
                {"coeff": 1.0, "powers": [2, 1, 0]},
                {"coeff": -0.5, "powers": [0, 0, 3]},
            ],
        },
        "points": [[1.5, 2.0, 0.0], [0.0, 1.5, 2.0]],
    }
    closed = dict(base, options={"path": "closed-form"})
    general = dict(base, options={"path": "general-frame"})
    code1, rec1, _ = eval_records(capsys, tmp_path, closed, "closed.json")
    code2, rec2, _ = eval_records(capsys, tmp_path, general, "general.json")
    assert code1 == 0 and code2 == 0
    for a, b in zip(rec1, rec2):
        assert a["path"] == "closed-form"
        assert b["path"] == "general-frame"
        assert abs(a["value"] - b["value"]) <= 1e-8


# -- eval: orthogonal --------------------------------------------------------


def test_eval_orthogonal_trace(capsys, tmp_path):
    identity = {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}
    job = {
        "manifold": {"type": "orthogonal", "n": 2},
        "function": {"type": "p1", "matrix": identity},
        "points": [identity, [1.0, 0.0, 0.0, 1.0]],
    }
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0
    for record in records:
        assert abs(record["value"] - (-1.0)) <= 1e-12
        assert record["sigma"] == [1.0, 1.0, 0.0]


def test_eval_orthogonal_paths_agree(capsys, tmp_path):
    matrix = {"rows": 2, "cols": 2, "data": [0.6, 0.8, -0.8, 0.6]}
    base = {
        "manifold": {"type": "orthogonal", "n": 2},
        "function": {
            "type": "p11",
            "matrix": {"rows": 2, "cols": 2, "data": [1.0, 2.0, 0.5, -1.0]},
        },
        "points": [matrix],
    }
    _, rec1, _ = eval_records(capsys, tmp_path, dict(base), "a.json")
    _, rec2, _ = eval_records(
        capsys, tmp_path, dict(base, options={"path": "general-frame"}), "b.json"
    )
    assert abs(rec1[0]["value"] - rec2[0]["value"]) <= 1e-8


def test_eval_brockett_identity_diagonal_vanishes(capsys, tmp_path):
    job = {
        "manifold": {"type": "orthogonal", "n": 2},
        "function": {
            "type": "brockett",
            "matrix": {"rows": 2, "cols": 2, "data": [1.0, 0.5, 0.5, -2.0]},
            "diagonal": [1.0, 1.0],
        },
        "points": [{"rows": 2, "cols": 2, "data": [0.0, 1.0, 1.0, 0.0]}],
    }
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0
    assert abs(records[0]["value"]) <= 1e-10


def test_eval_rejects_non_orthogonal_point(capsys, tmp_path):
    job = {
        "manifold": {"type": "orthogonal", "n": 2},
        "function": {"type": "p1", "matrix": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}},
        "points": [{"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.5, 1.0]}],
    }
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 4
    assert records[0]["error"]["type"] == "DomainError"


# -- eval: generic manifolds ---------------------------------------------------


def test_eval_generic_sphere_matches_closed_form(capsys, tmp_path):
    xy = {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1, 1, 0]}]}
    point = [0.6, 0.8, 0.0]
    generic = {
        "manifold": {
            "type": "generic",
            "ambient_dim": 3,
            "constraints": [
                {
                    "terms": [
                        {"coeff": 1.0, "powers": [2, 0, 0]},
                        {"coeff": 1.0, "powers": [0, 2, 0]},
                        {"coeff": 1.0, "powers": [0, 0, 2]},
                    ]
                }
            ],
            "regular_value": [1.0],
        },
        "function": xy,
        "points": [point],
    }
    closed = {
        "manifold": {"type": "sphere", "n": 3, "radius": 1.0},
        "function": xy,
        "points": [point],
    }
    _, rec1, _ = eval_records(capsys, tmp_path, generic, "generic.json")
    _, rec2, _ = eval_records(capsys, tmp_path, closed, "closed.json")
    assert rec1[0]["path"] == "general-frame"
    # Harmonic of degree 2, so the value is -6 x y = -2.88.
    assert abs(rec2[0]["value"] - (-2.88)) <= 1e-12
    assert abs(rec1[0]["value"] - rec2[0]["value"]) <= 1e-8


def test_eval_generic_has_no_closed_form(capsys, tmp_path):
    job = {
        "manifold": {
            "type": "generic",
            "ambient_dim": 2,
            "constraints": [
                {"terms": [{"coeff": 1.0, "powers": [2, 0]}, {"coeff": 1.0, "powers": [0, 2]}]}
            ],
            "regular_value": [1.0],
        },
        "function": {"type": "linear", "coefficients": [1.0, 0.0]},
        "points": [[1.0, 0.0]],
        "options": {"path": "closed-form"},
    }
    path = write_json(tmp_path / "job.json", job)
    code, _, err = run_cli(capsys, ["eval", "--job", path])
    assert code == 2
    assert "closed-form" in err


def test_eval_generic_manifold_from_file(capsys, tmp_path):
    manifold = {
        "ambient_dim": 2,
        "constraints": [
            {"terms": [{"coeff": 1.0, "powers": [2, 0]}, {"coeff": 1.0, "powers": [0, 2]}]}
        ],
        "regular_value": [1.0],
    }
    mpath = write_json(tmp_path / "manifold.json", manifold)
    job = {
        "manifold": {"type": "generic", "file": mpath},
        "function": {"type": "linear", "coefficients": [1.0, 0.0]},
        "points": [[0.0, 1.0]],
    }
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0
    # On the circle, x1 restricts to cos(theta): value -x1 = 0 here.
    assert abs(records[0]["value"]) <= 1e-10


# -- eval: external samples ------------------------------------------------------


def test_eval_external_samples(capsys, tmp_path):
    job = {
        "manifold": {"type": "sphere", "n": 3, "radius": 1.0},
        "function": {
            "type": "external-samples",
            "samples": [
                {
                    "value": 1.0,
                    "gradient": [1.0, 0.0, 0.0],
                    "hessian": {"rows": 3, "cols": 3, "data": [0.0] * 9},
                }
            ],
        },
        "points": [[1.0, 0.0, 0.0]],
    }
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0
    assert abs(records[0]["value"] - (-2.0)) <= 1e-12


@pytest.mark.parametrize("path", ["closed-form", "general-frame"])
def test_each_sample_field_reads_its_arrays_with_one_shape_check_per_row(capsys, tmp_path, monkeypatch, path):
    # a sample's field is its value, gradient and Hessian repeated by stacked
    # forms, with no per-point forms lifted into row loops that each check
    # the shape of the row again: one check per row and derivative read
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    samples = []
    for x in X:
        H = rng.standard_normal((3, 3))
        samples.append({"value": float(x[0]), "gradient": rng.standard_normal(3).tolist(),
                        "hessian": {"rows": 3, "cols": 3, "data": (H + H.T).ravel().tolist()}})
    job = {"manifold": {"type": "sphere", "n": 3, "radius": 1.0}, "options": {"path": path},
           "function": {"type": "external-samples", "samples": samples}, "points": X.tolist()}
    built = []
    sample_field = cli._sample_field
    monkeypatch.setattr(cli, "_sample_field", lambda *args: built.append(sample_field(*args)) or built[-1])
    checks = []
    shaped = cli.core._shaped
    monkeypatch.setattr(cli.core, "_shaped", lambda a, *args: checks.append(args) or shaped(a, *args))
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0 and len(records) == len(X)
    assert len(checks) == 2 * len(X)  # one gradient and one Hessian stack per row
    for field, sample, x in zip(built, samples, X):
        gradients = field.gradients_fn(np.stack([x, x]))
        assert gradients.strides[0] == 0 and not gradients.flags.writeable
        assert gradients[1].tolist() == sample["gradient"] and field.value(x) == sample["value"]
        assert field.hessian(x).ravel().tolist() == sample["hessian"]["data"]


def test_eval_external_samples_must_align(capsys, tmp_path):
    job = {
        "manifold": {"type": "sphere", "n": 3, "radius": 1.0},
        "function": {"type": "external-samples", "samples": []},
        "points": [[1.0, 0.0, 0.0]],
    }
    path = write_json(tmp_path / "job.json", job)
    code, _, err = run_cli(capsys, ["eval", "--job", path])
    assert code == 2
    assert "samples" in err


@pytest.mark.parametrize("steps", [{"gradient_step": -1}, {"gradient_step": 1e-5}, {}])
def test_eval_external_samples_refuse_finite_difference_options(capsys, tmp_path, steps):
    # the samples carry their own derivatives: any step, valid or not, is refused
    hessian = {"rows": 3, "cols": 3, "data": [0.0] * 9}
    sample = {"value": 1.0, "gradient": [1.0, 0.0, 0.0], "hessian": hessian}
    job = {
        "manifold": {"type": "sphere", "n": 3, "radius": 1.0},
        "function": {"type": "external-samples", "samples": [sample]},
        "points": [[1.0, 0.0, 0.0]],
        "options": {"finite_difference": steps},
    }
    path = write_json(tmp_path / "job.json", job)
    code, out, err = run_cli(capsys, ["eval", "--job", path])
    assert (code, out) == (2, "")
    assert err == (
        "error: options.finite_difference does not apply to external-samples functions\n"
    )


# -- eval: plumbing ---------------------------------------------------------------


def test_eval_finite_difference_option(capsys, tmp_path):
    job = {
        "manifold": {"type": "sphere", "n": 3, "radius": 1.0},
        "function": {
            "type": "polynomial",
            "terms": [{"coeff": 1.0, "powers": [2, 0, 0]}],
        },
        "points": [[0.6, 0.8, 0.0]],
        "options": {"finite_difference": {"gradient_step": 1e-5, "hessian_step": 1e-4}},
    }
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0
    # Closed form for x1^2 on the unit sphere at (0.6, 0.8, 0): ambient
    # trace 2, <x, grad f> = x^t H x = 0.72, so 2 - 2*0.72 - 0.72 = -0.16.
    assert abs(records[0]["value"] - (-0.16)) <= 1e-3


def test_eval_point_from_file(capsys, tmp_path):
    ppath = write_json(
        tmp_path / "point.json", {"rows": 3, "cols": 1, "data": [0.0, 1.0, 0.0]}
    )
    job = dict(SPHERE_LINEAR_JOB)
    job["points"] = [{"file": ppath}]
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0
    assert records[0]["ref"] == f"file:{ppath}"
    assert abs(records[0]["value"]) <= 1e-12


def test_eval_validation_failures(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["eval", "--job", str(tmp_path / "missing.json")])
    assert code == 2 and "file not found" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["eval", "--job", str(bad)])
    assert code == 2 and "invalid JSON" in err

    cases = [
        dict(SPHERE_LINEAR_JOB, manifold={"type": "torus", "n": 3}),
        dict(SPHERE_LINEAR_JOB, function={"type": "mystery"}),
        dict(SPHERE_LINEAR_JOB, points=[]),
        dict(SPHERE_LINEAR_JOB, points=[[1.0, 0.0]]),
        dict(SPHERE_LINEAR_JOB, options={"path": "sideways"}),
        dict(SPHERE_LINEAR_JOB, function={"type": "linear", "coefficients": [1.0]}),
    ]
    for i, job in enumerate(cases):
        path = write_json(tmp_path / f"case{i}.json", job)
        code, _, err = run_cli(capsys, ["eval", "--job", path])
        assert code == 2, (i, err)


@pytest.mark.parametrize("where", ["job", "point file"])
def test_json_nested_too_deep_is_invalid_json(capsys, tmp_path, where):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    job = str(nested)
    if where == "point file":
        job = write_json(tmp_path / "job.json", {**SPHERE_LINEAR_JOB, "points": [{"file": job}]})
    code, out, err = run_cli(capsys, ["eval", "--job", job])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid JSON in {nested}: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "term, message",
    [
        ({"coeff": 1.0, "powers": [1.5, 0, 0]}, "not an integer"),
        ({"coeff": 1.0, "powers": ["ab", 0, 0]}, "not a number"),
        ({"coeff": 1.0, "powers": [1e30, 0, 0]}, "too large"),
        ({"coeff": "abc", "powers": [1, 0, 0]}, "must be a number"),
        ({"coeff": 1e400, "powers": [1, 0, 0]}, "must be finite"),
        ({"coeff": 10**400, "powers": [1, 0, 0]}, "must be finite"),
        ({"coeff": 1.0, "powers": "ab"}, "must be a list"),
    ],
)
def test_eval_malformed_polynomial_term_exits_2(capsys, tmp_path, term, message):
    job = dict(SPHERE_LINEAR_JOB, function={"type": "polynomial", "terms": [term]})
    code, records, err = eval_records(capsys, tmp_path, job)
    assert code == 2 and records == []
    assert message in err and len(err.splitlines()) == 1


def test_eval_malformed_constraint_term_exits_2(capsys, tmp_path):
    job = {
        "manifold": {
            "type": "generic",
            "ambient_dim": 2,
            "constraints": [{"terms": [{"coeff": 1.0, "powers": [2.5, 0]}]}],
            "regular_value": [1.0],
        },
        "function": {"type": "linear", "coefficients": [1.0, 0.0]},
        "points": [[1.0, 0.0]],
    }
    code, records, err = eval_records(capsys, tmp_path, job)
    assert code == 2 and records == []
    assert "manifold.constraints[0]" in err and "not an integer" in err


@pytest.mark.parametrize(
    "corpus, where",
    [("sphere_general.json", "job.function"), ("clifford_torus.json", "manifold.constraints[0]")],
)
def test_eval_huge_exponent_exits_2_with_one_line_and_no_traceback(tmp_path, corpus, where):
    # 10**400 is beyond the double range: it must not reach float conversion unguarded
    job = json.loads((Path(__file__).parent / "eval_corpus" / corpus).read_text(encoding="utf-8"))
    spec = job["function"] if where == "job.function" else job["manifold"]["constraints"][0]
    spec["terms"][0]["powers"][0] = 10**400
    result = subprocess.run(
        [sys.executable, "-m", "lapbel", "eval", "--job", write_json(tmp_path / "job.json", job)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {where}: term 0 has an exponent too large for int64\n"


def test_eval_brockett_requires_symmetric_matrix(capsys, tmp_path):
    job = {
        "manifold": {"type": "orthogonal", "n": 2},
        "function": {
            "type": "brockett",
            "matrix": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 1.0, 1.0]},
            "diagonal": [1.0, 2.0],
        },
        "points": [[1.0, 0.0, 0.0, 1.0]],
    }
    path = write_json(tmp_path / "job.json", job)
    code, _, err = run_cli(capsys, ["eval", "--job", path])
    assert code == 2
    assert "symmetric" in err


# -- verify -----------------------------------------------------------------------


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "lemmas-on", "--n", "2..3", "--seeds", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["suite"] == "lemmas-on"


def test_verify_out_file_is_deterministic(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["verify", "eigenfunctions", "--n", "2..3", "--seeds", "2"]
    code1, stdout1, _ = run_cli(capsys, argv + ["--out", str(out1)])
    code2, stdout2, _ = run_cli(capsys, argv + ["--out", str(out2)])
    assert code1 == code2 == 0
    assert stdout1 == stdout2 == ""
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["pass"] is True


@pytest.mark.parametrize(
    "target, reason",
    [("missing/r.json", "No such file or directory"), (".", "Is a directory")],
)
def test_verify_out_to_an_unwritable_path_exits_2_with_one_line(tmp_path, target, reason):
    out = tmp_path / target
    result = subprocess.run(
        [sys.executable, "-m", "lapbel", "verify", "lemmas-on", "--n", "2", "--seeds", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: cannot write {out}: {reason}\n"
    assert "Traceback" not in result.stderr


def test_verify_fail_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "lemmas-sphere", "--n", "3", "--seeds", "1", "--tol", "1e-30"]
    )
    assert code == 3
    assert json.loads(out)["pass"] is False


def test_verify_tol_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LAPBEL_TOL", "1e-30")
    code, out, _ = run_cli(capsys, ["verify", "lemmas-sphere", "--n", "3", "--seeds", "1"])
    assert code == 3
    # An explicit --tol wins over the environment.
    code, out, _ = run_cli(
        capsys,
        ["verify", "lemmas-sphere", "--n", "3", "--seeds", "1", "--tol", "1e-3"],
    )
    assert code == 0
    monkeypatch.setenv("LAPBEL_TOL", "not-a-number")
    code, _, err = run_cli(capsys, ["verify", "lemmas-sphere", "--n", "3", "--seeds", "1"])
    assert code == 2
    assert "LAPBEL_TOL" in err


def test_verify_bad_range(capsys):
    code, _, err = run_cli(capsys, ["verify", "all", "--n", "2..x"])
    assert code == 2 and "--n" in err
    code, _, _ = run_cli(capsys, ["verify", "all", "--n", "5..2"])
    assert code == 2


# -- scalar job values ------------------------------------------------------------


def _sphere_job(**changes):
    job = json.loads(json.dumps(SPHERE_LINEAR_JOB))
    for key, value in changes.items():
        section, _, field = key.partition("__")
        job.setdefault(section, {})[field] = value
    return job


GENERIC_CIRCLE = {
    "type": "generic",
    "ambient_dim": "q",
    "constraints": [{"terms": [{"coeff": 1.0, "powers": [2, 0]}, {"coeff": 1.0, "powers": [0, 2]}]}],
    "regular_value": [1.0],
}


def _sample_job(value):
    sample = {"value": value, "gradient": [1.0, 0.0, 0.0],
              "hessian": {"rows": 3, "cols": 3, "data": [0.0] * 9}}
    return {
        "manifold": {"type": "sphere", "n": 3},
        "function": {"type": "external-samples", "samples": [sample]},
        "points": [[1.0, 0.0, 0.0]],
    }


def _p1_job(matrix):
    return {
        "manifold": {"type": "orthogonal", "n": 2},
        "function": {"type": "p1", "matrix": matrix},
        "points": [[1.0, 0.0, 0.0, 1.0]],
    }


I2 = {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}


@pytest.mark.parametrize(
    "job, exit_code, message",
    [
        (_sphere_job(manifold__n="x"), 2, "manifold.n must be a number"),
        (_sphere_job(manifold__n=3.5), 2, "manifold.n must be an integer"),
        (_sphere_job(manifold__n=True), 2, "manifold.n must be a number"),
        (_sphere_job(manifold__radius="r"), 2, "manifold.radius must be a number"),
        (_sphere_job(manifold__radius=float("inf")), 2, "manifold.radius must be finite"),
        (
            {**_sphere_job(), "manifold": {"type": "orthogonal", "n": "2"}},
            2,
            "manifold.n must be a number",
        ),
        ({**_sphere_job(), "manifold": GENERIC_CIRCLE}, 2, "manifold.ambient_dim must be a number"),
        (_sphere_job(options__on_manifold_tol="big"), 2, "options.on_manifold_tol must be a number"),
        (
            _sphere_job(options__on_manifold_tol=float("nan")),
            2,
            "options.on_manifold_tol must be finite",
        ),
        (
            _sphere_job(options__orthogonality_tol="big"),
            2,
            "options.orthogonality_tol must be a number",
        ),
        (
            _sphere_job(options__finite_difference={"gradient_step": "s"}),
            2,
            "options.finite_difference.gradient_step must be a number",
        ),
        (
            _sphere_job(options__finite_difference={"hessian_step": [1e-4]}),
            2,
            "options.finite_difference.hessian_step must be a number",
        ),
        (_sample_job("abc"), 2, "function.samples[0].value must be a number"),
        (_sample_job(10**400), 2, "function.samples[0].value must be finite"),
        (
            _sphere_job(options__on_manifold_tol=-1),
            2,
            "options.on_manifold_tol must be non-negative, got -1.0",
        ),
        (
            {**_p1_job(I2), "options": {"orthogonality_tol": -1e-3}},
            2,
            "options.orthogonality_tol must be non-negative, got -0.001",
        ),
    ],
)
def test_eval_bad_scalar_values_exit_with_one_line(capsys, tmp_path, job, exit_code, message):
    code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert code == exit_code
    assert out == ""
    assert err == f"error: {message}\n"


def test_eval_admission_tolerances_accept_zero(capsys, tmp_path):
    for tol in (0, -0.0):
        job = _sphere_job(options__on_manifold_tol=tol)
        code, records, _ = eval_records(capsys, tmp_path, job)
        assert code == 0 and len(records) == 2
        job = {**_p1_job(I2), "options": {"orthogonality_tol": tol}}
        code, records, _ = eval_records(capsys, tmp_path, job)
        assert code == 0 and len(records) == 1


def _sample_changed(**changes):
    job = _sample_job(0.0)
    job["function"]["samples"][0].update(changes)
    return job


@pytest.mark.parametrize(
    "job, message",
    [
        ({**_sphere_job(), "function": "linear"}, "job.function must contain 'type'"),
        (
            _p1_job([1.0, 0.0, 0.0, 1.0]),
            "function.matrix must be a matrix object {rows, cols, data} or a file reference",
        ),
        (
            _sphere_job(function__coefficients=[]),
            "function.coefficients must be a non-empty list of numbers",
        ),
        (
            {
                "manifold": {"type": "orthogonal", "n": 3},
                "function": {"type": "linear", "coefficients": [1.0] * 9},
                "points": [I2],
            },
            "points[0]: matrix shape (2, 2) fits neither a column vector "
            "nor the manifold's square side 3",
        ),
        ({**_sphere_job(), "points": [I2]}, "points[0]: matrix shape (2, 2) is not a column vector"),
        ({**_sphere_job(), "points": [5]}, "points[0] must be a list, matrix object, or file reference"),
        (
            {**_sphere_job(), "function": {"type": "polynomial", "terms": []}},
            "function.terms must be a non-empty list of terms",
        ),
        (
            _p1_job({"rows": 3, "cols": 3, "data": [0.0] * 9}),
            "function.matrix is 3x3; the manifold's ambient dimension 4 needs side 2",
        ),
        (
            _sample_changed(gradient=[1.0, 0.0]),
            "function.samples[0].gradient has length 2, expected 3",
        ),
        (
            _sample_changed(hessian=I2),
            "function.samples[0].hessian has shape (2, 2), expected (3, 3)",
        ),
        (
            _sample_changed(gradient=[float("inf"), 0.0, 0.0]),
            "function.samples[0].gradient contains non-finite entries",
        ),
        (
            {**_sphere_job(), "manifold": {**GENERIC_CIRCLE, "ambient_dim": 2, "constraints": []}},
            "job.manifold.constraints must be a non-empty list",
        ),
        ([1], "job must be a JSON object"),
        ({**_sphere_job(), "options": [1]}, "job.options must be an object"),
        (
            _sphere_job(options__finite_difference=1e-5),
            "options.finite_difference must be an object",
        ),
    ],
)
def test_eval_malformed_job_parts_exit_2_with_one_line(capsys, tmp_path, job, message):
    code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_eval_scalar_values_accept_integral_numbers(capsys, tmp_path):
    job = _sphere_job(manifold__n=3.0, manifold__radius=1, options__on_manifold_tol=1)
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert code == 0 and len(records) == 2


def test_no_command_loads_scipy(tmp_path):
    # The package depends on numpy only; each command runs in one fresh
    # interpreter and must leave SciPy unimported, and dataclasses too:
    # the records are built without generated code, which costs start-up.
    corpus = Path(__file__).parent / "eval_corpus"
    commands = [
        ["eval", "--job", write_json(tmp_path / "closed.json", SPHERE_LINEAR_JOB)],
        ["eval", "--job", str(corpus / "orthogonal_general.json")],
        ["eval", "--job", str(corpus / "clifford_torus.json")],
        ["describe", "orthogonal", "3"],
        ["verify", "all", "--n", "2..3"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from lapbel.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code, 'scipy' in sys.modules, 'dataclasses' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"{code} False False" for code in (0, 4, 4, 0, 0)]


# -- tolerances per path, strict JSON, file and matrix specs ---------------------------


def _strict_json(line):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize(
    "point, tol, admitted",
    [
        ([1.00001, 0.0, 0.0], 1e-2, True),
        ([1.00001, 0.0, 0.0], None, False),
        ([0.0, 0.6, 0.8], None, True),
        ([0.0, 0.6, 0.9], 1e-2, False),
    ],
)
def test_eval_sphere_paths_admit_the_same_points(capsys, tmp_path, point, tol, admitted):
    options = {} if tol is None else {"on_manifold_tol": tol}
    outcomes = []
    for path in ("closed-form", "general-frame"):
        job = {**SPHERE_LINEAR_JOB, "points": [point], "options": {**options, "path": path}}
        code, records, _ = eval_records(capsys, tmp_path, job)
        outcomes.append((code, "value" in records[0]))
    assert outcomes == [(0 if admitted else 4, admitted)] * 2


@pytest.mark.parametrize(
    "manifold, point",
    [
        ({"type": "sphere", "n": 3}, [1e200, 0.0, 0.0]),
        ({"type": "orthogonal", "n": 2}, [1e200, 0.0, 0.0, 1.0]),
    ],
)
def test_eval_non_finite_residual_is_omitted(capsys, tmp_path, manifold, point):
    function = (
        {"type": "linear", "coefficients": [1.0] * len(point)}
        if manifold["type"] == "sphere"
        else {"type": "p1", "matrix": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}}
    )
    job = {"manifold": manifold, "function": function, "points": [point]}
    path = write_json(tmp_path / "job.json", job)
    code, out, _ = run_cli(capsys, ["eval", "--job", path])
    assert code == 4
    (record,) = [_strict_json(line) for line in out.splitlines()]
    assert record["error"]["type"] == "DomainError"
    assert "residual" not in record["error"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_verify_rejects_non_finite_or_negative_tol(capsys, monkeypatch, value):
    argv = ["verify", "lemmas-sphere", "--n", "3", "--seeds", "1"]
    code, out, err = run_cli(capsys, argv + [f"--tol={value}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be a finite non-negative number")
    monkeypatch.setenv("LAPBEL_TOL", value)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: LAPBEL_TOL must be a finite non-negative number")


@pytest.mark.parametrize("suite", ["lemmas-on", "all"])
@pytest.mark.parametrize("value", ["nan", "-5", "0.2"])
def test_verify_refuses_a_step_outside_the_oracle_range_for_every_suite(capsys, suite, value):
    argv = ["verify", suite, "--n", "2", "--seeds", "1", f"--h={value}"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: oracle step must lie in [1e-6, 1e-1], got {float(value)}\n"


def test_verify_report_is_strict_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "lemmas-sphere", "--n", "3", "--seeds", "1", "--tol", "0"])
    assert code == 3
    assert _strict_json(out)["environment"]["tolerance_override"] == 0.0


@pytest.mark.parametrize(
    "matrix, message",
    [
        ({"file": "DIRECTORY"}, "cannot read"),
        ({"file": 123}, "file reference must be a path string, got 123"),
        ({"file": 0}, "file reference must be a path string, got 0"),
        ({"file": "LATIN1"}, "is not UTF-8 text"),
        ({"rows": 3, "cols": 1, "data": 5}, "matrix JSON data must be a list of numbers"),
        ({"rows": 0, "cols": 1, "data": [1.0]}, "rows/cols must be positive integers"),
        ({"rows": 2, "cols": 3, "data": [1.0] * 6}, "coefficient matrix must be square, got 2x3"),
    ],
)
def test_eval_bad_file_or_matrix_spec_exits_2_with_one_line(capsys, tmp_path, matrix, message):
    latin1 = tmp_path / "latin1.json"
    latin1.write_text('{"rows": 1, "cols": 1, "data": [1.0], "note": "\u00e9"}', encoding="latin-1")
    paths = {"DIRECTORY": str(tmp_path), "LATIN1": str(latin1)}
    if isinstance(matrix.get("file"), str):
        matrix = {"file": paths[matrix["file"]]}
    path = write_json(tmp_path / "job.json", _p1_job(matrix))
    code, out, err = run_cli(capsys, ["eval", "--job", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _matrix_object_jobs(key, side):
    """A point, a function.matrix and a sample Hessian whose matrix object has
    ``side`` as its ``key`` ("rows" or "cols"), each with its place in the job."""
    point = {**_p1_job(I2), "points": [{**I2, key: side}]}
    sample = _sample_job(1.0)
    sample["function"]["samples"][0]["hessian"][key] = side
    return [
        (point, "points[0]"),
        (_p1_job({**I2, key: side}), "function.matrix"),
        (sample, "function.samples[0].hessian"),
    ]


@pytest.mark.parametrize("key", ["rows", "cols"])
def test_eval_takes_integer_valued_matrix_sides(capsys, tmp_path, key):
    # the job's one integer rule, as for manifold.n: 2.0 is the integer 2
    for job, _ in _matrix_object_jobs(key, 2.0):
        if "samples" in job["function"]:
            job["function"]["samples"][0]["hessian"][key] = 3.0
        code, records, _ = eval_records(capsys, tmp_path, job)
        assert code == 0 and "value" in records[0]


@pytest.mark.parametrize("key", ["rows", "cols"])
@pytest.mark.parametrize(
    "side, message",
    [
        (2.5, "{where}.{key} must be an integer"),
        (True, "{where}.{key} must be a number"),
        ("2", "{where}.{key} must be a number"),
        (0, "{where}: matrix JSON rows/cols must be positive integers"),
    ],
)
def test_eval_refuses_a_bad_matrix_side_with_one_line(capsys, tmp_path, key, side, message):
    for job, where in _matrix_object_jobs(key, side):
        path = write_json(tmp_path / "job.json", job)
        code, out, err = run_cli(capsys, ["eval", "--job", path])
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(where=where, key=key)}\n"


def test_describe_matches_the_constraint_sets(capsys):
    for n in range(2, 7):
        for kind, constraints in (
            ("sphere", sphere_constraint_set(n, 1.0)),
            ("orthogonal", on_constraint_set(n)),
        ):
            code, out, _ = run_cli(capsys, ["describe", kind, str(n)])
            payload = json.loads(out)
            assert code == 0
            assert (payload["m"], payload["k"]) == (constraints.ambient_dim, constraints.count)


def test_describe_large_orthogonal_builds_no_constraints(capsys):
    code, out, _ = run_cli(capsys, ["describe", "orthogonal", "100000"])
    assert code == 0
    assert json.loads(out)["k"] == 100000 * 100001 // 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["describe", "sphere", "1e3"], "lapbel describe: error: argument n: invalid int value: '1e3'"),
        (["describe", "sphere", "3", "--bogus"], "lapbel: error: unrecognized arguments: --bogus"),
    ],
)
def test_usage_errors_are_one_line_with_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert capsys.readouterr() == ("", message + "\n")


# -- module entry point --------------------------------------------------------------


def test_python_dash_m_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "lapbel", "describe", "sphere", "3"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dim"] == 2


def test_package_exports_every_public_name_once():
    names = lapbel.__all__
    assert len(names) == len(set(names)) == 63
    for name in names:
        assert not isinstance(getattr(lapbel, name), types.ModuleType), name
    assert {"laplace_beltrami_general", "on_laplacian", "sphere_report", "ValidationError"} <= set(names)


_SUBMODULES = ("constraint_core", "errors", "numkit", "oracles", "orthogonal", "sphere")


def test_each_export_is_its_submodules_object():
    modules = [importlib.import_module(f"lapbel.{name}") for name in _SUBMODULES]
    for name in lapbel.__all__:
        owners = [module for module in modules if name in vars(module)]
        assert owners, name
        for module in owners:
            assert getattr(lapbel, name) is getattr(module, name), (name, module.__name__)
    for name, module in zip(_SUBMODULES, modules):
        assert getattr(lapbel, name) is module


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from lapbel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lapbel.__all__)
    assert set(lapbel.__all__) <= set(dir(lapbel))
    with pytest.raises(AttributeError, match="no_such_name"):
        lapbel.no_such_name  # noqa: B018


# Each child runs one command in a fresh interpreter and prints, last on
# stderr, the lapbel modules it loaded.
_LOADED = (
    "import json, sys\n"
    "{body}\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('lapbel'))\n"
    "print(json.dumps(loaded), file=sys.stderr)\n"
)


def _loaded_modules(body):
    result = subprocess.run(
        [sys.executable, "-c", _LOADED.format(body=body)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stderr.splitlines()[-1]))


@pytest.mark.parametrize(
    "job, absent",
    [
        ("clifford_torus.json", {"sphere", "orthogonal", "oracles", "verify"}),
        ("sphere_wide.json", {"orthogonal", "oracles", "verify"}),
        ("orthogonal_general.json", {"sphere", "oracles", "verify"}),
    ],
)
def test_eval_loads_only_the_modules_its_job_uses(job, absent):
    path = Path(__file__).parent / "eval_corpus" / job
    loaded = _loaded_modules(
        f"from lapbel import cli\nassert cli.main(['eval', '--job', {str(path)!r}]) in (0, 4)"
    )
    assert {"lapbel.cli", "lapbel.constraint_core"} <= loaded
    assert not loaded & {f"lapbel.{name}" for name in absent}


def test_import_lapbel_loads_no_submodule_until_a_name_is_used():
    assert _loaded_modules("import lapbel") == {"lapbel"}
    assert _loaded_modules("import lapbel; lapbel.ValidationError") == {
        "lapbel",
        "lapbel.errors",
    }
    assert "lapbel.sphere" in _loaded_modules("import lapbel; lapbel.sphere.sphere_report")


# -- library errors and huge points -------------------------------------------------


def _matrix(rows, cols, data):
    return {"rows": rows, "cols": cols, "data": data}


@pytest.mark.parametrize(
    "job, message",
    [
        (
            {
                "manifold": {"type": "orthogonal", "n": 3},
                "function": {
                    "type": "brockett",
                    "matrix": _matrix(3, 3, [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]),
                    "diagonal": [1.0, 2.0],
                },
                "points": [[1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]],
            },
            "job.function: diagonal has length 2, expected 3",
        ),
        (
            {
                "manifold": {"type": "orthogonal", "n": 2},
                "function": {"type": "p1", "matrix": _matrix(2, 3, [1.0, 0, 0, 0, 1.0, 0])},
                "points": [[1.0, 0, 0, 1.0]],
            },
            "job.function: coefficient matrix must be square, got 2x3",
        ),
    ],
    ids=["short-diagonal", "non-square-p1"],
)
def test_eval_library_function_errors_name_the_job_key(capsys, tmp_path, job, message):
    code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("path", ["closed-form", "general-frame"])
@pytest.mark.parametrize(
    "manifold, huge, good",
    [
        ({"type": "sphere", "n": 3}, [1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ({"type": "orthogonal", "n": 2}, [1e200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]),
    ],
    ids=["sphere", "orthogonal"],
)
def test_eval_huge_point_is_an_error_record_without_warnings(
    capsys, tmp_path, manifold, huge, good, path
):
    job = {
        "manifold": manifold,
        "function": {"type": "linear", "coefficients": [1.0] + [0.0] * (len(huge) - 1)},
        "options": {"path": path},
        "points": [huge, good],
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, records, err = eval_records(capsys, tmp_path, job)
    assert caught == []
    assert err == ""
    assert code == 4
    assert records[0]["error"]["type"] == "DomainError"
    # both paths name the overflowed residual; the record leaves it out
    message = records[0]["error"]["message"]
    assert " inf exceeds tolerance " in message
    if path == "general-frame":
        assert message.startswith("point is off the manifold: residual inf")
    assert "residual" not in records[0]["error"]
    assert "value" in records[1]


@pytest.mark.parametrize("path", ["closed-form", "general-frame"])
def test_eval_overflowing_result_is_a_strict_json_error_record(capsys, tmp_path, path):
    # A finite Hessian whose trace overflows must not print Infinity.
    hessian = _matrix(3, 3, [1e308, 0, 0, 0, 1e308, 0, 0, 0, 1e308])
    job = {
        "manifold": {"type": "sphere", "n": 3},
        "function": {
            "type": "external-samples",
            "samples": [{"value": 1.0, "gradient": [1.0, 0.0, 0.0], "hessian": hessian}],
        },
        "options": {"path": path},
        "points": [[1.0, 0.0, 0.0]],
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert caught == []
    assert (code, err) == (4, "")
    (record,) = [_strict_json(line) for line in out.splitlines()]
    assert record["error"]["type"] == "NumericalError"
    assert "not finite" in record["error"]["message"]


_HUGE = {"rows": 2, "cols": 2, "data": [1e308, 0.0, 0.0, 1e308]}


@pytest.mark.parametrize(
    "function",
    [
        {"type": "p11", "matrix": _HUGE},
        {"type": "p2", "matrix": _HUGE},
        {"type": "brockett", "matrix": I2, "diagonal": [1e308, 1.0]},
    ],
    ids=["p11", "p2", "brockett"],
)
def test_eval_overflowing_constant_hessian_is_refused_when_the_field_is_built(
    capsys, tmp_path, function
):
    # a numpy RuntimeWarning fails the test run, so none may be printed either
    job = {**_p1_job(I2), "function": function}
    code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert (code, out) == (2, "")
    assert err == (
        "error: job.function: the field's constant Hessian overflows: "
        "the coefficients are too large\n"
    )


def test_eval_builds_the_orthogonal_constraint_set_only_for_the_general_path(
    capsys, tmp_path, monkeypatch
):
    built = []
    real = orthogonal.on_constraint_set
    monkeypatch.setattr(orthogonal, "on_constraint_set", lambda n: built.append(n) or real(n))
    job = {
        "manifold": {"type": "orthogonal", "n": 2},
        "function": {"type": "p1", "matrix": _matrix(2, 2, [1.0, 0.0, 0.0, 1.0])},
        "points": [[1.0, 0.0, 0.0, 1.0]],
    }
    code, records, _ = eval_records(capsys, tmp_path, job)
    assert (code, built) == (0, [])
    assert "value" in records[0]
    # a malformed point is refused before anything is built, even at n = 300
    code, out, err = run_cli(
        capsys, ["eval", "--job", write_json(tmp_path / "bad.json", {**job, "manifold": {"type": "orthogonal", "n": 300}})]
    )
    assert (code, out, built) == (2, "", [])
    assert err == "error: points[0] has dimension 4, manifold ambient dimension is 90000\n"
    code, records, _ = eval_records(capsys, tmp_path, {**job, "options": {"path": "general-frame"}})
    assert (code, built) == (0, [2])
    assert "value" in records[0]


def _p1_data_job(data):
    return _p1_job(_matrix(2, 2, data))


def _brockett_diagonal_job(diagonal):
    job = _p1_job(_matrix(2, 2, [1.0, 0.0, 0.0, 1.0]))
    job["function"].update(type="brockett", diagonal=diagonal)
    return job


def _ragged_gradient_job():
    job = _sample_job(1.0)
    job["function"]["samples"][0]["gradient"] = [1.0, [0.0], 0.0]
    return job


@pytest.mark.parametrize(
    "job",
    [
        {**_sphere_job(), "points": [[1.0, [0.0], 0.0]]},
        _sphere_job(function__coefficients=[1.0, [0.0], 0.0]),
        _p1_data_job([1.0, [0.0, 0.0], 0.0, 1.0]),
        _ragged_gradient_job(),
        {**_sphere_job(), "points": [[10**400, 0.0, 0.0]]},
        _p1_data_job([10**400, 0.0, 0.0, 1.0]),
        _brockett_diagonal_job([10**400, 1.0]),
        _p1_data_job([1.0, "a", 0.0, 1.0]),
        _sphere_job(function__type=["linear"]),
    ],
    ids=[
        "ragged-points",
        "ragged-coefficients",
        "ragged-matrix-data",
        "ragged-sample-gradient",
        "beyond-double-points",
        "beyond-double-matrix-data",
        "beyond-double-diagonal",
        "string-in-matrix-data",
        "list-function-type",
    ],
)
def test_eval_malformed_job_numbers_exit_2_with_one_line(capsys, tmp_path, job):
    code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _generic_circle(regular_value=(1.0,), powers=(2, 0)):
    terms = [{"coeff": 1.0, "powers": list(powers)}, {"coeff": 1.0, "powers": [0, 2]}]
    return {
        "manifold": {"type": "generic", "ambient_dim": 2, "constraints": [{"terms": terms}],
                     "regular_value": list(regular_value)},
        "function": {"type": "linear", "coefficients": [1.0, 0.0]},
        "points": [[1.0, 0.0]],
    }


def _sample_entries_job(gradient=(1.0, 0.0, 0.0), hessian_data=(0.0,) * 9):
    job = _sample_job(1.0)
    sample = job["function"]["samples"][0]
    sample["gradient"], sample["hessian"]["data"] = list(gradient), list(hessian_data)
    return job


@pytest.mark.parametrize(
    "job, key",
    [
        ({**_sphere_job(), "points": [["1", 0, 0]]}, "points[0][0]"),
        ({**_sphere_job(), "points": [[1.0, 0.0, 0.0], {"file": "POINT"}]}, "points[1][2]"),
        ({**_sphere_job(), "points": [_matrix(3, 1, [1, 0, None])]}, "points[0].data[2]"),
        (_sphere_job(function__coefficients=[True, 0, 0]), "function.coefficients[0]"),
        (
            _sphere_job(
                function__type="polynomial",
                function__terms=[{"coeff": 1.0, "powers": [True, 0, 0]}],
            ),
            "function.terms[0].powers[0]",
        ),
        (_p1_data_job([1, "0", False, 1]), "function.matrix.data[1]"),
        (_p1_data_job([1, 0, False, 1]), "function.matrix.data[2]"),
        (_brockett_diagonal_job([1.0, "2"]), "function.diagonal[1]"),
        (_sample_entries_job(gradient=[1.0, False, 0.0]), "function.samples[0].gradient[1]"),
        (
            _sample_entries_job(hessian_data=[0.0] * 8 + ["0"]),
            "function.samples[0].hessian.data[8]",
        ),
        (_generic_circle(regular_value=[True]), "manifold.regular_value[0]"),
        (_generic_circle(powers=[2, "0"]), "manifold.constraints[0].terms[0].powers[1]"),
    ],
    ids=[
        "string-in-inline-point",
        "string-in-file-point",
        "null-in-point-matrix",
        "boolean-coefficient",
        "boolean-power",
        "string-in-matrix-data",
        "boolean-in-matrix-data",
        "string-in-diagonal",
        "boolean-in-sample-gradient",
        "string-in-sample-hessian",
        "boolean-regular-value",
        "string-in-constraint-powers",
    ],
)
def test_every_numeric_list_entry_must_be_a_json_number(capsys, tmp_path, job, key):
    point = write_json(tmp_path / "point.json", [1.0, 0.0, "0"])
    for entry in job["points"]:
        if isinstance(entry, dict) and entry.get("file") == "POINT":
            entry["file"] = point
    code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert (code, out) == (2, "")
    assert err == f"error: {key} is not a number\n"


@pytest.mark.parametrize("path", ["closed-form", "general-frame"])
@pytest.mark.parametrize(
    "radius, point",
    [(1e200, [1e200, 0, 0]), (1e-160, [1e-165, 0, 0]), (1e-200, [1e-200, 0, 0])],
)
def test_a_radius_out_of_range_is_refused(capsys, tmp_path, radius, point, path):
    # At 1e-160 the point clears the chart margin but its x_j squares to 0.
    job = {
        "manifold": {"type": "sphere", "n": 3, "radius": radius},
        "function": {"type": "linear", "coefficients": [1, 0, 0]},
        "points": [point],
        "options": {"path": path},
    }
    code, out, err = run_cli(capsys, ["eval", "--job", write_json(tmp_path / "job.json", job)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: job.manifold: radius {radius} is out of range: its square overflows "
        "or its chart margin's square underflows to 0\n"
    )


# -- points resolved as one stack ------------------------------------------------------


def _per_row(points, ambient, side):
    rows = [cli._resolve_point(p, i, ambient, side) for i, p in enumerate(points)]
    return [ref for ref, _ in rows], np.stack([u for _, u in rows])


def _torus_points(count):
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0, 2 * np.pi, (2, count))
    points = (np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)], axis=1) / np.sqrt(2)).tolist()
    points[::50] = [[1, 0, 0, 1]] * len(points[::50])  # exact ints
    points[1] = [2**60 + 1, -(2**53) - 1, 0.1, 3]  # ints that round
    return points


@pytest.mark.parametrize(
    "points, ambient, side",
    [
        ([orthogonal.random_orthogonal(8, s).to_vector().tolist() for s in range(200)], 64, 8),
        (_torus_points(1000), 4, None),
    ],
    ids=["orthogonal-8", "torus"],
)
def test_inline_points_stack_equals_the_per_row_path_bit_for_bit(
    monkeypatch, points, ambient, side
):
    expected_refs, expected = _per_row(points, ambient, side)
    monkeypatch.setattr(cli, "_resolve_point", None)  # the stack alone must do it
    refs, X = cli._resolve_points(points, ambient, side)
    assert refs == expected_refs
    assert X.shape == expected.shape and X.dtype == expected.dtype
    assert X.tobytes() == expected.tobytes()


# Raw JSON rows, so that 10**400 and NaN reach the parser as literals.
# Each row's id is written out, as the name the suite has always printed, so
# a change of wording renames no test.
_BAD_POINTS = [
    pytest.param("[true, 0, 0]", "points[{i}][0] is not a number", id="[true, 0, 0]-points[{i}]["),
    pytest.param('["1", 0, 0]', "points[{i}][0] is not a number", id='["1", 0, 0]-points[{i}]['),
    pytest.param("[1.0, [0.0], 0.0]", "points[{i}][1] is not a number", id="[1.0, [0.0],-points[{i}]["),
    pytest.param(
        "[1.0, 0.0]",
        "points[{i}] has dimension 2, manifold ambient dimension is 3",
        id="[1.0, 0.0]-points[{i}] ",
    ),
    pytest.param(
        "[1" + "0" * 400 + ", 0, 0]",
        "points[{i}] is not an array of numbers: int too large to convert to float",
        id="[10000000000-points[{i}] ",
    ),
    pytest.param("[0, NaN, 0]", "points[{i}] contains non-finite entries", id="[0, NaN, 0]-points[{i}] "),
    pytest.param("[0, 1e400, 0]", "points[{i}] contains non-finite entries", id="[0, 1e400, 0-points[{i}] "),
    pytest.param(
        '{"rows": 3, "cols": 1, "data": [0, "1", 0]}',
        "points[{i}].data[1] is not a number",
        id='{"rows": 3, -points[{i}].',
    ),
]


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
@pytest.mark.parametrize("row, message", _BAD_POINTS)
def test_a_bad_point_entry_is_named_wherever_it_stands(capsys, tmp_path, row, message, last):
    good = ["[1.0, 0.0, 0.0]", "[0, 1, 0]", "[0.6, 0.8, 0.0]"]
    rows = good + [row] if last else [row] + good
    path = tmp_path / "job.json"
    path.write_text(
        '{"manifold": {"type": "sphere", "n": 3}, "function": {"type": "linear", '
        f'"coefficients": [1, 2, 3]}}, "points": [{", ".join(rows)}]}}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["eval", "--job", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(i=3 if last else 0) + "\n"


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_file_and_matrix_points_among_inline_ones_keep_their_refs(capsys, tmp_path, last):
    inline = [[1.0, 0.0, 0.0], [0, 1, 0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]]
    point_file = write_json(tmp_path / "point.json", [0.0, 0.0, 1.0])
    others = [{"file": point_file}, {"rows": 3, "cols": 1, "data": [0.0, 0.6, 0.8]}]
    points = inline[:3] + others if last else others + inline[:3]
    job = {**SPHERE_LINEAR_JOB, "points": points}
    code, records, err = eval_records(capsys, tmp_path, job)
    in_order = inline if last else inline[3:] + inline[:3]
    _, expected, _ = eval_records(capsys, tmp_path, {**job, "points": in_order})
    assert (code, err) == (0, "")
    refs = [record.pop("ref") for record in records]
    file_at = 3 if last else 0
    assert refs == [
        f"file:{point_file}" if i == file_at else f"inline[{i}]" for i in range(5)
    ]
    assert records == [{k: v for k, v in r.items() if k != "ref"} for r in expected]
