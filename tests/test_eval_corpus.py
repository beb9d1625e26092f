"""Byte-identity guard: ``lapbel eval`` on a fixed job corpus.

Each ``tests/eval_corpus/<name>.json`` job has a golden ``<name>.out``
holding the exact stdout of ``lapbel eval --job <name>.json``;
``verify_all_2_3.out`` holds the exact report of
``lapbel verify all --n 2..3`` and ``verify_oracle_4_5.out`` that of
``lapbel verify oracle --n 4..5``. The goldens were written by the code before
the change they guard, so any change in a printed digit shows up here. A
deliberate change of output regenerates them with

    PYTHONPATH=src python -m lapbel eval --job tests/eval_corpus/<name>.json \\
        > tests/eval_corpus/<name>.out
    PYTHONPATH=src python -m lapbel verify all --n 2..3 \\
        > tests/eval_corpus/verify_all_2_3.out
    PYTHONPATH=src python -m lapbel verify oracle --n 4..5 \\
        > tests/eval_corpus/verify_oracle_4_5.out

and names the changed digits and their cause in CHANGES.md.
"""

from pathlib import Path

import pytest

from lapbel.cli import main

CORPUS = Path(__file__).parent / "eval_corpus"

# (job, exit code):
# - sphere_wide: sphere n = 200 with a 12-term polynomial (2 points);
# - clifford_torus: generic constraints (5 points, index 3 off the manifold,
#   so a DomainError record and exit 4);
# - orthogonal_general: O(4) Brockett on the general-frame path (4 points,
#   index 2 scaled off the group, exit 4);
# - orthogonal_p1/p11/p2: O(3) closed forms, flat and matrix-object points
#   alternating, index 2 scaled off the group (exit 4);
# - sphere_general: sphere n = 5, radius 2, polynomial on the general-frame
#   path, index 1 off the sphere (exit 4);
# - sphere_finite_difference: the finite_difference option on the sphere;
# - orthogonal_finite_difference: the finite_difference option on an O(3)
#   Brockett field, general-frame path, flat and matrix-object points
#   alternating, index 2 scaled off the group (exit 4);
# - external_samples: per-point samples, index 1 with an asymmetric Hessian,
#   whose ContractError text reaches the record (exit 4).
JOBS = [
    ("sphere_wide", 0),
    ("clifford_torus", 4),
    ("orthogonal_general", 4),
    ("orthogonal_p1", 4),
    ("orthogonal_p11", 4),
    ("orthogonal_p2", 4),
    ("sphere_general", 4),
    ("sphere_finite_difference", 0),
    ("orthogonal_finite_difference", 4),
    ("external_samples", 4),
]


@pytest.mark.parametrize("name, exit_code", JOBS)
def test_eval_output_is_byte_identical_to_golden(capsys, name, exit_code):
    code = main(["eval", "--job", str(CORPUS / f"{name}.json")])
    out = capsys.readouterr().out
    assert code == exit_code
    assert out == (CORPUS / f"{name}.out").read_text(encoding="utf-8")


def test_verify_report_is_byte_identical_to_golden(capsys):
    code = main(["verify", "all", "--n", "2..3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (CORPUS / "verify_all_2_3.out").read_text(encoding="utf-8")


def test_oracle_report_at_largest_stencils_is_byte_identical_to_golden(capsys):
    # n = 4..5 pins the derivative-hygiene checks where their stencils are
    # largest (m = 16 and 25).
    code = main(["verify", "oracle", "--n", "4..5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (CORPUS / "verify_oracle_4_5.out").read_text(encoding="utf-8")
