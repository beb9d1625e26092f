"""Byte-identity guard: ``lapbel eval`` on a fixed job corpus.

Each ``tests/eval_corpus/<name>.json`` job has a golden ``<name>.out``
holding the exact stdout of ``lapbel eval --job <name>.json``;
``verify_all_2_3.out`` holds the exact report of
``lapbel verify all --n 2..3``, ``verify_all_4_5.out`` that of
``lapbel verify all --n 4..5``, ``verify_oracle_4_5.out`` that of
``lapbel verify oracle --n 4..5`` and ``verify_all_3_failing.out`` that of
``lapbel verify all --n 3 --seeds 2 --tol 1e-30``. The goldens were written
by the code before the change they guard, so any change in a printed digit
shows up here. A deliberate change of output regenerates them with

    PYTHONPATH=src python -m lapbel eval --job tests/eval_corpus/<name>.json \\
        > tests/eval_corpus/<name>.out
    PYTHONPATH=src python -m lapbel verify all --n 2..3 \\
        > tests/eval_corpus/verify_all_2_3.out
    PYTHONPATH=src python -m lapbel verify all --n 4..5 \\
        > tests/eval_corpus/verify_all_4_5.out
    PYTHONPATH=src python -m lapbel verify oracle --n 4..5 \\
        > tests/eval_corpus/verify_oracle_4_5.out
    PYTHONPATH=src python -m lapbel verify all --n 3 --seeds 2 --tol 1e-30 \\
        > tests/eval_corpus/verify_all_3_failing.out

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
#   whose ContractError text reaches the record (exit 4);
# - general_errors: the planes x^2 - y^2 = 0 as a generic constraint, good
#   points among an off-manifold point (index 2), a huge point whose residual
#   is inf (3), a rank-deficient point (5) and a point whose field gradient
#   overflows (6), so each error and its text are pinned per row (exit 4);
# - external_general: per-point samples on the sphere's general-frame path,
#   index 1 with an asymmetric Hessian (ContractError), index 2 with a Hessian
#   of 1e308 entries (NumericalError) and index 3 off the sphere with an
#   asymmetric Hessian (DomainError first) (exit 4);
# - orthogonal_general_chunks: O(10) Brockett on the general-frame path, 16
#   points, so the default _CHUNK_BYTES splits them into chunks of 13 and 3
#   rows; index 5 has column 0 scaled by sqrt(1 + 1.5e-8), which the
#   constraints admit (residual 7.5e-9) and the frame refuses as not
#   orthogonal, and index 14 is scaled by 1.001, off the group (exit 4);
# - sphere_closed_chunks: sphere n = 200 on the closed form, 7 points, so the
#   default _CHUNK_BYTES splits them into chunks of 3, 3 and 1 rows; index 4
#   is scaled by 1.001, off the sphere, and index 5 is [1e200, 0, ...], whose
#   residual is inf, so its record has no residual (exit 4);
# - orthogonal_closed_samples: per-point samples on the O(3) closed form, flat
#   and matrix-object points alternating, index 1 with an asymmetric Hessian
#   (ContractError) and index 2 scaled off the group (exit 4).
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
    ("general_errors", 4),
    ("external_general", 4),
    ("orthogonal_general_chunks", 4),
    ("sphere_closed_chunks", 4),
    ("orthogonal_closed_samples", 4),
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


def test_verify_report_at_benchmark_sizes_is_byte_identical_to_golden(capsys):
    # n = 4..5 is the upper half of the benchmark's verify-all range, so this
    # pins lemmas-sphere, eigenfunctions and theorem-equivalence there too.
    code = main(["verify", "all", "--n", "4..5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (CORPUS / "verify_all_4_5.out").read_text(encoding="utf-8")


def test_oracle_report_at_largest_stencils_is_byte_identical_to_golden(capsys):
    # n = 4..5 pins the derivative-hygiene checks where their stencils are
    # largest (m = 16 and 25).
    code = main(["verify", "oracle", "--n", "4..5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (CORPUS / "verify_oracle_4_5.out").read_text(encoding="utf-8")


def test_failing_report_is_byte_identical_to_golden(capsys):
    # 18 of the 25 checks miss a tolerance of 1e-30, so this pins
    # "pass": false entries, the tolerance override and the exit code of a
    # failed verify.
    code = main(["verify", "all", "--n", "3", "--seeds", "2", "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 3
    assert out == (CORPUS / "verify_all_3_failing.out").read_text(encoding="utf-8")
