"""Byte-identity guard: ``lapbel eval`` on a fixed job corpus.

Each ``tests/eval_corpus/<name>.json`` job has a golden ``<name>.out``
holding the exact stdout of ``lapbel eval --job <name>.json``. The goldens
were written before the polynomial derivative kernels were rebuilt on
precomputed tables, so any change in a printed digit shows up here. A
deliberate change of output regenerates them with

    PYTHONPATH=src python -m lapbel eval --job tests/eval_corpus/<name>.json \\
        > tests/eval_corpus/<name>.out

and names the changed digits and their cause in CHANGES.md.
"""

from pathlib import Path

import pytest

from lapbel.cli import main

CORPUS = Path(__file__).parent / "eval_corpus"

# (job, exit code): sphere n = 200 with a 12-term polynomial (2 points), and
# the Clifford torus as generic constraints (5 points, index 3 off the
# manifold, so a DomainError record and exit 4), and O(4) Brockett on the
# general-frame path (4 points, index 2 scaled off the group, exit 4).
JOBS = [("sphere_wide", 0), ("clifford_torus", 4), ("orthogonal_general", 4)]


@pytest.mark.parametrize("name, exit_code", JOBS)
def test_eval_output_is_byte_identical_to_golden(capsys, name, exit_code):
    code = main(["eval", "--job", str(CORPUS / f"{name}.json")])
    out = capsys.readouterr().out
    assert code == exit_code
    assert out == (CORPUS / f"{name}.out").read_text(encoding="utf-8")
