"""The input contract of ``lapbel eval``, on mutated copies of the eval corpus.

Each job of ``tests/eval_corpus`` is copied with one or two of its values
replaced (or its keys deleted) by a value from a fixed list of awkward ones,
and run in process. Whatever the mutation, ``eval`` must exit 0, 2, 3 or 4,
print at most one line on stderr, and write only strict JSON lines on
stdout. The random mutations are drawn from a generator seeded by the job's
name, so every run tries the same jobs; beside them, every one-key mutation
(each key path with each awkward value) is tried once.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from lapbel.cli import main

CORPUS = Path(__file__).parent / "eval_corpus"
MUTANTS_PER_JOB = 20

_DELETE = object()  # as a replacement: delete the key, or the list entry
AWKWARD = (0, -1, 1e308, 10**400, 2**63, True, None, "x", [], {}, float("nan"), _DELETE)


def _paths(node, path=()):
    """Every key path below ``node``, where a list leads on through its first
    and last entries only, so the structure of a job is hit about as often as
    its long lists of coordinates."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = [(i, node[i]) for i in sorted({0, len(node) - 1}) if node]
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replace(job, path, value) -> None:
    """Replace the value at the key ``path`` of ``job`` by ``value``, in place."""
    *route, key = path
    parent = job
    for step in route:
        parent = parent[step]
    if value is _DELETE:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(value)


def _mutate(job, rng: random.Random) -> None:
    """Replace the value at one random key path of ``job``, in place."""
    _replace(job, rng.choice(list(_paths(job))), rng.choice(AWKWARD))


def _strict(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _check(capsys, path, job, case) -> None:
    """Run ``job`` from ``path``: a documented exit code, at most one line
    on stderr and strict JSON lines on stdout."""
    path.write_text(json.dumps(job), encoding="utf-8")
    code = main(["eval", "--job", str(path)])
    out, err = capsys.readouterr()
    case = (case, path.read_text(encoding="utf-8")[:300], err)
    assert code in (0, 2, 3, 4), case
    assert len(err.splitlines()) <= 1, case
    for line in out.splitlines():
        assert isinstance(json.loads(line, parse_constant=_strict), dict), case


NAMES = sorted(p.stem for p in CORPUS.glob("*.json"))


def _job(name):
    return json.loads((CORPUS / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_a_mutated_job_exits_with_a_documented_code_and_strict_output(capsys, tmp_path, name):
    base = _job(name)
    rng = random.Random(name)
    for i in range(MUTANTS_PER_JOB):
        job = copy.deepcopy(base)
        for _ in range(rng.choice((1, 2))):
            _mutate(job, rng)
        _check(capsys, tmp_path / f"mutant{i}.json", job, i)


@pytest.mark.parametrize("name", NAMES)
def test_every_one_key_mutant_exits_with_a_documented_code_and_strict_output(capsys, tmp_path, name):
    # every key path with every awkward value, once: a defect that one key
    # shows cannot hide from the random draws above
    base = _job(name)
    for path in _paths(base):
        for value in AWKWARD:
            job = copy.deepcopy(base)
            _replace(job, path, value)
            _check(capsys, tmp_path / "mutant.json", job, (path, value))
