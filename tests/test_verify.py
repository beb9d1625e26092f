"""Tests for the verification suites."""

import json
import math

import pytest

from lapbel.errors import ContractError, ValidationError
from lapbel.verify import SUITES, CheckRecord, run_suite


def test_suite_names():
    assert "all" in SUITES
    assert "lemmas-sphere" in SUITES
    assert "oracle" in SUITES


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_each_suite_passes_small_sweep(suite):
    report = run_suite(suite, ns=[2, 3], seeds=2)
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert report.suite == suite
    assert report.checks
    for check in report.checks:
        assert check.max_deviation <= check.tolerance


def test_all_suite_concatenates_everything():
    combined = run_suite("all", ns=[2, 3], seeds=2)
    names = [c.name for c in combined.checks]
    assert len(names) == len(set(names))
    parts = sum(
        len(run_suite(s, ns=[2, 3], seeds=2).checks) for s in SUITES if s != "all"
    )
    assert len(names) == parts
    assert combined.passed


def test_report_dict_shape():
    report = run_suite("lemmas-on", ns=[2], seeds=1)
    d = report.to_dict()
    assert set(d) == {"suite", "pass", "checks", "environment"}
    for c in d["checks"]:
        assert set(c) == {"name", "max_deviation", "tolerance", "pass"}
    env = d["environment"]
    assert env["n_values"] == [2]
    assert env["seeds"] == 1


def test_reports_are_deterministic():
    a = run_suite("theorem-equivalence", ns=[2, 3], seeds=2).to_dict()
    b = run_suite("theorem-equivalence", ns=[2, 3], seeds=2).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_tolerance_override_applies_to_identity_checks():
    # An absurdly tight override makes the exact-identity checks fail,
    # which proves the override actually reaches them.
    report = run_suite("lemmas-sphere", ns=[3], seeds=2, tol=1e-30)
    assert not report.passed
    assert any(c.tolerance == 1e-30 for c in report.checks)
    # Loose override passes again.
    loose = run_suite("lemmas-sphere", ns=[3], seeds=2, tol=1e-3)
    assert loose.passed


def test_oracle_step_is_configurable():
    report = run_suite("oracle", ns=[2], seeds=1, h=2e-3)
    assert report.passed
    assert report.environment["h"] == 2e-3


def test_validation():
    with pytest.raises(ValidationError):
        run_suite("no-such-suite", ns=[2, 3])
    with pytest.raises(ValidationError):
        run_suite("all", ns=[])
    with pytest.raises(ValidationError):
        run_suite("all", ns=[1, 2])
    with pytest.raises(ValidationError):
        run_suite("all", ns=[2], seeds=0)


@pytest.mark.parametrize("h", [math.nan, -5.0, math.inf, 5e-7, 0.2])
@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_refuses_a_step_outside_the_oracle_range(suite, h):
    with pytest.raises(ContractError, match=r"oracle step must lie in \[1e-6, 1e-1\]"):
        run_suite(suite, ns=[2], seeds=1, h=h)


@pytest.mark.parametrize(
    "see",
    [
        lambda c: c.see(math.nan),
        lambda c: c.see_matrix([math.nan, 5.0]),
        lambda c: c.see_matrix([[0.0, math.nan]]),
        lambda c: (c.see(math.nan), c.see(5.0), c.see(0.0)),
        lambda c: (c.see(5.0), c.see_matrix([math.nan])),
    ],
)
def test_a_nan_deviation_fails_the_check_and_is_written_as_null(see):
    check = CheckRecord("x", 1e-10)
    see(check)
    assert math.isnan(check.max_deviation)
    assert not check.passed
    d = check.to_dict()
    assert d["max_deviation"] is None and d["pass"] is False
    json.dumps(d, allow_nan=False)


def test_an_infinite_deviation_fails_the_check_and_is_written_as_null():
    check = CheckRecord("x", 1e-10)
    check.see(-math.inf)
    assert check.max_deviation == math.inf and not check.passed
    assert check.to_dict()["max_deviation"] is None


def test_finite_deviations_keep_the_worst_absolute_value():
    check = CheckRecord("x", 1.0)
    check.see(-0.5)
    check.see_matrix([[0.25, -0.75]])
    check.see(0.1)
    assert check.to_dict() == {"name": "x", "max_deviation": 0.75, "tolerance": 1.0, "pass": True}
