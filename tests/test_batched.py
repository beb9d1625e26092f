"""The batched general evaluator and the stacked derivative forms.

``evaluate_points`` runs each stage of the general formula over a stack of
points. Its records must equal, record for record and bit for bit, those of
``laplace_beltrami_general`` at each point alone, whatever the chunking; the
stacked numpy kernels it relies on are pinned against per-matrix calls here.
"""

import json

import numpy as np
import pytest

from lapbel import constraint_core, orthogonal, sphere
from lapbel.cli import main
from lapbel.constraint_core import (
    AdaptedFrame,
    ConstraintSet,
    ScalarField,
    evaluate_points,
    laplace_beltrami_general,
    polynomial_field,
)
from lapbel.errors import ChartError, ContractError, DimensionError, LapbelError
from lapbel.numkit import Tolerances
from lapbel.verify import random_polynomial_field, random_symmetric


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- stacked numpy kernels against per-matrix calls -------------------------

# (m, k): the sphere (k = 1), the Clifford torus, and the O(n) general path
# (k = n(n+1)/2 constraints, r = m - k tangent directions), up to O(8).
SHAPES = [(3, 1), (5, 1), (4, 2), (9, 6), (25, 15), (64, 36)]


@pytest.mark.parametrize("m, k", SHAPES)
def test_stacked_linalg_matches_per_matrix_calls_bit_for_bit(m, k):
    rng = np.random.default_rng([4, m, k])
    N, r = 5, m - k
    J = rng.standard_normal((N, k, m))
    g = rng.standard_normal((N, m))
    H = rng.standard_normal((N, m, m))
    Hc = rng.standard_normal((k, m, m))
    T = rng.standard_normal((N, m, r))

    Q, R = np.linalg.qr(np.swapaxes(J, 1, 2))
    b = np.swapaxes(Q, 1, 2) @ g[:, :, None]
    sigma = np.linalg.solve(R, b)[:, :, 0]
    G = np.swapaxes(T, 1, 2) @ T
    w = np.linalg.eigvalsh((G + np.swapaxes(G, 1, 2)) / 2.0)
    QT, RT = np.linalg.qr(T)
    T_plus = np.linalg.solve(RT, np.swapaxes(QT, 1, 2))
    Qs = Q[:, None]
    none_traces = np.trace(Hc, axis1=-2, axis2=-1) - np.sum(Qs * (Hc @ Qs), axis=(-2, -1))
    field_traces = np.trace(H, axis1=-2, axis2=-1) - np.sum(Q * (H @ Q), axis=(-2, -1))
    frame_traces = np.trace(T_plus[:, None] @ Hc @ T[:, None], axis1=-2, axis2=-1)
    for i in range(N):
        Qi, Ri = np.linalg.qr(J[i].T)
        assert same_bits(Q[i], Qi) and same_bits(R[i], Ri)
        assert same_bits(b[i, :, 0], Qi.T @ g[i])
        assert same_bits(sigma[i], np.linalg.solve(Ri, Qi.T @ g[i]))
        Gi = T[i].T @ T[i]
        assert same_bits(G[i], Gi)
        assert same_bits(w[i], np.linalg.eigvalsh((Gi + Gi.T) / 2.0))
        QTi, RTi = np.linalg.qr(T[i])
        assert same_bits(T_plus[i], np.linalg.solve(RTi, QTi.T))
        Hi = H[i]
        assert same_bits(
            field_traces[i], np.trace(Hi) - np.sum(Qi * (Hi @ Qi), axis=(-2, -1))
        )
        assert same_bits(
            none_traces[i],
            np.trace(Hc, axis1=-2, axis2=-1) - np.sum(Qi * (Hc @ Qi), axis=(-2, -1)),
        )
        assert same_bits(
            frame_traces[i], np.trace(T_plus[i] @ Hc @ T[i], axis1=-2, axis2=-1)
        )


# -- stacked derivative forms -----------------------------------------------


def random_sparse_terms(rng, dim, count=14, degree=5):
    """Terms on at most three variables, often sharing the first few, so
    that table entries collect several contributions."""
    terms = []
    for t in range(count):
        powers = np.zeros(dim, dtype=int)
        pool = min(dim, 4) if t % 2 else dim
        support = rng.integers(0, pool, size=3)
        for _ in range(int(rng.integers(0, degree + 1))):
            powers[support[rng.integers(0, 3)]] += 1
        terms.append((float(rng.uniform(-1.0, 1.0)), powers))
    return terms


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 50])
def test_polynomial_stacked_forms_match_the_per_point_forms_row_by_row(dim):
    rng = np.random.default_rng([7, dim])
    f = polynomial_field(dim, random_sparse_terms(rng, dim))
    X = rng.uniform(-1.5, 1.5, size=(40, dim))
    X[::5, : (dim + 1) // 2] = 0.0  # 0.0 ** 0 == 1 in the stacked pass too
    assert same_bits(f.values_fn(X), np.array([f.value_fn(x) for x in X]))
    assert same_bits(f.gradients_fn(X), np.stack([f.gradient_fn(x) for x in X]))
    assert same_bits(f.hessians_fn(X), np.stack([f.hessian_fn(x) for x in X]))


def test_polynomial_stacked_forms_do_not_depend_on_the_chunk_size(monkeypatch):
    rng = np.random.default_rng(12)
    f = polynomial_field(6, random_sparse_terms(rng, 6))
    X = rng.standard_normal((37, 6))
    whole = (f.values_fn(X), f.gradients_fn(X), f.hessians_fn(X))
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 1000)  # a few rows per pass
    assert all(
        same_bits(a, b) for a, b in zip(whole, (f.values_fn(X), f.gradients_fn(X), f.hessians_fn(X)))
    )


def test_block_product_gradients_match_the_per_point_form():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 9))
    for field in orthogonal.on_constraint_set(3).fields:
        assert same_bits(field.gradients(X), np.stack([field.gradient_fn(x) for x in X]))


def test_stacked_derivatives_fall_back_to_the_rows_and_check_shapes():
    f = ScalarField(2, lambda u: float(u @ u), lambda u: 2.0 * u, lambda u: 2.0 * np.eye(2))
    X = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])
    assert same_bits(f.gradients(X), 2.0 * X)
    assert same_bits(f.hessians(X), np.stack([2.0 * np.eye(2)] * 3))
    assert f.gradients(np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(DimensionError):
        f.gradients(np.zeros((3, 5)))
    bad = ScalarField(2, f.value_fn, lambda u: np.zeros(3), f.hessian_fn)
    with pytest.raises(DimensionError, match="gradient has shape"):
        bad.gradients(X)
    bad = ScalarField(2, f.value_fn, f.gradient_fn, f.hessian_fn, gradients_fn=lambda X: X[:, :1])
    with pytest.raises(DimensionError, match="gradient stack has shape"):
        bad.gradients(X)


# -- evaluate_points against the per-point evaluator ------------------------


def outcome(call):
    try:
        return call()
    except LapbelError as exc:
        return exc


def same_outcome(a, b) -> bool:
    if isinstance(a, LapbelError) or isinstance(b, LapbelError):
        return (
            type(a) is type(b)
            and str(a) == str(b)
            and getattr(a, "residual", None) == getattr(b, "residual", None)
            and getattr(a, "condition", None) == getattr(b, "condition", None)
        )
    return all(
        same_bits(getattr(a, key), getattr(b, key))
        for key in ("value", "sigma", "trace_main", "trace_constraint", "frame_gram_condition")
    )


def assert_matches_per_row(f, constraints, frame, X, tols=None):
    batched = evaluate_points(f, constraints, frame, X, tols)
    single = [outcome(lambda: laplace_beltrami_general(f, constraints, frame, x, tols)) for x in X]
    assert len(batched) == len(X)
    for i, (a, b) in enumerate(zip(batched, single)):
        assert same_outcome(a, b), (i, a, b)
    return batched


def sphere_stack(rng, n, radius, rows):
    """Points on the sphere, with rows 2 and 9 off it, row 4 huge, and
    rows 6 and 7 with a zero first coordinate."""
    X = rng.standard_normal((rows, n))
    X[6:8, 0] = 0.0
    X = radius * X / np.linalg.norm(X, axis=1, keepdims=True)
    X[2] *= 1.01
    X[9] *= 0.9
    X[4] = 0.0
    X[4, 0] = 1e200
    return X


@pytest.mark.parametrize("chart", [None, 0])
@pytest.mark.parametrize("with_frame", [True, False])
def test_evaluate_points_equals_the_per_row_evaluator_across_chunks(monkeypatch, with_frame, chart):
    # the sphere in R^4 counts k m^2 = 16 doubles per row, so 400 bytes
    # gives chunks of 3 rows: errors fall on both sides of chunk boundaries
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 400)
    rng = np.random.default_rng([21, chart is None])
    n, radius = 4, 1.5
    f = random_polynomial_field(rng, n, degree=4)
    cons = sphere.sphere_constraint_set(n, radius)
    frame = sphere.sphere_adapted_frame(radius, excluded_index=chart) if with_frame else None
    records = assert_matches_per_row(f, cons, frame, sphere_stack(rng, n, radius, 14))
    kinds = {type(r).__name__ for r in records}
    assert {"LaplacianReport", "DomainError"} <= kinds
    if with_frame and chart == 0:
        assert isinstance(records[6], ChartError) and isinstance(records[7], ChartError)


def test_evaluate_points_on_the_orthogonal_group_across_chunks(monkeypatch):
    # O(3) counts k m^2 = 486 doubles per row: chunks of 3 rows
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 12000)
    rng = np.random.default_rng(5)
    X = np.stack([orthogonal.random_orthogonal(3, s).to_vector() for s in range(11)])
    X[[2, 3, 7]] *= 1.001
    cons = orthogonal.on_constraint_set(3)
    brockett = orthogonal.brockett_field(random_symmetric(rng, 3), rng.uniform(-1.0, 1.0, 3))
    quartic = random_polynomial_field(rng, 9, degree=4)
    for f in (brockett, quartic):
        for frame in (orthogonal.on_adapted_frame(), None):
            assert_matches_per_row(f, cons, frame, X)
    tight = Tolerances(condition_limit=0.5)  # the O(3) frame Gram is 2 I, condition 1
    records = assert_matches_per_row(brockett, cons, orthogonal.on_adapted_frame(), X, tight)
    assert {type(r).__name__ for r in records} == {"SingularityError", "DomainError"}


def planes_with_faults(raising):
    """The planes x^2 - y^2 = 0 in R^3 and a field whose gradient raises at
    the third row when ``raising`` and whose Hessian is asymmetric where
    z > 1."""

    def gradient(u):
        if raising and u[2] == 0.5:
            raise ContractError("no gradient at z = 1/2")
        return np.array([u[1], u[0], np.inf if u[2] == 2.0 else 3.0 * u[2] ** 2])

    def hessian(u):
        H = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 6.0 * u[2]]])
        if u[2] > 1.0:
            H[0, 2] += u[2]
        return H

    f = ScalarField(3, lambda u: float(u[0] * u[1] + u[2] ** 3), gradient, hessian)
    planes = polynomial_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    cons = ConstraintSet(ambient_dim=3, fields=(planes,), regular_value=[0.0])
    X = np.array(
        [
            [1.0, 1.0, 0.3],
            [0.0, 0.0, 1.0],  # rank deficient
            [0.7, -0.7, 0.5],  # the field's gradient may raise
            [1.0, 0.5, 0.0],  # off the manifold
            [0.4, 0.4, 2.0],  # non-finite field gradient
            [2.0, -2.0, 1.5],  # asymmetric field Hessian
            [1e200, 0.0, 0.0],  # residual inf
            [-0.3, 0.3, -1.2],
        ]
    )
    return f, cons, X


@pytest.mark.parametrize("raising", [True, False])
@pytest.mark.parametrize("budget", [1000, 150, 100])  # 72 bytes a row
def test_every_row_gets_its_own_first_error(monkeypatch, budget, raising):
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", budget)
    f, cons, X = planes_with_faults(raising)
    records = assert_matches_per_row(f, cons, None, X)
    assert [type(r).__name__ for r in records] == [
        "LaplacianReport",
        "RegularityError",
        "ContractError" if raising else "LaplacianReport",
        "DomainError",
        "DimensionError",
        "ContractError",
        "DomainError",
        "LaplacianReport",
    ]
    assert "residual 0.75 " in str(records[3]) and records[3].residual == 0.75
    assert "residual inf " in str(records[6])
    if raising:
        assert str(records[2]) == "no gradient at z = 1/2"
    assert str(records[5]) == "hessian is not symmetric: max |H - H^T| = 1.500e+00"


def test_explicit_frame_is_taken_once_per_admitted_row():
    calls = []
    cons = sphere.sphere_constraint_set(3, 1.0)
    inner = sphere.sphere_adapted_frame(1.0)

    def provider(u):
        calls.append(1)
        return inner.at(u)

    X = sphere_stack(np.random.default_rng(2), 3, 1.0, 12)
    f = random_polynomial_field(np.random.default_rng(3), 3, degree=3)
    records = evaluate_points(f, cons, AdaptedFrame(provider), X)
    admitted = sum(1 for r in records if not isinstance(r, LapbelError))
    assert admitted == len(X) - 3 and len(calls) == admitted


def test_constant_hessians_are_built_once_for_the_whole_stack():
    counts = {}

    def counted(field, key):
        def hessian(u):
            counts[key] = counts.get(key, 0) + 1
            return field.hessian_fn(u)

        return ScalarField(
            field.dim, field.value_fn, field.gradient_fn, hessian, constant_hessian=True
        )

    circles = [
        counted(polynomial_field(4, [(1.0, (2, 0, 0, 0)), (1.0, (0, 2, 0, 0))]), 0),
        counted(polynomial_field(4, [(1.0, (0, 0, 2, 0)), (1.0, (0, 0, 0, 2))]), 1),
    ]
    cons = ConstraintSet(ambient_dim=4, fields=tuple(circles), regular_value=[1.0, 1.0])
    f = counted(polynomial_field(4, [(1.0, (1, 1, 0, 0)), (-0.5, (0, 0, 2, 0))]), "f")
    s, t = np.linspace(0.0, 6.0, 50), np.linspace(1.0, 4.0, 50)
    X = np.stack([np.cos(s), np.sin(s), np.cos(t), np.sin(t)], axis=1)
    records = evaluate_points(f, cons, None, X)
    assert all(not isinstance(r, LapbelError) for r in records)
    assert counts == {0: 1, 1: 1, "f": 1}


def test_evaluate_points_refuses_a_stack_of_the_wrong_dimension():
    cons = sphere.sphere_constraint_set(3, 1.0)
    f = random_polynomial_field(np.random.default_rng(0), 3, degree=2)
    with pytest.raises(DimensionError, match="one ambient dimension"):
        evaluate_points(f, cons, None, np.zeros((2, 4)))
    with pytest.raises(DimensionError, match="one ambient dimension"):
        evaluate_points(f, cons, None, np.zeros(3))
    assert evaluate_points(f, cons, None, np.zeros((0, 3))) == []


def test_chunks_stay_within_the_byte_budget():
    assert constraint_core._chunks(10, 3 * constraint_core._CHUNK_BYTES) == [
        slice(i, i + 1) for i in range(10)
    ]
    slices = constraint_core._chunks(1000, 8 * 2 * 4 * 4)
    assert slices[0] == slice(0, 1000)
    slices = constraint_core._chunks(200, 8 * 36 * 64 * 64)  # O(8): a few rows each
    assert all(1 <= s.stop - s.start <= 4 for s in slices)
    assert slices[-1].stop == 200 and all(a.stop == b.start for a, b in zip(slices, slices[1:]))


# -- the command line ---------------------------------------------------------


def test_eval_sends_a_shared_field_job_in_one_call(tmp_path, monkeypatch, capsys):
    calls = []
    original = constraint_core.evaluate_points

    def spy(f, constraints, frame, X, tols=None):
        calls.append(len(X))
        return original(f, constraints, frame, X, tols)

    monkeypatch.setattr(constraint_core, "evaluate_points", spy)
    points = [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 2.0]]
    job = {
        "manifold": {"type": "sphere", "n": 3},
        "function": {"type": "linear", "coefficients": [1.0, 2.0, 3.0]},
        "points": points,
        "options": {"path": "general-frame"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["eval", "--job", str(path)]) == 4
    assert calls == [3]
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize(
    "where, spec",
    [
        ("job.function", "function"),
        ("manifold.constraints[0]", "constraint"),
    ],
)
def test_an_overflowing_derivative_coefficient_is_refused_in_one_line(tmp_path, capfd, where, spec):
    huge = [{"coeff": 1e308, "powers": [3, 0, 0]}]
    plain = [{"coeff": 1.0, "powers": [2, 0, 0]}, {"coeff": 1.0, "powers": [0, 2, 0]}]
    job = {
        "manifold": {
            "type": "generic",
            "ambient_dim": 3,
            "constraints": [{"terms": huge if spec == "constraint" else plain}],
            "regular_value": [1.0],
        },
        "function": {"type": "polynomial", "terms": huge if spec == "function" else plain},
        "points": [[1.0, 0.0, 0.0]],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["eval", "--job", str(path)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == (
        f"error: {where}: term 0 (coeff 1e+308, powers [3, 0, 0]) has a derivative "
        "coefficient that overflows\n"
    )


def test_polynomial_field_refuses_each_overflowing_table_entry():
    with pytest.raises(ContractError, match="term 1 "):
        polynomial_field(2, [(1.0, (1, 1)), (-5e307, (3, 0))])  # 6 * 5e307 on H[0, 0]
    with pytest.raises(ContractError, match="term 0 "):
        polynomial_field(2, [(1e308, (1, 2))])  # 2e308 on the gradient
    f = polynomial_field(2, [(1e308, (1, 0)), (2e307, (2, 0))])  # 4e307 is finite
    assert np.isfinite(f.gradient([1.0, 0.0])).all()
