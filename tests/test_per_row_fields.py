"""The evaluators given one field per row of the stack.

``sphere_reports``, ``on_laplacians`` and ``evaluate_points`` take one
ScalarField for every row or a sequence of fields, one per row. Each row's
record must equal, bit for bit, what the evaluator gives for that row alone
with its own field (or the same error type and text), whatever the chunking,
whichever rows around it are refused, and whichever fields its neighbours
have. A run of consecutive rows that share one field object costs one
stacked derivative call.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapbel import constraint_core, orthogonal, sphere
from lapbel.cli import main
from lapbel.constraint_core import ScalarField, linear_field, polynomial_field
from lapbel.errors import ContractError, DimensionError, LapbelError, NumericalError
from lapbel.verify import random_polynomial_field, random_symmetric

REPORT_KEYS = ("value", "sigma", "trace_main", "trace_constraint", "frame_gram_condition")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_outcome(a, b) -> bool:
    if isinstance(a, LapbelError) or isinstance(b, LapbelError):
        return type(a) is type(b) and str(a) == str(b) and all(
            getattr(a, key, None) == getattr(b, key, None) for key in ("residual", "condition")
        )
    return all(same_bits(getattr(a, key), getattr(b, key)) for key in REPORT_KEYS)


def broken(f, gradient=False, asymmetric=False, raising=False):
    """``f`` with an infinite gradient entry, an asymmetric Hessian, or
    stacked derivatives that refuse every stack, at every point."""

    def gradients(X):
        if raising:
            raise NumericalError("this field refuses every stack")
        G = np.array(f.gradients(X))
        if gradient:
            G[:, 0] = np.inf
        return G

    def hessians(X):
        H = np.array(f.hessians(X))
        if asymmetric:
            H[:, 0, 1] += 1.0
        return H

    return ScalarField(f.dim, values_fn=f.values, gradients_fn=gradients, hessians_fn=hessians)


def counted(f, calls: dict, name: str):
    """``f``, recording the row count of each stacked derivative call under
    ``calls[(name, "gradients")]`` and ``calls[(name, "hessians")]``."""

    def spy(derivative):
        def stacked(X):
            calls.setdefault((name, derivative), []).append(len(X))
            return getattr(f, derivative)(X)

        return stacked

    return ScalarField(
        f.dim, values_fn=f.values, gradients_fn=spy("gradients"), hessians_fn=spy("hessians")
    )


def three_row_chunks(monkeypatch, m):
    """Chunks of 3 rows on every path: the closed forms and the general path
    on a block-product set all budget m^2 doubles per row."""
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 3 * 8 * m * m)


# Each path: (points, fields shared by several rows, the evaluator of a stack).


def sphere_case(rng, frame):
    n, radius = 4, 2.5
    X = np.stack([sphere.random_sphere_point(n, radius, rng).coords for _ in range(12)])
    fields = [random_polynomial_field(rng, n), random_polynomial_field(rng, n)]
    fields.append(linear_field(rng.uniform(-1.0, 1.0, n)))
    if frame == "closed":
        return X, fields, lambda f, Y: sphere.sphere_reports(f, Y, radius)
    constraints = sphere.sphere_constraint_set(n, radius)
    provider = sphere.sphere_adapted_frame(radius) if frame == "explicit" else None
    return X, fields, lambda f, Y: constraint_core.evaluate_points(f, constraints, provider, Y)


def on_case(rng, frame):
    n = 3
    X = np.stack([orthogonal.random_orthogonal(n, rng).to_vector() for _ in range(12)])
    A = rng.standard_normal((n, n))
    fields = [random_polynomial_field(rng, n * n), orthogonal.p2_field(A)]
    fields.append(orthogonal.brockett_field(random_symmetric(rng, n), rng.uniform(-1.0, 1.0, n)))
    if frame == "closed":
        return X, fields, orthogonal.on_laplacians
    constraints = orthogonal.on_constraint_set(n)
    provider = orthogonal.on_adapted_frame() if frame == "explicit" else None
    return X, fields, lambda f, Y: constraint_core.evaluate_points(f, constraints, provider, Y)


PATHS = [
    (sphere_case, "closed"),
    (sphere_case, "explicit"),
    (sphere_case, None),
    (on_case, "closed"),
    (on_case, "explicit"),
    (on_case, None),
]


@pytest.mark.parametrize("case, frame", PATHS)
def test_each_row_has_the_bits_of_its_one_row_evaluation(monkeypatch, case, frame):
    rng = np.random.default_rng([41, len(PATHS), PATHS.index((case, frame))])
    X, (a, b, c), evaluate = case(rng, frame)
    X[2] *= 1.001  # off the manifold
    fields = [
        a, a, b,  # rows 0 and 1 share a field
        b, broken(a, gradient=True), c,
        c, broken(b, asymmetric=True), broken(a, raising=True),  # the chunk is re-run row by row
        a, b, a,
    ]
    three_row_chunks(monkeypatch, X.shape[1])
    stacked = evaluate(fields, X)
    one_row = [evaluate(f, X[i : i + 1])[0] for i, f in enumerate(fields)]
    assert len(stacked) == len(X)
    for i, (record, alone) in enumerate(zip(stacked, one_row)):
        assert same_outcome(record, alone), (i, record, alone)
    kinds = [type(r).__name__ for r in stacked]
    assert kinds[2] == "DomainError" and kinds[4] == "DimensionError"
    assert kinds[7] == "ContractError" and kinds[8] == "NumericalError"
    assert kinds.count("LaplacianReport") == 8
    assert str(stacked[4]) == "gradient contains non-finite entries"
    assert str(stacked[8]) == "this field refuses every stack"


@pytest.mark.parametrize("case, frame", PATHS)
def test_a_shared_field_makes_one_derivative_call_per_chunk(monkeypatch, case, frame):
    rng = np.random.default_rng([43, PATHS.index((case, frame))])
    X, (a, b, _), evaluate = case(rng, frame)
    X = X[:10]
    three_row_chunks(monkeypatch, X.shape[1])
    for form in ("one field", "a field per row"):
        calls = {}
        f = counted(a, calls, "a")
        stacked = evaluate(f if form == "one field" else [f] * len(X), X)
        assert all(isinstance(r, constraint_core.LaplacianReport) for r in stacked)
        assert calls == {("a", "gradients"): [3, 3, 3, 1], ("a", "hessians"): [3, 3, 3, 1]}, form
    # a run of rows that share a field is one call, also across a refused row
    calls = {}
    fa, fb = counted(a, calls, "a"), counted(b, calls, "b")
    X[7] *= 1.001  # off the manifold, between two rows of fa
    evaluate([fa, fa, fa, fb, fb, fa, fa, fa, fa, fa], X)
    assert calls[("a", "gradients")] == [3, 1, 2, 1]
    assert calls[("b", "gradients")] == [2]


@pytest.mark.parametrize("case, frame", PATHS)
def test_a_chunk_with_no_row_left_gives_each_row_its_error(monkeypatch, case, frame):
    rng = np.random.default_rng([47, PATHS.index((case, frame))])
    X, (a, b, c), evaluate = case(rng, frame)
    X = X[:4]
    X[:3] *= 1.001  # the first chunk is refused whole at admission
    three_row_chunks(monkeypatch, X.shape[1])
    fields = [a, b, c, a]
    stacked = evaluate(fields, X)
    one_row = [evaluate(f, X[i : i + 1])[0] for i, f in enumerate(fields)]
    assert all(map(same_outcome, stacked, one_row))
    assert [type(r).__name__ for r in stacked] == ["DomainError"] * 3 + ["LaplacianReport"]


def test_a_field_list_must_match_the_rows():
    X = np.eye(3)
    f = linear_field([1.0, 2.0, 3.0])
    constraints = sphere.sphere_constraint_set(3, 1.0)
    for evaluate in (
        lambda fs: sphere.sphere_reports(fs, X, 1.0),
        lambda fs: constraint_core.evaluate_points(fs, constraints, None, X),
        lambda fs: orthogonal.on_laplacians(fs, np.eye(2).reshape(1, 4).repeat(3, axis=0)),
    ):
        with pytest.raises(DimensionError, match="^2 fields for 3 points$"):
            evaluate([f, f])
        with pytest.raises(ContractError, match="^field 1 is not a ScalarField$"):
            evaluate([f, "f", f])
    with pytest.raises(DimensionError, match="must share one ambient dimension"):
        constraint_core.evaluate_points([f, f, linear_field([1.0, 2.0])], constraints, None, X)


def test_eval_sends_an_external_samples_job_in_one_call(tmp_path, monkeypatch, capsys):
    calls = []
    original = constraint_core.evaluate_points

    def spy(f, constraints, frame, X, tols=None):
        calls.append((len(f), len(X)))
        return original(f, constraints, frame, X, tols)

    monkeypatch.setattr(constraint_core, "evaluate_points", spy)
    hessian = {"rows": 3, "cols": 3, "data": [0.0] * 9}
    sample = {"value": 1.0, "gradient": [1.0, 0.0, 0.0], "hessian": hessian}
    job = {
        "manifold": {"type": "sphere", "n": 3},
        "function": {"type": "external-samples", "samples": [sample] * 3},
        "points": [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 2.0]],
        "options": {"path": "general-frame"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["eval", "--job", str(path)]) == 4
    assert calls == [(3, 3)]
    assert len(capsys.readouterr().out.splitlines()) == 3


# -- property: stacked per-row fields equal their per-point evaluations ----------

terms = st.lists(
    st.tuples(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.lists(st.integers(0, 3), min_size=9, max_size=9),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    manifold=st.sampled_from(["sphere", "orthogonal"]),
    n=st.integers(2, 3),
    field_terms=st.lists(terms, min_size=1, max_size=3),
    rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
)
def test_stacked_fields_per_row_equal_their_per_point_evaluations(manifold, n, field_terms, rows):
    m = n if manifold == "sphere" else n * n
    fields = [polynomial_field(m, [(c, p[:m]) for c, p in t]) for t in field_terms]
    per_row = [fields[k % len(fields)] for k, _ in rows]
    if manifold == "sphere":
        X = np.stack([sphere.random_sphere_point(n, 1.5, seed).coords for _, seed in rows])
        constraints = sphere.sphere_constraint_set(n, 1.5)
        frame = sphere.sphere_adapted_frame(1.5)
        closed = lambda f, Y: sphere.sphere_reports(f, Y, 1.5)  # noqa: E731
    else:
        X = np.stack([orthogonal.random_orthogonal(n, seed).to_vector() for _, seed in rows])
        constraints = orthogonal.on_constraint_set(n)
        frame = orthogonal.on_adapted_frame()
        closed = orthogonal.on_laplacians
    for evaluate in (
        closed,
        lambda f, Y: constraint_core.evaluate_points(f, constraints, frame, Y),
        lambda f, Y: constraint_core.evaluate_points(f, constraints, None, Y),
    ):
        stacked = evaluate(per_row, X)
        for i, f in enumerate(per_row):
            assert same_outcome(stacked[i], evaluate(f, X[i : i + 1])[0]), i
