"""The stacked sphere and O(n) closed forms against their one-row cases.

``sphere_reports`` and ``on_laplacians`` evaluate a stack of points in
chunks. Each row's record must equal, bit for bit, what ``sphere_report``
and ``on_laplacian`` give at that point alone (or the error that point
raises), whatever the chunking and whichever rows around it are refused.
The driver behind both, ``constraint_core._closed_form``, is checked against
the general evaluator on Stiefel manifolds V(s, p) other than these two.
"""

import itertools

import numpy as np
import pytest

from lapbel import constraint_core, numkit, orthogonal, sphere
from lapbel.constraint_core import ScalarField, linear_field
from lapbel.errors import (
    ChartError,
    ContractError,
    DimensionError,
    DomainError,
    LapbelError,
    NumericalError,
)
from lapbel.verify import random_polynomial_field, random_symmetric


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_outcome(a, b) -> bool:
    if isinstance(a, LapbelError) or isinstance(b, LapbelError):
        return (
            type(a) is type(b)
            and str(a) == str(b)
            and getattr(a, "residual", None) == getattr(b, "residual", None)
        )
    return all(
        same_bits(getattr(a, key), getattr(b, key))
        for key in ("value", "sigma", "trace_main", "trace_constraint", "frame_gram_condition")
    )


def outcome(call):
    try:
        return call()
    except LapbelError as exc:
        return exc


def poisoned(f, gradient_at=(), asymmetric_at=(), nan_hessian_at=()):
    """``f`` with a non-finite gradient, an asymmetric Hessian or a NaN
    Hessian entry at the listed points (matched exactly), in stacked forms
    that return copies (a copy of a broadcast keeps its strides' order, with
    the row axis fastest)."""

    def at(X, points):
        return np.array([any(np.array_equal(x, p) for p in points) for x in X], dtype=bool)

    def gradients(X):
        G = np.array(f.gradients(X))
        G[at(X, gradient_at), 0] = np.inf
        return G

    def hessians(X):
        H = np.array(f.hessians(X))
        H[at(X, asymmetric_at), 0, 1] += 1.0
        H[at(X, nan_hessian_at), 0, 0] = np.nan
        return H

    return ScalarField(f.dim, values_fn=f.values, gradients_fn=gradients, hessians_fn=hessians)


def small_chunks(monkeypatch, m):
    """Chunks of 3 rows for points of dimension m."""
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 3 * 8 * m * m)


# -- the sphere -----------------------------------------------------------------


def sphere_stack(n, radius, rng):
    X = np.stack([sphere.random_sphere_point(n, radius, rng).coords for _ in range(11)])
    X[2] *= 1.001  # off the sphere
    X[6] = 0.0
    X[6, 0] = 1e200  # residual inf
    return X


def sphere_one_row(f, x, radius):
    return outcome(lambda: sphere.sphere_report(f, sphere.SpherePoint(x, radius)))


@pytest.mark.parametrize("n", [3, 50, 200])
@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_sphere_reports_equal_their_one_row_calls_across_chunks(monkeypatch, n, radius):
    rng = np.random.default_rng([11, n])
    X = sphere_stack(n, radius, rng)
    polynomial = random_polynomial_field(rng, n, degree=4)
    fields = [
        polynomial,
        linear_field(rng.uniform(-1.0, 1.0, n)),
        poisoned(polynomial, gradient_at=[X[4]], asymmetric_at=[X[5], X[9]], nan_hessian_at=[X[8]]),
    ]
    small_chunks(monkeypatch, n)
    for f in fields:
        stacked = sphere.sphere_reports(f, X, radius)
        assert len(stacked) == len(X)
        for i, x in enumerate(X):
            assert same_outcome(stacked[i], sphere_one_row(f, x, radius)), (i, stacked[i])
    kinds = [type(r).__name__ for r in stacked]
    assert kinds[2] == kinds[6] == "DomainError" and kinds[4] == "DimensionError"
    assert kinds[5] == kinds[9] == "ContractError" and kinds[8] == "DimensionError"
    assert kinds.count("LaplacianReport") == 5


# -- the orthogonal group ----------------------------------------------------------


def on_fields(n, rng):
    A = rng.standard_normal((n, n))
    return [
        orthogonal.p1_field(A),
        orthogonal.p11_field(A),
        orthogonal.p2_field(A),
        orthogonal.brockett_field(random_symmetric(rng, n), rng.uniform(-1.0, 1.0, n)),
        linear_field(rng.uniform(-1.0, 1.0, n * n)),
        random_polynomial_field(rng, n * n, degree=4),
    ]


def on_stack(n, rng):
    X = np.stack([orthogonal.random_orthogonal(n, rng).to_vector() for _ in range(10)])
    X[1] *= 1.001  # off the group
    X[7, 0] = 1e200  # residual inf
    return X


def on_one_row(f, x, n):
    return outcome(lambda: orthogonal.on_laplacian(f, orthogonal.OrthogonalPoint(numkit.unvec(x, n))))


@pytest.mark.parametrize("n", range(2, 9))
def test_on_laplacians_equal_their_one_row_calls_across_chunks(monkeypatch, n):
    rng = np.random.default_rng([21, n])
    X = on_stack(n, rng)
    fields = on_fields(n, rng)
    fields.append(poisoned(fields[3], gradient_at=[X[4]], asymmetric_at=[X[5]], nan_hessian_at=[X[9]]))
    small_chunks(monkeypatch, n * n)
    for f in fields:
        stacked = orthogonal.on_laplacians(f, X)
        assert len(stacked) == len(X)
        for i, x in enumerate(X):
            assert same_outcome(stacked[i], on_one_row(f, x, n)), (i, stacked[i])
    kinds = [type(r).__name__ for r in stacked]
    assert kinds[1] == kinds[7] == "DomainError"
    assert kinds[4] == kinds[9] == "DimensionError" and kinds[5] == "ContractError"
    assert kinds.count("LaplacianReport") == 5


def test_on_laplacians_refuse_a_row_whose_multipliers_overflow():
    # At the 45-degree rotation the multiplier sigma_11 = (G^t U)_11 is
    # 1.7e308 sqrt(2), beyond the double range however the sum is split.
    c = np.sqrt(0.5)
    x = np.array([c, c, -c, c])
    # Assembly refuses the row, as on the general path with either frame.
    f = linear_field([1.7e308] * 4)
    (record,) = orthogonal.on_laplacians(f, x[None])
    assert isinstance(record, NumericalError)
    assert str(record) == "the evaluation overflowed: sigma or a trace is not finite"
    constraints = orthogonal.on_constraint_set(2)
    for frame in (None, orthogonal.on_adapted_frame()):
        (general,) = constraint_core.evaluate_points(f, constraints, frame, x[None])
        assert same_outcome(record, general)


def test_on_laplacians_evaluate_a_row_whose_multiplier_sum_alone_overflows():
    # sym(G^t U) at U = I is 1e308 in its corner, though G^t U + U^t G is not
    # finite; the general path gives the same value.
    x = np.eye(2).reshape(-1)
    f = linear_field([1e308, 0.0, 0.0, 0.0])
    (record,) = orthogonal.on_laplacians(f, x[None])
    (general,) = constraint_core.evaluate_points(f, orthogonal.on_constraint_set(2), None, x[None])
    assert record.value == general.value == -5e307
    assert record.sigma.tolist() == [1e308, 0.0, 0.0]


# -- one stage order on every route -------------------------------------------------

STAGES = ("admission", "gradient", "chart", "hessian")


def stage_of(record):
    """The stage whose error ``record`` is, or None for a report."""
    if isinstance(record, constraint_core.LaplacianReport):
        return None
    if isinstance(record, DomainError):
        return "admission"
    if isinstance(record, ChartError):
        return "chart"
    assert isinstance(record, DimensionError), record
    return {
        "gradient contains non-finite entries": "gradient",
        "hessian contains non-finite entries": "hessian",
    }[str(record)]


def stage_cases():
    for manifold in ("sphere", "O(3)"):
        stages = STAGES if manifold == "sphere" else tuple(s for s in STAGES if s != "chart")
        for count in range(len(stages) + 1):
            for faults in itertools.combinations(stages, count):
                yield pytest.param(manifold, faults, id="-".join((manifold,) + faults))


@pytest.mark.parametrize("manifold, faults", stage_cases())
def test_every_route_refuses_a_row_at_its_earliest_failing_stage(manifold, faults):
    # A row poisoned at several stages gets the error of the first one in
    # the order admission, field gradient, frame (the sphere's chart), field
    # Hessian on the closed form and on the general path with either frame.
    rng = np.random.default_rng(8)
    if manifold == "sphere":
        x = np.array([0.6, 0.8, 0.0])  # x_2 = 0: the chart excluding 2 fails
        f = random_polynomial_field(rng, 3)
        j = 2 if "chart" in faults else None
        cons, frame = sphere.sphere_constraint_set(3, 1.0), sphere.sphere_adapted_frame(1.0, j)
        closed_form = lambda f, X: sphere.sphere_reports(f, X, 1.0, j)  # noqa: E731
    else:
        x = orthogonal.random_orthogonal(3, rng).to_vector()
        f = orthogonal.brockett_field(random_symmetric(rng, 3), [1.0, 2.0, 3.0])
        cons, frame = orthogonal.on_constraint_set(3), orthogonal.on_adapted_frame()
        closed_form = orthogonal.on_laplacians
    if "admission" in faults:
        x = x * 1.001
    f = poisoned(
        f,
        gradient_at=[x] if "gradient" in faults else [],
        nan_hessian_at=[x] if "hessian" in faults else [],
    )
    (closed,) = closed_form(f, x[None])
    (normal,) = constraint_core.evaluate_points(f, cons, None, x[None])
    (framed,) = constraint_core.evaluate_points(f, cons, frame, x[None])
    earliest = faults[0] if faults else None
    assert stage_of(closed) == stage_of(framed) == earliest
    # without a frame there is no chart to fail
    unframed = [s for s in faults if s != "chart"]
    assert stage_of(normal) == (unframed[0] if unframed else None)
    if faults and faults[0] != "admission":
        assert same_outcome(closed, framed)


def test_a_chunk_refused_before_the_chart_is_not_asked_for_its_chart():
    # the chart refuses an out-of-range index for any stack, even an empty one;
    # a row that admission refuses keeps its DomainError, as on the general path
    f = linear_field([1.0, 0.0, 0.0])
    X = np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.01]])
    closed = sphere.sphere_reports(f, X, 1.0, 5)
    frame = sphere.sphere_adapted_frame(1.0, 5)
    general = constraint_core.evaluate_points(f, sphere.sphere_constraint_set(3, 1.0), frame, X)
    assert [type(r) for r in closed] == [type(r) for r in general] == [DimensionError, DomainError]
    assert str(closed[0]) == str(general[0])
    assert closed[1].residual == general[1].residual == pytest.approx(1e-4)


# -- the driver is the closed form of V(s, p) ----------------------------------------


def stiefel_case(s, p, weight, radius, rng):
    """The constraint set of V(s, p) with norm constraints of ``weight`` and
    radius ``radius`` (pairs of weight 1), and 4 points of it, vec(U) by row."""
    products = [(a, a, weight) for a in range(p)]
    products += [(b, c, 1.0) for b, c in itertools.combinations(range(p), 2)]
    values = [weight * radius**2] * p + [0.0] * (len(products) - p)
    cons = constraint_core.block_product_set(s * p, s, products, np.array(values))
    U = [radius * np.linalg.qr(rng.standard_normal((s, p)))[0] for _ in range(4)]
    return cons, np.stack([u.reshape(-1, order="F") for u in U])


@pytest.mark.parametrize(
    "s, p, weight, radius",
    [(3, 1, 0.5, 1.0), (5, 2, 0.5, 1.0), (5, 3, 0.5, 1.0), (7, 4, 0.5, 1.0), (4, 4, 0.5, 1.0),
     (6, 6, 0.5, 1.0), (3, 1, 1.0, 2.5), (6, 1, 1.0, 2.5)],
)
def test_the_closed_form_driver_is_the_general_evaluator_on_every_stiefel_manifold(s, p, weight, radius):
    rng = np.random.default_rng([s, p])
    cons, X = stiefel_case(s, p, weight, radius, rng)
    fields = [random_polynomial_field(rng, s * p) for _ in X]

    def admit(X):
        U = X.reshape(len(X), p, s).transpose(0, 2, 1)
        return constraint_core._admit_blocks(U, radius, 1e-8, "off V(s, p):")

    def frame(X):
        return np.ones(len(X)), [None] * len(X)

    closed = constraint_core._closed_form(fields, X, (s, p), weight, radius, admit, frame)
    general = constraint_core.evaluate_points(fields, cons, None, X)
    for a, b in zip(closed, general):
        for key in ("value", "sigma", "trace_main", "trace_constraint", "frame_gram_condition"):
            expected = np.atleast_1d(getattr(b, key))
            scale = max(1.0, np.abs(expected).max())
            np.testing.assert_allclose(getattr(a, key), expected, rtol=0, atol=1e-12 * scale)


# -- one-row cases do not admit again --------------------------------------------


def test_a_point_admitted_at_a_looser_tolerance_still_evaluates():
    rng = np.random.default_rng(5)
    x = sphere.random_sphere_point(4, 2.0, rng).coords * (1 + 1e-6)
    f = random_polynomial_field(rng, 4)
    with pytest.raises(DomainError):
        sphere.SpherePoint(x, 2.0)
    point = sphere.SpherePoint(x, 2.0, tol=1e-3)
    report = sphere.sphere_report(f, point)
    assert same_outcome(report, sphere.sphere_reports(f, x[None], 2.0, tol=1e-3)[0])

    U = orthogonal.random_orthogonal(3, rng).matrix * (1 + 1e-6)
    with pytest.raises(DomainError):
        orthogonal.OrthogonalPoint(U)
    point = orthogonal.OrthogonalPoint(U, tol=1e-3)
    f = orthogonal.brockett_field(random_symmetric(rng, 3), [1.0, 2.0, 3.0])
    report = orthogonal.on_laplacian(f, point)
    assert same_outcome(report, orthogonal.on_laplacians(f, point.to_vector()[None], 1e-3)[0])


def test_the_stacked_closed_forms_refuse_a_stack_as_a_whole_only_when_it_is_malformed():
    f = linear_field([1.0, 0.0, 0.0])
    with pytest.raises(DimensionError):
        sphere.sphere_reports(f, [[np.nan, 0.0, 0.0]], 1.0)
    with pytest.raises(DimensionError, match="not a square matrix flattening"):
        orthogonal.on_laplacians(f, np.zeros((2, 3)))
    bad_shape = ScalarField(3, values_fn=f.values, gradients_fn=lambda X: np.zeros((len(X), 2)),
                            hessians_fn=f.hessians)
    records = sphere.sphere_reports(bad_shape, np.eye(3), 1.0)
    assert [str(r) for r in records] == ["gradient stack has shape (1, 2), expected (1, 3)"] * 3
    assert not isinstance(records[0], ContractError)


# -- derivative stacks in any memory order -----------------------------------------


def fortran_ordered(f):
    """``f`` with stacked gradient and Hessian forms that return Fortran-ordered
    stacks: the row axis fastest, each row strided."""
    return ScalarField(
        f.dim,
        values_fn=f.values,
        gradients_fn=lambda X: np.asfortranarray(f.gradients(X)),
        hessians_fn=lambda X: np.asfortranarray(f.hessians(X)),
    )


def general_one_row(f, constraints, x):
    evaluate = constraint_core.laplace_beltrami_general
    return outcome(lambda: evaluate(f, constraints, None, x))


@pytest.mark.parametrize("evaluator", ["general", "sphere", "orthogonal"])
def test_rows_of_fortran_ordered_derivative_stacks_equal_their_one_row_calls(evaluator):
    rng = np.random.default_rng([31, len(evaluator)])
    f = fortran_ordered(random_polynomial_field(rng, 9, degree=4))
    if evaluator == "orthogonal":
        X = np.stack([orthogonal.random_orthogonal(3, rng).to_vector() for _ in range(200)])
        stacked = orthogonal.on_laplacians(f, X)
        one_row = [on_one_row(f, x, 3) for x in X]
    else:
        X = np.stack([sphere.random_sphere_point(9, 1.0, rng).coords for _ in range(200)])
        if evaluator == "sphere":
            stacked = sphere.sphere_reports(f, X, 1.0)
            one_row = [sphere_one_row(f, x, 1.0) for x in X]
        else:
            constraints = sphere.sphere_constraint_set(9, 1.0)
            stacked = constraint_core.evaluate_points(f, constraints, None, X)
            one_row = [general_one_row(f, constraints, x) for x in X]
    assert all(isinstance(r, constraint_core.LaplacianReport) for r in stacked)
    assert all(map(same_outcome, stacked, one_row))


def test_the_stacked_derivatives_are_c_ordered_unless_they_repeat_one_array():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 9))
    f = fortran_ordered(random_polynomial_field(rng, 9))
    assert f.gradients(X).flags.c_contiguous and f.hessians(X).flags.c_contiguous
    assert f.hessians(X[:1]).flags.c_contiguous
    H = orthogonal.p2_field(rng.standard_normal((3, 3))).hessians(X)
    assert H.strides[0] == 0 and not H.flags.writeable


# -- assembly ---------------------------------------------------------------------


def test_a_value_that_overflows_is_refused_on_both_sphere_paths():
    hessian = np.diag([0.0, 1e308, 0.0])
    f = ScalarField(
        3,
        value_fn=lambda u: 0.0,
        gradient_fn=lambda u: np.array([-1e308, 0.0, 0.0]),
        hessian_fn=lambda u: hessian,
    )
    e1 = np.eye(3)[:1]
    constraints = sphere.sphere_constraint_set(3, 1.0)
    for (record,) in (
        sphere.sphere_reports(f, e1, 1.0),
        constraint_core.evaluate_points(f, constraints, None, e1),
    ):
        assert type(record).__name__ == "NumericalError"
        assert str(record) == "the evaluation overflowed: the value is not finite"
