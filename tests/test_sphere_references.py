"""The stacked sphere references against their one-row cases.

``sphere._sphere_laplacians`` and ``sphere._homogeneous_sphere_laplacians``
evaluate ``sphere_laplacian`` and ``homogeneous_sphere_laplacian`` on a
stack of points, with one field for every row or one per row. They are the
independent reference the verify suites compare the closed forms against,
so each row must equal, bit for bit, both the public one-point function and
the per-point arithmetic below, and a refused row must not move its
neighbours.
"""

import math

import numpy as np
import pytest

from lapbel import constraint_core, sphere
from lapbel.constraint_core import ScalarField, linear_field, polynomial_field
from lapbel.errors import ContractError, DimensionError, DomainError
from lapbel.verify import random_polynomial_field
from outcomes import outcome, same_outcome


def per_point_laplacian(f, x, radius):
    """tr H - (n-1)/R^2 <x, g> - x^t H x / R^2 from one-point products."""
    Rsq = radius**2
    g, H = f.gradient(x), f.hessian(x)
    return float(np.trace(H) - (x.size - 1) / Rsq * (x @ g) - (x @ H @ x) / Rsq)


def per_point_homogeneous(f, degree, x, radius):
    """The shortcut's per-point arithmetic, for a field known homogeneous."""
    f0 = f.value(x)
    return float(np.trace(f.hessian(x))) - degree * (degree + x.size - 2) / radius**2 * f0


def harmonics(n):
    """x_0 x_{n-1} and x_0^2 - x_{n-1}^2, each of degree 2."""
    a, b = np.eye(n, dtype=int)[[0, -1]]
    return [polynomial_field(n, [(1.0, a + b)]), polynomial_field(n, [(1.0, 2 * a), (-1.0, 2 * b)])]


def points(n, radius, rng, rows=7):
    return np.stack([sphere.random_sphere_point(n, radius, rng).coords for _ in range(rows)])


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_each_row_of_the_stacked_references_has_the_bits_of_its_one_row_case(monkeypatch, n, radius):
    rng = np.random.default_rng([41, n])
    X = points(n, radius, rng)
    polynomials = [random_polynomial_field(rng, n, degree=4) for _ in X]
    linears = [linear_field(rng.uniform(-1.0, 1.0, n)) for _ in X]
    # chunks of 3 rows, so that a stack spans chunks
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 3 * 8 * n * n)
    for f in [polynomials, polynomials[0], linears, linears[0], *harmonics(n)]:
        rows = constraint_core._per_row(f, len(X))
        got = sphere._sphere_laplacians(f, X, radius)
        assert len(got) == len(X)
        for field, x, value in zip(rows, X, got):
            one = sphere.sphere_laplacian(field, sphere.SpherePoint(x, radius))
            assert same_outcome(value, one) and same_outcome(value, per_point_laplacian(field, x, radius))
    for f, degree in [(linears, 1), (linears[0], 1), *((h, 2) for h in harmonics(n))]:
        rows = constraint_core._per_row(f, len(X))
        got = sphere._homogeneous_sphere_laplacians(f, degree, X, radius)
        for field, x, value in zip(rows, X, got):
            one = sphere.homogeneous_sphere_laplacian(field, degree, sphere.SpherePoint(x, radius))
            assert same_outcome(value, one)
            assert same_outcome(value, per_point_homogeneous(field, degree, x, radius))


def test_a_non_finite_gradient_is_refused_on_its_row_alone():
    X = points(3, 1.0, np.random.default_rng(42))
    f = random_polynomial_field(np.random.default_rng(43), 3, degree=4)
    bad = X[[2, 5]]

    def gradients(Y):
        G = np.array(f.gradients(Y))
        G[(Y[:, None] == bad).all(axis=-1).any(axis=-1), 1] = np.nan
        return G

    poisoned = ScalarField(3, values_fn=f.values, gradients_fn=gradients, hessians_fn=f.hessians)
    got = sphere._sphere_laplacians(poisoned, X, 1.0)
    for i, x in enumerate(X):
        one = outcome(lambda: sphere.sphere_laplacian(poisoned, sphere.SpherePoint(x, 1.0)))
        assert same_outcome(got[i], one)
        if i in (2, 5):
            assert isinstance(got[i], DimensionError)
            assert str(got[i]) == "gradient contains non-finite entries"
        else:
            assert got[i] == per_point_laplacian(f, x, 1.0)


def table_field(X, table):
    """A field of R^3 with a zero Hessian whose value at t X[i] is
    table[i][t - 1] for t in 1, 2, 3, the rows of X being distinct unit
    vectors."""

    def value(u):
        t = float(np.linalg.norm(u))
        return table[int(np.argmax(X @ u))][round(t) - 1]

    return ScalarField(
        3,
        value_fn=value,
        gradient_fn=lambda u: np.zeros(3),
        hessian_fn=lambda u: np.zeros((3, 3)),
    )


def test_the_homogeneity_checks_refuse_each_row_at_its_own_first_failing_scale():
    X = points(3, 1.0, np.random.default_rng(44), rows=5)
    table = [
        (1.5, 3.0, 4.5),  # homogeneous of degree 1
        (1.5, 3.1, math.inf),  # off at t = 2, before it overflows at t = 3
        (1.5, 3.0, math.nan),  # not finite at t = 3
        (math.inf, 3.0, 4.5),  # not finite at t = 1
        (1.5, 3.0, 4.6),  # off at t = 3
    ]
    f = table_field(X, table)
    got = sphere._homogeneous_sphere_laplacians(f, 1, X, 1.0)
    assert got[0] == -3.0
    assert isinstance(got[1], ContractError)
    assert str(got[1]) == "field is not homogeneous of degree 1: |f(2.0 x) - 2.0^1 f(x)| = 1.000e-01"
    assert isinstance(got[2], DomainError) and str(got[2]) == "field value is not finite"
    assert isinstance(got[3], DomainError) and str(got[3]) == "field value is not finite"
    assert isinstance(got[4], ContractError)
    assert str(got[4]) == "field is not homogeneous of degree 1: |f(3.0 x) - 3.0^1 f(x)| = 1.000e-01"
    for x, record in zip(X, got):
        one = outcome(lambda: sphere.homogeneous_sphere_laplacian(f, 1, sphere.SpherePoint(x, 1.0)))
        assert same_outcome(record, one)


def test_the_one_point_references_refuse_a_field_of_another_dimension_as_before():
    point = sphere.SpherePoint([0.6, 0.0, 0.8], 1.0)
    f = linear_field([1.0, 2.0])
    for call in (
        lambda: sphere.sphere_laplacian(f, point),
        lambda: sphere.homogeneous_sphere_laplacian(f, 1, point),
    ):
        with pytest.raises(DimensionError, match=r"^point has dimension 3, field expects 2$"):
            call()
    with pytest.raises(ContractError, match="homogeneity degree must be non-negative, got -1"):
        sphere.homogeneous_sphere_laplacian(f, -1, point)
