"""Tests for the sphere closed forms."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lapbel import numkit
from lapbel.constraint_core import (
    constant_field,
    evaluate_points,
    laplace_beltrami_general,
    linear_field,
    polynomial_field,
    qr_nullspace_frame,
)
from lapbel.errors import ChartError, ContractError, DimensionError, DomainError
from lapbel.sphere import (
    SpherePoint,
    homogeneous_sphere_laplacian,
    random_sphere_point,
    sphere_adapted_frame,
    sphere_constraint_set,
    sphere_frame,
    sphere_frame_gram_inverse,
    sphere_laplacian,
    sphere_projector,
    sphere_report,
    sphere_reports,
)

RADII = (1.0, 2.5)


def _sample(rng, n, radius, margin=0.05):
    """Sphere point whose every coordinate clears ``margin * radius``."""
    while True:
        p = random_sphere_point(n, radius, rng)
        if np.min(np.abs(p.coords)) >= margin * radius:
            return p


# Harmonic homogeneous polynomials in three variables, one full basis per
# degree (the space has dimension 2k + 1). Each is annihilated by the
# ambient Laplacian, which the tests re-check from the analytic Hessian.
HARMONIC_BASES_3D = {
    1: [
        [(1.0, (1, 0, 0))],
        [(1.0, (0, 1, 0))],
        [(1.0, (0, 0, 1))],
    ],
    2: [
        [(1.0, (1, 1, 0))],
        [(1.0, (1, 0, 1))],
        [(1.0, (0, 1, 1))],
        [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))],
        [(2.0, (0, 0, 2)), (-1.0, (2, 0, 0)), (-1.0, (0, 2, 0))],
    ],
    3: [
        [(2.0, (0, 0, 3)), (-3.0, (2, 0, 1)), (-3.0, (0, 2, 1))],
        [(4.0, (1, 0, 2)), (-1.0, (3, 0, 0)), (-1.0, (1, 2, 0))],
        [(4.0, (0, 1, 2)), (-1.0, (0, 3, 0)), (-1.0, (2, 1, 0))],
        [(1.0, (2, 0, 1)), (-1.0, (0, 2, 1))],
        [(1.0, (1, 1, 1))],
        [(1.0, (3, 0, 0)), (-3.0, (1, 2, 0))],
        [(3.0, (2, 1, 0)), (-1.0, (0, 3, 0))],
    ],
    4: [
        [
            (8.0, (0, 0, 4)),
            (3.0, (4, 0, 0)),
            (3.0, (0, 4, 0)),
            (-24.0, (2, 0, 2)),
            (-24.0, (0, 2, 2)),
            (6.0, (2, 2, 0)),
        ],
        [(4.0, (1, 0, 3)), (-3.0, (3, 0, 1)), (-3.0, (1, 2, 1))],
        [(4.0, (0, 1, 3)), (-3.0, (0, 3, 1)), (-3.0, (2, 1, 1))],
        [(6.0, (2, 0, 2)), (-6.0, (0, 2, 2)), (-1.0, (4, 0, 0)), (1.0, (0, 4, 0))],
        [(6.0, (1, 1, 2)), (-1.0, (3, 1, 0)), (-1.0, (1, 3, 0))],
        [(1.0, (3, 0, 1)), (-3.0, (1, 2, 1))],
        [(3.0, (2, 1, 1)), (-1.0, (0, 3, 1))],
        [(1.0, (4, 0, 0)), (-6.0, (2, 2, 0)), (1.0, (0, 4, 0))],
        [(1.0, (3, 1, 0)), (-1.0, (1, 3, 0))],
    ],
}


# -- points ---------------------------------------------------------------


def test_point_validation():
    p = SpherePoint([0.6, 0.8, 0.0], 1.0)
    assert p.n == 3
    with pytest.raises(DomainError) as info:
        SpherePoint([1.1, 0.0, 0.0], 1.0)
    assert_allclose(info.value.residual, 0.21, atol=1e-12)
    with pytest.raises(DimensionError):
        SpherePoint([1.0], 1.0)
    with pytest.raises(DimensionError):
        SpherePoint([1.0, 0.0], 0.0)
    with pytest.raises(DimensionError):
        SpherePoint([1.0, 0.0], -2.0)
    # A loose tolerance admits the same near-miss point.
    p = SpherePoint([1.1, 0.0, 0.0], 1.0, tol=0.3)
    assert p.radius == 1.0


@pytest.mark.parametrize(
    "radius, point",
    [(1e200, [1e200, 0.0, 0.0]), (1e-160, [1e-165, 0.0, 0.0]), (1e-200, [1e-200, 0.0, 0.0])],
)
def test_a_radius_out_of_range_is_refused_by_every_entry(radius, point):
    # 1e200 squares to inf; at 1e-160 the chart margin, the least |x_j| a
    # chart admits, squares to 0, and the closed form divides by x_j^2.
    match = re.escape(f"radius {radius} is out of range")
    with pytest.raises(DimensionError, match=match):
        SpherePoint(point, radius)
    (record,) = sphere_reports(linear_field([1.0, 0.0, 0.0]), [point], radius)
    assert isinstance(record, DimensionError) and re.match(match, str(record))
    with pytest.raises(DimensionError, match=match):
        sphere_constraint_set(3, radius)


def test_default_chart_index():
    # With no index requested, the chart drops argmax |x_j|.
    p = SpherePoint(np.array([0.1, -0.9, np.sqrt(1 - 0.82)]), 1.0)
    assert np.array_equal(sphere_frame(p), sphere_frame(p, 1))


def test_random_sphere_point_determinism():
    a = random_sphere_point(4, 2.5, 123)
    b = random_sphere_point(4, 2.5, 123)
    assert np.array_equal(a.coords, b.coords)
    assert abs(np.linalg.norm(a.coords) - 2.5) <= 1e-12
    c = random_sphere_point(4, 2.5, np.random.default_rng(123))
    assert np.array_equal(a.coords, c.coords)


# -- frames ---------------------------------------------------------------


def test_frame_at_pole():
    # At x = e3 the chart drops index 2 and the columns are just e1, e2.
    p = SpherePoint([0.0, 0.0, 1.0], 1.0)
    T = sphere_frame(p)
    assert_allclose(T, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_frame_small_circle_example():
    # n = 2, x = (1, 1)/sqrt(2), dropping index 1:
    # t = e1 - x1 x = (1/2, -1/2).
    p = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2.0), 1.0)
    T = sphere_frame(p, excluded_index=1)
    assert_allclose(T, [[0.5], [-0.5]], atol=1e-15)


def test_frame_radius_scaling():
    p = SpherePoint([2.0, 0.0, 0.0], 2.0)
    T = sphere_frame(p, excluded_index=0)
    assert_allclose(T, [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("radius", RADII)
def test_frame_columns_are_tangent(n, radius):
    rng = np.random.default_rng([51, n])
    for _ in range(10):
        p = _sample(rng, n, radius)
        for j in range(n):
            T = sphere_frame(p, excluded_index=j)
            assert T.shape == (n, n - 1)
            assert np.max(np.abs(p.coords @ T)) <= 1e-12 * radius**3


def test_frame_chart_errors():
    p = SpherePoint([1.0, 0.0, 0.0], 1.0)
    with pytest.raises(ChartError) as info:
        sphere_frame(p, excluded_index=1)
    assert info.value.suggested_index == 0
    with pytest.raises(DimensionError):
        sphere_frame(p, excluded_index=3)
    with pytest.raises(DimensionError):
        sphere_frame(p, excluded_index=-1)


def test_gram_inverse_small_example():
    # n = 2 at (1, 1)/sqrt(2): the single frame vector has squared length
    # 1/2, so the Gram inverse is the 1x1 matrix [2].
    p = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2.0), 1.0)
    inv = sphere_frame_gram_inverse(p, excluded_index=1)
    assert_allclose(inv, [[2.0]], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("radius", RADII)
def test_gram_inverse_multiplies_to_identity(n, radius):
    rng = np.random.default_rng([52, n])
    for _ in range(10):
        p = _sample(rng, n, radius)
        for j in range(n):
            T = sphere_frame(p, excluded_index=j)
            inv = sphere_frame_gram_inverse(p, excluded_index=j)
            assert np.max(np.abs(T.T @ T @ inv - np.eye(n - 1))) <= 1e-10


# -- projector ------------------------------------------------------------


def test_projector_at_pole():
    p = SpherePoint([0.0, 0.0, 1.0], 1.0)
    assert_allclose(sphere_projector(p), np.diag([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("radius", RADII)
def test_projector_properties(radius):
    rng = np.random.default_rng(53)
    for n in (2, 3, 5):
        p = _sample(rng, n, radius)
        P = sphere_projector(p)
        assert np.max(np.abs(P - P.T)) <= 1e-14
        assert np.max(np.abs(P @ P - P)) <= 1e-12
        assert np.max(np.abs(P @ p.coords)) <= 1e-12 * radius
        assert_allclose(np.trace(P), n - 1, atol=1e-12)


def test_projector_matches_frame_product_each_chart():
    # T (T^t T)^{-1} T^t reproduces the projector whichever index is
    # dropped, so the projector really is chart independent.
    rng = np.random.default_rng(54)
    for radius in RADII:
        p = _sample(rng, 4, radius)
        P = sphere_projector(p)
        for j in range(4):
            T = sphere_frame(p, excluded_index=j)
            Q, R, _, refused = numkit.frame_qrs(T[None], numkit.DEFAULT_TOLERANCES.condition_limit)
            numkit.raise_first(refused)
            T_plus = np.linalg.solve(R[0], Q[0].T)
            assert np.max(np.abs(T @ T_plus - P)) <= 1e-10


# -- multiplier and Laplacian ----------------------------------------------


def test_sigma_examples():
    f = linear_field([1.0, 0.0, 0.0])
    assert_allclose(sphere_report(f, SpherePoint([1.0, 0.0, 0.0], 1.0)).sigma, [0.5])
    big = SpherePoint([2.5, 0.0, 0.0], 2.5)
    assert_allclose(sphere_report(linear_field([1.0, 0.0, 0.0]), big).sigma, [0.2])
    # The multiplier of the constraint function itself is 1 at any point.
    sq = polynomial_field(3, [(1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2))])
    p = SpherePoint([0.6, 0.0, 0.8], 1.0)
    assert_allclose(sphere_report(sq, p).sigma, [1.0], atol=1e-14)


def test_sigma_matches_general_multiplier():
    rng = np.random.default_rng(55)
    f = polynomial_field(3, [(1.0, (2, 1, 0)), (-0.7, (0, 0, 3)), (0.3, (1, 0, 1))])
    for radius in RADII:
        cons = sphere_constraint_set(3, radius)
        X = np.stack([random_sphere_point(3, radius, rng).coords for _ in range(5)])
        closed = sphere_reports(f, X, radius)
        general = evaluate_points(f, cons, None, X)
        for a, b in zip(closed, general):
            assert_allclose(a.sigma, b.sigma, atol=1e-12)


def test_sigma_dimension_mismatch():
    with pytest.raises(DimensionError):
        sphere_report(linear_field([1.0, 0.0]), SpherePoint([1.0, 0.0, 0.0], 1.0))


def test_laplacian_constant_and_radius_function():
    p = SpherePoint([0.6, 0.8, 0.0], 1.0)
    assert sphere_laplacian(constant_field(3, 3.0), p) == 0.0
    # The constraint function is constant on the sphere, so its value is 0.
    sq = polynomial_field(3, [(1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2))])
    assert_allclose(sphere_laplacian(sq, p), 0.0, atol=1e-12)


def test_laplacian_linear_field():
    rng = np.random.default_rng(56)
    for n in (2, 3, 5):
        for radius in RADII:
            c = rng.standard_normal(n)
            f = linear_field(c)
            p = random_sphere_point(n, radius, rng)
            expected = -(n - 1) / radius**2 * f.value(p.coords)
            assert_allclose(sphere_laplacian(f, p), expected, atol=1e-12)


def test_laplacian_quadratic_example_by_hand():
    # f = 2 z^2 - x^2 - y^2 at (0.6, 0, 0.8): value 0.92, <x, grad f> and
    # x^t H x both 1.84, so the value is 0 - 2 * 1.84 - 1.84 = -5.52.
    f = polynomial_field(3, [(2.0, (0, 0, 2)), (-1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    p = SpherePoint([0.6, 0.0, 0.8], 1.0)
    assert_allclose(sphere_laplacian(f, p), -5.52, atol=1e-12)
    assert_allclose(sphere_laplacian(f, p), -6.0 * f.value(p.coords), atol=1e-12)


def test_laplacian_matches_general_path():
    rng = np.random.default_rng(57)
    f = polynomial_field(
        3, [(1.0, (2, 1, 0)), (-0.5, (0, 0, 3)), (0.25, (1, 1, 1)), (2.0, (0, 1, 0))]
    )
    for radius in RADII:
        cons = sphere_constraint_set(3, radius)
        frame = qr_nullspace_frame(cons)
        for _ in range(5):
            p = random_sphere_point(3, radius, rng)
            general = laplace_beltrami_general(f, cons, frame, p.coords)
            assert abs(sphere_laplacian(f, p) - general.value) <= 1e-8


def test_laplacian_through_coordinate_frame():
    # The general evaluator with this module's own frame provider agrees
    # with the closed form as well.
    rng = np.random.default_rng(58)
    f = polynomial_field(4, [(1.0, (2, 0, 1, 0)), (1.5, (0, 1, 0, 1))])
    cons = sphere_constraint_set(4, 1.0)
    frame = sphere_adapted_frame(1.0)
    for _ in range(5):
        p = _sample(rng, 4, 1.0)
        general = laplace_beltrami_general(f, cons, frame, p.coords)
        assert abs(sphere_laplacian(f, p) - general.value) <= 1e-8


# -- homogeneous shortcut ---------------------------------------------------


def test_homogeneous_linear_consistency():
    rng = np.random.default_rng(59)
    for n in (2, 4):
        for radius in RADII:
            f = linear_field(rng.standard_normal(n))
            p = random_sphere_point(n, radius, rng)
            direct = sphere_laplacian(f, p)
            shortcut = homogeneous_sphere_laplacian(f, 1, p)
            assert_allclose(shortcut, direct, atol=1e-10)


def test_homogeneous_rejects_inhomogeneous_field():
    p = SpherePoint([1.0, 0.0, 0.0], 1.0)
    f = linear_field([1.0, 0.0, 0.0]) + 1.0
    with pytest.raises(ContractError):
        homogeneous_sphere_laplacian(f, 1, p)


def test_homogeneous_rejects_wrong_degree():
    p = SpherePoint([1.0, 0.0, 0.0], 1.0)
    f = linear_field([1.0, 0.0, 0.0])
    with pytest.raises(ContractError):
        homogeneous_sphere_laplacian(f, 2, p)
    with pytest.raises(ContractError):
        homogeneous_sphere_laplacian(f, -1, p)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("radius", RADII)
def test_harmonic_spectrum(degree, radius):
    # Every harmonic homogeneous polynomial of degree k restricts to an
    # eigenfunction with eigenvalue -k(k+1)/R^2 in three variables.
    rng = np.random.default_rng([60, degree])
    basis = HARMONIC_BASES_3D[degree]
    assert len(basis) == 2 * degree + 1
    for terms in basis:
        f = polynomial_field(3, terms)
        for _ in range(5):
            p = random_sphere_point(3, radius, rng)
            H = f.hessian(p.coords)
            scale = max(1.0, float(np.max(np.abs(H))))
            assert abs(np.trace(H)) <= 1e-11 * scale  # harmonic indeed
            expected = -degree * (degree + 1) / radius**2 * f.value(p.coords)
            assert abs(homogeneous_sphere_laplacian(f, degree, p) - expected) <= 1e-8
            assert abs(sphere_laplacian(f, p) - expected) <= 1e-8


# -- reports ----------------------------------------------------------------


def test_report_matches_laplacian():
    rng = np.random.default_rng(61)
    f = polynomial_field(3, [(1.0, (2, 0, 0)), (0.5, (1, 1, 1)), (-1.0, (0, 0, 1))])
    for radius in RADII:
        for _ in range(5):
            p = _sample(rng, 3, radius)
            report = sphere_report(f, p)
            direct = sphere_laplacian(f, p)
            scale = max(1.0, abs(direct))
            assert abs(report.value - direct) <= 1e-12 * scale
            rebuilt = report.trace_main - float(
                np.dot(report.sigma, report.trace_constraint)
            )
            assert report.value == rebuilt


def test_report_fields_by_hand():
    f = linear_field([1.0, 0.0, 0.0])
    p = SpherePoint([0.6, 0.8, 0.0], 1.0)
    report = sphere_report(f, p, excluded_index=1)
    assert_allclose(report.sigma, [0.3])  # <x, e1> / 2 = 0.6 / 2
    assert_allclose(report.trace_constraint, [4.0])  # 2 (n - 1)
    assert_allclose(report.trace_main, 0.0, atol=1e-15)
    assert_allclose(report.frame_gram_condition, 1.0 / 0.64)
    assert_allclose(report.value, -1.2, atol=1e-15)  # -(n-1) x1 / R^2


def test_report_condition_for_circle_is_one():
    f = linear_field([1.0, 0.0])
    p = SpherePoint([0.6, 0.8], 1.0)
    assert sphere_report(f, p).frame_gram_condition == 1.0


def test_report_chart_error_propagates():
    f = linear_field([1.0, 0.0, 0.0])
    p = SpherePoint([1.0, 0.0, 0.0], 1.0)
    with pytest.raises(ChartError):
        sphere_report(f, p, excluded_index=2)


def test_adapted_frame_chart_error():
    frame = sphere_adapted_frame(1.0, excluded_index=1)
    with pytest.raises(ChartError):
        frame.at([1.0, 0.0, 0.0])


def test_adapted_frame_admits_at_the_given_tolerance():
    u = [1.00001, 0.0, 0.0]  # residual 2e-5
    with pytest.raises(DomainError):
        sphere_adapted_frame(1.0).at(u)
    T = sphere_adapted_frame(1.0, tol=1e-2).at(u)
    assert_allclose(T, sphere_frame(SpherePoint(u, 1.0, tol=1e-2)))


def test_constraint_set_validation():
    with pytest.raises(DimensionError):
        sphere_constraint_set(1, 1.0)
    with pytest.raises(DimensionError):
        sphere_constraint_set(3, 0.0)
