"""Tests for the geodesic estimators and derivative checkers."""

import numpy as np
import pytest

from lapbel.constraint_core import (
    ScalarField,
    constant_field,
    finite_difference_field,
    linear_field,
    polynomial_field,
)
from lapbel.errors import ChartError, ContractError, DimensionError
from lapbel.oracles import (
    OracleConfig,
    check_gradient,
    check_hessian,
    geodesic_laplacian_on,
    geodesic_laplacian_sphere,
)
from lapbel.orthogonal import (
    OrthogonalPoint,
    brockett_field,
    brockett_laplacian,
    on_laplacian,
    p2_field,
    p2_laplacian,
    p11_field,
    p11_laplacian,
    random_orthogonal,
)
from lapbel.sphere import SpherePoint, random_sphere_point, sphere_frame, sphere_laplacian


def test_config_validation():
    assert OracleConfig().step == 1e-3
    assert not OracleConfig().richardson
    with pytest.raises(ContractError):
        OracleConfig(step=1e-7)
    with pytest.raises(ContractError):
        OracleConfig(step=0.2)


# -- sphere estimates ---------------------------------------------------------


def test_sphere_constant_estimate_is_zero():
    p = SpherePoint([0.6, 0.8, 0.0], 1.0)
    assert geodesic_laplacian_sphere(constant_field(3, 5.0), p) == 0.0


def test_sphere_linear_estimate_truncation():
    # f = x1 at x = e1: every great circle gives f(gamma(t)) = cos(t), and
    # two tangent directions contribute -2 + h^2/6 + O(h^4).
    f = linear_field([1.0, 0.0, 0.0])
    p = SpherePoint([1.0, 0.0, 0.0], 1.0)
    estimate = geodesic_laplacian_sphere(f, p)
    assert abs(estimate + 2.0) <= 1e-6
    assert abs(estimate + 2.0 - 1e-6 / 6.0) <= 1e-8  # the h^2/6 term itself


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_sphere_estimate_matches_closed_form(radius):
    rng = np.random.default_rng(91)
    f = polynomial_field(
        3, [(1.0, (2, 1, 0)), (-0.5, (0, 0, 3)), (0.7, (1, 0, 1)), (1.5, (0, 1, 0))]
    )
    for _ in range(5):
        p = random_sphere_point(3, radius, rng)
        estimate = geodesic_laplacian_sphere(f, p)
        assert abs(estimate - sphere_laplacian(f, p)) <= 1e-4


def test_sphere_estimate_drop_index_invariance_on_cubics():
    # For fields of degree <= 3 the h^2 truncation term vanishes, so the
    # estimate does not depend on which projector column is dropped.
    rng = np.random.default_rng(92)
    f = polynomial_field(3, [(1.0, (1, 1, 1)), (-2.0, (2, 0, 1)), (0.5, (0, 1, 0))])
    for _ in range(3):
        while True:
            p = random_sphere_point(3, 1.0, rng)
            if np.min(np.abs(p.coords)) > 0.1:
                break
        estimates = [geodesic_laplacian_sphere(f, p, drop_index=j) for j in range(3)]
        assert max(estimates) - min(estimates) <= 1e-9


def test_sphere_richardson_improves_quartics():
    rng = np.random.default_rng(93)
    f = polynomial_field(3, [(1.0, (4, 0, 0)), (1.0, (2, 2, 0)), (-1.0, (0, 1, 3))])
    worst_plain, worst_rich = 0.0, 0.0
    for _ in range(5):
        p = random_sphere_point(3, 1.0, rng)
        exact = sphere_laplacian(f, p)
        plain = geodesic_laplacian_sphere(f, p, OracleConfig(step=1e-2))
        rich = geodesic_laplacian_sphere(f, p, OracleConfig(step=1e-2, richardson=True))
        worst_plain = max(worst_plain, abs(plain - exact))
        worst_rich = max(worst_rich, abs(rich - exact))
    assert worst_rich <= worst_plain / 10.0
    assert worst_rich <= 1e-6


def test_sphere_convergence_factor():
    # Halving the step divides the truncation error by about four.
    rng = np.random.default_rng(94)
    f = polynomial_field(3, [(1.0, (4, 0, 0)), (0.5, (1, 2, 1))])
    p = random_sphere_point(3, 1.0, rng)
    exact = sphere_laplacian(f, p)
    coarse = abs(geodesic_laplacian_sphere(f, p, OracleConfig(step=1e-2)) - exact)
    fine = abs(geodesic_laplacian_sphere(f, p, OracleConfig(step=5e-3)) - exact)
    assert 3.0 <= coarse / fine <= 5.0


def test_sphere_estimate_chart_errors():
    f = linear_field([1.0, 0.0, 0.0])
    p = SpherePoint([1.0, 0.0, 0.0], 1.0)
    with pytest.raises(ChartError) as info:
        geodesic_laplacian_sphere(f, p, drop_index=1)
    assert info.value.suggested_index == 0
    # The same chart check, and message, as the sphere frames.
    with pytest.raises(ChartError) as frame_info:
        sphere_frame(p, 1)
    assert str(info.value) == str(frame_info.value)
    with pytest.raises(DimensionError):
        geodesic_laplacian_sphere(f, p, drop_index=5)
    with pytest.raises(DimensionError):
        geodesic_laplacian_sphere(linear_field([1.0, 0.0]), p)


# -- orthogonal-group estimates -------------------------------------------------


def test_on_constant_estimate_is_zero():
    U = OrthogonalPoint(np.eye(3))
    assert geodesic_laplacian_on(constant_field(9, 1.0), U) == 0.0


def test_on_trace_estimate_at_identity():
    # f = tr(U) at U = I: the single pair geodesic contributes
    # 4 (cos(h / sqrt 2) - 1) / h^2 = -1 + O(h^2).
    from lapbel.orthogonal import p1_field

    estimate = geodesic_laplacian_on(p1_field(np.eye(2)), OrthogonalPoint(np.eye(2)))
    assert abs(estimate + 1.0) <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_on_estimates_match_closed_forms(n):
    rng = np.random.default_rng([95, n])
    A = rng.standard_normal((n, n))
    sym = (A + A.T) / 2.0
    mu = rng.standard_normal(n)
    U = random_orthogonal(n, rng)
    cases = [
        (p11_field(A), p11_laplacian(A, U)),
        (p2_field(A), p2_laplacian(A, U)),
        (brockett_field(sym, mu), brockett_laplacian(sym, mu, U)),
    ]
    for f, exact in cases:
        estimate = geodesic_laplacian_on(f, U)
        assert abs(estimate - exact) <= 1e-4


def test_on_richardson_tightens():
    rng = np.random.default_rng(96)
    n = 3
    A = rng.standard_normal((n, n))
    U = random_orthogonal(n, rng)
    f = p11_field(A)
    exact = p11_laplacian(A, U)
    plain = geodesic_laplacian_on(f, U, OracleConfig(step=1e-2))
    rich = geodesic_laplacian_on(f, U, OracleConfig(step=1e-2, richardson=True))
    assert abs(rich - exact) <= abs(plain - exact) / 10.0
    assert abs(rich - exact) <= 1e-6


def test_on_convergence_factor():
    rng = np.random.default_rng(97)
    n = 3
    A = rng.standard_normal((n, n))
    U = random_orthogonal(n, rng)
    f = p2_field(A)
    exact = p2_laplacian(A, U)
    coarse = abs(geodesic_laplacian_on(f, U, OracleConfig(step=1e-2)) - exact)
    fine = abs(geodesic_laplacian_on(f, U, OracleConfig(step=5e-3)) - exact)
    assert 3.0 <= coarse / fine <= 5.0


def test_on_estimate_dimension_mismatch():
    with pytest.raises(DimensionError):
        geodesic_laplacian_on(constant_field(4, 0.0), OrthogonalPoint(np.eye(3)))


def test_on_geodesics_stay_on_the_group():
    # The evaluator feeds rotated points back through the field; wrap a
    # field that asserts orthogonality of everything it sees.
    seen = []

    def value(u):
        n = 3
        W = u.reshape((n, n), order="F")
        seen.append(np.max(np.abs(W.T @ W - np.eye(n))))
        return float(np.trace(W))

    f = ScalarField(
        dim=9,
        value_fn=value,
        gradient_fn=lambda u: np.zeros(9),
        hessian_fn=lambda u: np.zeros((9, 9)),
    )
    geodesic_laplacian_on(f, random_orthogonal(3, 98))
    assert seen and max(seen) <= 1e-12


# -- derivative checkers ---------------------------------------------------------


def test_check_gradient_small_for_true_derivatives():
    from lapbel.orthogonal import p1_field

    f = p1_field(np.eye(2))
    u = random_orthogonal(2, 99).to_vector()
    assert check_gradient(f, u, OracleConfig(step=1e-5)) <= 1e-8


def test_check_hessian_small_for_true_derivatives():
    rng = np.random.default_rng(100)
    f = polynomial_field(3, [(1.0, (2, 1, 0)), (0.5, (0, 0, 3))])
    u = rng.uniform(-1, 1, size=3)
    assert check_hessian(f, u) <= 1e-5


def test_checkers_detect_corrupted_derivatives():
    base = polynomial_field(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    wrong_grad = ScalarField(
        dim=2,
        value_fn=base.value_fn,
        gradient_fn=lambda u: base.gradient_fn(u) + np.array([0.01, 0.0]),
        hessian_fn=base.hessian_fn,
    )
    u = np.array([0.3, -0.4])
    assert check_gradient(wrong_grad, u, OracleConfig(step=1e-5)) >= 0.009
    wrong_hess = ScalarField(
        dim=2,
        value_fn=base.value_fn,
        gradient_fn=base.gradient_fn,
        hessian_fn=lambda u: base.hessian_fn(u) + 0.01 * np.eye(2),
    )
    assert check_hessian(wrong_hess, u) >= 0.009


def test_checkers_require_analytic_fields():
    fd = finite_difference_field(lambda u: float(u[0] ** 2), 1)
    with pytest.raises(ContractError):
        check_gradient(fd, [0.5])
    with pytest.raises(ContractError):
        check_hessian(fd, [0.5])
