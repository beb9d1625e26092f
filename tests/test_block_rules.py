"""The block-product rules that the sphere and O(n) share.

The sphere is a set of p = 1 orthonormal column of n coordinates, O(n) of
p = n of them. Both admit points by the residual max |U^t U - R^2 I|, take
their multipliers from sym(G^t U) / (2 w R^2) and their constraint traces
from 2w (s - (p+1)/2), all written once in ``constraint_core``. Each rule must
give, bit for bit, what the sphere's and O(n)'s own expressions gave before
they were shared; those expressions are kept here as the references. The
last section checks the scale-free rank test of the general evaluator.
"""

import math

import numpy as np
import pytest

from lapbel import constraint_core, orthogonal, sphere
from lapbel.constraint_core import LaplacianReport, _packed, _sigma_matrices, linear_field
from lapbel.errors import DomainError
from lapbel.numkit import unvec_rows
from lapbel.verify import random_polynomial_field


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def refused_residuals(errors) -> np.ndarray:
    """The residuals an admission refusing every row reports, one per row."""
    assert all(isinstance(e, DomainError) for e in errors)
    return np.array([e.residual for e in errors])


def assert_traces(reports, reference):
    """Each report's constraint traces are the bits of their reference row;
    at most the 1e200 row is refused."""
    evaluated = [i for i, r in enumerate(reports) if isinstance(r, LaplacianReport)]
    assert len(evaluated) >= len(reports) - 1
    for i in evaluated:
        assert same_bits(reports[i].trace_constraint, reference[i])


# -- the expressions each manifold had before the rules were shared ---------------


def sphere_residual_reference(X, radius):
    with np.errstate(over="ignore"):
        return np.abs(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0] - radius**2)


def sphere_sigma_reference(X, G, radius):
    return np.matmul(X[:, None, :], G[:, :, None])[:, 0, 0] / (2.0 * radius**2)


def sphere_traces_reference(N, n):
    return np.full((N, 1), 2.0 * (n - 1))


def on_residual_reference(Us):
    n = Us.shape[1]
    with np.errstate(over="ignore"):
        return np.abs(np.swapaxes(Us, 1, 2) @ Us - np.eye(n)).max(axis=(1, 2))


def on_sigma_matrices_reference(U, G):
    return 0.5 * (np.swapaxes(G, 1, 2) @ U + np.swapaxes(U, 1, 2) @ G)


def on_packed_reference(S):
    n = S.shape[1]
    a, b = np.triu_indices(n, 1)
    diagonal = np.arange(n)
    return np.ascontiguousarray(S[:, np.concatenate([diagonal, a]), np.concatenate([diagonal, b])])


def on_traces_reference(N, n):
    return np.tile(np.repeat([(n - 1) / 2.0, 0.0], [n, n * (n - 1) // 2]), (N, 1))


def block_reflection_reference(M, scale=1.0):
    n = M.shape[0]
    L = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            L[i * n : (i + 1) * n, j * n : (j + 1) * n] = scale * np.outer(M[:, j], M[:, i])
    return L


# -- the sphere: p = 1, w = 1 -----------------------------------------------------

SPHERE_NS = (2, 3, 7, 50, 200)
SPHERE_RADII = (1.0, 2.5, 3e-7, 1.7e-154, 1e150)


def sphere_rows(n, radius, rng):
    """Points of the sphere (to rounding: at radius 1e150 no point is within
    an absolute 1e-8), some scaled off it by 1e-9, and one 1e200 row."""
    g = rng.standard_normal((12, n))
    X = radius * (g / np.linalg.norm(g, axis=1, keepdims=True))
    X[1::3] *= 1.0 + 1e-9
    X[2::3] *= 1.0 - 1e-9
    X[-1] = 0.0
    X[-1, 0] = 1e200
    return X


@pytest.mark.parametrize("radius", SPHERE_RADII)
@pytest.mark.parametrize("n", SPHERE_NS)
def test_sphere_residuals_multipliers_and_traces_keep_their_bits(n, radius):
    rng = np.random.default_rng([n, int(math.log10(radius) + 400)])
    X = sphere_rows(n, radius, rng)
    # tolerance -1 refuses every row, so each error carries its residual
    residual = refused_residuals(sphere._admit_sphere(X, radius, -1.0))
    assert same_bits(residual, sphere_residual_reference(X, radius))
    G = rng.standard_normal(X.shape) * rng.choice([1e-3, 1.0, 1e3], size=(len(X), 1))
    with np.errstate(over="ignore"):
        sigma = _packed(_sigma_matrices(X[:, :, None], G[:, :, None], 1.0, radius))
        reference = sphere_sigma_reference(X, G, radius)[:, None]
    assert same_bits(sigma, reference)
    reports = sphere.sphere_reports(linear_field(G[0]), X, radius, tol=math.inf)
    assert_traces(reports, sphere_traces_reference(len(X), n))


def test_the_sphere_multiplier_of_a_product_near_the_overflow_edge_stays_finite():
    # x . g = -1e308: (a + a) / 2 would overflow, a / (2 R^2) does not
    X, G = np.eye(3)[:1], np.array([[-1e308, 0.0, 0.0]])
    sigma = _sigma_matrices(X[:, :, None], G[:, :, None], 1.0, 1.0)
    assert same_bits(sigma[:, 0, 0], sphere_sigma_reference(X, G, 1.0))


def test_sphere_sigma_is_the_one_row_case():
    # the multiplier of the one-row closed form
    rng = np.random.default_rng(3)
    for n in (2, 5):
        point = sphere.random_sphere_point(n, 2.5, rng)
        f = random_polynomial_field(rng, n)
        x = point.coords
        reference = sphere_sigma_reference(x[None], f.gradient(x)[None], 2.5)
        assert same_bits(sphere.sphere_report(f, point).sigma, reference)


# -- O(n): p = n, w = 1/2, R = 1 -----------------------------------------------


def on_rows(n, rng):
    """Orthogonal matrices, some off the group by 1e-9 and by 1e-3, and one
    with a 1e200 entry."""
    Us = np.stack([orthogonal.random_orthogonal(n, rng).matrix for _ in range(9)])
    Us[1] *= 1.0 + 1e-9
    Us[2, :, 0] += 1e-3
    Us[3] += 1e-9 * rng.standard_normal((n, n))
    Us[4, 0, 0] = 1e200
    return Us


@pytest.mark.parametrize("n", range(2, 9))
def test_on_residuals_multipliers_and_traces_keep_their_bits(n):
    rng = np.random.default_rng([7, n])
    Us = on_rows(n, rng)
    residual = refused_residuals(orthogonal._admit_orthogonal(Us, -1.0))
    assert same_bits(residual, on_residual_reference(Us))
    G = unvec_rows(rng.standard_normal((len(Us), n * n)), n)
    with np.errstate(over="ignore", invalid="ignore"):
        S = _sigma_matrices(Us, G, 0.5, 1.0)
        reference = on_sigma_matrices_reference(Us, G)
    assert same_bits(S, reference)
    assert same_bits(_packed(S), on_packed_reference(reference))
    X = np.swapaxes(Us, 1, 2).reshape(len(Us), n * n)  # the rows vec(U)
    reports = orthogonal.on_laplacians(linear_field(X[0]), X, math.inf)
    assert_traces(reports, on_traces_reference(len(Us), n))


def test_sigma_matrix_and_pack_sigma_are_the_one_row_cases():
    # the multiplier matrix of the one-row closed form, in constraint order
    rng = np.random.default_rng(5)
    for n in (2, 4):
        point = orthogonal.random_orthogonal(n, rng)
        f = random_polynomial_field(rng, n * n)
        G = unvec_rows(f.gradient(point.to_vector())[None], n)
        reference = on_sigma_matrices_reference(point.matrix[None], G)
        assert same_bits(orthogonal.on_laplacian(f, point).sigma, on_packed_reference(reference)[0])


@pytest.mark.parametrize("n", (2, 3, 5, 8))
def test_lambda_and_the_p2_hessian_are_the_old_double_loops(n):
    rng = np.random.default_rng([11, n])
    point = orthogonal.random_orthogonal(n, rng)
    assert same_bits(orthogonal.lambda_of(point), block_reflection_reference(point.matrix))
    A = rng.standard_normal((n, n))
    H = orthogonal.p2_field(A).hessian(np.zeros(n * n))
    assert same_bits(H, block_reflection_reference(A.T, 2.0))


@pytest.mark.parametrize("n", (2, 3, 6))
def test_p11_and_p2_closed_forms_keep_their_bits(n):
    rng = np.random.default_rng([13, n])
    point = orthogonal.random_orthogonal(n, rng)
    A = rng.standard_normal((n, n))
    AU = A @ point.matrix
    p11, p2 = float(np.trace(AU)) ** 2, float(np.trace(AU @ AU))
    t = float(np.trace(A @ A.T))
    assert same_bits(orthogonal.p11_laplacian(A, point), t - (n - 1) * p11 - p2)
    assert same_bits(orthogonal.p2_laplacian(A, point), t - (n - 1) * p2 - p11)


# -- the scale-free rank test -------------------------------------------------------


@pytest.mark.parametrize("radius", (1e-100, 1e-150, 2.3e-154))
def test_a_tiny_sphere_evaluates_on_the_general_path_as_in_closed_form(radius):
    rng = np.random.default_rng(17)
    X = np.stack([sphere.random_sphere_point(3, radius, rng).coords for _ in range(6)])
    X[0] = [radius, 0.0, 0.0]
    X[1] = [0.6 * radius, 0.8 * radius, 0.0]
    constraints = sphere.sphere_constraint_set(3, radius)
    fields = (
        constraint_core.linear_field([1.0, -2.0, 0.5]),
        constraint_core.polynomial_field(3, [(1.0, [2, 0, 0]), (0.5, [0, 1, 1]), (2.0, [1, 0, 0])]),
    )
    for f in fields:
        closed = sphere.sphere_reports(f, X, radius)
        for frame in (sphere.sphere_adapted_frame(radius), None):
            for general, report in zip(constraint_core.evaluate_points(f, constraints, frame, X), closed):
                assert isinstance(general, constraint_core.LaplacianReport), general
                assert abs(general.value - report.value) <= 1e-12 * abs(report.value)


def test_the_rank_test_is_scale_free_and_refuses_a_zero_jacobian():
    rng = np.random.default_rng(19)
    J = rng.standard_normal((4, 2, 5))
    for scale in (1e-300, 1e-150, 1.0, 1e150):
        assert not constraint_core._gradient_qrs(J * scale)[2].any()
    J[1, 1] = J[1, 0]  # dependent rows
    J[2] = 0.0
    deficient = constraint_core._gradient_qrs(J * 1e-200)[2]
    assert deficient.tolist() == [False, True, True, False]
