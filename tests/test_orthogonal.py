"""Tests for the orthogonal-group closed forms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lapbel.constraint_core import (
    _sigma_matrices,
    constant_field,
    evaluate_points,
    finite_difference_field,
    laplace_beltrami_general,
    polynomial_field,
)
from lapbel.errors import ContractError, DimensionError, DomainError
from lapbel.numkit import unvec, vec
from lapbel.orthogonal import (
    OrthogonalPoint,
    brockett_field,
    brockett_laplacian,
    index_pairs,
    lambda_of,
    on_adapted_frame,
    on_constraint_set,
    on_frame,
    on_laplacian,
    p1_field,
    p1_laplacian,
    p2_field,
    p2_laplacian,
    p11_field,
    p11_laplacian,
    on_laplacians,
    pair_sign,
    random_orthogonal,
    theta_basis,
    trace_lambda_product,
)


# -- points -------------------------------------------------------------------


def test_point_validation():
    p = OrthogonalPoint(np.eye(3))
    assert p.n == 3
    assert_allclose(p.matrix[:, 1], [0.0, 1.0, 0.0])
    assert_allclose(p.to_vector(), vec(np.eye(3)))
    with pytest.raises(DimensionError):
        OrthogonalPoint(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        OrthogonalPoint(np.ones((1, 1)))


def test_point_orthogonality_tolerance():
    nearly = np.eye(2) + 1e-9
    OrthogonalPoint(nearly)  # inside the default tolerance
    off = np.eye(2)
    off[0, 1] = 1e-6
    with pytest.raises(DomainError) as info:
        OrthogonalPoint(off)
    assert info.value.residual > 1e-7
    OrthogonalPoint(off, tol=1e-4)  # loosened tolerance admits it


def test_random_orthogonal():
    U = random_orthogonal(4, 7)
    V = random_orthogonal(4, 7)
    assert np.array_equal(U.matrix, V.matrix)
    assert np.max(np.abs(U.matrix.T @ U.matrix - np.eye(4))) <= 1e-12
    assert abs(abs(np.linalg.det(U.matrix)) - 1.0) <= 1e-12
    W = random_orthogonal(4, 8)
    assert not np.array_equal(U.matrix, W.matrix)
    G = random_orthogonal(4, np.random.default_rng(7))
    assert np.array_equal(U.matrix, G.matrix)
    with pytest.raises(DimensionError):
        random_orthogonal(1, 0)


# -- index bookkeeping ---------------------------------------------------------


def test_index_pairs():
    assert index_pairs(3) == ((0, 1), (0, 2), (1, 2))
    assert len(index_pairs(5)) == 10
    with pytest.raises(DimensionError):
        index_pairs(1)


def test_pair_sign():
    assert pair_sign(0, 1) == -1.0
    assert pair_sign(0, 2) == 1.0
    assert pair_sign(1, 2) == -1.0


def test_theta_basis_two_by_two():
    (theta,) = theta_basis(2)
    assert_allclose(theta, [[0.0, 1.0], [-1.0, 0.0]])


def test_theta_basis_structure():
    mats = theta_basis(4)
    assert len(mats) == 6
    for i, M in enumerate(mats):
        assert np.array_equal(M, -M.T)
        for j, N in enumerate(mats):
            expected = 2.0 if i == j else 0.0
            assert_allclose(np.trace(M.T @ N), expected)
    # Pair (0, 2) has positive sign: entry (2, 0) is +1.
    pairs = index_pairs(4)
    M02 = mats[pairs.index((0, 2))]
    assert M02[2, 0] == 1.0
    assert M02[0, 2] == -1.0


# -- constraint set -------------------------------------------------------------


def test_constraint_values_by_hand():
    # Columns of [[1, 2], [3, 4]] are (1, 3) and (2, 4): half squared norms
    # 5 and 10, inner product 14.
    cons = on_constraint_set(2)
    u = vec(np.array([[1.0, 2.0], [3.0, 4.0]]))
    values = [f.value(u) for f in cons.fields]
    assert_allclose(values, [5.0, 10.0, 14.0])
    assert_allclose(cons.regular_value, [0.5, 0.5, 0.0])
    assert cons.count == 3
    assert cons.ambient_dim == 4


def test_constraint_count_and_residuals_at_identity():
    for n in (2, 3, 4):
        cons = on_constraint_set(n)
        assert cons.count == n + n * (n - 1) // 2
        res = cons.residuals(vec(np.eye(n)))
        assert np.max(np.abs(res)) <= 1e-15


def test_constraint_derivatives_match_finite_differences():
    rng = np.random.default_rng(71)
    cons = on_constraint_set(3)
    u = rng.standard_normal(9)  # any matrix, not necessarily orthogonal
    for f in cons.fields:
        fd = finite_difference_field(f.value_fn, 9)
        assert np.max(np.abs(f.gradient(u) - fd.gradient(u))) <= 1e-6
        assert np.max(np.abs(f.hessian(u) - fd.hessian(u))) <= 1e-5


def test_constraint_hessian_blocks():
    cons = on_constraint_set(2)
    u = np.zeros(4)
    H0 = cons.fields[0].hessian(u)  # half norm of column 0
    expected = np.zeros((4, 4))
    expected[:2, :2] = np.eye(2)
    assert_allclose(H0, expected)
    H01 = cons.fields[2].hessian(u)  # inner product of the two columns
    expected = np.zeros((4, 4))
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = np.eye(2)
    assert_allclose(H01, expected)


# -- frames ----------------------------------------------------------------------


def test_frame_at_identity_two_by_two():
    T = on_frame(OrthogonalPoint(np.eye(2)))
    assert_allclose(T, np.array([[0.0], [-1.0], [1.0], [0.0]]))


def test_frame_columns_are_flattened_theta_products():
    rng = np.random.default_rng(72)
    for n in (2, 3, 4):
        U = random_orthogonal(n, rng)
        T = on_frame(U)
        pairs = index_pairs(n)
        assert T.shape == (n * n, len(pairs))
        for idx, theta in enumerate(theta_basis(n)):
            assert_allclose(T[:, idx], vec(U.matrix @ theta), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_frame_gram_is_twice_identity(n):
    rng = np.random.default_rng([73, n])
    for _ in range(5):
        T = on_frame(random_orthogonal(n, rng))
        r = T.shape[1]
        assert np.max(np.abs(T.T @ T - 2.0 * np.eye(r))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_columns_are_tangent(n):
    rng = np.random.default_rng([74, n])
    cons = on_constraint_set(n)
    U = random_orthogonal(n, rng)
    T = on_frame(U)
    assert np.max(np.abs(cons.jacobian(U.to_vector()) @ T)) <= 1e-12


def test_adapted_frame_wraps_on_frame():
    U = random_orthogonal(3, 75)
    frame = on_adapted_frame()
    assert_allclose(frame.at(U.to_vector()), on_frame(U))
    with pytest.raises(DimensionError):
        frame.at(np.ones(5))
    with pytest.raises(DomainError):
        frame.at(np.ones(4))


# -- the block reflection matrix --------------------------------------------------


def test_lambda_at_identity_transposes():
    # At U = I the matrix sends vec(X) to vec(X^t).
    rng = np.random.default_rng(76)
    for n in (2, 3):
        L = lambda_of(OrthogonalPoint(np.eye(n)))
        X = rng.standard_normal((n, n))
        assert_allclose(L @ vec(X), vec(X.T), atol=1e-14)


def test_lambda_action_general_point():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        U = random_orthogonal(n, rng)
        L = lambda_of(U)
        for _ in range(3):
            X = rng.standard_normal((n, n))
            expected = vec(U.matrix @ X.T @ U.matrix)
            assert np.max(np.abs(L @ vec(X) - expected)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lambda_is_symmetric_involution_with_trace_n(n):
    U = random_orthogonal(n, [78, n])
    L = lambda_of(U)
    assert np.max(np.abs(L - L.T)) <= 1e-13
    assert np.max(np.abs(L @ L - np.eye(n * n))) <= 1e-12
    assert_allclose(np.trace(L), n, atol=1e-12)
    eig = np.linalg.eigvalsh(L)
    assert int(np.sum(eig > 0.5)) == n * (n + 1) // 2
    assert int(np.sum(eig < -0.5)) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_projector_identity(n):
    # T T^t fills the tangent part: T T^t + Lambda = I on matrix space.
    U = random_orthogonal(n, [79, n])
    T = on_frame(U)
    L = lambda_of(U)
    assert np.max(np.abs(T @ T.T + L - np.eye(n * n))) <= 1e-12


def test_lambda_refuses_large_n():
    with pytest.raises(DimensionError):
        lambda_of(OrthogonalPoint(np.eye(17)))


def test_trace_lambda_product_matches_materialized():
    rng = np.random.default_rng(80)
    for n in (2, 3, 5):
        U = random_orthogonal(n, rng)
        L = lambda_of(U)
        M = rng.standard_normal((n * n, n * n))
        H = M + M.T
        direct = float(np.trace(L @ H))
        contracted = trace_lambda_product(U, H)
        assert abs(contracted - direct) <= 1e-10 * max(1.0, abs(direct))


def test_trace_lambda_product_validates_shape():
    U = OrthogonalPoint(np.eye(2))
    with pytest.raises(DimensionError):
        trace_lambda_product(U, np.ones((3, 3)))


# -- multipliers -------------------------------------------------------------------


def test_sigma_matrix_identity_example():
    # f = tr(A U) at U = I has gradient A^t in matrix form, so the multiplier
    # matrix is sym(A): the diagonal, then the pair (0, 1).
    report = on_laplacian(p1_field([[1.0, 3.0], [1.0, 4.0]]), OrthogonalPoint(np.eye(2)))
    assert_allclose(report.sigma, [1.0, 4.0, 2.0])


def test_sigma_matrix_is_symmetric():
    U = random_orthogonal(3, 81)
    A = np.random.default_rng(81).standard_normal((3, 3))
    G = unvec(p11_field(A).gradient(U.to_vector()), 3)
    S = _sigma_matrices(U.matrix[None], G[None], 0.5, 1.0)[0]
    assert np.array_equal(S, S.T)


def test_pack_sigma_order():
    # The multipliers go in constraint order: the diagonal of sym(A), then
    # the pairs (0, 1), (0, 2), (1, 2).
    S = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    (report,) = on_laplacians(p1_field(S), vec(np.eye(3))[None])
    assert report.sigma.tolist() == [1.0, 4.0, 6.0, 2.0, 3.0, 5.0]


def test_sigma_matches_general_multipliers():
    rng = np.random.default_rng(82)
    for n in (2, 3):
        cons = on_constraint_set(n)
        X = np.stack([random_orthogonal(n, rng).to_vector() for _ in range(3)])
        A = rng.standard_normal((n, n))
        sym = (A + A.T) / 2.0
        fields = [
            p1_field(A),
            p11_field(A),
            p2_field(A),
            brockett_field(sym, rng.standard_normal(n)),
        ]
        for f in fields:
            for closed, general in zip(on_laplacians(f, X), evaluate_points(f, cons, None, X)):
                assert np.max(np.abs(closed.sigma - general.sigma)) <= 1e-12


# -- the evaluator ------------------------------------------------------------------


def test_on_laplacian_trace_at_identity():
    report = on_laplacian(p1_field(np.eye(2)), OrthogonalPoint(np.eye(2)))
    assert_allclose(report.value, -1.0, atol=1e-14)
    assert_allclose(report.sigma, [1.0, 1.0, 0.0])
    assert_allclose(report.trace_constraint, [0.5, 0.5, 0.0])
    assert_allclose(report.trace_main, 0.0, atol=1e-14)
    assert report.frame_gram_condition == 1.0
    rebuilt = report.trace_main - float(np.dot(report.sigma, report.trace_constraint))
    assert report.value == rebuilt


def test_on_laplacian_constant_is_zero():
    report = on_laplacian(constant_field(9, 2.5), OrthogonalPoint(np.eye(3)))
    assert report.value == 0.0


def test_on_laplacian_dimension_mismatch():
    with pytest.raises(DimensionError):
        on_laplacian(constant_field(4, 0.0), OrthogonalPoint(np.eye(3)))


def test_on_laplacian_matches_general_path():
    rng = np.random.default_rng(83)
    for n in (2, 3):
        cons = on_constraint_set(n)
        frame = on_adapted_frame()
        U = random_orthogonal(n, rng)
        A = rng.standard_normal((n, n))
        terms = []
        for _ in range(6):
            powers = rng.integers(0, 2, size=n * n)
            terms.append((float(rng.uniform(-1, 1)), tuple(int(p) for p in powers)))
        fields = [p1_field(A), p11_field(A), p2_field(A), polynomial_field(n * n, terms)]
        for f in fields:
            closed = on_laplacian(f, U)
            general = laplace_beltrami_general(f, cons, frame, U.to_vector())
            assert abs(closed.value - general.value) <= 1e-8
            assert np.max(np.abs(closed.sigma - general.sigma)) <= 1e-8


# -- worked closed forms --------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_p1_closed_form_and_eigenvalue(n):
    rng = np.random.default_rng([84, n])
    A = rng.standard_normal((n, n))
    U = random_orthogonal(n, rng)
    f = p1_field(A)
    closed = p1_laplacian(A, U)
    report = on_laplacian(f, U)
    assert abs(closed - report.value) <= 1e-12
    expected = -(n - 1) / 2.0 * f.value(U.to_vector())
    assert abs(report.value - expected) <= 1e-12


def test_p11_p2_frozen_values_at_identity():
    # With A = U = I (n = 2): tr(A A^t) = 2, tr(A U)^2 = 4, tr((A U)^2) = 2,
    # so both closed forms give 2 - 4 - 2 = -4.
    A = np.eye(2)
    U = OrthogonalPoint(np.eye(2))
    assert_allclose(p11_laplacian(A, U), -4.0)
    assert_allclose(p2_laplacian(A, U), -4.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_p11_p2_closed_forms_match_evaluator(n):
    rng = np.random.default_rng([85, n])
    for _ in range(5):
        A = rng.standard_normal((n, n))
        U = random_orthogonal(n, rng)
        r11 = on_laplacian(p11_field(A), U)
        r2 = on_laplacian(p2_field(A), U)
        scale = max(1.0, abs(r11.value), abs(r2.value))
        assert abs(r11.value - p11_laplacian(A, U)) <= 1e-10 * scale
        assert abs(r2.value - p2_laplacian(A, U)) <= 1e-10 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_square_combination_eigenvalue(n):
    # tr(AU)^2 - tr((AU)^2) is an eigenfunction with eigenvalue -(n - 2).
    rng = np.random.default_rng([86, n])
    for _ in range(5):
        A = rng.standard_normal((n, n))
        U = random_orthogonal(n, rng)
        f = p11_field(A) - p2_field(A)
        report = on_laplacian(f, U)
        fval = f.value(U.to_vector())
        scale = max(1.0, abs(fval))
        assert abs(report.value + (n - 2) * fval) <= 1e-9 * scale


@pytest.mark.parametrize("n", [2, 3, 4])
def test_brockett_closed_form(n):
    rng = np.random.default_rng([87, n])
    for _ in range(5):
        M = rng.standard_normal((n, n))
        A = (M + M.T) / 2.0
        mu = rng.standard_normal(n)
        U = random_orthogonal(n, rng)
        f = brockett_field(A, mu)
        closed = brockett_laplacian(A, mu, U)
        report = on_laplacian(f, U)
        scale = max(1.0, abs(closed))
        assert abs(closed - report.value) <= 1e-10 * scale


@pytest.mark.parametrize("n", [2, 3, 4])
def test_brockett_identity_weights_degenerate(n):
    # With N = I the cost is constant on the group, so the value vanishes.
    rng = np.random.default_rng([88, n])
    M = rng.standard_normal((n, n))
    A = (M + M.T) / 2.0
    U = random_orthogonal(n, rng)
    assert abs(brockett_laplacian(A, np.ones(n), U)) <= 1e-10
    assert abs(on_laplacian(brockett_field(A, np.ones(n)), U).value) <= 1e-10


def test_brockett_rejects_asymmetric():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    U = OrthogonalPoint(np.eye(2))
    with pytest.raises(ContractError):
        brockett_field(A, [1.0, 2.0])
    with pytest.raises(ContractError):
        brockett_laplacian(A, [1.0, 2.0], U)


def test_brockett_rejects_bad_diagonal():
    with pytest.raises(DimensionError):
        brockett_field(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        brockett_laplacian(np.eye(2), [1.0], OrthogonalPoint(np.eye(2)))


def test_closed_forms_validate_shapes():
    U = OrthogonalPoint(np.eye(3))
    with pytest.raises(DimensionError):
        p1_laplacian(np.eye(2), U)
    with pytest.raises(DimensionError):
        p11_laplacian(np.ones((2, 3)), U)


def test_operator_is_translation_invariant():
    # Composing with a fixed left or right rotation commutes with the
    # operator: tr(A V U) as a function of U evaluates like tr((AV) U).
    rng = np.random.default_rng(89)
    n = 3
    A = rng.standard_normal((n, n))
    U = random_orthogonal(n, rng)
    V = random_orthogonal(n, rng)
    left_composed = on_laplacian(p1_field(A @ V.matrix), U)
    at_translated = on_laplacian(p1_field(A), OrthogonalPoint(V.matrix @ U.matrix))
    assert abs(left_composed.value - at_translated.value) <= 1e-12
    right_composed = on_laplacian(p1_field(V.matrix @ A), U)
    at_right = on_laplacian(p1_field(A), OrthogonalPoint(U.matrix @ V.matrix))
    assert abs(right_composed.value - at_right.value) <= 1e-12
