"""Closed forms for the orthogonal group embedded in n-by-n matrix space.

Points are matrices with orthonormal columns, flattened column-major when an
ambient vector is needed. The constraint set has one half-squared-norm
constraint per column and one inner-product constraint per column pair; the
tangent frame columns are the flattened products of the point with a signed
two-index skew basis. The frame Gram is twice the identity, the frame
projector is the identity minus a block reflection matrix built from column
outer products, and the Laplace-Beltrami value of any prolonged field
reduces to three traces. Worked closed forms cover the first trace power
sums, their squares, and the Brockett cost.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .constraint_core import (
    AdaptedFrame,
    BlockProductSet,
    LaplacianReport,
    ScalarField,
    _admit_blocks,
    _closed_form,
    _lambda_traces,
    _only,
    _repeated,
    block_product_set,
)
from .errors import ContractError, DimensionError
from .numkit import (
    DEFAULT_TOLERANCES,
    Frozen,
    as_matrix,
    as_vector,
    require_symmetric,
    unvec_rows,
    vec,
    vec_rows,
)


class OrthogonalPoint(Frozen):
    """An n-by-n matrix with orthonormal columns, validated on construction.

    ``max |U^t U - I|`` must not exceed ``tol`` (default: the orthogonality
    tolerance). Near-orthogonal input is rejected, never re-orthonormalized.
    """

    def __init__(self, matrix: np.ndarray, tol: float | None = None):
        vars(self).update(matrix=matrix)
        self.__post_init__(tol)

    def __post_init__(self, tol):
        """Convert and admit the stored matrix (the admission stage the
        benchmark's span tracer times)."""
        matrix = _check_square(self.matrix, name="orthogonal point")
        vars(self).update(matrix=matrix)
        _admit_orthogonal(matrix[None], tol)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_vector(self) -> np.ndarray:
        return vec(self.matrix)


def _admit_orthogonal(Us: np.ndarray, tol: float | None) -> None:
    """Refuse each matrix of an (N, n, n) stack of finite matrices whose
    residual max |U^t U - I| is not within ``tol`` (default: the
    orthogonality tolerance) with the DomainError carrying it. The whole
    stack is refused unless n >= 2."""
    if Us.shape[1] < 2:
        raise DimensionError("orthogonal points need n >= 2")
    tol = DEFAULT_TOLERANCES.orthogonality if tol is None else tol
    _admit_blocks(Us, 1.0, tol, "matrix is not orthogonal: max |U^t U - I| =")


def index_pairs(n: int) -> tuple:
    """All index pairs (a, b) with a < b, in lexicographic order."""
    if n < 2:
        raise DimensionError(f"index pairs need n >= 2, got {n}")
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


def pair_sign(a: int, b: int) -> float:
    """Alternating sign (-1)^(a+b) attached to the pair (a, b)."""
    return -1.0 if (a + b) % 2 else 1.0


def theta_basis(n: int) -> list:
    """Signed skew basis: (-1)^(a+b) (e_b e_a^t - e_a e_b^t) per pair (a, b)."""
    mats = []
    for a, b in index_pairs(n):
        M = np.zeros((n, n))
        s = pair_sign(a, b)
        M[b, a] = s
        M[a, b] = -s
        mats.append(M)
    return mats


def check_orthogonal_side(n: int) -> None:
    """Refuse a matrix side below 2."""
    if n < 2:
        raise DimensionError(f"orthogonal constraint sets need n >= 2, got {n}")


def on_constraint_set(n: int) -> BlockProductSet:
    """Constraints cutting the orthogonal group out of matrix space, with
    the flattened matrix's columns as blocks.

    Order: half-squared-norm constraints for every column (regular value
    1/2), then inner-product constraints for every pair (regular value 0)
    in lexicographic order.
    """
    check_orthogonal_side(n)
    products = [(a, a, 0.5) for a in range(n)] + [(b, c, 1.0) for b, c in index_pairs(n)]
    values = np.concatenate([np.full(n, 0.5), np.zeros(len(products) - n)])
    return block_product_set(n * n, n, products, values)


def on_frame(point: OrthogonalPoint) -> np.ndarray:
    """Tangent frame with one column per index pair, lexicographic order.

    Column (a, b) is the flattening of U Theta_ab, which has sign * u_b in
    column a and -sign * u_a in column b and zeros elsewhere.
    """
    return _on_frames(point.to_vector()[None], point.n)[0]


@functools.cache
def _on_frame_entries(n: int) -> tuple:
    """Where :func:`on_frame` puts the entries of vec(U): per nonzero, its
    frame row and column, the entry of vec(U) and its sign."""
    a, b = np.triu_indices(n, 1)  # the index pairs, lexicographic
    s = np.where((a + b) % 2, -1.0, 1.0)
    block_a, block_b = a[:, None] * n + np.arange(n), b[:, None] * n + np.arange(n)
    # column p = (a, b): s u_b in block a, -s u_a in block b
    rows = np.concatenate([block_a, block_b]).ravel()
    entries = np.concatenate([block_b, block_a]).ravel()
    cols = np.repeat(np.tile(np.arange(a.size), 2), n)
    signs = np.repeat(np.concatenate([s, -s]), n)
    return rows, cols, entries, signs


def _on_frames(X: np.ndarray, n: int) -> np.ndarray:
    """:func:`on_frame` at every row vec(U) of an (N, n*n) stack."""
    rows, cols, entries, signs = _on_frame_entries(n)
    T = np.zeros((len(X), n * n, n * (n - 1) // 2))
    T[:, rows, cols] = signs * X[:, entries]
    return T


def on_adapted_frame(tol: float | None = None) -> AdaptedFrame:
    """AdaptedFrame of :func:`on_frame` at flattened points, each admitted
    as an :class:`OrthogonalPoint` at ``tol``."""

    def provider(X: np.ndarray) -> np.ndarray:
        n = _side(X)
        _admit_orthogonal(unvec_rows(X, n), tol)
        return _on_frames(X, n)

    return AdaptedFrame(provider=provider)


def _side(X: np.ndarray) -> int:
    """n for an (N, n*n) stack of flattened n-by-n matrices."""
    n = math.isqrt(X.shape[1])
    if n * n != X.shape[1]:
        raise DimensionError(f"point length {X.shape[1]} is not a square matrix flattening")
    return n


_LAMBDA_MAX_N = 16


def lambda_of(point: OrthogonalPoint) -> np.ndarray:
    """The block reflection matrix: block (i, j) is outer(u_j, u_i).

    Symmetric involution with trace n; materialized only for n <= 16.
    """
    n = point.n
    if n > _LAMBDA_MAX_N:
        raise DimensionError(
            f"lambda_of materializes an n^2 x n^2 matrix; refusing n = {n} > {_LAMBDA_MAX_N}"
        )
    return _block_reflection(point.matrix)


def _block_reflection(M: np.ndarray) -> np.ndarray:
    """The n^2-by-n^2 matrix whose block (i, j) is outer(m_j, m_i) for the
    columns m_i of the n-by-n M: entry (i n + a, j n + b) is M[a, j] M[b, i]."""
    n = M.shape[0]
    return (M[None, :, :, None] * M.T[:, None, None, :]).reshape(n * n, n * n)


def trace_lambda_product(point: OrthogonalPoint, H) -> float:
    """tr(Lambda(U) H) contracted blockwise, without materializing Lambda:
    the sum of u_i^t H[block j, block i] u_j over all block index pairs, by
    :func:`~lapbel.constraint_core._lambda_traces`, which the closed form reads."""
    H = _check_square(H, point.n**2, "hessian")
    return float(_lambda_traces(point.matrix[None], H[None])[0])


def on_laplacian(f: ScalarField, point: OrthogonalPoint) -> LaplacianReport:
    """Laplace-Beltrami value of ``f`` on the orthogonal group, with
    diagnostics: the one-row case of :func:`on_laplacians`, raising the
    error that refuses the point, which is not admitted again."""
    return _only(on_laplacians(f, point.to_vector()[None], math.inf))


def on_laplacians(f, X, tol: float | None = None) -> list:
    """Closed-form reports of ``f`` (one ScalarField, or one per row) on the
    orthogonal group at the rows vec(U) of the (N, n*n) stack ``X`` of finite
    points, by :func:`~lapbel.constraint_core._closed_form` (n columns of n
    coordinates, weight 1/2): per row a LaplacianReport or the first error of
    admission at ``tol`` (see :class:`OrthogonalPoint`), a non-finite field
    gradient, the field Hessian and assembly (a non-finite multiplier).

    This is the driver's V(n, n) at R = 1. As U U^t = I, the value is half the
    ambient Laplacian, minus half the blockwise Lambda-Hessian trace, minus
    (n-1)/2 times tr(U^t G), G the gradient in matrix form. The frame Gram is
    exactly twice the identity, so its condition is reported as 1.
    """
    X = as_matrix(X, "orthogonal points")
    n = _side(X)
    return _closed_form(f, X, (n, n), 0.5, 1.0, lambda X: _admit_orthogonal(unvec_rows(X, n), tol),
                        lambda X: np.ones(len(X)))


def _check_square(A, n: int | None = None, name: str = "matrix") -> np.ndarray:
    A = as_matrix(A, name)
    r, c = A.shape
    if r != c:
        raise DimensionError(f"{name} must be square, got {r}x{c}")
    if n is not None and r != n:
        raise DimensionError(f"{name} is {r}x{c}, expected {n}x{n}")
    return A


def _constant_hessian(build) -> np.ndarray:
    """The constant Hessian ``build()`` gives, refused with ContractError
    where it overflows, as polynomial_field refuses an overflowing
    coefficient: no field is built whose every Hessian is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        H = build()
    if not np.isfinite(H).all():
        raise ContractError("the field's constant Hessian overflows: the coefficients are too large")
    return H


def p1_field(A) -> ScalarField:
    """tr(A U) as a field on matrix space: gradient A^t, Hessian zero."""
    A = _check_square(A, name="coefficient matrix")
    n = A.shape[0]
    dim = n * n

    def values(X):
        return np.trace(A @ unvec_rows(X, n), axis1=1, axis2=2)

    return ScalarField(
        dim,
        values_fn=values,
        gradients_fn=_repeated(vec(A.T)),
        hessians_fn=_repeated(np.zeros((dim, dim))),
    )


def p11_field(A) -> ScalarField:
    """tr(A U)^2 as a field: gradient 2 tr(A U) vec(A^t), constant Hessian
    2 vec(A^t) vec(A^t)^t."""
    A = _check_square(A, name="coefficient matrix")
    n = A.shape[0]
    dim = n * n
    w = vec(A.T)
    H = _constant_hessian(lambda: 2.0 * np.outer(w, w))

    def traces(X):
        return np.trace(A @ unvec_rows(X, n), axis1=1, axis2=2)

    def values(X):
        # float_power is libm pow, the bits of the scalar **, not of t * t;
        # a trace whose square overflows gives inf, which value refuses
        with np.errstate(over="ignore"):
            return np.float_power(traces(X), 2)

    def gradients(X):
        return (2.0 * traces(X))[:, None] * w

    return ScalarField(dim, values_fn=values, gradients_fn=gradients, hessians_fn=_repeated(H))


def p2_field(A) -> ScalarField:
    """tr((A U)^2) as a field: gradient 2 vec(A^t U^t A^t), constant Hessian
    with block (i, j) equal to 2 outer(b_j, b_i), B = A^t."""
    A = _check_square(A, name="coefficient matrix")
    n = A.shape[0]
    dim = n * n
    B = A.T
    H = _constant_hessian(lambda: 2.0 * _block_reflection(B))

    def values(X):
        AU = A @ unvec_rows(X, n)
        return np.trace(AU @ AU, axis1=1, axis2=2)

    def gradients(X):
        return vec_rows(2.0 * (B @ np.swapaxes(unvec_rows(X, n), 1, 2) @ B))

    return ScalarField(dim, values_fn=values, gradients_fn=gradients, hessians_fn=_repeated(H))


def _brockett_coefficients(A, diagonal, n: int | None = None) -> tuple:
    """The Brockett cost's square symmetric A and its diagonal, checked."""
    A = _check_square(A, n, "coefficient matrix")
    mu = as_vector(diagonal, "diagonal")
    if mu.size != A.shape[0]:
        raise DimensionError(f"diagonal has length {mu.size}, expected {A.shape[0]}")
    require_symmetric(A, "coefficient matrix", "A")
    return A, mu


def brockett_field(A, diagonal) -> ScalarField:
    """tr(U^t A U N) with symmetric A and N = diag(diagonal): gradient
    2 A U N, constant Hessian 2 kron(N, A)."""
    A, mu = _brockett_coefficients(A, diagonal)
    n = A.shape[0]
    dim = n * n
    H = _constant_hessian(lambda: 2.0 * np.kron(np.diag(mu), A))

    def values(X):
        U = unvec_rows(X, n)
        return np.trace(U.transpose(0, 2, 1) @ A @ U @ np.diag(mu), axis1=1, axis2=2)

    def gradients(X):
        return vec_rows(2.0 * (A @ unvec_rows(X, n)) * mu[None, :])

    return ScalarField(dim, values_fn=values, gradients_fn=gradients, hessians_fn=_repeated(H))


def p1_laplacian(A, point: OrthogonalPoint) -> float:
    """Closed form: -(n-1)/2 times tr(A U)."""
    A = _check_square(A, point.n, "coefficient matrix")
    return -(point.n - 1) / 2.0 * float(np.trace(A @ point.matrix))


def _trace_powers(A, point: OrthogonalPoint) -> tuple:
    """tr(A A^t), tr(A U)^2 and tr((A U)^2) at the point."""
    A = _check_square(A, point.n, "coefficient matrix")
    AU = A @ point.matrix
    return float(np.trace(A @ A.T)), float(np.trace(AU)) ** 2, float(np.trace(AU @ AU))


def p11_laplacian(A, point: OrthogonalPoint) -> float:
    """Closed form: tr(A A^t) - (n-1) tr(A U)^2 - tr((A U)^2)."""
    t, p11, p2 = _trace_powers(A, point)
    return t - (point.n - 1) * p11 - p2


def p2_laplacian(A, point: OrthogonalPoint) -> float:
    """Closed form: tr(A A^t) - (n-1) tr((A U)^2) - tr(A U)^2."""
    t, p11, p2 = _trace_powers(A, point)
    return t - (point.n - 1) * p2 - p11


def brockett_laplacian(A, diagonal, point: OrthogonalPoint) -> float:
    """Closed form for tr(U^t A U N), N = diag(diagonal), symmetric A:
    -(n-1) tr(U^t A U N) + tr(N) tr(A) - tr(U N U^t A)."""
    n = point.n
    A, mu = _brockett_coefficients(A, diagonal, n)
    U = point.matrix
    value = float(np.trace(U.T @ A @ U @ np.diag(mu)))
    correction = float(np.trace((U * mu[None, :]) @ U.T @ A))
    return -(n - 1) * value + float(np.sum(mu)) * float(np.trace(A)) - correction


def random_orthogonal(n: int, seed) -> OrthogonalPoint:
    """Deterministic random orthogonal matrix: QR of a seeded Gaussian
    matrix with the R-diagonal sign fix."""
    if n < 2:
        raise DimensionError(f"random orthogonal matrices need n >= 2, got {n}")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    while True:
        M = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(M)
        d = np.diag(R)
        if np.min(np.abs(d)) < 1e-9:
            continue  # degenerate draw; the sign fix needs nonzero diagonal
        return OrthogonalPoint(Q * np.sign(d)[None, :])
