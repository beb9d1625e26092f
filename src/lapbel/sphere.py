"""Closed forms for the radius-R sphere embedded in R^n.

The sphere is the level set sum(x_i^2) = R^2. Charts exclude one coordinate
index j with x_j away from zero; each chart carries the coordinate frame
whose columns are R^2 e_i - x_i x for i != j. The frame Gram inverse and the
tangent projector have closed forms, the single Lagrange multiplier is
<x, grad f> / (2 R^2), and the Laplace-Beltrami value reduces to the ambient
Laplacian minus radial first- and second-order corrections.
"""

from __future__ import annotations

import math

import numpy as np

from .constraint_core import (
    AdaptedFrame,
    BlockProductSet,
    LaplacianReport,
    ScalarField,
    _admit_blocks,
    _by_field,
    _closed_form,
    _field_gradients,
    _field_hessians,
    _in_chunks,
    _only,
    block_product_set,
)
from .errors import ChartError, ContractError, DimensionError, DomainError
from .numkit import DEFAULT_TOLERANCES, Frozen, as_matrix, as_vector, refuse_rows


class SpherePoint(Frozen):
    """A point of the radius-``radius`` sphere, validated on construction.

    The squared-norm residual |<x, x> - R^2| must not exceed ``tol``
    (default: the on-manifold tolerance). Off-sphere points are rejected,
    never projected.
    """

    def __init__(self, coords: np.ndarray, radius: float, tol: float | None = None):
        vars(self).update(coords=coords, radius=radius)
        self.__post_init__(tol)

    def __post_init__(self, tol):
        """Convert and admit the stored fields (the admission stage the
        benchmark's span tracer times)."""
        coords = as_vector(self.coords, "sphere point")
        vars(self).update(coords=coords, radius=float(self.radius))
        _admit_sphere(coords[None], self.radius, tol)

    @property
    def n(self) -> int:
        return self.coords.size


def _admit_sphere(X: np.ndarray, radius: float, tol: float | None) -> None:
    """Refuse each row of an (N, n) stack of finite points whose residual
    |<x, x> - R^2| exceeds ``tol`` (default: the on-manifold tolerance) with
    the DomainError carrying it. The whole stack is refused unless n >= 2
    and :func:`_check_radius` admits the radius."""
    if X.shape[1] < 2:
        raise DimensionError("sphere points need ambient dimension >= 2")
    _check_radius(radius)
    tol = DEFAULT_TOLERANCES.on_manifold if tol is None else tol
    _admit_blocks(X[:, :, None], radius, tol, "point is off the sphere: |<x,x> - R^2| =")


def _charts(X: np.ndarray, radius: float, excluded_index: int | None) -> np.ndarray:
    """Per row of an (N, n) stack of points of the radius-``radius`` sphere,
    the chart's excluded index j (``excluded_index``, or argmax |x_j| when
    it is None), refusing each row where |x_j| is below the chart margin
    with ChartError."""
    best = np.argmax(np.abs(X), axis=1)
    n = X.shape[1]
    if excluded_index is None:
        j = best
    elif not (0 <= excluded_index < n):
        raise DimensionError(f"excluded index {excluded_index} out of range for dimension {n}")
    else:
        j = np.full(len(X), excluded_index)
    xj = X[np.arange(len(X)), j]
    refuse_rows((
        np.abs(xj) < DEFAULT_TOLERANCES.chart_margin * radius,
        lambda i: ChartError(
            f"coordinate {j[i]} is too small ({xj[i]:.3e}) for a valid chart; try index {best[i]}",
            suggested_index=int(best[i]),
        ),
    ))
    return j


def _resolve_chart(point: SpherePoint, excluded_index: int | None) -> int:
    return int(_charts(point.coords[None], point.radius, excluded_index)[0])


def _sphere_frames(X: np.ndarray, radius: float, j: np.ndarray) -> np.ndarray:
    """:func:`sphere_frame` at every row of an (N, n) stack, row i in the
    chart that excludes j[i]."""
    N, n = X.shape
    rows, cols = np.arange(N)[:, None], np.arange(n - 1)
    keep = cols + (cols >= j[:, None])  # per row, the indices other than j
    E = np.zeros((N, n, n - 1))
    E[rows, keep, cols] = radius**2
    return E - X[:, :, None] * X[rows, keep][:, None, :]


def sphere_frame(point: SpherePoint, excluded_index: int | None = None) -> np.ndarray:
    """Coordinate tangent frame with columns R^2 e_i - x_i x for i != j.

    ``excluded_index`` defaults to the largest-magnitude coordinate. The
    frame exists only where |x_j| clears the chart margin.
    """
    j = _resolve_chart(point, excluded_index)
    return _sphere_frames(point.coords[None], point.radius, np.array([j]))[0]


def sphere_frame_gram_inverse(
    point: SpherePoint, excluded_index: int | None = None
) -> np.ndarray:
    """Closed-form inverse of the frame Gram matrix:
    (1/R^4) (I + xhat xhat^t / x_j^2), xhat = x with entry j removed."""
    j = _resolve_chart(point, excluded_index)
    x = point.coords
    keep = [i for i in range(point.n) if i != j]
    xhat = x[keep]
    return (np.eye(point.n - 1) + np.outer(xhat, xhat) / x[j] ** 2) / point.radius**4


def sphere_projector(point: SpherePoint) -> np.ndarray:
    """Orthogonal projector onto the tangent space: I - x x^t / R^2.

    Independent of any chart choice.
    """
    x = point.coords
    return np.eye(point.n) - np.outer(x, x) / point.radius**2


def sphere_laplacian(f: ScalarField, point: SpherePoint) -> float:
    """Laplace-Beltrami value on the sphere in ambient coordinates.

    Equals the ambient Laplacian minus (n-1)/R^2 times the radial derivative
    minus the radial Hessian quadratic form over R^2.
    """
    return _only(_sphere_laplacians(f, f._check_point(point.coords)[None], point.radius))


def _sphere_laplacians(f, X: np.ndarray, radius: float) -> list:
    """The stacked :func:`sphere_laplacian` of ``f`` (one field, or one per row)
    at the sphere points X: per row a float, or the error that refuses it. Its
    own arithmetic, each product a stacked matmul with the one-row bits."""
    Rsq, n = radius**2, X.shape[1]

    def stack(fields, X):
        radial = np.matmul(X[:, None], _field_gradients(fields, X)[:, :, None])[:, 0, 0]
        H = _field_hessians(fields, X)[:, 0]
        quadratic = np.matmul(np.matmul(X[:, None], H), X[:, :, None])[:, 0, 0]
        return (np.trace(H, axis1=1, axis2=2) - (n - 1) / Rsq * radial - quadratic / Rsq).tolist()

    return _in_chunks(stack, f, X, 8 * n * n)


def homogeneous_sphere_laplacian(f: ScalarField, degree: int, point: SpherePoint) -> float:
    """Shortcut for homogeneous ``f`` of the given degree:
    ambient Laplacian minus degree (degree + n - 2) / R^2 times the value.

    Homogeneity is spot-checked at the evaluation point (f(t x) = t^k f(x)
    for t in {2, 3}, relative tolerance 1e-8); failures raise ContractError.
    """
    k = int(degree)
    if k < 0:
        raise ContractError(f"homogeneity degree must be non-negative, got {k}")
    return _only(_homogeneous_sphere_laplacians(f, k, f._check_point(point.coords)[None], point.radius))


def _homogeneous_sphere_laplacians(f, k: int, X: np.ndarray, radius: float) -> list:
    """The stacked :func:`homogeneous_sphere_laplacian` of degree k >= 0, like
    :func:`_sphere_laplacians`: a row is refused at the first t where f(t x) is
    not finite (DomainError) or not t^k f(x) (ContractError), else by its Hessian."""
    n, t = X.shape[1], np.array([1.0, 2.0, 3.0])
    scale = np.float_power(t, k)  # libm pow, the bits of the scalar t**k
    message = f"field is not homogeneous of degree {k}: |f({{0}} x) - {{0}}^{k} f(x)| = {{1:.3e}}"

    def stack(fields, X):
        # f(x), f(2x) and f(3x) per row, each row with its field
        values = np.stack([_by_field(ScalarField.values, fields, c * X) for c in t], axis=1)
        expected = scale * values[:, :1]
        deviation, tol = np.abs(values - expected), 1e-8 * np.maximum(1.0, np.abs(expected))
        for j, c in enumerate(t):  # the rows left run again after each refusing t
            refuse_rows(
                (~np.isfinite(values[:, j]), lambda i: DomainError("field value is not finite")),
                (deviation[:, j] > tol[:, j], lambda i: ContractError(message.format(c, deviation[i, j]))),
            )
        ambient = np.trace(_field_hessians(fields, X)[:, 0], axis1=1, axis2=2)
        return (ambient - k * (k + n - 2) / radius**2 * values[:, 0]).tolist()

    return _in_chunks(stack, f, X, 8 * n * n)


def _check_radius(radius: float) -> None:
    """Refuse a radius that is not positive, whose square overflows, or whose
    chart margin squares to 0: the closed form divides by the square of a
    chart's excluded coordinate, which is at least that margin."""
    if not radius > 0:
        raise DimensionError(f"radius must be positive, got {radius}")
    if not (radius * radius < math.inf and (DEFAULT_TOLERANCES.chart_margin * radius) ** 2 > 0):
        raise DimensionError(
            f"radius {radius} is out of range: its square overflows or its chart "
            "margin's square underflows to 0"
        )


def check_sphere_parameters(n: int, radius: float) -> None:
    """Refuse a dimension below 2, or a radius :func:`_check_radius` refuses."""
    if n < 2:
        raise DimensionError("sphere constraint sets need n >= 2")
    _check_radius(radius)


def sphere_constraint_set(n: int, radius: float) -> BlockProductSet:
    """The sphere as a one-constraint set: sum(x_i^2) = R^2, one block."""
    check_sphere_parameters(n, radius)
    return block_product_set(n, n, [(0, 0, 1.0)], np.array([radius**2]))


def sphere_adapted_frame(
    radius: float, excluded_index: int | None = None, tol: float | None = None
) -> AdaptedFrame:
    """AdaptedFrame of :func:`sphere_frame` for the general evaluator.

    With ``excluded_index`` None the chart is chosen per point. ``tol`` is
    the admission tolerance of each point (see :class:`SpherePoint`); the
    general evaluator has already admitted the point at its own
    ``on_manifold`` tolerance, so callers pass that same value.
    """

    def provider(X: np.ndarray) -> np.ndarray:
        R = float(radius)
        _admit_sphere(X, R, tol)
        return _sphere_frames(X, R, _charts(X, R, excluded_index))

    return AdaptedFrame(provider=provider)


def sphere_report(
    f: ScalarField, point: SpherePoint, excluded_index: int | None = None
) -> LaplacianReport:
    """Closed-form evaluation packaged with the same diagnostics the general
    path reports: multiplier, projected traces, and the frame Gram condition
    of the chart actually used. The one-row case of :func:`sphere_reports`,
    raising the error that refuses the point, which is not admitted again."""
    return _only(sphere_reports(f, point.coords[None], point.radius, excluded_index, math.inf))


def sphere_reports(
    f, X, radius: float, excluded_index: int | None = None, tol: float | None = None
) -> list:
    """Closed-form reports of ``f`` (one ScalarField, or one per row) on the
    radius-``radius`` sphere at the rows of the (N, n) stack ``X`` of finite
    points, by :func:`~lapbel.constraint_core._closed_form` (one column of n
    coordinates, weight 1): per row a LaplacianReport or the first error of
    admission at ``tol`` (see :class:`SpherePoint`), a non-finite field
    gradient, the chart (see :func:`sphere_frame`), the field Hessian and
    assembly: the driver's V(n, 1), main trace tr H - x^t H x / R^2."""
    R = float(radius)

    def chart(X):
        # Frame Gram eigenvalues are R^4 (multiplicity n-2) and R^2 x_j^2;
        # float_power is libm pow, the bits of the scalar **, not of x * x
        j = _charts(X, R, excluded_index)
        cond = np.maximum(R**2 / np.float_power(X[np.arange(len(X)), j], 2), 1.0)
        return cond if X.shape[1] > 2 else np.ones(len(X))

    X = as_matrix(X, "sphere points")
    return _closed_form(f, X, (X.shape[1], 1), 1.0, R, lambda X: _admit_sphere(X, R, tol), chart)


def random_sphere_point(n: int, radius: float, rng) -> SpherePoint:
    """Uniform random point of the radius-``radius`` sphere in R^n."""
    if n < 2:
        raise DimensionError("random sphere points need n >= 2")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    while True:
        g = rng.standard_normal(n)
        norm = float(np.linalg.norm(g))
        if norm > 1e-6:
            return SpherePoint(radius * g / norm, radius)
