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
    _closed_form,
    _only,
    block_product_set,
)
from .errors import ChartError, ContractError, DimensionError, DomainError
from .numkit import DEFAULT_TOLERANCES, Frozen, as_matrix, as_vector, raise_first, row_errors


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
        raise_first(_admit_sphere(coords[None], self.radius, tol))

    @property
    def n(self) -> int:
        return self.coords.size


def _admit_sphere(X: np.ndarray, radius: float, tol: float | None) -> list:
    """Per row of an (N, n) stack of finite points: None, or the DomainError
    carrying the residual |<x, x> - R^2| when it exceeds ``tol`` (default:
    the on-manifold tolerance). The whole stack is refused unless n >= 2 and
    :func:`_check_radius` admits the radius."""
    if X.shape[1] < 2:
        raise DimensionError("sphere points need ambient dimension >= 2")
    _check_radius(radius)
    tol = DEFAULT_TOLERANCES.on_manifold if tol is None else tol
    return _admit_blocks(X[:, :, None], radius, tol, "point is off the sphere: |<x,x> - R^2| =")


def _charts(X: np.ndarray, radius: float, excluded_index: int | None) -> tuple:
    """Per row of an (N, n) stack of points of the radius-``radius`` sphere,
    the chart's excluded index j (``excluded_index``, or argmax |x_j| when
    it is None) and None or, where |x_j| is below the chart margin, the
    ChartError refusing the row."""
    best = np.argmax(np.abs(X), axis=1)
    n = X.shape[1]
    if excluded_index is None:
        j = best
    elif not (0 <= excluded_index < n):
        raise DimensionError(f"excluded index {excluded_index} out of range for dimension {n}")
    else:
        j = np.full(len(X), excluded_index)
    xj = X[np.arange(len(X)), j]
    return j, row_errors(
        np.abs(xj) < DEFAULT_TOLERANCES.chart_margin * radius,
        lambda i: ChartError(
            f"coordinate {j[i]} is too small ({xj[i]:.3e}) for a valid chart; try index {best[i]}",
            suggested_index=int(best[i]),
        ),
    )


def _resolve_chart(point: SpherePoint, excluded_index: int | None) -> int:
    j, errors = _charts(point.coords[None], point.radius, excluded_index)
    raise_first(errors)
    return int(j[0])


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
    x = point.coords
    Rsq = point.radius**2
    g = f.gradient(x)
    H = f.hessian(x)
    return float(
        np.trace(H) - (point.n - 1) / Rsq * (x @ g) - (x @ H @ x) / Rsq
    )


def homogeneous_sphere_laplacian(f: ScalarField, degree: int, point: SpherePoint) -> float:
    """Shortcut for homogeneous ``f`` of the given degree:
    ambient Laplacian minus degree (degree + n - 2) / R^2 times the value.

    Homogeneity is spot-checked at the evaluation point (f(t x) = t^k f(x)
    for t in {2, 3}, relative tolerance 1e-8); failures raise ContractError.
    """
    k = int(degree)
    if k < 0:
        raise ContractError(f"homogeneity degree must be non-negative, got {k}")
    x = f._check_point(point.coords)
    # f(x), f(2x) and f(3x) from one stack, each refused as f.value refuses it
    values = f.values(np.stack([x, 2.0 * x, 3.0 * x])).tolist()
    f0 = values[0]
    for t, value in zip((1.0, 2.0, 3.0), values):
        if not math.isfinite(value):
            raise DomainError("field value is not finite")
        expected = t**k * f0
        deviation = abs(value - expected)
        if deviation > 1e-8 * max(1.0, abs(expected)):
            raise ContractError(
                f"field is not homogeneous of degree {k}: "
                f"|f({t} x) - {t}^{k} f(x)| = {deviation:.3e}"
            )
    ambient = float(np.trace(f.hessian(x)))
    return ambient - k * (k + point.n - 2) / point.radius**2 * f0


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
        j, errors = _charts(X, R, excluded_index)
        raise_first(_admit_sphere(X, R, tol) + errors)
        return _sphere_frames(X, R, j)

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
        j, errors = _charts(X, R, excluded_index)
        cond = np.maximum(R**2 / np.float_power(X[np.arange(len(X)), j], 2), 1.0)
        return (cond if X.shape[1] > 2 else np.ones(len(X))), errors

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
