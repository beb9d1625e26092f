"""Closed forms for the radius-R sphere embedded in R^n.

The sphere is the level set sum(x_i^2) = R^2. Charts exclude one coordinate
index j with x_j away from zero; each chart carries the coordinate frame
whose columns are R^2 e_i - x_i x for i != j. The frame Gram inverse and the
tangent projector have closed forms, the single Lagrange multiplier is
<x, grad f> / (2 R^2), and the Laplace-Beltrami value reduces to the ambient
Laplacian minus radial first- and second-order corrections.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .constraint_core import (
    AdaptedFrame,
    BlockProductSet,
    LaplacianReport,
    ScalarField,
    block_product_set,
)
from .errors import ChartError, ContractError, DimensionError, DomainError
from .numkit import DEFAULT_TOLERANCES, as_vector


@dataclass(frozen=True)
class SpherePoint:
    """A point of the radius-``radius`` sphere, validated on construction.

    The squared-norm residual |<x, x> - R^2| must not exceed ``tol``
    (default: the on-manifold tolerance). Off-sphere points are rejected,
    never projected.
    """

    coords: np.ndarray
    radius: float
    tol: InitVar[float | None] = None

    def __post_init__(self, tol):
        coords = as_vector(self.coords, "sphere point")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "radius", float(self.radius))
        if coords.size < 2:
            raise DimensionError("sphere points need ambient dimension >= 2")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise DimensionError(f"radius must be positive, got {self.radius}")
        tol = DEFAULT_TOLERANCES.on_manifold if tol is None else tol
        with np.errstate(over="ignore"):  # a huge point is refused, not warned about
            residual = abs(float(coords @ coords) - self.radius**2)
        if residual > tol:
            raise DomainError(
                f"point is off the sphere: |<x,x> - R^2| = {residual:.6g} "
                f"exceeds tolerance {tol:.6g}",
                residual=residual,
            )

    @property
    def n(self) -> int:
        return self.coords.size


def default_chart_index(point: SpherePoint) -> int:
    """The excluded index used when none is requested: argmax |x_j|."""
    return int(np.argmax(np.abs(point.coords)))


def _resolve_chart(point: SpherePoint, excluded_index: int | None) -> int:
    j = default_chart_index(point) if excluded_index is None else excluded_index
    n = point.n
    if not (0 <= j < n):
        raise DimensionError(f"excluded index {j} out of range for dimension {n}")
    margin = DEFAULT_TOLERANCES.chart_margin * point.radius
    if abs(point.coords[j]) < margin:
        raise ChartError(
            f"coordinate {j} is too small ({point.coords[j]:.3e}) for a valid "
            f"chart; try index {default_chart_index(point)}",
            suggested_index=default_chart_index(point),
        )
    return j


def sphere_frame(point: SpherePoint, excluded_index: int | None = None) -> np.ndarray:
    """Coordinate tangent frame with columns R^2 e_i - x_i x for i != j.

    ``excluded_index`` defaults to the largest-magnitude coordinate. The
    frame exists only where |x_j| clears the chart margin.
    """
    j = _resolve_chart(point, excluded_index)
    x = point.coords
    n = point.n
    keep = [i for i in range(n) if i != j]
    return point.radius**2 * np.eye(n)[:, keep] - np.outer(x, x[keep])


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


def sphere_sigma(f: ScalarField, point: SpherePoint) -> float:
    """The sphere's single Lagrange multiplier: <x, grad f(x)> / (2 R^2)."""
    x = point.coords
    return float(x @ f.gradient(x)) / (2.0 * point.radius**2)


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
    x = point.coords
    f0 = f.value(x)
    for t in (2.0, 3.0):
        expected = t**k * f0
        deviation = abs(f.value(t * x) - expected)
        if deviation > 1e-8 * max(1.0, abs(expected)):
            raise ContractError(
                f"field is not homogeneous of degree {k}: "
                f"|f({t} x) - {t}^{k} f(x)| = {deviation:.3e}"
            )
    ambient = float(np.trace(f.hessian(x)))
    return ambient - k * (k + point.n - 2) / point.radius**2 * f0


def check_sphere_parameters(n: int, radius: float) -> None:
    """Refuse a dimension below 2 or a radius that is not positive."""
    if n < 2:
        raise DimensionError("sphere constraint sets need n >= 2")
    if not radius > 0:
        raise DimensionError(f"radius must be positive, got {radius}")


def sphere_constraint_set(n: int, radius: float) -> BlockProductSet:
    """The sphere as a one-constraint set: sum(x_i^2) = R^2, one block."""
    check_sphere_parameters(n, radius)
    return block_product_set(n, n, [(0, 0, 1.0)], np.array([radius**2]))


def sphere_adapted_frame(
    radius: float, excluded_index: int | None = None, tol: float | None = None
) -> AdaptedFrame:
    """AdaptedFrame wrapping :func:`sphere_frame` for the general evaluator.

    With ``excluded_index`` None the chart is chosen per point. ``tol`` is
    the admission tolerance of each point (see :class:`SpherePoint`); the
    general evaluator has already admitted the point at its own
    ``on_manifold`` tolerance, so callers pass that same value.
    """

    def provider(u: np.ndarray) -> np.ndarray:
        return sphere_frame(SpherePoint(u, radius, tol=tol), excluded_index)

    return AdaptedFrame(provider=provider)


def sphere_report(
    f: ScalarField, point: SpherePoint, excluded_index: int | None = None
) -> LaplacianReport:
    """Closed-form evaluation packaged with the same diagnostics the general
    path reports: multiplier, projected traces, and the frame Gram condition
    of the chart actually used."""
    j = _resolve_chart(point, excluded_index)
    x = point.coords
    Rsq = point.radius**2
    g = f.gradient(x)
    H = f.hessian(x)
    sigma = float(x @ g) / (2.0 * Rsq)
    trace_main = float(np.trace(H) - (x @ H @ x) / Rsq)
    # Frame Gram eigenvalues are R^4 (multiplicity n-2) and R^2 x_j^2.
    condition = float(Rsq / x[j] ** 2) if point.n > 2 else 1.0
    if condition < 1.0:
        condition = 1.0
    return LaplacianReport.assemble(
        trace_main=trace_main,
        sigma=np.array([sigma]),
        trace_constraint=np.array([2.0 * (point.n - 1)]),
        frame_gram_condition=condition,
    )


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
