"""Finite-difference oracles, independent of the closed forms they check.

The geodesic estimators walk exact geodesics (great circles on the sphere,
plane rotations on the orthogonal group) and sum central second differences
of the field values over an orthonormal tangent basis. They never touch
analytic gradients or Hessians, frame Grams, or multipliers, so agreement
with the closed-form paths is an end-to-end check. The derivative checkers
compare analytic gradients and Hessians against central differences of the
value function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint_core import ScalarField, _fd_gradient, _fd_hessian
from .errors import ContractError
from .numkit import vec
from .orthogonal import OrthogonalPoint, index_pairs, pair_sign
from .sphere import SpherePoint, _resolve_chart, sphere_projector


@dataclass(frozen=True)
class OracleConfig:
    """Step size and extrapolation switch for the oracles.

    ``step`` must lie in [1e-6, 1e-1]. With ``richardson`` True the
    estimate is (4 D(step/2) - D(step)) / 3.
    """

    step: float = 1e-3
    richardson: bool = False

    def __post_init__(self):
        if not (1e-6 <= self.step <= 1e-1):
            raise ContractError(
                f"oracle step must lie in [1e-6, 1e-1], got {self.step}"
            )


def _sphere_tangent_basis(point: SpherePoint, drop_index: int | None) -> np.ndarray:
    """Orthonormal tangent basis from projector columns.

    The projector columns sum to zero against the coordinates, so dropping
    any index whose coordinate is away from zero keeps a spanning set; the
    default drops the smallest-norm column (largest coordinate).
    """
    drop_index = _resolve_chart(point, drop_index)
    P = sphere_projector(point)
    keep = [i for i in range(point.n) if i != drop_index]
    Q, _ = np.linalg.qr(P[:, keep])
    return Q


def _second_difference_sum(evaluate, directions: int, f0: float, config: OracleConfig) -> float:
    """The sum over the directions of the central second differences of the
    values ``evaluate(idx, h)`` = (f(+h), f(-h)) at step ``config.step``,
    Richardson-extrapolated as :class:`OracleConfig` says."""

    def total(h: float) -> float:
        out = 0.0
        for idx in range(directions):
            plus, minus = evaluate(idx, h)
            out += (plus - 2.0 * f0 + minus) / (h * h)
        return out

    estimate = total(config.step)
    if config.richardson:
        return (4.0 * total(config.step / 2.0) - estimate) / 3.0
    return estimate


def geodesic_laplacian_sphere(
    f: ScalarField,
    point: SpherePoint,
    config: OracleConfig | None = None,
    drop_index: int | None = None,
) -> float:
    """Laplace-Beltrami estimate on the sphere from geodesic second
    differences.

    Walks the great circles cos(t/R) x + R sin(t/R) v over an orthonormal
    tangent basis and sums central second differences of the field values.
    """
    config = OracleConfig() if config is None else config
    basis = _sphere_tangent_basis(point, drop_index)
    x = point.coords
    R = point.radius
    f0 = f.value(x)

    def evaluate(idx: int, h: float):
        v = basis[:, idx]
        ch = np.cos(h / R)
        sh = R * np.sin(h / R)
        return f.value(ch * x + sh * v), f.value(ch * x - sh * v)

    return _second_difference_sum(evaluate, basis.shape[1], f0, config)


def geodesic_laplacian_on(
    f: ScalarField,
    point: OrthogonalPoint,
    config: OracleConfig | None = None,
) -> float:
    """Laplace-Beltrami estimate on the orthogonal group from geodesic
    second differences.

    The unit-speed geodesic for the pair (a, b) rotates columns a and b of
    the point by the angle sign * t / sqrt(2), leaving the rest fixed; the
    estimate sums central second differences over all pairs.
    """
    config = OracleConfig() if config is None else config
    n = point.n
    U = point.matrix
    pairs = index_pairs(n)
    f0 = f.value(vec(U))

    def rotated(a: int, b: int, angle: float) -> np.ndarray:
        W = U.copy()
        ca, sa = np.cos(angle), np.sin(angle)
        W[:, a] = ca * U[:, a] + sa * U[:, b]
        W[:, b] = -sa * U[:, a] + ca * U[:, b]
        return W

    def evaluate(idx: int, h: float):
        a, b = pairs[idx]
        angle = pair_sign(a, b) * h / np.sqrt(2.0)
        return f.value(vec(rotated(a, b, angle))), f.value(vec(rotated(a, b, -angle)))

    return _second_difference_sum(evaluate, len(pairs), f0, config)


def _require_analytic(f: ScalarField, what: str) -> None:
    if not f.is_analytic:
        raise ContractError(
            f"{what} compares against analytic derivatives; field provenance "
            f"is '{f.provenance}'"
        )


def check_gradient(f: ScalarField, u, config: OracleConfig | None = None) -> float:
    """Max-abs deviation between the analytic gradient and central
    differences of the value at ``u``. Requires analytic provenance."""
    config = OracleConfig() if config is None else config
    _require_analytic(f, "check_gradient")
    u = np.asarray(u, dtype=float)
    analytic = f.gradient(u)
    numeric = _fd_gradient(f.values, u, config.step)
    return float(np.max(np.abs(analytic - numeric)))


def check_hessian(f: ScalarField, u, config: OracleConfig | None = None) -> float:
    """Max-abs deviation between the analytic Hessian and second differences
    of the value at ``u``. Requires analytic provenance."""
    config = OracleConfig() if config is None else config
    _require_analytic(f, "check_hessian")
    u = np.asarray(u, dtype=float)
    analytic = f.hessian(u)
    numeric = _fd_hessian(f.values, u, config.step)
    return float(np.max(np.abs(analytic - numeric)))
