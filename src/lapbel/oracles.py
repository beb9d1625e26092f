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

import numpy as np

from .constraint_core import ScalarField, _fd_gradient, _fd_hessian, _finite, _hessians_at
from .errors import ContractError, DomainError, LapbelError
from .numkit import Frozen, raise_first, vec
from .orthogonal import OrthogonalPoint
from .sphere import SpherePoint, _resolve_chart, sphere_projector


class OracleConfig(Frozen):
    """Step size and extrapolation switch for the oracles.

    ``step`` must lie in [1e-6, 1e-1]. With ``richardson`` True the
    estimate is (4 D(step/2) - D(step)) / 3.
    """

    def __init__(self, step: float = 1e-3, richardson: bool = False):
        if not (1e-6 <= step <= 1e-1):
            raise ContractError(f"oracle step must lie in [1e-6, 1e-1], got {step}")
        vars(self).update(step=step, richardson=richardson)


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


def _second_difference_sum(f: ScalarField, stack, f0: float, config: OracleConfig) -> float:
    """The sum over the directions of the central second differences of
    ``f`` at the points ``stack(h)`` (a row per direction at +h, then one per
    direction at -h; one ``f.values`` call, refused as ``f.value`` refuses a
    non-finite value) at step ``config.step``, Richardson-extrapolated as
    :class:`OracleConfig` says."""

    def total(h: float) -> float:
        values = f.values(stack(h))
        if not np.isfinite(values).all():
            raise DomainError("field value is not finite")
        out = 0.0
        for plus, minus in zip(*values.reshape(2, -1).tolist()):
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
    V = _sphere_tangent_basis(point, drop_index).T
    x = point.coords
    R = point.radius
    f0 = f.value(x)

    def stack(h: float) -> np.ndarray:
        ch = np.cos(h / R)
        sh = R * np.sin(h / R)
        return np.concatenate([ch * x + sh * V, ch * x - sh * V])

    return _second_difference_sum(f, stack, f0, config)


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
    u = vec(point.matrix)
    f0 = f.value(u)
    a, b = (np.tile(index, 2) for index in np.triu_indices(n, 1))  # the pairs at +h, at -h
    sign = np.where((a + b) % 2, -1.0, 1.0) * np.repeat((1.0, -1.0), len(a) // 2)
    columns = u.reshape(n, n)  # row c is column c of the point
    rows = np.arange(len(a))

    def stack(h: float) -> np.ndarray:
        angle = sign * h / np.sqrt(2.0)
        ca, sa = np.cos(angle)[:, None], np.sin(angle)[:, None]
        W = np.tile(columns, (len(a), 1, 1))
        W[rows, a] = ca * columns[a] + sa * columns[b]
        W[rows, b] = -sa * columns[a] + ca * columns[b]
        return W.reshape(len(a), n * n)

    return _second_difference_sum(f, stack, f0, config)


def _require_analytic(f: ScalarField, what: str) -> None:
    if not f.is_analytic:
        raise ContractError(
            f"{what} compares against analytic derivatives; field provenance "
            f"is '{f.provenance}'"
        )


def _analytic(fields, u: np.ndarray, derivative: str) -> np.ndarray:
    """The analytic ``derivative`` ("gradient" or "hessian") of every field
    at ``u``, stacked and checked at once; where one is refused, the first
    refused field raises, as ``getattr(f, derivative)(u)`` does."""
    try:
        if derivative == "gradient":
            return _finite(np.stack([f.gradients(u[None])[0] for f in fields]), "gradient")
        H, errors = _hessians_at(fields, u[None])
        raise_first(errors)
        return H[0]
    except LapbelError:
        for f in fields:
            getattr(f, derivative)(u)
        raise


def _deviations(fields, u, config: OracleConfig | None, derivative: str, numeric) -> list:
    """Per field, the max-abs deviation between its analytic ``derivative``
    and the ``numeric`` differences of its value, every field on one stencil."""
    config = OracleConfig() if config is None else config
    for f in fields:
        _require_analytic(f, f"check_{derivative}")
    u = np.asarray(u, dtype=float)
    analytic = _analytic(fields, u, derivative)
    fd = numeric(lambda X: np.stack([f.values(X) for f in fields], axis=1), u, config.step)
    return [float(np.max(np.abs(d - fd[..., k]))) for k, d in enumerate(analytic)]


def check_gradients(fields, u, config: OracleConfig | None = None) -> list:
    """Per field, the max-abs deviation between the analytic gradient and
    central differences of the value at ``u``, all on one stencil."""
    return _deviations(fields, u, config, "gradient", _fd_gradient)


def check_hessians(fields, u, config: OracleConfig | None = None) -> list:
    """Per field, the max-abs deviation between the analytic Hessian and
    second differences of the value at ``u``, all on one stencil."""
    return _deviations(fields, u, config, "hessian", _fd_hessian)


def check_gradient(f: ScalarField, u, config: OracleConfig | None = None) -> float:
    """Max-abs deviation between the analytic gradient and central
    differences of the value at ``u``. Requires analytic provenance."""
    return check_gradients([f], u, config)[0]


def check_hessian(f: ScalarField, u, config: OracleConfig | None = None) -> float:
    """Max-abs deviation between the analytic Hessian and second differences
    of the value at ``u``. Requires analytic provenance."""
    return check_hessians([f], u, config)[0]
