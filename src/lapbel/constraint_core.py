"""Scalar fields, constraint sets, adapted frames, and the general
ambient-coordinate Laplace-Beltrami evaluator.

A manifold is described implicitly as the level set of finitely many scalar
constraints on Euclidean space. Given a scalar field prolonged to the
ambient space, its Laplace-Beltrami value at an on-manifold point is the
trace of the tangentially projected Hessian minus a multiplier-weighted sum
of projected constraint Hessians; the multipliers and the projector come
from one reduced QR factorization of the constraint gradients. The operator
follows the trace sign convention: it is negative on sphere harmonics.

Points are taken exactly as given. Off-manifold points are rejected with
their residual, ill-conditioned frames are rejected with their condition
estimate, and nothing is projected or regularized behind the caller's back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numkit
from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    NumericalError,
    RegularityError,
)
from .numkit import DEFAULT_TOLERANCES, Tolerances, as_matrix, as_vector


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on R^m with first and second derivatives.

    ``provenance`` records where the derivatives come from: "analytic" for
    closed forms, "finite-difference(h=...)" for difference quotients, or
    another label for externally supplied data. Derivative-hygiene checks
    only accept analytic fields.

    ``constant_hessian`` declares that the Hessian does not depend on the
    point: it is built and checked once, on first use, and handed out
    read-only.

    ``values_fn`` optionally evaluates an (N, dim) stack of points at once,
    returning N values; each must have the same bits as ``value_fn`` on its
    row. Finite-difference stencils go through :meth:`values`.
    """

    dim: int
    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    hessian_fn: Callable[[np.ndarray], np.ndarray]
    provenance: str = "analytic"
    constant_hessian: bool = False
    values_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise DimensionError(f"ScalarField dim must be positive, got {self.dim}")

    @property
    def is_analytic(self) -> bool:
        return self.provenance == "analytic"

    def _check_point(self, u) -> np.ndarray:
        u = as_vector(u, "evaluation point")
        if u.size != self.dim:
            raise DimensionError(
                f"point has dimension {u.size}, field expects {self.dim}"
            )
        return u

    def value(self, u) -> float:
        u = self._check_point(u)
        val = float(self.value_fn(u))
        if not math.isfinite(val):
            raise DomainError("field value is not finite")
        return val

    def values(self, X) -> np.ndarray:
        """Unchecked values at the rows of an (N, dim) stack: ``values_fn``
        when the field has one, else ``value_fn`` row by row."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionError(
                f"point stack has shape {X.shape}, field expects (N, {self.dim})"
            )
        if self.values_fn is not None:
            return np.asarray(self.values_fn(X), dtype=float)
        return np.array([float(self.value_fn(x)) for x in X])

    def gradient(self, u) -> np.ndarray:
        u = self._check_point(u)
        return _stacked([self.gradient_fn(u)], (self.dim,), "gradient")[0]

    def hessian(self, u) -> np.ndarray:
        u = self._check_point(u)
        return _hessian_stack(self, (self,), u, self.constant_hessian)[0]

    # -- field arithmetic ---------------------------------------------------
    # Sums, scalar multiples, and products are themselves scalar fields with
    # exact derivative rules; they let callers build combinations such as
    # f + (F - c) * g without touching the callables by hand.

    def _combined_provenance(self, other: "ScalarField") -> str:
        if self.is_analytic and other.is_analytic:
            return "analytic"
        return self.provenance if not self.is_analytic else other.provenance

    def __add__(self, other):
        if isinstance(other, ScalarField):
            if other.dim != self.dim:
                raise DimensionError("field dimensions differ")
            f, g = self, other
            return ScalarField(
                dim=self.dim,
                value_fn=lambda u: f.value_fn(u) + g.value_fn(u),
                gradient_fn=lambda u: np.asarray(f.gradient_fn(u)) + np.asarray(g.gradient_fn(u)),
                hessian_fn=lambda u: np.asarray(f.hessian_fn(u)) + np.asarray(g.hessian_fn(u)),
                provenance=f._combined_provenance(g),
            )
        if isinstance(other, (int, float)):
            c = float(other)
            f = self
            return ScalarField(
                dim=self.dim,
                value_fn=lambda u: f.value_fn(u) + c,
                gradient_fn=f.gradient_fn,
                hessian_fn=f.hessian_fn,
                provenance=f.provenance,
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return self + (-other)
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            if other.dim != self.dim:
                raise DimensionError("field dimensions differ")
            f, g = self, other

            def prod_value(u):
                return f.value_fn(u) * g.value_fn(u)

            def prod_gradient(u):
                fv, gv = f.value_fn(u), g.value_fn(u)
                return gv * np.asarray(f.gradient_fn(u)) + fv * np.asarray(g.gradient_fn(u))

            def prod_hessian(u):
                fv, gv = f.value_fn(u), g.value_fn(u)
                fg = np.asarray(f.gradient_fn(u))
                gg = np.asarray(g.gradient_fn(u))
                cross = np.outer(fg, gg)
                return (
                    gv * np.asarray(f.hessian_fn(u))
                    + fv * np.asarray(g.hessian_fn(u))
                    + cross
                    + cross.T
                )

            return ScalarField(
                dim=self.dim,
                value_fn=prod_value,
                gradient_fn=prod_gradient,
                hessian_fn=prod_hessian,
                provenance=f._combined_provenance(g),
            )
        if isinstance(other, (int, float)):
            a = float(other)
            f = self
            return ScalarField(
                dim=self.dim,
                value_fn=lambda u: a * f.value_fn(u),
                gradient_fn=lambda u: a * np.asarray(f.gradient_fn(u)),
                hessian_fn=lambda u: a * np.asarray(f.hessian_fn(u)),
                provenance=f.provenance,
            )
        return NotImplemented

    __rmul__ = __mul__


def _stacked(arrays, shape: tuple, name: str) -> np.ndarray:
    """One float64 array stacking derivative arrays of the given shape,
    checked for finiteness once."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    for a in arrays:
        if a.shape != shape:
            raise DimensionError(f"{name} has shape {a.shape}, expected {shape}")
    out = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
    if not np.isfinite(out).all():
        raise DimensionError(f"{name} contains non-finite entries")
    return out


def _hessian_stack(owner, fields, u: np.ndarray, constant: bool) -> np.ndarray:
    """The Hessians of ``fields`` at ``u``, each checked finite and symmetric
    (scaled by its magnitude); a constant stack is kept read-only on ``owner``."""
    kept = owner.__dict__.get("_constant_hessians")
    if kept is not None:
        return kept
    dim = fields[0].dim
    Hs = _stacked([f.hessian_fn(u) for f in fields], (dim, dim), "hessian")
    numkit.require_symmetric(Hs, "hessian", "H")
    if constant:
        Hs.flags.writeable = False
        object.__setattr__(owner, "_constant_hessians", Hs)
    return Hs


def constant_field(dim: int, value: float) -> ScalarField:
    """The constant function on R^dim."""
    c = float(value)
    return ScalarField(
        dim=dim,
        value_fn=lambda u: c,
        gradient_fn=lambda u: np.zeros(dim),
        hessian_fn=lambda u: np.zeros((dim, dim)),
        constant_hessian=True,
    )


def linear_field(coefficients) -> ScalarField:
    """The linear function u -> <c, u>."""
    c = as_vector(coefficients, "coefficients")
    dim = c.size
    return ScalarField(
        dim=dim,
        value_fn=lambda u: float(c @ u),
        gradient_fn=lambda u: c.copy(),
        hessian_fn=lambda u: np.zeros((dim, dim)),
        constant_hessian=True,
    )


def _exponent_row(p, idx: int) -> np.ndarray:
    """Term ``idx``'s exponents as int64, refusing anything that is not a
    whole number int64 can hold (nothing is truncated or wrapped)."""
    try:
        raw = np.asarray(p)
        values = raw.astype(float)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"term {idx} has an exponent that is not a number") from exc
    if np.any(np.isnan(values) | (values != np.trunc(values))):
        raise ContractError(f"term {idx} has an exponent that is not an integer")
    if np.any(np.abs(values) >= 2.0**63):
        raise ContractError(f"term {idx} has an exponent too large for int64")
    return (raw if raw.dtype.kind in "iu" else values).astype(np.int64)


def _shifted(p: np.ndarray, *indices) -> np.ndarray:
    """A copy of exponent row ``p`` with one power taken off per index."""
    expo = p.copy()
    for i in indices:
        expo[i] -= 1
    return expo


def _stack_entries(entries: dict, dim: int):
    """Flatten ``{key: [(coef, expo_row), ...]}`` into one exponent table and
    per-key (key, start, stop, coefficients) slices into it."""
    rows, coefs, slices = [], [], []
    for key, contributions in entries.items():
        start = len(rows)
        for coef, expo in contributions:
            coefs.append(coef)
            rows.append(expo)
        slices.append((key, start, len(rows)))
    table = np.stack(rows) if rows else np.zeros((0, dim), dtype=np.int64)
    coef = np.asarray(coefs, dtype=float)
    return table, [(key, a, b, coef[a:b]) for key, a, b in slices]


def polynomial_field(dim: int, terms: Sequence) -> ScalarField:
    """A polynomial sum(coeff * prod(u_i ** powers_i)) with exact derivatives.

    ``terms`` is a sequence of (coeff, powers) pairs; each ``powers`` entry
    is a length-``dim`` sequence of non-negative integers.

    The derivative tables are built once here by walking each term's
    support: every gradient entry i and Hessian entry (i <= j) that some term
    reaches gets its contributing terms in term order, with coefficients
    C*p_i, C*p_i*(p_i - 1) or C*p_i*p_j and the shifted exponent rows. At a
    point, one monomial pass over the stacked rows feeds one dot per nonzero
    entry, so the cost scales with the sum of squared term supports, not
    with dim**2.
    """
    if dim <= 0:
        raise DimensionError("polynomial dim must be positive")
    coeffs = []
    powers = []
    for idx, term in enumerate(terms):
        try:
            c, p = term
        except (TypeError, ValueError) as exc:
            raise ContractError(f"term {idx} is not a (coeff, powers) pair") from exc
        p = _exponent_row(p, idx)
        if p.ndim != 1 or p.size != dim:
            raise DimensionError(
                f"term {idx} powers must have length {dim}, got shape {p.shape}"
            )
        if np.any(p < 0):
            raise ContractError(f"term {idx} has a negative exponent")
        coeffs.append(float(c))
        powers.append(p)
    if not coeffs:
        return constant_field(dim, 0.0)
    C = np.asarray(coeffs)
    P = np.stack(powers)  # (t, dim) exponent rows

    grad_entries: dict = {}
    hess_entries: dict = {}
    for c, p in zip(C, P):
        support = np.flatnonzero(p)
        for a, i in enumerate(support):
            ci = c * p[i]
            grad_entries.setdefault(i, []).append((ci, _shifted(p, i)))
            if p[i] >= 2:
                diagonal = (ci * (p[i] - 1), _shifted(p, i, i))
                hess_entries.setdefault((i, i), []).append(diagonal)
            for j in support[a + 1:]:
                hess_entries.setdefault((i, j), []).append((ci * p[j], _shifted(p, i, j)))
    grad_table, grad_slices = _stack_entries(grad_entries, dim)
    hess_table, hess_slices = _stack_entries(hess_entries, dim)

    def _monomials(u, expo):
        # numpy evaluates 0.0 ** 0 as 1.0, which is the convention needed here
        return np.prod(u[None, :] ** expo, axis=1)

    def value(u):
        return float(C @ _monomials(u, P))

    def gradient(u):
        g = np.zeros(dim)
        mono = _monomials(u, grad_table)
        for i, a, b, coef in grad_slices:
            g[i] = float(coef @ mono[a:b])
        return g

    def hessian(u):
        H = np.zeros((dim, dim))
        mono = _monomials(u, hess_table)
        for (i, j), a, b, coef in hess_slices:
            H[i, j] = H[j, i] = float(coef @ mono[a:b])
        return H

    constant = bool(np.all(P.sum(axis=1) <= 2))  # no term above degree 2
    return ScalarField(dim, value, gradient, hessian, constant_hessian=constant)


def block_product_field(
    dim: int, first: slice, second: slice, weight: float = 1.0
) -> ScalarField:
    """The quadratic form weight * <u[first], u[second]> on R^dim, for two
    coordinate blocks of equal length, with its constant Hessian: weight
    times the identity in blocks (first, second) and (second, first). The
    sphere and O(n) constraints are all of this form."""
    size = len(range(dim)[first])

    def value(u):
        return weight * float(u[first] @ u[second])

    def values(X):
        # stacked 1-by-s times s-by-1 products: the same ddot per row as value
        return weight * np.matmul(X[:, None, first], X[:, second, None])[:, 0, 0]

    def gradient(u):
        g = np.zeros(dim)
        if first == second:
            g[first] = (2.0 * weight) * u[first]
        else:
            g[first] = weight * u[second]
            g[second] = weight * u[first]
        return g

    def hessian(u):
        H = np.zeros((dim, dim))
        H[first, second] += weight * np.eye(size)
        H[second, first] += weight * np.eye(size)
        return H

    return ScalarField(
        dim, value, gradient, hessian, constant_hessian=True, values_fn=values
    )


# Stencil points evaluated per call: a (rows, m) stack never exceeds this many
# rows, so a whole Hessian stencil is one call up to m = 31 and memory stays
# bounded for wide fields.
_STENCIL_ROWS = 2048


def _stencil_values(values, u: np.ndarray, rows: int, moves) -> np.ndarray:
    """``values`` at ``rows`` copies of ``u``, where the (row, col, step)
    arrays ``moves``, sorted by row, add ``step`` to entry ``col`` of copy
    ``row``: each point has the bits the scalar ``p[col] += step`` gives on
    ``p = u.copy()``."""
    row, col, step = moves
    out = np.empty(rows)
    for a in range(0, rows, _STENCIL_ROWS):
        b = min(a + _STENCIL_ROWS, rows)
        lo, hi = np.searchsorted(row, (a, b))
        X = np.tile(u, (b - a, 1))
        X[row[lo:hi] - a, col[lo:hi]] += step[lo:hi]
        out[a:b] = values(X)
    return out


def _fd_gradient(values, u: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f(u + h e_i) - f(u - h e_i)) / 2h from one
    stencil: rows u + h e_i, then u - h e_i."""
    m = u.size
    moves = (np.arange(2 * m), np.tile(np.arange(m), 2), np.repeat((h, -h), m))
    f = _stencil_values(values, u, 2 * m, moves)
    return (f[:m] - f[m:]) / (2.0 * h)


def _fd_hessian(values, u: np.ndarray, h: float) -> np.ndarray:
    """Central second differences from one stencil: row u, rows u + h e_i,
    rows u - h e_i, then for each pair i < j the rows ++, +-, -+, --."""
    m = u.size
    i = np.arange(m)
    pi, pj = np.triu_indices(m, 1)
    pairs = pi.size
    moves = (
        np.concatenate([1 + np.arange(2 * m), np.repeat(1 + 2 * m + np.arange(4 * pairs), 2)]),
        np.concatenate([i, i, np.tile(np.stack([pi, pj], axis=1), 4).ravel()]),
        np.concatenate([np.repeat((h, -h), m), np.tile((h, h, h, -h, -h, h, -h, -h), pairs)]),
    )
    f = _stencil_values(values, u, 1 + 2 * m + 4 * pairs, moves)
    H = np.zeros((m, m))
    H[i, i] = (f[1 : m + 1] - 2.0 * f[0] + f[m + 1 : 2 * m + 1]) / (h * h)
    q = f[2 * m + 1 :].reshape(pairs, 4)
    H[pi, pj] = H[pj, pi] = (q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3]) / (4.0 * h * h)
    return H


def finite_difference_field(
    value_fn,
    dim: int,
    grad_step: float = 1e-5,
    hess_step: float = 1e-4,
) -> ScalarField:
    """Wrap a value-only function, or the values of a ScalarField, as a
    ScalarField with central-difference derivatives.

    The gradient uses step ``grad_step``, the Hessian ``hess_step``; the
    Hessian estimate is symmetrized. Provenance records the steps. A
    ScalarField source lends its ``values_fn``, so each stencil is one call.
    """
    if dim <= 0:
        raise DimensionError("finite_difference_field dim must be positive")
    if not (grad_step > 0 and hess_step > 0):
        raise ContractError("finite-difference steps must be positive")
    values_fn = None
    if isinstance(value_fn, ScalarField):
        value_fn, values_fn = value_fn.value_fn, value_fn.values_fn

    def gradient(u):
        return _fd_gradient(field.values, u, grad_step)

    def hessian(u):
        H = _fd_hessian(field.values, u, hess_step)
        return (H + H.T) / 2.0

    field = ScalarField(
        dim=dim,
        value_fn=lambda u: float(value_fn(u)),
        gradient_fn=gradient,
        hessian_fn=hessian,
        provenance=f"finite-difference(h={grad_step:g},{hess_step:g})",
        values_fn=values_fn,
    )
    return field


@dataclass(frozen=True)
class ConstraintSet:
    """Finitely many scalar constraints and the regular value cutting out
    the manifold ``{u : fields[a](u) = regular_value[a] for all a}``.

    Values, gradients and Hessians are evaluated for all constraints at once
    and checked once per call; a stack of constant Hessians is built once.
    """

    ambient_dim: int
    fields: tuple
    regular_value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(
            self, "regular_value", as_vector(self.regular_value, "regular_value")
        )
        k = len(self.fields)
        if k == 0:
            raise DimensionError("ConstraintSet needs at least one constraint")
        if k >= self.ambient_dim:
            raise DimensionError(
                f"ConstraintSet has {k} constraints in dimension {self.ambient_dim}; "
                "need fewer constraints than ambient dimensions"
            )
        if self.regular_value.size != k:
            raise DimensionError(
                f"regular_value has length {self.regular_value.size}, expected {k}"
            )
        for a, f in enumerate(self.fields):
            if not isinstance(f, ScalarField):
                raise ContractError(f"constraint {a} is not a ScalarField")
            if f.dim != self.ambient_dim:
                raise DimensionError(
                    f"constraint {a} has dimension {f.dim}, expected {self.ambient_dim}"
                )

    @property
    def count(self) -> int:
        return len(self.fields)

    def _check_point(self, u) -> np.ndarray:
        u = as_vector(u, "point")
        if u.size != self.ambient_dim:
            raise DimensionError(
                f"point has dimension {u.size}, constraints expect {self.ambient_dim}"
            )
        return u

    def residuals(self, u) -> np.ndarray:
        u = self._check_point(u)
        # a constraint that overflows at a huge point gives a non-finite
        # residual, which on_manifold refuses, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.array([float(f.value_fn(u)) for f in self.fields])
            return values - self.regular_value

    def jacobian(self, u) -> np.ndarray:
        """The k-by-m matrix whose row a is the gradient of constraint a."""
        u = self._check_point(u)
        return _stacked([f.gradient_fn(u) for f in self.fields], (u.size,), "gradient")

    def gradients(self, u) -> list:
        return list(self.jacobian(u))

    def hessians(self, u) -> np.ndarray:
        """The k-by-m-by-m stack of constraint Hessians at ``u``."""
        u = self._check_point(u)
        constant = all(f.constant_hessian for f in self.fields)
        return _hessian_stack(self, self.fields, u, constant)


@dataclass(frozen=True)
class AdaptedFrame:
    """A tangent-frame provider: point -> matrix whose columns span the
    tangent space of the constraint manifold at that point."""

    provider: Callable[[np.ndarray], np.ndarray]

    def at(self, u) -> np.ndarray:
        u = as_vector(u, "frame point")
        T = as_matrix(self.provider(u), "frame matrix")
        if T.shape[0] != u.size:
            raise DimensionError(
                f"frame has {T.shape[0]} rows, expected {u.size}"
            )
        if T.shape[1] >= T.shape[0]:
            raise DimensionError(
                f"frame must have fewer columns than rows, got {T.shape}"
            )
        return T


class OnManifoldCheck(NamedTuple):
    ok: bool
    residual: float


def on_manifold(
    constraints: ConstraintSet, u, tol: float | None = None
) -> OnManifoldCheck:
    """Whether ``u`` satisfies every constraint to tolerance.

    Returns the boolean verdict together with the max-abs residual, which
    is inf or nan (and the verdict False) where a constraint overflows.
    """
    tol = DEFAULT_TOLERANCES.on_manifold if tol is None else tol
    res = constraints.residuals(u)
    residual = float(np.max(np.abs(res)))
    return OnManifoldCheck(ok=residual <= tol, residual=residual)


def lagrange_multipliers(
    constraints: ConstraintSet, f: ScalarField, u
) -> np.ndarray:
    """Multiplier vector sigma solving Gram(∇F,∇F) sigma = column(<∇F,∇f>).

    Defined at any ambient point where the constraint gradients are
    independent, as R^{-1} Q^t ∇f with J^t = QR; linear in ``f``. Dependent
    gradients raise RegularityError.
    """
    Q, R = _gradient_qr(constraints.jacobian(u))
    return np.linalg.solve(R, Q.T @ f.gradient(u))


@dataclass(frozen=True)
class LaplacianReport:
    """Assembled Laplace-Beltrami evaluation with its diagnostics.

    ``value`` always equals ``trace_main - sigma @ trace_constraint`` as
    stored, because :meth:`assemble` computes it from those parts, and every
    number is finite: :meth:`assemble` raises NumericalError otherwise.
    """

    value: float
    sigma: np.ndarray
    trace_main: float
    trace_constraint: np.ndarray
    frame_gram_condition: float

    @classmethod
    def assemble(
        cls, trace_main: float, sigma, trace_constraint, frame_gram_condition: float
    ) -> "LaplacianReport":
        if not all(np.isfinite(part).all() for part in (trace_main, sigma, trace_constraint)):
            raise NumericalError("the evaluation overflowed: sigma or a trace is not finite")
        sigma = as_vector(sigma, "sigma")
        trace_constraint = as_vector(trace_constraint, "trace_constraint")
        if sigma.size != trace_constraint.size:
            raise DimensionError(
                "sigma and trace_constraint must have matching lengths"
            )
        value = float(trace_main) - float(np.dot(sigma, trace_constraint))
        if not math.isfinite(value):
            raise NumericalError("the evaluation overflowed: the value is not finite")
        return cls(
            value=value,
            sigma=sigma,
            trace_main=float(trace_main),
            trace_constraint=trace_constraint,
            frame_gram_condition=float(frame_gram_condition),
        )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "sigma": [float(s) for s in self.sigma],
            "trace_main": self.trace_main,
            "trace_constraint": [float(t) for t in self.trace_constraint],
            "frame_gram_condition": self.frame_gram_condition,
        }


def laplace_beltrami_general(
    f: ScalarField,
    constraints: ConstraintSet,
    frame: AdaptedFrame | None,
    u,
    tols: Tolerances | None = None,
) -> LaplacianReport:
    """Laplace-Beltrami value of ``f`` restricted to the constraint manifold,
    evaluated at the on-manifold point ``u``.

    The value is the projected Hessian trace minus the multiplier-weighted
    projected constraint Hessian traces. The constraint Jacobian is evaluated
    once per point, and its reduced QR J^t = QR gives the multipliers
    R^{-1} Q^t ∇f. With ``frame`` None every trace is tr H - <Q, H Q>_F and
    the frame Gram condition is 1; an explicit frame T gives tr(T+ H T),
    with T+ its left Moore-Penrose inverse. Off-manifold points raise
    DomainError with the residual; ill-conditioned frame Grams raise
    SingularityError.
    """
    tols = DEFAULT_TOLERANCES if tols is None else tols
    u = as_vector(u, "point")
    if f.dim != constraints.ambient_dim or u.size != constraints.ambient_dim:
        raise DimensionError(
            "field, constraints, and point must share one ambient dimension"
        )
    check = on_manifold(constraints, u, tols.on_manifold)
    if not check.ok:
        raise DomainError(
            f"point is off the manifold: residual {check.residual:.6g} exceeds "
            f"tolerance {tols.on_manifold:.6g}",
            residual=check.residual,
        )
    Q, R = _gradient_qr(constraints.jacobian(u))
    sigma = np.linalg.solve(R, Q.T @ f.gradient(u))
    if frame is None:
        cond = 1.0

        def projected_trace(H):
            return np.trace(H, axis1=-2, axis2=-1) - np.sum(Q * (H @ Q), axis=(-2, -1))

    else:
        T = frame.at(u)
        m, r = T.shape
        if r != m - constraints.count:
            raise DimensionError(
                f"frame supplies {r} tangent directions, expected "
                f"{m - constraints.count} (ambient {m} minus {constraints.count} constraints)"
            )
        T_plus, cond = numkit.frame_pseudo_inverse(T, tols.condition_limit)

        def projected_trace(H):
            return np.trace(T_plus @ H @ T, axis1=-2, axis2=-1)

    trace_main = float(projected_trace(f.hessian(u)))
    trace_constraint = projected_trace(constraints.hessians(u))
    return LaplacianReport.assemble(trace_main, sigma, trace_constraint, cond)


def _gradient_qr(J: np.ndarray, mode: str = "reduced") -> tuple[np.ndarray, np.ndarray]:
    """QR of the gradient columns J^t (``mode`` as for np.linalg.qr); a
    diagonal entry of R below 1e-12 times max(1, max |J|) raises
    RegularityError."""
    k = J.shape[0]
    Q, R = np.linalg.qr(J.T, mode=mode)
    diag = np.abs(np.diag(R[:k, :k]))
    scale = max(1.0, float(np.max(np.abs(J))))
    if np.any(diag < 1e-12 * scale):
        raise RegularityError("constraint gradients are rank deficient at this point")
    return Q, R


def qr_nullspace_frame(constraints: ConstraintSet) -> AdaptedFrame:
    """Adapted frame built numerically from the constraint gradients.

    At each point the gradients are stacked as columns and QR-factored in
    complete mode; the trailing orthonormal columns span the tangent space.
    Rank-deficient gradients raise RegularityError.
    """
    return AdaptedFrame(
        provider=lambda u: _gradient_qr(constraints.jacobian(u), "complete")[0][:, constraints.count :]
    )
