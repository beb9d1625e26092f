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

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numkit
from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    LapbelError,
    NumericalError,
    RegularityError,
)
from .numkit import DEFAULT_TOLERANCES, Frozen, Tolerances, as_matrix, as_vector


class ScalarField(Frozen):
    """A scalar function on R^m with first and second derivatives.

    ``provenance`` records where the derivatives come from: "analytic" for
    closed forms, "finite-difference(h=...)" for difference quotients, or
    another label for externally supplied data. Derivative-hygiene checks
    only accept analytic fields.

    Each derivative is stored in stacked form (``values_fn``,
    ``gradients_fn``, ``hessians_fn``: a C-ordered (N, dim) stack in, N
    values, (N, dim) gradients or (N, dim, dim) Hessians out). A derivative
    given in per-point form instead (``value_fn``, ``gradient_fn``,
    ``hessian_fn``) is lifted once, here, into the stacked form that calls
    it row by row and checks each row's shape. A field given neither or both
    forms of some derivative is refused with ContractError. The stacks come
    back C-ordered (a stacked dot sums a strided row in another order than
    the one-row case), except that a derivative that is one array at every
    point may come back as a read-only broadcast view of it, row stride 0
    (:func:`_repeated`). Finite-difference stencils go through
    :meth:`values`, the general evaluator through :meth:`gradients` and
    :meth:`hessians`; the one-point methods are their one-row cases.
    """

    def __init__(
        self,
        dim: int,
        value_fn: Callable[[np.ndarray], float] | None = None,
        gradient_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        hessian_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        provenance: str = "analytic",
        values_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        gradients_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        hessians_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if dim <= 0:
            raise DimensionError(f"ScalarField dim must be positive, got {dim}")
        vars(self).update(
            dim=dim,
            provenance=provenance,
            values_fn=_lifted(value_fn, values_fn, "value", ()),
            gradients_fn=_lifted(gradient_fn, gradients_fn, "gradient", (dim,)),
            hessians_fn=_lifted(hessian_fn, hessians_fn, "hessian", (dim, dim)),
        )

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
        val = float(self.values(self._check_point(u)[None])[0])
        if not math.isfinite(val):
            raise DomainError("field value is not finite")
        return val

    def _check_stack(self, X) -> np.ndarray:
        # C order: a stacked dot over strided rows rounds differently from
        # the unit-stride dot of one point
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionError(
                f"point stack has shape {X.shape}, field expects (N, {self.dim})"
            )
        return np.ascontiguousarray(X)

    def values(self, X) -> np.ndarray:
        """N values at the rows of an (N, dim) stack, shape-checked but not checked finite."""
        X = self._check_stack(X)
        return _shaped(self.values_fn(X), X.shape[:1], "value stack")

    def gradients(self, X) -> np.ndarray:
        """(N, dim) gradients at the rows of an (N, dim) stack, shape-checked
        but not checked finite."""
        X = self._check_stack(X)
        return _shaped(self.gradients_fn(X), X.shape, "gradient stack")

    def hessians(self, X) -> np.ndarray:
        """(N, dim, dim) Hessians at the rows of an (N, dim) stack, like :meth:`gradients`."""
        X = self._check_stack(X)
        return _shaped(self.hessians_fn(X), (len(X), self.dim, self.dim), "hessian stack")

    def gradient(self, u) -> np.ndarray:
        g = self.gradients(self._check_point(u)[None])
        return _writable(_finite(g, "gradient")[0])

    def hessian(self, u) -> np.ndarray:
        return _writable(_hessians_at((self,), self._check_point(u)[None])[0, 0])

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
                provenance=f._combined_provenance(g),
                values_fn=lambda X: f.values(X) + g.values(X),
                gradients_fn=lambda X: f.gradients(X) + g.gradients(X),
                hessians_fn=lambda X: f.hessians(X) + g.hessians(X),
            )
        if isinstance(other, (int, float)):
            c = float(other)
            f = self
            return ScalarField(
                dim=self.dim,
                provenance=f.provenance,
                values_fn=lambda X: f.values(X) + c,
                gradients_fn=f.gradients,
                hessians_fn=f.hessians,
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

            def gradients(X):
                fv, gv = f.values(X)[:, None], g.values(X)[:, None]
                return gv * f.gradients(X) + fv * g.gradients(X)

            def hessians(X):
                fv, gv = f.values(X)[:, None, None], g.values(X)[:, None, None]
                cross = f.gradients(X)[:, :, None] * g.gradients(X)[:, None, :]
                return gv * f.hessians(X) + fv * g.hessians(X) + cross + np.swapaxes(cross, 1, 2)

            return ScalarField(
                dim=self.dim,
                provenance=f._combined_provenance(g),
                values_fn=lambda X: f.values(X) * g.values(X),
                gradients_fn=gradients,
                hessians_fn=hessians,
            )
        if isinstance(other, (int, float)):
            a = float(other)
            f = self
            return ScalarField(
                dim=self.dim,
                provenance=f.provenance,
                values_fn=lambda X: a * f.values(X),
                gradients_fn=lambda X: a * f.gradients(X),
                hessians_fn=lambda X: a * f.hessians(X),
            )
        return NotImplemented

    __rmul__ = __mul__


def _lifted(one, stacked, form: str, shape: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """A derivative's stacked form: ``stacked``, or the per-point form ``one``
    called on each row, each result refused unless it has the given shape;
    refused with ContractError when the field has neither form or both."""
    if (one is None) == (stacked is None):
        both = "" if one is None else ", not both"
        raise ContractError(f"ScalarField needs {form}_fn or {form}s_fn{both}")
    return stacked if one is None else lambda X: _stacked(map(one, X), len(X), shape, form)


def _writable(a: np.ndarray) -> np.ndarray:
    """``a``, or a copy of it when it is a read-only view (of a broadcast)."""
    return a if a.flags.writeable else a.copy()


def _shaped(a, shape: tuple, name: str) -> np.ndarray:
    """``a`` as a C-ordered float64 array, refused unless it has the given
    shape (None, which numpy reads as nan, is refused); a scalar stays 0-d,
    and an array whose rows repeat one (row stride 0) stays a view."""
    if a is None:
        raise DimensionError(f"{name} is None, expected shape {shape}")
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise DimensionError(f"{name} has shape {a.shape}, expected {shape}")
    return a if a.ndim == 0 or a.strides[0] == 0 else np.ascontiguousarray(a)


def _stacked(arrays, count: int, shape: tuple, name: str) -> np.ndarray:
    """One float64 array of the ``count`` arrays of the given shape that
    ``arrays`` yields, each copied in as it comes (a single one is not)."""
    arrays = (_shaped(a, shape, name) for a in arrays)
    if count == 1:
        return next(arrays)[None]
    return np.fromiter(arrays, (float, shape), count)


def _nonfinite(A: np.ndarray) -> np.ndarray:
    """Mask of the rows of the stack ``A`` that hold a non-finite entry."""
    return ~np.isfinite(A).all(axis=tuple(range(1, A.ndim)))


def _finite(A: np.ndarray, name: str) -> np.ndarray:
    """The stack ``A``, refusing each row that holds a non-finite entry with
    DimensionError (see :func:`numkit.refuse_rows`)."""
    message = f"{name} contains non-finite entries"
    numkit.refuse_rows((_nonfinite(A), lambda i: DimensionError(message)))
    return A


def _refuse_all(rows: int, message: str) -> None:
    """Refuse every one of ``rows`` rows with DimensionError(message)."""
    numkit.refuse_rows((np.ones(rows, dtype=bool), lambda i: DimensionError(message)))


def _hessians_at(fields, X: np.ndarray) -> np.ndarray:
    """The (N, k, m, m) Hessians of ``fields`` at the rows of X, checked by
    :func:`_checked_hessians`."""
    if len(fields) == 1:
        return _checked_hessians(fields[0].hessians(X)[:, None])
    H = np.empty((len(X), len(fields)) + X.shape[1:] * 2)  # no second copy of the stack
    for a, field in enumerate(fields):
        H[:, a] = field.hessians(X)
    return _checked_hessians(H)


def _checked_hessians(H: np.ndarray) -> np.ndarray:
    """The (N, k, m, m) Hessians H, refusing a row with DimensionError for a
    non-finite entry, else with the ContractError naming the first asymmetric
    one (scaled)."""
    # a broadcast stack (stride 0 across rows) repeats one matrix: check it once
    one = H[:1] if H.strides[0] == 0 else H
    row = np.arange(len(H)) if one is H else np.zeros(len(H), dtype=np.intp)
    asymmetric, error = numkit.symmetry_check(one, "hessian", "H")
    numkit.refuse_rows(
        (_nonfinite(one)[row], lambda i: DimensionError("hessian contains non-finite entries")),
        (asymmetric[row], lambda i: error(row[i])),
    )
    return H


def _repeated(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The stacked form of a derivative that is the array ``A`` at every
    point: a read-only view of ``A`` repeated once per row of the stack."""
    return lambda X: np.broadcast_to(A, (len(X),) + A.shape)


def constant_field(dim: int, value: float) -> ScalarField:
    """The constant function on R^dim."""
    c = float(value)
    return ScalarField(
        dim,
        values_fn=lambda X: np.full(len(X), c),
        gradients_fn=_repeated(np.zeros(dim)),
        hessians_fn=_repeated(np.zeros((dim, dim))),
    )


def linear_field(coefficients) -> ScalarField:
    """The linear function u -> <c, u>."""
    c = as_vector(coefficients, "coefficients")
    dim = c.size
    return ScalarField(
        dim,
        # stacked 1-by-dim times dim-by-1 products: the ddot of c @ u per row
        values_fn=lambda X: np.matmul(X[:, None], c[:, None])[:, 0, 0],
        gradients_fn=_repeated(c),
        hessians_fn=_repeated(np.zeros((dim, dim))),
    )


def _exponent_row(p, idx: int) -> np.ndarray:
    """Term ``idx``'s exponents as int64, refusing anything that is not a
    whole number int64 can hold (nothing is truncated or wrapped)."""
    try:
        raw = np.asarray(p)
        if raw.dtype.kind == "i":  # signed integers: only other input takes the float checks
            return raw.astype(np.int64)
        values = raw.astype(float)
    except OverflowError:  # an integer beyond the double range: too large below
        values = np.array([math.inf])
    except (TypeError, ValueError) as exc:
        raise ContractError(f"term {idx} has an exponent that is not a number") from exc
    if np.any(np.isnan(values) | (values != np.trunc(values))):
        raise ContractError(f"term {idx} has an exponent that is not an integer")
    if np.any(np.abs(values) >= 2.0**63):
        raise ContractError(f"term {idx} has an exponent too large for int64")
    return (raw if raw.dtype.kind in "iu" else values).astype(np.int64)


def _entry_table(keys: np.ndarray, coefs: np.ndarray, P: np.ndarray, terms, *taken) -> tuple:
    """Contributions sorted by entry key, in term order within each entry:
    the distinct keys, the exponent table (row k is P[terms[k]] less one
    power at each taken[.][k]) and per key a (start, stop, coefs) slice."""
    # Python's stable sort: numpy's stable argsort pages in code nothing else runs
    order = np.array(sorted(range(len(keys)), key=keys.tolist().__getitem__), dtype=np.intp)
    keys, coefs, table = keys[order], coefs[order], P[terms[order]]
    for cols in taken:
        table[np.arange(len(table)), cols[order]] -= 1
    bounds = np.flatnonzero(np.append(-1, keys) != np.append(keys, -1)).tolist()
    return keys[bounds[:-1]], table, [(a, b, coefs[a:b]) for a, b in zip(bounds, bounds[1:])]


def polynomial_field(dim: int, terms: Sequence) -> ScalarField:
    """A polynomial sum(coeff * prod(u_i ** powers_i)) with exact derivatives.

    ``terms`` is a sequence of (coeff, powers) pairs; each ``powers`` entry
    is a length-``dim`` sequence of non-negative integers.

    The derivative tables are built once here, as arrays over each term's
    support entries and their pairs within the term: every gradient entry i
    and Hessian entry (i <= j) that some term reaches gets its contributing
    terms in term order, with coefficients C*p_i and C*p_i*(p_j - [i = j])
    and the shifted exponent rows; a coefficient that overflows refuses the
    earliest term it comes from. The derivatives come in stacked form only:
    one monomial pass over a chunk of rows feeds one dot per nonzero entry,
    so the cost scales with the sum of squared term supports, not dim**2.
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

    # support entries e = (term t, variable i, power p_i) in term order, and the
    # pairs e <= f within a term: pair (i, j) adds C p_i (p_j - [i = j]) to H_ij
    t, i = np.nonzero(P)
    p = P[t, i]
    later = np.searchsorted(t, t, "right") - np.arange(len(t))
    first = np.repeat(np.arange(len(t)), later)
    second = first + np.arange(len(first)) - np.searchsorted(first, first)
    factor = p[second] - (first == second)
    with np.errstate(over="ignore", invalid="ignore"):
        grad_coef = C[t] * p
        hess_coef = grad_coef[first] * factor
    # each gradient coefficient C p_i is the first factor of its own pair
    # (e, e), so one mask over the pairs finds the earliest term that overflows
    bad = ~np.isfinite(hess_coef)
    if bad.any():
        idx = int(t[first[bad.argmax()]])
        raise ContractError(
            f"term {idx} (coeff {C[idx]:g}, powers {P[idx].tolist()}) has a "
            "derivative coefficient that overflows"
        )
    # a pair i = j with p_i = 1 contributes nothing
    first, second, hess_coef = (a[factor > 0] for a in (first, second, hess_coef))
    grad_keys, grad_table, grad_slices = _entry_table(i, grad_coef, P, t, i)
    hess_keys, hess_table, hess_slices = _entry_table(
        i[first] * dim + i[second], hess_coef, P, t[first], i[first], i[second]
    )
    hess_i, hess_j = np.divmod(hess_keys, dim)

    def _monomials(X, expo):
        # numpy evaluates 0.0 ** 0 as 1.0, which is the convention needed here
        return np.prod(X[:, None, :] ** expo, axis=-1)

    def _stacked_dots(X, table, slices):
        # (N, entries): per chunk of rows one monomial pass, then per entry
        # one stacked 1-by-L times L-by-1 product, the ddot of one row's
        # ``coef @ mono[a:b]`` on every row, whatever the chunk
        out = np.empty((len(X), len(slices)))
        for rows in _chunks(len(X), 8 * table.size):
            M = _monomials(X[rows], table)
            for e, (a, b, coef) in enumerate(slices):
                out[rows, e] = np.matmul(M[:, None, a:b], coef[:, None])[:, 0, 0]
        return out

    def values(X):
        return _stacked_dots(X, P, [(0, len(C), C)])[:, 0]

    def gradients(X):
        G = np.zeros(X.shape)
        G[:, grad_keys] = _stacked_dots(X, grad_table, grad_slices)
        return G

    def hessians(X):
        H = np.zeros((len(X), dim, dim))
        entries = _stacked_dots(X, hess_table, hess_slices)
        H[:, hess_i, hess_j] = entries
        H[:, hess_j, hess_i] = entries
        return H

    return ScalarField(dim, values_fn=values, gradients_fn=gradients, hessians_fn=hessians)


def block_product_field(
    dim: int, first: slice, second: slice, weight: float = 1.0
) -> ScalarField:
    """The quadratic form weight * <u[first], u[second]> on R^dim, for two
    coordinate blocks of equal length, with its constant Hessian: weight
    times the identity in blocks (first, second) and (second, first). The
    constraints of a :class:`BlockProductSet` are all of this form."""
    size = len(range(dim)[first])

    def values(X):
        # stacked 1-by-s times s-by-1 products: the ddot of u[first] @ u[second] per row
        return weight * np.matmul(X[:, None, first], X[:, second, None])[:, 0, 0]

    def gradients(X):
        G = np.zeros(X.shape)
        if first == second:
            G[:, first] = (2.0 * weight) * X[:, first]
        else:
            G[:, first] = weight * X[:, second]
            G[:, second] = weight * X[:, first]
        return G

    def hessian(u):
        H = np.zeros((dim, dim))
        H[first, second] += weight * np.eye(size)
        H[second, first] += weight * np.eye(size)
        return H

    # a stacked Hessian would be dense: it is written per point, and lifted
    return ScalarField(dim, hessian_fn=hessian, values_fn=values, gradients_fn=gradients)


# Bytes the largest arrays of one stacked pass may take: the Hessian stacks in
# evaluate_points (a few times as much again goes to Jacobians, frames and
# temporaries), the monomials of polynomial stacked forms, the stencil points.
_CHUNK_BYTES = 1 << 20


def _chunks(rows: int, row_bytes: int) -> list:
    """Slices covering range(rows), each of at most _CHUNK_BYTES // row_bytes
    rows and at least one."""
    step = max(1, _CHUNK_BYTES // max(1, row_bytes))
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


def _stencil_values(values, u: np.ndarray, rows: int, moves) -> np.ndarray:
    """``values`` at ``rows`` copies of ``u``, where the (row, col, step)
    arrays ``moves``, sorted by row, add ``step`` to entry ``col`` of copy
    ``row``: each point has the bits the scalar ``p[col] += step`` gives on
    ``p = u.copy()``. ``values`` may give a column of values per field."""
    row, col, step = moves
    out = []
    for chunk in _chunks(rows, 8 * u.size):
        a, b = chunk.start, chunk.stop
        lo, hi = np.searchsorted(row, (a, b))
        X = np.tile(u, (b - a, 1))
        X[row[lo:hi] - a, col[lo:hi]] += step[lo:hi]
        out.append(values(X))
    return np.concatenate(out)


def _fd_gradient(values, u: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f(u + h e_i) - f(u - h e_i)) / 2h from one
    stencil: rows u + h e_i, then u - h e_i; a column per field where
    ``values`` gives one, each with the bits of that field alone."""
    m = u.size
    moves = (np.arange(2 * m), np.tile(np.arange(m), 2), np.repeat((h, -h), m))
    f = _stencil_values(values, u, 2 * m, moves)
    return (f[:m] - f[m:]) / (2.0 * h)


def _fd_hessian(values, u: np.ndarray, h: float) -> np.ndarray:
    """Central second differences from one stencil: row u, rows u + h e_i,
    rows u - h e_i, then for each pair i < j the rows ++, +-, -+, --; a
    column per field as in :func:`_fd_gradient`."""
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
    H = np.zeros((m, m) + f.shape[1:])
    H[i, i] = (f[1 : m + 1] - 2.0 * f[0] + f[m + 1 : 2 * m + 1]) / (h * h)
    q = f[2 * m + 1 :].reshape((pairs, 4) + f.shape[1:])
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
    ScalarField source lends its ``values_fn``, so each stencil is one call;
    a function is lifted row by row as the constructor lifts a ``value_fn``.
    """
    if dim <= 0:
        raise DimensionError("finite_difference_field dim must be positive")
    if not (grad_step > 0 and hess_step > 0):
        raise ContractError("finite-difference steps must be positive")
    values_fn = None
    if isinstance(value_fn, ScalarField):
        value_fn, values_fn = None, value_fn.values_fn

    def gradient(u):
        return _fd_gradient(field.values, u, grad_step)

    def hessian(u):
        H = _fd_hessian(field.values, u, hess_step)
        return (H + H.T) / 2.0

    field = ScalarField(
        dim=dim,
        value_fn=value_fn,
        gradient_fn=gradient,
        hessian_fn=hessian,
        provenance=f"finite-difference(h={grad_step:g},{hess_step:g})",
        values_fn=values_fn,
    )
    return field


class ConstraintSet(Frozen):
    """Finitely many scalar constraints and the regular value cutting out
    the manifold ``{u : fields[a](u) = regular_value[a] for all a}``.

    Values, gradients and Hessians are evaluated for all constraints at once
    and checked once per call.
    """

    def __init__(self, ambient_dim: int, fields: tuple, regular_value: np.ndarray):
        vars(self).update(ambient_dim=ambient_dim, fields=fields, regular_value=regular_value)
        self.__post_init__()

    def __post_init__(self):
        """Normalize and check the stored fields; a method of its own, so
        the benchmark's span tracer sees every constraint set built."""
        vars(self).update(
            fields=tuple(self.fields),
            regular_value=as_vector(self.regular_value, "regular_value"),
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
        return self.residuals_at(self._check_point(u)[None])[0]

    def residuals_at(self, X) -> np.ndarray:
        """The (N, k) residuals at the rows of an (N, m) stack, from each
        field's :meth:`ScalarField.values`."""
        # a constraint that overflows at a huge point gives a non-finite
        # residual, which admission refuses, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([f.values(X) for f in self.fields], axis=1) - self.regular_value

    def jacobian(self, u) -> np.ndarray:
        """The k-by-m matrix whose row a is the gradient of constraint a."""
        return _finite(self.jacobians_at(self._check_point(u)[None]), "gradient")[0]

    def jacobians_at(self, X) -> np.ndarray:
        """The (N, k, m) Jacobians at the rows of an (N, m) stack, from each
        field's :meth:`ScalarField.gradients`, not checked finite."""
        return np.stack([f.gradients(X) for f in self.fields], axis=1)

    def projected_traces(self, X: np.ndarray, Q: np.ndarray, normal: bool) -> np.ndarray:
        """Per row of X, the k traces :func:`_projected_traces` gives on the
        constraint Hessians, which :func:`_hessians_at` checks."""
        return _projected_traces(_hessians_at(self.fields, X), Q, normal)


class BlockProductSet(ConstraintSet):
    """Constraints w <u[b], u[c]>, one per (b, c, w) in ``products``, on
    blocks u[b*s : (b+1)*s] of s = ``block`` coordinates, as
    :func:`block_product_set` builds them: the sphere and O(n). Their
    Hessians w (E_bc + E_cb) kron I_s give every projected trace from inner
    products of frame blocks, with no Hessian built."""

    def __init__(self, ambient_dim: int, fields: tuple, regular_value, block: int, products: tuple):
        vars(self).update(block=block, products=products)
        super().__init__(ambient_dim, fields, regular_value)

    @functools.cached_property
    def _arrays(self) -> tuple:
        """b, c, w as arrays, and per entry of the Jacobian scatter its
        constraint, target block, source block and factor: w u_c into block
        b and w u_b into block c, or 2w u_b into block b when b = c."""
        b, c, w = (np.array(v) for v in zip(*self.products))
        pair = np.flatnonzero(b != c)
        factor = np.concatenate([np.where(b == c, 2.0 * w, w), w[pair]])[:, None]
        return b, c, w, (np.r_[np.arange(len(b)), pair], np.r_[b, c[pair]], np.r_[c, b[pair]], factor)

    def _blocks(self, X) -> np.ndarray:
        """The (N, m / s, s) stack whose row b is block b of a row of the
        (N, m) stack X, refused as each field refuses a stack of another shape."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.ambient_dim:
            raise DimensionError(f"point stack has shape {X.shape}, field expects (N, {self.ambient_dim})")
        return X.reshape(len(X), self.ambient_dim // self.block, self.block)

    def residuals_at(self, X) -> np.ndarray:
        """The residuals in one stacked 1-by-s times s-by-1 product per row
        and constraint, with the bits of each field's ddot u_b . u_c."""
        b, c, w, _ = self._arrays
        B = self._blocks(X)
        with np.errstate(over="ignore", invalid="ignore"):
            return w * np.matmul(B[:, b, None, :], B[:, c, :, None])[:, :, 0, 0] - self.regular_value

    def jacobians_at(self, X) -> np.ndarray:
        """The Jacobians in one scatter, with the bits of each field's gradients."""
        constraint, target, source, factor = self._arrays[3]
        B = self._blocks(X)
        J = np.zeros((len(B), self.count) + B.shape[1:])
        J[:, constraint, target] = factor * B[:, source]
        return J.reshape(len(B), self.count, self.ambient_dim)

    def projected_traces(self, X: np.ndarray, Q: np.ndarray, normal: bool) -> np.ndarray:
        """The traces from the blocks, nothing refused: with Q spanning the
        tangent space, tr(Q^t H Q) = w (<Q_b, Q_c>_F + <Q_c, Q_b>_F); with Q
        spanning the normal space, 2 s w [b = c] minus that."""
        b, c, w, _ = self._arrays
        # row b of each (N, m / s, s * cols) view holds block b
        B = Q.reshape(len(X), self.ambient_dim // self.block, self.block * Q.shape[2])
        G = B @ np.swapaxes(B, 1, 2)
        traces = w * (G[:, b, c] + G[:, c, b])
        if normal:
            traces = 2.0 * self.block * w * (b == c) - traces
        # G[:, b, c] leaves the rows strided, and the ddot of the assembly
        # rounds a strided row differently from a contiguous one
        return np.ascontiguousarray(traces)


def block_product_set(ambient_dim: int, block: int, products, regular_value) -> BlockProductSet:
    """The :class:`BlockProductSet` of the (b, c, w) ``products`` on blocks of
    ``block`` coordinates of R^ambient_dim."""
    blocks = [slice(b * block, (b + 1) * block) for b in range(ambient_dim // block)]
    fields = [block_product_field(ambient_dim, blocks[b], blocks[c], w) for b, c, w in products]
    return BlockProductSet(ambient_dim, tuple(fields), regular_value, block, tuple(products))


# Rules for V(s, p): p orthonormal columns of s coordinates, (N, s, p) stacks U with U^t U = R^2 I
# and norm constraints of weight w; the sphere (p = 1, w = 1) and O(n) (p = n, w = 1/2, R = 1).


def _admit_blocks(U: np.ndarray, radius: float, tol: float, what: str) -> None:
    """Refuse each matrix of U (finite) where r = max |U^t U - R^2 I| is not
    within ``tol``, with the DomainError "{what} r exceeds tolerance ..." carrying r."""
    with np.errstate(over="ignore"):  # a huge point is refused, not warned about
        # stacked p-by-s times s-by-p products, at p = 1 the ddot of x @ x per row
        gram = np.swapaxes(U, 1, 2) @ U
        residual = np.abs(gram - radius**2 * np.eye(U.shape[2])).max(axis=(1, 2))
    numkit.off_manifold(residual, tol, what)


def _sigma_matrices(U: np.ndarray, G: np.ndarray, weight: float, radius: float) -> np.ndarray:
    """The multiplier matrices sym(G^t U) / (2 w R^2), with the field's gradients
    G shaped as U (:func:`_packed` orders them as the constraints). Each product
    is halved before the sum, so a sum of two entries near the float limit
    does not overflow where their mean is finite."""
    S = 0.5 * (np.swapaxes(G, 1, 2) @ U) + 0.5 * (np.swapaxes(U, 1, 2) @ G)
    return S / (2.0 * weight * radius**2)


def _packed(S: np.ndarray) -> np.ndarray:
    """The p-by-p matrices of S in constraint order (the diagonal, then the
    lexicographic pairs), as the rows of a C-ordered array."""
    p = S.shape[1]
    a, b = np.triu_indices(p, 1)  # the index pairs, lexicographic
    diagonal = np.arange(p)
    # fancy indexing leaves the rows strided, and the ddot of the assembly
    # rounds a strided row differently from a contiguous one
    return np.ascontiguousarray(S[:, np.concatenate([diagonal, a]), np.concatenate([diagonal, b])])


def _lambda_traces(U: np.ndarray, H: np.ndarray) -> np.ndarray:
    """tr(Lambda H) per matrix of U, Lambda's block (a, b) being u_b u_a^t:
    vec(U)^t K vec(U) with K's block (a, b) H_ba, so K is H, a view, at p = 1.
    A broadcast H (stride 0 across rows) repeats one matrix: its K is built once."""
    N, s, p = U.shape
    x = np.swapaxes(U, 1, 2).reshape(N, s * p)
    one = H[:1] if H.strides[0] == 0 else H
    K = one.reshape(len(one), p, s, p, s).transpose(0, 3, 2, 1, 4).reshape(one.shape)
    return (x[:, None, :] @ np.broadcast_to(K, H.shape) @ x[:, :, None])[:, 0, 0]


def _closed_form(f, X, block: tuple, weight: float, radius: float, admit, frame) -> list:
    """:func:`evaluate_points` on the (N, s p) stack X of the p columns of s
    coordinates of U in V(s, p), (s, p) = ``block``, by the stages ``admit(X)``,
    the field gradient, ``frame(X)`` (the frame Gram conditions; both refuse
    rows as the checks do), the field Hessian with the main trace
    tr H - (sum_a tr(U^t H_aa U) + tr(Lambda H)) / (2 R^2), each product halved
    before the sum (x^t H x / R^2 in its bits at p = 1), and assembly by the
    rules above, each constraint trace 2w (s - (p+1)/2) on a norm constraint
    and 0 on a pair."""
    s, p = block
    traces = np.repeat([2.0 * weight * (s - (p + 1) / 2.0), 0.0], [p, p * (p - 1) // 2])

    def columns(A):  # C order, as the products round strided rows apart
        return np.ascontiguousarray(A.reshape(len(A), p, s).transpose(0, 2, 1))

    def trace_main(U, H):
        Haa = np.moveaxis(np.diagonal(H.reshape(len(H), p, s, p, s), axis1=1, axis2=3), -1, 1)
        own = np.trace(np.swapaxes(U, 1, 2)[:, None] @ Haa @ U[:, None], axis1=2, axis2=3)
        normal = 0.5 * own.sum(axis=1) + 0.5 * _lambda_traces(U, H)
        return np.trace(H, axis1=1, axis2=2) - normal / radius**2

    def stack(fields, X):
        admit(X)
        g = _field_gradients(fields, X)
        cond = frame(X)
        H = _field_hessians(fields, X)
        U = columns(X)
        sigma = _packed(_sigma_matrices(U, columns(g), weight, radius))
        return _reports(trace_main(U, H[:, 0]), sigma, np.tile(traces, (len(U), 1)), cond)

    return _in_chunks(stack, f, X, 8 * X.shape[1] ** 2)


class AdaptedFrame(Frozen):
    """A tangent-frame provider: an (N, m) stack of points -> the (N, m, r)
    stack of matrices whose columns span the tangent space of the constraint
    manifold at each point. A provider that refuses rows through
    :func:`numkit.raise_first` (or :func:`numkit.refuse_rows`) gives each its
    own error and keeps the other rows stacked; the evaluators isolate any
    other LapbelError it raises by halving the stack (see :func:`_in_chunks`)."""

    def __init__(self, provider: Callable[[np.ndarray], np.ndarray]):
        vars(self).update(provider=provider)

    def at(self, U) -> np.ndarray:
        """The checked frames at the rows of the (N, m) stack ``U``, or the
        one frame at the point ``U``, the one-row case: a stack of the wrong
        frame count is refused as a whole, a non-finite frame on its row, and
        frames of the wrong shape on every row."""
        point = np.ndim(U) == 1
        U = as_vector(U, "frame point")[None] if point else as_matrix(U, "frame points")
        # C order, as the products of the traces round strided rows apart
        T = np.ascontiguousarray(self.provider(U), dtype=float)
        if T.ndim != 3 or len(T) != len(U):
            raise DimensionError(
                f"frame stack has shape {T.shape}, expected {len(U)} frames"
            )
        _finite(T, "frame matrix")
        if T.shape[1] != U.shape[1]:
            _refuse_all(len(U), f"frame has {T.shape[1]} rows, expected {U.shape[1]}")
        if T.shape[2] >= T.shape[1]:
            _refuse_all(len(U), f"frame must have fewer columns than rows, got {T.shape[1:]}")
        return T[0] if point else T


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
    Q, R, deficient = _gradient_qrs(constraints.jacobian(u))
    if deficient:
        raise RegularityError(_RANK_DEFICIENT)
    return np.linalg.solve(R, Q.T @ f.gradient(u))


class LaplacianReport(NamedTuple):
    """Assembled Laplace-Beltrami evaluation with its diagnostics.

    ``value`` always equals ``trace_main - sigma @ trace_constraint`` as
    stored, because the evaluators assemble it from those parts, and every
    number is finite: they refuse the row with NumericalError otherwise.
    """

    value: float
    sigma: np.ndarray
    trace_main: float
    trace_constraint: np.ndarray
    frame_gram_condition: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "sigma": self.sigma.tolist(),
            "trace_main": self.trace_main,
            "trace_constraint": self.trace_constraint.tolist(),
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
    evaluated at the on-manifold point ``u``: :func:`evaluate_points` on a
    one-row stack, raising the error that refuses the row."""
    u = as_vector(u, "point")
    return _only(evaluate_points(f, constraints, frame, u[None], tols))


def _only(records: list) -> LaplacianReport:
    """The one record of a one-row evaluation, raised when it is an error."""
    (record,) = records
    if isinstance(record, LapbelError):
        raise record
    return record


def evaluate_points(
    f,
    constraints: ConstraintSet,
    frame: AdaptedFrame | None,
    X,
    tols: Tolerances | None = None,
) -> list:
    """Laplace-Beltrami reports of ``f`` on the constraint manifold at the
    rows of the (N, m) stack ``X``: per row, in row order, a LaplacianReport
    or the LapbelError that refuses the row. ``f`` is one ScalarField for
    every row or a sequence of N, one per row (see :func:`_per_row`); each
    row's record has the bits of its one-row evaluation with its own field.

    The value is the projected Hessian trace minus the multiplier-weighted
    projected constraint Hessian traces. Each stage runs on the whole stack,
    in this order, and a row's record is the first error it meets, with its
    own numbers:
    - admission: a finite point whose max-abs residual is within
      ``tols.on_manifold`` (DomainError with the residual);
    - the Jacobian J, checked finite, and its reduced QR J^t = QR with the
      rank test on diag R (RegularityError);
    - the field gradient (see :func:`_field_gradients`), checked finite, and
      the multipliers R^{-1} Q^t ∇f;
    - the frame: with ``frame`` None every trace is tr H - <Q, H Q>_F and
      the frame Gram condition is 1; explicit frames T, from one
      ``frame.at`` call on the stack, checked to have m - k columns, give
      tr(Q_T^t H Q_T) from their reduced QR T = Q_T R_T, which equals
      tr(T+ H T) with nothing inverted; the Gram condition cond(R_T)^2
      refuses a frame above ``tols.condition_limit`` (SingularityError);
    - the field Hessian, checked finite and symmetric, and its trace; then
      :meth:`ConstraintSet.projected_traces` (no Hessian for block products);
    - assembly, one array step per chunk (NumericalError on overflow).

    The rows go in chunks whose Hessian stacks (m^2 doubles per row, k m^2
    more unless the set is a BlockProductSet) stay within ``_CHUNK_BYTES``,
    through :func:`_in_chunks`: a check, or a frame provider, that refuses
    rows through :func:`numkit.raise_first` costs the chunk one more pass on
    the rows left, and any other LapbelError (from a field callable, say) is
    isolated by halving the chunk.
    """
    tols = DEFAULT_TOLERANCES if tols is None else tols
    X = np.asarray(X, dtype=float)
    m, k = constraints.ambient_dim, constraints.count
    if X.ndim != 2 or X.shape[1] != m:
        raise DimensionError("field, constraints, and point must share one ambient dimension")
    fields = _per_row(f, len(X))
    if any(field.dim != m for field in fields):
        raise DimensionError("field, constraints, and point must share one ambient dimension")
    stacks = 1 if isinstance(constraints, BlockProductSet) else 1 + k
    evaluate = functools.partial(_evaluate_stack, constraints, frame, tols)
    return _in_chunks(evaluate, fields, X, 8 * stacks * m * m)


def _per_row(f, rows: int) -> tuple:
    """The evaluators' field argument as one ScalarField per row: ``f``
    repeated when it is one ScalarField, else the sequence ``f``."""
    fields = (f,) * rows if isinstance(f, ScalarField) else tuple(f)
    if len(fields) != rows:
        raise DimensionError(f"{len(fields)} fields for {rows} points")
    for i, field in enumerate(fields):
        if not isinstance(field, ScalarField):
            raise ContractError(f"field {i} is not a ScalarField")
    return fields


def _in_chunks(evaluate, f, X: np.ndarray, row_bytes: int) -> list:
    """``evaluate`` (a tuple of one field per row and an (N, m) stack -> N
    records) on the rows of X in chunks of at most ``_CHUNK_BYTES //
    row_bytes`` rows, each with its rows' fields of ``f`` (see
    :func:`_per_row`), the records in row order. This is the one place that
    refuses rows. A raise that carries the ``verdicts`` of the stack's rows
    (:func:`numkit.raise_first`) files each refused row's error as it is and
    runs the rows left again: one more pass per stage that refuses rows. Any
    other LapbelError is isolated by halving the stack, down to the row that
    raises it. A raised error is filed without its verdicts or traceback, so
    that no record keeps a chunk's arrays alive. Overflow gives non-finite
    numbers that the checks refuse, not warnings."""
    f = _per_row(f, len(X))

    def rows(fields, U):
        try:
            return evaluate(fields, U)
        except LapbelError as exc:
            records = vars(exc).pop("verdicts", None)
            error = exc.with_traceback(None)
        if records is None or len(records) != len(U):
            if len(U) == 1:
                return [error]
            half = len(U) // 2
            return rows(fields[:half], U[:half]) + rows(fields[half:], U[half:])
        left = [i for i, record in enumerate(records) if record is None]
        if left:
            for i, record in zip(left, rows(tuple(fields[i] for i in left), U[left])):
                records[i] = record
        return records

    with np.errstate(all="ignore"):
        return [
            record
            for chunk in _chunks(len(X), row_bytes)
            for record in rows(f[chunk], X[chunk])
        ]


def _by_field(derivative, fields: tuple, X: np.ndarray) -> np.ndarray:
    """``derivative(field, V)`` at the rows of X, whose fields are ``fields``
    (one per row): one call for each run V of consecutive rows that share
    one field object (so one call for a shared field), the results stacked
    in row order."""
    cuts = [j for j in range(1, len(fields)) if fields[j] is not fields[j - 1]]
    parts = [derivative(fields[a], X[a:b]) for a, b in zip([0, *cuts], [*cuts, len(fields)])]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _field_gradients(fields: tuple, X: np.ndarray) -> np.ndarray:
    """The field gradients at the rows of X, checked finite."""
    return _finite(_by_field(ScalarField.gradients, fields, X), "gradient")


def _field_hessians(fields: tuple, X: np.ndarray) -> np.ndarray:
    """The (N, 1, m, m) field Hessians at the rows of X, checked by
    :func:`_checked_hessians`: one check of the whole stack."""
    return _checked_hessians(_by_field(ScalarField.hessians, fields, X)[:, None])


def _reports(trace_main, sigma, trace_constraint, cond) -> list:
    """The LaplacianReports of the parts' rows, each value trace_main - sigma
    . trace_constraint from one stacked 1-by-k times k-by-1 product (per row
    the ddot of ``np.dot``), refusing with NumericalError a row where a part
    or the value is not finite."""
    value = trace_main - np.matmul(sigma[:, None], trace_constraint[:, :, None])[:, 0, 0]
    numkit.refuse_rows(
        (
            ~np.isfinite(trace_main) | _nonfinite(sigma) | _nonfinite(trace_constraint),
            lambda i: NumericalError("the evaluation overflowed: sigma or a trace is not finite"),
        ),
        (~np.isfinite(value), lambda i: NumericalError("the evaluation overflowed: the value is not finite")),
    )
    # the report's fields in order, each number a Python float
    parts = (value, sigma, trace_main, trace_constraint, np.asarray(cond))
    return [LaplacianReport(*report) for report in zip(*(a.tolist() if a.ndim == 1 else a for a in parts))]


def _evaluate_stack(constraints, frame, tols, fields, X) -> list:
    """The stages of :func:`evaluate_points` on one chunk."""
    m, k = X.shape[1], constraints.count
    _finite(X, "point")
    residual = np.abs(constraints.residuals_at(X)).max(axis=1)
    numkit.off_manifold(residual, tols.on_manifold, "point is off the manifold: residual")
    Q, R, deficient = _gradient_qrs(_finite(constraints.jacobians_at(X), "gradient"))
    numkit.refuse_rows((deficient, lambda i: RegularityError(_RANK_DEFICIENT)))
    g = _field_gradients(fields, X)
    sigma = np.linalg.solve(R, np.swapaxes(Q, 1, 2) @ g[:, :, None])[:, :, 0]

    normal = frame is None  # Q spans the normal space, else the frame's
    if normal:
        cond = np.ones(len(X))
    else:
        T = frame.at(X)
        if T.shape[2] != m - k:
            _refuse_all(len(X), f"frame supplies {T.shape[2]} tangent directions, expected "
                        f"{m - k} (ambient {m} minus {k} constraints)")
        Q, _, cond = numkit.frame_qrs(T, tols.condition_limit)

    trace_main = _projected_traces(_field_hessians(fields, X), Q, normal)[:, 0]
    return _reports(trace_main, sigma, constraints.projected_traces(X, Q, normal), cond)


def _projected_traces(H: np.ndarray, Q: np.ndarray, normal: bool) -> np.ndarray:
    """Per row and Hessian, tr(P H) for Hessians H of shape (N, k, m, m), with
    P the tangent projector and Q orthonormal columns, one (m, c) matrix per
    row: <Q, H Q>_F = tr(Q^t H Q) where Q spans the tangent space, and
    tr H - <Q, H Q>_F where Q spans the normal space."""
    Q = Q[:, None]
    inner = np.sum(Q * (H @ Q), axis=(-2, -1))
    return np.trace(H, axis1=-2, axis2=-1) - inner if normal else inner


_RANK_DEFICIENT = "constraint gradients are rank deficient at this point"


def _gradient_qrs(J: np.ndarray, mode: str = "reduced") -> tuple:
    """QR of the gradient columns J^t of one k-by-m Jacobian or of each in a
    stack (``mode`` as for np.linalg.qr), and the scale-free rank test: whether
    R has a diagonal entry of at most 1e-12 max |J| (all-zero J is deficient)."""
    k = J.shape[-2]
    Q, R = np.linalg.qr(np.swapaxes(J, -1, -2), mode=mode)
    diag = np.abs(np.diagonal(R[..., :k, :k], axis1=-2, axis2=-1))
    scale = np.abs(J).max(axis=(-2, -1))
    return Q, R, (diag <= 1e-12 * scale[..., None]).any(axis=-1)


def qr_nullspace_frame(constraints: ConstraintSet) -> AdaptedFrame:
    """Adapted frame built numerically from the constraint gradients.

    At each point the gradients are stacked as columns and QR-factored in
    complete mode; the trailing orthonormal columns span the tangent space.
    Non-finite gradients raise DimensionError, rank-deficient ones
    RegularityError.
    """

    def provider(U):
        J = _finite(constraints.jacobians_at(U), "gradient")
        Q, _, deficient = _gradient_qrs(J, "complete")
        numkit.refuse_rows((deficient, lambda i: RegularityError(_RANK_DEFICIENT)))
        return Q[:, :, constraints.count :]

    return AdaptedFrame(provider=provider)
