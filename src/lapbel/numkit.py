"""Dense linear-algebra primitives shared by every other module.

Column-major vectorization, SPD solves, QR factorization of tall frames and
the JSON form of a matrix, together with the package-wide tolerance record
and the names of the verification suites. Everything is dense float64 and numpy
only. Tall frames go through a reduced QR factorization, never
through their Gram matrix; their condition comes from the singular values of
the small factor R, and ill-conditioning is reported instead of regularized.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, DomainError, FactorizationError
from .errors import SingularityError


class Tolerances(NamedTuple):
    """Numeric thresholds used across the package.

    equality        max-abs tolerance for identities that hold exactly in
                    real arithmetic (default 1e-10)
    orthogonality   admission tolerance for near-orthogonal matrices
                    (default 1e-8)
    fd_oracle       tolerance when comparing against finite-difference
                    oracles at their default step (default 1e-4)
    on_manifold     max-abs constraint residual admitted as "on the
                    manifold" (default 1e-8)
    condition_limit largest acceptable condition number for a frame Gram
                    matrix before the frame is refused (default 1e12)
    chart_margin    |x_j| >= chart_margin * R is required of a sphere
                    chart's excluded coordinate (default 1e-8)
    """

    equality: float = 1e-10
    orthogonality: float = 1e-8
    fd_oracle: float = 1e-4
    on_manifold: float = 1e-8
    condition_limit: float = 1e12
    chart_margin: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


class Frozen:
    """Base of the package's immutable records. Each ``__init__`` stores the
    fields straight into the instance ``__dict__`` (``vars(self).update``);
    assigning or deleting an attribute afterwards raises AttributeError.
    Equality, hashing and repr stay the default identity forms."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# The verification suites, by the names ``verify`` takes; the command-line
# parser reads them without importing the suites.
SUITES = ("lemmas-sphere", "lemmas-on", "theorem-equivalence", "eigenfunctions", "oracle", "all")


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    return _as_array(v, name, 1)


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return ``M`` as a finite 2-D float64 array."""
    return _as_array(M, name, 2)


def _as_array(a, name: str, ndim: int) -> np.ndarray:
    """``a`` as a float64 array, refused with DimensionError unless it
    converts and is non-empty, finite and ``ndim``-D."""
    try:
        arr = np.asarray(a, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:  # ragged, not numbers, beyond double
        raise DimensionError(f"{name} is not an array of numbers: {exc}") from exc
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def vec(M) -> np.ndarray:
    """Stack the columns of a square matrix into one vector.

    vec(M)[j*n + i] == M[i, j] for an n-by-n input.
    """
    arr = as_matrix(M, "vec input")
    n, m = arr.shape
    if n != m:
        raise DimensionError(f"vec expects a square matrix, got {n}x{m}")
    return arr.reshape(-1, order="F").copy()


def unvec(v, n: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild the n-by-n matrix from its columns."""
    arr = as_vector(v, "unvec input")
    if n <= 0:
        raise DimensionError(f"unvec needs a positive side length, got {n}")
    if arr.size != n * n:
        raise DimensionError(
            f"unvec expects a vector of length {n * n}, got {arr.size}"
        )
    return arr.reshape((n, n), order="F").copy()


def vec_rows(M: np.ndarray) -> np.ndarray:
    """:func:`vec` of every matrix of an (N, n, n) stack, as the rows of an
    (N, n*n) array, refused as ``vec`` refuses a non-finite matrix."""
    if not np.isfinite(M).all():
        raise DimensionError("vec input contains non-finite entries")
    return np.ascontiguousarray(np.swapaxes(M, 1, 2)).reshape(len(M), M.shape[1] * M.shape[2])


def unvec_rows(X: np.ndarray, n: int) -> np.ndarray:
    """:func:`unvec` of every row of an (N, n*n) stack: the N matrices, each
    the same C-order copy ``unvec`` makes of its row."""
    return np.ascontiguousarray(X.reshape(-1, n, n).transpose(0, 2, 1))


def sym_condition(A) -> float:
    """Condition estimate (ratio of extreme eigenvalues) of a symmetric matrix.

    Returns ``inf`` when the matrix is not numerically positive definite.
    """
    arr = as_matrix(A, "sym_condition input")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError("sym_condition expects a square matrix")
    w = np.linalg.eigvalsh((arr + arr.T) / 2.0)
    if w[0] <= 0.0:
        return float("inf")
    return float(w[-1] / w[0])


def symmetry_errors(M: np.ndarray, name: str, symbol: str) -> list:
    """Per row of an (N, ..., m, m) stack of matrices: None, or a
    ContractError naming the value of max |M - M^t| of the row's first matrix
    that is not symmetric to the equality tolerance scaled by its
    magnitude."""
    rows = (len(M), math.prod(M.shape[1:-2]))  # (N, matrices per row)
    scale = np.maximum(np.abs(M).max(axis=(-2, -1)), 1.0).reshape(rows)
    asym = M - np.swapaxes(M, -1, -2)
    asym = np.abs(asym, out=asym).max(axis=(-2, -1)).reshape(rows)
    bad = asym > DEFAULT_TOLERANCES.equality * scale
    return row_errors(
        bad.any(axis=1),
        lambda i: ContractError(
            f"{name} is not symmetric: max |{symbol} - {symbol}^T| = {asym[i][bad[i]][0]:.3e}"
        ),
    )


def require_symmetric(M: np.ndarray, name: str, symbol: str) -> None:
    """Raise ContractError unless the matrix ``M``, or every matrix of the
    stack ``M``, is symmetric (see :func:`symmetry_errors`)."""
    raise_first(symmetry_errors(np.asarray(M)[None], name, symbol))


def row_errors(bad: np.ndarray, make) -> list:
    """Per row: ``make(i)`` where the boolean ``bad[i]`` is set, else None."""
    errors = [None] * len(bad)
    for i in bad.nonzero()[0]:
        errors[i] = make(i)
    return errors


def off_manifold(residual: np.ndarray, tol: float, what: str) -> list:
    """Per row: None, or where the residual r is not within ``tol`` (nan is
    not), the DomainError "{what} {r} exceeds tolerance {tol}" carrying r."""
    message = f"{what} {{:.6g}} exceeds tolerance {tol:.6g}"
    return row_errors(
        ~(residual <= tol),
        lambda i: DomainError(message.format(residual[i]), residual=float(residual[i])),
    )


def raise_first(errors: list) -> None:
    """Raise the first entry of a per-row list of None or errors, if any."""
    for error in errors:
        if error is not None:
            raise error


def solve_spd(A, B) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A by Cholesky.

    ``A`` must be symmetric to the equality tolerance (scaled by its
    magnitude); it is symmetrized before factorization. Raises
    FactorizationError when the Cholesky factorization fails.
    """
    A = as_matrix(A, "solve_spd A")
    n, m = A.shape
    if n != m:
        raise DimensionError(f"solve_spd expects a square A, got {n}x{m}")
    B_arr = np.asarray(B, dtype=float)
    rows = as_matrix(B_arr[:, None] if B_arr.ndim == 1 else B_arr, "solve_spd B").shape[0]
    if rows != n:
        raise DimensionError(f"solve_spd B has {rows} rows, expected {n}")
    scale = max(1.0, float(np.max(np.abs(A))))
    asym = float(np.max(np.abs(A - A.T)))
    if asym > DEFAULT_TOLERANCES.equality * scale:
        raise DimensionError(
            f"solve_spd A is not symmetric: max |A - A^T| = {asym:.3e}"
        )
    try:
        L = np.linalg.cholesky((A + A.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"Cholesky factorization failed: {exc}"
        ) from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, B_arr))


def frame_qrs(T: np.ndarray, condition_limit: float) -> tuple:
    """For an (N, m, r) stack of finite tall frames: the reduced QR T = QR of
    each frame, the condition of every Gram T^t T as cond(R)^2 (the Gram is
    never formed), and per frame None or the SingularityError carrying the
    estimate that refuses it, when the estimate is not finite or exceeds
    ``condition_limit``. The orthonormal Q spans what T spans, so a caller
    that needs only the tangent projector T T+ = Q Q^t inverts nothing."""
    Q, R = np.linalg.qr(T)
    s = np.linalg.svd(R, compute_uv=False)
    cond = np.full(len(T), np.inf)
    np.divide(s[:, 0], s[:, -1], out=cond, where=s[:, -1] > 0.0)
    with np.errstate(over="ignore"):
        cond *= cond
    message = f"frame Gram condition {{:.3e}} exceeds limit {condition_limit:.3e}"
    refused = row_errors(
        ~(cond <= condition_limit),
        lambda i: SingularityError(message.format(cond[i]), condition=float(cond[i])),
    )
    return Q, R, cond, refused


def matrix_from_json(obj) -> np.ndarray:
    """Rebuild a dense matrix from its JSON form: rows, cols, column-major data."""
    if not isinstance(obj, dict):
        raise DimensionError("matrix JSON must be an object with rows/cols/data")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise DimensionError(f"matrix JSON missing keys: {sorted(missing)}")
    r, c = obj["rows"], obj["cols"]
    if any(isinstance(x, bool) or not isinstance(x, int) or x <= 0 for x in (r, c)):
        raise DimensionError("matrix JSON rows/cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list):
        raise DimensionError("matrix JSON data must be a list of numbers")
    if len(data) != r * c:
        raise DimensionError(
            f"matrix JSON data has {len(data)} entries, expected {r * c}"
        )
    flat = as_vector(data, "matrix JSON data")
    return flat.reshape((r, c), order="F").copy()
