"""Dense linear-algebra primitives shared by every other module.

Column-major vectorization, Gram matrices, SPD solves, and the left
Moore-Penrose inverse, together with the package-wide tolerance record.
Everything is dense float64 and numpy only. Tall frames are inverted through
a reduced QR factorization, never through their Gram matrix or an SVD;
Gram matrices only give condition estimates, and ill-conditioning is
reported instead of regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError, FactorizationError, SingularityError


@dataclass(frozen=True)
class Tolerances:
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
                    matrix before the solve is refused (default 1e12)
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


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return ``M`` as a finite 2-D float64 array."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
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


def unvec_rows(X: np.ndarray, n: int) -> np.ndarray:
    """:func:`unvec` of every row of an (N, n*n) stack: the N matrices, each
    the same C-order copy ``unvec`` makes of its row."""
    return np.ascontiguousarray(X.reshape(-1, n, n).transpose(0, 2, 1))


def gram(rows: Sequence, cols: Sequence) -> np.ndarray:
    """Matrix of inner products: entry (i, j) is <rows[i], cols[j]>."""
    row_list = [as_vector(r, f"gram rows[{i}]") for i, r in enumerate(rows)]
    col_list = [as_vector(c, f"gram cols[{j}]") for j, c in enumerate(cols)]
    if not row_list or not col_list:
        raise DimensionError("gram needs at least one row and one column vector")
    dim = row_list[0].size
    for i, r in enumerate(row_list):
        if r.size != dim:
            raise DimensionError(f"gram rows[{i}] has length {r.size}, expected {dim}")
    for j, c in enumerate(col_list):
        if c.size != dim:
            raise DimensionError(f"gram cols[{j}] has length {c.size}, expected {dim}")
    R = np.stack(row_list)
    C = np.stack(col_list)
    return R @ C.T


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
    scale = np.maximum(np.abs(M).max(axis=(-2, -1)), 1.0)
    asym = np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1))
    bad = asym > DEFAULT_TOLERANCES.equality * scale
    errors = [None] * len(M)
    if not bad.any():
        return errors
    rows = (len(M), math.prod(M.shape[1:-2]))  # (N, matrices per row)
    asym, bad = asym.reshape(rows), bad.reshape(rows)
    for i in np.flatnonzero(bad.any(axis=1)):
        errors[i] = ContractError(
            f"{name} is not symmetric: max |{symbol} - {symbol}^T| = {asym[i][bad[i]][0]:.3e}"
        )
    return errors


def require_symmetric(M: np.ndarray, name: str, symbol: str) -> None:
    """Raise ContractError unless the matrix ``M``, or every matrix of the
    stack ``M``, is symmetric (see :func:`symmetry_errors`)."""
    error = symmetry_errors(np.asarray(M)[None], name, symbol)[0]
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


def left_moore_penrose(T, condition_limit: float | None = None) -> np.ndarray:
    """Left Moore-Penrose inverse (T^t T)^{-1} T^t of a tall full-rank matrix.

    The r-by-r Gram matrix T^t T is required to be well conditioned
    (condition estimate at most ``condition_limit``, default 1e12); the
    inverse itself is R^{-1} Q^t from the reduced QR T = QR. Rank-deficient
    or ill-conditioned input raises SingularityError carrying the estimate.
    """
    T = as_matrix(T, "left_moore_penrose input")
    m, r = T.shape
    if r > m:
        raise DimensionError(
            f"left_moore_penrose expects at least as many rows as columns, got {m}x{r}"
        )
    limit = DEFAULT_TOLERANCES.condition_limit if condition_limit is None else condition_limit
    return frame_pseudo_inverse(T, limit)[0]


def frame_pseudo_inverse(
    T: np.ndarray, condition_limit: float
) -> tuple[np.ndarray, float]:
    """(T+, condition estimate of T^t T) for one tall frame ``T``, by
    :func:`frame_pseudo_inverses`; a refused frame raises its
    SingularityError."""
    T_plus, cond, refused = frame_pseudo_inverses(np.asarray(T)[None], condition_limit)
    if refused[0] is not None:
        raise refused[0]
    return T_plus[0], float(cond[0])


def frame_pseudo_inverses(T: np.ndarray, condition_limit: float) -> tuple:
    """For an (N, m, r) stack of tall frames: T+ = R^{-1} Q^t from the
    reduced QR T = QR of each accepted frame, the condition estimate of every
    Gram T^t T (as :func:`sym_condition` gives it), and per frame None or the
    SingularityError carrying the estimate that refuses it, when the estimate
    is not finite or exceeds ``condition_limit``."""
    G = np.swapaxes(T, -1, -2) @ T
    if not np.isfinite(G).all():
        raise DimensionError("sym_condition input contains non-finite entries")
    w = np.linalg.eigvalsh((G + np.swapaxes(G, -1, -2)) / 2.0)
    cond = np.full(len(w), np.inf)
    np.divide(w[:, -1], w[:, 0], out=cond, where=w[:, 0] > 0.0)
    accepted = cond <= condition_limit
    refused = [None] * len(T)
    if not accepted.all():
        for i in np.flatnonzero(~accepted):
            refused[i] = SingularityError(
                f"frame Gram condition {cond[i]:.3e} exceeds limit {condition_limit:.3e}",
                condition=float(cond[i]),
            )
        T = T[accepted]
    Q, R = np.linalg.qr(T)
    return np.linalg.solve(R, np.swapaxes(Q, -1, -2)), cond, refused


def matrix_to_json(M) -> dict:
    """JSON-ready form of a dense matrix: column-major data with shape."""
    arr = as_matrix(M, "matrix_to_json input")
    r, c = arr.shape
    return {
        "rows": int(r),
        "cols": int(c),
        "data": [float(x) for x in arr.reshape(-1, order="F")],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Rebuild a dense matrix from its JSON form (see :func:`matrix_to_json`)."""
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
