"""Tests for the dense linear-algebra primitives."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lapbel
from lapbel import numkit
from lapbel.errors import ContractError, DimensionError, FactorizationError, SingularityError


def test_tolerance_defaults():
    tols = numkit.DEFAULT_TOLERANCES
    assert tols.equality == 1e-10
    assert tols.orthogonality == 1e-8
    assert tols.fd_oracle == 1e-4
    assert tols.on_manifold == 1e-8
    assert tols.condition_limit == 1e12
    assert tols.chart_margin == 1e-8


# Each immutable record, a way to build one, and one of its fields.
RECORDS = {
    "ScalarField": (lambda: lapbel.linear_field([1.0, 0.0, 0.0]), "dim"),
    "ConstraintSet": (
        lambda: lapbel.ConstraintSet(3, (lapbel.linear_field([1.0, 0.0, 0.0]),), [0.0]),
        "fields",
    ),
    "BlockProductSet": (lambda: lapbel.sphere_constraint_set(3, 1.0), "products"),
    "AdaptedFrame": (lambda: lapbel.sphere_adapted_frame(1.0), "provider"),
    "LaplacianReport": (
        lambda: lapbel.LaplacianReport(1.0, np.zeros(1), 1.0, np.zeros(1), 1.0),
        "value",
    ),
    "Tolerances": (lambda: numkit.DEFAULT_TOLERANCES, "equality"),
    "SpherePoint": (lambda: lapbel.SpherePoint([1.0, 0.0, 0.0], 1.0), "coords"),
    "OrthogonalPoint": (lambda: lapbel.OrthogonalPoint(np.eye(2)), "matrix"),
    "OracleConfig": (lambda: lapbel.OracleConfig(), "step"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned_or_deleted(name):
    make, field = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_vec_identity_and_column_order():
    assert_allclose(numkit.vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])
    assert_allclose(numkit.vec([[1.0, 3.0], [2.0, 4.0]]), [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("n", range(1, 17))
def test_vec_unvec_index_mapping(n):
    # Oracle: direct index arithmetic. Entry (i, j) must land at j*n + i.
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    v = numkit.vec(M)
    for i in range(n):
        for j in range(n):
            assert v[j * n + i] == M[i, j]
    assert_allclose(numkit.unvec(v, n), M)
    w = rng.standard_normal(n * n)
    assert_allclose(numkit.vec(numkit.unvec(w, n)), w)


def test_vec_rejects_non_square():
    with pytest.raises(DimensionError):
        numkit.vec(np.ones((2, 3)))


def test_unvec_rejects_wrong_length():
    with pytest.raises(DimensionError):
        numkit.unvec(np.ones(5), 2)
    with pytest.raises(DimensionError):
        numkit.unvec(np.ones(4), 0)


def test_non_finite_inputs_rejected():
    with pytest.raises(DimensionError):
        numkit.vec(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        numkit.as_vector([1.0, np.inf])


def test_solve_spd_residual():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    A = M @ M.T + 6.0 * np.eye(6)
    B = rng.standard_normal((6, 2))
    X = numkit.solve_spd(A, B)
    assert np.max(np.abs(A @ X - B)) <= 1e-10
    b = rng.standard_normal(6)
    x = numkit.solve_spd(A, b)
    assert x.shape == (6,)
    assert np.max(np.abs(A @ x - b)) <= 1e-10


def test_solve_spd_rejects_asymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        numkit.solve_spd(A, np.ones(2))


def test_solve_spd_rejects_indefinite():
    with pytest.raises(FactorizationError):
        numkit.solve_spd(-np.eye(3), np.ones(3))


def test_sym_condition():
    assert_allclose(numkit.sym_condition(np.diag([1.0, 10.0])), 10.0)
    assert numkit.sym_condition(np.diag([1.0, 0.0])) == np.inf
    assert numkit.sym_condition(np.diag([1.0, -2.0])) == np.inf


def left_moore_penrose(T, condition_limit: float = 1e12) -> np.ndarray:
    """The left Moore-Penrose inverse R^{-1} Q^t of a tall frame from its
    :func:`numkit.frame_qrs` factors, as the lemmas-sphere suite takes it,
    raising the refusal ``frame_qrs`` gives."""
    Q, R, _, refused = numkit.frame_qrs(T[None], condition_limit)
    numkit.raise_first(refused)
    return np.linalg.solve(R[0], Q[0].T)


def test_left_moore_penrose_diagonal_example():
    # Oracle: hand inverse of a diagonal tall matrix.
    T = np.array([[2.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    T_plus = left_moore_penrose(T)
    assert_allclose(T_plus, [[0.5, 0.0, 0.0], [0.0, 0.25, 0.0]], atol=1e-15)


def _matrix_with_condition(rng, m, r, condition):
    """Tall matrix with prescribed singular-value spread."""
    Q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    Q2, _ = np.linalg.qr(rng.standard_normal((r, r)))
    singulars = np.geomspace(1.0, 1.0 / condition, r)
    return Q1[:, :r] @ np.diag(singulars) @ Q2


@pytest.mark.parametrize("seed", range(5))
def test_left_moore_penrose_identity_well_conditioned(seed):
    rng = np.random.default_rng(seed)
    T = _matrix_with_condition(rng, 9, 4, condition=1e2)
    T_plus = left_moore_penrose(T)
    assert np.max(np.abs(T_plus @ T - np.eye(4))) <= 1e-10


def test_left_moore_penrose_error_scales_with_condition():
    # The normal-equation route loses accuracy like eps * condition(T)^2;
    # at condition 1e5 the identity still holds to that scaled bound.
    rng = np.random.default_rng(11)
    T = _matrix_with_condition(rng, 12, 5, condition=1e5)
    T_plus = left_moore_penrose(T)
    deviation = np.max(np.abs(T_plus @ T - np.eye(5)))
    assert deviation <= 1e-16 * (1e5) ** 2 * 100.0


def test_left_moore_penrose_rejects_singular():
    T = np.zeros((4, 2))
    T[:, 0] = [1.0, 0.0, 0.0, 0.0]
    T[:, 1] = [2.0, 0.0, 0.0, 0.0]
    with pytest.raises(SingularityError) as info:
        left_moore_penrose(T)
    assert info.value.condition is None or info.value.condition > 1e12


def test_left_moore_penrose_rejects_beyond_condition_limit():
    rng = np.random.default_rng(12)
    T = _matrix_with_condition(rng, 10, 3, condition=1e7)  # Gram condition 1e14
    with pytest.raises(SingularityError) as info:
        left_moore_penrose(T)
    assert info.value.condition > 1e12
    # A caller-supplied limit admits the same matrix.
    T_plus = left_moore_penrose(T, condition_limit=1e15)
    assert T_plus.shape == (3, 10)


def test_matrix_json_round_trip():
    # Column-major: the first two data entries are the first column.
    payload = {"rows": 2, "cols": 3, "data": [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]}
    M = numkit.matrix_from_json(payload)
    assert np.array_equal(M, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert M.flags.c_contiguous and M.flags.writeable


def test_matrix_from_json_validates():
    with pytest.raises(DimensionError):
        numkit.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0, 2.0]})
    with pytest.raises(DimensionError):
        numkit.matrix_from_json({"rows": 2, "data": [1.0, 2.0]})
    with pytest.raises(DimensionError):
        numkit.matrix_from_json([1.0, 2.0])
    with pytest.raises(DimensionError):
        numkit.matrix_from_json({"rows": True, "cols": 1, "data": [1.0]})
    with pytest.raises(DimensionError):
        numkit.matrix_from_json({"rows": 3, "cols": 1, "data": 5})


def test_require_symmetric_on_a_matrix_and_a_stack():
    S = np.array([[2.0, 1.0], [1.0, 3.0]])
    numkit.require_symmetric(S, "matrix", "M")
    numkit.require_symmetric(np.stack([S, 2.0 * S]), "hessian", "H")
    bad = S + np.array([[0.0, 0.25], [0.0, 0.0]])
    with pytest.raises(ContractError, match=r"^matrix is not symmetric: max \|M - M\^T\| = 2\.500e-01$"):
        numkit.require_symmetric(bad, "matrix", "M")
    # The first asymmetric matrix of a stack is named.
    with pytest.raises(ContractError, match=r"max \|H - H\^T\| = 5\.000e-01$"):
        numkit.require_symmetric(np.stack([S, 2.0 * bad, bad]), "hessian", "H")
    # Asymmetry is measured against each matrix's own magnitude.
    numkit.require_symmetric(1e12 * S + np.array([[0.0, 1.0], [0.0, 0.0]]), "matrix", "M")


def test_frame_qrs_take_the_gram_condition_from_r():
    # cond(T^t T) = cond(R)^2 exactly; the old eigenvalue ratio of the formed
    # Gram lost about half the digits at condition 1e10 (1.5e-6 relative).
    rng = np.random.default_rng(14)
    frames = np.stack([_matrix_with_condition(rng, 8, 3, condition=c) for c in (1e3, 1e5)])
    Q, R, cond, refused = numkit.frame_qrs(frames, 1e8)
    assert_allclose(cond, [1e6, 1e10], rtol=1e-9)
    assert refused[0] is None and Q.shape == (2, 8, 3) and R.shape == (2, 3, 3)
    # every frame is factored, refused or not; Q is orthonormal and spans T
    assert_allclose(Q @ R, frames, atol=1e-12)
    assert_allclose(np.swapaxes(Q, 1, 2) @ Q, np.broadcast_to(np.eye(3), (2, 3, 3)), atol=1e-14)
    assert refused[1].condition == cond[1]
    assert str(refused[1]) == f"frame Gram condition {cond[1]:.3e} exceeds limit 1.000e+08"
