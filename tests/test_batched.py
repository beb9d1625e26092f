"""The batched general evaluator and the stacked derivative forms.

``evaluate_points`` runs each stage of the general formula over a stack of
points. Its records must equal, record for record and bit for bit, those of
``laplace_beltrami_general`` at each point alone, whatever the chunking; the
stacked numpy kernels it relies on are pinned against per-matrix calls here.
"""

import json
import tracemalloc

import numpy as np
import pytest

from lapbel import constraint_core, numkit, orthogonal, sphere
from lapbel.cli import main
from lapbel import oracles
from lapbel.constraint_core import (
    AdaptedFrame,
    BlockProductSet,
    ConstraintSet,
    ScalarField,
    _gradient_qrs,
    _hessians_at,
    _projected_traces,
    constant_field,
    evaluate_points,
    finite_difference_field,
    laplace_beltrami_general,
    linear_field,
    polynomial_field,
    qr_nullspace_frame,
)
from lapbel.errors import (
    ChartError,
    ContractError,
    DimensionError,
    DomainError,
    LapbelError,
    RegularityError,
)
from lapbel.numkit import Tolerances
from lapbel.verify import _SALT_ORACLE, _rng, random_polynomial_field, random_symmetric


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- stacked numpy kernels against per-matrix calls -------------------------

# (m, k): the sphere (k = 1), the Clifford torus, and the O(n) general path
# (k = n(n+1)/2 constraints, r = m - k tangent directions), up to O(8).
SHAPES = [(3, 1), (5, 1), (4, 2), (9, 6), (25, 15), (64, 36)]


@pytest.mark.parametrize("m, k", SHAPES)
def test_stacked_linalg_matches_per_matrix_calls_bit_for_bit(m, k):
    rng = np.random.default_rng([4, m, k])
    N, r = 5, m - k
    J = rng.standard_normal((N, k, m))
    g = rng.standard_normal((N, m))
    H = rng.standard_normal((N, m, m))
    Hc = rng.standard_normal((k, m, m))
    T = rng.standard_normal((N, m, r))

    Q, R = np.linalg.qr(np.swapaxes(J, 1, 2))
    b = np.swapaxes(Q, 1, 2) @ g[:, :, None]
    sigma = np.linalg.solve(R, b)[:, :, 0]
    G = np.swapaxes(T, 1, 2) @ T
    w = np.linalg.eigvalsh((G + np.swapaxes(G, 1, 2)) / 2.0)
    QT, RT = np.linalg.qr(T)
    T_plus = np.linalg.solve(RT, np.swapaxes(QT, 1, 2))
    Qs = Q[:, None]
    none_traces = np.trace(Hc, axis1=-2, axis2=-1) - np.sum(Qs * (Hc @ Qs), axis=(-2, -1))
    field_traces = np.trace(H, axis1=-2, axis2=-1) - np.sum(Q * (H @ Q), axis=(-2, -1))
    frame_traces = np.trace(T_plus[:, None] @ Hc @ T[:, None], axis1=-2, axis2=-1)
    for i in range(N):
        Qi, Ri = np.linalg.qr(J[i].T)
        assert same_bits(Q[i], Qi) and same_bits(R[i], Ri)
        assert same_bits(b[i, :, 0], Qi.T @ g[i])
        assert same_bits(sigma[i], np.linalg.solve(Ri, Qi.T @ g[i]))
        Gi = T[i].T @ T[i]
        assert same_bits(G[i], Gi)
        assert same_bits(w[i], np.linalg.eigvalsh((Gi + Gi.T) / 2.0))
        QTi, RTi = np.linalg.qr(T[i])
        assert same_bits(T_plus[i], np.linalg.solve(RTi, QTi.T))
        Hi = H[i]
        assert same_bits(
            field_traces[i], np.trace(Hi) - np.sum(Qi * (Hi @ Qi), axis=(-2, -1))
        )
        assert same_bits(
            none_traces[i],
            np.trace(Hc, axis1=-2, axis2=-1) - np.sum(Qi * (Hc @ Qi), axis=(-2, -1)),
        )
        assert same_bits(
            frame_traces[i], np.trace(T_plus[i] @ Hc @ T[i], axis1=-2, axis2=-1)
        )


# -- stacked derivative forms -----------------------------------------------


def random_sparse_terms(rng, dim, count=14, degree=5):
    """Terms on at most three variables, often sharing the first few, so
    that table entries collect several contributions."""
    terms = []
    for t in range(count):
        powers = np.zeros(dim, dtype=int)
        pool = min(dim, 4) if t % 2 else dim
        support = rng.integers(0, pool, size=3)
        for _ in range(int(rng.integers(0, degree + 1))):
            powers[support[rng.integers(0, 3)]] += 1
        terms.append((float(rng.uniform(-1.0, 1.0)), powers))
    return terms


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 50])
def test_polynomial_stacked_forms_match_the_per_point_forms_row_by_row(dim):
    rng = np.random.default_rng([7, dim])
    f = polynomial_field(dim, random_sparse_terms(rng, dim))
    X = rng.uniform(-1.5, 1.5, size=(40, dim))
    X[::5, : (dim + 1) // 2] = 0.0  # 0.0 ** 0 == 1 in the stacked pass too
    values = np.array([f.value_fn(x) for x in X])
    gradients = np.stack([f.gradient_fn(x) for x in X])
    hessians = np.stack([f.hessian_fn(x) for x in X])
    assert same_bits(f.values_fn(X), values)
    assert same_bits(f.gradients_fn(X), gradients)
    assert same_bits(f.hessians_fn(X), hessians)
    # an F-ordered stack reaches the stacked forms as C-ordered rows
    F = np.asfortranarray(X)
    assert same_bits(f.values(F), values)
    assert same_bits(f.gradients(F), gradients)
    assert same_bits(f.hessians(F), hessians)


def test_an_f_ordered_geodesic_stack_has_the_per_point_values():
    # verify's oracle n = 3 sphere polynomial on the two geodesic steps of
    # each tangent direction: the stacked dot over the strided monomial rows
    # of this F-ordered stack was 1 ulp off the per-point value in 3 rows
    rng = _rng(_SALT_ORACLE, 3, 9999)
    point = sphere.random_sphere_point(3, 1.0, rng)
    f = random_polynomial_field(rng, 3, degree=4)
    B, x = oracles._sphere_tangent_basis(point, None), point.coords
    ch, sh = np.cos(1e-2), np.sin(1e-2)
    X = np.concatenate([ch * x + sh * B.T, ch * x - sh * B.T])
    assert X.flags.f_contiguous and not X.flags.c_contiguous
    assert same_bits(f.values(X), np.array([f.value_fn(r) for r in X]))


def test_polynomial_stacked_forms_do_not_depend_on_the_chunk_size(monkeypatch):
    rng = np.random.default_rng(12)
    f = polynomial_field(6, random_sparse_terms(rng, 6))
    X = rng.standard_normal((37, 6))
    whole = (f.values_fn(X), f.gradients_fn(X), f.hessians_fn(X))
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 1000)  # a few rows per pass
    assert all(
        same_bits(a, b) for a, b in zip(whole, (f.values_fn(X), f.gradients_fn(X), f.hessians_fn(X)))
    )


def orthogonal_fields(rng, n):
    """The O(n) fields with stacked forms, and the linear and constant ones."""
    A, B = random_symmetric(rng, n), rng.standard_normal((n, n))
    return [
        orthogonal.brockett_field(A, rng.uniform(-1.0, 1.0, n)),
        orthogonal.p1_field(B),
        orthogonal.p11_field(B),
        orthogonal.p2_field(B),
        linear_field(rng.standard_normal(n * n)),
        constant_field(n * n, 2.5),
    ]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_orthogonal_field_gradients_match_the_per_point_form(n):
    rng = np.random.default_rng([8, n])
    X = rng.standard_normal((9, n * n))
    for f in orthogonal_fields(rng, n):
        assert same_bits(f.gradients(X), np.stack([f.gradient_fn(x) for x in X]))
        assert same_bits(f.values(X), np.array([f.value_fn(x) for x in X]))


def test_orthogonal_field_gradients_refuse_a_non_finite_row_as_vec_does():
    # the per-point gradients raise in ``vec``; the stacked ones raise the same
    # error, so a chunk's one-row re-run gives each row its per-point record.
    # Every row has an entry of magnitude >= 1.7e308 / sqrt(2), so 2 U overflows.
    X = 1.7e308 * np.stack([orthogonal.random_orthogonal(2, s).to_vector() for s in range(3)])
    with np.errstate(over="ignore", invalid="ignore"):
        for f in (orthogonal.brockett_field(np.eye(2), [1.0, 1.0]), orthogonal.p2_field(np.eye(2))):
            with pytest.raises(DimensionError, match="vec input contains non-finite entries"):
                f.gradient_fn(X[0])
            with pytest.raises(DimensionError, match="vec input contains non-finite entries"):
                f.gradients(X)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_constant_hessian_stacks_are_read_only_views_of_the_per_point_hessian(n):
    rng = np.random.default_rng([9, n])
    X = rng.standard_normal((6, n * n))
    for f in orthogonal_fields(rng, n):
        H = f.hessians(X)
        assert H.shape == (6, n * n, n * n) and not H.flags.writeable
        assert H.strides[0] == 0  # one matrix, not a copy per row
        with pytest.raises(ValueError):
            H[0, 0, 0] = 1.0
        for x, h in zip(X, H):
            assert same_bits(h, f.hessian_fn(x))


def test_an_asymmetric_constant_hessian_is_refused_on_every_row():
    Ha = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    f = ScalarField(
        3,
        lambda u: float(u @ Ha @ u) / 2.0,
        lambda u: Ha @ u,
        lambda u: Ha.copy(),
        hessians_fn=constraint_core._repeated(Ha),
    )
    cons = sphere.sphere_constraint_set(3, 1.0)
    X = np.eye(3)
    for frame in (sphere.sphere_adapted_frame(1.0), None):
        records = assert_matches_per_row(f, cons, frame, X)
        assert [str(r) for r in records] == ["hessian is not symmetric: max |H - H^T| = 1.000e+00"] * 3


def test_block_product_gradients_match_the_per_point_form():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 9))
    for field in orthogonal.on_constraint_set(3).fields:
        assert same_bits(field.gradients(X), np.stack([field.gradient_fn(x) for x in X]))


def test_stacked_derivatives_fall_back_to_the_rows_and_check_shapes():
    f = ScalarField(2, lambda u: float(u @ u), lambda u: 2.0 * u, lambda u: 2.0 * np.eye(2))
    X = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])
    assert same_bits(f.gradients(X), 2.0 * X)
    assert same_bits(f.hessians(X), np.stack([2.0 * np.eye(2)] * 3))
    assert f.gradients(np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(DimensionError):
        f.gradients(np.zeros((3, 5)))
    bad = ScalarField(2, f.value_fn, lambda u: np.zeros(3), f.hessian_fn)
    with pytest.raises(DimensionError, match="gradient has shape"):
        bad.gradients(X)
    bad = ScalarField(2, f.value_fn, f.gradient_fn, f.hessian_fn, gradients_fn=lambda X: X[:, :1])
    with pytest.raises(DimensionError, match="gradient stack has shape"):
        bad.gradients(X)


# -- one form per derivative --------------------------------------------------


def built_in_fields(rng, n):
    """A field of every built-in family on R^(n*n): the O(n) fields, the
    linear and constant ones, a polynomial, then the O(n) block products."""
    fields = orthogonal_fields(rng, n) + [random_polynomial_field(rng, n * n, degree=4)]
    return fields, list(orthogonal.on_constraint_set(n).fields)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_every_built_in_family_has_stacked_values_and_gradients(n):
    # so none falls back to the row loop unnoticed; a block product keeps its
    # per-point Hessian as its only form, since a stacked one would be dense
    fields, blocks = built_in_fields(np.random.default_rng([10, n]), n)
    for f in fields + blocks:
        assert f.values_fn is not None and f.gradients_fn is not None
    assert all(f.hessians_fn is not None for f in fields)
    assert all(f.hessians_fn is None for f in blocks)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_every_built_in_family_takes_an_empty_stack(n):
    m = n * n
    X = np.zeros((0, m))
    fields, blocks = built_in_fields(np.random.default_rng([11, n]), n)
    for f in fields + blocks:
        assert f.values(X).shape == (0,)
        assert f.gradients(X).shape == (0, m)
        assert f.hessians(X).shape == (0, m, m)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_per_point_derivatives_are_writable_rows_of_the_stacks(n):
    rng = np.random.default_rng([12, n])
    X = rng.standard_normal((4, n * n))
    fields, blocks = built_in_fields(rng, n)
    for f in fields + blocks:
        for x, g, h in zip(X, f.gradients(X), f.hessians(X)):
            gradient, hessian = f.gradient(x), f.hessian(x)
            assert gradient.flags.writeable and hessian.flags.writeable
            assert same_bits(gradient, g) and same_bits(hessian, h)


def test_a_filled_in_per_point_form_reads_a_strided_point_as_its_copy():
    # a column of a C-ordered matrix has stride 3 doubles, and a ddot over a
    # strided row rounds differently from the unit-stride one
    rng = np.random.default_rng(16)
    u = rng.standard_normal((25, 3))[:, 0]
    fields, blocks = built_in_fields(rng, 5)
    for f in fields + blocks:
        assert f.value_fn(u) == f.value_fn(u.copy())
        assert same_bits(f.gradient_fn(u), f.gradient_fn(u.copy()))
        assert same_bits(f.hessian_fn(u), f.hessian_fn(u.copy()))


def test_a_broadcast_constant_hessian_is_checked_once_not_once_per_row():
    # checked row by row, the stride-0 stack of 32 O(8) Brockett rows makes a
    # 1.1 MB (N, 1, m, m) difference array; the one 64 x 64 matrix, 32 kB
    rng = np.random.default_rng(13)
    f = orthogonal.brockett_field(random_symmetric(rng, 8), rng.uniform(-1.0, 1.0, 8))
    X = np.stack([orthogonal.random_orthogonal(8, s).to_vector() for s in range(32)])
    tracemalloc.start()
    try:
        H, errors = constraint_core._hessians_at((f,), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.strides[0] == 0 and errors == [None] * 32
    assert peak < 256 * 1024


def cubic_sum(dim):
    """sum(u_i^3) on R^dim from stacked forms only."""
    return ScalarField(
        dim,
        values_fn=lambda X: (X**3).sum(axis=1),
        gradients_fn=lambda X: 3.0 * X**2,
        hessians_fn=lambda X: 6.0 * X[:, :, None] * np.eye(dim),
    )


def test_a_field_of_stacked_forms_only_works_wherever_a_field_does():
    f = cubic_sum(3)
    u = np.array([0.6, -0.8, 0.0])
    assert f.value(u) == f.values_fn(u[None])[0]
    assert same_bits(f.gradient(u), 3.0 * u**2)
    assert same_bits(f.hessian(u), 6.0 * u[:, None] * np.eye(3))
    double = f + f  # arithmetic reads the filled-in per-point forms
    assert double.value(u) == 2.0 * f.value(u)
    assert same_bits(double.hessian(u), 2.0 * f.hessian(u))
    fd = finite_difference_field(f, 3)
    assert np.allclose(fd.gradient(u), f.gradient(u), rtol=0.0, atol=1e-8)
    assert np.allclose(fd.hessian(u), f.hessian(u), rtol=0.0, atol=1e-6)
    rng = np.random.default_rng(15)
    X = sphere_stack(rng, 3, 1.0, 12)
    cons = sphere.sphere_constraint_set(3, 1.0)
    rows = ScalarField(3, f.value_fn, f.gradient_fn, f.hessian_fn)  # row by row
    for frame in (sphere.sphere_adapted_frame(1.0), None):
        records = assert_matches_per_row(f, cons, frame, X)
        assert all(map(same_outcome, records, evaluate_points(rows, cons, frame, X)))
        x = X[0]
        expected = sphere.sphere_laplacian(f, sphere.SpherePoint(x, 1.0))
        assert abs(records[0].value - expected) < 1e-12


def test_arithmetic_on_built_in_fields_reads_their_one_row_forms():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((3, 3))
    p11, p2 = orthogonal.p11_field(A), orthogonal.p2_field(A)
    combo = p11 - p2  # as verify's theorem-equivalence suite builds it
    X = rng.standard_normal((5, 9))
    assert None not in (combo.values_fn, combo.gradients_fn, combo.hessians_fn)
    assert same_bits(combo.values(X), p11.values(X) - p2.values(X))
    assert same_bits(combo.gradients(X), p11.gradients(X) - p2.gradients(X))
    assert same_bits(combo.hessians(X), p11.hessians(X) - p2.hessians(X))


def test_a_stacked_value_form_of_the_wrong_shape_is_refused():
    f = cubic_sum(2)
    bad = ScalarField(
        2,
        values_fn=lambda X: f.values_fn(X)[:, None],
        gradients_fn=f.gradients_fn,
        hessians_fn=f.hessians_fn,
    )
    for call in (lambda: bad.values(np.ones((3, 2))), lambda: bad.value([1.0, 2.0])):
        with pytest.raises(DimensionError, match=r"value stack has shape \(\d, 1\)"):
            call()


@pytest.mark.parametrize("missing", ["value", "gradient", "hessian"])
def test_a_field_with_neither_form_of_a_derivative_is_refused(missing):
    f = cubic_sum(2)
    forms = {"values_fn": f.values_fn, "gradients_fn": f.gradients_fn, "hessians_fn": f.hessians_fn}
    del forms[f"{missing}s_fn"]
    with pytest.raises(ContractError, match=f"needs {missing}_fn or {missing}s_fn"):
        ScalarField(2, **forms)


# -- evaluate_points against the per-point evaluator ------------------------


def outcome(call):
    try:
        return call()
    except LapbelError as exc:
        return exc


def same_outcome(a, b) -> bool:
    if isinstance(a, LapbelError) or isinstance(b, LapbelError):
        return (
            type(a) is type(b)
            and str(a) == str(b)
            and getattr(a, "residual", None) == getattr(b, "residual", None)
            and getattr(a, "condition", None) == getattr(b, "condition", None)
        )
    return all(
        same_bits(getattr(a, key), getattr(b, key))
        for key in ("value", "sigma", "trace_main", "trace_constraint", "frame_gram_condition")
    )


def assert_matches_per_row(f, constraints, frame, X, tols=None):
    batched = evaluate_points(f, constraints, frame, X, tols)
    single = [outcome(lambda: laplace_beltrami_general(f, constraints, frame, x, tols)) for x in X]
    assert len(batched) == len(X)
    for i, (a, b) in enumerate(zip(batched, single)):
        assert same_outcome(a, b), (i, a, b)
    return batched


def sphere_stack(rng, n, radius, rows):
    """Points on the sphere, with rows 2 and 9 off it, row 4 huge, and
    rows 6 and 7 with a zero first coordinate."""
    X = rng.standard_normal((rows, n))
    X[6:8, 0] = 0.0
    X = radius * X / np.linalg.norm(X, axis=1, keepdims=True)
    X[2] *= 1.01
    X[9] *= 0.9
    X[4] = 0.0
    X[4, 0] = 1e200
    return X


@pytest.mark.parametrize("chart", [None, 0])
@pytest.mark.parametrize("with_frame", [True, False])
def test_evaluate_points_equals_the_per_row_evaluator_across_chunks(monkeypatch, with_frame, chart):
    # the sphere in R^4 counts the field's m^2 = 16 doubles per row, so 400 bytes
    # gives chunks of 3 rows: errors fall on both sides of chunk boundaries
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 400)
    rng = np.random.default_rng([21, chart is None])
    n, radius = 4, 1.5
    f = random_polynomial_field(rng, n, degree=4)
    cons = sphere.sphere_constraint_set(n, radius)
    frame = sphere.sphere_adapted_frame(radius, excluded_index=chart) if with_frame else None
    records = assert_matches_per_row(f, cons, frame, sphere_stack(rng, n, radius, 14))
    kinds = {type(r).__name__ for r in records}
    assert {"LaplacianReport", "DomainError"} <= kinds
    if with_frame and chart == 0:
        assert isinstance(records[6], ChartError) and isinstance(records[7], ChartError)


def test_evaluate_points_on_the_orthogonal_group_across_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    for n in (3, 4):
        X = np.stack([orthogonal.random_orthogonal(n, s).to_vector() for s in range(11)])
        X[[2, 3, 7]] *= 1.001
        X[[5, 9], :n] *= np.sqrt(1.0 + 1.5e-8)  # admitted, but not orthogonal
        blocks = orthogonal.on_constraint_set(n)
        dense = ConstraintSet(blocks.ambient_dim, blocks.fields, blocks.regular_value)
        brockett = orthogonal.brockett_field(random_symmetric(rng, n), rng.uniform(-1.0, 1.0, n))
        quartic = random_polynomial_field(rng, n * n, degree=4)
        # chunks of 3 rows: a row builds the field's Hessian, m^2 doubles, and
        # the dense copy k m^2 more
        for cons, stacks in ((blocks, 1), (dense, 1 + blocks.count)):
            monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 3 * 8 * stacks * n**4)
            for f in (brockett, quartic):
                for frame in (orthogonal.on_adapted_frame(), None):
                    assert_matches_per_row(f, cons, frame, X)
    tight = Tolerances(condition_limit=0.5)  # the O(n) frame Gram is 2 I, condition 1
    records = assert_matches_per_row(brockett, blocks, orthogonal.on_adapted_frame(), X, tight)
    assert {type(r).__name__ for r in records} == {"SingularityError", "DomainError"}


def planes_with_faults(raising):
    """The planes x^2 - y^2 = 0 in R^3 and a field whose gradient raises at
    the third row when ``raising`` and whose Hessian is asymmetric where
    z > 1."""

    def gradient(u):
        if raising and u[2] == 0.5:
            raise ContractError("no gradient at z = 1/2")
        return np.array([u[1], u[0], np.inf if u[2] == 2.0 else 3.0 * u[2] ** 2])

    def hessian(u):
        H = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 6.0 * u[2]]])
        if u[2] > 1.0:
            H[0, 2] += u[2]
        return H

    f = ScalarField(3, lambda u: float(u[0] * u[1] + u[2] ** 3), gradient, hessian)
    planes = polynomial_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    cons = ConstraintSet(ambient_dim=3, fields=(planes,), regular_value=[0.0])
    X = np.array(
        [
            [1.0, 1.0, 0.3],
            [0.0, 0.0, 1.0],  # rank deficient
            [0.7, -0.7, 0.5],  # the field's gradient may raise
            [1.0, 0.5, 0.0],  # off the manifold
            [0.4, 0.4, 2.0],  # non-finite field gradient
            [2.0, -2.0, 1.5],  # asymmetric field Hessian
            [1e200, 0.0, 0.0],  # residual inf
            [-0.3, 0.3, -1.2],
        ]
    )
    return f, cons, X


@pytest.mark.parametrize("raising", [True, False])
@pytest.mark.parametrize("budget", [1000, 150, 100])  # 144 bytes a row
def test_every_row_gets_its_own_first_error(monkeypatch, budget, raising):
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", budget)
    f, cons, X = planes_with_faults(raising)
    records = assert_matches_per_row(f, cons, None, X)
    assert [type(r).__name__ for r in records] == [
        "LaplacianReport",
        "RegularityError",
        "ContractError" if raising else "LaplacianReport",
        "DomainError",
        "DimensionError",
        "ContractError",
        "DomainError",
        "LaplacianReport",
    ]
    assert "residual 0.75 " in str(records[3]) and records[3].residual == 0.75
    assert "residual inf " in str(records[6])
    if raising:
        assert str(records[2]) == "no gradient at z = 1/2"
    assert str(records[5]) == "hessian is not symmetric: max |H - H^T| = 1.500e+00"


def test_the_frame_provider_sees_only_admitted_rows_once_per_chunk(monkeypatch):
    seen = []
    cons = sphere.sphere_constraint_set(3, 1.0)
    inner = sphere.sphere_adapted_frame(1.0)

    def provider(U):
        seen.append(U.copy())
        return inner.at(U)

    X = sphere_stack(np.random.default_rng(2), 3, 1.0, 12)
    f = random_polynomial_field(np.random.default_rng(3), 3, degree=3)
    records = evaluate_points(f, cons, AdaptedFrame(provider), X)
    admitted = [i for i, r in enumerate(records) if not isinstance(r, LapbelError)]
    assert len(admitted) == len(X) - 3 and len(seen) == 1
    assert same_bits(seen[0], X[admitted])
    # chunks of 5 rows (the field's m^2 = 9 doubles a row): one call each
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 5 * 8 * 9)
    seen.clear()
    assert all(map(same_outcome, evaluate_points(f, cons, AdaptedFrame(provider), X), records))
    assert len(seen) == 3 and same_bits(np.concatenate(seen), X[admitted])


# -- stacked frames against independent references ----------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_on_frame_is_the_flattened_theta_products(n):
    U = np.stack([orthogonal.random_orthogonal(n, [n, s]).matrix for s in range(5)])
    T = orthogonal.on_adapted_frame().at(np.stack([numkit.vec(u) for u in U]))
    basis = orthogonal.theta_basis(n)
    # + 0.0 turns the -0.0 of negative entries times zero into 0.0
    reference = np.stack([np.stack([numkit.vec(u @ theta) for theta in basis], axis=1) for u in U])
    assert same_bits(T, reference + 0.0)


def test_the_stacked_on_frame_refuses_a_row_that_is_not_orthogonal():
    X = np.stack([orthogonal.random_orthogonal(3, s).to_vector() for s in range(4)])
    X[2, :3] *= np.sqrt(1.0 + 1.5e-8)  # column 0 of row 2
    frame = orthogonal.on_adapted_frame()
    with pytest.raises(DomainError, match="= 1.5e-08 exceeds") as stacked:
        frame.at(X)
    with pytest.raises(DomainError) as single:
        frame.at(X[2])
    assert str(stacked.value) == str(single.value)
    assert stacked.value.residual == single.value.residual
    assert same_bits(frame.at(X[[0, 1, 3]]), np.stack([frame.at(x) for x in X[[0, 1, 3]]]))


@pytest.mark.parametrize("n, radius", [(2, 1.0), (3, 1.0), (5, 2.5), (8, 0.5)])
def test_stacked_sphere_frame_is_the_chart_frame_of_each_row(n, radius):
    rng = np.random.default_rng([10, n])
    X = rng.standard_normal((3 * n, n))
    X[np.arange(3 * n), np.arange(3 * n) % n] += 4.0  # every chart index is taken
    X = radius * X / np.linalg.norm(X, axis=1, keepdims=True)
    T = sphere.sphere_adapted_frame(radius).at(X)
    for x, t in zip(X, T):
        j = int(np.argmax(np.abs(x)))
        keep = [i for i in range(n) if i != j]
        assert same_bits(t, radius**2 * np.eye(n)[:, keep] - np.outer(x, x[keep]))
        assert same_bits(t, sphere.sphere_frame(sphere.SpherePoint(x, radius), j))


def test_the_stacked_sphere_frame_refuses_a_row_at_the_chart_edge():
    X = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [0.8, 0.0, 0.6]])
    frame = sphere.sphere_adapted_frame(1.0, excluded_index=0)
    with pytest.raises(ChartError, match="coordinate 0 is too small") as info:
        frame.at(X)
    assert info.value.suggested_index == 2
    T = frame.at(X[[0, 2]])
    assert same_bits(T, np.stack([sphere.sphere_frame(sphere.SpherePoint(x, 1.0), 0) for x in X[[0, 2]]]))
    records = evaluate_points(linear_field([1.0, 2.0, 3.0]), sphere.sphere_constraint_set(3, 1.0), frame, X)
    assert [type(r).__name__ for r in records] == ["LaplacianReport", "ChartError", "LaplacianReport"]


def test_the_stacked_sphere_frame_admits_every_row_at_its_tolerance():
    X = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [1.00001, 0.0, 0.0]])  # row 2: residual 2e-5
    with pytest.raises(DomainError, match="point is off the sphere") as info:
        sphere.sphere_adapted_frame(1.0).at(X)
    assert info.value.residual == abs(float(X[2] @ X[2]) - 1.0)
    T = sphere.sphere_adapted_frame(1.0, tol=1e-2).at(X)
    assert same_bits(T[2], sphere.sphere_frame(sphere.SpherePoint(X[2], 1.0, tol=1e-2)))


def circle_at_height_one():
    """The sphere of radius sqrt(2) cut by the plane x3 = 1: two
    constraints in R^3."""
    return ConstraintSet(
        ambient_dim=3,
        fields=(
            polynomial_field(3, [(1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2))]),
            linear_field([0.0, 0.0, 1.0]),
        ),
        regular_value=[2.0, 1.0],
    )


def test_stacked_qr_frame_is_the_complete_qr_of_each_row():
    for cons, X in (
        (sphere.sphere_constraint_set(4, 1.5), sphere_stack(np.random.default_rng(4), 4, 1.5, 12)[[0, 1, 3, 5, 8]]),
        (circle_at_height_one(), np.array([[np.cos(t), np.sin(t), 1.0] for t in np.linspace(0.0, 6.0, 7)])),
    ):
        T = qr_nullspace_frame(cons).at(X)
        assert T.flags.c_contiguous  # not the strided trailing columns of Q
        for x, t in zip(X, T):
            Q, _ = np.linalg.qr(cons.jacobian(x).T, mode="complete")
            assert same_bits(t, Q[:, cons.count :])


def test_the_stacked_qr_frame_refuses_a_rank_deficient_row():
    planes = ConstraintSet(3, (polynomial_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))]),), [0.0])
    X = np.array([[1.0, 1.0, 0.3], [0.0, 0.0, 1.0], [-0.5, 0.5, 2.0]])
    frame = qr_nullspace_frame(planes)
    with pytest.raises(RegularityError):
        frame.at(X)
    with pytest.raises(RegularityError):
        frame.at(X[1])
    assert frame.at(X[[0, 2]]).shape == (2, 3, 2)


# -- block-product traces against the dense constraint Hessians ---------------


def block_product_cases():
    """(constraint set, frame, points): the sphere n = 2..6 at the verify
    radii and O(2..6)."""
    for n in range(2, 7):
        for radius in (1.0, 2.5):
            rng = np.random.default_rng([n, int(10 * radius)])
            points = [sphere.random_sphere_point(n, radius, rng).coords for _ in range(4)]
            yield pytest.param(
                sphere.sphere_constraint_set(n, radius),
                sphere.sphere_adapted_frame(radius),
                np.stack(points),
                id=f"sphere-n{n}-R{radius}",
            )
        points = [orthogonal.random_orthogonal(n, [n, s]).to_vector() for s in range(4)]
        yield pytest.param(
            orthogonal.on_constraint_set(n), orthogonal.on_adapted_frame(), np.stack(points), id=f"O({n})"
        )


@pytest.mark.parametrize("cons, frame, U", block_product_cases())
def test_block_traces_equal_the_dense_hessian_traces(cons, frame, U):
    assert isinstance(cons, BlockProductSet)
    Q, _, deficient = _gradient_qrs(np.stack([cons.jacobian(u) for u in U]))
    T = np.stack([frame.at(u) for u in U])
    Q_T, _, _, refused = numkit.frame_qrs(T, 1e12)
    assert not deficient.any() and refused == [None] * len(U)
    for basis, normal in ((Q, True), (Q_T, False)):
        block, errors = cons.projected_traces(U, basis, normal)
        assert errors == [None] * len(U) and block.flags.c_contiguous
        H, errors = _hessians_at(cons.fields, U)
        assert errors == [None] * len(U)
        dense = np.concatenate(
            [_projected_traces(H[i : i + 1], basis[i : i + 1], normal) for i in range(len(U))]
        )
        assert block.shape == dense.shape == (len(U), cons.count)
        assert np.all(np.abs(block - dense) <= 1e-13 * np.maximum(1.0, np.abs(dense)))


def block_sets():
    """(block product set, points): the sphere n = 2, 3, 50 at radius 1 and 2,
    rows 2 and 9 off it and row 4 huge, and O(2..8), rows 2 and 7 off the
    group and row 4 huge, so that its residual overflows."""
    for n in (2, 3, 50):
        for radius in (1.0, 2.0):
            X = sphere_stack(np.random.default_rng([n, int(radius)]), n, radius, 14)
            yield pytest.param(sphere.sphere_constraint_set(n, radius), X, id=f"sphere-n{n}-R{radius}")
    for n in range(2, 9):
        X = np.stack([orthogonal.random_orthogonal(n, [n, s]).to_vector() for s in range(10)])
        X[[2, 7]] *= 1.001
        X[4] = 0.0
        X[4, 0] = 1e200
        yield pytest.param(orthogonal.on_constraint_set(n), X, id=f"O({n})")


@pytest.mark.parametrize("cons, X", block_sets())
def test_block_residuals_and_jacobians_are_the_per_field_bits(cons, X):
    assert isinstance(cons, BlockProductSet)
    for method in ("residuals_at", "jacobians_at"):
        assert same_bits(getattr(cons, method)(X), getattr(ConstraintSet, method)(cons, X)), method
    assert np.isinf(cons.residuals_at(X)[4]).any()
    per_field = ConstraintSet(cons.ambient_dim, cons.fields, cons.regular_value)
    for bad in (X[:, 1:], X[0]):  # stacks of another shape are refused alike
        for method in ("residuals_at", "jacobians_at"):
            a, b = (outcome(lambda: getattr(s, method)(bad)) for s in (cons, per_field))
            assert isinstance(a, DimensionError) and same_outcome(a, b)


@pytest.mark.parametrize("cons, X", block_sets())
def test_block_sets_admit_as_the_per_field_route_across_chunks(monkeypatch, cons, X):
    # chunks of 3 rows for the block set (the field's m^2 doubles a row)
    m = cons.ambient_dim
    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", 3 * 8 * m * m)
    f = random_polynomial_field(np.random.default_rng(m), m, degree=3)
    per_field = ConstraintSet(m, cons.fields, cons.regular_value)
    blocks = evaluate_points(f, cons, None, X)
    for a, b in zip(blocks, evaluate_points(f, per_field, None, X)):
        if isinstance(b, LapbelError):
            assert same_outcome(a, b)
        else:  # the multipliers come from the same Jacobians
            assert same_bits(a.sigma, b.sigma) and a.frame_gram_condition == b.frame_gram_condition
    assert isinstance(blocks[4], DomainError) and "residual inf " in str(blocks[4])
    assert sum(isinstance(r, DomainError) for r in blocks) == 3


def test_a_frame_refusal_stays_on_its_rows():
    # rows 2 and 5 are admitted by the constraints, but the frame refuses
    # them as not orthogonal: each row is asked alone, and the other rows
    # stay stacked, with one gradient and one Hessian call for the chunk
    n, calls = 3, []
    X = np.stack([orthogonal.random_orthogonal(n, [7, s]).to_vector() for s in range(8)])
    X[[2, 5], :n] *= np.sqrt(1.0 + np.array([[1.5e-8], [1.2e-8]]))
    inner = orthogonal.on_adapted_frame()
    brockett = orthogonal.brockett_field(random_symmetric(np.random.default_rng(4), n), [0.3, -0.5, 0.9])

    def counted(name, derivative):
        return lambda U: (calls.append((name, len(U))), derivative(U))[1]

    frame = AdaptedFrame(counted("frame", inner.at))
    f = ScalarField(
        n * n,
        values_fn=brockett.values,
        gradients_fn=counted("gradients", brockett.gradients),
        hessians_fn=counted("hessians", brockett.hessians),
    )
    records = evaluate_points(f, orthogonal.on_constraint_set(n), frame, X)
    assert calls == [("gradients", 8), ("frame", 8)] + [("frame", 1)] * 8 + [("hessians", 6)]
    single = [outcome(lambda: laplace_beltrami_general(f, orthogonal.on_constraint_set(n), frame, x)) for x in X]
    assert all(map(same_outcome, records, single))
    assert [i for i, r in enumerate(records) if isinstance(r, DomainError)] == [2, 5]
    assert str(records[2]) != str(records[5])
    assert str(records[2]).startswith("matrix is not orthogonal: max |U^t U - I| =")


def test_an_o20_general_point_builds_no_dense_constraint_hessians():
    # The dense route kept a 210 x 400 x 400 constraint Hessian stack (269 MB)
    # and peaked at 773 MB here.
    rng = np.random.default_rng(20)
    A, mu = random_symmetric(rng, 20), rng.uniform(-1.0, 1.0, 20)
    point = orthogonal.random_orthogonal(20, 3)
    closed = orthogonal.on_laplacian(orthogonal.brockett_field(A, mu), point).value
    for frame in (orthogonal.on_adapted_frame(), None):
        tracemalloc.start()
        try:
            f = orthogonal.brockett_field(A, mu)
            cons = orthogonal.on_constraint_set(20)
            report = laplace_beltrami_general(f, cons, frame, point.to_vector())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert abs(report.value - closed) <= 1e-8 * max(1.0, abs(closed))


def test_evaluate_points_refuses_a_stack_of_the_wrong_dimension():
    cons = sphere.sphere_constraint_set(3, 1.0)
    f = random_polynomial_field(np.random.default_rng(0), 3, degree=2)
    with pytest.raises(DimensionError, match="one ambient dimension"):
        evaluate_points(f, cons, None, np.zeros((2, 4)))
    with pytest.raises(DimensionError, match="one ambient dimension"):
        evaluate_points(f, cons, None, np.zeros(3))
    assert evaluate_points(f, cons, None, np.zeros((0, 3))) == []


def test_chunks_stay_within_the_byte_budget():
    assert constraint_core._chunks(10, 3 * constraint_core._CHUNK_BYTES) == [
        slice(i, i + 1) for i in range(10)
    ]
    slices = constraint_core._chunks(1000, 8 * 2 * 4 * 4)
    assert slices[0] == slice(0, 1000)
    slices = constraint_core._chunks(200, 8 * 36 * 64 * 64)  # O(8): a few rows each
    assert all(1 <= s.stop - s.start <= 4 for s in slices)
    assert slices[-1].stop == 200 and all(a.stop == b.start for a, b in zip(slices, slices[1:]))


# -- the command line ---------------------------------------------------------


def test_eval_sends_a_shared_field_job_in_one_call(tmp_path, monkeypatch, capsys):
    calls = []
    original = constraint_core.evaluate_points

    def spy(f, constraints, frame, X, tols=None):
        calls.append(len(X))
        return original(f, constraints, frame, X, tols)

    monkeypatch.setattr(constraint_core, "evaluate_points", spy)
    points = [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 2.0]]
    job = {
        "manifold": {"type": "sphere", "n": 3},
        "function": {"type": "linear", "coefficients": [1.0, 2.0, 3.0]},
        "points": points,
        "options": {"path": "general-frame"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["eval", "--job", str(path)]) == 4
    assert calls == [3]
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize(
    "where, spec",
    [
        ("job.function", "function"),
        ("manifold.constraints[0]", "constraint"),
    ],
)
def test_an_overflowing_derivative_coefficient_is_refused_in_one_line(tmp_path, capfd, where, spec):
    huge = [{"coeff": 1e308, "powers": [3, 0, 0]}]
    plain = [{"coeff": 1.0, "powers": [2, 0, 0]}, {"coeff": 1.0, "powers": [0, 2, 0]}]
    job = {
        "manifold": {
            "type": "generic",
            "ambient_dim": 3,
            "constraints": [{"terms": huge if spec == "constraint" else plain}],
            "regular_value": [1.0],
        },
        "function": {"type": "polynomial", "terms": huge if spec == "function" else plain},
        "points": [[1.0, 0.0, 0.0]],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["eval", "--job", str(path)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == (
        f"error: {where}: term 0 (coeff 1e+308, powers [3, 0, 0]) has a derivative "
        "coefficient that overflows\n"
    )


def test_polynomial_field_refuses_each_overflowing_table_entry():
    with pytest.raises(ContractError, match="term 1 "):
        polynomial_field(2, [(1.0, (1, 1)), (-5e307, (3, 0))])  # 6 * 5e307 on H[0, 0]
    with pytest.raises(ContractError, match="term 0 "):
        polynomial_field(2, [(1e308, (1, 2))])  # 2e308 on the gradient
    f = polynomial_field(2, [(1e308, (1, 0)), (2e307, (2, 0))])  # 4e307 is finite
    assert np.isfinite(f.gradient([1.0, 0.0])).all()
    # an earlier term that overflows only on the Hessian (diagonal, then
    # off-diagonal) is named before a later term whose gradient overflows
    for terms, idx in (
        ([(5e307, (3, 0)), (1e308, (0, 2))], 0),  # 1.5e308 on g, 3e308 on H[0, 0]
        ([(1.0, (1, 1)), (5e307, (2, 2)), (1e308, (2, 0))], 1),  # 2e308 on H[0, 1] only
    ):
        with pytest.raises(ContractError) as info:
            polynomial_field(2, terms)
        c, powers = terms[idx]
        assert str(info.value) == (
            f"term {idx} (coeff {c:g}, powers {list(powers)}) has a derivative "
            "coefficient that overflows"
        )


def test_a_large_polynomial_builds_its_tables_in_memory_linear_in_the_pairs():
    # 3000 terms of 4 variables each on R^20: 10 Hessian pairs per term. An
    # all-entries pair mask would take about 290 MB here.
    rng = np.random.default_rng(3000)
    terms = []
    for _ in range(3000):
        powers = np.zeros(20, dtype=np.int64)
        powers[rng.choice(20, size=4, replace=False)] = rng.integers(1, 4, size=4)
        terms.append((float(rng.uniform(-1.0, 1.0)), powers))
    tracemalloc.start()
    try:
        f = polynomial_field(20, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert np.isfinite(f.hessians(rng.uniform(-1.0, 1.0, (2, 20)))).all()
