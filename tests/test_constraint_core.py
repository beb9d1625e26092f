"""Tests for scalar fields, constraint sets, and the general evaluator."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lapbel.constraint_core import (
    AdaptedFrame,
    ConstraintSet,
    LaplacianReport,
    ScalarField,
    _exponent_row,
    _hessians_at,
    block_product_field,
    constant_field,
    evaluate_points,
    finite_difference_field,
    lagrange_multipliers,
    laplace_beltrami_general,
    linear_field,
    on_manifold,
    polynomial_field,
    qr_nullspace_frame,
)
from lapbel.errors import (
    ContractError,
    DimensionError,
    DomainError,
    RegularityError,
    SingularityError,
)
from lapbel.numkit import Tolerances
from lapbel.orthogonal import brockett_field, on_laplacians, p2_field, random_orthogonal
from lapbel.sphere import sphere_reports
from outcomes import outcome


def sphere_constraints(dim=3, radius=1.0):
    """Sum-of-squares constraint cutting out the sphere of the given radius."""
    terms = [(1.0, tuple(2 if i == j else 0 for i in range(dim))) for j in range(dim)]
    return ConstraintSet(
        ambient_dim=dim,
        fields=(polynomial_field(dim, terms),),
        regular_value=np.array([radius**2]),
    )


# -- ScalarField basics ------------------------------------------------------


def test_field_validates_dimension():
    with pytest.raises(DimensionError):
        ScalarField(
            dim=0,
            value_fn=lambda u: 0.0,
            gradient_fn=lambda u: np.zeros(0),
            hessian_fn=lambda u: np.zeros((0, 0)),
        )
    f = linear_field([1.0, 2.0])
    with pytest.raises(DimensionError):
        f.value([1.0, 2.0, 3.0])


def test_field_rejects_bad_gradient_shape():
    f = ScalarField(
        dim=2,
        value_fn=lambda u: 0.0,
        gradient_fn=lambda u: np.zeros(3),
        hessian_fn=lambda u: np.zeros((2, 2)),
    )
    with pytest.raises(DimensionError):
        f.gradient([0.0, 0.0])


def test_field_rejects_asymmetric_hessian():
    f = ScalarField(
        dim=2,
        value_fn=lambda u: 0.0,
        gradient_fn=lambda u: np.zeros(2),
        hessian_fn=lambda u: np.array([[0.0, 1.0], [0.0, 0.0]]),
    )
    with pytest.raises(ContractError):
        f.hessian([0.0, 0.0])


def test_field_rejects_non_finite_value():
    f = ScalarField(
        dim=1,
        value_fn=lambda u: float("nan"),
        gradient_fn=lambda u: np.zeros(1),
        hessian_fn=lambda u: np.zeros((1, 1)),
    )
    with pytest.raises(DomainError):
        f.value([1.0])


# -- field arithmetic ---------------------------------------------------------


def test_product_rule_by_hand():
    # f = x1^2, g = x2; the product x1^2 x2 has gradient (2 x1 x2, x1^2)
    # and Hessian [[2 x2, 2 x1], [2 x1, 0]].
    f = polynomial_field(2, [(1.0, (2, 0))])
    g = linear_field([0.0, 1.0])
    p = f * g
    u = np.array([1.5, 2.0])
    assert_allclose(p.value(u), 4.5)
    assert_allclose(p.gradient(u), [6.0, 2.25])
    assert_allclose(p.hessian(u), [[4.0, 3.0], [3.0, 0.0]])


def test_product_matches_direct_polynomial():
    rng = np.random.default_rng(21)
    f = polynomial_field(3, [(2.0, (1, 1, 0)), (-1.0, (0, 0, 2))])
    g = polynomial_field(3, [(1.0, (1, 0, 0)), (3.0, (0, 0, 1))])
    # Expanded by hand: (2 x y - z^2)(x + 3 z)
    direct = polynomial_field(
        3,
        [
            (2.0, (2, 1, 0)),
            (6.0, (1, 1, 1)),
            (-1.0, (1, 0, 2)),
            (-3.0, (0, 0, 3)),
        ],
    )
    p = f * g
    for _ in range(10):
        u = rng.uniform(-2, 2, size=3)
        assert_allclose(p.value(u), direct.value(u), atol=1e-12)
        assert_allclose(p.gradient(u), direct.gradient(u), atol=1e-12)
        assert_allclose(p.hessian(u), direct.hessian(u), atol=1e-12)


def test_sum_scale_and_shift():
    f = polynomial_field(2, [(1.0, (2, 0))])
    g = linear_field([0.0, 1.0])
    u = np.array([2.0, -1.0])
    s = f + g
    assert_allclose(s.value(u), 3.0)
    assert_allclose(s.gradient(u), [4.0, 1.0])
    assert_allclose((3.0 * f).value(u), 12.0)
    assert_allclose((f - g).value(u), 5.0)
    assert_allclose((-f).gradient(u), [-4.0, 0.0])
    assert_allclose((2.0 + f).value(u), 6.0)
    assert_allclose((2.0 - f).value(u), -2.0)
    assert_allclose((f + 1.0).hessian(u), f.hessian(u))


def test_arithmetic_dimension_mismatch():
    with pytest.raises(DimensionError):
        linear_field([1.0]) + linear_field([1.0, 2.0])
    with pytest.raises(DimensionError):
        linear_field([1.0]) * linear_field([1.0, 2.0])


def test_provenance_combination():
    f = linear_field([1.0, 0.0])
    g = finite_difference_field(lambda u: float(u[0] * u[1]), 2)
    assert (f + f).is_analytic
    assert not (f * g).is_analytic
    assert (g + f).provenance == g.provenance


# -- polynomial fields --------------------------------------------------------


def test_polynomial_by_hand():
    # x1 * x2^3 at (2, 1.5)
    f = polynomial_field(2, [(1.0, (1, 3))])
    u = np.array([2.0, 1.5])
    assert_allclose(f.value(u), 6.75)
    assert_allclose(f.gradient(u), [3.375, 13.5])
    assert_allclose(f.hessian(u), [[0.0, 6.75], [6.75, 18.0]])


def test_polynomial_zero_power_at_origin():
    f = polynomial_field(2, [(3.0, (0, 0)), (1.0, (1, 0))])
    assert f.value([0.0, 0.0]) == 3.0


def test_polynomial_empty_terms_is_zero():
    f = polynomial_field(3, [])
    assert f.value([1.0, 2.0, 3.0]) == 0.0
    assert_allclose(f.gradient([1.0, 2.0, 3.0]), np.zeros(3))


def test_polynomial_validation():
    with pytest.raises(ContractError):
        polynomial_field(2, [(1.0, (-1, 0))])
    with pytest.raises(DimensionError):
        polynomial_field(2, [(1.0, (1, 0, 0))])
    with pytest.raises(ContractError):
        polynomial_field(2, [1.0])
    with pytest.raises(DimensionError):
        polynomial_field(0, [])
    # exponents that are not whole numbers int64 can hold are refused
    for bad in (1.5, "ab", 1e30, 10**30, 10**400, -(10**400), None, float("nan")):
        with pytest.raises(ContractError):
            polynomial_field(2, [(1.0, (bad, 0))])


def test_polynomial_accepts_integral_float_exponents():
    u = np.array([0.3, -1.7])
    f = polynomial_field(2, [(1.0, (2.0, 1.0))])
    g = polynomial_field(2, [(1.0, (2, 1))])
    assert f.value(u) == g.value(u)
    assert np.array_equal(f.hessian(u), g.hessian(u))


def reference_exponent_row(p, idx):
    """The exponent parse before signed integers got their early return:
    every row through the float checks."""
    try:
        raw = np.asarray(p)
        values = raw.astype(float)
    except OverflowError:
        values = np.array([math.inf])
    except (TypeError, ValueError) as exc:
        raise ContractError(f"term {idx} has an exponent that is not a number") from exc
    if np.any(np.isnan(values) | (values != np.trunc(values))):
        raise ContractError(f"term {idx} has an exponent that is not an integer")
    if np.any(np.abs(values) >= 2.0**63):
        raise ContractError(f"term {idx} has an exponent too large for int64")
    return (raw if raw.dtype.kind in "iu" else values).astype(np.int64)


EXPONENT_ROWS = {
    **{np.dtype(t).name: np.array([2, 0, 1], dtype=t) for t in (np.int8, np.int16, np.int32, np.int64)},
    "python ints": [2, 0, 1],
    "bools": [True, False, True],
    "float 2.0": [2.0, 0, 1],
    "float 2.5": [2.5, 0, 1],
    "minus one": [-1, 0, 1],
    "uint64 2^63": np.array([2**63, 0, 1], dtype=np.uint64),
    "python 2^63": [2**63, 0, 1],
    "python 10^400": [10**400, 0, 1],
    "string": ["ab", 0, 1],
}


@pytest.mark.parametrize("row", EXPONENT_ROWS.values(), ids=EXPONENT_ROWS.keys())
def test_the_exponent_parse_keeps_its_outcome_and_message(row):
    got, want = outcome(lambda: _exponent_row(row, 4)), outcome(lambda: reference_exponent_row(row, 4))
    assert type(got) is type(want)
    if isinstance(want, ContractError):
        assert str(got) == str(want)
        with pytest.raises(ContractError, match=f"^{re.escape(str(want))}$"):
            polynomial_field(3, [(1.0, (0, 0, 0))] * 4 + [(1.0, row)])
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_a_signed_integer_row_is_taken_as_int64_holds_it():
    # the float checks refused these though int64 holds them: 2^63 - 1 rounds up to 2^63
    edge = np.array([2**63 - 1, 0, -(2**63)], dtype=np.int64)
    assert np.array_equal(_exponent_row(edge, 0), edge)
    with pytest.raises(ContractError, match="term 0 has an exponent too large for int64"):
        reference_exponent_row(edge, 0)


def reference_polynomial_derivatives(dim, terms, u):
    """The original per-pair derivative loops, kept as the exact reference:
    one mask and one monomial pass per gradient entry and per (i, j) pair."""
    C = np.asarray([float(c) for c, _ in terms])
    P = np.stack([np.asarray(p, dtype=int) for _, p in terms])

    def monomials(expo):
        return np.prod(u[None, :] ** expo, axis=1)

    g = np.zeros(dim)
    for i in range(dim):
        mask = P[:, i] > 0
        if not np.any(mask):
            continue
        expo = P[mask].copy()
        expo[:, i] -= 1
        g[i] = float((C[mask] * P[mask, i]) @ monomials(expo))
    H = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                mask = P[:, i] >= 2
                if not np.any(mask):
                    continue
                expo = P[mask].copy()
                expo[:, i] -= 2
                coef = C[mask] * P[mask, i] * (P[mask, i] - 1)
            else:
                mask = (P[:, i] > 0) & (P[:, j] > 0)
                if not np.any(mask):
                    continue
                expo = P[mask].copy()
                expo[:, i] -= 1
                expo[:, j] -= 1
                coef = C[mask] * P[mask, i] * P[mask, j]
            H[i, j] = float(coef @ monomials(expo))
            H[j, i] = H[i, j]
    return g, H


def assert_bitwise_equal(actual, expected):
    assert np.array_equal(actual, expected)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


def random_sparse_terms(rng, dim, count=12, degree=5):
    """Terms whose support is at most three variables, drawn from the first
    few variables for every other term so that entries collect several
    contributions."""
    terms = []
    for t in range(count):
        powers = np.zeros(dim, dtype=int)
        pool = min(dim, 4) if t % 2 else dim
        support = rng.integers(0, pool, size=3)
        for _ in range(int(rng.integers(0, degree + 1))):
            powers[support[rng.integers(0, 3)]] += 1
        terms.append((float(rng.uniform(-1.0, 1.0)), powers))
    return terms


def repeated_and_zero_terms(rng, dim, count=10, degree=6):
    """Terms of degree up to ``degree`` over any of the variables; every
    third term repeats an earlier exponent row and every fourth has a zero
    coefficient."""
    terms = []
    for t in range(count):
        if t % 3 == 2:
            powers = terms[int(rng.integers(0, t))][1].copy()
        else:
            powers = np.zeros(dim, dtype=int)
            for v in rng.integers(0, dim, size=int(rng.integers(0, degree + 1))):
                powers[v] += 1
        terms.append((0.0 if t % 4 == 3 else float(rng.uniform(-1.0, 1.0)), powers))
    return terms


@pytest.mark.parametrize("dim", [*range(1, 31), 200])
def test_polynomial_derivatives_match_reference_loops_exactly(dim):
    rng = np.random.default_rng([2206, dim])
    terms = random_sparse_terms(rng, dim)
    points = [rng.standard_normal(dim), rng.uniform(-2.0, 2.0, size=dim)]
    points[1][: dim // 2] = 0.0
    for terms in (terms, repeated_and_zero_terms(rng, dim)):
        f = polynomial_field(dim, terms)
        for u in points:
            g, H = reference_polynomial_derivatives(dim, terms, u)
            assert_bitwise_equal(f.gradient(u), g)
            assert_bitwise_equal(f.hessian(u), H)


def test_polynomial_special_terms_match_reference_loops_exactly():
    # constant term, repeated monomial, zero coefficient, exponents >= 2
    terms = [
        (2.5, (0, 0, 0)),
        (1.0, (1, 1, 0)),
        (0.3, (1, 1, 0)),
        (0.0, (2, 0, 1)),
        (-1.5, (3, 0, 0)),
        (0.7, (2, 2, 0)),
        (1.1, (0, 0, 4)),
    ]
    f = polynomial_field(3, terms)
    for u in (np.zeros(3), np.array([0.0, -0.4, 1.3]), np.array([0.9, 1.1, -0.2])):
        g, H = reference_polynomial_derivatives(3, terms, u)
        assert_bitwise_equal(f.gradient(u), g)
        assert_bitwise_equal(f.hessian(u), H)
    assert f.hessian(np.zeros(3))[0, 0] == 0.0
    assert f.hessian(np.array([1.0, 0.0, 0.0]))[0, 0] == -9.0


@pytest.mark.parametrize("seed", range(3))
def test_polynomial_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng([77, seed])
    terms = []
    for _ in range(6):
        powers = rng.integers(0, 3, size=3)
        terms.append((float(rng.uniform(-1, 1)), tuple(int(p) for p in powers)))
    f = polynomial_field(3, terms)
    fd = finite_difference_field(f.value, 3)
    for _ in range(5):
        u = rng.uniform(-1.5, 1.5, size=3)
        assert np.max(np.abs(f.gradient(u) - fd.gradient(u))) <= 1e-6
        assert np.max(np.abs(f.hessian(u) - fd.hessian(u))) <= 1e-5


# -- finite-difference fields -------------------------------------------------


def test_finite_difference_cubic_example():
    f = finite_difference_field(lambda u: float(u[0] * u[1] ** 3), 2)
    u = np.array([1.0, 1.0])
    assert np.max(np.abs(f.gradient(u) - np.array([1.0, 3.0]))) <= 1e-5
    H = f.hessian(u)
    assert abs(H[1, 1] - 6.0) <= 1e-5
    assert abs(H[0, 1] - 3.0) <= 1e-5
    assert np.array_equal(H, H.T)


def test_finite_difference_quadratic():
    A = np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
    b = np.array([1.0, -2.0, 0.5])
    f = finite_difference_field(lambda u: float(0.5 * u @ A @ u + b @ u), 3)
    u = np.array([0.3, -0.7, 1.1])
    assert np.max(np.abs(f.gradient(u) - (A @ u + b))) <= 1e-6
    assert np.max(np.abs(f.hessian(u) - A)) <= 1e-6


def test_finite_difference_constant_is_exactly_flat():
    f = finite_difference_field(lambda u: 4.0, 3)
    u = np.array([0.2, 0.4, -0.9])
    assert np.max(np.abs(f.gradient(u))) == 0.0
    assert np.max(np.abs(f.hessian(u))) == 0.0


def test_finite_difference_provenance_and_validation():
    f = finite_difference_field(lambda u: 0.0, 2, grad_step=1e-5, hess_step=1e-4)
    assert f.provenance.startswith("finite-difference")
    assert not f.is_analytic
    with pytest.raises(ContractError):
        finite_difference_field(lambda u: 0.0, 2, grad_step=0.0)
    with pytest.raises(DimensionError):
        finite_difference_field(lambda u: 0.0, 0)


# -- constraint sets ----------------------------------------------------------


def test_constraint_set_validation():
    f = linear_field([1.0, 0.0])
    with pytest.raises(DimensionError):
        ConstraintSet(ambient_dim=2, fields=(f, f), regular_value=[0.0, 0.0])
    with pytest.raises(DimensionError):
        ConstraintSet(ambient_dim=3, fields=(f,), regular_value=[0.0])
    with pytest.raises(DimensionError):
        ConstraintSet(ambient_dim=2, fields=(f,), regular_value=[0.0, 1.0])
    with pytest.raises(ContractError):
        ConstraintSet(ambient_dim=2, fields=("f",), regular_value=[0.0])


def test_residuals_off_sphere():
    cons = sphere_constraints()
    res = cons.residuals([1.1, 0.0, 0.0])
    assert_allclose(res, [0.21], atol=1e-12)
    assert cons.count == 1


def test_on_manifold_check():
    cons = sphere_constraints()
    ok = on_manifold(cons, [1.0, 0.0, 0.0])
    assert ok.ok and ok.residual <= 1e-15
    bad = on_manifold(cons, [1.1, 0.0, 0.0])
    assert not bad.ok
    assert_allclose(bad.residual, 0.21, atol=1e-12)
    assert on_manifold(cons, [1.1, 0.0, 0.0], tol=0.3).ok


# -- multipliers --------------------------------------------------------------


def test_multipliers_axis_aligned_example():
    # Constraints x1 and x2 have orthonormal gradients, so the multipliers
    # are just the matching gradient components of f: (3, 5).
    cons = ConstraintSet(
        ambient_dim=3,
        fields=(linear_field([1.0, 0.0, 0.0]), linear_field([0.0, 1.0, 0.0])),
        regular_value=[0.0, 0.0],
    )
    f = linear_field([3.0, 5.0, 7.0])
    sigma = lagrange_multipliers(cons, f, [0.4, -0.2, 9.0])
    assert_allclose(sigma, [3.0, 5.0], atol=1e-12)


def test_multiplier_of_constraint_itself_is_one():
    cons = sphere_constraints()
    sigma = lagrange_multipliers(cons, cons.fields[0], [0.5, -0.5, 0.3])
    assert_allclose(sigma, [1.0], atol=1e-13)


def test_multipliers_sphere_closed_form_any_point():
    # For the sum-of-squares constraint, sigma = <u, grad f> / (2 |u|^2)
    # at any nonzero u, on the sphere or not.
    rng = np.random.default_rng(31)
    cons = sphere_constraints()
    f = polynomial_field(3, [(1.0, (2, 1, 0)), (-0.5, (0, 0, 3))])
    for _ in range(10):
        u = rng.uniform(-2, 2, size=3)
        expected = float(u @ f.gradient(u)) / (2.0 * float(u @ u))
        assert_allclose(lagrange_multipliers(cons, f, u)[0], expected, atol=1e-12)


def test_multipliers_cramer_oracle():
    # Independent oracle: Cramer's rule on the 3x3 Gram system.
    rng = np.random.default_rng(32)
    normals = rng.standard_normal((3, 5))
    cons = ConstraintSet(
        ambient_dim=5,
        fields=tuple(linear_field(n) for n in normals),
        regular_value=np.zeros(3),
    )
    f = linear_field(rng.standard_normal(5))
    u = rng.standard_normal(5)
    sigma = lagrange_multipliers(cons, f, u)
    G = normals @ normals.T
    b = normals @ f.gradient(u)
    detG = np.linalg.det(G)
    for i in range(3):
        Gi = G.copy()
        Gi[:, i] = b
        assert_allclose(sigma[i], np.linalg.det(Gi) / detG, rtol=1e-10, atol=1e-12)


def test_multipliers_linear_in_the_field():
    rng = np.random.default_rng(33)
    cons = sphere_constraints()
    f = polynomial_field(3, [(1.0, (3, 0, 0)), (2.0, (0, 1, 1))])
    g = polynomial_field(3, [(1.0, (0, 2, 0)), (-1.0, (1, 0, 1))])
    u = rng.uniform(-1, 1, size=3)
    a, b = 2.5, -1.25
    combo = lagrange_multipliers(cons, a * f + b * g, u)
    parts = a * lagrange_multipliers(cons, f, u) + b * lagrange_multipliers(cons, g, u)
    assert np.max(np.abs(combo - parts)) <= 1e-10


def test_multipliers_reject_dependent_gradients():
    cons = ConstraintSet(
        ambient_dim=3,
        fields=(linear_field([1.0, 0.0, 0.0]), linear_field([2.0, 0.0, 0.0])),
        regular_value=[0.0, 0.0],
    )
    with pytest.raises(RegularityError):
        lagrange_multipliers(cons, linear_field([1.0, 1.0, 1.0]), [0.0, 0.0, 0.0])


# -- reports ------------------------------------------------------------------


def test_report_assembly_identity():
    """On every row of the three stacked evaluators, the value is trace_main
    minus the dot of sigma and trace_constraint as stored, bit for bit."""
    rng = np.random.default_rng(17)
    torus = np.array([torus_point(s, t) for s, t in rng.uniform(0.0, 6.0, (40, 2))])
    f = polynomial_field(4, [(1.0, (1, 1, 1, 0)), (-0.5, (0, 0, 2, 2)), (2.0, (3, 0, 0, 1))])
    spheres = rng.standard_normal((40, 5))
    spheres /= np.linalg.norm(spheres, axis=1)[:, None]
    g = polynomial_field(
        5, [(1.5, (2, 1, 0, 0, 1)), (-1.0, (0, 3, 0, 1, 0)), (0.5, (1, 0, 0, 0, 0))]
    )
    group = np.stack([random_orthogonal(4, seed).to_vector() for seed in range(40)])
    h = brockett_field(np.diag([1.0, -2.0, 0.5, 3.0]), [0.5, 1.0, -1.5, 2.0])
    h = h * p2_field(np.ones((4, 4)))
    reports = (
        evaluate_points(f, torus_constraints(), None, torus)
        + sphere_reports(g, spheres, 1.0)
        + on_laplacians(h, group)
    )
    assert len(reports) == 120
    for report in reports:
        assert isinstance(report, LaplacianReport)
        dot = float(np.dot(report.sigma, report.trace_constraint))
        assert report.value == report.trace_main - dot
        d = report.to_dict()
        assert set(d) == {
            "value", "sigma", "trace_main", "trace_constraint", "frame_gram_condition"
        }
        assert d["sigma"] == report.sigma.tolist()


# -- the general evaluator ----------------------------------------------------


def test_general_sphere_linear_field():
    cons = sphere_constraints()
    frame = qr_nullspace_frame(cons)
    f = linear_field([1.0, 0.0, 0.0])
    report = laplace_beltrami_general(f, cons, frame, [1.0, 0.0, 0.0])
    assert_allclose(report.value, -2.0, atol=1e-12)
    assert_allclose(report.sigma, [0.5], atol=1e-12)


def test_general_constant_field_is_zero():
    cons = sphere_constraints()
    frame = qr_nullspace_frame(cons)
    report = laplace_beltrami_general(constant_field(3, 7.0), cons, frame, [0.0, 1.0, 0.0])
    assert report.value == 0.0


def test_general_rejects_off_manifold():
    cons = sphere_constraints()
    frame = qr_nullspace_frame(cons)
    with pytest.raises(DomainError) as info:
        laplace_beltrami_general(linear_field([1.0, 0.0, 0.0]), cons, frame, [1.1, 0.0, 0.0])
    assert_allclose(info.value.residual, 0.21, atol=1e-12)


def test_general_rejects_wrong_frame_width():
    cons = sphere_constraints()
    frame = AdaptedFrame(provider=lambda U: np.ones((len(U), 3, 1)))
    with pytest.raises(DimensionError, match="frame supplies 1 tangent directions, expected 2"):
        laplace_beltrami_general(linear_field([1.0, 0.0, 0.0]), cons, frame, [1.0, 0.0, 0.0])


def test_general_condition_limit():
    cons = sphere_constraints()
    x = np.array([1.0, 0.0, 0.0])

    def skewed(U):
        # Tangent columns e2 and e2 + 1e-3 e3 span the tangent plane but
        # have a Gram condition near 4e6.
        return np.tile([[0.0, 0.0], [1.0, 1.0], [0.0, 1e-3]], (len(U), 1, 1))

    frame = AdaptedFrame(provider=skewed)
    f = linear_field([1.0, 0.0, 0.0])
    report = laplace_beltrami_general(f, cons, frame, x)
    assert_allclose(report.value, -2.0, atol=1e-8)
    assert report.frame_gram_condition > 1e5
    with pytest.raises(SingularityError) as info:
        laplace_beltrami_general(f, cons, frame, x, tols=Tolerances(condition_limit=1e3))
    assert info.value.condition > 1e3


def test_general_value_invariant_under_frame_change():
    # Any invertible recombination of the frame columns leaves the value
    # unchanged; only the Gram condition differs.
    rng = np.random.default_rng(41)
    cons = sphere_constraints()
    base = qr_nullspace_frame(cons)
    M = np.array([[2.0, 1.0], [0.0, 3.0]])
    mixed = AdaptedFrame(provider=lambda U: base.at(U) @ M)
    f = polynomial_field(3, [(1.0, (1, 1, 0)), (0.5, (0, 0, 2))])
    for _ in range(5):
        v = rng.standard_normal(3)
        x = v / np.linalg.norm(v)
        r1 = laplace_beltrami_general(f, cons, base, x)
        r2 = laplace_beltrami_general(f, cons, mixed, x)
        assert abs(r1.value - r2.value) <= 1e-10


def test_general_value_invariant_under_prolongation():
    # f and f + (F - c) g agree on the manifold, and so do their values.
    rng = np.random.default_rng(42)
    cons = sphere_constraints()
    frame = qr_nullspace_frame(cons)
    f = polynomial_field(3, [(1.0, (2, 0, 1)), (-2.0, (0, 1, 0))])
    g = polynomial_field(3, [(0.7, (1, 0, 0)), (1.3, (0, 0, 2))])
    shifted = f + (cons.fields[0] - 1.0) * g
    for _ in range(5):
        v = rng.standard_normal(3)
        x = v / np.linalg.norm(v)
        r1 = laplace_beltrami_general(f, cons, frame, x)
        r2 = laplace_beltrami_general(shifted, cons, frame, x)
        assert abs(r1.value - r2.value) <= 1e-8


def test_general_report_is_self_consistent():
    cons = sphere_constraints()
    frame = qr_nullspace_frame(cons)
    f = polynomial_field(3, [(1.0, (1, 1, 0))])
    report = laplace_beltrami_general(f, cons, frame, [0.0, 0.6, 0.8])
    rebuilt = report.trace_main - float(np.dot(report.sigma, report.trace_constraint))
    assert report.value == rebuilt


def test_general_two_constraints_circle():
    # Sphere of radius sqrt(2) cut by the plane x3 = 1: a unit circle at
    # height 1. Restricted to that circle, x1 = cos(theta) with arclength
    # theta, so its curve Laplacian is -x1.
    cons = ConstraintSet(
        ambient_dim=3,
        fields=(
            polynomial_field(3, [(1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2))]),
            linear_field([0.0, 0.0, 1.0]),
        ),
        regular_value=[2.0, 1.0],
    )
    frame = qr_nullspace_frame(cons)
    f = linear_field([1.0, 0.0, 0.0])
    for theta in np.linspace(0.0, 2 * np.pi, 9):
        x = np.array([np.cos(theta), np.sin(theta), 1.0])
        report = laplace_beltrami_general(f, cons, frame, x)
        assert abs(report.value - (-np.cos(theta))) <= 1e-10
        assert len(report.sigma) == 2


# -- QR frames ----------------------------------------------------------------


def test_qr_frame_columns_are_orthonormal_and_tangent():
    rng = np.random.default_rng(43)
    cons = sphere_constraints()
    frame = qr_nullspace_frame(cons)
    for _ in range(10):
        v = rng.standard_normal(3)
        x = v / np.linalg.norm(v)
        T = frame.at(x)
        assert T.shape == (3, 2)
        assert np.max(np.abs(T.T @ T - np.eye(2))) <= 1e-12
        assert np.max(np.abs(x @ T)) <= 1e-12


def test_qr_frame_rejects_rank_deficient_gradients():
    cons = ConstraintSet(
        ambient_dim=3,
        fields=(polynomial_field(3, [(1.0, (2, 0, 0))]),),
        regular_value=[0.0],
    )
    frame = qr_nullspace_frame(cons)
    with pytest.raises(RegularityError):
        frame.at([0.0, 1.0, 0.0])


def test_adapted_frame_validation():
    frame = AdaptedFrame(provider=lambda U: np.ones((len(U), 4, 2)))
    with pytest.raises(DimensionError, match="frame has 4 rows, expected 3"):
        frame.at([1.0, 2.0, 3.0])
    wide = AdaptedFrame(provider=lambda U: np.ones((len(U), 3, 3)))
    with pytest.raises(DimensionError, match="fewer columns than rows, got \\(3, 3\\)"):
        wide.at([1.0, 2.0, 3.0])
    extra = AdaptedFrame(provider=lambda U: np.ones((len(U) + 1, 3, 2)))
    with pytest.raises(DimensionError, match="frame stack has shape \\(3, 3, 2\\), expected 2 frames"):
        extra.at(np.eye(3)[:2])
    flat = AdaptedFrame(provider=lambda U: np.ones((3, 2)))  # one frame, not a stack
    with pytest.raises(DimensionError, match="frame stack has shape"):
        flat.at([1.0, 2.0, 3.0])
    nan = AdaptedFrame(provider=lambda U: np.full((len(U), 3, 2), np.nan))
    with pytest.raises(DimensionError, match="frame matrix contains non-finite entries"):
        nan.at(np.eye(3))
    ones = AdaptedFrame(provider=lambda U: np.ones((len(U), 3, 2)))
    assert ones.at([1.0, 2.0, 3.0]).shape == (3, 2)
    assert ones.at(np.eye(3)).shape == (3, 3, 2)


# -- derivative builds per point on the general path ---------------------------


def counting_field(field, counts, key):
    """``field`` with its gradient and Hessian builds counted under ``key``."""

    def gradient(u):
        counts[key, "gradient"] = counts.get((key, "gradient"), 0) + 1
        return field.gradient(u)

    def hessian(u):
        counts[key, "hessian"] = counts.get((key, "hessian"), 0) + 1
        return field.hessian(u)

    return ScalarField(field.dim, gradient_fn=gradient, hessian_fn=hessian, values_fn=field.values_fn)


def torus_constraints(counts=None):
    """The Clifford torus x1^2 + x2^2 = 1, x3^2 + x4^2 = 1 in R^4."""
    circles = [
        polynomial_field(4, [(1.0, (2, 0, 0, 0)), (1.0, (0, 2, 0, 0))]),
        polynomial_field(4, [(1.0, (0, 0, 2, 0)), (1.0, (0, 0, 0, 2))]),
    ]
    if counts is not None:
        circles = [counting_field(c, counts, a) for a, c in enumerate(circles)]
    return ConstraintSet(ambient_dim=4, fields=tuple(circles), regular_value=[1.0, 1.0])


def torus_point(s, t, scale=1.0):
    return np.array([np.cos(s), np.sin(s), np.cos(t), np.sin(t)]) * scale


def test_constraint_gradients_and_hessians_once_per_point():
    counts = {}
    cons = torus_constraints(counts)
    f = polynomial_field(4, [(1.0, (1, 1, 1, 0)), (-0.5, (0, 0, 2, 2))])
    admitted = [torus_point(s, 0.3 * s + 1.0) for s in (0.1, 0.7, 1.9, 2.6)]
    for u in admitted:
        laplace_beltrami_general(f, cons, None, u)
    with pytest.raises(DomainError):
        laplace_beltrami_general(f, cons, None, torus_point(0.5, 0.5, scale=1.01))
    assert counts == {
        (0, "gradient"): len(admitted),
        (1, "gradient"): len(admitted),
        (0, "hessian"): len(admitted),
        (1, "hessian"): len(admitted),
    }


def test_constant_hessian_asymmetry_is_still_refused():
    f = ScalarField(
        dim=3,
        value_fn=lambda u: 0.0,
        gradient_fn=lambda u: np.zeros(3),
        hessian_fn=lambda u: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    with pytest.raises(ContractError, match="not symmetric"):
        f.hessian([0.0, 0.0, 0.0])
    cons = ConstraintSet(
        ambient_dim=3, fields=(linear_field([1.0, 0.0, 0.0]), f), regular_value=[1.0, 0.0]
    )
    with pytest.raises(ContractError, match="not symmetric"):
        _hessians_at(cons.fields, np.array([[1.0, 0.0, 0.0]]))


def test_block_product_field_matches_its_formula_bitwise():
    rng = np.random.default_rng(44)
    u = rng.standard_normal(6)
    first, second = slice(0, 3), slice(3, 6)
    pair = block_product_field(6, first, second)
    half_norm = block_product_field(6, first, first, 0.5)
    assert pair.value(u) == float(u[:3] @ u[3:])
    assert half_norm.value(u) == 0.5 * float(u[:3] @ u[:3])
    assert np.array_equal(pair.gradient(u), np.concatenate([u[3:], u[:3]]))
    assert np.array_equal(half_norm.gradient(u), np.concatenate([u[:3], np.zeros(3)]))
    eye = np.eye(3)
    zero = np.zeros((3, 3))
    assert np.array_equal(pair.hessian(u), np.block([[zero, eye], [eye, zero]]))
    assert np.array_equal(half_norm.hessian(u), np.block([[eye, zero], [zero, zero]]))


def test_frame_none_matches_qr_nullspace_frame():
    f = polynomial_field(4, [(1.3, (2, 1, 1, 0)), (-0.4, (0, 0, 2, 2)), (0.7, (0, 1, 0, 0))])
    cubic = ConstraintSet(
        ambient_dim=3,
        fields=(polynomial_field(3, [(1.0, (3, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2))]),),
        regular_value=[1.0],
    )
    g = polynomial_field(3, [(1.0, (1, 1, 1)), (2.0, (2, 0, 1))])
    cases = [(f, torus_constraints(), torus_point(s, 2.0 * s - 0.4)) for s in (0.3, 1.1, 2.9)]
    cases.append((g, cubic, np.array([0.5, 0.6, (1 - 0.125 - 0.36) ** 0.5])))
    for field, cons, u in cases:
        projected = laplace_beltrami_general(field, cons, None, u)
        framed = laplace_beltrami_general(field, cons, qr_nullspace_frame(cons), u)
        # the projector I - Q Q^t is built from orthonormal columns
        assert projected.frame_gram_condition == 1.0
        for name in ("value", "trace_main", "sigma", "trace_constraint"):
            assert_allclose(getattr(projected, name), getattr(framed, name), rtol=1e-13, atol=0)


def test_frame_none_refuses_dependent_gradients():
    cons = ConstraintSet(
        ambient_dim=3,
        fields=(polynomial_field(3, [(1.0, (2, 0, 0))]),),
        regular_value=[0.0],
    )
    with pytest.raises(RegularityError):
        laplace_beltrami_general(linear_field([0.0, 1.0, 0.0]), cons, None, [0.0, 1.0, 0.0])


def test_lagrange_multipliers_match_the_normal_equations():
    cons = torus_constraints()
    f = polynomial_field(4, [(1.0, (1, 0, 1, 0)), (0.5, (0, 3, 0, 0))])
    u = torus_point(0.4, 1.3)
    J = np.stack([c.gradient(u) for c in cons.fields])
    sigma = lagrange_multipliers(cons, f, u)
    assert np.max(np.abs(J @ J.T @ sigma - J @ f.gradient(u))) <= 1e-12
