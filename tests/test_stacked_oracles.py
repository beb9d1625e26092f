"""The stacked oracles against the per-point loops they replaced.

Each geodesic estimate evaluates the points of one step as one ``values``
call, the derivative checkers put several fields on one stencil, and the
homogeneity shortcut reads f(x), f(2x) and f(3x) from one stack. Every
number must keep the bits, and every refusal the type and text, of the
per-point forms kept below as the reference.
"""

import math

import numpy as np
import pytest

from lapbel import numkit, oracles, orthogonal, sphere
from lapbel.constraint_core import ScalarField, linear_field, polynomial_field
from lapbel.errors import ContractError, DomainError, LapbelError
from lapbel.numkit import vec
from lapbel.verify import random_polynomial_field, random_symmetric


def reference_second_difference_sum(evaluate, directions, f0, config):
    def total(h):
        out = 0.0
        for idx in range(directions):
            plus, minus = evaluate(idx, h)
            out += (plus - 2.0 * f0 + minus) / (h * h)
        return out

    estimate = total(config.step)
    if config.richardson:
        return (4.0 * total(config.step / 2.0) - estimate) / 3.0
    return estimate


def reference_geodesic_sphere(f, point, config):
    basis = oracles._sphere_tangent_basis(point, None)
    x, R = point.coords, point.radius
    f0 = f.value(x)

    def evaluate(idx, h):
        v = basis[:, idx]
        ch = np.cos(h / R)
        sh = R * np.sin(h / R)
        return f.value(ch * x + sh * v), f.value(ch * x - sh * v)

    return reference_second_difference_sum(evaluate, basis.shape[1], f0, config)


def reference_geodesic_on(f, point, config):
    U = point.matrix
    pairs = orthogonal.index_pairs(point.n)
    f0 = f.value(vec(U))

    def rotated(a, b, angle):
        W = U.copy()
        ca, sa = np.cos(angle), np.sin(angle)
        W[:, a] = ca * U[:, a] + sa * U[:, b]
        W[:, b] = -sa * U[:, a] + ca * U[:, b]
        return W

    def evaluate(idx, h):
        a, b = pairs[idx]
        angle = orthogonal.pair_sign(a, b) * h / np.sqrt(2.0)
        return f.value(vec(rotated(a, b, angle))), f.value(vec(rotated(a, b, -angle)))

    return reference_second_difference_sum(evaluate, len(pairs), f0, config)


def reference_homogeneous(f, degree, point):
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


def outcome(call):
    try:
        return call()
    except LapbelError as exc:
        return exc


def same_outcome(a, b) -> bool:
    if isinstance(a, LapbelError) or isinstance(b, LapbelError):
        return type(a) is type(b) and str(a) == str(b)
    return type(a) is type(b) and math.copysign(1.0, a) == math.copysign(1.0, b) and (
        a == b or (math.isnan(a) and math.isnan(b))
    )


CONFIGS = [oracles.OracleConfig(), oracles.OracleConfig(step=1e-2, richardson=True)]
RICHARDSON_IDS = ["plain", "richardson"]


def counted(f, calls):
    """``f`` with its stacked values recording each call's row count."""

    def values(X):
        calls.append(len(X))
        return f.values(X)

    return ScalarField(f.dim, values_fn=values, gradients_fn=f.gradients, hessians_fn=f.hessians)


# -- geodesic estimates -----------------------------------------------------------


@pytest.mark.parametrize("config", CONFIGS, ids=RICHARDSON_IDS)
@pytest.mark.parametrize("n", range(2, 8))
def test_sphere_geodesic_estimate_equals_the_per_point_loop_bit_for_bit(n, config):
    for radius in (1.0, 2.5):
        rng = np.random.default_rng([81, n])
        for _ in range(3):
            point = sphere.random_sphere_point(n, radius, rng)
            f = random_polynomial_field(rng, n, degree=4)
            stacked = oracles.geodesic_laplacian_sphere(f, point, config)
            assert type(stacked) is float
            assert stacked == reference_geodesic_sphere(f, point, config)


def test_the_sum_over_directions_keeps_its_order():
    # At e_1 the tangent basis is e_2, e_3, e_4 (up to sign), so the second
    # differences are about 2e16, -2e16 and 2: summed in that order they
    # give 2, summed the other way round 0.
    f = polynomial_field(4, [(1e16, (0, 2, 0, 0)), (-1e16, (0, 0, 2, 0)), (1.0, (0, 0, 0, 2))])
    point = sphere.SpherePoint([1.0, 0.0, 0.0, 0.0], 1.0)
    stacked = oracles.geodesic_laplacian_sphere(f, point)
    assert stacked == reference_geodesic_sphere(f, point, CONFIGS[0])
    assert abs(stacked - 2.0) < 1e-3


def on_cases(n, rng):
    A = rng.standard_normal((n, n))
    return [
        orthogonal.p1_field(A),
        orthogonal.p11_field(A),
        orthogonal.p2_field(A),
        orthogonal.brockett_field(random_symmetric(rng, n), rng.uniform(-1.0, 1.0, n)),
        random_polynomial_field(rng, n * n, degree=4),
    ]


@pytest.mark.parametrize("config", CONFIGS, ids=RICHARDSON_IDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_on_geodesic_estimate_equals_the_per_point_loop_bit_for_bit(n, config):
    rng = np.random.default_rng([82, n])
    for _ in range(2):
        point = orthogonal.random_orthogonal(n, rng)
        for f in on_cases(n, rng):
            stacked = oracles.geodesic_laplacian_on(f, point, config)
            assert type(stacked) is float
            assert stacked == reference_geodesic_on(f, point, config)


@pytest.mark.parametrize("config", CONFIGS, ids=RICHARDSON_IDS)
def test_each_geodesic_step_is_one_values_call(config):
    steps = 2 if config.richardson else 1
    n = 4
    rng = np.random.default_rng(83)
    calls = []
    f = counted(orthogonal.p2_field(rng.standard_normal((n, n))), calls)
    oracles.geodesic_laplacian_on(f, orthogonal.random_orthogonal(n, rng), config)
    assert calls == [1] + [n * (n - 1)] * steps  # f0, then both signs of every pair
    calls.clear()
    f = counted(random_polynomial_field(rng, n, degree=4), calls)
    oracles.geodesic_laplacian_sphere(f, sphere.random_sphere_point(n, 1.0, rng), config)
    assert calls == [1] + [2 * (n - 1)] * steps


def blows_up_off(base):
    """A field that is finite at ``base`` and inf everywhere else."""
    base = np.array(base, dtype=float)

    def values(X):
        return np.where((X == base).all(axis=1), 1.0, np.inf)

    dim = base.size
    return ScalarField(
        dim,
        values_fn=values,
        gradients_fn=lambda X: np.zeros(X.shape),
        hessians_fn=lambda X: np.zeros((len(X), dim, dim)),
    )


def test_a_non_finite_geodesic_value_is_refused_as_value_refuses_it():
    on_point = orthogonal.random_orthogonal(3, 84)
    sphere_point = sphere.SpherePoint([0.6, 0.8, 0.0], 1.0)
    for geodesic, reference, point, base in (
        (oracles.geodesic_laplacian_sphere, reference_geodesic_sphere, sphere_point,
         sphere_point.coords),
        (oracles.geodesic_laplacian_on, reference_geodesic_on, on_point, on_point.to_vector()),
    ):
        f = blows_up_off(base)
        for config in CONFIGS:
            expected = outcome(lambda: reference(f, point, config))
            assert isinstance(expected, DomainError)
            got = outcome(lambda: geodesic(f, point, config))
            assert same_outcome(got, expected)


# -- derivative hygiene -----------------------------------------------------------


def hygiene_fields(n, rng):
    A = rng.standard_normal((n, n))
    S = random_symmetric(rng, n)
    mu = rng.uniform(-1.0, 1.0, size=n)
    return [
        orthogonal.p1_field(A),
        orthogonal.p11_field(A),
        orthogonal.p2_field(A),
        orthogonal.brockett_field(S, mu),
        random_polynomial_field(rng, n * n, degree=4),
        *orthogonal.on_constraint_set(n).fields,
    ]


@pytest.mark.parametrize("n", range(2, 6))
def test_multi_field_deviations_equal_the_one_field_checks(n):
    rng = np.random.default_rng([85, n])
    fields = hygiene_fields(n, rng)
    u = rng.uniform(-1.0, 1.0, size=n * n)
    grad_config, hess_config = oracles.OracleConfig(step=1e-5), oracles.OracleConfig()
    gradients = oracles.check_gradients(fields, u, grad_config)
    hessians = oracles.check_hessians(fields, u, hess_config)
    assert gradients == [oracles.check_gradient(f, u, grad_config) for f in fields]
    assert hessians == [oracles.check_hessian(f, u, hess_config) for f in fields]
    assert all(type(d) is float for d in gradients + hessians)


def test_one_stencil_serves_every_field():
    n = 3
    rng = np.random.default_rng(86)
    calls = []
    fields = [counted(f, calls) for f in hygiene_fields(n, rng)]
    u = rng.uniform(-1.0, 1.0, size=n * n)
    m = n * n
    oracles.check_gradients(fields, u)
    oracles.check_hessians(fields, u)
    assert calls == [2 * m] * len(fields) + [1 + 2 * m * m] * len(fields)


def faulty(f, fault):
    """``f`` with an asymmetric or NaN Hessian, an infinite gradient, or
    derivative stacks that refuse every stack."""

    def gradients(X):
        if fault == "raising":
            raise DomainError("no derivative here")
        return f.gradients(X) + (np.inf if fault == "gradient" else 0.0)

    def hessians(X):
        if fault == "raising":
            raise DomainError("no derivative here")
        H = np.array(f.hessians(X))
        H[:, 0, -1] += {"asymmetric": 1.0, "nan": np.nan}.get(fault, 0.0)
        return H

    return ScalarField(f.dim, values_fn=f.values, gradients_fn=gradients, hessians_fn=hessians)


@pytest.mark.parametrize(
    "faults",
    [
        ["asymmetric", "nan"],
        ["nan", "asymmetric"],
        ["asymmetric", "raising"],
        ["raising", "asymmetric"],
        ["gradient", "raising"],
        ["raising", "gradient"],
        ["gradient"],
    ],
)
@pytest.mark.parametrize("derivative", ["gradient", "hessian"])
def test_the_first_refused_field_raises_what_its_own_derivative_raises(faults, derivative):
    rng = np.random.default_rng(88)
    fields = hygiene_fields(2, rng)
    for k, fault in enumerate(faults):
        fields[1 + 2 * k] = faulty(fields[1 + 2 * k], fault)
    u = rng.uniform(-1.0, 1.0, size=4)
    check = getattr(oracles, f"check_{derivative}s")

    def one_by_one():
        for f in fields:
            getattr(f, derivative)(u)

    expected = outcome(one_by_one)
    got = outcome(lambda: check(fields, u))
    if expected is None:  # no field refuses this derivative
        assert not isinstance(got, LapbelError)
    else:
        assert same_outcome(got, expected)
    for bad_point in (u[:3], u[None], np.full(4, np.nan)):
        expected = outcome(lambda: getattr(fields[0], derivative)(bad_point))
        assert same_outcome(outcome(lambda: check(fields, bad_point)), expected)


def test_the_analytic_hessians_of_a_case_take_one_symmetry_check(monkeypatch):
    rng = np.random.default_rng(89)
    fields = hygiene_fields(3, rng)
    calls = []
    original = numkit.symmetry_errors

    def spy(M, *args):
        calls.append(M.shape)
        return original(M, *args)

    monkeypatch.setattr(numkit, "symmetry_errors", spy)
    oracles.check_hessians(fields, rng.uniform(-1.0, 1.0, size=9))
    assert calls == [(1, len(fields), 9, 9)]


def test_multi_field_checks_refuse_any_field_without_analytic_provenance():
    rng = np.random.default_rng(87)
    fields = hygiene_fields(2, rng)
    fields[2] = ScalarField(4, value_fn=lambda u: 0.0, gradient_fn=lambda u: np.zeros(4),
                            hessian_fn=lambda u: np.zeros((4, 4)), provenance="samples")
    u = rng.uniform(-1.0, 1.0, size=4)
    with pytest.raises(ContractError, match="check_gradient"):
        oracles.check_gradients(fields, u)
    with pytest.raises(ContractError, match="check_hessian"):
        oracles.check_hessians(fields, u)


# -- the homogeneity shortcut -----------------------------------------------------


def scaled_table(x, table):
    """A field whose value at t x is ``table[t]`` for t in 1, 2, 3, with a
    zero Hessian."""
    dim = x.size

    def value(u):
        t = round(float(np.linalg.norm(u) / np.linalg.norm(x)))
        return table[t]

    return ScalarField(
        dim,
        value_fn=value,
        gradient_fn=lambda u: np.zeros(dim),
        hessian_fn=lambda u: np.zeros((dim, dim)),
    )


HOMOGENEITY_CASES = {
    "homogeneous": (1.5, 3.0, 4.5),
    "f(x) overflows": (math.inf, 3.0, 4.5),
    "f(x) is nan": (math.nan, 3.0, 4.5),
    "f(2x) overflows": (1.5, math.inf, 4.5),
    "f(2x) is off, f(3x) overflows": (1.5, 3.1, math.inf),
    "f(3x) overflows": (1.5, 3.0, -math.inf),
    "f(3x) is off": (1.5, 3.0, 4.6),
}


@pytest.mark.parametrize("values", HOMOGENEITY_CASES.values(), ids=HOMOGENEITY_CASES.keys())
def test_homogeneity_shortcut_refuses_where_the_per_point_checks_did(values):
    point = sphere.SpherePoint([0.6, 0.0, 0.8], 1.0)
    f = scaled_table(point.coords, dict(zip((1, 2, 3), values)))
    for degree in (1, 2, -1):
        got = outcome(lambda: sphere.homogeneous_sphere_laplacian(f, degree, point))
        assert same_outcome(got, outcome(lambda: reference_homogeneous(f, degree, point)))


def test_homogeneity_shortcut_refuses_a_field_of_another_dimension_as_before():
    point = sphere.SpherePoint([0.6, 0.0, 0.8], 1.0)
    f = linear_field([1.0, 2.0])
    got = outcome(lambda: sphere.homogeneous_sphere_laplacian(f, 1, point))
    assert same_outcome(got, outcome(lambda: reference_homogeneous(f, 1, point)))


def test_homogeneity_shortcut_equals_the_per_point_form_on_polynomials():
    rng = np.random.default_rng(88)
    for n in (2, 3, 5):
        linear = np.eye(n, dtype=int)[0]
        cross = np.eye(n, dtype=int)[0] + np.eye(n, dtype=int)[n - 1]
        for degree, powers in ((1, linear), (2, cross), (2, 2 * linear)):
            f = polynomial_field(n, [(0.7, powers)])
            point = sphere.random_sphere_point(n, 2.5, rng)
            shortcut = sphere.homogeneous_sphere_laplacian(f, degree, point)
            assert shortcut == reference_homogeneous(f, degree, point)


# -- squares as libm pow ----------------------------------------------------------


def extreme_reals(rng):
    scale = 10.0 ** rng.integers(-200, 200, 2000)
    return np.concatenate([
        rng.standard_normal(2000) * scale,
        rng.standard_normal(200) * 1e-160,  # squares are subnormal or 0
        [0.0, -0.0, 5e-324, 1e-154, 1.4e154, -1.4e154, 1e200, -1e300, 1.7e308],
    ])


def python_square(t: float) -> float:
    try:
        return float(t) ** 2
    except OverflowError:
        return math.inf


def test_p11_values_are_the_scalar_square_bit_for_bit():
    rng = np.random.default_rng(89)
    n = 3
    A = np.zeros((n, n))
    A[0, 0] = 1.0  # tr(A U) = U[0, 0], the first entry of vec(U)
    f = orthogonal.p11_field(A)
    traces = extreme_reals(rng)
    X = np.zeros((traces.size, n * n))
    X[:, 0] = traces
    expected = np.array([python_square(t) for t in traces])
    assert f.values(X).tobytes() == expected.tobytes()
    # random points: traces of every entry
    B = rng.standard_normal((n, n))
    Y = rng.standard_normal((500, n * n))
    g = orthogonal.p11_field(B)
    traces = np.trace(B @ orthogonal.unvec_rows(Y, n), axis1=1, axis2=2)
    assert g.values(Y).tobytes() == np.array([float(t) ** 2 for t in traces]).tobytes()


def test_p11_value_whose_square_overflows_is_refused_as_not_finite():
    A = np.zeros((2, 2))
    A[0, 0] = 1.0
    f = orthogonal.p11_field(A)
    with pytest.raises(DomainError, match="^field value is not finite$"):
        f.value([1e200, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("radius", [1e-150, 1e-3, 1.0, 2.5, 1e150])
def test_sphere_chart_condition_is_the_scalar_form_bit_for_bit(radius):
    rng = np.random.default_rng(90)
    n = 4
    # admission is off (tol inf), so the chart coordinate x_1 runs over [R/2, R)
    X = radius * rng.uniform(-0.4, 0.4, (20000, n))
    X[:, 1] = radius * rng.uniform(0.5, 1.0, 20000)
    reports = sphere.sphere_reports(linear_field(rng.standard_normal(n)), X, radius, tol=math.inf)
    expected = [max(radius**2 / float(x) ** 2, 1.0) for x in X[:, 1]]
    got = [r.frame_gram_condition for r in reports]
    assert all(type(c) is float for c in got)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
