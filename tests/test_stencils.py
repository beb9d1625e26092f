"""Batched finite-difference stencils and the fields' ``values_fn``.

The stencil evaluators must reproduce, bit for bit, the per-point loops
they replaced; those loops are kept below as the reference.
"""

import numpy as np
import pytest

from lapbel import constraint_core, orthogonal
from lapbel.constraint_core import (
    _fd_gradient,
    _fd_hessian,
    block_product_field,
    finite_difference_field,
    polynomial_field,
)
from lapbel.errors import DimensionError
from lapbel.verify import random_symmetric


def reference_fd_gradient(value_fn, u, h):
    g = np.zeros(u.size)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (value_fn(up) - value_fn(um)) / (2.0 * h)
    return g


def reference_fd_hessian(value_fn, u, h):
    m = u.size
    H = np.zeros((m, m))
    f0 = value_fn(u)
    for i in range(m):
        up = u.copy()
        um = u.copy()
        up[i] += h
        um[i] -= h
        H[i, i] = (value_fn(up) - 2.0 * f0 + value_fn(um)) / (h * h)
    for i in range(m):
        for j in range(i + 1, m):
            upp = u.copy()
            upm = u.copy()
            ump = u.copy()
            umm = u.copy()
            upp[[i, j]] += h
            umm[[i, j]] -= h
            upm[i] += h
            upm[j] -= h
            ump[i] -= h
            ump[j] += h
            H[i, j] = (value_fn(upp) - value_fn(upm) - value_fn(ump) + value_fn(umm)) / (
                4.0 * h * h
            )
            H[j, i] = H[i, j]
    return H


def batched_fields(n, rng):
    """Every built-in field family that carries a ``values_fn``, on O(n)."""
    A = rng.standard_normal((n, n))
    fields = [
        orthogonal.p1_field(A),
        orthogonal.p11_field(A),
        orthogonal.p2_field(A),
        orthogonal.brockett_field(random_symmetric(rng, n), rng.uniform(-1.0, 1.0, n)),
    ]
    return fields + list(orthogonal.on_constraint_set(n).fields)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_values_match_value_fn_bit_for_bit(n):
    rng = np.random.default_rng([5, n])
    X = rng.uniform(-1.0, 1.0, size=(200, n * n))
    for field in batched_fields(n, rng):
        assert field.values_fn is not None
        assert_same_bits(field.values(X), [field.value_fn(x) for x in X])


def test_values_fall_back_to_value_fn_rows():
    field = finite_difference_field(lambda u: float(u[0] * u[1] ** 3), 2)
    assert field.values_fn is None
    X = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])
    assert_same_bits(field.values(X), [field.value_fn(x) for x in X])
    summed = block_product_field(4, slice(0, 2), slice(2, 4)) + 1.5
    assert summed.values_fn is not None  # field arithmetic writes the stacked form
    X = np.arange(8.0).reshape(2, 4)
    assert_same_bits(summed.values(X), [summed.value_fn(x) for x in X])


def test_values_refuse_a_stack_of_the_wrong_shape():
    field = block_product_field(4, slice(0, 2), slice(2, 4))
    with pytest.raises(DimensionError):
        field.values(np.zeros(4))
    with pytest.raises(DimensionError):
        field.values(np.zeros((3, 5)))


def stencil_cases():
    """(field, point, step) for the stencil comparisons, one id each."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (2, 3, 5):
        for k, field in enumerate(batched_fields(n, rng)[:5]):
            u = rng.uniform(-1.0, 1.0, n * n)
            cases.append(pytest.param(field, u, 1e-3, id=f"batched-n{n}-{k}"))
    quartic = polynomial_field(
        4, [(0.7, (2, 1, 0, 1)), (-1.3, (0, 3, 1, 0)), (0.4, (1, 0, 0, 2))]
    )
    cases.append(pytest.param(quartic, rng.uniform(-1.0, 1.0, 4), 1e-3, id="polynomial"))
    lam = finite_difference_field(lambda u: float(np.sin(u[0]) * u[1] ** 3 - u[2]), 3)
    cases.append(pytest.param(lam, rng.uniform(-1.0, 1.0, 3), 1e-4, id="lambda"))
    # m = 66: the Hessian stencil has 8713 rows, more than one chunk.
    wide = block_product_field(66, slice(0, 33), slice(33, 66), 0.75)
    cases.append(pytest.param(wide, rng.uniform(-1.0, 1.0, 66), 1e-3, id="wide"))
    return cases


@pytest.mark.parametrize("field, u, h", stencil_cases())
def test_stencils_match_the_per_point_loops_bit_for_bit(field, u, h):
    assert_same_bits(_fd_gradient(field.values, u, h), reference_fd_gradient(field.value_fn, u, h))
    assert_same_bits(_fd_hessian(field.values, u, h), reference_fd_hessian(field.value_fn, u, h))


def test_wide_stencil_spans_several_chunks():
    m = 66
    assert len(constraint_core._chunks(1 + 2 * m * m, 8 * m)) > 1


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_stencils_do_not_depend_on_the_chunk_size(monkeypatch, rows):
    rng = np.random.default_rng(3)
    field = batched_fields(3, rng)[3]
    u = rng.uniform(-1.0, 1.0, 9)
    calls = []

    def values(X):
        calls.append(len(X))
        return field.values(X)

    monkeypatch.setattr(constraint_core, "_CHUNK_BYTES", rows * 8 * u.size)
    assert_same_bits(_fd_hessian(values, u, 1e-3), reference_fd_hessian(field.value_fn, u, 1e-3))
    assert_same_bits(_fd_gradient(values, u, 1e-5), reference_fd_gradient(field.value_fn, u, 1e-5))
    assert max(calls) <= rows


def test_verify_sized_stencils_are_one_call_each():
    field = batched_fields(5, np.random.default_rng(4))[2]
    calls = []

    def values(X):
        calls.append(len(X))
        return field.values(X)

    u = np.linspace(-1.0, 1.0, 25)
    _fd_hessian(values, u, 1e-3)
    _fd_gradient(values, u, 1e-5)
    assert calls == [1 + 2 * 25 * 25, 2 * 25]


def test_finite_difference_field_from_a_field_uses_its_batch():
    rng = np.random.default_rng(8)
    source = batched_fields(3, rng)[1]
    batched = finite_difference_field(source, 9, grad_step=1e-5, hess_step=1e-3)
    looped = finite_difference_field(source.value_fn, 9, grad_step=1e-5, hess_step=1e-3)
    assert batched.values_fn is source.values_fn and looped.values_fn is None
    assert batched.provenance == looped.provenance
    u = rng.uniform(-1.0, 1.0, 9)
    assert batched.value(u) == looped.value(u)
    assert_same_bits(batched.gradient(u), looped.gradient(u))
    assert_same_bits(batched.hessian(u), looped.hessian(u))
