"""Accuracy of the general evaluator against references.

A 50-digit mpmath evaluation of the same formula, from the same inputs J,
∇f, H, the constraint Hessians and T, bounds the rounding of the float64
route, and of the sphere and O(4) closed forms at the same points; sweeps of sphere chart frames and of mixed O(4) frames toward their
condition limit bound how fast accuracy is lost with the frame's
conditioning.
"""

import mpmath
import numpy as np
import pytest

from lapbel import (
    AdaptedFrame,
    ConstraintSet,
    OrthogonalPoint,
    SpherePoint,
    brockett_field,
    laplace_beltrami_general,
    on_adapted_frame,
    on_constraint_set,
    on_laplacian,
    polynomial_field,
    sphere_adapted_frame,
    sphere_constraint_set,
    sphere_laplacian,
    sphere_report,
)
from lapbel.constraint_core import _hessians_at


def constraint_hessians(cons, u):
    """The k-by-m-by-m stack of the constraint Hessians at ``u``."""
    return _hessians_at(cons.fields, np.asarray(u, dtype=float)[None])[0]


def reference_report(J, grad, H, Hs, T=None, digits=50):
    """sigma, trace_main, trace_constraint and value at ``digits`` digits.

    sigma solves (J J^t) sigma = J ∇f. Each trace is <P, X>_F with P the
    tangent projector: I - J^t (J J^t)^{-1} J without a frame, else
    T (T^t T)^{-1} T^t, so that <P, X>_F = tr(T+ X T). The float inputs are
    taken exactly; the results are mpf numbers.
    """
    with mpmath.workdps(digits):
        Jm = mpmath.matrix(np.asarray(J).tolist())
        gram = Jm * Jm.T
        sigma = mpmath.lu_solve(gram, Jm * mpmath.matrix(np.asarray(grad).tolist()))
        if T is None:
            P = mpmath.eye(Jm.cols) - Jm.T * mpmath.inverse(gram) * Jm
        else:
            Tm = mpmath.matrix(np.asarray(T).tolist())
            P = Tm * mpmath.inverse(Tm.T * Tm) * Tm.T

        def trace(X):
            rows, cols = np.nonzero(X)
            return mpmath.fsum(P[i, j] * X[i, j] for i, j in zip(rows.tolist(), cols.tolist()))

        trace_main = trace(np.asarray(H))
        trace_constraint = [trace(X) for X in np.asarray(Hs)]
        sigma = [sigma[a] for a in range(Jm.rows)]
        value = trace_main - mpmath.fsum(s * t for s, t in zip(sigma, trace_constraint))
        return {
            "sigma": sigma,
            "trace_main": trace_main,
            "trace_constraint": trace_constraint,
            "value": value,
        }


def report_distance(report, reference) -> float:
    """Largest |computed - reference| / max(1, |reference|) over sigma, the
    traces and the value of a LaplacianReport."""
    worst = 0.0
    for name, ref in reference.items():
        computed = np.atleast_1d(getattr(report, name))
        for x, r in zip(computed.tolist(), ref if isinstance(ref, list) else [ref]):
            worst = max(worst, float(abs(mpmath.mpf(x) - r) / max(1, abs(r))))
    return worst


def _torus_case():
    def circle(first):
        powers = [[0] * 4, [0] * 4]
        powers[0][first], powers[1][first + 1] = 2, 2
        return polynomial_field(4, [(1.0, p) for p in powers])

    cons = ConstraintSet(ambient_dim=4, fields=(circle(0), circle(2)), regular_value=[1.0, 1.0])
    f = polynomial_field(4, [(1.3, (2, 1, 1, 0)), (-0.4, (0, 0, 2, 2)), (0.7, (0, 1, 0, 3))])
    s, t = 0.7, 2.3
    return f, cons, None, np.array([np.cos(s), np.sin(s), np.cos(t), np.sin(t)])


def _orthogonal_case():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    f = brockett_field(A + A.T, rng.standard_normal(4))
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return f, on_constraint_set(4), on_adapted_frame(), U.reshape(-1, order="F")


def _sphere_chart_case():
    f = polynomial_field(
        5, [(1.0, (3, 0, 1, 0, 0)), (-2.0, (0, 2, 0, 0, 2)), (0.5, (1, 1, 1, 1, 0)), (0.3, (0, 0, 0, 1, 0))]
    )
    x = np.array([0.4, -1.1, 0.7, 0.9, 1.2])
    x *= 2.0 / np.linalg.norm(x)
    return f, sphere_constraint_set(5, 2.0), sphere_adapted_frame(2.0, excluded_index=3), x


def _on_closed_form(f, cons, frame, u):
    return on_laplacian(f, OrthogonalPoint(u.reshape(4, 4, order="F")))


def _sphere_closed_form(f, cons, frame, u):
    return sphere_report(f, SpherePoint(u, 2.0), excluded_index=3)


@pytest.mark.parametrize(
    "case, evaluate",
    [
        (_torus_case, laplace_beltrami_general),
        (_orthogonal_case, laplace_beltrami_general),
        (_sphere_chart_case, laplace_beltrami_general),
        (_orthogonal_case, _on_closed_form),
        (_sphere_chart_case, _sphere_closed_form),
    ],
    ids=["torus", "O(4)", "sphere-chart", "O(4)-on_laplacian", "sphere-chart-sphere_report"],
)
def test_general_evaluator_matches_a_50_digit_reference(case, evaluate):
    # the closed forms are held to the general evaluator's bound too
    f, cons, frame, u = case()
    report = evaluate(f, cons, frame, u)
    T = None if frame is None else frame.at(u)
    reference = reference_report(cons.jacobian(u), f.gradient(u), f.hessian(u), constraint_hessians(cons, u), T)
    assert report_distance(report, reference) <= 1e-14


def _sphere_chart_at(condition):
    # Pushing the excluded coordinate x_j toward 0 sets the chart frame's
    # Gram condition R^2 / x_j^2; the normal equations square it.
    radius, j = 1.5, 4
    rng = np.random.default_rng(3)
    rest = rng.standard_normal(4)
    x_j = radius / np.sqrt(condition)
    x = np.append(rest * np.sqrt(radius**2 - x_j**2) / np.linalg.norm(rest), x_j)
    f = polynomial_field(
        5, [(1.0, (2, 1, 0, 0, 1)), (0.8, (0, 0, 3, 1, 0)), (-1.2, (1, 0, 0, 2, 0)), (0.5, (0, 2, 0, 0, 0))]
    )
    return f, sphere_constraint_set(5, radius), sphere_adapted_frame(radius, excluded_index=j), x


def _mixed_orthogonal_at(condition):
    # The O(4) frame times a fixed 6-by-6 mixing M = Q1 D Q2 with cond(M)^2 =
    # condition: the tangent spaces stay, the frame Gram takes that condition.
    f, cons, frame, u = _orthogonal_case()
    rng = np.random.default_rng(11)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((6, 6)))[0] for _ in range(2))
    M = Q1 * np.logspace(0.0, -0.5 * np.log10(condition), 6) @ Q2
    return f, cons, AdaptedFrame(lambda X: frame.at(X) @ M), u


@pytest.mark.parametrize("condition", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_sphere_chart_accuracy_follows_the_frame_condition(condition):
    f, cons, frame, x = _sphere_chart_at(condition)
    report = laplace_beltrami_general(f, cons, frame, x)
    assert report.frame_gram_condition == pytest.approx(condition, rel=1e-12)
    closed = sphere_laplacian(f, SpherePoint(x, cons.regular_value[0] ** 0.5))
    assert abs(report.value - closed) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("condition", [10.0**e for e in range(2, 12)])
@pytest.mark.parametrize("case", [_sphere_chart_at, _mixed_orthogonal_at], ids=["sphere-chart", "O(4)"])
def test_explicit_frame_accuracy_per_condition_decade(case, condition):
    # The frame's span is only fixed to about eps cond(T) by its rounding,
    # with cond(T) the square root of the Gram condition; the traces through
    # the frame's orthonormal QR factor lose no more than a few times that.
    f, cons, frame, u = case(condition)
    report = laplace_beltrami_general(f, cons, frame, u)
    assert report.frame_gram_condition == pytest.approx(condition, rel=1e-9)
    reference = reference_report(cons.jacobian(u), f.gradient(u), f.hessian(u), constraint_hessians(cons, u), frame.at(u))
    assert report_distance(report, reference) <= 8 * np.finfo(float).eps * np.sqrt(condition)
