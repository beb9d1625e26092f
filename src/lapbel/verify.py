"""Verification suites behind the command-line ``verify`` command.

Each suite sweeps deterministic seeded random cases and reduces every named
check to its worst observed deviation against the stated tolerance. Reports
carry no timestamps, so the same inputs produce byte-identical output.

Suites: ``lemmas-sphere`` (frame algebra on the sphere), ``lemmas-on``
(frame and reflection algebra on the orthogonal group),
``theorem-equivalence`` (closed forms against the general evaluator),
``eigenfunctions`` (spectral identities), ``oracle`` (geodesic
finite-difference estimates and derivative hygiene), and ``all``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import constraint_core as core
from . import numkit, oracles, orthogonal, sphere
from .errors import ValidationError
from .numkit import SUITES

_RADII = (1.0, 2.5)

# Salts decorrelate the RNG streams of different check families while
# keeping every stream a pure function of (salt, n, seed index).
_SALT_SPHERE_POINTS = 11
_SALT_SPHERE_FIELDS = 12
_SALT_ON_POINTS = 21
_SALT_ON_FIELDS = 22
_SALT_ORACLE = 31
_SALT_HYGIENE = 32


@dataclass
class CheckRecord:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerifyReport:
    suite: str
    checks: list
    passed: bool
    environment: dict

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "environment": self.environment,
        }


class _Tracker:
    """Accumulates the worst deviation seen for one named check."""

    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.max_deviation = 0.0

    def see(self, deviation: float) -> None:
        deviation = abs(float(deviation))
        if deviation > self.max_deviation:
            self.max_deviation = deviation

    def see_matrix(self, delta) -> None:
        self.see(float(np.max(np.abs(delta))))

    def record(self) -> CheckRecord:
        return CheckRecord(
            name=self.name,
            max_deviation=self.max_deviation,
            tolerance=self.tolerance,
            passed=self.max_deviation <= self.tolerance,
        )


def _rng(salt: int, n: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([salt, n, seed])


def random_polynomial_field(rng, dim: int, degree: int = 4, terms: int = 8):
    """Sparse random polynomial with integer exponents of total degree at
    most ``degree`` and coefficients uniform in [-1, 1]."""
    rows = []
    for _ in range(terms):
        powers = np.zeros(dim, dtype=int)
        total = int(rng.integers(0, degree + 1))
        support = rng.integers(0, dim, size=3)
        for _ in range(total):
            powers[support[rng.integers(0, 3)]] += 1
        rows.append((float(rng.uniform(-1.0, 1.0)), powers))
    return core.polynomial_field(dim, rows)


def random_symmetric(rng, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return (M + M.T) / 2.0


def _identity_tol(default: float, override: float | None) -> float:
    return default if override is None else override


# --------------------------------------------------------------------------
# suite: lemmas-sphere


def suite_lemmas_sphere(ns, seeds: int, tol: float | None = None) -> list:
    tangency = _Tracker("sphere-frame-tangency", _identity_tol(1e-12, tol))
    gram_inv = _Tracker("sphere-gram-inverse", _identity_tol(1e-10, tol))
    projector = _Tracker("sphere-projector-from-frame", _identity_tol(1e-10, tol))
    chart_free = _Tracker("sphere-projector-chart-free", _identity_tol(1e-10, tol))
    idempotent = _Tracker("sphere-projector-idempotent", _identity_tol(1e-12, tol))
    for n in ns:
        for radius in _RADII:
            for s in range(seeds):
                rng = _rng(_SALT_SPHERE_POINTS, n, s)
                point = sphere.random_sphere_point(n, radius, rng)
                x = point.coords
                P = sphere.sphere_projector(point)
                idempotent.see_matrix(P @ P - P)
                # Indices with enough margin that the 1e-10 identity is
                # meaningful: the Gram condition is R^2/x_j^2.
                valid = np.flatnonzero(np.abs(x) >= 1e-2 * radius)
                # every valid chart's frame, and its left inverse, as one stack
                frames = sphere._sphere_frames(np.tile(x, (valid.size, 1)), radius, valid)
                limit = numkit.DEFAULT_TOLERANCES.condition_limit
                inverses, _, refused = numkit.frame_pseudo_inverses(frames, limit)
                numkit.raise_first(refused)
                projectors = []
                for j, T, T_plus in zip(valid, frames, inverses):
                    tangency.see_matrix(x @ T)
                    G = T.T @ T
                    gram_inv.see_matrix(
                        G @ sphere.sphere_frame_gram_inverse(point, j) - np.eye(n - 1)
                    )
                    TT_plus = T @ T_plus
                    projector.see_matrix(TT_plus - P)
                    projectors.append(TT_plus)
                for other in projectors[1:]:
                    chart_free.see_matrix(other - projectors[0])
    return [t.record() for t in (tangency, gram_inv, projector, chart_free, idempotent)]


# --------------------------------------------------------------------------
# suite: lemmas-on


def suite_lemmas_on(ns, seeds: int, tol: float | None = None) -> list:
    theta_orth = _Tracker("on-theta-orthogonality", _identity_tol(1e-12, tol))
    frame_gram = _Tracker("on-frame-gram", _identity_tol(1e-10, tol))
    frame_proj = _Tracker("on-frame-projector", _identity_tol(1e-10, tol))
    involution = _Tracker("on-lambda-involution", _identity_tol(1e-10, tol))
    lam_trace = _Tracker("on-lambda-trace", _identity_tol(1e-10, tol))
    tangency = _Tracker("on-frame-tangency", _identity_tol(1e-12, tol))
    contraction = _Tracker("on-lambda-contraction", _identity_tol(1e-10, tol))
    for n in ns:
        thetas = orthogonal.theta_basis(n)
        for i, Ti in enumerate(thetas):
            for j, Tj in enumerate(thetas):
                expected = 2.0 if i == j else 0.0
                theta_orth.see(float(np.trace(Ti.T @ Tj)) - expected)
        constraints = orthogonal.on_constraint_set(n)
        dim = n * (n - 1) // 2
        for s in range(seeds):
            point = orthogonal.random_orthogonal(n, _rng(_SALT_ON_POINTS, n, s))
            T = orthogonal.on_frame(point)
            frame_gram.see_matrix(T.T @ T - 2.0 * np.eye(dim))
            L = orthogonal.lambda_of(point)
            frame_proj.see_matrix(T @ T.T + L - np.eye(n * n))
            involution.see_matrix(L @ L - np.eye(n * n))
            lam_trace.see(float(np.trace(L)) - n)
            grads = constraints.gradients(point.to_vector())
            cols = [T[:, c] for c in range(dim)]
            tangency.see_matrix(numkit.gram(grads, cols))
            rng = _rng(_SALT_ON_FIELDS, n, s)
            H = random_symmetric(rng, n * n)
            contraction.see(
                orthogonal.trace_lambda_product(point, H) - float(np.trace(L @ H))
            )
    return [
        t.record()
        for t in (
            theta_orth,
            frame_gram,
            frame_proj,
            involution,
            lam_trace,
            tangency,
            contraction,
        )
    ]


# --------------------------------------------------------------------------
# suite: theorem-equivalence


def suite_theorem_equivalence(ns, seeds: int, tol: float | None = None) -> list:
    sphere_eq = _Tracker("sphere-general-vs-closed", _identity_tol(1e-8, tol))
    on_eq = _Tracker("on-general-vs-closed", _identity_tol(1e-8, tol))
    for n in ns:
        for radius in _RADII:
            constraints = sphere.sphere_constraint_set(n, radius)
            frame = sphere.sphere_adapted_frame(radius)
            for s in range(seeds):
                rng = _rng(_SALT_SPHERE_FIELDS, n, s)
                f = random_polynomial_field(rng, n, degree=4)
                point = sphere.random_sphere_point(n, radius, rng)
                closed = sphere.sphere_laplacian(f, point)
                report = core.laplace_beltrami_general(
                    f, constraints, frame, point.coords
                )
                sphere_eq.see(report.value - closed)
        constraints = orthogonal.on_constraint_set(n)
        frame = orthogonal.on_adapted_frame()
        for s in range(seeds):
            rng = _rng(_SALT_ON_FIELDS, n, s)
            f = random_polynomial_field(rng, n * n, degree=4)
            point = orthogonal.random_orthogonal(n, _rng(_SALT_ON_POINTS, n, s))
            closed = orthogonal.on_laplacian(f, point)
            report = core.laplace_beltrami_general(
                f, constraints, frame, point.to_vector()
            )
            on_eq.see(report.value - closed.value)
    return [sphere_eq.record(), on_eq.record()]


# --------------------------------------------------------------------------
# suite: eigenfunctions


def suite_eigenfunctions(ns, seeds: int, tol: float | None = None) -> list:
    p1_eigen = _Tracker("on-p1-eigen", _identity_tol(1e-10, tol))
    combo_eigen = _Tracker("on-p11-p2-combination-eigen", _identity_tol(1e-9, tol))
    linear_eigen = _Tracker("sphere-linear-eigen", _identity_tol(1e-10, tol))
    quad_eigen = _Tracker("sphere-quadratic-harmonic-eigen", _identity_tol(1e-10, tol))
    homog = _Tracker("sphere-homogeneous-consistency", _identity_tol(1e-10, tol))
    for n in ns:
        for s in range(seeds):
            rng = _rng(_SALT_ON_FIELDS, n, s)
            A = rng.standard_normal((n, n))
            point = orthogonal.random_orthogonal(n, _rng(_SALT_ON_POINTS, n, s))
            f1 = orthogonal.p1_field(A)
            value = orthogonal.on_laplacian(f1, point).value
            p1 = f1.value(point.to_vector())
            p1_eigen.see(value + (n - 1) / 2.0 * p1)
            combo = orthogonal.p11_field(A) - orthogonal.p2_field(A)
            cval = combo.value(point.to_vector())
            value = orthogonal.on_laplacian(combo, point).value
            combo_eigen.see(value + (n - 2) * cval)
        for radius in _RADII:
            for s in range(seeds):
                rng = _rng(_SALT_SPHERE_FIELDS, n, s)
                point = sphere.random_sphere_point(n, radius, rng)
                coeffs = rng.uniform(-1.0, 1.0, size=n)
                lin = core.linear_field(coeffs)
                lv = lin.value(point.coords)
                laplacian = sphere.sphere_laplacian(lin, point)
                linear_eigen.see(laplacian + (n - 1) / radius**2 * lv)
                homog.see(sphere.homogeneous_sphere_laplacian(lin, 1, point) - laplacian)
                a, b = 0, n - 1
                e_ab = np.zeros(n, dtype=int)
                e_ab[a] += 1
                e_ab[b] += 1
                cross = core.polynomial_field(n, [(1.0, e_ab)])
                two_a = np.zeros(n, dtype=int)
                two_a[a] = 2
                two_b = np.zeros(n, dtype=int)
                two_b[b] = 2
                diff = core.polynomial_field(n, [(1.0, two_a), (-1.0, two_b)])
                for quad in (cross, diff):
                    qv = quad.value(point.coords)
                    laplacian = sphere.sphere_laplacian(quad, point)
                    quad_eigen.see(laplacian + 2.0 * n / radius**2 * qv)
                    homog.see(sphere.homogeneous_sphere_laplacian(quad, 2, point) - laplacian)
    return [
        t.record()
        for t in (p1_eigen, combo_eigen, linear_eigen, quad_eigen, homog)
    ]


# --------------------------------------------------------------------------
# suite: oracle


def suite_oracle(
    ns, seeds: int, tol: float | None = None, h: float = 1e-3
) -> list:
    fd_tol = numkit.DEFAULT_TOLERANCES.fd_oracle
    config = oracles.OracleConfig(step=h)
    sphere_geo = _Tracker("sphere-geodesic-vs-closed", fd_tol)
    on_geo = _Tracker("on-geodesic-vs-closed", fd_tol)
    convergence = _Tracker("geodesic-convergence", 1.0)
    grad_hyg = _Tracker("gradient-hygiene", _identity_tol(1e-6, tol))
    hess_hyg = _Tracker("hessian-hygiene", _identity_tol(1e-5, tol))
    grad_config = oracles.OracleConfig(step=1e-5)
    hess_config = oracles.OracleConfig(step=1e-3)
    for n in ns:
        for s in range(seeds):
            rng = _rng(_SALT_ORACLE, n, s)
            point = sphere.random_sphere_point(n, 1.0, rng)
            f = random_polynomial_field(rng, n, degree=4)
            sphere_geo.see(
                oracles.geodesic_laplacian_sphere(f, point, config)
                - sphere.sphere_laplacian(f, point)
            )
            U = orthogonal.random_orthogonal(n, rng)
            A = rng.standard_normal((n, n))
            S = random_symmetric(rng, n)
            mu = rng.uniform(-1.0, 1.0, size=n)
            cases = [
                (orthogonal.p1_field(A), orthogonal.p1_laplacian(A, U)),
                (orthogonal.p11_field(A), orthogonal.p11_laplacian(A, U)),
                (orthogonal.p2_field(A), orthogonal.p2_laplacian(A, U)),
                (
                    orthogonal.brockett_field(S, mu),
                    orthogonal.brockett_laplacian(S, mu, U),
                ),
            ]
            for field, closed in cases:
                on_geo.see(oracles.geodesic_laplacian_on(field, U, config) - closed)
        # Convergence is checked at a truncation-dominated step regardless
        # of the requested h: halving the step must cut the error by about
        # four; |ratio - 4| <= 1 is the [3, 5] window.
        rng = _rng(_SALT_ORACLE, n, 9999)
        point = sphere.random_sphere_point(n, 1.0, rng)
        f = random_polynomial_field(rng, n, degree=4)
        exact = sphere.sphere_laplacian(f, point)
        coarse = oracles.OracleConfig(step=1e-2)
        fine = oracles.OracleConfig(step=5e-3)
        err_c = abs(oracles.geodesic_laplacian_sphere(f, point, coarse) - exact)
        err_f = abs(oracles.geodesic_laplacian_sphere(f, point, fine) - exact)
        if err_f > 0:
            convergence.see(err_c / err_f - 4.0)
        U = orthogonal.random_orthogonal(n, rng)
        A = rng.standard_normal((n, n))
        exact = orthogonal.p11_laplacian(A, U)
        fld = orthogonal.p11_field(A)
        err_c = abs(oracles.geodesic_laplacian_on(fld, U, coarse) - exact)
        err_f = abs(oracles.geodesic_laplacian_on(fld, U, fine) - exact)
        if err_f > 0:
            convergence.see(err_c / err_f - 4.0)
        # Derivative hygiene for every registered analytic field family,
        # each kind of check on one stencil per case.
        constraint_fields = orthogonal.on_constraint_set(n).fields
        for s in range(seeds):
            rng = _rng(_SALT_HYGIENE, n, s)
            A = rng.standard_normal((n, n))
            S = random_symmetric(rng, n)
            mu = rng.uniform(-1.0, 1.0, size=n)
            fields = [
                orthogonal.p1_field(A),
                orthogonal.p11_field(A),
                orthogonal.p2_field(A),
                orthogonal.brockett_field(S, mu),
                *constraint_fields,
            ]
            u = rng.uniform(-1.0, 1.0, size=n * n)
            for deviation in oracles.check_gradients(fields, u, grad_config):
                grad_hyg.see(deviation)
            for deviation in oracles.check_hessians(fields, u, hess_config):
                hess_hyg.see(deviation)
    return [
        t.record()
        for t in (sphere_geo, on_geo, convergence, grad_hyg, hess_hyg)
    ]


# --------------------------------------------------------------------------


def run_suite(
    suite: str,
    ns,
    seeds: int = 5,
    tol: float | None = None,
    h: float = 1e-3,
) -> VerifyReport:
    """Run one named suite (or ``all``) over dimensions ``ns`` with
    ``seeds`` random draws per configuration."""
    if suite not in SUITES:
        raise ValidationError(
            f"unknown suite '{suite}'; choose one of {', '.join(SUITES)}"
        )
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 2:
        raise ValidationError("suite dimensions must be integers >= 2")
    if seeds < 1:
        raise ValidationError("seeds must be a positive count")
    checks: list = []
    if suite in ("lemmas-sphere", "all"):
        checks.extend(suite_lemmas_sphere(ns, seeds, tol))
    if suite in ("lemmas-on", "all"):
        checks.extend(suite_lemmas_on(ns, seeds, tol))
    if suite in ("theorem-equivalence", "all"):
        checks.extend(suite_theorem_equivalence(ns, seeds, tol))
    if suite in ("eigenfunctions", "all"):
        checks.extend(suite_eigenfunctions(ns, seeds, tol))
    if suite in ("oracle", "all"):
        checks.extend(suite_oracle(ns, seeds, tol, h))
    environment = {
        "n_values": ns,
        "seeds": seeds,
        "h": h,
        "tolerance_override": tol,
        "tolerances": asdict(numkit.DEFAULT_TOLERANCES),
    }
    return VerifyReport(
        suite=suite,
        checks=checks,
        passed=all(c.passed for c in checks),
        environment=environment,
    )
