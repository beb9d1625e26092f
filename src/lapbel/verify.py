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

import math

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


class CheckRecord:
    """The worst deviation seen for one named check, against its tolerance."""

    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.max_deviation = 0.0

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def see(self, deviation: float) -> None:
        """Keep the deviation if it is the worst yet; a NaN is kept for good
        and fails the check."""
        deviation = abs(float(deviation))
        if deviation > self.max_deviation or math.isnan(deviation):
            self.max_deviation = deviation

    def see_matrix(self, delta) -> None:
        self.see(float(np.max(np.abs(delta))))  # NaN where any entry is

    def to_dict(self) -> dict:
        deviation = self.max_deviation
        return {
            "name": self.name,
            "max_deviation": deviation if math.isfinite(deviation) else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


class VerifyReport:
    def __init__(self, suite: str, checks: list, environment: dict):
        self.suite = suite
        self.checks = checks
        self.environment = environment

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "environment": self.environment,
        }


def _rng(salt: int, n: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([salt, n, seed])


def random_polynomial_field(rng, dim: int, degree: int = 4):
    """Sparse random polynomial of 8 terms with integer exponents of total
    degree at most ``degree`` and coefficients uniform in [-1, 1]."""
    rows = []
    for _ in range(8):
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


def _on_cases(rng, n: int, U=None) -> list:
    """Draw A, S and mu, and build p1, p11 and p2 of A and the Brockett cost
    of (S, mu); with ``U``, pair each field with its closed form at U."""
    A = rng.standard_normal((n, n))
    S = random_symmetric(rng, n)
    mu = rng.uniform(-1.0, 1.0, size=n)
    fields = [orthogonal.p1_field(A), orthogonal.p11_field(A), orthogonal.p2_field(A)]
    fields.append(orthogonal.brockett_field(S, mu))
    if U is None:
        return fields
    closed = [orthogonal.p1_laplacian(A, U), orthogonal.p11_laplacian(A, U)]
    closed += [orthogonal.p2_laplacian(A, U), orthogonal.brockett_laplacian(S, mu, U)]
    return list(zip(fields, closed))


# --------------------------------------------------------------------------
# suite: lemmas-sphere


def suite_lemmas_sphere(ns, seeds: int, tol: float | None = None) -> list:
    tangency = CheckRecord("sphere-frame-tangency", _identity_tol(1e-12, tol))
    gram_inv = CheckRecord("sphere-gram-inverse", _identity_tol(1e-10, tol))
    projector = CheckRecord("sphere-projector-from-frame", _identity_tol(1e-10, tol))
    chart_free = CheckRecord("sphere-projector-chart-free", _identity_tol(1e-10, tol))
    idempotent = CheckRecord("sphere-projector-idempotent", _identity_tol(1e-12, tol))
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
                Q, R, _, refused = numkit.frame_qrs(frames, limit)
                numkit.raise_first(refused)
                inverses = np.linalg.solve(R, np.swapaxes(Q, 1, 2))
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
    return [tangency, gram_inv, projector, chart_free, idempotent]


# --------------------------------------------------------------------------
# suite: lemmas-on


def suite_lemmas_on(ns, seeds: int, tol: float | None = None) -> list:
    theta_orth = CheckRecord("on-theta-orthogonality", _identity_tol(1e-12, tol))
    frame_gram = CheckRecord("on-frame-gram", _identity_tol(1e-10, tol))
    frame_proj = CheckRecord("on-frame-projector", _identity_tol(1e-10, tol))
    involution = CheckRecord("on-lambda-involution", _identity_tol(1e-10, tol))
    lam_trace = CheckRecord("on-lambda-trace", _identity_tol(1e-10, tol))
    tangency = CheckRecord("on-frame-tangency", _identity_tol(1e-12, tol))
    contraction = CheckRecord("on-lambda-contraction", _identity_tol(1e-10, tol))
    for n in ns:
        # tr(theta_i^t theta_j) = 2 delta_ij, one entry per pair of basis matrices
        thetas = np.reshape(orthogonal.theta_basis(n), (-1, n * n))
        theta_orth.see_matrix(thetas @ thetas.T - 2.0 * np.eye(len(thetas)))
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
            # the frame goes in Fortran order, so each entry is the inner
            # product of a gradient with one contiguous frame column; the plain
            # J @ T sums in another order and moves the check's last bits
            J = constraints.jacobian(point.to_vector())
            tangency.see_matrix(J @ np.ascontiguousarray(T.T).T)
            rng = _rng(_SALT_ON_FIELDS, n, s)
            H = random_symmetric(rng, n * n)
            contraction.see(
                orthogonal.trace_lambda_product(point, H) - float(np.trace(L @ H))
            )
    return [theta_orth, frame_gram, frame_proj, involution, lam_trace, tangency, contraction]


# --------------------------------------------------------------------------
# suite: theorem-equivalence


def suite_theorem_equivalence(ns, seeds: int, tol: float | None = None) -> list:
    sphere_eq = CheckRecord("sphere-general-vs-closed", _identity_tol(1e-8, tol))
    on_eq = CheckRecord("on-general-vs-closed", _identity_tol(1e-8, tol))
    for n in ns:
        # each (n, radius) group's seeds take one general-path call and one
        # closed-form driver call, one field per row; sphere_laplacian, the
        # independent reference, stays per point
        for radius in _RADII:
            fields, points = [], []
            for s in range(seeds):
                rng = _rng(_SALT_SPHERE_FIELDS, n, s)
                fields.append(random_polynomial_field(rng, n, degree=4))
                points.append(sphere.random_sphere_point(n, radius, rng))
            X = np.stack([point.coords for point in points])
            frame = sphere.sphere_adapted_frame(radius)
            general = core.evaluate_points(fields, sphere.sphere_constraint_set(n, radius), frame, X)
            driver = sphere.sphere_reports(fields, X, radius, tol=math.inf)  # admitted on construction
            for f, point, *reports in zip(fields, points, general, driver):
                closed = sphere.sphere_laplacian(f, point)
                for report in reports:
                    sphere_eq.see(core._only([report]).value - closed)
        fields = [random_polynomial_field(_rng(_SALT_ON_FIELDS, n, s), n * n) for s in range(seeds)]
        points = [orthogonal.random_orthogonal(n, _rng(_SALT_ON_POINTS, n, s)) for s in range(seeds)]
        X = np.stack([point.to_vector() for point in points])
        closed = orthogonal.on_laplacians(fields, X, math.inf)  # admitted on construction
        frame = orthogonal.on_adapted_frame()
        general = core.evaluate_points(fields, orthogonal.on_constraint_set(n), frame, X)
        for closed_report, report in zip(closed, general):
            closed_value = core._only([closed_report]).value
            on_eq.see(core._only([report]).value - closed_value)
    return [sphere_eq, on_eq]


# --------------------------------------------------------------------------
# suite: eigenfunctions


def suite_eigenfunctions(ns, seeds: int, tol: float | None = None) -> list:
    p1_eigen = CheckRecord("on-p1-eigen", _identity_tol(1e-10, tol))
    combo_eigen = CheckRecord("on-p11-p2-combination-eigen", _identity_tol(1e-9, tol))
    linear_eigen = CheckRecord("sphere-linear-eigen", _identity_tol(1e-10, tol))
    quad_eigen = CheckRecord("sphere-quadratic-harmonic-eigen", _identity_tol(1e-10, tol))
    homog = CheckRecord("sphere-homogeneous-consistency", _identity_tol(1e-10, tol))
    for n in ns:
        # eigenvalues -(n - 1)/2 for p1 and -(n - 2) for p11 - p2, every seed in one call
        cases = []
        for s in range(seeds):
            A = _rng(_SALT_ON_FIELDS, n, s).standard_normal((n, n))
            u = orthogonal.random_orthogonal(n, _rng(_SALT_ON_POINTS, n, s)).to_vector()
            cases.append((orthogonal.p1_field(A), u, (n - 1) / 2.0, p1_eigen))
            combo = orthogonal.p11_field(A) - orthogonal.p2_field(A)
            cases.append((combo, u, n - 2, combo_eigen))
        fields, X = [case[0] for case in cases], np.stack([case[1] for case in cases])
        reports = orthogonal.on_laplacians(fields, X, math.inf)  # admitted on construction
        for (field, u, eigenvalue, check), report in zip(cases, reports):
            check.see(core._only([report]).value + eigenvalue * field.value(u))
        # The harmonic quadratics x_a x_b and x_a^2 - x_b^2, for a = 0 and
        # b = n - 1; a harmonic of degree l has eigenvalue -l (l + n - 2)/R^2.
        a, b = np.eye(n, dtype=int)[[0, -1]]
        harmonics = [
            (core.polynomial_field(n, [(1.0, a + b)]), 2, quad_eigen),
            (core.polynomial_field(n, [(1.0, 2 * a), (-1.0, 2 * b)]), 2, quad_eigen),
        ]
        for radius in _RADII:
            for s in range(seeds):
                rng = _rng(_SALT_SPHERE_FIELDS, n, s)
                point = sphere.random_sphere_point(n, radius, rng)
                linear = core.linear_field(rng.uniform(-1.0, 1.0, size=n))
                for field, degree, check in [(linear, 1, linear_eigen), *harmonics]:
                    laplacian = sphere.sphere_laplacian(field, point)
                    eigenvalue = degree * (degree + n - 2) / radius**2
                    check.see(laplacian + eigenvalue * field.value(point.coords))
                    homog.see(
                        sphere.homogeneous_sphere_laplacian(field, degree, point) - laplacian
                    )
    return [p1_eigen, combo_eigen, linear_eigen, quad_eigen, homog]


# --------------------------------------------------------------------------
# suite: oracle


def suite_oracle(
    ns, seeds: int, tol: float | None = None, h: float = 1e-3
) -> list:
    fd_tol = numkit.DEFAULT_TOLERANCES.fd_oracle
    config = oracles.OracleConfig(step=h)
    sphere_geo = CheckRecord("sphere-geodesic-vs-closed", fd_tol)
    on_geo = CheckRecord("on-geodesic-vs-closed", fd_tol)
    convergence = CheckRecord("geodesic-convergence", 1.0)
    grad_hyg = CheckRecord("gradient-hygiene", _identity_tol(1e-6, tol))
    hess_hyg = CheckRecord("hessian-hygiene", _identity_tol(1e-5, tol))
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
            for field, closed in _on_cases(rng, n, U):
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
            fields = [*_on_cases(rng, n), *constraint_fields]
            u = rng.uniform(-1.0, 1.0, size=n * n)
            for deviation in oracles.check_gradients(fields, u, grad_config):
                grad_hyg.see(deviation)
            for deviation in oracles.check_hessians(fields, u, hess_config):
                hess_hyg.see(deviation)
    return [sphere_geo, on_geo, convergence, grad_hyg, hess_hyg]


# --------------------------------------------------------------------------


def run_suite(
    suite: str,
    ns,
    seeds: int = 5,
    tol: float | None = None,
    h: float = 1e-3,
) -> VerifyReport:
    """Run one named suite (or ``all``) over dimensions ``ns`` with
    ``seeds`` random draws per configuration. The oracle step ``h`` must lie
    in [1e-6, 1e-1] (ContractError otherwise) whichever suite runs."""
    if suite not in SUITES:
        raise ValidationError(
            f"unknown suite '{suite}'; choose one of {', '.join(SUITES)}"
        )
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 2:
        raise ValidationError("suite dimensions must be integers >= 2")
    if seeds < 1:
        raise ValidationError("seeds must be a positive count")
    oracles.OracleConfig(step=h)  # every report records h
    # Built per call, so a suite function wrapped after import is the one run.
    table = {
        "lemmas-sphere": suite_lemmas_sphere,
        "lemmas-on": suite_lemmas_on,
        "theorem-equivalence": suite_theorem_equivalence,
        "eigenfunctions": suite_eigenfunctions,
        "oracle": lambda ns, seeds, tol: suite_oracle(ns, seeds, tol, h),
    }
    checks: list = []
    for name, run in table.items():
        if suite in (name, "all"):
            checks.extend(run(ns, seeds, tol))
    environment = {
        "n_values": ns,
        "seeds": seeds,
        "h": h,
        "tolerance_override": tol,
        "tolerances": numkit.DEFAULT_TOLERANCES._asdict(),
    }
    return VerifyReport(suite=suite, checks=checks, environment=environment)
