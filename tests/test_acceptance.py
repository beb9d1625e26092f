"""Acceptance checks, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
check compares two independently computed quantities (closed form against
general evaluator, analytic derivatives against finite differences, frame
algebra against the identity matrix) over seeded random sweeps.
"""

import json

import numpy as np

from lapbel import numkit
from lapbel.cli import main
from lapbel.constraint_core import laplace_beltrami_general
from lapbel.oracles import (
    OracleConfig,
    check_gradient,
    check_hessian,
    geodesic_laplacian_on,
    geodesic_laplacian_sphere,
)
from lapbel.orthogonal import (
    brockett_field,
    brockett_laplacian,
    lambda_of,
    on_adapted_frame,
    on_constraint_set,
    on_frame,
    on_laplacian,
    p1_field,
    p2_field,
    p2_laplacian,
    p11_field,
    p11_laplacian,
    random_orthogonal,
)
from lapbel.sphere import (
    random_sphere_point,
    sphere_adapted_frame,
    sphere_constraint_set,
    sphere_frame,
    sphere_frame_gram_inverse,
    sphere_laplacian,
    sphere_projector,
)
from lapbel.verify import random_polynomial_field, random_symmetric

RADII = (1.0, 2.5)

# Excluded indices are "valid" when the excluded coordinate clears this
# margin; below it the frame Gram condition (R/x_j)^2 exceeds 1e4 and the
# 1e-10 identity tolerance is no longer meaningful in float64.
VALID_INDEX_MARGIN = 1e-2


def _report(num, name, pairs):
    """Print one line for the criterion and assert every (dev, tol) pair."""
    worst_dev, worst_tol = max(pairs, key=lambda p: p[0] / p[1])
    ok = all(dev <= tol for dev, tol in pairs)
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: max_dev={worst_dev:.3e} tol={worst_tol:.1e} {verdict}")
    assert ok, f"criterion {num:02d} {name}: {worst_dev:.3e} exceeds {worst_tol:.1e}"


# Harmonic homogeneous polynomials in three variables, full bases for the
# degrees the spectrum check sweeps (the degree-k space has dimension 2k+1).
HARMONIC_BASES_3D = {
    1: [
        [(1.0, (1, 0, 0))],
        [(1.0, (0, 1, 0))],
        [(1.0, (0, 0, 1))],
    ],
    2: [
        [(1.0, (1, 1, 0))],
        [(1.0, (1, 0, 1))],
        [(1.0, (0, 1, 1))],
        [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))],
        [(2.0, (0, 0, 2)), (-1.0, (2, 0, 0)), (-1.0, (0, 2, 0))],
    ],
    3: [
        [(2.0, (0, 0, 3)), (-3.0, (2, 0, 1)), (-3.0, (0, 2, 1))],
        [(4.0, (1, 0, 2)), (-1.0, (3, 0, 0)), (-1.0, (1, 2, 0))],
        [(4.0, (0, 1, 2)), (-1.0, (0, 3, 0)), (-1.0, (2, 1, 0))],
        [(1.0, (2, 0, 1)), (-1.0, (0, 2, 1))],
        [(1.0, (1, 1, 1))],
        [(1.0, (3, 0, 0)), (-3.0, (1, 2, 0))],
        [(3.0, (2, 1, 0)), (-1.0, (0, 3, 0))],
    ],
}


def test_criterion_01_sphere_frame_identities():
    # For every dimension, 50 random points split over both radii, and every
    # valid excluded index: the closed-form Gram inverse inverts T^t T, and
    # T T^+ reproduces the projector I - x x^t / R^2.
    pairs = []
    worst = 0.0
    for n in range(2, 11):
        for r_idx, radius in enumerate(RADII):
            rng = np.random.default_rng([101, n, r_idx])
            for _ in range(25):
                p = random_sphere_point(n, radius, rng)
                P = sphere_projector(p)
                for j in range(n):
                    if abs(p.coords[j]) < VALID_INDEX_MARGIN * radius:
                        continue
                    T = sphere_frame(p, excluded_index=j)
                    inv = sphere_frame_gram_inverse(p, excluded_index=j)
                    dev1 = float(np.max(np.abs(T.T @ T @ inv - np.eye(n - 1))))
                    Q, R, _, refused = numkit.frame_qrs(T[None], numkit.DEFAULT_TOLERANCES.condition_limit)
                    numkit.raise_first(refused)
                    T_plus = np.linalg.solve(R[0], Q[0].T)
                    dev2 = float(np.max(np.abs(T @ T_plus - P)))
                    worst = max(worst, dev1, dev2)
    pairs.append((worst, 1e-10))
    _report(1, "sphere-frame-identities", pairs)


def test_criterion_02_sphere_equivalence():
    # Closed-form sphere evaluation against the general constraint path on
    # 10 random polynomial fields x 20 random points for each dimension.
    worst = 0.0
    for n in range(2, 7):
        for r_idx, radius in enumerate(RADII):
            cons = sphere_constraint_set(n, radius)
            frame = sphere_adapted_frame(radius)
            rng = np.random.default_rng([102, n, r_idx])
            for _ in range(10):
                f = random_polynomial_field(rng, n)
                for _ in range(20):
                    p = random_sphere_point(n, radius, rng)
                    closed = sphere_laplacian(f, p)
                    general = laplace_beltrami_general(f, cons, frame, p.coords)
                    worst = max(worst, abs(closed - general.value))
    _report(2, "sphere-equivalence", [(worst, 1e-8)])


def test_criterion_03_sphere_harmonic_spectrum():
    # Harmonic homogeneous bases of degree 1..3 in three variables are
    # eigenfunctions with eigenvalue -k(k+1)/R^2, at 50 random points per
    # degree and radius.
    from lapbel.constraint_core import polynomial_field

    worst = 0.0
    for degree, basis in HARMONIC_BASES_3D.items():
        assert len(basis) == 2 * degree + 1
        for r_idx, radius in enumerate(RADII):
            rng = np.random.default_rng([103, degree, r_idx])
            fields = [polynomial_field(3, terms) for terms in basis]
            for _ in range(50):
                p = random_sphere_point(3, radius, rng)
                for f in fields:
                    expected = -degree * (degree + 1) / radius**2 * f.value(p.coords)
                    worst = max(worst, abs(sphere_laplacian(f, p) - expected))
    _report(3, "sphere-harmonic-spectrum", [(worst, 1e-8)])


def test_criterion_04_orthogonal_frame_identities():
    # Frame Gram twice the identity, frame projector complementary to the
    # block reflection, reflection an involution with trace n.
    worst = 0.0
    for n in range(2, 7):
        rng = np.random.default_rng([104, n])
        eye = np.eye(n * n)
        for _ in range(20):
            U = random_orthogonal(n, rng)
            T = on_frame(U)
            L = lambda_of(U)
            r = T.shape[1]
            worst = max(worst, float(np.max(np.abs(T.T @ T - 2.0 * np.eye(r)))))
            worst = max(worst, float(np.max(np.abs(T @ T.T + L - eye))))
            worst = max(worst, float(np.max(np.abs(L @ L - eye))))
            worst = max(worst, abs(float(np.trace(L)) - n))
    _report(4, "orthogonal-frame-identities", [(worst, 1e-10)])


def test_criterion_05_orthogonal_equivalence():
    # Closed evaluator against the general constraint path on random
    # quartic polynomial fields over the matrix entries.
    worst = 0.0
    for n in (2, 3, 4):
        cons = on_constraint_set(n)
        frame = on_adapted_frame()
        rng = np.random.default_rng([105, n])
        for _ in range(20):
            f = random_polynomial_field(rng, n * n, degree=4)
            for _ in range(4):
                U = random_orthogonal(n, rng)
                closed = on_laplacian(f, U)
                general = laplace_beltrami_general(f, cons, frame, U.to_vector())
                worst = max(worst, abs(closed.value - general.value))
    _report(5, "orthogonal-equivalence", [(worst, 1e-8)])


def test_criterion_06_orthogonal_eigenfunctions():
    # Through the evaluator (not the closed forms): tr(AU) has eigenvalue
    # -(n-1)/2, and tr(AU)^2 - tr((AU)^2) has eigenvalue -(n-2).
    worst_trace, worst_combo = 0.0, 0.0
    for n in range(2, 7):
        rng = np.random.default_rng([106, n])
        for _ in range(50):
            A = rng.standard_normal((n, n))
            U = random_orthogonal(n, rng)
            u = U.to_vector()
            f1 = p1_field(A)
            r1 = on_laplacian(f1, U)
            worst_trace = max(
                worst_trace, abs(r1.value + (n - 1) / 2.0 * f1.value(u))
            )
            combo = p11_field(A) - p2_field(A)
            rc = on_laplacian(combo, U)
            worst_combo = max(worst_combo, abs(rc.value + (n - 2) * combo.value(u)))
    _report(
        6,
        "orthogonal-eigenfunctions",
        [(worst_trace, 1e-10), (worst_combo, 1e-9)],
    )


def test_criterion_07_power_sum_closed_forms():
    # The worked closed forms for tr(AU)^2 and tr((AU)^2) match the
    # evaluator on the same kind of sweep.
    worst = 0.0
    for n in range(2, 7):
        rng = np.random.default_rng([107, n])
        for _ in range(50):
            A = rng.standard_normal((n, n))
            U = random_orthogonal(n, rng)
            worst = max(
                worst, abs(p11_laplacian(A, U) - on_laplacian(p11_field(A), U).value)
            )
            worst = max(
                worst, abs(p2_laplacian(A, U) - on_laplacian(p2_field(A), U).value)
            )
    _report(7, "power-sum-closed-forms", [(worst, 1e-8)])


def test_criterion_08_brockett():
    # Closed form against evaluator, and the constant N = I case vanishing.
    worst_match, worst_null = 0.0, 0.0
    for n in range(2, 7):
        rng = np.random.default_rng([108, n])
        for _ in range(20):
            A = random_symmetric(rng, n)
            mu = rng.standard_normal(n)
            U = random_orthogonal(n, rng)
            closed = brockett_laplacian(A, mu, U)
            report = on_laplacian(brockett_field(A, mu), U)
            worst_match = max(worst_match, abs(closed - report.value))
            worst_null = max(worst_null, abs(brockett_laplacian(A, np.ones(n), U)))
    _report(8, "brockett", [(worst_match, 1e-8), (worst_null, 1e-10)])


def test_criterion_09_geodesic_oracles():
    # Finite-difference geodesic estimates agree with the closed forms at
    # h = 1e-3 (1e-5 with Richardson), and halving h divides the error by
    # a factor in [3, 5].
    worst_plain, worst_rich = 0.0, 0.0
    ratios = []
    for n in (2, 3, 4):
        rng = np.random.default_rng([109, n])
        # Sphere side.
        f = random_polynomial_field(rng, n)
        while True:
            p = random_sphere_point(n, 1.0, rng)
            if np.min(np.abs(p.coords)) > 0.05:
                break
        exact = sphere_laplacian(f, p)
        plain = geodesic_laplacian_sphere(f, p, OracleConfig(step=1e-3))
        rich = geodesic_laplacian_sphere(f, p, OracleConfig(step=1e-3, richardson=True))
        worst_plain = max(worst_plain, abs(plain - exact))
        worst_rich = max(worst_rich, abs(rich - exact))
        coarse = abs(geodesic_laplacian_sphere(f, p, OracleConfig(step=1e-2)) - exact)
        fine = abs(geodesic_laplacian_sphere(f, p, OracleConfig(step=5e-3)) - exact)
        if coarse > 1e-7:
            ratios.append(coarse / fine)
        # Orthogonal-group side.
        A = rng.standard_normal((n, n))
        U = random_orthogonal(n, rng)
        g = p11_field(A)
        exact = p11_laplacian(A, U)
        plain = geodesic_laplacian_on(g, U, OracleConfig(step=1e-3))
        rich = geodesic_laplacian_on(g, U, OracleConfig(step=1e-3, richardson=True))
        worst_plain = max(worst_plain, abs(plain - exact))
        worst_rich = max(worst_rich, abs(rich - exact))
        coarse = abs(geodesic_laplacian_on(g, U, OracleConfig(step=1e-2)) - exact)
        fine = abs(geodesic_laplacian_on(g, U, OracleConfig(step=5e-3)) - exact)
        if coarse > 1e-7:
            ratios.append(coarse / fine)
    assert ratios, "no truncation-dominated case for the convergence check"
    ratio_dev = max(abs(r - 4.0) for r in ratios)
    _report(
        9,
        "geodesic-oracles",
        [(worst_plain, 1e-4), (worst_rich, 1e-5), (ratio_dev, 1.0)],
    )


def test_criterion_10_derivative_hygiene():
    # Analytic gradients and Hessians of every registered field family
    # against central differences at 20 random ambient points.
    grad_config = OracleConfig(step=1e-5)
    hess_config = OracleConfig(step=1e-3)
    worst_grad, worst_hess = 0.0, 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng([110, n])
        fields = [
            p1_field(rng.standard_normal((n, n))),
            p11_field(rng.standard_normal((n, n))),
            p2_field(rng.standard_normal((n, n))),
            brockett_field(random_symmetric(rng, n), rng.standard_normal(n)),
        ]
        fields.extend(on_constraint_set(n).fields)
        fields.extend(sphere_constraint_set(n * n, 1.0).fields)
        for f in fields:
            for _ in range(20):
                u = rng.uniform(-1.0, 1.0, size=n * n)
                worst_grad = max(worst_grad, check_gradient(f, u, grad_config))
                worst_hess = max(worst_hess, check_hessian(f, u, hess_config))
    _report(
        10,
        "derivative-hygiene",
        [(worst_grad, 1e-6), (worst_hess, 1e-5)],
    )


def test_criterion_11_cli_end_to_end(capsys, tmp_path):
    # The full verification sweep exits 0 with every check passing, and the
    # eval command reproduces the two equivalence criteria.
    out_path = tmp_path / "report.json"
    code = main(["verify", "all", "--n", "2..5", "--seeds", "5", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["pass"] is True
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert not failed, failed

    # Criterion-2 agreement through the CLI: one sphere job, both paths.
    rng = np.random.default_rng(111)
    terms = [
        {"coeff": float(rng.uniform(-1, 1)), "powers": [int(q) for q in powers]}
        for powers in ([2, 1, 0], [0, 0, 4], [1, 1, 1], [0, 2, 0])
    ]
    points = [random_sphere_point(3, 2.5, rng).coords.tolist() for _ in range(5)]
    sphere_job = {
        "manifold": {"type": "sphere", "n": 3, "radius": 2.5},
        "function": {"type": "polynomial", "terms": terms},
        "points": points,
    }
    sphere_dev = _cli_path_agreement(capsys, tmp_path, sphere_job, "sphere")

    # Criterion-5 agreement through the CLI: one quartic job on the group.
    quartic = []
    for _ in range(6):
        powers = np.zeros(9, dtype=int)
        for _ in range(int(rng.integers(1, 5))):
            powers[int(rng.integers(0, 9))] += 1
        quartic.append(
            {"coeff": float(rng.uniform(-1, 1)), "powers": [int(q) for q in powers]}
        )
    upoints = []
    for seed in range(4):
        M = random_orthogonal(3, [112, seed]).matrix
        upoints.append(
            {"rows": 3, "cols": 3, "data": [float(v) for v in M.reshape(-1, order="F")]}
        )
    on_job = {
        "manifold": {"type": "orthogonal", "n": 3},
        "function": {"type": "polynomial", "terms": quartic},
        "points": upoints,
    }
    on_dev = _cli_path_agreement(capsys, tmp_path, on_job, "orthogonal")

    _report(11, "cli-end-to-end", [(sphere_dev, 1e-8), (on_dev, 1e-8)])


def _cli_path_agreement(capsys, tmp_path, job, tag):
    """Run one job through both evaluation paths; return the worst gap."""
    values = {}
    for path_name in ("closed-form", "general-frame"):
        job_with_path = dict(job, options={"path": path_name})
        job_file = tmp_path / f"{tag}-{path_name}.json"
        job_file.write_text(json.dumps(job_with_path), encoding="utf-8")
        code = main(["eval", "--job", str(job_file)])
        out = capsys.readouterr().out
        assert code == 0, out
        values[path_name] = [json.loads(line)["value"] for line in out.splitlines()]
    gaps = [
        abs(a - b)
        for a, b in zip(values["closed-form"], values["general-frame"])
    ]
    return max(gaps)
