"""The four benchmark workloads: job generation, set-up and output checks.

Each workload turns a seed into the inputs the ``lapbel`` CLI receives (a
job file, or for ``verify-all`` only its arguments), builds the same
manifold, function and frame through the package's public constructors for
the set-up measurement, and checks the CLI's output against a second lapbel
route computed in this process, outside any timed region.

Every check returns ``(attempted, failed)``: the number of points (or verify
checks) looked at, and how many of them had an outcome other than the one
expected.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Route-equivalence tolerance of the verify suites' theorem-equivalence checks.
EQUIVALENCE_TOL = 1e-8
# lapbel's Tolerances.fd_oracle: finite-difference oracles against analytic values.
FD_ORACLE_TOL = 1e-4

DOMAIN_ERROR_EXIT = 4

# Seed of the stream that fixes the polynomial fields' monomials. The cost of
# lapbel's polynomial derivatives depends on which variable pairs share a
# term; with random monomials it varied by a third from seed to seed.
MONOMIAL_STREAM = 0


def random_polynomial_terms(rng, dim: int, degree: int = 4, terms: int = 8) -> list:
    """Job-file polynomial terms shaped like ``verify.random_polynomial_field``:
    each term has total degree at most ``degree`` spread over three random
    variables. The monomials come from a fixed stream, so every seed asks
    for the same derivative work; ``rng`` draws the coefficients, uniform in
    [-1, 1]."""
    shape = np.random.default_rng([MONOMIAL_STREAM, dim])
    rows = []
    for _ in range(terms):
        powers = [0] * dim
        total = int(shape.integers(0, degree + 1))
        support = shape.integers(0, dim, size=3)
        for _ in range(total):
            powers[int(support[shape.integers(0, 3)])] += 1
        rows.append({"coeff": float(rng.uniform(-1.0, 1.0)), "powers": powers})
    return rows


def _field_rows(terms) -> list:
    return [(t["coeff"], t["powers"]) for t in terms]


def _parse_records(stdout: str) -> list:
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            records.append(None)
    return records


def _value(record) -> float | None:
    """The record's finite Laplace-Beltrami value, or None."""
    if not isinstance(record, dict) or "error" in record:
        return None
    value = record.get("value")
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return None
    return float(value)


def _matches(record, reference: float, tol: float) -> bool:
    value = _value(record)
    return value is not None and abs(value - reference) <= tol


class Job:
    """One generated job: the CLI arguments and what the check needs."""

    def __init__(self, argv: list, items: int, data: dict | None = None):
        self.argv = argv
        self.items = items
        self.data = data or {}
        self.reference = None


class EvalWorkload:
    """A workload that runs ``lapbel eval`` on one generated job file."""

    name = ""
    expected_exit = 0

    def job_document(self, rng) -> dict:
        raise NotImplementedError

    def generate(self, seed: int, directory: str) -> Job:
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        document = self.job_document(rng)
        path = os.path.join(directory, f"{self.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        return Job(["eval", "--job", path], len(document["points"]), document)

    def check(self, job: Job, stdout: str, exit_code: int) -> tuple:
        """Compare one run's records with the reference, point by point."""
        if job.reference is None:
            job.reference = self.reference(job.data)
        records = _parse_records(stdout)
        if exit_code != self.expected_exit or len(records) != job.items:
            return job.items, job.items
        failed = sum(
            1
            for i, record in enumerate(records)
            if not (isinstance(record, dict) and record.get("index") == i)
            or not self.record_ok(i, record, job.reference)
        )
        return job.items, failed

    def corrupted(self, stdout: str) -> tuple:
        """A copy of a good output, and its exit code, with one fault the
        check must catch."""
        records = _parse_records(stdout)
        self.corrupt(records)
        return "".join(json.dumps(r) + "\n" for r in records), self.expected_exit

    def corrupt(self, records: list) -> None:
        """Move the value of point 0, which is checked to 1e-8, by 1e-6."""
        records[0]["value"] += 1e-6

    def reference(self, document: dict):
        raise NotImplementedError

    def record_ok(self, index: int, record: dict, reference) -> bool:
        raise NotImplementedError


class SphereWide(EvalWorkload):
    """Sphere closed form at large ambient dimension."""

    name = "sphere-wide"
    n = 200
    points = 8
    subsample = (0, 4, 7)

    def job_document(self, rng) -> dict:
        pts = []
        for _ in range(self.points):
            g = rng.standard_normal(self.n)
            pts.append([float(v) for v in g / np.linalg.norm(g)])
        return {
            "manifold": {"type": "sphere", "n": self.n, "radius": 1.0},
            "function": {
                "type": "polynomial",
                "terms": random_polynomial_terms(rng, self.n),
            },
            "points": pts,
            "options": {"path": "closed-form"},
        }

    def build(self, document: dict):
        import lapbel

        return (
            lapbel.sphere_constraint_set(self.n, 1.0),
            lapbel.polynomial_field(self.n, _field_rows(document["function"]["terms"])),
            lapbel.sphere_adapted_frame(1.0),
        )

    def reference(self, document: dict) -> dict:
        """General-frame values at a fixed subsample of the points."""
        import lapbel

        constraints, f, frame = self.build(document)
        return {
            i: lapbel.laplace_beltrami_general(
                f, constraints, frame, document["points"][i]
            ).value
            for i in self.subsample
        }

    def record_ok(self, index, record, reference) -> bool:
        if index in reference:
            return _matches(record, reference[index], EQUIVALENCE_TOL)
        return _value(record) is not None


class OrthogonalGeneral(EvalWorkload):
    """O(8) through the general frame evaluator."""

    name = "orthogonal-general"
    n = 8
    points = 200

    def job_document(self, rng) -> dict:
        n = self.n
        M = rng.standard_normal((n, n))
        A = (M + M.T) / 2.0
        pts = []
        for _ in range(self.points):
            Q, R = np.linalg.qr(rng.standard_normal((n, n)))
            Q = Q * np.sign(np.diag(R))[None, :]
            pts.append([float(v) for v in Q.reshape(-1, order="F")])
        return {
            "manifold": {"type": "orthogonal", "n": n},
            "function": {
                "type": "brockett",
                "matrix": {
                    "rows": n,
                    "cols": n,
                    "data": [float(v) for v in A.reshape(-1, order="F")],
                },
                "diagonal": [float(v) for v in rng.uniform(-1.0, 1.0, size=n)],
            },
            "points": pts,
            "options": {"path": "general-frame"},
        }

    def _brockett(self, document: dict):
        import lapbel

        spec = document["function"]
        A = lapbel.matrix_from_json(spec["matrix"])
        return lapbel.brockett_field(A, spec["diagonal"])

    def build(self, document: dict):
        import lapbel

        return (
            lapbel.on_constraint_set(self.n),
            self._brockett(document),
            lapbel.on_adapted_frame(),
        )

    def reference(self, document: dict) -> list:
        """Closed-form ``on_laplacian`` values at every point."""
        import lapbel

        f = self._brockett(document)
        return [
            lapbel.on_laplacian(
                f, lapbel.OrthogonalPoint(lapbel.unvec(u, self.n))
            ).value
            for u in document["points"]
        ]

    def record_ok(self, index, record, reference) -> bool:
        return _matches(record, reference[index], EQUIVALENCE_TOL)


class GenericTorus(EvalWorkload):
    """The Clifford torus as a generic polynomial constraint set."""

    name = "generic-torus"
    points = 1000
    off_every = 20
    off_scale = 1.001
    expected_exit = DOMAIN_ERROR_EXIT

    def job_document(self, rng) -> dict:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(self.points, 2))
        pts = []
        for i, (a, b) in enumerate(angles):
            u = np.array([math.cos(a), math.sin(a), math.cos(b), math.sin(b)])
            if self.is_off(i):
                u = self.off_scale * u
            pts.append([float(v) for v in u])

        def circle(i, j):  # x_i^2 + x_j^2
            return {"terms": [
                {"coeff": 1.0, "powers": [2 if k == i else 0 for k in range(4)]},
                {"coeff": 1.0, "powers": [2 if k == j else 0 for k in range(4)]},
            ]}

        return {
            "manifold": {
                "type": "generic",
                "ambient_dim": 4,
                "constraints": [circle(0, 1), circle(2, 3)],
                "regular_value": [1.0, 1.0],
            },
            "function": {"type": "polynomial", "terms": random_polynomial_terms(rng, 4)},
            "points": pts,
        }

    def corrupt(self, records: list) -> None:
        """Turn the first DomainError record into a value record."""
        record = records[self.off_every - 1]
        del record["error"]
        record["value"] = 0.0

    def is_off(self, index: int) -> bool:
        return index % self.off_every == self.off_every - 1

    def build(self, document: dict):
        import lapbel

        manifold = document["manifold"]
        constraints = lapbel.ConstraintSet(
            ambient_dim=4,
            fields=tuple(
                lapbel.polynomial_field(4, _field_rows(c["terms"]))
                for c in manifold["constraints"]
            ),
            regular_value=manifold["regular_value"],
        )
        f = lapbel.polynomial_field(4, _field_rows(document["function"]["terms"]))
        return constraints, f, lapbel.qr_nullspace_frame(constraints)

    def reference(self, document: dict) -> dict:
        """Geodesic second differences along the torus's two circle factors.

        The torus is the product of two unit circles, so its Laplace-Beltrami
        value is the sum of the circle Laplacians of the two slices of f,
        each estimated by the sphere geodesic oracle in R^2.
        """
        import lapbel

        f = lapbel.polynomial_field(4, _field_rows(document["function"]["terms"]))

        def no_derivative(u):
            raise AssertionError("the geodesic oracle reads values only")

        def circle_laplacian(u, block):
            def value(y):
                v = u.copy()
                v[block] = y
                return f.value(v)

            slice_field = lapbel.ScalarField(
                dim=2,
                value_fn=value,
                gradient_fn=no_derivative,
                hessian_fn=no_derivative,
                provenance="value-only",
            )
            return lapbel.geodesic_laplacian_sphere(
                slice_field, lapbel.SpherePoint(u[block], 1.0)
            )

        reference = {}
        for i, point in enumerate(document["points"]):
            if not self.is_off(i):
                u = np.asarray(point)
                reference[i] = circle_laplacian(u, slice(0, 2)) + circle_laplacian(
                    u, slice(2, 4)
                )
        return reference

    def record_ok(self, index, record, reference) -> bool:
        if self.is_off(index):
            error = record.get("error")
            return isinstance(error, dict) and error.get("type") == "DomainError"
        return _matches(record, reference[index], FD_ORACLE_TOL)


class VerifyAll:
    """``lapbel verify all`` over a dimension range."""

    name = "verify-all"
    n_range = "2..5"

    def generate(self, seed: int, directory: str) -> Job:
        # The suites draw their cases from fixed salted seeds, so the
        # benchmark seed does not change the inputs.
        return Job(["verify", "all", "--n", self.n_range], items=0)

    def build(self, document):
        import lapbel

        lo, hi = (int(v) for v in self.n_range.split(".."))
        built = []
        for n in range(lo, hi + 1):
            built.append((lapbel.sphere_constraint_set(n, 1.0), lapbel.sphere_adapted_frame(1.0)))
            built.append((lapbel.on_constraint_set(n), lapbel.on_adapted_frame()))
        return built

    def check(self, job: Job, stdout: str, exit_code: int) -> tuple:
        """Every verify check must pass and the command must exit 0."""
        try:
            report = json.loads(stdout)
            passed = [c["pass"] is True for c in report["checks"]]
        except (json.JSONDecodeError, KeyError, TypeError):
            report, passed = {}, []
        if not job.items:
            job.items = len(passed)  # the suites' check count, learnt from the first report
        attempted = max(job.items, 1)
        if exit_code != 0 or report.get("pass") is not True or len(passed) != job.items:
            return attempted, max(passed.count(False), 1)
        return attempted, passed.count(False)

    def corrupted(self, stdout: str) -> tuple:
        """One failed check, with the exit code a failed verification gives."""
        report = json.loads(stdout)
        report["checks"][0]["pass"] = False
        report["pass"] = False
        return json.dumps(report), 3


WORKLOADS = {w.name: w for w in (SphereWide(), OrthogonalGeneral(), GenericTorus(), VerifyAll())}
