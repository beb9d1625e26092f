"""Span tracing of lapbel's public functions, installed from outside.

The tracer replaces selected module functions and methods of the imported
``lapbel`` package with wrappers that record one span per call (name, start,
end, parent, run id) and a few counts, and puts the originals back when the
traced run ends. Nothing in the package itself is changed. Spans are kept in
memory; a layer's self time is its span durations minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

FIELD = "constraint_core.field_derivative"
CONSTRAINT = "constraint_core.constraint_derivative"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self._stack = []
        self._run_id = None
        self._patches = []
        self._constraint_ids = set()
        self._constraint_fields = []  # keeps registered fields alive, so ids stay unique

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._run_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`uninstall`."""
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _span(self, owner, attr: str, name_of) -> None:
        """Record a span around every call of ``owner.attr``; ``name_of(args)``
        names it, so one wrapper can tell constraint fields from the
        evaluated function."""

        def make(original):
            def wrapper(*args, **kwargs):
                index = self._enter(name_of(args))
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(index)

            return wrapper

        self._replace(owner, attr, make)

    def _named(self, owner, attr: str, name: str) -> None:
        self._span(owner, attr, lambda args: name)

    # -- installation -------------------------------------------------------

    def install(self, run_id: str) -> None:
        from lapbel import cli, constraint_core, numkit, oracles, orthogonal, sphere, verify

        self._run_id = run_id

        def register_fields(original):
            def post_init(constraint_set):
                original(constraint_set)
                for field in constraint_set.fields:
                    self._constraint_ids.add(id(field))
                    self._constraint_fields.append(field)

            return post_init

        def count_hessians(original):
            def hessian(field, u):
                if id(field) in self._constraint_ids:
                    self.counts["constraint_hessians"] += 1
                    self.counts["hessian_bytes"] += 8 * field.dim * field.dim
                return original(field, u)

            return hessian

        def field_kind(args):
            return CONSTRAINT if id(args[0]) in self._constraint_ids else FIELD

        self._replace(constraint_core.ConstraintSet, "__post_init__", register_fields)
        for method in ("value", "gradient", "hessian"):
            self._span(constraint_core.ScalarField, method, field_kind)
        self._replace(constraint_core.ScalarField, "hessian", count_hessians)

        self._named(constraint_core, "on_manifold", "constraint_core.admission")
        self._named(constraint_core.AdaptedFrame, "at", "constraint_core.frame")
        self._named(constraint_core, "lagrange_multipliers", "constraint_core.multipliers")
        self._named(constraint_core, "laplace_beltrami_general", "constraint_core.general")
        self._named(numkit, "solve_spd", "numkit.solve_spd")
        self._named(numkit, "sym_condition", "numkit.sym_condition")
        self._named(sphere.SpherePoint, "__post_init__", "sphere.admission")
        self._named(sphere, "sphere_report", "sphere.closed_form")
        self._named(orthogonal.OrthogonalPoint, "__post_init__", "orthogonal.admission")
        self._named(oracles, "check_hessian", "oracles.hessian_check")
        self._named(oracles, "check_gradient", "oracles.gradient_check")
        self._named(oracles, "geodesic_laplacian_sphere", "oracles.geodesic")
        self._named(oracles, "geodesic_laplacian_on", "oracles.geodesic")
        for suite in ("lemmas_sphere", "lemmas_on", "theorem_equivalence", "eigenfunctions", "oracle"):
            self._named(verify, f"suite_{suite}", f"verify.{suite}")
        self._named(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._constraint_ids.clear()
        self._constraint_fields.clear()
        self._run_id = None

    # -- analysis -----------------------------------------------------------

    def summary(self, run_id: str) -> dict:
        """Per span name: calls, total time of the outermost spans of that
        name (nested same-name calls are not counted twice), and self time."""
        spans = self.spans
        covered = defaultdict(float)
        for name, start, end, parent, rid in spans:
            if rid == run_id and parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, rid) in enumerate(spans):
            if rid != run_id:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[index]
            if not self._has_ancestor_named(index, name):
                entry["total_s"] += end - start
        return dict(out)

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
