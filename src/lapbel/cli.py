"""Command-line interface.

Three commands: ``eval`` evaluates Laplace-Beltrami values for the points of
a JSON job file and writes one JSON record per line; ``verify`` runs a named
verification suite and writes a single JSON report; ``describe`` prints the
ambient dimension, constraint count, and manifold dimension of a supported
manifold. Exit codes: 0 success, 2 validation error, 3 verification
failure, 4 numerical error during evaluation.

The LAPBEL_TOL environment variable supplies the default identity-check
tolerance override for ``verify`` when ``--tol`` is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

# Before numpy: with no bytecode cache, compiling the package's largest module
# with numpy already loaded raises a command's peak RSS by about 0.8 MB.
from . import constraint_core as core  # isort: skip

import numpy as np

from . import numkit
from .errors import LapbelError, NumericalError, ValidationError
from .numkit import DEFAULT_TOLERANCES, SUITES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY_FAIL = 3
EXIT_NUMERICAL = 4

TOL_ENV_VAR = "LAPBEL_TOL"


def _load_json(path):
    if not isinstance(path, str):
        raise ValidationError(f"file reference must be a path string, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _rewrapped(key: str | None):
    """Re-raise a library LapbelError as the ValidationError ``key: message``
    (the bare message when ``key`` is None)."""
    try:
        yield
    except LapbelError as exc:
        raise ValidationError(str(exc) if key is None else f"{key}: {exc}") from exc


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValidationError(f"{where} must contain '{key}'")
    return mapping[key]


def _is_number(value) -> bool:
    """Whether a JSON value is a number: an int or a float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, where: str, integer: bool = False):
    """A finite job number (an int when ``integer``), else ValidationError."""
    if not _is_number(value):
        raise ValidationError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where} must be finite")
    if integer and not number.is_integer():
        raise ValidationError(f"{where} must be an integer")
    return int(number) if integer else number


def _numbers(values: list, where: str) -> list:
    """The JSON list ``values``, refused unless each entry is a number: the
    one rule for the entries of every numeric list of a job."""
    for i, value in enumerate(values):
        if not _is_number(value):
            raise ValidationError(f"{where}[{i}] is not a number")
    return values


def _load_matrix_spec(spec, where: str) -> np.ndarray:
    if isinstance(spec, dict) and "file" in spec:
        spec = _load_json(spec["file"])
    if not isinstance(spec, dict):
        raise ValidationError(
            f"{where} must be a matrix object {{rows, cols, data}} or a file reference"
        )
    if isinstance(spec.get("data"), list):
        _numbers(spec["data"], f"{where}.data")
    # the job's integer rule; numkit.matrix_from_json keeps its strict one
    sides = {
        key: _number(spec[key], f"{where}.{key}", integer=True) for key in ("rows", "cols") if key in spec
    }
    with _rewrapped(where):
        return numkit.matrix_from_json({**spec, **sides})


def _as_float_list(values, where: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise ValidationError(f"{where} must be a non-empty list of numbers")
    _numbers(values, where)
    with _rewrapped(where):
        return numkit.as_vector(values, where)


def _resolve_point(entry, index: int, ambient_dim: int, matrix_side: int | None):
    """Resolve one job point entry to (ref, ambient vector)."""
    ref = f"inline[{index}]"
    data = entry
    if isinstance(data, dict) and "file" in data:
        ref = f"file:{data['file']}"
        data = _load_json(data["file"])
    where = f"points[{index}]"
    if isinstance(data, dict):
        M = _load_matrix_spec(data, where)
        if M.shape[1] == 1:
            u = M[:, 0]
        elif matrix_side is None:
            raise ValidationError(f"{where}: matrix shape {M.shape} is not a column vector")
        elif M.shape == (matrix_side, matrix_side):
            u = numkit.vec(M)
        else:
            raise ValidationError(
                f"{where}: matrix shape {M.shape} fits neither a column vector "
                f"nor the manifold's square side {matrix_side}"
            )
    elif isinstance(data, list):
        u = _as_float_list(data, where)
    else:
        raise ValidationError(f"{where} must be a list, matrix object, or file reference")
    if u.size != ambient_dim:
        raise ValidationError(
            f"{where} has dimension {u.size}, manifold ambient dimension is {ambient_dim}"
        )
    return ref, u


def _resolve_points(points: list, ambient_dim: int, matrix_side: int | None):
    """The refs and the (N, ambient_dim) stack of the job's points. Inline
    lists of finite numbers convert as one stack; any other entry sends every
    row through _resolve_point, which names the first bad one."""
    if all(type(p) is list and len(p) == ambient_dim for p in points) and set(
        map(type, itertools.chain.from_iterable(points))
    ) <= {int, float}:
        try:
            X = np.array(points, dtype=float)
        except OverflowError:  # an integer beyond the double range
            pass
        else:
            if np.isfinite(X).all():
                return [f"inline[{i}]" for i in range(len(points))], X
    resolved = [_resolve_point(p, i, ambient_dim, matrix_side) for i, p in enumerate(points)]
    return [ref for ref, _ in resolved], np.stack([u for _, u in resolved])


def _polynomial_terms(terms, where: str):
    if not isinstance(terms, list) or not terms:
        raise ValidationError(f"{where} must be a non-empty list of terms")
    rows = []
    for i, term in enumerate(terms):
        coeff = _require(term, "coeff", f"{where}[{i}]")
        powers = _require(term, "powers", f"{where}[{i}]")
        coeff = _number(coeff, f"{where}[{i}].coeff")
        if not isinstance(powers, list):
            raise ValidationError(f"{where}[{i}].powers must be a list of exponents")
        rows.append((coeff, _numbers(powers, f"{where}[{i}].powers")))
    return rows


# Fields on the orthogonal group built from one coefficient matrix by
# orthogonal.<type>_field; brockett also takes a diagonal.
_MATRIX_FIELDS = ("p1", "p11", "p2", "brockett")


def _build_function(spec, ambient_dim: int) -> core.ScalarField:
    ftype = _require(spec, "type", "job.function")
    if not isinstance(ftype, str):
        raise ValidationError("job.function.type must be a string")
    if ftype in _MATRIX_FIELDS:
        from . import orthogonal

        where = "function.matrix"
        A = _load_matrix_spec(_require(spec, "matrix", "job.function"), where)
        if A.shape[0] ** 2 != ambient_dim:
            raise ValidationError(
                f"{where} is {A.shape[0]}x{A.shape[1]}; the manifold's ambient "
                f"dimension {ambient_dim} needs side {int(round(ambient_dim ** 0.5))}"
            )
        args = [A]
        if ftype == "brockett":
            diagonal = _require(spec, "diagonal", "job.function")
            args.append(_as_float_list(diagonal, "function.diagonal"))
        make = getattr(orthogonal, f"{ftype}_field")
    elif ftype == "linear":
        coeffs = _as_float_list(
            _require(spec, "coefficients", "job.function"), "function.coefficients"
        )
        if coeffs.size != ambient_dim:
            raise ValidationError(
                f"function.coefficients has length {coeffs.size}, "
                f"ambient dimension is {ambient_dim}"
            )
        make, args = core.linear_field, [coeffs]
    elif ftype == "polynomial":
        rows = _polynomial_terms(_require(spec, "terms", "job.function"), "function.terms")
        make, args = core.polynomial_field, [ambient_dim, rows]
    else:
        raise ValidationError(
            f"unknown function type '{ftype}'; supported: p1, p11, p2, brockett, "
            "linear, polynomial, external-samples"
        )
    # The library's own checks (a short diagonal, a non-square matrix, a bad
    # exponent) name no job key, so they get the prefix.
    with _rewrapped("job.function"):
        return make(*args)


def _sample_field(sample, index: int, ambient_dim: int) -> core.ScalarField:
    where = f"function.samples[{index}]"
    value = _number(_require(sample, "value", where), f"{where}.value")
    gradient = _as_float_list(_require(sample, "gradient", where), f"{where}.gradient")
    if gradient.size != ambient_dim:
        raise ValidationError(
            f"{where}.gradient has length {gradient.size}, expected {ambient_dim}"
        )
    hessian = _load_matrix_spec(_require(sample, "hessian", where), f"{where}.hessian")
    if hessian.shape != (ambient_dim, ambient_dim):
        raise ValidationError(
            f"{where}.hessian has shape {hessian.shape}, expected "
            f"{(ambient_dim, ambient_dim)}"
        )
    return core.ScalarField(
        dim=ambient_dim,
        value_fn=lambda u: value,
        gradient_fn=lambda u: gradient.copy(),
        hessian_fn=lambda u: hessian.copy(),
        provenance="external",
    )


def _generic_constraints(manifold) -> core.ConstraintSet:
    spec = manifold
    if "file" in manifold:
        spec = _load_json(manifold["file"])
    raw_dim = _require(spec, "ambient_dim", "job.manifold")
    ambient = _number(raw_dim, "manifold.ambient_dim", integer=True)
    raw = _require(spec, "constraints", "job.manifold")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("job.manifold.constraints must be a non-empty list")
    fields = []
    for i, one in enumerate(raw):
        rows = _polynomial_terms(
            _require(one, "terms", f"manifold.constraints[{i}]"),
            f"manifold.constraints[{i}].terms",
        )
        with _rewrapped(f"manifold.constraints[{i}]"):
            fields.append(core.polynomial_field(ambient, rows))
    values = _as_float_list(
        _require(spec, "regular_value", "job.manifold"), "manifold.regular_value"
    )
    with _rewrapped("job.manifold"):
        return core.ConstraintSet(
            ambient_dim=ambient, fields=tuple(fields), regular_value=values
        )


def _evaluate_job(data) -> tuple[list, bool]:
    if not isinstance(data, dict):
        raise ValidationError("job must be a JSON object")
    manifold = _require(data, "manifold", "job")
    kind = _require(manifold, "type", "job.manifold")
    options = data.get("options") or {}
    if not isinstance(options, dict):
        raise ValidationError("job.options must be an object")

    overrides = {}
    for key in ("on_manifold", "orthogonality"):
        if f"{key}_tol" in options:
            value = _number(options[f"{key}_tol"], f"options.{key}_tol")
            if value < 0:
                raise ValidationError(f"options.{key}_tol must be non-negative, got {value}")
            overrides[key] = value
    tols = dataclasses.replace(DEFAULT_TOLERANCES, **overrides)

    matrix_side = None
    constraints = None  # sphere and O(n): built after the points, general path only
    if kind in ("sphere", "orthogonal"):
        n = _number(_require(manifold, "n", "job.manifold"), "manifold.n", integer=True)
    if kind == "sphere":
        from . import sphere

        radius = _number(manifold.get("radius", 1.0), "manifold.radius")
        with _rewrapped("job.manifold"):
            sphere.check_sphere_parameters(n, radius)
        build = functools.partial(sphere.sphere_constraint_set, n, radius)
        frame = sphere.sphere_adapted_frame(radius, tol=tols.on_manifold)
        closed = functools.partial(sphere.sphere_reports, radius=radius, tol=tols.on_manifold)
        ambient = n
    elif kind == "orthogonal":
        from . import orthogonal

        with _rewrapped("job.manifold"):
            orthogonal.check_orthogonal_side(n)
        build = functools.partial(orthogonal.on_constraint_set, n)
        frame = orthogonal.on_adapted_frame(tols.orthogonality)
        closed = functools.partial(orthogonal.on_laplacians, tol=tols.orthogonality)
        ambient = n * n
        matrix_side = n
    elif kind == "generic":
        constraints = _generic_constraints(manifold)
        frame = None  # the QR projector of the point's Jacobian
        ambient = constraints.ambient_dim
    else:
        raise ValidationError(
            f"unknown manifold type '{kind}'; supported: sphere, orthogonal, generic"
        )

    path = options.get("path", "general-frame" if kind == "generic" else "closed-form")
    if path not in ("closed-form", "general-frame"):
        raise ValidationError(
            f"options.path must be 'closed-form' or 'general-frame', got '{path}'"
        )
    if path == "closed-form" and kind == "generic":
        raise ValidationError("generic manifolds have no closed-form path")

    points_raw = _require(data, "points", "job")
    if not isinstance(points_raw, list) or not points_raw:
        raise ValidationError("job.points must be a non-empty list")
    refs, X = _resolve_points(points_raw, ambient, matrix_side)

    fspec = _require(data, "function", "job")
    ftype = _require(fspec, "type", "job.function")
    fd_options = options.get("finite_difference")
    if ftype == "external-samples":  # one field per point
        if fd_options is not None:
            raise ValidationError(
                "options.finite_difference does not apply to external-samples functions"
            )
        samples = _require(fspec, "samples", "job.function")
        if not isinstance(samples, list) or len(samples) != len(refs):
            raise ValidationError(
                "function.samples must be a list aligned with job.points"
            )
        f = [_sample_field(sample, i, ambient) for i, sample in enumerate(samples)]
    else:
        f = _build_function(fspec, ambient)
        if fd_options is not None:
            if not isinstance(fd_options, dict):
                raise ValidationError("options.finite_difference must be an object")
            grad_step, hess_step = (
                _number(fd_options.get(key, default), f"options.finite_difference.{key}")
                for key, default in (("gradient_step", 1e-5), ("hessian_step", 1e-4))
            )
            f = core.finite_difference_field(f, ambient, grad_step=grad_step, hess_step=hess_step)
    if path == "general-frame":
        if constraints is None:
            constraints = build()
        outcomes = core.evaluate_points(f, constraints, frame, X, tols)
    else:
        outcomes = closed(f, X)

    records = []
    for i, (ref, outcome) in enumerate(zip(refs, outcomes)):
        base = {"index": i, "ref": ref, "path": path}
        if not isinstance(outcome, LapbelError):
            records.append({**base, **outcome.to_dict()})
            continue
        error = {"type": type(outcome).__name__, "message": str(outcome)}
        for key in ("residual", "condition"):  # strict JSON: finite only
            number = getattr(outcome, key, None)
            if number is not None and np.isfinite(number):
                error[key] = float(number)
        records.append({**base, "error": error})
    return records, any(isinstance(o, LapbelError) for o in outcomes)


def cmd_eval(args) -> int:
    data = _load_json(args.job)
    records, had_error = _evaluate_job(data)
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    sys.stdout.write("".join(encode(record) + "\n" for record in records))
    return EXIT_NUMERICAL if had_error else EXIT_OK


def _parse_range(text: str) -> list:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            start, stop = int(lo), int(hi)
        else:
            start = stop = int(text)
    except ValueError as exc:
        raise ValidationError(
            f"--n expects an integer or a range like 2..5, got '{text}'"
        ) from exc
    if stop < start:
        raise ValidationError(f"--n range is empty: {text}")
    return list(range(start, stop + 1))


def cmd_verify(args) -> int:
    from . import verify

    ns = _parse_range(args.n)
    tol, source = args.tol, "--tol"
    if tol is None and TOL_ENV_VAR in os.environ:
        source = TOL_ENV_VAR
        try:
            tol = float(os.environ[TOL_ENV_VAR])
        except ValueError as exc:
            raise ValidationError(
                f"{TOL_ENV_VAR} must be a number, got '{os.environ[TOL_ENV_VAR]}'"
            ) from exc
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"{source} must be a finite non-negative number, got {tol}")
    with _rewrapped(None):
        report = verify.run_suite(args.suite, ns, seeds=args.seeds, tol=tol, h=args.h)
    document = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(document)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_describe(args) -> int:
    kind = args.manifold
    n = args.n
    if n < 2:
        raise ValidationError(f"describe needs n >= 2, got {n}")
    if kind == "sphere":
        m, k = n, 1
    elif kind == "orthogonal":
        m, k = n * n, n * (n + 1) // 2
    else:
        raise ValidationError(
            f"unknown manifold '{kind}'; supported: sphere, orthogonal"
        )
    dim = m - k
    payload = {
        "manifold": kind,
        "n": n,
        "m": m,
        "k": k,
        "dim": dim,
        "frame_shape": [m, dim],
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapbel",
        description=(
            "Evaluate Laplace-Beltrami operators on constraint manifolds "
            "in ambient coordinates, and verify the closed-form identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate Laplacians for a JSON job file")
    p_eval.add_argument("--job", required=True, help="path to the job JSON file")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n", default="2..5", help="dimension range, e.g. 3 or 2..6")
    p_verify.add_argument("--seeds", type=int, default=5, help="random draws per case")
    p_verify.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the identity-check tolerance (default from LAPBEL_TOL)",
    )
    p_verify.add_argument(
        "--h", type=float, default=1e-3, help="geodesic oracle step size"
    )
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.set_defaults(func=cmd_verify)

    p_describe = sub.add_parser(
        "describe", help="print manifold dimensions as JSON"
    )
    p_describe.add_argument("manifold", help="sphere or orthogonal")
    p_describe.add_argument("n", type=int)
    p_describe.set_defaults(func=cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
