"""Laplace-Beltrami operators on constraint manifolds in ambient coordinates.

The package evaluates the Laplace-Beltrami operator of scalar functions
restricted to implicitly defined manifolds (level sets of constraint
functions in Euclidean space) without local parametrizations, with worked
closed forms for spheres and the orthogonal group and finite-difference
geodesic oracles to check every identity.

Each public name, and each submodule named below, is imported on first use
(PEP 562), so ``import lapbel`` loads no submodule.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "constraint_core": (
        "AdaptedFrame", "ConstraintSet", "LaplacianReport", "OnManifoldCheck", "ScalarField",
        "constant_field", "finite_difference_field", "lagrange_multipliers",
        "laplace_beltrami_general", "linear_field", "on_manifold", "polynomial_field",
        "qr_nullspace_frame",
    ),
    "errors": (
        "ChartError", "ContractError", "DimensionError", "DomainError", "FactorizationError",
        "LapbelError", "NumericalError", "RegularityError", "SingularityError",
        "ValidationError",
    ),
    "numkit": (
        "DEFAULT_TOLERANCES", "Tolerances", "matrix_from_json", "solve_spd", "sym_condition",
        "unvec", "vec",
    ),
    "oracles": (
        "OracleConfig", "check_gradient", "check_hessian", "geodesic_laplacian_on",
        "geodesic_laplacian_sphere",
    ),
    "orthogonal": (
        "OrthogonalPoint", "brockett_field", "brockett_laplacian", "index_pairs", "lambda_of",
        "on_adapted_frame", "on_constraint_set", "on_frame", "on_laplacian", "p1_field",
        "p1_laplacian", "p2_field", "p2_laplacian", "p11_field", "p11_laplacian",
        "random_orthogonal", "theta_basis", "trace_lambda_product",
    ),
    "sphere": (
        "SpherePoint", "homogeneous_sphere_laplacian", "random_sphere_point",
        "sphere_adapted_frame", "sphere_constraint_set", "sphere_frame", "sphere_frame_gram_inverse",
        "sphere_laplacian", "sphere_projector", "sphere_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
