"""Laplace-Beltrami operators on constraint manifolds in ambient coordinates.

The package evaluates the Laplace-Beltrami operator of scalar functions
restricted to implicitly defined manifolds (level sets of constraint
functions in Euclidean space) without local parametrizations, with worked
closed forms for spheres and the orthogonal group and finite-difference
geodesic oracles to check every identity.
"""

import types

from .constraint_core import (
    AdaptedFrame,
    ConstraintSet,
    LaplacianReport,
    OnManifoldCheck,
    ScalarField,
    constant_field,
    finite_difference_field,
    lagrange_multipliers,
    laplace_beltrami_general,
    linear_field,
    on_manifold,
    polynomial_field,
    qr_nullspace_frame,
)
from .errors import (
    ChartError,
    ContractError,
    DimensionError,
    DomainError,
    FactorizationError,
    LapbelError,
    NumericalError,
    RegularityError,
    SingularityError,
    ValidationError,
)
from .numkit import (
    DEFAULT_TOLERANCES,
    Tolerances,
    gram,
    left_moore_penrose,
    matrix_from_json,
    matrix_to_json,
    solve_spd,
    sym_condition,
    unvec,
    vec,
)
from .oracles import (
    OracleConfig,
    check_gradient,
    check_hessian,
    geodesic_laplacian_on,
    geodesic_laplacian_sphere,
)
from .orthogonal import (
    OrthogonalPoint,
    brockett_field,
    brockett_laplacian,
    index_pairs,
    lambda_of,
    on_adapted_frame,
    on_constraint_set,
    on_frame,
    on_laplacian,
    p1_field,
    p1_laplacian,
    p2_field,
    p2_laplacian,
    p11_field,
    p11_laplacian,
    random_orthogonal,
    sigma_matrix,
    theta_basis,
    trace_lambda_product,
)
from .sphere import (
    SpherePoint,
    default_chart_index,
    homogeneous_sphere_laplacian,
    random_sphere_point,
    sphere_adapted_frame,
    sphere_constraint_set,
    sphere_frame,
    sphere_frame_gram_inverse,
    sphere_laplacian,
    sphere_projector,
    sphere_report,
    sphere_sigma,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
