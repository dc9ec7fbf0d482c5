"""Numerical linear algebra built from matvecs: power method, Lanczos,
iterative solvers, matrix-exponential action, Fiedler drivers, sketching."""

from repro.linalg.expm import (
    expm_action_lanczos,
    expm_action_taylor,
    heat_kernel_dense,
    taylor_terms_for_tolerance,
)
from repro.linalg.fiedler import (
    fiedler_embedding,
    fiedler_pair,
    fiedler_value,
    fiedler_vector,
)
from repro.linalg.lanczos import (
    LanczosDecomposition,
    lanczos,
    lanczos_extreme_eigenpairs,
)
from repro.linalg.power import (
    PowerMethodResult,
    power_method,
    power_method_trajectory,
)
from repro.linalg.sketch import (
    SketchedLeastSquaresResult,
    gaussian_sketch,
    sketched_least_squares,
    sparse_sign_sketch,
)
from repro.linalg.solvers import (
    SolveResult,
    conjugate_gradient,
)

__all__ = [
    "LanczosDecomposition",
    "PowerMethodResult",
    "SketchedLeastSquaresResult",
    "SolveResult",
    "conjugate_gradient",
    "expm_action_lanczos",
    "expm_action_taylor",
    "fiedler_embedding",
    "fiedler_pair",
    "fiedler_value",
    "fiedler_vector",
    "gaussian_sketch",
    "heat_kernel_dense",
    "lanczos",
    "lanczos_extreme_eigenpairs",
    "power_method",
    "power_method_trajectory",
    "sketched_least_squares",
    "sparse_sign_sketch",
    "taylor_terms_for_tolerance",
]
