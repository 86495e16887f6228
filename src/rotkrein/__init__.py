"""Resolvents of rotating singular-perturbation Hamiltonians.

Point, circle, and blade interactions of the 2D/3D Laplacian in a
uniformly rotating frame, built from closed radial channel kernels.
Includes the boundary-operator machinery for blades and the fast-rotation
convergence studies.
"""

from .blade import (
    BladeMesh,
    BladeParam,
    BoundaryDensity,
    ConditioningError,
    FormProbeResult,
    GammaMatrix,
    MeshCellError,
    apply_blade_resolvent,
    averaged_resolvent,
    build_mesh,
    form_probe,
    gamma_matrix,
    gamma_matrix_cutoff,
    lambda_matrix,
    layer_fields,
    solve_density,
    weighted_norm,
)
from .circleint import (
    CircleParam,
    apply_circle_resolvent,
    gamma_coeff_2d,
    gamma_coeff_3d,
    gamma_from_alpha,
)
from .greens import (
    Point2,
    Point3,
    TruncationError,
    radial_kernel_2d,
    radial_kernel_3d,
)
from .limits import (
    StudyTable,
    blade_convergence_study,
    eps_scaling_study,
    point_convergence_study,
)
from .pointint import (
    KreinParam,
    RadialChannelFunction,
    ResonanceError,
    apply_krein_resolvent,
    krein_kernel,
    lambda_at,
    lambda_ref,
)
from .rotframe import (
    PointSource,
    RotationSpec,
    Truncation,
    channel_diag,
    remainder_norm,
    rot_green,
    rot_inner,
    rot_norm_sq,
)
from .specfun import (
    ChannelIndex2,
    ChannelIndex3,
    SingularArgumentError,
    bessel_j,
    equatorial_weight,
    hankel1,
    sph_bessel_j,
    sph_hankel1,
    sph_harm,
    sqrt_upper,
)

__version__ = "0.1.0"

__all__ = [
    "BladeMesh",
    "BladeParam",
    "BoundaryDensity",
    "ChannelIndex2",
    "ChannelIndex3",
    "CircleParam",
    "ConditioningError",
    "FormProbeResult",
    "GammaMatrix",
    "KreinParam",
    "MeshCellError",
    "Point2",
    "Point3",
    "PointSource",
    "RadialChannelFunction",
    "ResonanceError",
    "RotationSpec",
    "SingularArgumentError",
    "StudyTable",
    "Truncation",
    "TruncationError",
    "apply_blade_resolvent",
    "apply_circle_resolvent",
    "apply_krein_resolvent",
    "averaged_resolvent",
    "bessel_j",
    "blade_convergence_study",
    "build_mesh",
    "channel_diag",
    "eps_scaling_study",
    "equatorial_weight",
    "form_probe",
    "gamma_coeff_2d",
    "gamma_coeff_3d",
    "gamma_from_alpha",
    "gamma_matrix",
    "gamma_matrix_cutoff",
    "hankel1",
    "krein_kernel",
    "lambda_at",
    "lambda_matrix",
    "lambda_ref",
    "layer_fields",
    "point_convergence_study",
    "radial_kernel_2d",
    "radial_kernel_3d",
    "remainder_norm",
    "rot_green",
    "rot_inner",
    "rot_norm_sq",
    "solve_density",
    "sph_bessel_j",
    "sph_hankel1",
    "sph_harm",
    "sqrt_upper",
    "weighted_norm",
]
