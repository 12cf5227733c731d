"""Weighted Fermat-Torricelli problems for non-overlapping circles.

Forward solver with a geometric certificate, inverse weight recovery,
dynamic/geometric plasticity systems, five-circle evolution traces, and an
independent brute-force oracle.
"""

from .errors import (
    AbsorbedWeights,
    DegenerateAngle,
    DegenerateProjection,
    FTCirclesError,
    GeometryPreconditionViolated,
    InvalidConfiguration,
    NonConvergence,
    PreconditionViolated,
    SceneError,
    ShiftedConfigInvalid,
    SingularSystem,
    SolutionInsideDisk,
)
from .geometry import (
    Circle,
    Configuration,
    DistanceMode,
    Point2,
    project_onto_circle,
)
from .inverse import AngleTriple, angles_from_weights, opposite_angles, weights_from_angles
from .solver import CaseTag, SolveResult, certificate_residuals, classify_case, solve
from .plasticity import (
    PlasticityCoefficients,
    SectorAngles,
    TriangleRatios,
    cosine_residuals,
    cosine_system_weights,
    plasticity4_preconditions,
    plasticity_n,
    shifted_configuration,
    sine_residuals,
    transfer_coefficients,
    verify_geometric_plasticity,
)
from .evolution import (
    EvolutionStep,
    EvolutionTrace,
    EvolutionType,
    TerminationReason,
    WeightChange,
    compose_rays,
    evolve_type_a,
    evolve_type_b,
)
from .oracle import (
    directional_derivative_to_circle,
    finite_difference_gradient,
    objective,
    oracle_minimize,
    random_dominated_config,
    random_floating_config,
    regular_polygon_config,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorbedWeights",
    "AngleTriple",
    "CaseTag",
    "Circle",
    "Configuration",
    "DegenerateAngle",
    "DegenerateProjection",
    "DistanceMode",
    "EvolutionStep",
    "EvolutionTrace",
    "EvolutionType",
    "FTCirclesError",
    "GeometryPreconditionViolated",
    "InvalidConfiguration",
    "NonConvergence",
    "PlasticityCoefficients",
    "Point2",
    "PreconditionViolated",
    "SceneError",
    "SectorAngles",
    "ShiftedConfigInvalid",
    "SingularSystem",
    "SolutionInsideDisk",
    "SolveResult",
    "TerminationReason",
    "TriangleRatios",
    "WeightChange",
    "angles_from_weights",
    "certificate_residuals",
    "classify_case",
    "compose_rays",
    "cosine_residuals",
    "cosine_system_weights",
    "directional_derivative_to_circle",
    "evolve_type_a",
    "evolve_type_b",
    "finite_difference_gradient",
    "objective",
    "opposite_angles",
    "oracle_minimize",
    "plasticity4_preconditions",
    "plasticity_n",
    "project_onto_circle",
    "random_dominated_config",
    "random_floating_config",
    "regular_polygon_config",
    "shifted_configuration",
    "sine_residuals",
    "solve",
    "transfer_coefficients",
    "verify_geometric_plasticity",
    "weights_from_angles",
]
