"""Weighted Fermat-Torricelli problems for non-overlapping circles.

Forward solver with a geometric certificate, inverse weight recovery,
dynamic/geometric plasticity systems, five-circle evolution traces, and an
independent brute-force oracle.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AbsorbedWeights,
    DegenerateAngle,
    DegenerateProjection,
    FTCirclesError,
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
    cosine_residuals,
    project_onto_circle,
    sine_residuals,
)
from .inverse import AngleTriple, angles_from_weights, opposite_angles, weights_from_angles
from .solver import CaseTag, SolveResult, certificate_residuals, classify_case, solve
from .plasticity import (
    PlasticityCoefficients,
    SectorAngles,
    TriangleRatios,
    cosine_system_weights,
    plasticity4_preconditions,
    plasticity_n,
    shifted_configuration,
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

# The imports above are the one list of public names.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
