"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI for
its one-line ``ERROR:<code>:<detail>`` output.
"""


class FTCirclesError(Exception):
    """Base class for all library errors."""

    code = "error"


class InvalidConfiguration(FTCirclesError, ValueError):
    """A circle configuration violates its invariants."""

    code = "invalid_configuration"


class SceneError(FTCirclesError, ValueError):
    """A scene file is malformed or inconsistent."""

    code = "invalid_scene"


class DegenerateProjection(FTCirclesError):
    """Projection target coincides with the circle center; not unique."""

    code = "degenerate_projection"


class DegenerateAngle(FTCirclesError):
    """An angle endpoint coincides with the apex, or an angle is too near 0 or pi."""

    code = "degenerate_angle"


class SolutionInsideDisk(FTCirclesError):
    """The minimizer of the center problem lies strictly inside a disk."""

    code = "solution_inside_disk"

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"minimizer lies strictly inside disk {index}")


class NonConvergence(FTCirclesError):
    """Iteration budget exhausted before reaching the tolerance."""

    code = "non_convergence"


class AbsorbedWeights(FTCirclesError):
    """Weight triple violates the floating triangle condition."""

    code = "absorbed_weights"


class SingularSystem(FTCirclesError):
    """Angle data is inconsistent with any interior equilibrium."""

    code = "singular_system"


class GeometryPreconditionViolated(FTCirclesError):
    """Ray geometry violates the interior/exterior triangle hypotheses."""

    code = "geometry_precondition"


class ShiftedConfigInvalid(FTCirclesError):
    """A radially shifted configuration violates validity conditions."""

    code = "shifted_config_invalid"


class PreconditionViolated(FTCirclesError):
    """An operation precondition fails, such as needing a floating solution."""

    code = "precondition_violated"

