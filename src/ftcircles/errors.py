"""Exception types shared across the package, and the one check of number arguments.

Every error carries a short machine-readable ``code`` used by the CLI for
its one-line ``ERROR:<code>:<detail>`` output.
"""

import math


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


class ShiftedConfigInvalid(FTCirclesError):
    """A radially shifted configuration violates validity conditions."""

    code = "shifted_config_invalid"


class PreconditionViolated(FTCirclesError):
    """An operation precondition fails, such as needing a floating solution."""

    code = "precondition_violated"


def checked_number(value, what: str, error=InvalidConfiguration, positive: bool = False) -> float:
    """``value`` as a float, when ``math.isfinite`` accepts it and, with ``positive``, it is > 0.

    Otherwise raises ``error("<what> must be [positive and] finite, got <value!r>")``.
    A string is not a number here, though ``float`` would convert it.
    """
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        finite = False
    if finite:
        x = float(value)
        if x > 0.0 or not positive:
            return x
    raise error(f"{what} must be {'positive and ' if positive else ''}finite, got {value!r}")


def checked_numbers(
    values, n: int, what: str, plural: str, error=InvalidConfiguration, positive: bool = False
) -> list[float]:
    """The ``n`` ``values`` as floats, each checked as by :func:`checked_number`.

    Raises ``error("expected <n> <plural>, got <len>")`` on a wrong count,
    and names the first bad value by its index, ``"<what> <i> must be ..."``.
    """
    try:
        values = list(values)
    except TypeError:  # not iterable
        raise error(f"expected {n} {plural}, got {values!r}") from None
    if len(values) != n:
        raise error(f"expected {n} {plural}, got {len(values)}")
    # one pass when every value is good; the per-value check finds the bad one
    try:
        column = [float(v) for v in values if math.isfinite(v)]
    except (TypeError, OverflowError):
        column = []
    if len(column) == n and (not positive or not column or min(column) > 0.0):
        return column
    return [checked_number(v, f"{what} {i}", error, positive) for i, v in enumerate(values)]
