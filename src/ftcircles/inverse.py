"""Inverse weight recovery for three sites and the forward angle formulas.

With three sites the equilibrium at the interior point forces the angles and
weights to determine each other: the angle opposite site Q satisfies
``cos(phi_Q) = (w_Q^2 - w_R^2 - w_S^2) / (2 w_R w_S)``, and conversely the
normalized weights are proportional to the sines of the opposite angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import AbsorbedWeights, DegenerateAngle, InvalidConfiguration, PreconditionViolated
from .errors import checked_number
from .solver import SolveResult

_SUM_TOL = 1e-10


@dataclass(frozen=True)
class AngleTriple:
    """Angles at the interior point, labeled opposite their site.

    ``phi1`` is the angle between the rays toward sites 2 and 3, and so on
    cyclically. Each angle lies strictly in (0, pi) and the three sum to
    2*pi.
    """

    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        for k, phi in enumerate(self.angles, start=1):
            if not (0.0 < phi < math.pi):
                raise InvalidConfiguration(f"phi{k}={phi} outside (0, pi)")
        if abs(sum(self.angles) - 2.0 * math.pi) > _SUM_TOL:
            raise InvalidConfiguration(
                f"angles sum to {sum(self.angles)}, expected 2*pi"
            )

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.phi1, self.phi2, self.phi3)

    @classmethod
    def from_sectors(cls, order: Sequence[int], sectors: Sequence[float]) -> "AngleTriple":
        """Angles of three rays from their cyclic order and sector angles.

        ``order`` and ``sectors`` are as returned by
        :func:`~ftcircles.geometry.sectors_of`: the sector between two
        consecutive rays is the angle opposite the third one.
        """
        if len(order) != 3 or len(sectors) != 3:
            raise InvalidConfiguration("angle triple is defined for exactly 3 rays")
        phis = [0.0, 0.0, 0.0]
        for k, sector in enumerate(sectors):
            phis[order[(k + 2) % 3]] = sector
        return cls(*phis)


def angles_from_weights(w1: float, w2: float, w3: float) -> AngleTriple:
    """Interior angles produced by a floating weight triple.

    Requires the strict triangle condition on the weights (each weight less
    than the sum of the other two); otherwise one site absorbs the solution
    and AbsorbedWeights is raised. Scale-invariant in the weights.
    """
    w = [checked_number(x, f"weight {k}", positive=True) for k, x in enumerate((w1, w2, w3), 1)]
    phis = []
    for q in range(3):
        r, s = (q + 1) % 3, (q + 2) % 3
        c = (w[q] ** 2 - w[r] ** 2 - w[s] ** 2) / (2.0 * w[r] * w[s])
        if abs(c) >= 1.0:
            raise AbsorbedWeights(
                f"weight {q + 1} violates the floating condition (cos={c})"
            )
        phis.append(math.acos(c))
    return AngleTriple(*phis)


def weights_from_angles(angles: AngleTriple) -> tuple[float, float, float]:
    """Normalized weights (summing to exactly 1) from the opposite angles.

    The weights are proportional to the sines of the opposite angles; the
    normalization makes the floating-point sum land exactly on 1.0.
    """
    sines = [math.sin(phi) for phi in angles.angles]
    if any(s <= 1e-12 for s in sines):
        raise DegenerateAngle(f"angle sines too small: {sines}")
    total = sines[0] + sines[1] + sines[2]
    w1, w2 = sines[0] / total, sines[1] / total
    w3 = 1.0 - w1 - w2
    # nudge the last weight so the left-to-right float sum is exactly 1.0
    for _ in range(3):
        err = (w1 + w2 + w3) - 1.0
        if err == 0.0:
            break
        w3 -= err
    return (w1, w2, w3)


def opposite_angles(result: SolveResult) -> AngleTriple:
    """AngleTriple of a solved 3-circle floating instance.

    phi_Q is the sector between the rays from the solution point to the two
    projections other than Q.
    """
    if not result.case.is_floating:
        raise PreconditionViolated("angle triple requires a floating solution")
    return AngleTriple.from_sectors(result.sector_order, result.sector_angles)
