"""Dynamic and geometric plasticity of n weighted circles.

For n >= 4 the inverse problem is underdetermined: the equilibrium
constrains the weight vector to an (n-2)-dimensional cone, so the weights
co-vary when some of them are treated as free parameters under a constant
total. The machinery here expresses that co-variation three ways that agree
with each other:

* ``cosine_system_weights``: minimum-norm member of the solution family of
  the weighted cosine equations plus the unit-sum constraint;
* ``plasticity_n``: closed-form ratios
  ``(w2/w1)`` and ``(w3/w1)`` driven by the free ratios ``w_j/w_1``;
* ``transfer_coefficients``: the affine map from free weights to the first
  three weights under the constant-sum closure.

Sub-triangle weight ratios are quotients of sines of ray angles. They are
computed here from *signed* sines of azimuth differences, which reproduces
the textbook unsigned quotients (with their explicit minus sign on the
ratio whose third ray must be reflected through the apex) whenever the ray
layout satisfies the interior/exterior triangle hypotheses, and remains an
exact identity for every other floating layout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    GeometryPreconditionViolated,
    PreconditionViolated,
    ShiftedConfigInvalid,
    SingularSystem,
    InvalidConfiguration,
)
from .geometry import (
    Circle,
    Configuration,
    Point2,
    azimuths_at,
    cosine_matrix,
    resultant_projections,
    sectors_of,
    sine_matrix,
    wrap_angle,
)
from .solver import SolveResult, solve

_MIN_SINE = 1e-12


class SectorAngles:
    """Pairwise ray angles at the branching point.

    Holds the ray azimuths and exposes unsigned pairwise angles, signed
    sines of azimuth differences, and the cyclic order of the rays with
    their sector angles. Built from azimuths or from geometry
    (:meth:`from_result`, :meth:`from_points`).
    """

    __slots__ = ("n", "azimuths", "_order", "_sectors")

    def __init__(self, azimuths: Sequence[float]):
        az = np.asarray(azimuths, dtype=float)
        if az.ndim != 1 or az.size < 3:
            raise InvalidConfiguration("need at least 3 ray azimuths")
        self._set(az, *sectors_of(az))

    def _set(self, az: np.ndarray, order: tuple[int, ...], sectors: tuple[float, ...]) -> None:
        """Hold the rays ``az`` with their cyclic order and sectors from ``sectors_of``."""
        k = int(np.argmin(sectors))
        if sectors[k] < 1e-9:
            i, j = sorted((order[k], order[(k + 1) % len(order)]))
            raise InvalidConfiguration(f"rays {i} and {j} coincide")
        self.n = int(az.size)
        self.azimuths = az
        self._order = order
        self._sectors = sectors

    @classmethod
    def from_result(cls, result: SolveResult) -> "SectorAngles":
        """The solver's ray layout, with the order and sectors it already computed."""
        if not result.case.is_floating:
            raise PreconditionViolated("sector angles require a floating solution")
        layout = cls.__new__(cls)
        layout._set(
            np.asarray(result.ray_azimuths, dtype=float), result.sector_order, result.sector_angles
        )
        return layout

    @classmethod
    def from_points(cls, apex: Point2, points: Sequence[Point2]) -> "SectorAngles":
        return cls(azimuths_at(apex, [(p.x, p.y) for p in points]))

    def angle(self, i: int, j: int) -> float:
        """Unsigned angle in [0, pi] between rays i and j."""
        return float(abs(wrap_angle(self.azimuths[j] - self.azimuths[i])))

    def signed_sin(self, i: int, j: int) -> float:
        """sin of the signed rotation from ray i to ray j."""
        return math.sin(self.azimuths[j] - self.azimuths[i])

    def cyclic_order(self) -> tuple[int, ...]:
        return self._order

    def sectors(self) -> tuple[float, ...]:
        """Consecutive sector angles aligned with :meth:`cyclic_order`."""
        return self._sectors


@dataclass(frozen=True)
class TriangleRatios:
    """Sub-triangle weight ratios entering the plasticity equations.

    r2, r3: ``(w2/w1)`` and ``(w3/w1)`` for the three-ray problem on rays
    {1, 2, 3}. q3[j], q2[j]: ``(w1/wj)`` for the three-ray problems on rays
    {1, 3, j} and {1, 2, j}. A negative value means the third ray must be
    reflected through the apex for that sub-triangle to balance. Labels are
    0-based positions in the ray layout.
    """

    n: int
    r2: float
    r3: float
    q3: Mapping[int, float]
    q2: Mapping[int, float]

    @classmethod
    def from_angles(cls, angles: SectorAngles) -> "TriangleRatios":
        n = angles.n
        if n < 4:
            raise InvalidConfiguration("triangle ratios need n >= 4 rays")
        s = angles.signed_sin
        for i, j in ((2, 1), (1, 2), (2, 0), (1, 0)):
            if abs(s(i, j)) < _MIN_SINE:
                raise GeometryPreconditionViolated(f"rays {i} and {j} are collinear")
        r2 = -s(2, 0) / s(2, 1)
        r3 = -s(1, 0) / s(1, 2)
        q3 = {j: -s(2, j) / s(2, 0) for j in range(3, n)}
        q2 = {j: -s(1, j) / s(1, 0) for j in range(3, n)}
        return cls(n=n, r2=r2, r3=r3, q3=q3, q2=q2)


@dataclass(frozen=True)
class PlasticityCoefficients:
    """Affine response of the first three weights to the free weights.

    ``w_i = sum_j a[i, j] * w_free_j + const[i]`` for i in {0, 1, 2}, where
    the constant column is the three-ray solution scaled to the common
    total. Columns of ``a`` sum to -1, so the full weight sum is conserved
    exactly.
    """

    n: int
    total: float
    a: np.ndarray
    const: np.ndarray

    def apply(self, free_weights: Sequence[float]) -> np.ndarray:
        """Full weight vector for the given free weights."""
        free = np.asarray(free_weights, dtype=float)
        if free.shape != (self.n - 3,):
            raise InvalidConfiguration(
                f"expected {self.n - 3} free weights, got {free.shape}"
            )
        w123 = self.a @ free + self.const
        return np.concatenate([w123, free])


def transfer_coefficients(
    ratios: TriangleRatios, n: int, total: float = 1.0
) -> PlasticityCoefficients:
    """Coefficients of the constant-sum weight transfer for n rays.

    a[0, j] = (q3[j]*r2 + q2[j]*r3 - 1) / (1 + r2 + r3)
    a[1, j] = r2 * (a[0, j] - q3[j])
    a[2, j] = r3 * (a[0, j] - q2[j])
    const   = total / (1 + r2 + r3) * (1, r2, r3)

    Raises InvalidConfiguration if a required sub-triangle ratio is absent
    and SingularSystem when the three-ray solution itself degenerates.
    """
    if n < 4:
        raise InvalidConfiguration("transfer coefficients need n >= 4")
    den = 1.0 + ratios.r2 + ratios.r3
    if abs(den) < _MIN_SINE:
        raise SingularSystem("three-ray subproblem has zero total weight")
    a = np.zeros((3, n - 3))
    for k, j in enumerate(range(3, n)):
        if j not in ratios.q3 or j not in ratios.q2:
            raise InvalidConfiguration(f"missing sub-triangle ratios for ray {j}")
        a1 = (ratios.q3[j] * ratios.r2 + ratios.q2[j] * ratios.r3 - 1.0) / den
        a[0, k] = a1
        a[1, k] = ratios.r2 * (a1 - ratios.q3[j])
        a[2, k] = ratios.r3 * (a1 - ratios.q2[j])
    const = (total / den) * np.array([1.0, ratios.r2, ratios.r3])
    return PlasticityCoefficients(n=n, total=float(total), a=a, const=const)


def cosine_residuals(angles: SectorAngles, weights: Sequence[float]) -> np.ndarray:
    """Residuals ``w_i + sum_{j!=i} w_j cos(angle_ij)`` of the cosine system."""
    return resultant_projections(angles.azimuths, weights)


def sine_residuals(angles: SectorAngles, weights: Sequence[float]) -> np.ndarray:
    """Signed sine residuals ``sum_i w_i sin(theta_i - theta_j)`` per ray j.

    These are the cross products of the equilibrium with each ray direction;
    with rays laid out per the interior/exterior hypotheses they reduce
    term-by-term to the displayed weighted sine equations.
    """
    return sine_matrix(angles.azimuths) @ np.asarray(weights, dtype=float)


def cosine_system_weights(angles: SectorAngles) -> np.ndarray:
    """Solve the weighted cosine equations plus the unit-sum constraint.

    For n = 3 the solution is unique. For n >= 4 the system is rank
    deficient (that deficiency is the dynamic plasticity itself) and the
    minimum-norm member of the solution family is returned; any member
    reproduces the full family through :func:`plasticity_n` given its own
    free ratios. Raises SingularSystem when no weight vector satisfies the
    system within 1e-8, and warns when the returned member leaves the
    positive cone.
    """
    n = angles.n
    g = cosine_matrix(angles.azimuths)
    a = np.vstack([g, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(g @ w)) > 1e-8 or abs(w.sum() - 1.0) > 1e-8:
        raise SingularSystem("angles admit no unit-sum equilibrium weights")
    if np.any(w <= 0.0):
        warnings.warn(
            "cosine system solution has non-positive components; the angle "
            "data is not consistent with an interior point at these weights",
            RuntimeWarning,
            stacklevel=2,
        )
    return w


def plasticity_n(
    angles: SectorAngles,
    free_ratios: Sequence[float],
    total: float = 1.0,
) -> np.ndarray:
    """General-n dynamic plasticity driven by the free ratios ``w_j/w_1``.

    (w2/w1) = (w2/w1)_123 * [1 - sum_j (wj/w1) * (w1/wj)_13j]
    (w3/w1) = (w3/w1)_123 * [1 - sum_j (wj/w1) * (w1/wj)_12j]

    The free ratios run over rays 4..n (0-based labels 3..n-1). The weight
    scale is fixed by the constant total. The four-ray statement also needs
    the interior/exterior triangle hypotheses; callers check them with
    :func:`plasticity4_preconditions`.
    """
    n = angles.n
    free = np.asarray(free_ratios, dtype=float)
    if free.shape != (n - 3,):
        raise InvalidConfiguration(f"expected {n - 3} free ratios, got {free.shape}")
    ratios = TriangleRatios.from_angles(angles)
    w2r = ratios.r2 * (1.0 - sum(free[k] * ratios.q3[3 + k] for k in range(n - 3)))
    w3r = ratios.r3 * (1.0 - sum(free[k] * ratios.q2[3 + k] for k in range(n - 3)))
    den = 1.0 + w2r + w3r + float(free.sum())
    if abs(den) < _MIN_SINE:
        raise SingularSystem("weight ratios sum to zero; no finite scale exists")
    w1 = total / den
    return np.concatenate([[w1, w1 * w2r, w1 * w3r], w1 * free])


def plasticity4_preconditions(angles: SectorAngles) -> bool:
    """Interior/exterior triangle hypotheses for the four-ray statement.

    True when, with rays labeled cyclically 1, 2, 3, 4, the apex lies inside
    triangles {1,2,3} and {1,2,4} and outside triangle {1,3,4}. Expressed in
    consecutive sector angles b1..b4 (from ray 1) this is b1 < pi, b2 < pi,
    b4 < pi, b2 + b3 < pi and b3 + b4 < pi.
    """
    if angles.n != 4:
        raise InvalidConfiguration("preconditions are defined for 4 rays")
    order = angles.cyclic_order()
    pos = {label: k for k, label in enumerate(order)}
    seq = [(pos[label] - pos[0]) % 4 for label in range(4)]
    if seq == [0, 1, 2, 3]:
        ccw = True
    elif seq == [0, 3, 2, 1]:
        ccw = False
    else:
        return False  # labels do not run around the apex: crossed quadrilateral
    az = angles.azimuths if ccw else -angles.azimuths
    b = wrap_angle(np.roll(az, -1) - az)
    b1, b2, b3, b4 = np.where(b <= 0, b + 2.0 * math.pi, b).tolist()
    return (
        b1 < math.pi
        and b2 < math.pi
        and b4 < math.pi
        and b2 + b3 < math.pi
        and b3 + b4 < math.pi
    )


def shifted_configuration(
    config: Configuration,
    radial_shifts: Sequence[float],
    new_radii: Sequence[float] | None = None,
) -> Configuration:
    """Translate every center along its ray from the solution point.

    The point is that of ``solve(config)``, the stored result once the
    configuration has been solved; PreconditionViolated is raised when it
    is absorbed. Positive shifts move centers away from the point. Raises
    ShiftedConfigInvalid when a shift is not finite, or when the result
    overlaps, loses the floating condition, or swallows the base point into
    a disk. The floating check solves the shifted configuration, so errors
    of ``solve`` pass through and a later ``solve(shifted)`` returns the
    stored result.
    """
    shifts = np.asarray(radial_shifts, dtype=float)
    if shifts.shape != (config.n,):
        raise ShiftedConfigInvalid(f"expected {config.n} shifts, got {shifts.shape}")
    if not np.isfinite(shifts).all():
        raise ShiftedConfigInvalid(f"shifts must be finite, got {shifts.tolist()}")
    base = solve(config)
    if not base.case.is_floating:
        raise PreconditionViolated("geometric plasticity requires a floating instance")
    p = base.point.as_array()
    radii = config.radii_array() if new_radii is None else np.asarray(new_radii, float)
    circles = []
    for i, c in enumerate(config.circles):
        v = c.center.as_array() - p
        dist = float(np.linalg.norm(v))
        new_dist = dist + shifts[i]
        if new_dist <= radii[i]:
            raise ShiftedConfigInvalid(
                f"shift {i} places the solution point inside or on the disk"
            )
        center = p + (v / dist) * new_dist
        circles.append(Circle(Point2.from_array(center), float(radii[i])))
    try:
        shifted = Configuration(
            tuple(circles), config.weights, config.tolerance, config.distance_mode
        )
    except InvalidConfiguration as exc:
        raise ShiftedConfigInvalid(f"shifted circles overlap: {exc}") from exc
    if not solve(shifted).case.is_floating:
        raise ShiftedConfigInvalid("shifted configuration loses the floating condition")
    return shifted


def verify_geometric_plasticity(
    config: Configuration,
    radial_shifts: Sequence[float],
    new_radii: Sequence[float] | None = None,
    point_tol: float = 1e-7,
) -> bool:
    """Check that radial center shifts leave the solution point in place.

    Solves the configuration, rebuilds it with every center translated along
    its ray from the solution point (optionally with new radii), re-solves,
    and reports whether the two points agree within ``point_tol``.
    """
    base = solve(config)
    if not base.case.is_floating:
        raise PreconditionViolated("geometric plasticity requires a floating instance")
    shifted = shifted_configuration(config, radial_shifts, new_radii)
    moved = solve(shifted)
    return moved.point.distance_to(base.point) < point_tol
