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
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add, mul
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    PreconditionViolated,
    ShiftedConfigInvalid,
    SingularSystem,
    InvalidConfiguration,
    checked_number,
    checked_numbers,
)
from .geometry import (
    Circle,
    Configuration,
    Point2,
    azimuths_at,
    cosine_matrix,
    sectors_of,
)
from .solver import SolveResult, solve

_MIN_SINE = 1e-12


class SectorAngles:
    """Pairwise ray angles at the branching point.

    Holds the ray azimuths and the cyclic order of the rays with their
    sector angles. Built from azimuths or from geometry
    (:meth:`from_result`, :meth:`from_points`).
    """

    __slots__ = ("n", "azimuths", "_az", "_order", "_sectors")

    def __init__(self, azimuths: Sequence[float]):
        try:
            az = [checked_number(a, f"ray azimuth {i}") for i, a in enumerate(azimuths)]
        except TypeError:  # not iterable
            message = f"ray azimuths must be a sequence, got {azimuths!r}"
            raise InvalidConfiguration(message) from None
        if len(az) < 3:
            raise InvalidConfiguration("need at least 3 ray azimuths")
        self._set(az, *sectors_of(az))

    def _set(self, az: list[float], order: tuple[int, ...], sectors: tuple[float, ...]) -> None:
        """Hold the rays ``az`` with their cyclic order and sectors from ``sectors_of``."""
        k = min(range(len(sectors)), key=sectors.__getitem__)  # the first minimum
        if sectors[k] < 1e-9:
            i, j = sorted((order[k], order[(k + 1) % len(order)]))
            raise InvalidConfiguration(f"rays {i} and {j} coincide")
        self.n = len(az)
        self.azimuths = np.array(az)
        self._az = az
        self._order = order
        self._sectors = sectors

    @classmethod
    def from_result(cls, result: SolveResult) -> "SectorAngles":
        """The solver's ray layout, with the order and sectors it already computed."""
        if not result.case.is_floating:
            raise PreconditionViolated("sector angles require a floating solution")
        layout = cls.__new__(cls)
        layout._set(list(result.ray_azimuths), result.sector_order, result.sector_angles)
        return layout

    @classmethod
    def from_points(cls, apex: Point2, points: Sequence[Point2]) -> "SectorAngles":
        return cls(azimuths_at(apex, [(p.x, p.y) for p in points]))

    def cyclic_order(self) -> tuple[int, ...]:
        return self._order

    def sectors(self) -> tuple[float, ...]:
        """Consecutive sector angles aligned with :meth:`cyclic_order`."""
        return self._sectors

    def label_orientation(self) -> int:
        """1 when labels 0..n-1 run counterclockwise around the apex, -1 when clockwise, else 0."""
        k = self._order.index(0)
        seq = self._order[k:] + self._order[:k]
        if seq == tuple(range(self.n)):
            return 1
        if seq[1:] == tuple(range(self.n - 1, 0, -1)):
            return -1
        return 0


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
        az = angles._az

        def s(i: int, j: int) -> float:
            """sin of the signed rotation from ray i to ray j."""
            return math.sin(az[j] - az[i])

        for i, j in ((2, 1), (2, 0), (1, 0)):
            if abs(s(i, j)) < _MIN_SINE:
                raise PreconditionViolated(f"rays {i} and {j} are collinear")
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

    _rows: list[list[float]] = field(init=False, repr=False, compare=False)
    _const: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", np.asarray(self.a, dtype=float).tolist())
        object.__setattr__(self, "_const", np.asarray(self.const, dtype=float).tolist())

    def triangle_weights(self, free_weights: Sequence[float]) -> list[float]:
        """The first three weights ``a @ free + const`` for the n - 3 free weights.

        Each is a float sum in index order, ``a[i, 0] * free[0] + ... +
        const[i]``, so it rounds the same under every BLAS kernel.
        """
        if len(free_weights) != self.n - 3:
            raise InvalidConfiguration(
                f"expected {self.n - 3} free weights, got {len(free_weights)}"
            )
        return [
            reduce(add, map(mul, row, free_weights)) + c for row, c in zip(self._rows, self._const)
        ]


def transfer_coefficients(
    ratios: TriangleRatios, n: int, total: float = 1.0
) -> PlasticityCoefficients:
    """Coefficients of the constant-sum weight transfer for n rays.

    a[0, j] = (q3[j]*r2 + q2[j]*r3 - 1) / (1 + r2 + r3)
    a[1, j] = r2 * (a[0, j] - q3[j])
    a[2, j] = r3 * (a[0, j] - q2[j])
    const   = total / (1 + r2 + r3) * (1, r2, r3)

    ``n`` must be the number of rays of ``ratios``. Raises
    InvalidConfiguration when it is not, or when a required sub-triangle
    ratio is absent, and SingularSystem when the three-ray solution itself
    degenerates.
    """
    if n != ratios.n or n < 4:
        raise InvalidConfiguration(f"need n = ratios.n >= 4, got n = {n} for {ratios.n}-ray ratios")
    den = 1.0 + ratios.r2 + ratios.r3
    if abs(den) < _MIN_SINE:
        raise SingularSystem("three-ray subproblem has zero total weight")
    r2, r3 = ratios.r2, ratios.r3
    rows: tuple[list[float], ...] = ([], [], [])
    for j in range(3, n):
        if j not in ratios.q3 or j not in ratios.q2:
            raise InvalidConfiguration(f"missing sub-triangle ratios for ray {j}")
        q3, q2 = ratios.q3[j], ratios.q2[j]
        a1 = (q3 * r2 + q2 * r3 - 1.0) / den
        rows[0].append(a1)
        rows[1].append(r2 * (a1 - q3))
        rows[2].append(r3 * (a1 - q2))
    scale = total / den
    return PlasticityCoefficients(
        n=n,
        total=float(total),
        a=np.array(rows),
        const=np.array([scale, scale * r2, scale * r3]),
    )


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
    :func:`plasticity4_preconditions`. Raises InvalidConfiguration on a
    wrong number of free ratios, on a ratio that is not a finite number
    (naming its index) and on a total that is not one.
    """
    free = checked_numbers(free_ratios, angles.n - 3, "free ratio", "free ratios")
    scale = checked_number(total, "total")
    ratios = TriangleRatios.from_angles(angles)
    # float sums in index order, so they round the same under every Python
    w2r = ratios.r2 * (1.0 - reduce(add, map(mul, free, ratios.q3.values())))
    w3r = ratios.r3 * (1.0 - reduce(add, map(mul, free, ratios.q2.values())))
    den = 1.0 + w2r + w3r + reduce(add, free)
    if abs(den) < _MIN_SINE:
        raise SingularSystem("weight ratios sum to zero; no finite scale exists")
    w1 = scale / den
    return np.array([w1, w1 * w2r, w1 * w3r] + [w1 * f for f in free])


def plasticity4_preconditions(angles: SectorAngles) -> bool:
    """Interior/exterior triangle hypotheses for the four-ray statement.

    True when, with rays labeled cyclically 1, 2, 3, 4, the apex lies inside
    triangles {1,2,3} and {1,2,4} and outside triangle {1,3,4}. Expressed in
    consecutive sector angles b1..b4 (from ray 1) this is b1 < pi, b2 < pi,
    b4 < pi, b2 + b3 < pi and b3 + b4 < pi. Each must hold with the margin
    at which :class:`TriangleRatios` calls rays collinear, so a layout with
    the apex on a triangle edge (a sum equal to pi) does not meet them.
    """
    if angles.n != 4:
        raise InvalidConfiguration("preconditions are defined for 4 rays")
    turn = angles.label_orientation()
    if not turn:
        return False  # labels do not run around the apex: crossed quadrilateral
    # sectors from ray 0 in label order: counterclockwise, or reversed
    k = angles.cyclic_order().index(0)
    b = angles.sectors()[k:] + angles.sectors()[:k]
    b1, b2, b3, b4 = b if turn > 0 else b[::-1]
    return max(b1, b2, b4, b2 + b3, b3 + b4) < math.pi - _MIN_SINE


def shifted_configuration(
    config: Configuration,
    radial_shifts: Sequence[float],
    new_radii: Sequence[float] | None = None,
) -> Configuration:
    """Translate every center along its ray from the solution point.

    The point is that of ``solve(config)``, the stored result once the
    configuration has been solved; PreconditionViolated is raised when it
    is absorbed. Positive shifts move centers away from the point. Raises
    ShiftedConfigInvalid, before any solve, when the shifts or ``new_radii``
    are not n values, when a shift is not finite or a radius not positive
    and finite (naming its index), and when the result overlaps, loses the
    floating condition, or swallows the base point into a disk. The
    floating check solves the shifted configuration, so errors of ``solve``
    pass through and a later ``solve(shifted)`` returns the stored result.
    """
    shifts = checked_numbers(radial_shifts, config.n, "shift", "shifts", ShiftedConfigInvalid)
    radii = config.radii if new_radii is None else checked_numbers(
        new_radii, config.n, "radius", "radii", ShiftedConfigInvalid, positive=True
    )
    base = solve(config)
    if not base.case.is_floating:
        raise PreconditionViolated("geometric plasticity requires a floating instance")
    px, py = base.point.x, base.point.y
    circles = []
    for i, (x, y, shift, r) in enumerate(zip(config.xs, config.ys, shifts, radii)):
        dx, dy = x - px, y - py
        dist = math.hypot(dx, dy)
        new_dist = dist + shift
        if new_dist <= r:
            raise ShiftedConfigInvalid(
                f"shift {i} places the solution point inside or on the disk"
            )
        circles.append(Circle(Point2(px + dx / dist * new_dist, py + dy / dist * new_dist), r))
    try:
        shifted = replace(config, circles=tuple(circles))
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
    shifted = shifted_configuration(config, radial_shifts, new_radii)
    moved = solve(shifted)
    return moved.point.distance_to(solve(config).point) < point_tol
