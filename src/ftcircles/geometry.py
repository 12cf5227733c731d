"""2D primitives: points, circles, projections, angles, sector decompositions.

All operations are pure functions of immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DegenerateAngle, DegenerateProjection, InvalidConfiguration

#: Two points closer than this are treated as coincident.
COINCIDENT_EPS = 1e-12


@dataclass(frozen=True)
class Point2:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidConfiguration(
                f"point coordinates must be finite, got ({self.x}, {self.y})"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    @staticmethod
    def from_array(a) -> "Point2":
        return Point2(float(a[0]), float(a[1]))

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Circle:
    """A circle given by its center and a strictly positive radius."""

    center: Point2
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise InvalidConfiguration(f"radius must be positive and finite, got {self.radius}")


class DistanceMode(Enum):
    """How point-to-circle distance is measured.

    TO_CURVE measures distance to the circle itself, ``| |p-A| - r |``.
    TO_SET measures distance to the closed disk, ``max(|p-A| - r, 0)``.
    The two coincide everywhere outside the disk.
    """

    TO_CURVE = "curve"
    TO_SET = "set"


@dataclass(frozen=True)
class Configuration:
    """A problem instance: n >= 3 pairwise non-overlapping weighted circles."""

    circles: tuple[Circle, ...]
    weights: tuple[float, ...]
    tolerance: float = 1e-10
    distance_mode: DistanceMode = DistanceMode.TO_CURVE
    # read-only arrays, built once by __post_init__
    _centers: np.ndarray = field(init=False, repr=False, compare=False, hash=False)
    _radii: np.ndarray = field(init=False, repr=False, compare=False, hash=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "circles", tuple(self.circles))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        n = len(self.circles)
        if n < 3:
            raise InvalidConfiguration(f"need at least 3 circles, got {n}")
        if len(self.weights) != n:
            raise InvalidConfiguration(
                f"{n} circles but {len(self.weights)} weights"
            )
        for i, w in enumerate(self.weights):
            if not (math.isfinite(w) and w > 0.0):
                raise InvalidConfiguration(f"weight {i} must be positive and finite, got {w}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InvalidConfiguration(f"tolerance must be positive, got {self.tolerance}")
        if not isinstance(self.distance_mode, DistanceMode):
            raise InvalidConfiguration(f"bad distance mode {self.distance_mode!r}")
        for name, values in (
            ("_centers", [[c.center.x, c.center.y] for c in self.circles]),
            ("_radii", [c.radius for c in self.circles]),
            ("_weights", self.weights),
        ):
            array = np.array(values, dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        radii = self._radii
        touching = pair_distances(self._centers) <= radii[:, None] + radii
        if touching.any():
            i, j = np.argwhere(touching)[0]
            raise InvalidConfiguration(f"circles {i} and {j} overlap or touch")

    @property
    def n(self) -> int:
        return len(self.circles)

    def centers_array(self) -> np.ndarray:
        return self._centers

    def radii_array(self) -> np.ndarray:
        return self._radii

    def weights_array(self) -> np.ndarray:
        return self._weights


def pair_distances(points) -> np.ndarray:
    """Distances between the rows of an (n, 2) point array, as an (n, n) matrix.

    The diagonal is +inf, so minima and comparisons see distinct pairs only.
    """
    p = np.asarray(points, dtype=float)
    d = np.hypot(p[:, None, 0] - p[:, 0], p[:, None, 1] - p[:, 1])
    d.flat[:: len(p) + 1] = np.inf
    return d


def project_onto_circle(p: Point2, c: Circle) -> Point2:
    """Closest point of the circle to p, along the radial ray through p.

    The segment from p to the result is radial, hence orthogonal to the
    circle. Raises DegenerateProjection when p coincides with the center,
    where every circle point is equally close.
    """
    dx, dy = p.x - c.center.x, p.y - c.center.y
    d = math.hypot(dx, dy)
    if d < COINCIDENT_EPS:
        raise DegenerateProjection("projection of the center onto its circle is not unique")
    k = c.radius / d
    return Point2(c.center.x + k * dx, c.center.y + k * dy)


def distance_to_circle(p: Point2, c: Circle, mode: DistanceMode = DistanceMode.TO_CURVE) -> float:
    """Distance from p to the circle (TO_CURVE) or to its closed disk (TO_SET)."""
    d = p.distance_to(c.center)
    if mode is DistanceMode.TO_CURVE:
        return abs(d - c.radius)
    return max(d - c.radius, 0.0)


def angle_at(apex: Point2, a: Point2, b: Point2) -> float:
    """Unsigned angle in [0, pi] between rays apex->a and apex->b."""
    rays = []
    for p in (a, b):
        v = p.as_array() - apex.as_array()
        norm = float(np.hypot(v[0], v[1]))
        if norm < COINCIDENT_EPS:
            raise DegenerateAngle(f"ray endpoint coincides with apex {apex}")
        rays.append(v / norm)
    return math.acos(float(np.clip(np.dot(rays[0], rays[1]), -1.0, 1.0)))


def azimuths_at(apex: Point2, points: Sequence[Point2]) -> np.ndarray:
    """Polar angles (atan2, in [-pi, pi]) of each point as seen from apex.

    These are the ray azimuths every angle certificate derives from. They
    use ``math.atan2``: numpy's SIMD ``arctan2`` can differ from it in the
    last bit, which would move the reported sector angles.
    """
    out = np.empty(len(points))
    for k, p in enumerate(points):
        dx, dy = p.x - apex.x, p.y - apex.y
        if math.hypot(dx, dy) < COINCIDENT_EPS:
            raise DegenerateAngle(f"point {k} coincides with apex")
        out[k] = math.atan2(dy, dx)
    return out


def wrap_angle(x) -> np.ndarray:
    """Wrap to (-pi, pi] elementwise; values already in that range come back unchanged."""
    x = np.asarray(x, dtype=float)
    y = np.fmod(x + math.pi, 2.0 * math.pi)
    y = np.where(y <= 0.0, y + 2.0 * math.pi, y) - math.pi
    return np.where((x > -math.pi) & (x <= math.pi), x, y)


def sectors_of(azimuths: Sequence[float]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Cyclic order of rays with the given azimuths and their sector angles.

    Returns (order, sectors): ``order`` lists the ray indices sorted by
    ascending azimuth wrapped to (-pi, pi], and ``sectors[k]`` is the
    counterclockwise angle from ray order[k] to ray order[k+1] (wrapping at
    the end). The sectors sum to 2*pi.
    """
    az = wrap_angle(azimuths)
    order = np.argsort(az, kind="stable")
    sorted_az = az[order]
    sectors = np.append(np.diff(sorted_az), 2.0 * math.pi - (sorted_az[-1] - sorted_az[0]))
    return tuple(order.tolist()), tuple(sectors.tolist())


def cosine_matrix(azimuths: Sequence[float]) -> np.ndarray:
    """Matrix ``cos(az_j - az_i)`` of the cosines between every pair of rays.

    The diagonal is exactly 1, so ``cosine_matrix(az) @ w`` is the cosine
    equilibrium residual ``w_i + sum_{j!=i} w_j cos(angle_ij)``.
    """
    az = np.asarray(azimuths, dtype=float)
    return np.cos(az[None, :] - az[:, None])


def sine_matrix(azimuths: Sequence[float]) -> np.ndarray:
    """Matrix ``sin(az_j - az_i)`` of the signed sines between every pair of rays."""
    az = np.asarray(azimuths, dtype=float)
    return np.sin(az[None, :] - az[:, None])


def sector_decomposition(apex: Point2, points: Sequence[Point2]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Cyclic order of the rays from apex to the points and their sector angles.

    See :func:`sectors_of`; the sectors sum to 2*pi.
    """
    return sectors_of(azimuths_at(apex, points))
