"""2D primitives: points, circles, projections, ray azimuths and sectors.

All operations are pure functions of immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DegenerateAngle, DegenerateProjection, InvalidConfiguration
from .errors import checked_number, checked_numbers

if TYPE_CHECKING:
    from .solver import SolveResult

#: Two points closer than this are treated as coincident.
COINCIDENT_EPS = 1e-12
# from this many circles on, the overlap sweep runs on numpy arrays: below
# it numpy's cost per call exceeds the Python loop's
_LARGE_N = 96
# pairs the array sweep tests per block of rows, which bounds its memory
_SWEEP_BLOCK = 1 << 16


@dataclass(frozen=True, slots=True)
class Point2:
    """A point in the plane. Coordinates must be finite numbers."""

    x: float
    y: float

    # written out, so a point costs one call: the generated __init__ would
    # also call a __post_init__ for the check
    def __init__(self, x: float, y: float):
        try:
            finite = math.isfinite(x) and math.isfinite(y)
        except (TypeError, OverflowError):  # not a number, or an int beyond the float range
            finite = False
        if not finite:
            raise InvalidConfiguration(f"coordinates must be finite, got ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    @staticmethod
    def from_array(a) -> "Point2":
        return Point2(float(a[0]), float(a[1]))

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class Circle:
    """A circle given by its ``Point2`` center and a strictly positive finite radius."""

    center: Point2
    radius: float

    def __init__(self, center: Point2, radius: float):
        if not isinstance(center, Point2):
            raise InvalidConfiguration(f"center must be a Point2, got {center!r}")
        try:
            valid = math.isfinite(radius) and radius > 0.0
        except (TypeError, OverflowError):
            valid = False
        if not valid:
            raise InvalidConfiguration(f"radius must be positive and finite, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


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
    """A problem instance: n >= 3 pairwise non-overlapping weighted circles.

    Validation keeps the circles as three columns of Python floats, ``xs``,
    ``ys`` and ``radii``, next to the ``weights`` tuple; the solver below
    32 centers reads these. The read-only arrays of ``centers_array``,
    ``radii_array`` and ``weights_array`` hold the same values and are
    each built on first access.
    """

    circles: tuple[Circle, ...]
    weights: tuple[float, ...]
    tolerance: float = 1e-10
    distance_mode: DistanceMode = DistanceMode.TO_CURVE
    xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    ys: tuple[float, ...] = field(init=False, repr=False, compare=False)
    radii: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # read-only arrays of the columns, each built on first access
    _centers: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _radii: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _weights: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # result of the first successful ``solve``, which later calls return
    _solved: SolveResult | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        try:
            circles = tuple(self.circles)
        except TypeError:  # not iterable
            message = f"circles must be a sequence, got {self.circles!r}"
            raise InvalidConfiguration(message) from None
        # a Circle has checked its center and radius when it was built
        centers = [c.center for c in circles if isinstance(c, Circle)]
        if len(centers) < len(circles):
            i, c = next((i, c) for i, c in enumerate(circles) if not isinstance(c, Circle))
            raise InvalidConfiguration(f"circle {i} must be a Circle, got {c!r}")
        n = len(circles)
        if n < 3:
            raise InvalidConfiguration(f"need at least 3 circles, got {n}")
        weights = tuple(checked_numbers(self.weights, n, "weight", "weights", positive=True))
        checked_number(self.tolerance, "tolerance", positive=True)
        xs = tuple([float(p.x) for p in centers])
        ys = tuple([float(p.y) for p in centers])
        radii = tuple([float(c.radius) for c in circles])
        if not isinstance(self.distance_mode, DistanceMode):
            raise InvalidConfiguration(f"bad distance mode {self.distance_mode!r}")
        for name, value in (
            ("circles", circles), ("weights", weights), ("xs", xs), ("ys", ys), ("radii", radii)
        ):
            object.__setattr__(self, name, value)
        pair = first_touching_pair(xs, ys, radii)
        if pair is not None:
            raise InvalidConfiguration(f"circles {pair[0]} and {pair[1]} overlap or touch")

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, so a copy is
        # validated, builds its own arrays and has no stored result
        return (
            Configuration,
            (self.circles, self.weights, self.tolerance, self.distance_mode),
        )

    @property
    def n(self) -> int:
        return len(self.circles)

    def centers_array(self) -> np.ndarray:
        if self._centers is None:
            # numpy converts a row of x and a row of y much faster than n pairs
            self._store("_centers", np.array([self.xs, self.ys]).T.copy())
        return self._centers

    def radii_array(self) -> np.ndarray:
        if self._radii is None:
            self._store("_radii", np.array(self.radii))
        return self._radii

    def weights_array(self) -> np.ndarray:
        if self._weights is None:
            self._store("_weights", np.array(self.weights))
        return self._weights

    def _store(self, name: str, array: np.ndarray) -> None:
        array.flags.writeable = False
        object.__setattr__(self, name, array)


def pair_distances(points) -> np.ndarray:
    """Distances between the rows of an (n, 2) point array, as an (n, n) matrix.

    The diagonal is +inf, so minima and comparisons see distinct pairs only.
    """
    p = np.asarray(points, dtype=float)
    d = np.hypot(p[:, None, 0] - p[:, 0], p[:, None, 1] - p[:, 1])
    d.flat[:: len(p) + 1] = np.inf
    return d


def first_touching_pair(
    xs: Sequence[float], ys: Sequence[float], radii: Sequence[float]
) -> tuple[int, int] | None:
    """First pair ``(i, j)``, ``i < j``, of circles that overlap or touch, or None.

    The circles are given as columns of floats: center ``(xs[i], ys[i])``
    and radius ``radii[i]``. Circles i and j touch when
    ``np.hypot(x_i - x_j, y_i - y_j) <= r_i + r_j``;
    of all touching pairs the lexicographically first is returned. A
    sort-and-sweep on x (Shamos & Hoey 1976) tests only the pairs whose
    computed ``x_j - x_i`` is at most ``r_i + max(r)``: the others cannot
    touch, because the hypot is at least ``|x_j - x_i|``. The same bound on
    ``|y_j - y_i|`` skips more pairs, and ``np.hypot`` decides the rest.
    From ``_LARGE_N`` circles on the sweep runs on numpy arrays, with the
    same comparisons on the same pairs.
    """
    n = len(xs)
    if n >= _LARGE_N:
        return _first_touching_pair_on_arrays(xs, ys, radii)
    order = sorted(range(n), key=xs.__getitem__)
    r_max = max(radii)
    first = None
    for a, i in enumerate(order):
        xi, yi, ri = xs[i], ys[i], radii[i]
        reach = ri + r_max
        for b in range(a + 1, n):
            j = order[b]
            dx = xs[j] - xi
            if dx > reach:
                break
            dy = ys[j] - yi
            s = ri + radii[j]
            if -s <= dy <= s and np.hypot(dx, dy) <= s:
                pair = (i, j) if i < j else (j, i)
                if first is None or pair < first:
                    first = pair
    return first


def _first_touching_pair_on_arrays(xs, ys, radii) -> tuple[int, int] | None:
    """``first_touching_pair``'s sweep as array steps: it tests the pairs the loop tests."""
    x, y, r = (np.asarray(v, dtype=float) for v in (xs, ys, radii))
    n = len(x)
    order = np.argsort(x, kind="stable")
    sx, sy, sr = x[order], y[order], r[order]
    rows = np.arange(n)
    first = None
    # the loop's Python floats overflow to inf without a warning
    with np.errstate(over="ignore"):
        reach = sr + r.max()
        # sorted row a tests rows a+1..end[a]-1, up to the first computed
        # x_j - x_i beyond reach; x_i + reach rounds differently, so the
        # windows it gives widen while the next computed difference is within reach
        end = np.searchsorted(sx, sx + reach, side="right")
        while True:
            short = end < n
            short[short] = sx[end[short]] - sx[short] <= reach[short]
            if not short.any():
                break
            end[short] = np.searchsorted(sx, sx[end[short]], side="right")
        counts = end - rows - 1
        total = np.cumsum(counts)
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(total, total[lo] - counts[lo] + _SWEEP_BLOCK, side="right"))
            hi = max(hi, lo + 1)
            k = counts[lo:hi]
            a = np.repeat(rows[lo:hi], k)
            b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(k) - k, k)
            dx, dy, s = sx[b] - sx[a], sy[b] - sy[a], sr[a] + sr[b]
            near = (dx <= reach[a]) & (-s <= dy) & (dy <= s)
            hit = near.nonzero()[0]
            hit = hit[np.hypot(dx[hit], dy[hit]) <= s[hit]]
            if len(hit):
                i, j = order[a[hit]], order[b[hit]]
                pairs = np.minimum(i, j) * n + np.maximum(i, j)
                best = int(pairs.min())
                first = best if first is None else min(first, best)
            lo = hi
    return None if first is None else divmod(first, n)


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


def azimuths_at(apex: Point2, points) -> list[float]:
    """Polar angles (atan2, in [-pi, pi]) of the ``(x, y)`` points seen from apex.

    These are the ray azimuths every angle certificate derives from. They
    use ``math.atan2``: numpy's SIMD ``arctan2`` can differ from it in the
    last bit, which would move the reported sector angles.
    """
    ax, ay = apex.x, apex.y
    out = []
    for k, (x, y) in enumerate(points):
        dx, dy = x - ax, y - ay
        if math.hypot(dx, dy) < COINCIDENT_EPS:
            raise DegenerateAngle(f"point {k} coincides with apex")
        out.append(math.atan2(dy, dx))
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
    ascending azimuth wrapped to (-pi, pi] (a stable sort, so equal
    azimuths keep their input order), and ``sectors[k]`` is the
    counterclockwise angle from ray order[k] to ray order[k+1] (wrapping at
    the end). The sectors sum to 2*pi.
    """
    az = list(map(float, azimuths))
    if max(az) > math.pi or min(az) < -math.pi:
        az = wrap_angle(az).tolist()
    elif -math.pi in az:
        # the one value in [-pi, pi] that wrap_angle moves
        az = [math.pi if a == -math.pi else a for a in az]
    order = sorted(range(len(az)), key=az.__getitem__)
    ordered = list(map(az.__getitem__, order))
    sectors = list(map(operator.sub, ordered[1:], ordered))
    sectors.append(2.0 * math.pi - (ordered[-1] - ordered[0]))
    return tuple(order), tuple(sectors)


def cosine_matrix(azimuths: Sequence[float]) -> np.ndarray:
    """Matrix ``cos(az_j - az_i)`` of the cosines between every pair of rays.

    The diagonal is exactly 1, so ``cosine_matrix(az) @ w`` is the cosine
    equilibrium residual ``w_i + sum_{j!=i} w_j cos(angle_ij)``;
    :func:`cosine_residuals` computes that product in O(n).
    """
    az = np.asarray(azimuths, dtype=float)
    return np.cos(az[None, :] - az[:, None])


def cosine_residuals(azimuths: Sequence[float], weights: Sequence[float]) -> np.ndarray:
    """Cosine residuals ``w_i + sum_{j!=i} w_j cos(angle_ij)`` of rays at the given azimuths.

    Each is the projection ``u_i . sum_j w_j u_j`` of the weighted resultant
    of the unit rays onto ray i, the same quantity as
    ``cosine_matrix(az) @ w``, computed in O(n) instead of O(n^2); the two
    round differently, by at most about ``n * eps * sum(w)``.
    """
    az = np.asarray(azimuths, dtype=float)
    w = np.asarray(weights, dtype=float)
    c, s = np.cos(az), np.sin(az)
    return c * np.dot(w, c) + s * np.dot(w, s)


def sine_residuals(azimuths: Sequence[float], weights: Sequence[float]) -> np.ndarray:
    """Signed sine residuals ``sum_j w_j sin(az_j - az_i)`` of rays at the given azimuths.

    These are the cross products of the equilibrium with each ray direction;
    with rays laid out per the interior/exterior hypotheses they reduce
    term-by-term to the displayed weighted sine equations.
    """
    az = np.asarray(azimuths, dtype=float)
    return np.sin(az[None, :] - az[:, None]) @ np.asarray(weights, dtype=float)
