"""Independent brute-force verification and random instance generation.

The oracle minimizer never touches the solver: it evaluates the exact
objective on a coarse grid over the inflated bounding box of the centers,
then zooms in on the best point with ever smaller grids. It uses objective
values only, no gradients. Finite-difference helpers check the gradient and
the first-variation identity for segment lengths. Instance generators are
seeded and reject configurations that violate non-overlap, the floating
condition, or the point-outside-disks assumption.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import FTCirclesError, PreconditionViolated
from .geometry import (
    Circle,
    Configuration,
    DistanceMode,
    Point2,
    distances_to_circles,
    pair_distances,
)
from .solver import solve

GRID_CELLS_DEFAULT = 64
REFINE_ITERS_DEFAULT = 40

# Each zoom grid has _ZOOM_POINTS per side and spans +-_ZOOM_CELLS cells of
# the previous grid around the best point; the window shrinks by
# _ZOOM_SHRINK per round and the zoom stops once its half-width is below
# _ZOOM_STOP times the box size. 17 points over +-2 cells shrink 4x per round,
# so each grid's spacing is the next window's half-width over two.
_ZOOM_POINTS = 17
_ZOOM_CELLS = 2.0
_ZOOM_SHRINK = 4.0
_ZOOM_STOP = 1e-10

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# central-difference step of the finite-difference helpers
_STEP = 1e-6


def objective(config: Configuration, points) -> np.ndarray | float:
    """Exact objective ``sum_i w_i d(p, circle_i)`` at one or many points."""
    pts = np.asarray(points, dtype=float)
    many = np.atleast_2d(pts)
    centers = config.centers_array()
    d = np.hypot(many[:, 0:1] - centers[:, 0], many[:, 1:2] - centers[:, 1])
    dist = distances_to_circles(d, config.radii_array(), config.distance_mode)
    vals = dist @ config.weights_array()
    return float(vals[0]) if pts.ndim == 1 else vals


def oracle_minimize(
    config: Configuration,
    grid_cells: int = GRID_CELLS_DEFAULT,
    refine_iters: int = REFINE_ITERS_DEFAULT,
) -> Point2:
    """Coarse grid search plus grid zoom on the exact objective.

    The coarse grid has ``grid_cells`` points per side over the bounding box
    of the centers inflated by the largest radius; in curve mode grid points
    strictly inside a disk are excluded. Each zoom round re-grids a window
    of a few cells around the best point seen and shrinks the window, until
    its half-width falls below ``1e-10`` times the box size or
    ``refine_iters`` rounds have run. Uses objective values only and
    returns the best point seen. Raises ``PreconditionViolated`` unless
    ``grid_cells >= 1`` and ``refine_iters >= 0``.
    """
    if grid_cells < 1 or refine_iters < 0:
        raise PreconditionViolated(
            f"need grid_cells >= 1 and refine_iters >= 0, got {grid_cells}, {refine_iters}"
        )
    centers = config.centers_array()
    radii = config.radii_array()
    disks = (
        centers[:, 0],
        centers[:, 1],
        radii,
        config.weights_array(),
        config.distance_mode is DistanceMode.TO_CURVE,
    )
    pad = float(radii.max()) + 1e-6
    lo = centers.min(axis=0) - pad
    hi = centers.max(axis=0) + pad
    bx, by, best_val = _best_on_screened_grid(
        np.linspace(lo[0], hi[0], grid_cells), np.linspace(lo[1], hi[1], grid_cells), disks
    )
    size = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    half = _ZOOM_CELLS * size / max(grid_cells - 1, 1)
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    for _ in range(refine_iters):
        if half < _ZOOM_STOP * size:
            break
        x, y, val = _best_on_grid(bx + half * offsets, by + half * offsets, disks)
        if val < best_val:
            bx, by, best_val = x, y, val
        half /= _ZOOM_SHRINK
    return Point2(float(bx), float(by))


def _best_on_grid(xs: np.ndarray, ys: np.ndarray, disks) -> tuple[float, float, float]:
    """Best point, and its value, of the grid ``xs`` x ``ys``.

    ``disks`` is ``(cx, cy, radii, weights, curve)``, curve being true in
    curve mode. One hypot over the outer product of the axes; row k of gap
    is the point (xs[k % nx], ys[k // nx]). Excluded points read +inf. In
    curve mode gap stands in for |gap|: the two differ only on rows with a
    point inside a disk (d - r < 0 exactly when d < r), which the mask then
    excludes.
    """
    cx, cy, radii, weights, curve = disks
    gap = np.hypot((xs[:, None] - cx)[None], (ys[:, None] - cy)[:, None]).reshape(-1, len(cx))
    gap -= radii
    if not curve:
        vals = np.maximum(gap, 0.0) @ weights
    else:
        vals = gap @ weights
        if gap.min() < 0.0:
            for j in range(len(cx)):
                vals[gap[:, j] < 0.0] = np.inf
    k = int(vals.argmin())
    return xs[k % len(xs)], ys[k // len(xs)], float(vals[k])


def _best_on_screened_grid(xs: np.ndarray, ys: np.ndarray, disks) -> tuple[float, float, float]:
    """``_best_on_grid``, bit for bit, with hypot only on the rows that can win.

    A bound pass takes every gap as ``sqrt(dx*dx + dy*dy) - r`` in an
    (n, ny*nx) layout, about 4x cheaper than hypot, and each row's value
    ``approx`` from those gaps. With ``D = dmax + rmax`` and libm hypot
    within 1 ulp, each gap is within ``gap_err = 3 eps D + 2**-537`` of the
    hypot gap (``2**-537`` is the square root of the worst underflow error in
    a sum of squares), and each row value within ``(n + 3) eps sum(w) D +
    2**-537 sum(w) + n 2**-1074`` of ``_best_on_grid``'s; ``row_err``
    doubles the latter, with ``_TINY`` above ``n 2**-1074``, and each use
    doubles ``gap_err``, to cover
    second-order terms and the rounding of the bounds themselves. A row is
    certainly outside every disk when all its gaps exceed ``2 gap_err`` and
    certainly inside one when some gap is below ``-2 gap_err``. The argmin
    can only be a row that is not certainly inside and whose ``approx`` is
    within ``2 row_err`` of the best certainly-outside row. Only those rows
    get hypot, written into the full (ny*nx, n) gap matrix whose other rows
    are +inf, so the product runs on the same matrix shape as in
    ``_best_on_grid`` and each exact row keeps its bits (a product over fewer
    rows can round differently). Falls back to ``_best_on_grid`` when
    ``sum(w) D`` reaches ``2**1020`` (squares overflow from coordinates near
    1e154 up) or no row is certainly outside.
    """
    cx, cy, radii, weights, curve = disks
    n = len(cx)
    with np.errstate(over="ignore", under="ignore"):
        dx2 = np.square(xs - cx[:, None])
        dy2 = np.square(ys - cy[:, None])
        buf = np.add(dy2[:, :, None], dx2[:, None, :])
        np.sqrt(buf, out=buf)
        buf -= radii[:, None, None]
        gaps = buf.reshape(n, -1)
        if curve:
            low = gaps.min(axis=0)
        else:
            np.maximum(gaps, 0.0, out=gaps)
        approx = weights @ gaps
        span = math.sqrt(dx2.max() + dy2.max()) + float(radii.max())
    wsum = float(weights.sum())
    # wsum * span bounds every row value, so below 2**1020 nothing overflows
    if not wsum * span < 2.0**1020:
        return _best_on_grid(xs, ys, disks)
    gap_err = 3.0 * _EPS * span + 2.0**-537
    row_err = 2.0 * (wsum * (gap_err + n * _EPS * span) + _TINY)
    if curve:
        outside = low > 2.0 * gap_err
        if not outside.any():
            return _best_on_grid(xs, ys, disks)
        keep = (approx <= approx[outside].min() + 2.0 * row_err) & (low >= -2.0 * gap_err)
    else:
        keep = approx <= approx.min() + 2.0 * row_err
    rows = np.flatnonzero(keep)
    exact = np.hypot(xs[rows % len(xs)][:, None] - cx, ys[rows // len(xs)][:, None] - cy)
    exact -= radii
    gap = buf.reshape(-1, n)
    gap.fill(np.inf)
    gap[rows] = exact if curve else np.maximum(exact, 0.0)
    vals = (gap @ weights)[rows]
    if curve:
        vals[(exact < 0.0).any(axis=1)] = np.inf
    i = int(vals.argmin())
    k = rows[i]
    return xs[k % len(xs)], ys[k // len(xs)], float(vals[i])


def finite_difference_gradient(config: Configuration, p: Point2) -> np.ndarray:
    """Central-difference gradient of the objective at p, with step 1e-6."""
    x, y = p.x, p.y
    gx = (objective(config, [x + _STEP, y]) - objective(config, [x - _STEP, y])) / (2.0 * _STEP)
    gy = (objective(config, [x, y + _STEP]) - objective(config, [x, y - _STEP])) / (2.0 * _STEP)
    return np.array([gx, gy])


def directional_derivative_to_circle(
    circle: Circle, p: Point2, direction: Sequence[float]
) -> float:
    """Central-difference derivative of the circle distance along a direction.

    The step is 1e-6. For p outside the disk this equals the cosine of the
    angle between the negated direction and the segment from p to its
    projection point. Raises ``PreconditionViolated`` unless the direction
    is two numbers whose computed norm is finite and nonzero; a nan or
    infinite component fails.
    """
    v = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(v)) if v.shape == (2,) else 0.0
    if not (math.isfinite(norm) and norm > 0.0):
        raise PreconditionViolated(
            f"direction must be 2 numbers with a finite nonzero norm, got {direction!r}"
        )
    v = v / norm
    base = p.as_array()

    def dist(t: float) -> float:
        q = base + t * v
        return abs(math.hypot(q[0] - circle.center.x, q[1] - circle.center.y) - circle.radius)

    return (dist(_STEP) - dist(-_STEP)) / (2.0 * _STEP)


def random_floating_config(
    n: int,
    seed: int,
    distance_mode: DistanceMode = DistanceMode.TO_CURVE,
) -> Configuration:
    """Seeded random floating instance with the point safely outside all disks.

    Rejection-samples centers with a minimum pairwise separation and weights
    with a floating margin, then solves the center problem and sizes radii
    so that circles stay disjoint and the solution point keeps clear of all
    disks. Deterministic for a given (n, seed).
    """
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        centers = _sample_centers(rng, n)
        weights = rng.uniform(0.5, 1.5, size=n)
        probe = Configuration(
            tuple(Circle(Point2(*c), 1e-6) for c in centers),
            tuple(weights),
            1e-10,
            distance_mode,
        )
        try:
            result = solve(probe)
        except FTCirclesError:
            continue
        if not result.case.is_floating:
            continue
        p = result.point.as_array()
        dist_to_p = np.linalg.norm(centers - p, axis=1)
        if dist_to_p.min() < 0.15:
            continue
        caps = np.minimum(0.45 * pair_distances(centers).min(axis=1), 0.6 * dist_to_p)
        if caps.min() <= 1e-3:
            continue
        radii = caps * rng.uniform(0.3, 0.9, size=n)
        return Configuration(
            tuple(Circle(Point2(*c), float(r)) for c, r in zip(centers, radii)),
            tuple(float(w) for w in weights),
            1e-10,
            distance_mode,
        )
    raise RuntimeError(f"no valid floating instance found for n={n}, seed={seed}")


def random_dominated_config(
    n: int,
    seed: int,
    dominant: int = 0,
    distance_mode: DistanceMode = DistanceMode.TO_CURVE,
) -> Configuration:
    """Seeded instance whose dominant weight absorbs the solution.

    The dominant weight exceeds the sum of all others, which bounds the pull
    at its center below its own weight. Every radius is 1e-4, so the whole
    disk of the absorbing circle stays within oracle tolerance of its center.
    """
    rng = np.random.default_rng(seed)
    centers = _sample_centers(rng, n)
    weights = rng.uniform(0.5, 1.5, size=n)
    weights[dominant] = weights.sum() - weights[dominant] + rng.uniform(0.5, 1.5)
    return Configuration(
        tuple(Circle(Point2(*c), 1e-4) for c in centers),
        tuple(float(w) for w in weights),
        1e-10,
        distance_mode,
    )


def regular_polygon_config(
    n: int,
    circumradius: float = 2.0,
    radius: float = 0.2,
    distance_mode: DistanceMode = DistanceMode.TO_CURVE,
) -> Configuration:
    """Unit-weight circles centered at the vertices of a regular n-gon."""
    circles = []
    for k in range(n):
        ang = math.pi / 2.0 + 2.0 * math.pi * k / n
        circles.append(
            Circle(
                Point2(circumradius * math.cos(ang), circumradius * math.sin(ang)),
                radius,
            )
        )
    return Configuration(tuple(circles), tuple([1.0] * n), 1e-10, distance_mode)


def _sample_centers(rng, n: int) -> np.ndarray:
    """n centers in the square [0, 4]^2, every pair at least 1.2 apart."""
    for _ in range(5000):
        pts = rng.uniform(0.0, 4.0, size=(n, 2))
        if pair_distances(pts).min() >= 1.2:
            return pts
    raise RuntimeError("center sampling failed; box too tight for the separation")
