"""Independent brute-force verification and random instance generation.

The oracle minimizer never touches the fixed-point solver: it evaluates the
exact objective on a dense grid over the inflated bounding box of the
centers and polishes the best cell with Nelder-Mead. Finite-difference
helpers check the gradient and the first-variation identity for segment
lengths. Instance generators are seeded and reject configurations that
violate non-overlap, the floating condition, or the point-outside-disks
assumption.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import optimize

from .errors import FTCirclesError, StepTooLarge, StepTooSmall
from .geometry import Circle, Configuration, DistanceMode, Point2, pair_distances
from .solver import classify_case, solve

GRID_CELLS_DEFAULT = 400
REFINE_ITERS_DEFAULT = 200


def objective(config: Configuration, points) -> np.ndarray | float:
    """Exact objective ``sum_i w_i d(p, circle_i)`` at one or many points."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    centers = config.centers_array()
    radii = config.radii_array()
    weights = config.weights_array()
    d = np.hypot(
        pts[:, 0:1] - centers[None, :, 0], pts[:, 1:2] - centers[None, :, 1]
    )
    if config.distance_mode is DistanceMode.TO_CURVE:
        dist = np.abs(d - radii[None, :])
    else:
        dist = np.maximum(d - radii[None, :], 0.0)
    vals = dist @ weights
    return float(vals[0]) if single else vals


def oracle_minimize(
    config: Configuration,
    grid_cells: int = GRID_CELLS_DEFAULT,
    refine_iters: int = REFINE_ITERS_DEFAULT,
) -> Point2:
    """Grid search plus Nelder-Mead refinement of the exact objective.

    The grid covers the bounding box of the centers inflated by the largest
    radius; in curve mode grid points strictly inside a disk are excluded
    before picking the refinement start. Always returns the best point
    found.
    """
    centers = config.centers_array()
    radii = config.radii_array()
    pad = float(radii.max()) + 1e-6
    lo = centers.min(axis=0) - pad
    hi = centers.max(axis=0) + pad
    xs = np.linspace(lo[0], hi[0], grid_cells)
    ys = np.linspace(lo[1], hi[1], grid_cells)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = objective(config, pts)
    if config.distance_mode is DistanceMode.TO_CURVE:
        inside = np.zeros(len(pts), dtype=bool)
        for c, r in zip(centers, radii):
            inside |= np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) < r
        vals = np.where(inside, np.inf, vals)
    best = pts[int(np.argmin(vals))]

    cell = max((hi[0] - lo[0]), (hi[1] - lo[1])) / max(grid_cells - 1, 1)
    simplex = np.array([best, best + [cell, 0.0], best + [0.0, cell]])
    res = optimize.minimize(
        lambda x: objective(config, x),
        best,
        method="Nelder-Mead",
        options={
            "maxiter": refine_iters,
            "xatol": 1e-12,
            "fatol": 1e-14,
            "initial_simplex": simplex,
        },
    )
    refined = res.x if res.fun <= objective(config, best) else best
    return Point2(float(refined[0]), float(refined[1]))


def _check_step(h: float) -> None:
    if h < 1e-8:
        raise StepTooSmall(f"step {h} below 1e-8")
    if h > 1e-4:
        raise StepTooLarge(f"step {h} above 1e-4")


def finite_difference_gradient(config: Configuration, p: Point2, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the objective at p."""
    _check_step(h)
    x, y = p.x, p.y
    gx = (objective(config, [x + h, y]) - objective(config, [x - h, y])) / (2.0 * h)
    gy = (objective(config, [x, y + h]) - objective(config, [x, y - h])) / (2.0 * h)
    return np.array([gx, gy])


def directional_derivative_to_circle(
    circle: Circle, p: Point2, direction: Sequence[float], h: float = 1e-6
) -> float:
    """Central-difference derivative of the circle distance along a direction.

    For p outside the disk this equals the cosine of the angle between the
    negated direction and the segment from p to its projection point.
    """
    _check_step(h)
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    base = p.as_array()

    def dist(t: float) -> float:
        q = base + t * v
        return abs(math.hypot(q[0] - circle.center.x, q[1] - circle.center.y) - circle.radius)

    return (dist(h) - dist(-h)) / (2.0 * h)


def random_floating_config(
    n: int,
    seed: int,
    distance_mode: DistanceMode = DistanceMode.TO_CURVE,
    tolerance: float = 1e-10,
    box: float = 4.0,
    min_separation: float = 1.2,
) -> Configuration:
    """Seeded random floating instance with the point safely outside all disks.

    Rejection-samples centers with a minimum pairwise separation and weights
    with a floating margin, then solves the center problem and sizes radii
    so that circles stay disjoint and the solution point keeps clear of all
    disks. Deterministic for a given (n, seed).
    """
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        centers = _sample_centers(rng, n, box, min_separation)
        weights = rng.uniform(0.5, 1.5, size=n)
        probe = Configuration(
            tuple(Circle(Point2(*c), 1e-6) for c in centers),
            tuple(weights),
            tolerance,
            distance_mode,
        )
        if not classify_case(probe).is_floating:
            continue
        try:
            result = solve(probe)
        except FTCirclesError:
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
            tolerance,
            distance_mode,
        )
    raise RuntimeError(f"no valid floating instance found for n={n}, seed={seed}")


def random_dominated_config(
    n: int,
    seed: int,
    dominant: int = 0,
    radius: float = 1e-4,
    distance_mode: DistanceMode = DistanceMode.TO_CURVE,
) -> Configuration:
    """Seeded instance whose dominant weight absorbs the solution.

    The dominant weight exceeds the sum of all others, which bounds the pull
    at its center below its own weight. Radii are small so the whole disk of
    the absorbing circle stays within oracle tolerance of its center.
    """
    rng = np.random.default_rng(seed)
    centers = _sample_centers(rng, n, 4.0, 1.2)
    weights = rng.uniform(0.5, 1.5, size=n)
    weights[dominant] = weights.sum() - weights[dominant] + rng.uniform(0.5, 1.5)
    return Configuration(
        tuple(Circle(Point2(*c), radius) for c in centers),
        tuple(float(w) for w in weights),
        1e-10,
        distance_mode,
    )


def regular_polygon_config(
    n: int,
    circumradius: float = 2.0,
    weight: float = 1.0,
    radius: float = 0.2,
    distance_mode: DistanceMode = DistanceMode.TO_CURVE,
) -> Configuration:
    """Equal-weight circles centered at the vertices of a regular n-gon."""
    circles = []
    for k in range(n):
        ang = math.pi / 2.0 + 2.0 * math.pi * k / n
        circles.append(
            Circle(
                Point2(circumradius * math.cos(ang), circumradius * math.sin(ang)),
                radius,
            )
        )
    return Configuration(tuple(circles), tuple([weight] * n), 1e-10, distance_mode)


def _sample_centers(rng, n: int, box: float, min_separation: float) -> np.ndarray:
    for _ in range(5000):
        pts = rng.uniform(0.0, box, size=(n, 2))
        if pair_distances(pts).min() >= min_separation:
            return pts
    raise RuntimeError("center sampling failed; box too tight for the separation")
