"""Independent brute-force verification and random instance generation.

The oracle minimizer never touches the solver: it evaluates the objective
on a fixed 64 x 64 grid over the inflated bounding box of the centers, then
zooms in on the best point with ever smaller grids. Grid values come from
square roots of offsets scaled by a power of two, and no gradients are used.
Instance generators are seeded and reject configurations that violate
non-overlap, the floating condition, or the point-outside-disks assumption.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import FTCirclesError, InvalidConfiguration
from .geometry import (
    Circle,
    Configuration,
    DistanceMode,
    Point2,
    pair_distances,
)
from .solver import solve

# The coarse grid has _GRID_POINTS per side. Each zoom grid has
# _ZOOM_POINTS per side and spans +-_ZOOM_CELLS cells of the previous grid
# around the best point; the window shrinks by _ZOOM_SHRINK per round and the
# zoom stops once its half-width is below _ZOOM_STOP times the box size, which
# takes 15 rounds, or after _ZOOM_ROUNDS rounds, once that product underflows
# to 0. 17 points over +-2 cells shrink 4x per round, so each grid's spacing
# is the next window's half-width over two.
_GRID_POINTS = 64
_ZOOM_ROUNDS = 40
_ZOOM_POINTS = 17
_ZOOM_CELLS = 2.0
_ZOOM_SHRINK = 4.0
_ZOOM_STOP = 1e-10


def objective(config: Configuration, points) -> np.ndarray | float:
    """Exact objective ``sum_i w_i d(p, circle_i)`` at one or many points."""
    pts = np.asarray(points, dtype=float)
    many = np.atleast_2d(pts)
    centers = config.centers_array()
    gap = np.hypot(many[:, 0:1] - centers[:, 0], many[:, 1:2] - centers[:, 1])
    gap -= config.radii_array()
    dist = np.abs(gap) if config.distance_mode is DistanceMode.TO_CURVE else np.maximum(gap, 0.0)
    vals = dist @ config.weights_array()
    return float(vals[0]) if pts.ndim == 1 else vals


def oracle_minimize(config: Configuration) -> Point2:
    """Coarse grid search plus grid zoom on objective values.

    The coarse grid has 64 points per side over the bounding box of the
    centers inflated by the largest radius plus 1e-6 times the box's larger
    side; in curve mode grid points strictly inside a disk are excluded.
    Each zoom round re-grids a window of a few cells around the best point
    seen and shrinks the window 4x, until its half-width falls below
    ``1e-10`` times the box size (15 rounds) or 40 rounds have run. Grid
    values come from square roots of offsets scaled by a power of two (see
    ``_best_on_grid``), never from a gradient, and the best point seen is
    returned.
    """
    centers = config.centers_array()
    radii = config.radii_array()
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    # relative to the scene's size, so a scaled scene gets the scaled box
    pad = float(radii.max()) + 1e-6 * float((hi - lo).max())
    lo, hi = lo - pad, hi + pad
    size = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    # 2**-e with 2**e the power of two of the box size: scaling by it is
    # exact; below a box of 2**-1023 the scale stays 2**1023, the largest
    # power of two
    scale = math.ldexp(1.0, min(-math.frexp(size)[1], 1023))
    disks = (
        centers[:, 0],
        centers[:, 1],
        radii * scale,
        config.weights_array(),
        config.distance_mode is DistanceMode.TO_CURVE,
        scale,
    )
    bx, by, best_val = _best_on_grid(
        np.linspace(lo[0], hi[0], _GRID_POINTS), np.linspace(lo[1], hi[1], _GRID_POINTS), disks
    )
    half = _ZOOM_CELLS * size / (_GRID_POINTS - 1)
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    for _ in range(_ZOOM_ROUNDS):
        if half < _ZOOM_STOP * size:
            break
        x, y, val = _best_on_grid(bx + half * offsets, by + half * offsets, disks)
        if val < best_val:
            bx, by, best_val = x, y, val
        half /= _ZOOM_SHRINK
    return Point2(float(bx), float(by))


def _best_on_grid(xs: np.ndarray, ys: np.ndarray, disks) -> tuple[float, float, float]:
    """Best point of the grid ``xs`` x ``ys``, and its value times ``scale``.

    ``disks`` is ``(cx, cy, radii, weights, curve, scale)``: the radii are
    already multiplied by ``scale``, a power of two, and curve is true in
    curve mode. A distance is ``sqrt(dx'**2 + dy'**2)`` with
    ``dx' = (x - cx) scale``; the box is below ``1 / scale`` on a side, so
    at any coordinate scale no square overflows and only an offset below
    about 1e-154 of the box underflows, far below the rounding of the sum.
    Every value is the weighted sum times exactly ``scale``, which keeps
    the argmin. The gaps are laid out ``(n, ny, nx)``, so column k of the
    product is the point ``(xs[k % nx], ys[k // nx])``. Set mode clips the
    gaps at 0; curve mode reads +inf at a point strictly inside a disk.
    """
    cx, cy, radii, weights, curve, scale = disks
    dx2 = np.square((xs - cx[:, None]) * scale)
    dy2 = np.square((ys - cy[:, None]) * scale)
    buf = dy2[:, :, None] + dx2[:, None, :]
    np.sqrt(buf, out=buf)
    buf -= radii[:, None, None]
    gaps = buf.reshape(len(cx), -1)
    if curve:
        vals = weights @ gaps
        vals[gaps.min(axis=0) < 0.0] = np.inf
    else:
        vals = weights @ np.maximum(gaps, 0.0, out=gaps)
    k = int(vals.argmin())
    return xs[k % len(xs)], ys[k // len(xs)], float(vals[k])


def random_floating_config(n: int, seed: int) -> Configuration:
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
        probe = Configuration(tuple(Circle(Point2(*c), 1e-6) for c in centers), tuple(weights))
        try:
            result = solve(probe)
        except FTCirclesError:
            continue
        if not result.case.is_floating:
            continue
        p = result.point.as_array()
        # floored to a 2**-20 grid, so a last-bit change in the solver's
        # point does not move the radii
        dist_to_p = np.floor(np.linalg.norm(centers - p, axis=1) * 2**20) / 2**20
        if dist_to_p.min() < 0.15:
            continue
        caps = np.minimum(0.45 * pair_distances(centers).min(axis=1), 0.6 * dist_to_p)
        if caps.min() <= 1e-3:
            continue
        radii = caps * rng.uniform(0.3, 0.9, size=n)
        return replace(
            probe, circles=tuple(Circle(Point2(*c), float(r)) for c, r in zip(centers, radii))
        )
    raise RuntimeError(f"no valid floating instance found for n={n}, seed={seed}")


def random_dominated_config(n: int, seed: int, dominant: int = 0) -> Configuration:
    """Seeded instance whose dominant weight absorbs the solution.

    The dominant weight exceeds the sum of all others, which bounds the pull
    at its center below its own weight. Every radius is 1e-4, so the whole
    disk of the absorbing circle stays within oracle tolerance of its center.
    Raises InvalidConfiguration for n < 3 or a ``dominant`` outside 0..n-1.
    """
    # n < 3 is rejected by _sample_centers, with Configuration's message
    if n >= 3 and not 0 <= dominant < n:
        raise InvalidConfiguration(f"dominant must be a circle index in 0..{n - 1}, got {dominant}")
    rng = np.random.default_rng(seed)
    centers = _sample_centers(rng, n)
    weights = rng.uniform(0.5, 1.5, size=n)
    weights[dominant] = weights.sum() - weights[dominant] + rng.uniform(0.5, 1.5)
    return Configuration(
        tuple(Circle(Point2(*c), 1e-4) for c in centers),
        tuple(float(w) for w in weights),
    )


def regular_polygon_config(
    n: int, circumradius: float = 2.0, radius: float = 0.2
) -> Configuration:
    """Unit-weight circles centered at the vertices of a regular n-gon.

    Neighbouring centers are ``2 circumradius sin(pi/n)`` apart, so the
    default circumradius 2 with radius 0.2 fits n <= 31 only; from n = 32 up
    it raises ``InvalidConfiguration`` (circles 0 and 1 overlap or touch).
    """
    circles = []
    for k in range(n):
        ang = math.pi / 2.0 + 2.0 * math.pi * k / n
        circles.append(
            Circle(
                Point2(circumradius * math.cos(ang), circumradius * math.sin(ang)),
                radius,
            )
        )
    return Configuration(tuple(circles), tuple([1.0] * n))


def _sample_centers(rng, n: int) -> np.ndarray:
    """n centers in the square [0, s]^2, every pair at least 1.2 apart.

    s is 4 up to n = 7 and 0.65 n above. A side proportional to n keeps
    the expected number of pairs closer than 1.2 in one draw constant, and
    0.65 n accepts a draw more often than the side 4 does at n = 7.
    Raises InvalidConfiguration for n < 3, before any draw.
    """
    if n < 3:
        raise InvalidConfiguration(f"need at least 3 circles, got {n}")
    side = 4.0 if n <= 7 else 0.65 * n
    for _ in range(5000):
        pts = rng.uniform(0.0, side, size=(n, 2))
        if pair_distances(pts).min() >= 1.2:
            return pts
    raise RuntimeError("center sampling failed; box too tight for the separation")
