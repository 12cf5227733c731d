"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from ftcircles import Circle, Configuration, DegenerateAngle, DistanceMode, Point2, objective
from ftcircles import project_onto_circle  # noqa: F401 (imported from here with angle_at)
from ftcircles.geometry import COINCIDENT_EPS


EQUILATERAL_CIRCUMRADIUS = 1.0 / math.sqrt(3.0)  # unit side length


@pytest.fixture
def equilateral_config():
    """Equilateral triangle of side 1, equal weights, radii 0.1."""
    circles = []
    for k in range(3):
        ang = math.pi / 2.0 + 2.0 * math.pi * k / 3.0
        circles.append(
            Circle(
                Point2(
                    EQUILATERAL_CIRCUMRADIUS * math.cos(ang),
                    EQUILATERAL_CIRCUMRADIUS * math.sin(ang),
                ),
                0.1,
            )
        )
    return Configuration(tuple(circles), (1.0, 1.0, 1.0))


def triangle_config(weights=(1.0, 1.0, 1.0), radii=(0.2, 0.2, 0.2)):
    """Fixed scalene triangle of centers with chosen weights and radii."""
    centers = [Point2(0.0, 0.0), Point2(3.0, 0.2), Point2(1.2, 2.6)]
    circles = tuple(Circle(c, r) for c, r in zip(centers, radii))
    return Configuration(circles, tuple(weights))


def assert_close(a, b, tol, label=""):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = float(np.max(np.abs(a - b)))
    assert gap <= tol, f"{label} differs by {gap:.3e} > {tol:.1e}: {a} vs {b}"


# Independent per-point references the vectorized library code is compared against.


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


# Central differences with step 1e-6, the reference for the gradient and
# the first-variation identity of segment lengths.
STEP = 1e-6


def finite_difference_gradient(config: Configuration, p: Point2) -> np.ndarray:
    """Central-difference gradient of the objective at p."""
    x, y = p.x, p.y
    gx = (objective(config, [x + STEP, y]) - objective(config, [x - STEP, y])) / (2.0 * STEP)
    gy = (objective(config, [x, y + STEP]) - objective(config, [x, y - STEP])) / (2.0 * STEP)
    return np.array([gx, gy])


def directional_derivative_to_circle(circle: Circle, p: Point2, direction) -> float:
    """Central-difference derivative of the distance from p to the circle along a unit direction.

    For p outside the disk this equals the cosine of the angle between the
    negated direction and the segment from p to its projection point.
    """
    vx, vy = direction

    def dist(t: float) -> float:
        return abs(
            math.hypot(p.x + t * vx - circle.center.x, p.y + t * vy - circle.center.y)
            - circle.radius
        )

    return (dist(STEP) - dist(-STEP)) / (2.0 * STEP)
