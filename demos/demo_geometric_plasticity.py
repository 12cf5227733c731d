#!/usr/bin/env python3
"""Geometric plasticity walkthrough: radial moves preserve the point.

Sliding every circle along its ray from the solution point (or resizing
radii) leaves the solution point exactly where it was, because the
equilibrium depends only on ray directions. Tangential moves break it.
"""

import numpy as np

from ftcircles import (
    Circle,
    Configuration,
    Point2,
    random_floating_config,
    shifted_configuration,
    solve,
    verify_geometric_plasticity,
)

config = random_floating_config(4, seed=14)
base = solve(config)
print(f"base point: ({base.point.x:.9f}, {base.point.y:.9f})")

print()
print("=" * 72)
print("1. Radial shifts: the point stays put")
print("=" * 72)
rng = np.random.default_rng(1)
for trial in range(4):
    shifts = rng.uniform(-0.05, 0.2, size=4)
    shifted = shifted_configuration(config, shifts)
    moved = solve(shifted)
    gap = moved.point.distance_to(base.point)
    print(f"  shifts {np.round(shifts, 3)} -> |P' - P| = {gap:.2e}")
print("holds:", verify_geometric_plasticity(config, [0.1, -0.02, 0.05, 0.15]))

print()
print("=" * 72)
print("2. Radius changes are radial moves of the projection points")
print("=" * 72)
halved = [0.5 * c.radius for c in config.circles]
print("halving all radii, zero center shifts ->",
      "holds:" , verify_geometric_plasticity(config, [0.0] * 4, new_radii=halved))

print()
print("=" * 72)
print("3. A tangential shift moves the point")
print("=" * 72)
p = base.point.as_array()
circles = list(config.circles)
c0 = circles[0]
v = c0.center.as_array() - p
v /= np.linalg.norm(v)
perp = np.array([-v[1], v[0]])
circles[0] = Circle(Point2.from_array(c0.center.as_array() + 0.4 * perp), c0.radius)
moved = solve(Configuration(tuple(circles), config.weights))
print(f"perpendicular center move of 0.4 -> |P' - P| = "
      f"{moved.point.distance_to(base.point):.6f}")
print("the invariance is specific to radial motion")
