#!/usr/bin/env python3
"""Oracle walkthrough: brute force versus the solver.

The oracle knows nothing about equilibria: it grids the plane, excludes
disk interiors, and zooms in on the best grid point with ever finer grids,
using objective values only. Agreement with the solver is the ground-truth
check used throughout the test suite.
"""

import numpy as np

from ftcircles import (
    finite_difference_gradient,
    oracle_minimize,
    random_dominated_config,
    random_floating_config,
    solve,
)

print("=" * 72)
print("1. Floating instances, n = 3..6")
print("=" * 72)
for n in (3, 4, 5, 6):
    config = random_floating_config(n, seed=n)
    solved = solve(config)
    brute = oracle_minimize(config)
    print(f"  n={n}: solver ({solved.point.x:+.8f}, {solved.point.y:+.8f})  "
          f"gap to oracle {solved.point.distance_to(brute):.2e}")

print()
print("=" * 72)
print("2. Gradient check at the solution")
print("=" * 72)
config = random_floating_config(4, seed=11)
result = solve(config)
g = finite_difference_gradient(config, result.point)
print(f"finite-difference gradient at P: ({g[0]:+.2e}, {g[1]:+.2e}), "
      f"norm {np.linalg.norm(g):.2e}")

print()
print("=" * 72)
print("3. Absorbed instance: the oracle lands on the dominating circle")
print("=" * 72)
config = random_dominated_config(4, seed=2, dominant=1)
brute = oracle_minimize(config)
center = config.circles[1].center
print(f"dominating center: ({center.x:.6f}, {center.y:.6f})")
print(f"oracle minimizer:  ({brute.x:.6f}, {brute.y:.6f})")
print(f"distance: {brute.distance_to(center):.2e} (within the tiny disk radius)")
