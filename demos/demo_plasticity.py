#!/usr/bin/env python3
"""Dynamic plasticity walkthrough: the weight family behind one geometry.

With four or more circles the angles no longer pin the weights down: a
whole family of weight vectors shares the same solution point. We sweep the
family, show the transfer coefficients that parametrize it, and check the
sign pattern of the response.
"""

import numpy as np

from ftcircles import (
    SectorAngles,
    TriangleRatios,
    cosine_residuals,
    cosine_system_weights,
    plasticity_n,
    random_floating_config,
    solve,
    transfer_coefficients,
)

config = random_floating_config(4, seed=7)
result = solve(config)
angles = SectorAngles.from_result(result)
w = config.weights_array()
print("instance weights:", np.round(w, 6), " total:", round(float(w.sum()), 6))

print()
print("=" * 72)
print("1. Recovery with the true free ratio")
print("=" * 72)
out = plasticity_n(angles, [w[3] / w[0]], total=float(w.sum()))
print("recovered:", np.round(out, 9))
print(f"max error: {np.max(np.abs(out - w)):.2e}")

print()
print("=" * 72)
print("2. The one-parameter family at fixed total")
print("=" * 72)
print("   rho = w4/w1      w1        w2        w3        w4   max cosine residual")
for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
    member = plasticity_n(angles, [rho], total=1.0)
    res = np.max(np.abs(cosine_residuals(angles.azimuths, member)))
    print(f"   {rho:8.2f}   " + "  ".join(f"{x:8.5f}" for x in member) + f"   {res:.1e}")
print("every member satisfies the equilibrium equations at the same point:")
print("that non-uniqueness is the dynamic plasticity of the configuration")

print()
print("=" * 72)
print("3. Minimum-norm member from the cosine system")
print("=" * 72)
member = cosine_system_weights(angles)
print("minimum-norm member:", np.round(member, 9))
again = plasticity_n(angles, [member[3] / member[0]], total=1.0)
print(f"family reproduces it: max gap {np.max(np.abs(again - member)):.2e}")

print()
print("=" * 72)
print("4. Transfer coefficients and their signs")
print("=" * 72)
coeffs = transfer_coefficients(TriangleRatios.from_angles(angles), n=4, total=float(w.sum()))
print("response of (w1, w2, w3) to the free weight w4:")
for i in range(3):
    print(f"  d w{i + 1} / d w4 = {coeffs.a[i, 0]:+.6f}")
print("under the interior/exterior hypotheses the pattern is (-, +, -):")
print("raising one weight lowers its angular neighbors and raises the opposite one")
