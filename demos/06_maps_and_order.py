"""Unital positive maps and when they preserve the power-mean order.

Two contrasting facts, both checked numerically here:

* maps with a 2x2 domain always preserve the order phi(A^p)^(1/p) <=
  phi(A^q)^(1/q) for p <= q, because phi(A^s) is an affine function of
  phi(A) in that dimension;
* maps from 3x3 down to 2x2 already break it outside the sufficiency
  region: a rotated pinching reproduces the counterexample families.
"""

import numpy as np

from powmean import (
    apply_power_affine_2x2,
    loewner_leq,
    map_power,
    mat_fun,
    Power,
    random_kraus_map,
    random_pd,
    rotated_pinch,
)

rng = np.random.default_rng(7)

print("order preservation from a 2x2 domain (200 random unital CP maps):")
worst = np.inf
for _ in range(200):
    phi = random_kraus_map(2, int(rng.integers(2, 5)), int(rng.integers(2**63)))
    a = random_pd(2, int(rng.integers(2**63)), 10.0)
    u, v = sorted(rng.uniform(-3.0, 3.0, size=2))
    if v - u < 1e-6:
        continue
    verdict = loewner_leq(map_power(phi, u, a), map_power(phi, v, a))
    worst = min(worst, verdict.min_eigenvalue)
    assert verdict.holds
print("  all verdicts hold; most negative eigenvalue seen: %.2e" % worst)

print("\nthe affine identity behind it, phi(A^p) = c1 phi(A) - c0 I:")
phi = random_kraus_map(2, 3, 11)
a = np.diag([4.0, 1.0])
direct = phi.apply(mat_fun(a, Power(2.0)))
affine = apply_power_affine_2x2(phi, 2.0, a)
print("  A = diag(4, 1), p = 2: c1 = 5, c0 = 4")
print("  |affine - direct| =", np.abs(affine - direct).max())

print("\na rotated pinching from 3x3 to 2x2 breaks the order outside the")
print("sufficiency region: with Z = diag(1, x, y) it reproduces the")
print("two-matrix mean of diag(1, x) and the rotated diag(1, y).")
theta, x, y = 0.1, 0.0625, 0.0625**2
pinch = rotated_pinch((0, 1), (0, 2), theta)
z = np.diag([1.0, x, y])
low = map_power(pinch, 0.25, z)
high = map_power(pinch, 1.0, z)
verdict = loewner_leq(low, high)
print("  p = 0.25, q = 1, x = %g: order holds? %s   min eigenvalue %.3e"
      % (x, verdict.holds, verdict.min_eigenvalue))
print("  witness vector:", verdict.witness)
