#!/usr/bin/env python3
"""Conformal measures on the tree boundary: word, weighted, Green.

The word-metric measure is exactly rational; letter-weighted metrics go
through the transfer-matrix construction (critical exponent = the root
of a Perron condition); the conformality identity and Ahlfors profile
are checked by direct computation.
"""

import math
from fractions import Fraction

from freeboundary import (
    Cylinder,
    GroupContext,
    MetricSpec,
    ReducedWord,
    ahlfors_profile,
    critical_exponent,
    cylinder_image,
    ps_measure,
    rn_derivative,
    rn_integral,
)

W = ReducedWord.from_str
C = Cylinder.from_str

print("== word metric: exact rational measure ==")
ctx = GroupContext(MetricSpec.word(2))
mu = ps_measure(ctx)
for stem in ("e", "a", "ab", "aba"):
    print(f"mass(C_{stem}) = {mu.mass(C(stem))}")

print("\n== conformality: pushforward ratio equals omega^(2(g,xi)-|g|) ==")
g = W("a")
for stem in ("ab", "ba", "Ab"):
    cyl = C(stem)
    u, complemented = cylinder_image((~g).letters, cyl.stem)  # g^-1 C is C_u or its complement
    image_mass = 1 - mu.mass(Cylinder(u)) if complemented else mu.mass(Cylinder(u))
    ratio = image_mass / mu.mass(cyl)
    print(f"g=a, C_{stem}: ratio {ratio} = rn {rn_derivative(g, cyl, mu)}")
print(f"integral of rn(ab, .) dmu = {rn_integral(W('ab'), mu)} (exactly 1)")

print("\n== weighted metric (lengths 1, 2): Perron construction ==")
metric = MetricSpec.weighted(2, [1, 2])
alpha, _ = critical_exponent(metric)
x = math.exp(-alpha)
print(f"alpha = {alpha:.12f}, e^-alpha = {x:.10f}")
print(f"cubic residual 3x^3+x^2+x-1 = {3*x**3 + x**2 + x - 1:.2e}")
muw = ps_measure(GroupContext(metric))
print(f"mass(C_a) = {muw.mass(C('a')):.10f}, mass(C_b) = {muw.mass(C('b')):.10f}")
print(f"conformality residual at g=ab: {abs(rn_integral(W('ab'), muw) - 1):.2e}")

print("\n== Ahlfors regularity: mass(ball)/r^D in a fixed bracket ==")
report = ahlfors_profile(mu, range(0, 7))
for row in report.rows:
    print(f"depth {row.depth}: ratios in [{row.min_ratio:.6f}, {row.max_ratio:.6f}]")
print(f"bracket stable across depths: {report.passed}")
