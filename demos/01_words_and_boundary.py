#!/usr/bin/env python3
"""Free-group arithmetic, invariant metrics, and the tree boundary.

Every Gromov product on the tree is a common-prefix length, every visual
ball is a cylinder, and every double shadow is a cylinder rectangle, so
the usual coarse-geometry inequalities print here as exact identities.
"""

from fractions import Fraction

from freeboundary import (
    BoundaryPoint,
    Cylinder,
    GroupContext,
    MetricSpec,
    ReducedWord,
    boundary_gromov,
    cylinder_image,
    gromov_product,
    hat_projection,
    metric_length,
    shadow_pair,
    sphere_size,
    translation_length,
    visual_distance,
)

W = ReducedWord.from_str

print("== group arithmetic ==")
u, v = W("ab"), W("Ba")
print(f"ab * Ba = {u * v}")
print(f"(ab)^-1 = {~u},   ab * (ab)^-1 = {u * ~u}")

word = MetricSpec.word(2)
weighted = MetricSpec.weighted(2, [1, 2])
print("\n== metrics from the admissible class ==")
print(f"|abab|_word = {metric_length(W('abab'), word)}")
print(f"|abab|_weighted(1,2) = {metric_length(W('abab'), weighted)}")
print(f"(ab, aB) at the identity = {gromov_product(W('ab'), W('aB'), word)} (common prefix 'a')")
print(f"translation length of aba^-1: {translation_length(W('abA'), word)} (cyclic core 'b')")

print("\n== spheres ==")
for n in range(5):
    print(f"|S_{n}| = {sphere_size(n, 2)}")

print("\n== boundary points (eventually periodic, canonical form) ==")
xi = BoundaryPoint.from_str("ab|b")
eta = hat_projection(W("ab"))
print(f"hat(ab) = {eta}, equal to ab|b: {xi == eta}")
print(f"(ab.b^inf, a.b^-1... ) visual distance:",
      visual_distance(xi, BoundaryPoint.from_str("aB|a"), GroupContext(word)))
print(f"(xi, xi) = {boundary_gromov(xi, xi, word)}")

print("\n== the group moves cylinders around ==")
for g, stem in (("a", "A"), ("a", "b")):
    u, complemented = cylinder_image(W(g).letters, Cylinder.from_str(stem).stem)
    print(f"{g} . C_{stem} = {'complement of ' if complemented else ''}{Cylinder(u)}")

print("\n== double shadows are cylinder rectangles ==")
ctx0 = GroupContext(word, rho=0)
for g in ("abab", "aa", "e"):
    rect = shadow_pair(W(g), ctx0)
    print(f"Sigma^2({g}, rho=0) = {rect}")
