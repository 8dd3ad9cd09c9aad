#!/usr/bin/env python3
"""Random walks, first-passage probabilities, and harmonic measure.

The first-passage system solves exactly for the uniform walk (f = 1/3 on
the rank-2 tree); the Green metric has critical exponent exactly 1, and
its conformal measure reproduces the walk's exit distribution, checked
against seeded Monte-Carlo trajectories.
"""

import math
from fractions import Fraction

from freeboundary import (
    Cylinder,
    GroupContext,
    MetricSpec,
    ReducedWord,
    WalkSpec,
    critical_exponent,
    green_metric_of_walk,
    harmonic_mass_mc,
    mc_first_passage,
    ps_measure,
    solve_first_passage,
)

W = ReducedWord.from_str
a, b = W("ab").letters  # the letter codes of a and b

print("== uniform walk on F_2: exact rational first passage ==")
walk = WalkSpec.simple(2)
fp = solve_first_passage(walk)
print(f"f = {fp.values[a]} (exact: {fp.exact}, {fp.iterations} iterations)")
metric = green_metric_of_walk(walk)
print(f"Green lengths: {tuple(round(l, 12) for l in metric.lengths)}  (log 3 = {math.log(3):.12f})")
alpha, _ = critical_exponent(metric)
print(f"Green-metric critical exponent: {alpha:.14f} (exactly 1 in the limit)")

print("\n== harmonic measure = conformal measure of the Green metric ==")
mu = ps_measure(GroupContext(metric))
for stem in ("a", "ab"):
    est = harmonic_mass_mc(walk, Cylinder.from_str(stem), 100_000, seed=0)
    print(
        f"C_{stem}: MC {est.estimate:.5f} +- {est.halfwidth:.5f}  vs exact "
        f"{float(mu.mass(Cylinder.from_str(stem))):.5f}"
    )

print("\n== first passage multiplies along geodesics (Ancona constant 1) ==")
for gs in ("ab", "abA"):
    g = W(gs)
    est = mc_first_passage(walk, g, 50_000, seed=2)
    product = float(fp.values[a]) ** len(g)
    print(f"F(e, {gs}): MC {est.estimate:.5f} +- {est.halfwidth:.5f}  vs product {product:.5f}")

print("\n== an asymmetric walk ==")
walk2 = WalkSpec.from_generator_probs([Fraction(3, 8), Fraction(1, 8)])
fp2 = solve_first_passage(walk2)
print(f"f_a = {float(fp2.values[a]):.6f} > f_b = {float(fp2.values[b]):.6f}")
metric2 = green_metric_of_walk(walk2)
alpha2, _ = critical_exponent(metric2)
print(f"Green lengths ({metric2.lengths[0]:.6f}, {metric2.lengths[1]:.6f}); alpha = {alpha2:.12f}")
