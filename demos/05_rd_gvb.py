#!/usr/bin/env python3
"""Annular rapid decay and the failure of the good vector bound.

The sphere sums of squared coefficients of the constant vector grow like
(n+2)^2/3: bounded after the (1+n)^2 normalization (the annular RD
bound is saturated up to a constant) and unbounded without it, which is
the computational form of the monotony verdict.
"""

from fractions import Fraction

from freeboundary import (
    GroupContext,
    MetricSpec,
    ReducedWord,
    StepFunction,
    annular_rd_ratio,
    convolve,
    enumerate_sphere,
    fiber_size_report,
    gvb_growth,
    ps_measure,
    sphere_sum_sq,
)

W = ReducedWord.from_str
ctx = GroupContext(MetricSpec.word(2))
mu = ps_measure(ctx)
one = StepFunction.constant(Fraction(1), 2)

print("== annular RD ratios r_n = sqrt(sum |<pi(g)1,1>|^2) / (1+n) ==")
for n in (1, 2, 4, 8, 14):
    print(f"r_{n} = {annular_rd_ratio(one, one, n, mu, ctx):.6f}  "
          f"(sum exactly {sphere_sum_sq(one, one, n, mu, ctx)})")

print("\n== convolution stays controlled on annuli ==")
s1 = {g: Fraction(1) for g in enumerate_sphere(1, ctx.metric)}
c = convolve(s1, s1)
print(f"1_S1 * 1_S1 = 4 delta_e + 1_S2 (support {len(c)}), ||.||_2^2 = "
      f"{sum(v * v for v in c.values())}")
fibers = fiber_size_report(4, 2)
print(f"fibers (class census to R,R'<=4): extremal size 1 = {fibers.extremal_ok}, "
      f"max by defect {fibers.max_by_defect}")

print("\n== good vector bound fails: q_n unbounded with exponent ~ 2 ==")
report = gvb_growth(one, one, list(range(4, 15)), ctx, mu)
for i, n in enumerate(report.grid):
    if n in (4, 8, 14):
        print(f"q_{n} = {report.values_exact[i]}, q_n/((1+n)^2) = {report.extras['ratio'][i]:.4f}")
print(f"fitted growth exponent {report.fitted_exponent:.4f} (r2 {report.fit_r2:.5f})")
print(f"verdict: {report.verdict}")
