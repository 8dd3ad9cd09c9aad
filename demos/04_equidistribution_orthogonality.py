#!/usr/bin/env python3
"""Shadow-partition weights, equidistribution, and Schur-type averages.

On the tree the greedy shadow partition reproduces coarse rectangle
masses EXACTLY once the shadows are deeper than the observable, so the
equidistribution error is probed one level below the stems, where it
decays at rate log(3) per unit radius.  The orthogonality functional is
summed exactly over coefficient classes, which keeps radii like R = 120
cheap; its 1/R coefficient corrections are visible at small R.
"""

import math
from fractions import Fraction

from freeboundary import (
    Cylinder,
    GroupContext,
    MetricSpec,
    PairStepFunction,
    StepFunction,
    TestFunction,
    build_partition_weights,
    check_shadow_cover,
    equidistribution_error,
    max_uniform_rectangle_error,
    orthogonality_target,
    phi_r,
    ps_measure,
    sphere_weights,
)

ctx = GroupContext(MetricSpec.word(2))
mu = ps_measure(ctx)

print("== the double shadows cover once rho >= 1 ==")
for rho in (0, 1):
    rep = check_shadow_cover(6, GroupContext(MetricSpec.word(2), rho=rho))
    print(f"rho={rho}: covered={rep.covered}" + (f", witness {rep.witness}" if rep.witness else ""))

print("\n== greedy partition weights: exact masses summing to 1 ==")
F = PairStepFunction.rectangle(Cylinder.from_str("a"), Cylinder.from_str("b"), 2)
for R in (4, 6, 8, 10):
    wf = build_partition_weights(R, ctx)
    err = equidistribution_error(F, wf)
    probe = max_uniform_rectangle_error(wf, R // 2)
    print(
        f"R={R}: support {wf.support_size()}/{wf.annulus_size}, total {wf.total()}, "
        f"err(C_a x C_b) = {float(err):.6f}, probe error = {float(probe):.3g}"
    )
print("(coarse rectangles are exact from R=6 on; the probe shows the true decay)")

print("\n== orthogonality of normalized coefficient averages ==")
one = StepFunction.constant(Fraction(1), 2)
ca = StepFunction.indicator("a", 2)
cb = StepFunction.indicator("b", 2)
f1 = f2 = TestFunction.one(2)
target = orthogonality_target(f1, f2, ca, ca, one, one, mu)
print(f"diagonal case, target <1_Ca,1_Ca> = {target}")
for n in (6, 12, 48, 120):
    val = phi_r(f1, f2, ca, ca, one, one, sphere_weights(n, ctx))
    print(f"  Phi_{n} = {float(val):.6f}  rel err {abs(float(val) - 0.25) / 0.25:.3f}")
orth = phi_r(f1, f2, ca, cb, one, one, sphere_weights(12, ctx))
print(f"orthogonal case at n=12: |Phi| = {abs(float(orth)):.5f} -> 0")
