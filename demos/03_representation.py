#!/usr/bin/env python3
"""The boundary representation with exact matrix coefficients.

Coefficients of step vectors live in Q(sqrt(3)) for the rank-2 word
metric; unitarity, the Harish-Chandra normalization, and the pointwise
limit of normalized coefficients all print exactly.
"""

from fractions import Fraction

from freeboundary import (
    GroupContext,
    MetricSpec,
    ReducedWord,
    StepFunction,
    apply_pi,
    harish_chandra_length,
    inner_product,
    lipschitz_gap,
    matrix_coefficient,
    norm_sq,
    normalized_coefficient,
    ps_measure,
)

W = ReducedWord.from_str
ctx = GroupContext(MetricSpec.word(2))
mu = ps_measure(ctx)
one = StepFunction.constant(Fraction(1), 2)
ca = StepFunction.indicator("a", 2)
cb = StepFunction.indicator("b", 2)

print("== the action twists by sqrt of the Radon-Nikodym derivative ==")
image = apply_pi(W("a"), one, mu)
for cyl, val in image.cells:
    print(f"  [pi(a)1]({cyl}) = {val}")
print(f"||pi(a)1||^2 = {norm_sq(image, mu)} (unitary)")

print("\n== matrix coefficients, exactly ==")
print(f"<pi(a) 1_Cb, 1> = {matrix_coefficient(W('a'), cb, one, mu)}")
print(f"<pi(a) 1_Cb, 1_Cb> = {matrix_coefficient(W('a'), cb, cb, mu)} (disjoint supports)")
print(f"<1_Ca, 1_Ca> = {inner_product(ca, ca, mu)}")

print("\n== Harish-Chandra function: Xi(n) = 3^(-n/2) (n+2)/2 ==")
for n in range(6):
    xi = harish_chandra_length(n, mu)
    print(f"Xi({n}) = {xi}  ~ {float(xi):.6f}")

print("\n== normalized coefficients converge to boundary values ==")
print(f"<pi~(a) 1_Cb, 1> = {normalized_coefficient(W('a'), cb, one, mu)}")
for n in (3, 6, 12):
    g = W("a" + "b" * (n - 1))
    gap = lipschitz_gap(g, ca, ca, mu)
    print(f"gap at |g| = {n}: {gap:.6f}  (decays like (1+n)^(-1/D))")
