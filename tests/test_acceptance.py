"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Two criteria are implemented exactly as stated and fail with an exact
certificate; the companion *_supplementary tests demonstrate that the
underlying limit statements do hold:

* Criterion 3 pins a strict error decrease between R=6 and R=12 for
  depth <= 2 rectangle observables under shadow-partition weights.  On
  the tree the greedy shadow partition reproduces every rectangle mass
  of depth up to the shadow-stem depth EXACTLY, and stems have depth
  R/2 - rho >= 2 from R = 6 on, so both errors are exactly 0 and
  "strictly smaller" is unsatisfiable (0 < 0).  The genuine decay lives
  at observables finer than the stems, where the fitted rate is
  log(3) per unit R (faster than the e^(-R/2) reference).

* Criterion 4 demands <= 5% relative error of Phi_R at R = 12 for all
  16 slot combinations drawn from {1, 1_{C_a}}.  The exact value of the
  worst combination (v = w-slot vectors 1_{C_a} twice) is
  Phi_12 = 157/784 against target 1/4: relative error 39/196 ~ 19.9%.
  The coefficient asymptotics carry a 3/(2(n+2)) correction, so 5% for
  every combination first holds near R ~ 120, where the same exact
  computation passes (supplementary test).
"""

import json
import math
import time
from fractions import Fraction

import pytest

from freeboundary import (
    Cylinder,
    GroupContext,
    MetricSpec,
    QSqrt,
    ReducedWord,
    StepFunction,
    TestFunction,
    WalkSpec,
    annular_rd_ratio,
    build_partition_weights,
    critical_exponent,
    enumerate_annulus,
    enumerate_sphere,
    gvb_growth,
    harish_chandra_length,
    max_rectangle_error,
    max_uniform_rectangle_error,
    norm_sq,
    orthogonality_target,
    phi_r,
    phi_r_pairs,
    ps_measure,
    rn_integral,
    solve_first_passage,
    sphere_size,
    sphere_sum_sq,
    sphere_weights,
)
from freeboundary.asymptotics import fit_decay, fiber_size_report, rd_convolution_check
from freeboundary.cli import main as cli_main
from freeboundary.representation import apply_pi

W = ReducedWord.from_str


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ctx():
    return GroupContext(MetricSpec.word(2))


@pytest.fixture(scope="module")
def mu(ctx):
    return ps_measure(ctx)


def test_criterion_1_exact_golden_values(ctx, mu):
    t0 = time.monotonic()
    ok = ctx.omega == 3
    for n in range(11):
        ok = ok and sphere_size(n, 2) == (1 if n == 0 else 4 * 3 ** (n - 1))
    for n in range(9):  # enumeration cross-check where it is instant
        ok = ok and sum(1 for _ in enumerate_sphere(n, ctx.metric)) == sphere_size(n, 2)
    ok = ok and mu.mass(Cylinder.from_str("a")) == Fraction(1, 4)
    ok = ok and mu.mass(Cylinder.from_str("ab")) == Fraction(1, 12)
    ok = ok and harish_chandra_length(0, mu) == 1
    ok = ok and harish_chandra_length(1, mu) == QSqrt(0, Fraction(1, 2), 3)
    ok = ok and harish_chandra_length(2, mu) == Fraction(2, 3)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"omega=3, |S_n|, masses, Xi(0..2) exact; {elapsed:.2f}s < 1s")
    assert ok


def test_criterion_2_unitarity_and_conformality(ctx, mu):
    t0 = time.monotonic()
    vectors = [
        StepFunction.constant(Fraction(1), 2),
        StepFunction.indicator("a", 2),
        StepFunction.from_pairs(
            [("abb", Fraction(3, 2)), ("B", Fraction(-1, 3)), ("Aba", Fraction(2, 5))],
            2,
            constant=Fraction(1, 7),
        ),
    ]
    norms = [norm_sq(v, mu) for v in vectors]
    words = list(enumerate_annulus(3, 3, ctx.metric))
    assert len(words) == 1 + 4 + 12 + 36 + 108 + 324 + 972
    unitary = all(
        norm_sq(apply_pi(g, v, mu), mu) == norms[i]
        for g in words
        for i, v in enumerate(vectors)
    )
    conformal = all(rn_integral(g, mu) == 1 for g in words)
    elapsed = time.monotonic() - t0
    ok = unitary and conformal and elapsed < 10.0
    report(
        2,
        ok,
        f"||pi(g)v|| = ||v|| and integral rn = 1 exactly for all |g|<=6, depth<=3; {elapsed:.1f}s < 10s",
    )
    assert ok


GRID = [4, 6, 8, 10, 12]


@pytest.fixture(scope="module")
def shadow_errors(ctx):
    """Exact depth<=2 errors and fine-scale probe errors per R."""
    errors = {}
    probes = {}
    supports = {}
    for R in GRID:
        weights = build_partition_weights(R, ctx)
        errors[R] = max_rectangle_error(weights, 2)
        probe_depth = R // 2  # one level below the stem depth R/2 - 1 + 1
        probes[R] = max_uniform_rectangle_error(weights, probe_depth)
        supports[R] = (weights.support_size(), weights.annulus_size, weights.max_mass())
    return errors, probes, supports


def test_criterion_3_as_stated(ctx, mu, shadow_errors):
    """Faithful transcription; the strict-decrease and fit clauses cannot
    hold because the errors are exactly zero from R = 6 on (see module
    docstring)."""
    t0 = time.monotonic()
    errors, _, _ = shadow_errors
    clause_small = float(errors[12]) <= 0.02
    clause_strict = errors[12] < errors[6]
    exponent, r2, _ = fit_decay(GRID, [float(errors[R]) for R in GRID])
    clause_fit = r2 is not None and r2 >= 0.9
    elapsed = time.monotonic() - t0
    ok = clause_small and clause_strict and clause_fit
    report(
        3,
        ok,
        f"err(12)={float(errors[12])}<=0.02 [{clause_small}]; "
        f"err(12)<err(6) strictly [{clause_strict}: both exactly {float(errors[6])}]; "
        f"fit r2>=0.9 [{clause_fit}: errors identically zero from R=6, nothing to fit]; "
        f"{elapsed:.0f}s",
    )
    assert clause_small, "absolute error bound failed"
    assert clause_strict, (
        "unattainable as stated: the greedy shadow partition reproduces every "
        f"depth<=2 rectangle mass exactly from R=6 on (err(6)={errors[6]}, "
        f"err(12)={errors[12]}); 0 < 0 is false"
    )
    assert clause_fit, "no positive errors to fit"


def test_criterion_3_supplementary_fine_scale_decay(ctx, mu, shadow_errors):
    """The equidistribution statement itself: probing one level below the
    shadow stems gives strictly positive, strictly decreasing errors with
    a clean exponential fit at least as fast as the e^(-R/2) reference."""
    _, probes, supports = shadow_errors
    vals = [float(probes[R]) for R in GRID]
    assert all(v > 0 for v in vals)
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    exponent, r2, _ = fit_decay(GRID, vals)
    assert r2 is not None and r2 >= 0.9
    assert exponent >= float(ctx.epsilon) / 2
    # Theorem condition (3): max mass * |A_R| stays bounded (measured C)
    cs = [float(supports[R][2] * supports[R][1]) for R in GRID]
    assert max(cs) <= 8.0
    report(
        3,
        True,
        f"(supplementary) probe errors decrease {vals[0]:.3g} -> {vals[-1]:.3g}, "
        f"fit exponent {exponent:.3f} >= 0.5 with r2 {r2:.4f}; max mass*|A_R| = {max(cs):.3f}",
    )


def _vector_menu():
    return {
        "1": StepFunction.constant(Fraction(1), 2),
        "1_Ca": StepFunction.indicator("a", 2),
    }


def test_criterion_4_as_stated(ctx, mu):
    """Faithful transcription at R = 12: seven combinations exceed 5%
    because the coefficient correction 3/(2(n+2)) is ~ 10% there (see
    module docstring for the exact worst value 157/784 vs 1/4)."""
    t0 = time.monotonic()
    menu = _vector_menu()
    f1 = f2 = TestFunction.one(2)
    names = list(menu)
    pairs = [(menu[a], menu[b]) for a in names for b in names]
    pair_names = [(a, b) for a in names for b in names]
    weights = sphere_weights(12, ctx)
    grid_vals = phi_r_pairs(f1, f2, pairs, weights)
    floor = Fraction(1, 16)
    failures = []
    for i, (v1, w1) in enumerate(pairs):
        for j, (v2, w2) in enumerate(pairs):
            target = orthogonality_target(f1, f2, v1, v2, w1, w2, mu)
            err = abs(grid_vals[i][j] - target)
            denom = floor if abs(target) < floor else abs(target)
            rel = err / denom
            if not rel <= Fraction(1, 20):
                failures.append(
                    f"(v1,w1)={pair_names[i]}, (v2,w2)={pair_names[j]}: rel={float(rel):.4f}"
                )
    elapsed = time.monotonic() - t0
    ok = not failures
    report(
        4,
        ok,
        f"16 combos at R=12, tol 5%: {16 - len(failures)}/16 pass; "
        f"worst offenders exact (e.g. Phi=157/784 vs 1/4, rel 19.9%); {elapsed:.1f}s",
    )
    assert ok, "unattainable as stated at R=12: " + "; ".join(failures)


def test_criterion_4_orthogonal_case(ctx):
    f1 = f2 = TestFunction.one(2)
    one = StepFunction.constant(Fraction(1), 2)
    ca = StepFunction.indicator("a", 2)
    cb = StepFunction.indicator("b", 2)
    weights = sphere_weights(12, ctx)
    value = phi_r(f1, f2, ca, cb, one, one, weights)
    ok = abs(float(value)) <= 0.02
    report(4, ok, f"orthogonal case |Phi_12| = {abs(float(value)):.5f} <= 0.02")
    assert ok


def test_criterion_4_supplementary_large_radius(ctx, mu):
    """All 16 combinations meet the 5% tolerance once R is large enough
    for the 3/(2(n+2)) correction to fall below it; exact at R = 120."""
    t0 = time.monotonic()
    menu = _vector_menu()
    f1 = f2 = TestFunction.one(2)
    pairs = [(v, w) for v in menu.values() for w in menu.values()]
    weights = sphere_weights(120, ctx)
    grid_vals = phi_r_pairs(f1, f2, pairs, weights)
    floor = Fraction(1, 16)
    worst = Fraction(0)
    for i, (v1, w1) in enumerate(pairs):
        for j, (v2, w2) in enumerate(pairs):
            target = orthogonality_target(f1, f2, v1, v2, w1, w2, mu)
            err = abs(grid_vals[i][j] - target)
            denom = floor if abs(target) < floor else abs(target)
            rel = err / denom
            if isinstance(rel, QSqrt):
                worst = max(worst, Fraction(rel.p))
            else:
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= Fraction(1, 20)
    report(4, ok, f"(supplementary) all 16 combos at R=120: worst rel {float(worst):.5f} <= 5%; {elapsed:.1f}s")
    assert ok


def test_criterion_5_annular_rd(ctx):
    one = StepFunction.constant(Fraction(1), 2)
    s1 = sphere_sum_sq(one, one, 1, ctx)
    s2 = sphere_sum_sq(one, one, 2, ctx)
    exact_ok = s1 == 3 and s2 == Fraction(16, 3)
    ratios = {n: annular_rd_ratio(one, one, n, ctx) for n in range(1, 15)}
    sup_r = max(ratios.values())
    inf_r = min(r for n, r in ratios.items() if n >= 2)
    ok = (
        exact_ok
        and abs(ratios[1] - math.sqrt(3) / 2) < 1e-14
        and abs(ratios[2] - math.sqrt(16 / 3) / 3) < 1e-14
        and math.isfinite(sup_r)
        and inf_r >= 0.3
    )
    report(
        5,
        ok,
        f"r_1 = sqrt(3)/2, r_2 = sqrt(16/3)/3 exact; sup_n<=14 = {sup_r:.4f}, "
        f"inf_2<=n<=14 = {inf_r:.4f} >= 0.3",
    )
    assert ok


def test_criterion_6_gvb_failure(ctx):
    t0 = time.monotonic()
    one = StepFunction.constant(Fraction(1), 2)
    rep = gvb_growth(one, one, list(range(4, 15)), ctx)
    elapsed = time.monotonic() - t0
    ok = (
        rep.fitted_exponent is not None
        and 1.8 <= rep.fitted_exponent <= 2.2
        and rep.verdict == "GVB fails"
        and elapsed < 300
    )
    report(
        6,
        ok,
        f"growth exponent {rep.fitted_exponent:.4f} in [1.8, 2.2] over n=4..14 "
        f"(r2 {rep.fit_r2:.4f}); verdict '{rep.verdict}'; {elapsed:.1f}s < 5min",
    )
    assert ok


def test_criterion_7_green_harmonic(tmp_path):
    t0 = time.monotonic()
    walk = WalkSpec.simple(2)
    fp = solve_first_passage(walk)
    exact_ok = fp.exact and all(v == Fraction(1, 3) for v in fp.values.values())
    config = {
        "group": {"rank": 2},
        "metric": {"kind": "word"},
        "walk": {"a": "1/4", "b": "1/4"},
        "samples": 100_000,
        "seed": 0,
        "depth": 2,
        "ancona_words": 20,
        "ancona_max_len": 6,
        "ancona_samples": 20_000,
    }
    cfg_path = tmp_path / "green.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "green_out"
    code = cli_main(["green", "--config", str(cfg_path), "--out", str(out)])
    summary = json.loads((out / "green_summary.json").read_text())
    elapsed = time.monotonic() - t0
    ok = (
        exact_ok
        and code == 0
        and summary["cylinders_inside_ci"] == "17/17"
        and summary["ancona_inside_ci"] == "20/20"
        and abs(summary["green_alpha_minus_one"]) < 1e-12
        and elapsed < 120
    )
    report(
        7,
        ok,
        f"f = 1/3 exact; cylinders {summary['cylinders_inside_ci']} in 95% CI at 1e5 samples; "
        f"Ancona {summary['ancona_inside_ci']} in CI; {elapsed:.1f}s < 2min",
    )
    assert ok


def test_criterion_8_weighted_generality():
    metric = MetricSpec.weighted(2, [1, 2])
    alpha, _ = critical_exponent(metric)
    x = math.exp(-alpha)
    cubic = 3 * x**3 + x**2 + x - 1
    root_ok = abs(cubic) < 1e-10
    ctx = GroupContext(metric)
    mu = ps_measure(ctx)
    worst = 0.0
    for g in enumerate_annulus(2, 2, MetricSpec.word(2)):
        if len(g) > 4:
            continue
        worst = max(worst, abs(rn_integral(g, mu) - 1.0))
    ok = root_ok and worst <= 1e-10
    report(
        8,
        ok,
        f"e^-alpha = {x:.10f}, cubic residual {cubic:.2e} < 1e-10; "
        f"conformality residual {worst:.2e} <= 1e-10 for |g| <= 4",
    )
    assert ok


def test_criterion_9_convolution_bounds(ctx):
    t0 = time.monotonic()
    fibers = fiber_size_report(6, 2)
    check = rd_convolution_check([(2, 2, 2), (2, 3, 3), (3, 3, 4), (4, 4, 4)], ctx, trials=2, seed=0)
    elapsed = time.monotonic() - t0
    ok = (
        fibers.extremal_ok
        and fibers.bound_ok
        and check.max_restricted_ratio <= 4.0
        and check.max_full_ratio_over_1pR <= 4.0
    )
    report(
        9,
        ok,
        f"class-census fibers R,R'<=6: extremal size 1, defect bound ok; "
        f"random-trial ratios restricted {check.max_restricted_ratio:.3f}, "
        f"full/(1+R) {check.max_full_ratio_over_1pR:.3f} (cap 4.0); {elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    config = {
        "group": {"rank": 2},
        "metric": {"kind": "word"},
        "grid": [4, 6, 8, 10, 12],
        "weights": "sphere",
        "tolerance": 0.05,
        "vectors": {"ca": {"cells": [["a", "1"]]}},
        "cases": [
            {"name": f"{a}{b}{c}{d}", "v1": v, "w1": w, "v2": v2, "w2": w2}
            for a, v in (("0", "one"), ("1", "ca"))
            for b, w in (("0", "one"), ("1", "ca"))
            for c, v2 in (("0", "one"), ("1", "ca"))
            for d, w2 in (("0", "one"), ("1", "ca"))
        ],
    }
    cfg_path = tmp_path / "orth16.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    codes = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        codes.append(cli_main(["orth", "--config", str(cfg_path), "--out", str(out)]))
        outputs.append((out / "orth.csv").read_bytes())
    ok = outputs[0] == outputs[1] and codes[0] == codes[1]
    report(
        10,
        ok,
        f"two runs of the criterion-4 config: {len(outputs[0])} CSV bytes identical "
        f"(exit {codes[0]} both; over-tolerance combos are criterion 4's documented failure)",
    )
    assert ok
