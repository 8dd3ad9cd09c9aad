import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeboundary import (
    Cylinder,
    CylinderSet,
    GroupContext,
    MetricSpec,
    ReducedWord,
    WalkSpec,
    ahlfors_profile,
    critical_exponent,
    enumerate_annulus,
    enumerate_sphere,
    green_metric_of_walk,
    harmonic_mass_mc,
    mc_first_passage,
    ps_measure,
    rn_derivative,
    rn_integral,
    solve_first_passage,
    translate_cylinder_set,
)
from freeboundary.measures import (
    MCEstimate,
    _letters_and_cum,
    _run_walks,
    mc_cylinder_counts,
    sample_boundary_prefixes,
)
from freeboundary.words import canonical_letters

W = ReducedWord.from_str
C = Cylinder.from_str


def test_critical_exponent_word():
    for k in (2, 3):
        alpha, pd = critical_exponent(MetricSpec.word(k))
        assert abs(alpha - math.log(2 * k - 1)) < 1e-15
        assert pd.exact
        assert pd.pi0[1] == Fraction(1, 2 * k)
        assert pd.trans[(1, 2)] == Fraction(1, 2 * k - 1)


def test_critical_exponent_word_growth_oracle():
    # independent oracle: sphere growth increments
    from freeboundary import sphere_size

    alpha, _ = critical_exponent(MetricSpec.word(2))
    slope = math.log(sphere_size(12, 2)) - math.log(sphere_size(11, 2))
    assert abs(alpha - slope) < 1e-12


def _cubic_root():
    # independent oracle for weighted (1,2): minimal root of 3x^3+x^2+x-1
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 3 * mid**3 + mid**2 + mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_critical_exponent_weighted_cubic_oracle():
    alpha, pd = critical_exponent(MetricSpec.weighted(2, [1, 2]))
    assert abs(math.exp(-alpha) - _cubic_root()) < 1e-10
    assert not pd.exact
    assert pd.row_sum_residual() < 1e-12
    assert pd.eigenvalue_residual < 1e-12


def test_critical_exponent_weighted_poincare_scan():
    # truncated Poincare series: partial sums grow at s < alpha, flatten above
    m = MetricSpec.weighted(2, [1, 2])
    alpha, _ = critical_exponent(m)

    def tail_ratio(s: float) -> float:
        sums = []
        for L in (8, 12):
            total = sum(
                math.exp(-s * float(m.length_of(g.letters)))
                for g in enumerate_annulus(L, 4, m)
            )
            sums.append(total)
        return sums[1] / sums[0]

    assert tail_ratio(alpha - 0.2) > 1.5
    assert tail_ratio(alpha + 0.2) < 0.8


def test_critical_exponent_green_simple():
    m = green_metric_of_walk(WalkSpec.simple(2))
    alpha, _ = critical_exponent(m)
    assert abs(alpha - 1.0) < 1e-12
    assert all(abs(l - math.log(3)) < 1e-14 for l in m.lengths)


def test_ps_masses_word(word_ctx, word_mu):
    assert word_mu.mass(Cylinder(())) == 1
    assert word_mu.mass(C("a")) == Fraction(1, 4)
    assert word_mu.mass(C("ab")) == Fraction(1, 12)


def test_ps_mass_prefix_frequency_oracle(word_ctx, word_mu):
    # limiting frequency of the prefix ab over spheres; exact for each n >= 2
    for n in (2, 5, 8):
        hits = sum(1 for g in enumerate_sphere(n, word_ctx.metric) if g.letters[:2] == (1, 2))
        from freeboundary import sphere_size

        assert Fraction(hits, sphere_size(n, 2)) == Fraction(1, 12)


def test_additivity_exact(word_mu):
    for g in enumerate_annulus(0, 7, word_mu.metric):
        stem = g.letters
        if len(stem) > 7:
            continue
        children = [
            stem + (s,) for s in canonical_letters(2) if not stem or s != -stem[-1]
        ]
        assert word_mu.mass_letters(stem) == sum(word_mu.mass_letters(c) for c in children)


def test_additivity_weighted(weighted_mu):
    for g in enumerate_annulus(0, 6, MetricSpec.word(2)):
        stem = g.letters
        children = [
            stem + (s,) for s in canonical_letters(2) if not stem or s != -stem[-1]
        ]
        got = sum(weighted_mu.mass_letters(c) for c in children)
        assert abs(got - weighted_mu.mass_letters(stem)) < 1e-12


def test_rn_examples(word_mu):
    assert rn_derivative(W("a"), C("ab"), word_mu) == 3
    assert rn_derivative(W("a"), C("ba"), word_mu) == Fraction(1, 3)
    assert rn_derivative(W(""), C("a"), word_mu) == 1


def test_rn_pushforward_oracle(word_mu):
    # mass(g^-1 C)/mass(C) over every |g| <= 3 and every depth-4 cylinder
    for g in enumerate_annulus(1, 2, word_mu.metric):
        for c in enumerate_sphere(4, word_mu.metric):
            cyl = Cylinder(c.letters)
            image = translate_cylinder_set(~g, CylinderSet.of(cyl, 2))
            ratio = word_mu.mass_set(image) / word_mu.mass(cyl)
            assert ratio == rn_derivative(g, cyl, word_mu)


def test_rn_pushforward_oracle_weighted(weighted_mu):
    for gs in ("a", "b", "aB", "ba"):
        g = W(gs)
        for c in enumerate_sphere(3, MetricSpec.word(2)):
            cyl = Cylinder(c.letters)
            image = translate_cylinder_set(~g, CylinderSet.of(cyl, 2))
            ratio = float(weighted_mu.mass_set(image)) / float(weighted_mu.mass(cyl))
            assert abs(ratio - rn_derivative(g, cyl, weighted_mu)) < 1e-10


def test_rn_cocycle(word_mu):
    # chain rule of the pushforward derivative along the group law:
    # rn(gh, xi) = rn(g, xi) * rn(h, g^-1 xi).  This is the orientation
    # forced by rn = d(g_* mu)/d mu (and by pi(g) pi(h) = pi(gh)).
    rng = random.Random(0)
    pts = []
    for g in enumerate_sphere(10, word_mu.metric):
        pts.append(g)
        if len(pts) >= 40:
            break
    from freeboundary import hat_projection

    for _ in range(60):
        g = W("".join(rng.choice("abAB") for _ in range(rng.randrange(1, 4))))
        h = W("".join(rng.choice("abAB") for _ in range(rng.randrange(1, 4))))
        xi = hat_projection(rng.choice(pts))
        lhs = rn_derivative(g * h, xi, word_mu)
        rhs = rn_derivative(g, xi, word_mu) * rn_derivative(h, xi.translate(~g), word_mu)
        assert lhs == rhs


def test_rn_integral_exact(word_mu):
    for g in enumerate_annulus(1, 5, word_mu.metric):
        if len(g) > 6:
            continue
        assert rn_integral(g, word_mu) == 1


def test_rn_integral_weighted(weighted_mu):
    for gs in ("a", "ab", "bab", "aBaB"):
        assert abs(rn_integral(W(gs), weighted_mu) - 1.0) < 1e-10


def test_rn_shallow_cylinder_rejected(word_mu):
    with pytest.raises(ValueError):
        rn_derivative(W("ab"), C("a"), word_mu)


def test_ahlfors_word(word_mu):
    report = ahlfors_profile(word_mu, range(0, 9))
    assert report.passed
    assert report.rows[0].min_ratio == 1.0
    for row in report.rows[1:]:
        assert abs(row.min_ratio - 0.75) < 1e-12
        assert abs(row.max_ratio - 0.75) < 1e-12


def test_ahlfors_weighted(weighted_mu):
    report = ahlfors_profile(weighted_mu, range(0, 8))
    assert report.passed
    assert report.global_max / report.global_min < 4


def test_walk_validation():
    with pytest.raises(ValueError):
        WalkSpec.from_generator_probs([Fraction(1, 2), Fraction(1, 3)])  # sums to 5/3
    with pytest.raises(ValueError):
        WalkSpec(2, ((1, Fraction(1, 2)), (-1, Fraction(1, 4)), (2, Fraction(1, 8)), (-2, Fraction(1, 8)))).validate()
    with pytest.raises(ValueError):
        WalkSpec.from_generator_probs([Fraction(1, 2), Fraction(0)])


def test_first_passage_simple_exact():
    fp = solve_first_passage(WalkSpec.simple(2))
    assert fp.exact
    assert all(v == Fraction(1, 3) for v in fp.values.values())
    # transience: strictly below 1 with a measurable gap
    assert all(v <= Fraction(2, 3) for v in fp.values.values())


def test_first_passage_simple_mc_oracle():
    est = mc_first_passage(WalkSpec.simple(2), W("a"), 40_000, seed=5)
    assert abs(est.estimate - 1 / 3) < 3e-3  # three digits per the design target
    assert est.undecided == 0


def test_first_passage_asymmetric():
    walk = WalkSpec.from_generator_probs([Fraction(3, 8), Fraction(1, 8)])
    fp = solve_first_passage(walk)
    assert 0 < fp.values[2] < fp.values[1] < 1
    assert fp.residual < 1e-12
    est = mc_first_passage(walk, W("a"), 40_000, seed=6)
    assert abs(est.estimate - float(fp.values[1])) <= est.halfwidth


def test_green_metric_multiplicativity():
    walk = WalkSpec.from_generator_probs([Fraction(3, 8), Fraction(1, 8)])
    m = green_metric_of_walk(walk)
    fp = solve_first_passage(walk)
    # F(e, st) ~ f_s f_t on reduced two-letter words, via MC
    est = mc_first_passage(walk, W("ab"), 60_000, seed=7)
    assert abs(est.estimate - float(fp.values[1] * fp.values[2])) <= est.halfwidth
    assert abs(m.length_of((1, 2)) - (m.lengths[0] + m.lengths[1])) < 1e-15


def test_harmonic_mc_examples():
    walk = WalkSpec.simple(2)
    whole = harmonic_mass_mc(walk, Cylinder(()), 1000, seed=0)
    assert whole.estimate == 1.0 and whole.halfwidth == 0.0
    est = harmonic_mass_mc(walk, C("a"), 50_000, seed=3)
    assert abs(est.estimate - 0.25) <= est.halfwidth


def test_harmonic_matches_ps_of_green():
    # equivalence is the guaranteed statement; on the tree the Markov
    # data agree exactly, checked here through the MC route.  z = 3.5
    # keeps the module test deterministic-in-practice; the acceptance
    # suite pins a seed and the stated 95% interval.
    walk = WalkSpec.simple(2)
    ctx = GroupContext(green_metric_of_walk(walk))
    mu = ps_measure(ctx)
    counts, decided, undecided = mc_cylinder_counts(walk, 2, 60_000, seed=1)
    assert undecided == 0
    for stem, cnt in counts.items():
        est = cnt / decided
        half = 3.5 * math.sqrt(est * (1 - est) / decided)
        assert abs(est - float(mu.mass_letters(stem))) <= half


def test_harmonic_markov_exit_formula_oracle():
    """Independent Markov oracle for the harmonic measure.

    The exit distribution of a transient nearest-neighbor walk on the
    tree is Markov with transitions f_t c_t / c_s, where
    c_s ~ sum_{t != s^-1} p_t (1 - f_{t^-1}) is the never-return weight.
    This vector is a Perron eigenvector of the first-passage transfer
    matrix at exponent one, so it must reproduce the Green-metric
    conformal measure's transition data.
    """
    walk = WalkSpec.from_generator_probs([Fraction(3, 8), Fraction(1, 8)])
    fp = solve_first_passage(walk)
    letters = canonical_letters(2)
    c = {
        s: sum(float(walk.prob(t)) * (1 - float(fp.values[-t])) for t in letters if t != -s)
        for s in letters
    }
    ctx = GroupContext(green_metric_of_walk(walk))
    mu = ps_measure(ctx)
    for s in letters:
        for t in letters:
            if t == -s:
                continue
            harmonic = float(fp.values[t]) * c[t] / c[s]
            assert abs(harmonic - float(mu.trans[(s, t)])) < 1e-9


def test_markov_rows_export(word_mu):
    rows = word_mu.markov_rows()
    assert len(rows) == 4
    assert rows[0]["initial"] == Fraction(1, 4)


def test_mc_outputs_pinned():
    # exact outputs of the seeded kernels: any change to the order of the
    # random draws or to the stopping rules shows here bit for bit
    walk = WalkSpec.simple(2)
    est = mc_first_passage(walk, ReducedWord.from_str("ab"), 2000, seed=5)
    assert est == MCEstimate(0.1145, 0.013955265379060335, 2000, 2000, 0)
    counts, decided, undecided = mc_cylinder_counts(walk, 2, 2000, seed=5)
    assert (decided, undecided) == (2000, 0)
    assert counts == {
        (-2, -2): 161, (-2, -1): 171, (-2, 1): 176, (-1, -2): 172, (-1, -1): 153, (-1, 2): 185,
        (1, -2): 167, (1, 1): 168, (1, 2): 180, (2, -1): 148, (2, 1): 153, (2, 2): 166,
    }


def _reference_walks(walk, samples, seed, cap, horizon, target=None):
    """Oracle for ``_run_walks``: the same draw order, over full-width
    gathers, a searchsorted letter pick and a full-row compare with the
    target."""
    rng = np.random.default_rng(seed)
    letters, cum = _letters_and_cum(walk)
    words = np.zeros((samples, cap), dtype=np.int8)
    lens = np.zeros(samples, dtype=np.int64)
    active = np.ones(samples, dtype=bool)
    for _ in range(horizon):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        draws = rng.random(idx.size)
        chosen = letters[np.searchsorted(cum, draws, side="right")]
        l = lens[idx]
        last = words[idx, np.maximum(l - 1, 0)]
        cancel = (l > 0) & (chosen == -last)
        shrink = idx[cancel]
        lens[shrink] -= 1
        grow = idx[~cancel]
        words[grow, lens[grow]] = chosen[~cancel]
        lens[grow] += 1
        if target is not None:
            at_len = idx[lens[idx] == target.size]
            if at_len.size:
                active[at_len[np.all(words[at_len, : target.size] == target, axis=1)]] = False
        active[idx[lens[idx] >= cap]] = False
    return words, lens, active


def _assert_same_walks(got, want):
    (got_words, got_lens, got_active), (want_words, want_lens, want_active) = got, want
    assert got_lens.tolist() == want_lens.tolist()
    assert got_active.tolist() == want_active.tolist()
    for i, n in enumerate(want_lens.tolist()):
        assert got_words[i, :n].tolist() == want_words[i, :n].tolist(), i


@st.composite
def walk_batches(draw):
    """(walk, samples, seed, cap, horizon, target) at ranks 2..4 with
    asymmetric step laws, no target or one of 1..5 letters."""
    k = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    walk = WalkSpec.from_generator_probs([Fraction(x, 2 * sum(weights)) for x in weights])
    letters = canonical_letters(k)
    target = []
    for _ in range(draw(st.integers(0, 5))):
        target.append(draw(st.sampled_from([s for s in letters if not target or s != -target[-1]])))
    cap = len(target) + draw(st.integers(1, 8))
    samples = draw(st.integers(1, 300))
    horizon = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    return walk, samples, seed, cap, horizon, (np.array(target, dtype=np.int8) if target else None)


ASYMMETRIC_3 = WalkSpec.from_generator_probs([Fraction(1, 8), Fraction(1, 6), Fraction(5, 24)])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(walk_batches())
@example((ASYMMETRIC_3, 1, 4, 20, 10_000, None))  # one sample
@example((ASYMMETRIC_3, 1, 4, 41, 10_000, np.array([1, -2], dtype=np.int8)))
@example((ASYMMETRIC_3, 200, 9, 1, 10_000, None))  # cap = 1: every trajectory stops at its first step
@example((ASYMMETRIC_3, 500, 3, 4, 6, None))  # horizon too short: undecided trajectories stay
@example((ASYMMETRIC_3, 500, 3, 41, 3, np.array([3], dtype=np.int8)))
def test_walk_kernel_matches_reference(batch):
    walk, samples, seed, cap, horizon, target = batch
    _assert_same_walks(
        _run_walks(walk, samples, seed, cap, horizon, target),
        _reference_walks(walk, samples, seed, cap, horizon, target),
    )


@pytest.mark.parametrize("cap, horizon, target", [(4, 6, None), (41, 3, (3,))])
def test_walk_kernel_reports_undecided(cap, horizon, target):
    target = None if target is None else np.array(target, dtype=np.int8)
    got = _run_walks(ASYMMETRIC_3, 500, 3, cap, horizon, target)
    assert got[2].any() and not got[2].all()
    _assert_same_walks(got, _reference_walks(ASYMMETRIC_3, 500, 3, cap, horizon, target))


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("walk", [WalkSpec.from_generator_probs([Fraction(1, 5), Fraction(3, 10)]), ASYMMETRIC_3])
def test_mc_cylinder_counts_match_unique_oracle(walk, depth):
    counts, decided, undecided = mc_cylinder_counts(walk, depth, 3000, seed=depth)
    prefixes, want_undecided = sample_boundary_prefixes(walk, depth, 3000, seed=depth)
    if depth:
        uniq, cnt = np.unique(prefixes, axis=0, return_counts=True)
        want = {tuple(int(x) for x in row): int(c) for row, c in zip(uniq, cnt)}
    else:
        want = {(): prefixes.shape[0]}
    assert list(counts.items()) == list(want.items())
    assert (decided, undecided) == (prefixes.shape[0], want_undecided)
