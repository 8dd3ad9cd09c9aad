import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeboundary import (
    BudgetError,
    Cylinder,
    CoverError,
    CylinderRectangle,
    GroupContext,
    MetricSpec,
    OrthCase,
    PairStepFunction,
    QSqrt,
    ReducedWord,
    StepFunction,
    TestFunction,
    annular_rd_ratio,
    apply_pi,
    build_partition_weights,
    check_shadow_cover,
    convolve,
    enumerate_sphere,
    equidistribution_error,
    equidistribution_pairing,
    fiber_size_report,
    gvb_growth,
    harish_chandra_length,
    hat_projection,
    inner_product,
    max_rectangle_error,
    max_uniform_rectangle_error,
    normalized_coefficient,
    orthogonality_sweep,
    orthogonality_target,
    phi_r,
    phi_r_pairs,
    ps_measure,
    rd_convolution_check,
    rd_sweep,
    shadow_pair,
    sphere_size,
    sphere_sum_sq,
    sphere_weights,
)
from freeboundary.asymptotics import (
    CoverReport,
    SphereGrid,
    WeightFamily,
    _fiber_count,
    _junctions,
    _resolution_depth,
    _sweep_cover,
    _sweep_partition,
    sphere_class_table,
)
from freeboundary.words import canonical_letters, multiply_letters

W = ReducedWord.from_str


def test_sphere_grid_ranking():
    grid = SphereGrid(2, 3)
    words = [g.letters for g in enumerate_sphere(3, MetricSpec.word(2))]
    assert grid.size == len(words)
    for i, w in enumerate(words):
        assert grid.index_of(w) == i
        assert grid.unrank(i) == w
    lo, hi = grid.interval((1, 2))
    assert [words[i][:2] for i in range(lo, hi)] == [(1, 2)] * (hi - lo)


def test_sphere_classes_counts():
    for n, d in [(4, 1), (4, 2), (5, 2), (6, 2)]:
        table = sphere_class_table(n, d, 2)
        assert sum(c for c, _ in table) == sphere_size(n, 2)
        # counts match brute enumeration
        brute = {}
        for g in enumerate_sphere(n, MetricSpec.word(2)):
            key = (g.letters[:d], g.letters[n - d:])
            brute[key] = brute.get(key, 0) + 1
        assert {(rep.letters[:d], rep.letters[n - d:]): c for c, rep in table} == brute


def test_class_representative_valid():
    for n, d in [(4, 2), (5, 2), (7, 3)]:
        keys = set()
        for g in enumerate_sphere(n, MetricSpec.word(2)):
            keys.add((g.letters[:d], g.letters[n - d:]))
        seen = set()
        for _, rep in sphere_class_table(n, d, 2):
            w = rep.letters
            assert len(w) == n
            assert all(w[i] != -w[i + 1] for i in range(n - 1))
            seen.add((w[:d], w[n - d:]))
        # one representative per class, every class represented
        assert len(seen) == len(sphere_class_table(n, d, 2))
        assert seen == keys


def _class_oracle(n, d, k):
    """(count, first word) per depth-d class of S_n in canonical order, by
    growing every reduced word one letter at a time while keeping only its
    (first d, last d letters) key, its count and its least word."""
    letters = canonical_letters(k)
    rank = {s: i for i, s in enumerate(letters)}
    order = lambda w: [rank[c] for c in w]
    states = {((), ()): (1, ())}
    for _ in range(n):
        grown = {}
        for (first, last), (count, word) in states.items():
            for c in letters:
                if last and c == -last[-1]:
                    continue
                key = ((first + (c,))[:d], (last + (c,))[-d:])
                old = grown.get(key)
                if old is None:
                    grown[key] = (count, word + (c,))
                else:
                    grown[key] = (old[0] + count, min(old[1], word + (c,), key=order))
        states = grown
    return sorted(states.values(), key=lambda cw: order(cw[1]))


def _class_table(n, d, k):
    return [(c, rep.letters) for c, rep in sphere_class_table(n, d, k)]


@pytest.mark.parametrize(
    "k, cases", [(2, [(0, 1), (3, 2), (4, 1), (4, 2), (5, 2), (6, 2), (7, 3)]), (3, [(4, 1), (5, 2), (6, 3)])], ids=["k2", "k3"]
)
def test_sphere_class_table_matches_enumeration(k, cases):
    # counts, each representative the first word of its class, canonical order
    for n, d in cases:
        first = {}
        for g in enumerate_sphere(n, MetricSpec.word(k)):
            w = g.letters
            key = w if n < 2 * d else (w[:d], w[n - d:])
            count, rep = first.get(key, (0, w))
            first[key] = (count + 1, rep)
        expected = list(first.values())  # first occurrences in enumeration order
        assert _class_table(n, d, k) == expected, (n, d)
        assert _class_oracle(n, d, k) == expected, (n, d)
        assert sum(c for c, _ in expected) == sphere_size(n, k)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data(), k=st.sampled_from([2, 3]), d=st.integers(1, 3))
def test_sphere_class_table_matches_oracle(data, k, d):
    n = data.draw(st.integers(0, 2 * d + 4))
    assert _class_table(n, d, k) == _class_oracle(n, d, k)


def _first_middle(x, y, m, letters):
    """The canonically first u with x u y reduced and |u| = m, by
    depth-first search in canonical letter order; None when there is none."""
    if m == 0:
        return () if y != -x else None
    for c in letters:
        if c != -x:
            rest = _first_middle(c, y, m - 1, letters)
            if rest is not None:
                return (c,) + rest
    return None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_junctions_match_brute_force(k):
    letters = canonical_letters(k)
    for x in letters:
        ends = {x: 1}  # reduced words from x, counted by their last letter
        for m in range(21):
            ends = {y: sum(c for z, c in ends.items() if y != -z) for y in letters}
            table = _junctions(m, k)
            for y in letters:
                count, middle = table[x, y]
                assert count == ends[y], (x, y, m)
                if count:
                    assert middle == _first_middle(x, y, m, letters), (x, y, m)


def test_class_constancy_of_coefficients(word_mu, word_ctx, ind_a, one):
    # any two members of a class share every depth-1 coefficient, exactly
    rng = random.Random(0)
    n, d = 6, 1
    members = {}
    for g in enumerate_sphere(n, word_ctx.metric):
        members.setdefault((g.letters[:d], g.letters[n - d:]), []).append(g)
    for key, group in list(members.items())[:8]:
        picks = rng.sample(group, min(3, len(group)))
        vals = {normalized_coefficient(g, ind_a, one, word_mu) for g in picks}
        assert len(vals) == 1


def test_sphere_weights_shapes(word_ctx):
    wf0 = sphere_weights(0, word_ctx)
    assert wf0.total() == 1 and wf0.support_size() == 1
    wf1 = sphere_weights(1, word_ctx)
    assert wf1.max_mass() == Fraction(1, 4)
    wf2 = sphere_weights(2, word_ctx)
    entries = list(wf2.entries())
    assert len(entries) == 12 and all(m == Fraction(1, 12) for _, m in entries)
    assert wf2.total() == 1


def test_cover_check(word_ctx):
    assert check_shadow_cover(6, word_ctx).covered
    assert check_shadow_cover(0, word_ctx).covered
    rho0 = GroupContext(MetricSpec.word(2), rho=0)
    rep = check_shadow_cover(7, rho0)
    assert not rep.covered and rep.witness is not None
    assert not check_shadow_cover(8, rho0).covered


def test_cover_minimal_rho_is_one(word_ctx):
    # rho = 0 fails both parities on the tree (middle-letter clash), 1 covers
    for R in (4, 6, 7, 9):
        assert not check_shadow_cover(R, GroupContext(MetricSpec.word(2), rho=0)).covered
        assert check_shadow_cover(R, GroupContext(MetricSpec.word(2), rho=1)).covered


def _outcome(fn, R, ctx, budget):
    """A cover report or weight family as comparable fields, or the error raised."""
    try:
        out = fn(R, ctx, budget)
    except (BudgetError, CoverError) as exc:
        return type(exc), str(exc)
    if isinstance(out, CoverReport):
        return (out.covered, str(out.witness), out.R, out.rho, out.h, out.resolution, out.annulus_size)
    return (out.R, out.words, out.masses, out.annulus_size, out.support_size())


def _assert_matches_sweep(R, ctx, budget=10_000_000):
    assert _outcome(check_shadow_cover, R, ctx, budget) == _outcome(_sweep_cover, R, ctx, budget)
    assert _outcome(build_partition_weights, R, ctx, budget) == _outcome(_sweep_partition, R, ctx, budget)


@pytest.mark.parametrize("rho", [0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3], ids=lambda r: f"rho{float(r)}")
@pytest.mark.parametrize("k, r_max", [(2, 9), (3, 6)], ids=["k2", "k3"])
def test_stem_pair_classes_match_dense_sweep(k, r_max, rho):
    # word spheres take the stem-pair class path; the dense sweep is the
    # oracle for covers, witnesses, partitions and CoverError alike
    ctx = GroupContext(MetricSpec.word(k), rho=rho)
    for R in range(r_max + 1):
        _assert_matches_sweep(R, ctx)


def test_dense_contexts_and_budgets_match_sweep(word_ctx):
    # h > 0 and non-integer radii stay on the dense sweep; whole floats
    # and budget refusals agree with it too
    for R in (3, 4, 5):
        _assert_matches_sweep(R, GroupContext(MetricSpec.word(2), rho=1, h=1))
    for R in (Fraction(11, 2), 5.5, 6.0):
        _assert_matches_sweep(R, word_ctx)
    _assert_matches_sweep(12, word_ctx, budget=1000)  # grid refusal
    _assert_matches_sweep(8, word_ctx, budget=2000)  # annulus refusal


@pytest.mark.parametrize("k, r_max", [(2, 8), (3, 5)], ids=["k2", "k3"])
def test_stem_pair_cover_matches_enumeration(k, r_max):
    # without the dense grid: every word's shadow stems, then the first
    # missing stem pair and the first word of every pair, by enumeration
    word = MetricSpec.word(k)
    for rho in (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3):
        ctx = GroupContext(word, rho=rho)
        for R in range(r_max + 1):
            first = {}
            for g in enumerate_sphere(R, word):
                rect = shadow_pair(g, ctx)
                first.setdefault((rect.first.stem, rect.second.stem), g.letters)
            a = len(next(iter(first))[0])
            stems = [w.letters for w in enumerate_sphere(a, word)]
            missing = [(p, q) for p in stems for q in stems if (p, q) not in first]
            report = check_shadow_cover(R, ctx)
            assert report.covered == (not missing), (rho, R)
            if missing:
                cells = [w.letters for w in enumerate_sphere(_resolution_depth(R, ctx), word)]
                extend = lambda stem: Cylinder(next(w for w in cells if w[:a] == stem))
                assert report.witness == CylinderRectangle(*map(extend, missing[0])), (rho, R)
                with pytest.raises(CoverError):
                    build_partition_weights(R, ctx)
            else:
                assert build_partition_weights(R, ctx).words == sorted(first.values(), key=SphereGrid(k, R).index_of)


def test_partition_weights_basic(word_ctx, word_mu):
    for R in (4, 6, 8, 10):
        wf = build_partition_weights(R, word_ctx)
        assert wf.total() == 1
        assert wf.support_size() < wf.annulus_size  # eaten shadows dropped
        # condition (3): max mass comparable to 1/|A_R|
        assert float(wf.max_mass() * wf.annulus_size) <= 8.0
        # each mass is at most the product mass of its own double shadow
        idx = {w: i for i, w in enumerate(wf.words)}
        for g, mass in list(wf.entries())[:50]:
            rect = shadow_pair(g, word_ctx)
            bound = word_mu.mass(rect.first) * word_mu.mass(rect.second)
            assert mass <= bound


def test_partition_raises_without_cover():
    rho0 = GroupContext(MetricSpec.word(2), rho=0)
    with pytest.raises(CoverError):
        build_partition_weights(6, rho0)


def test_equidistribution_trivial(word_ctx, word_mu):
    F = PairStepFunction.constant(Fraction(1), 2)
    for R in (4, 6):
        wf = build_partition_weights(R, word_ctx)
        assert equidistribution_error(F, wf, word_mu) == 0


def test_equidistribution_sphere_rectangle(word_ctx, word_mu):
    F = PairStepFunction.rectangle(Cylinder.from_str("a"), Cylinder.from_str("b"), 2)
    errs = []
    for n in (2, 6, 10):
        wf = sphere_weights(n, word_ctx)
        lhs, rhs = equidistribution_pairing(F, wf, word_mu)
        assert rhs == Fraction(1, 16)
        errs.append(abs(lhs - rhs))
    assert errs[2] < errs[0]
    assert float(errs[2]) < 1e-4


def test_equidistribution_shadow_exactness(word_ctx, word_mu):
    # stems deeper than the observable depth reproduce product masses
    # exactly; observables finer than the stems see a genuine error
    wf4 = build_partition_weights(4, word_ctx)  # stems have depth 1
    wf6 = build_partition_weights(6, word_ctx)  # stems have depth 2
    deep = PairStepFunction.rectangle(Cylinder.from_str("ab"), Cylinder.from_str("b"), 2)
    assert equidistribution_error(deep, wf4, word_mu) > 0
    assert equidistribution_error(deep, wf6, word_mu) == 0
    shallow = PairStepFunction.rectangle(Cylinder.from_str("a"), Cylinder.from_str("b"), 2)
    assert equidistribution_error(shallow, wf4, word_mu) == 0
    assert max_rectangle_error(wf4, word_mu, 2) > 0
    assert max_rectangle_error(wf6, word_mu, 2) == 0
    # probing below the stem depth exposes the genuine error
    assert max_uniform_rectangle_error(wf6, word_mu, 3) > 0


def _errors_by_depths(wf, mu, D):
    # the worst single rectangle C_u x C_v per depth pair (|u|, |v|), |u|, |v| <= D,
    # each error read from pair_table(|u|, |v|) through equidistribution_error
    stems = {d: [g.letters for g in enumerate_sphere(d, MetricSpec.word(2))] for d in range(D + 1)}
    wf.pair_table = functools.lru_cache(maxsize=None)(wf.pair_table)  # build each depth pair's table once
    out = {}
    for d1 in range(D + 1):
        for d2 in range(D + 1):
            out[d1, d2] = max(
                equidistribution_error(PairStepFunction.rectangle(Cylinder(u), Cylinder(v), 2), wf, mu)
                for u in stems[d1]
                for v in stems[d2]
            )
    return out


def test_rectangle_errors_match_every_rectangle(word_ctx, word_mu):
    # max_rectangle_error reads marginals of one pair table; check both
    # errors against the worst single rectangle at every depth pair,
    # d1 != d2 included, up to depth D.  Small spheres and the R = 4 partitions leave cells of the
    # depth-3 tables empty, and an empty cell's error is its full product
    # mass: that is the worst error of S_2 at depth 1, of S_4 at depth 2
    # and of the word sphere S_2 weighted on a non-word metric at depth 1
    weighted_ctx = GroupContext(MetricSpec.weighted(2, [1, 2]), h=1)
    weighted_mu = ps_measure(weighted_ctx)
    s2 = [g.letters for g in enumerate_sphere(2, MetricSpec.word(2))]
    cases = [
        (sphere_weights(1, word_ctx), word_mu, 3),
        (sphere_weights(2, word_ctx), word_mu, 3),
        (sphere_weights(4, word_ctx), word_mu, 2),
        (build_partition_weights(4, word_ctx), word_mu, 3),
        (build_partition_weights(4, weighted_ctx), weighted_mu, 3),
        (WeightFamily(2, weighted_ctx, s2, [1.0 / len(s2)] * len(s2)), weighted_mu, 3),
    ]
    for wf, mu, D in cases:
        fast = {d: (max_rectangle_error(wf, mu, d), max_uniform_rectangle_error(wf, mu, d)) for d in range(D + 1)}
        slow = _errors_by_depths(wf, mu, D)
        for d in range(D + 1):
            want = (max(e for (d1, d2), e in slow.items() if d1 <= d and d2 <= d), slow[d, d])
            if wf.exact:
                assert fast[d] == want
            else:
                assert all(abs(f - w) < 1e-12 for f, w in zip(fast[d], want))


def test_phi_trivial_and_symmetry(word_ctx, word_mu, one, ind_a, ind_b):
    f1 = f2 = TestFunction.one(2)
    wf = sphere_weights(4, word_ctx)
    assert phi_r(f1, f2, one, one, one, one, wf, word_mu) == 1
    lhs = phi_r(f1, f2, ind_a, ind_b, one, ind_a, wf, word_mu)
    rhs = phi_r(f1, f2, ind_b, ind_a, ind_a, one, wf, word_mu)
    assert lhs == rhs  # real conjugate symmetry under (v1,w1) <-> (v2,w2)


def test_phi_matches_brute_force(word_ctx, word_mu, one, ind_a):
    f1 = f2 = TestFunction.one(2)
    for n in (3, 4):
        wf = sphere_weights(n, word_ctx)
        fast = phi_r(f1, f2, ind_a, ind_a, one, one, wf, word_mu)
        slow = QSqrt(0, 0, 3)
        for g in enumerate_sphere(n, word_ctx.metric):
            nc1 = normalized_coefficient(g, ind_a, one, word_mu)
            nc2 = normalized_coefficient(g, ind_a, one, word_mu)
            slow = slow + Fraction(1, sphere_size(n, 2)) * nc1 * nc2
        assert fast == slow


def test_phi_shadow_weights_matches_brute_force(word_ctx, word_mu, one, ind_a):
    # exercises the explicit-support class-aggregation path end to end
    f1 = f2 = TestFunction.one(2)
    wf = build_partition_weights(6, word_ctx)
    fast = phi_r(f1, f2, ind_a, ind_a, one, one, wf, word_mu)
    slow = QSqrt(0, 0, 3)
    for g, mass in wf.entries():
        nc = normalized_coefficient(g, ind_a, one, word_mu)
        slow = slow + mass * nc * nc
    assert fast == slow
    # mass lookup agrees with iteration (used by interior corrections)
    for g, mass in list(wf.entries())[:10]:
        assert wf.mass_of(g) == mass
    assert wf.mass_of(W("a")) == 0  # not in the annulus support


def test_weighted_metric_shadow_partition(weighted_ctx, weighted_mu):
    # float backend of the cover check and the greedy partition
    rep0 = check_shadow_cover(6, GroupContext(MetricSpec.weighted(2, [1, 2]), rho=0))
    assert not rep0.covered and rep0.witness is not None
    assert check_shadow_cover(6, weighted_ctx).covered
    wf = build_partition_weights(6, weighted_ctx)
    assert abs(wf.total() - 1.0) < 1e-12
    assert 0 < wf.support_size() < wf.annulus_size
    F = PairStepFunction.rectangle(Cylinder.from_str("a"), Cylinder.from_str("b"), 2)
    assert equidistribution_error(F, wf, weighted_mu) < 1e-12


def test_phi_interior_correction(word_ctx, word_mu, one):
    f1 = TestFunction(StepFunction.constant(Fraction(1), 2), {W("aa"): Fraction(1, 2)})
    f2 = TestFunction.one(2)
    wf = sphere_weights(2, word_ctx)
    val = phi_r(f1, f2, one, one, one, one, wf, word_mu)
    assert val == Fraction(25, 24)  # 1 + mu_R(aa) * 1/2


def test_phi_pairs_matches_scalar(word_ctx, word_mu, one, ind_a, ind_b):
    f1 = f2 = TestFunction.one(2)
    pairs = [(one, one), (ind_a, one), (one, ind_b)]
    wf = sphere_weights(5, word_ctx)
    grid = phi_r_pairs(f1, f2, pairs, wf, word_mu)
    for i, (v1, w1) in enumerate(pairs):
        for j, (v2, w2) in enumerate(pairs):
            assert grid[i][j] == phi_r(f1, f2, v1, v2, w1, w2, wf, word_mu)


def test_phi_equidistribution_consistency(word_ctx, word_mu, one, ind_a, ind_b):
    F = PairStepFunction.product(ind_a, ind_b)
    wf = sphere_weights(3, word_ctx)
    lhs, _ = equidistribution_pairing(F, wf, word_mu)
    phi = phi_r(TestFunction(ind_a), TestFunction(ind_b), one, one, one, one, wf, word_mu)
    assert lhs == phi


def test_quadrilinear_boundedness(word_ctx, word_mu, one, ind_a):
    # |Phi_R| <= C over depth <= 2 vectors and the whole grid; C recorded
    f1 = f2 = TestFunction.one(2)
    deep = StepFunction.from_pairs([("ab", Fraction(1))], 2)
    vecs = [one, ind_a, deep]
    worst = 0.0
    for n in (2, 4, 6, 8):
        wf = sphere_weights(n, word_ctx)
        pairs = [(v, w) for v in vecs for w in vecs]
        grid = phi_r_pairs(f1, f2, pairs, wf, word_mu)
        for i, (v1, w1) in enumerate(pairs):
            for j, (v2, w2) in enumerate(pairs):
                from freeboundary import norm_sq

                scale = math.sqrt(
                    float(norm_sq(v1, word_mu))
                    * float(norm_sq(w1, word_mu))
                    * float(norm_sq(v2, word_mu))
                    * float(norm_sq(w2, word_mu))
                )
                worst = max(worst, abs(float(grid[i][j])) / scale)
    assert worst <= 4.0  # measured constant, with headroom


def test_orthogonality_sweep_orthogonal_case(word_ctx, word_mu, one, ind_a, ind_b):
    f1 = f2 = TestFunction.one(2)
    (report,) = orthogonality_sweep(
        f1, f2, [OrthCase("orthogonal", ind_a, one, ind_b, one)], [4, 8, 12], word_ctx, word_mu, tolerance=0.32
    )
    assert report.targets_exact[0] == "0"
    assert report.values[-1] <= 0.02
    assert report.passed


def test_orthogonality_target(word_mu, one, ind_a, ind_b):
    f1 = f2 = TestFunction.one(2)
    assert orthogonality_target(f1, f2, ind_a, ind_b, one, one, word_mu) == 0
    assert orthogonality_target(f1, f2, ind_a, ind_a, one, one, word_mu) == Fraction(1, 4)
    fb_fn = TestFunction(ind_b)
    assert orthogonality_target(fb_fn, f2, one, one, one, one, word_mu) == Fraction(1, 4)


def test_ergodic_corollary_specialization(word_ctx, word_mu, one, ind_a, ind_b):
    # with f1 = f, f2 = 1 and the second slot pinned to constants, Phi_R
    # is the pairing of the weighted operator average against (v, w) and
    # its limit is <v, 1><w, f>: the rank-one ergodic limit m(f)P
    f = ind_b
    v = ind_a
    w = StepFunction.from_pairs([("a", Fraction(1, 2)), ("B", Fraction(1))], 2)
    from freeboundary import inner_product

    target = orthogonality_target(TestFunction(f), TestFunction.one(2), v, one, w, one, word_mu)
    rank_one = inner_product(v, one, word_mu) * inner_product(w, f, word_mu)
    assert target == rank_one
    vals = []
    for n in (4, 12, 36):
        wf = sphere_weights(n, word_ctx)
        val = phi_r(TestFunction(f), TestFunction.one(2), v, one, w, one, wf, word_mu)
        vals.append(abs(float(val - rank_one)))
    assert vals[2] < vals[0] and vals[2] < 0.02


def test_sphere_sum_consistency(word_ctx, word_mu, one):
    for n in (1, 2, 5, 9):
        total = sphere_sum_sq(one, one, n, word_mu, word_ctx)
        xi = harish_chandra_length(n, word_mu)
        assert total == sphere_size(n, 2) * xi * xi


def _brute_pair_table(wf, d1, d2):
    table = {}
    for g, mass in wf.entries():
        key = (hat_projection(g).prefix_letters(d1), hat_projection(~g).prefix_letters(d2))
        table[key] = table.get(key, 0) + mass
    return table


def test_class_aggregation_matches_per_word_sums(word_ctx, word_mu):
    # pair tables and sphere sums read the weights' class table; at depth
    # d = 2 check them against per-word sums on both sides of |g| = 2d
    d1, d2 = 1, 2
    radii = (0, 1, 3, 4, 5)  # 0, 1, 2d-1, 2d, 2d+1
    weighted_ctx = GroupContext(MetricSpec.weighted(2, [1, 2]), h=1)
    for R in radii:
        for wf in (sphere_weights(R, word_ctx), build_partition_weights(R, word_ctx)):
            assert wf.pair_table(d1, d2) == _brute_pair_table(wf, d1, d2)
        wf = build_partition_weights(R, weighted_ctx)
        fast = wf.pair_table(d1, d2)
        slow = _brute_pair_table(wf, d1, d2)
        assert fast.keys() == slow.keys()
        assert all(abs(fast[key] - slow[key]) < 1e-12 for key in slow)
    v = StepFunction.from_pairs([("ab", Fraction(1)), ("B", Fraction(1, 2))], 2)
    w = StepFunction.from_pairs([("a", Fraction(2)), ("bA", Fraction(1))], 2, constant=Fraction(1, 3))
    for n in radii:
        slow = QSqrt(0, 0, 3)
        for g in enumerate_sphere(n, word_ctx.metric):
            coef = inner_product(apply_pi(g, v, word_mu), w, word_mu)
            slow = slow + coef * coef
        assert sphere_sum_sq(v, w, n, word_mu, word_ctx) == slow


def test_annular_rd_values(word_ctx, word_mu, one):
    assert abs(annular_rd_ratio(one, one, 1, word_mu, word_ctx) - math.sqrt(3) / 2) < 1e-15
    assert abs(annular_rd_ratio(one, one, 2, word_mu, word_ctx) - math.sqrt(16 / 3) / 3) < 1e-15
    report = rd_sweep(one, one, list(range(1, 15)), word_ctx, word_mu)
    assert report.passed
    assert report.constants["inf_ratio_n_ge_2"] >= 0.3
    assert report.constants["sup_ratio"] <= 1.0


def test_gvb_growth_values(word_ctx, word_mu, one):
    report = gvb_growth(one, one, list(range(1, 15)), word_ctx, word_mu)
    assert report.values_exact[0] == "3"
    assert report.values_exact[1] == "16/3"
    assert abs(report.extras["ratio"][0] - 0.75) < 1e-12
    assert abs(report.extras["ratio"][1] - 16 / 27) < 1e-12
    assert report.verdict == "GVB fails"
    assert 1.8 <= report.fitted_exponent <= 2.2


def test_convolution_examples(word_ctx):
    da = {W("a"): Fraction(1)}
    db = {W("b"): Fraction(1)}
    assert convolve(da, db) == {W("ab"): Fraction(1)}
    de = {W(""): Fraction(1)}
    s1 = {g: Fraction(1) for g in enumerate_sphere(1, word_ctx.metric)}
    assert convolve(de, s1) == s1 and convolve(s1, de) == s1
    c = convolve(s1, s1)
    assert c[W("")] == 4
    assert sum(1 for g in c if len(g) == 2) == 12 and len(c) == 13
    from freeboundary.asymptotics import l2_norm_sq

    assert l2_norm_sq(c) == 28


def test_convolution_budget():
    s3 = {g: Fraction(1) for g in enumerate_sphere(3, MetricSpec.word(2))}
    with pytest.raises(BudgetError):
        convolve(s3, s3, budget=10)


def _product_fibers(r_max, k):
    """Reference census: multiply every pair of S_R x S_R' and count each
    product g.  Returns {(R, R'): {g: count}} and the report fields."""
    spheres = {r: [g.letters for g in enumerate_sphere(r, MetricSpec.word(k))] for r in range(1, r_max + 1)}
    counts = {}
    max_by_defect = {}
    extremal_ok = True
    for R in range(1, r_max + 1):
        for Rp in range(1, r_max + 1):
            fibers = counts[R, Rp] = {}
            for x in spheres[R]:
                for z in spheres[Rp]:
                    g = multiply_letters(x, z)
                    fibers[g] = fibers.get(g, 0) + 1
            for g, c in fibers.items():
                p = (R + Rp - len(g)) // 2
                if p == 0 and c != 1:
                    extremal_ok = False
                max_by_defect[p] = max(c, max_by_defect.get(p, 0))
    bound_ok = all(c <= (1 if p == 0 else 2 * k * (2 * k - 1) ** (p - 1)) for p, c in max_by_defect.items())
    return counts, max_by_defect, extremal_ok, bound_ok


@pytest.mark.parametrize("k, r_max", [(2, 4), (3, 3), (4, 2)])
def test_fiber_class_census_matches_product_loop(k, r_max):
    counts, max_by_defect, extremal_ok, bound_ok = _product_fibers(r_max, k)
    for (R, Rp), fibers in counts.items():
        for g, c in fibers.items():
            assert c == _fiber_count(R, Rp, (R + Rp - len(g)) // 2, k), (R, Rp, g)
        for p in range(min(R, Rp) + 1):
            n = R + Rp - 2 * p
            assert sum(1 for g in fibers if len(g) == n) == sphere_size(n, k), (R, Rp, p)
    report = fiber_size_report(r_max, k)
    assert report.max_by_defect == max_by_defect
    assert (report.extremal_ok, report.bound_ok) == (extremal_ok, bound_ok)


def test_fiber_report_small():
    report = fiber_size_report(4, 2)
    assert report.extremal_ok and report.bound_ok
    assert report.max_by_defect[0] == 1
    for p, c in report.max_by_defect.items():
        if p >= 1:
            assert c <= 4 * 3 ** (p - 1)


def test_rd_convolution_check(word_ctx):
    check = rd_convolution_check([(2, 2, 2), (2, 3, 3)], word_ctx, trials=2, seed=1)
    assert 0 < check.max_restricted_ratio <= 4.0
    assert check.max_full_ratio_over_1pR <= 4.0


def test_budget_errors(word_ctx):
    with pytest.raises(BudgetError):
        build_partition_weights(12, word_ctx, budget=1000)
    with pytest.raises(BudgetError):
        check_shadow_cover(12, word_ctx, budget=1000)
