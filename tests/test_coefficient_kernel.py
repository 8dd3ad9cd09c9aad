"""The prefix-table coefficient kernel against the explicit refinement.

``matrix_coefficient`` never builds pi(g)v; ``inner_product(apply_pi(g, v,
mu), w, mu)`` does, and is the oracle: exact and of the same type on the
word metric, within 1e-12 on float backends.  ``phi_r_pairs`` and
``sphere_sum_sq`` sum integer numerators and never build a QSqrt; their
oracles, ``_reference_*``, multiply and divide the QSqrt coefficients.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeboundary import (
    Cylinder,
    GroupContext,
    MetricSpec,
    QSqrt,
    ReducedWord,
    StepFunction,
    WalkSpec,
    apply_pi,
    green_metric_of_walk,
    inner_product,
    matrix_coefficient,
    ps_measure,
)
import freeboundary.asymptotics as asymptotics
from freeboundary.asymptotics import (
    TestFunction,
    build_partition_weights,
    phi_r_pairs,
    sphere_class_table,
    sphere_sum_sq,
    sphere_weights,
)
from freeboundary.boundary import allowed_children, cylinder_image
from freeboundary.representation import _refine, coefficient_sum, harish_chandra, normalized_coefficient
from freeboundary.words import _hat_prefix, common_prefix_letters, enumerate_annulus, hat_projection

FLOAT_TOL = 1e-12
VALUES = [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7), Fraction(0)]
SETTINGS = dict(derandomize=True, deadline=None, database=None)


def reference(g, v, w, mu):
    return inner_product(apply_pi(g, v, mu), w, mu)


def assert_exact_match(g, v, w, mu):
    got = matrix_coefficient(g, v, w, mu)
    want = reference(g, v, w, mu)
    assert type(got) is type(want), (g, v, w)
    assert got == want, (g, v, w, got, want)


def assert_close(g, v, w, mu):
    got = matrix_coefficient(g, v, w, mu)
    want = reference(g, v, w, mu)
    assert isinstance(got, float)
    assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (g, v, w, got, want)


def pool(k: int):
    """Fixed vectors of depth <= 3: constants, cells with value 0, mixed signs."""
    deep = {2: "abb", 3: "cca"}[k]
    return [
        StepFunction.constant(Fraction(1), k),
        StepFunction.constant(Fraction(0), k),
        StepFunction.indicator("a", k),
        StepFunction.indicator("B", k, Fraction(-3, 2)),
        StepFunction.from_pairs([("ab", Fraction(1)), ("BA", Fraction(-2))], k),
        StepFunction.from_pairs([(deep, Fraction(3, 2)), ("B", Fraction(-1, 3)), ("Aba", Fraction(2, 5))], k,
                                constant=Fraction(1, 7)),
    ]


@pytest.mark.parametrize("k, radius", [(2, 6), (3, 4)])
def test_every_short_word_exact(k, radius):
    mu = ps_measure(GroupContext(MetricSpec.word(k)))
    vectors = pool(k)
    pairs = [(v, w) for v in vectors for w in vectors]
    half = radius // 2
    words = list(enumerate_annulus(half, radius - half, MetricSpec.word(k)))
    assert max(len(g) for g in words) == radius and min(len(g) for g in words) == 0
    for i, g in enumerate(words):
        v, w = pairs[i % len(pairs)]
        assert_exact_match(g, v, w, mu)


RATIONALS = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=12))


@st.composite
def step_vectors(draw, k: int, max_depth: int, values=st.sampled_from(VALUES)):
    """A random disjoint cylinder cover of depth <= max_depth with values
    drawn from ``values`` (VALUES, zeros included, by default); an
    unsplit root is the constant vector."""
    cells = []

    def grow(stem):
        if len(stem) < max_depth and draw(st.booleans()):
            for s in allowed_children(stem, k):
                grow(stem + (s,))
        else:
            cells.append((Cylinder(stem), draw(values)))

    grow(())
    return StepFunction(cells, k)


@st.composite
def reduced_words(draw, k: int, max_len: int):
    letters = []
    for choice in draw(st.lists(st.integers(0, 2 * k - 2), max_size=max_len)):
        options = allowed_children(tuple(letters), k)
        letters.append(options[choice % len(options)])
    return ReducedWord(tuple(letters), _reduced=True)


WORD_MU = {k: ps_measure(GroupContext(MetricSpec.word(k))) for k in (2, 3, 5)}


@settings(max_examples=25, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]))
def test_long_words_exact(data, k):
    g = data.draw(reduced_words(k, 40))
    v = data.draw(step_vectors(k, 2))
    w = data.draw(step_vectors(k, 2))
    assert_exact_match(g, v, w, WORD_MU[k])


@settings(max_examples=15, **SETTINGS)
@given(data=st.data())
def test_perfect_square_growth_rate_exact(data):
    # k = 5: omega = 9, so every QSqrt folds its root part into p
    g = data.draw(reduced_words(5, 6))
    v = data.draw(step_vectors(5, 1))
    w = data.draw(step_vectors(5, 1))
    assert_exact_match(g, v, w, WORD_MU[5])


FLOAT_MU = {
    "weighted": ps_measure(GroupContext(MetricSpec.weighted(2, [1, Fraction(5, 2)]))),
    "green": ps_measure(GroupContext(green_metric_of_walk(WalkSpec.from_generator_probs([Fraction(1, 3), Fraction(1, 6)])))),
}


@settings(max_examples=30, **SETTINGS)
@given(data=st.data(), kind=st.sampled_from(sorted(FLOAT_MU)))
def test_float_metrics_close(data, kind):
    mu = FLOAT_MU[kind]
    g = data.draw(reduced_words(2, 12))
    v = data.draw(step_vectors(2, 3))
    w = data.draw(step_vectors(2, 3))
    assert_close(g, v, w, mu)


@settings(max_examples=40, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]))
def test_rational_vectors_exact(data, k):
    g = data.draw(reduced_words(k, 6))
    v = data.draw(step_vectors(k, 3, RATIONALS))
    w = data.draw(step_vectors(k, 3, RATIONALS))
    assert_exact_match(g, v, w, WORD_MU[k])


def _reference_sphere_sum_sq(v, w, n, ctx):
    """sum over S_n of <pi(g)v, w>^2 with QSqrt coefficients, one per class."""
    total = ctx.mu.zero
    for c, rep in sphere_class_table(n, max(1, v.depth(), w.depth()), ctx.k):
        coef = matrix_coefficient(rep, v, w, ctx.mu)
        total = total + c * (coef * coef)
    return total


def _reference_phi_r_pairs(f1, f2, pairs, weights):
    """Phi_R for every slot combination, each normalized coefficient the
    quotient matrix_coefficient / harish_chandra of two QSqrts (or floats)."""
    d = max(1, f1.boundary.depth(), f2.boundary.depth(), max(max(v.depth(), w.depth()) for v, w in pairs))
    mu = weights.ctx.mu
    out = [[mu.zero for _ in pairs] for _ in pairs]

    def add(g, factor):
        xi = harish_chandra(g, mu)
        ncs = [matrix_coefficient(g, v, w, mu) / xi for v, w in pairs]
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                out[i][j] = out[i][j] + factor * ncs[i] * ncs[j]

    for c, g in weights.class_entries(d):
        mass = Fraction(c, weights.den) if weights.exact else c / weights.den
        add(g, mass * f1.boundary.value_at(hat_projection(g)) * f2.boundary.value_at(hat_projection(~g)))
    for g0 in set(f1.interior) | {~g for g in f2.interior}:
        mass = weights.mass_of(g0)
        if mass:
            base = f1.boundary.value_at(hat_projection(g0)) * f2.boundary.value_at(hat_projection(~g0))
            add(g0, mass * (f1.value_at_group(g0) * f2.value_at_group(~g0) - base))
    return out


WORD_CTX = {k: GroupContext(MetricSpec.word(k)) for k in (2, 3)}


@settings(max_examples=20, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]))
def test_sphere_sum_sq_matches_the_qsqrt_sum(data, k):
    n = data.draw(st.integers(0, {2: 8, 3: 4}[k]))
    v = data.draw(step_vectors(k, 3, RATIONALS))
    w = data.draw(step_vectors(k, 3, RATIONALS))
    assert sphere_sum_sq(v, w, n, WORD_CTX[k]) == _reference_sphere_sum_sq(v, w, n, WORD_CTX[k])


@st.composite
def orth_functions(draw, k: int, radius: int):
    """A test function with a random boundary part of depth <= 2 and
    interior terms on up to two words of length radius (inside the
    support of both weight kinds) and one shorter word."""
    boundary = draw(step_vectors(k, 2, RATIONALS))
    words = [draw(reduced_words(k, radius)) for _ in range(draw(st.integers(0, 3)))]
    words = [g for g in words if len(g) == radius][:2] + words[:1]
    return TestFunction(boundary, {g: draw(RATIONALS) for g in words})


def _weights(kind, radius, ctx):
    return sphere_weights(radius, ctx) if kind == "sphere" else build_partition_weights(radius, ctx)


@settings(max_examples=20, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]), kind=st.sampled_from(["sphere", "shadow"]))
def test_phi_r_pairs_matches_the_qsqrt_quotients(data, k, kind):
    radius = data.draw(st.integers(1, {2: 8, 3: 5}[k]))
    f1, f2 = data.draw(orth_functions(k, radius)), data.draw(orth_functions(k, radius))
    pairs = [(data.draw(step_vectors(k, 2, RATIONALS)), data.draw(step_vectors(k, 2, RATIONALS))) for _ in range(2)]
    weights = _weights(kind, radius, WORD_CTX[k])
    assert phi_r_pairs(f1, f2, pairs, weights) == _reference_phi_r_pairs(f1, f2, pairs, weights)


@settings(max_examples=15, **SETTINGS)
@given(data=st.data())
def test_phi_r_pairs_on_a_weighted_metric_is_the_quotient_within_tolerance(data):
    ctx = GroupContext(MetricSpec.weighted(2, [1, 2]))  # shadows cover its annuli from R = 6 on
    radius = data.draw(st.integers(6, 7))
    f1, f2 = data.draw(orth_functions(2, radius)), data.draw(orth_functions(2, radius))
    pairs = [(data.draw(step_vectors(2, 2, RATIONALS)), data.draw(step_vectors(2, 2, RATIONALS))) for _ in range(2)]
    weights = build_partition_weights(radius, ctx)
    got, want = phi_r_pairs(f1, f2, pairs, weights), _reference_phi_r_pairs(f1, f2, pairs, weights)
    for got_row, want_row in zip(got, want):
        for x, y in zip(got_row, want_row):
            assert isinstance(x, float) and abs(x - y) <= FLOAT_TOL * max(1.0, abs(y)), (x, y)


@settings(max_examples=30, **SETTINGS)
@given(data=st.data(), kind=st.sampled_from(sorted(FLOAT_MU)))
def test_float_normalized_coefficients_close(data, kind):
    mu = FLOAT_MU[kind]
    g = data.draw(reduced_words(2, 12))
    v = data.draw(step_vectors(2, 3, RATIONALS))
    w = data.draw(step_vectors(2, 3, RATIONALS))
    got = normalized_coefficient(g, v, w, mu)
    want = matrix_coefficient(g, v, w, mu) / harish_chandra(g, mu)
    assert isinstance(got, float) and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("base", [3, 5, 9])
def test_qsqrt_rational_operand_matches_general_product(base):
    for x in (QSqrt(Fraction(2, 3), Fraction(-5, 7), base), QSqrt(4, 0, base), QSqrt(0, 1, base)):
        for r in (0, 1, -4, True, Fraction(3, 11)):
            fast = x * r
            general = x * QSqrt(r, 0, base)
            assert (fast.p, fast.q, fast.base) == (general.p, general.q, general.base)
            assert type(fast.p) is Fraction and type(fast.q) is Fraction
            assert r * x == fast


def test_qsqrt_canonical_form_unchanged():
    # perfect-square base: the root part folds into p whatever the input types
    assert (QSqrt(1, 1, 9).p, QSqrt(1, 1, 9).q) == (Fraction(4), Fraction(0))
    assert (QSqrt(Fraction(1, 2), Fraction(1, 3), 9).p, QSqrt(Fraction(1, 2), Fraction(1, 3), 9).q) == (
        Fraction(3, 2),
        Fraction(0),
    )
    x = QSqrt(Fraction(1, 2), 2, 3)
    assert type(x.p) is Fraction and type(x.q) is Fraction and x.q == 2
    assert QSqrt(0, Fraction(1, 2), 9) * Fraction(2) == 3


def exact_depths(k: int):
    """Step vectors of depth exactly 0, 1, 2 and 3, with mixed signs."""
    deep = {2: "abb", 3: "cca"}[k]
    return [
        StepFunction.constant(Fraction(2, 3), k),
        StepFunction.from_pairs([("a", Fraction(-3, 2))], k, constant=Fraction(1, 5)),
        StepFunction.from_pairs([("Ba", Fraction(5, 4)), ("a", Fraction(-1, 3))], k, constant=Fraction(1, 7)),
        StepFunction.from_pairs([(deep, Fraction(3, 2)), ("B", Fraction(-1, 3))], k, constant=Fraction(2, 5)),
    ]


@pytest.mark.parametrize("k, radii", [(2, (2, 5)), (3, (2, 3))])
def test_phi_r_pairs_on_slot_pairs_of_unequal_depths(k, radii):
    # every ordered pair of distinct depths 0..3 in one call, so each entry
    # mixes two slot pairs whose denominators differ
    vs = exact_depths(k)
    pairs = [(vs[a], vs[b]) for a in range(4) for b in range(4) if a != b]
    f1, f2 = TestFunction(vs[1]), TestFunction(vs[2])
    for radius in radii:
        weights = sphere_weights(radius, WORD_CTX[k])
        assert phi_r_pairs(f1, f2, pairs, weights) == _reference_phi_r_pairs(f1, f2, pairs, weights)


@pytest.mark.parametrize("k", [2, 3])
def test_phi_r_pairs_below_the_depth_sum(k):
    # |g| < depth(v) + depth(w): the first and last letters of the key
    # overlap, and a suffix slice g[|g| - depth(v):] with a negative start
    # would key S_2 by its last letter alone when depth(v) = 3; so would
    # the boundary values' key with depth(f1) = 0 and depth(f2) = 3
    vs = exact_depths(k)
    pairs = [(vs[3], vs[0]), (vs[3], vs[2]), (vs[2], vs[3]), (vs[0], vs[3])]
    f1, f2 = TestFunction.one(k), TestFunction(vs[3])
    for radius in range(5):
        weights = sphere_weights(radius, WORD_CTX[k])
        assert phi_r_pairs(f1, f2, pairs, weights) == _reference_phi_r_pairs(f1, f2, pairs, weights)


@pytest.mark.parametrize("k", [2, 3])
def test_phi_r_pairs_on_dense_sweep_families(k):
    # exact supports spread over several word lengths, at whole radii and off them
    h1 = GroupContext(MetricSpec.word(k), rho=1, h=1)
    vs = exact_depths(k)
    pairs = [(vs[2], vs[1]), (vs[0], vs[3]), (vs[1], vs[1])]
    f1, f2 = TestFunction(vs[2]), TestFunction(vs[1])
    spans = []
    for radius in (3, 4, 5, Fraction(11, 2)):
        weights = build_partition_weights(radius, h1)
        spans.append(len({len(w) for w in weights.words}))
        assert phi_r_pairs(f1, f2, pairs, weights) == _reference_phi_r_pairs(f1, f2, pairs, weights)
    assert spans == [1, 3, 2, 2]


def _coefficient_key(g, v, w):
    n = len(g)
    return n, g.letters[: w.depth()], g.letters[max(0, n - v.depth()) :]


@pytest.mark.parametrize("k, max_len", [(2, 7), (3, 5)])
def test_coefficient_sum_depends_only_on_the_key(k, max_len):
    # the key phi_r_pairs computes one coefficient_sum per: |g|, the first
    # depth(w) letters of g and its last depth(v) letters
    vs, mu = exact_depths(k)[:3], WORD_MU[k]
    words = list(enumerate_annulus(0, max_len, MetricSpec.word(k)))
    for v in vs:
        for w in vs:
            seen = {}
            for g in words:
                got = coefficient_sum(g, v, w, mu)[1:]
                assert seen.setdefault(_coefficient_key(g, v, w), got) == got, (g, v, w)
            assert len(seen) < len(words)


def test_the_key_fails_on_a_weighted_metric():
    # letter lengths (1, 2): aaaa and aaba share the key at depth(v) = 1,
    # depth(w) = 0 but not their length in the metric, nor their coefficient,
    # so float measures keep one coefficient per class
    mu = ps_measure(GroupContext(MetricSpec.weighted(2, [1, 2])))
    v, one = StepFunction.indicator("a", 2), StepFunction.constant(Fraction(1), 2)
    g, h = ReducedWord.from_str("aaaa"), ReducedWord.from_str("aaba")
    assert _coefficient_key(g, v, one) == _coefficient_key(h, v, one)
    assert abs(normalized_coefficient(g, v, one, mu) - normalized_coefficient(h, v, one, mu)) > 0.01


@pytest.mark.parametrize("radius", [6, 12, 24])
def test_phi_r_pairs_kernel_calls_do_not_grow_with_the_sphere(monkeypatch, radius):
    # two depth-2 vectors against the constant: 12 last-two-letter keys each
    calls = []

    def counted(*args):
        calls.append(args[0])
        return coefficient_sum(*args)

    monkeypatch.setattr(asymptotics, "coefficient_sum", counted)
    vs, one = exact_depths(2), StepFunction.constant(Fraction(1), 2)
    f = TestFunction.one(2)
    phi_r_pairs(f, f, [(vs[2], one), (StepFunction.indicator("Ba", 2), one)], sphere_weights(radius, WORD_CTX[2]))
    assert len(calls) == 24


# -- the prefix-index kernel against its oracles ------------------------------


@settings(max_examples=20, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]), depth=st.sampled_from([3, 4]))
def test_deep_vectors_on_long_words_exact(data, k, depth):
    # zero cells and an unsplit root come from step_vectors' random splits
    g = data.draw(reduced_words(k, 40))
    v = data.draw(step_vectors(k, depth))
    w = data.draw(step_vectors(k, depth, RATIONALS))
    assert_exact_match(g, v, w, WORD_MU[k])


@settings(max_examples=20, **SETTINGS)
@given(data=st.data(), kind=st.sampled_from(sorted(FLOAT_MU)), depth=st.sampled_from([3, 4]))
def test_deep_vectors_on_long_words_close(data, kind, depth):
    g = data.draw(reduced_words(2, 40))
    v = data.draw(step_vectors(2, depth, RATIONALS))
    w = data.draw(step_vectors(2, depth))
    assert_close(g, v, w, FLOAT_MU[kind])


# (g, a, whether g C_a is a complement): the cell C_a of v meets the tail of g in each way
CANCELLATIONS = {
    "one-letter-of-a-cancels": ("abAb", "BB", False),
    "all-of-a-cancels": ("abAb", "B", True),
    "a-is-g-inverse": ("abAb", "BaBA", True),  # |a| = |g|: the complement of C_a
    "all-of-g-cancels": ("ab", "BAbb", False),  # |a| > |g|
    "nothing-cancels": ("ab", "aab", False),
    "g-is-e": ("", "aB", False),
    "a-is-e": ("abAb", "", False),
}


@pytest.mark.parametrize("case", sorted(CANCELLATIONS))
@pytest.mark.parametrize("k", [2, 3])
def test_cancellation_cases_exact(case, k):
    word, stem, complement = CANCELLATIONS[case]
    g = ReducedWord.from_str(word)
    u, complemented = cylinder_image(g.letters, Cylinder.from_str(stem).stem)
    assert complemented == complement and (u == ()) == (not stem)
    mu = WORD_MU[k]
    v = StepFunction.indicator(stem, k, Fraction(-5, 3)) if stem else StepFunction.constant(Fraction(2, 7), k)
    for w in pool(k) + exact_depths(k) + [StepFunction.indicator(stem or "a", k), StepFunction.indicator("abab", k)]:
        assert_exact_match(g, v, w, mu)
        assert_exact_match(g, w, v, mu)


def _pairwise_coefficient_sum(g, v, w, mu):
    """coefficient_sum by every pair of cells of v and w: C_b inside the
    image of C_a, the image inside C_b, or the two disjoint."""
    gl = g.letters
    length, scale, integral = mu.geodesic_integrals(gl, len(gl) + v.depth() + w.depth())
    v_den, alphas = v.terms(mu.exact)
    w_den, betas = w.terms(mu.exact)

    def cell(c):
        return integral(c, common_prefix_letters(gl, c))

    total = 0
    for (ca, _), alpha in zip(v.cells, alphas):
        u, complemented = cylinder_image(gl, ca.stem)
        for (cb, _), beta in zip(w.cells, betas):
            b = cb.stem
            if not (alpha and beta):
                continue
            if b[: len(u)] == u:  # C_b inside C_u
                if complemented:
                    continue
                part = cell(b)
            elif u[: len(b)] == b:  # C_u strictly inside C_b
                part = cell(b) - cell(u) if complemented else cell(u)
            elif complemented:  # C_b disjoint from C_u
                part = cell(b)
            else:
                continue
            total = total + alpha * beta * part
    return length, total, scale * v_den * w_den


def _full_vector(rng, k, depth):
    """Every cell of the given depth, with random rational values (zeros too)."""
    cells = []

    def grow(stem):
        if len(stem) == depth:
            cells.append((Cylinder(stem), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        else:
            for s in allowed_children(stem, k):
                grow(stem + (s,))

    grow(())
    return StepFunction(cells, k)


def test_108_cell_vectors_match_the_pairwise_kernel():
    rng = random.Random(4)
    mu = WORD_MU[2]
    for trial in range(4):
        v, w = _full_vector(rng, 2, 4), _full_vector(rng, 2, 4)
        assert len(v.cells) == len(w.cells) == 108
        for length in (0, 1, 3, 4, 5, 9, 30):
            letters = ()
            while len(letters) < length:
                letters += (rng.choice(allowed_children(letters, 2)),)
            g = ReducedWord(letters, _reduced=True)
            assert coefficient_sum(g, v, w, mu) == _pairwise_coefficient_sum(g, v, w, mu), (trial, g)
            if length <= 5 and trial == 0:
                assert_exact_match(g, v, w, mu)


@settings(max_examples=25, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]))
def test_homomorphism(data, k):
    # <pi(gh) v, w> = <pi(h) v, pi(g^-1) w>, with the product reduced
    g, h = data.draw(reduced_words(k, 6)), data.draw(reduced_words(k, 6))
    v, w = data.draw(step_vectors(k, 2, RATIONALS)), data.draw(step_vectors(k, 2, RATIONALS))
    mu = WORD_MU[k]
    want = inner_product(apply_pi(h, v, mu), apply_pi(~g, w, mu), mu)
    assert matrix_coefficient(g * h, v, w, mu) == want
    length, total, den = coefficient_sum(g * h, v, w, mu)
    assert mu.sqrt_rn_factor(-length) * Fraction(total, den) == want


# -- step functions built and checked through the prefix index ------------------


def _prune_and_merge(stems, k):
    """The normal form of a union of cylinders by rewriting: drop the stems
    below another stem, then merge complete sibling families upward."""
    pool = set(stems)
    pruned = {w for w in pool if not any(w[:i] in pool for i in range(len(w)))}
    changed = True
    while changed:
        changed = False
        for w in [w for w in pruned if w]:
            siblings = {w[:-1] + (s,) for s in allowed_children(w[:-1], k)}
            if siblings <= pruned:
                pruned = (pruned - siblings) | {w[:-1]}
                changed = True
    return ((),) if () in pruned else tuple(sorted(pruned))


def _walk_complement(stems, k):
    """The stems outside C_stems, by a walk from the root that stops at stems."""
    out = []

    def walk(node):
        if node in stems:
            return
        if not any(w[: len(node)] == node for w in stems):
            out.append(node)
            return
        for s in allowed_children(node, k):
            walk(node + (s,))

    walk(())
    return _prune_and_merge(out, k)


def _cylinder_set_from_pairs(pairs, k, constant):
    """The cells from_pairs built from the rewritten normal form and the walk."""
    cells = [(c, constant + v) for c, v in pairs]
    rest = _walk_complement(_prune_and_merge([c.stem for c, _ in pairs], k), k) if pairs else ((),)
    return cells + [(Cylinder(stem), constant) for stem in rest]


def _pairwise_refusal(cells, k):
    """The refusal of the rewritten cover check and the pairwise overlap check."""
    if _prune_and_merge([c.stem for c, _ in cells], k) != ((),):
        return "cells do not cover the boundary"
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if not cells[i][0].disjoint(cells[j][0]):
                return f"cells {cells[i][0]} and {cells[j][0]} overlap"
    return None


@settings(max_examples=60, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]))
def test_from_pairs_matches_the_cylinder_set_complement(data, k):
    cells = data.draw(step_vectors(k, 3, RATIONALS)).cells
    pairs = [cells[i] for i in sorted(data.draw(st.sets(st.integers(0, len(cells) - 1))))]
    pairs = data.draw(st.permutations(pairs))
    constant = data.draw(RATIONALS)
    assert StepFunction.from_pairs(pairs, k, constant).cells == tuple(_cylinder_set_from_pairs(pairs, k, constant))


@settings(max_examples=80, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]))
def test_validation_refuses_as_the_pairwise_check(data, k):
    # cells of two partitions mixed, some dropped, some repeated: overlaps,
    # gaps and duplicates, alone and together
    first, second = data.draw(step_vectors(k, 3)).cells, data.draw(step_vectors(k, 3)).cells
    pool_cells = list(first) + list(second)
    cells = data.draw(st.lists(st.sampled_from(pool_cells), max_size=12))
    want = _pairwise_refusal(cells, k)
    if want is None:
        StepFunction(cells, k)
    else:
        with pytest.raises(ValueError) as err:
            StepFunction(cells, k)
        assert str(err.value) == want
    pairs = [(c, v) for c, v in cells if c.stem]
    want = _pairwise_refusal(_cylinder_set_from_pairs(pairs, k, Fraction(0)), k)
    if want is None:
        StepFunction.from_pairs(pairs, k)
    else:
        with pytest.raises(ValueError) as err:
            StepFunction.from_pairs(pairs, k)
        assert str(err.value) == want


def _pairwise_refine(a, b):
    for c1, v1 in a:
        for c2, v2 in b:
            if c1.contains(c2):
                yield c2, v1, v2
            elif c2.contains(c1):
                yield c1, v1, v2


@settings(max_examples=40, **SETTINGS)
@given(data=st.data(), k=st.sampled_from([2, 3]))
def test_refinement_is_the_pairwise_sequence(data, k):
    v, w = data.draw(step_vectors(k, 3, RATIONALS)), data.draw(step_vectors(k, 3, RATIONALS))
    assert list(_refine(v.cells, w)) == list(_pairwise_refine(v.cells, w.cells))
    mu = FLOAT_MU["weighted"]
    if k == 2:  # the same sums in the same order: bit-equal floats
        want = mu.zero
        for c, x, y in _pairwise_refine(v.cells, w.cells):
            want = want + x * y * mu.mass(c)
        assert inner_product(v, w, mu) == want
    for c, _ in v.cells + w.cells:
        hat = _hat_prefix(c.stem, v.depth())
        assert v.value_at_hat(c.stem) == next(val for cell, val in v.cells if cell.stem == hat[: len(cell.stem)])
