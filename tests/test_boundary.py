import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeboundary import (
    BoundaryPoint,
    Cylinder,
    GroupContext,
    MetricSpec,
    ReducedWord,
    boundary_gromov,
    cylinder_image,
    enumerate_annulus,
    hat_projection,
    shadow_pair,
    visual_distance,
)
from freeboundary.boundary import _prefix_index, _uncovered, ball_cylinder
from freeboundary.measures import WalkSpec, green_metric_of_walk
from freeboundary.words import canonical_letters, invert_letters, reduce_letters

W = ReducedWord.from_str
P = BoundaryPoint.from_str
WORD = MetricSpec.word(2)
CTX = GroupContext(MetricSpec.word(2))


def seeded_points(depth=3, k=2):
    """Boundary points of F_k with every stem of length <= depth and a canonical tail."""
    return [hat_projection(g) for d in range(depth + 1) for g in enumerate_annulus(d, 0, MetricSpec.word(k))]


def test_canonical_form():
    a, _, b, _ = canonical_letters(2)
    assert str(BoundaryPoint((a, b, b), (b,))) == "a|b"
    assert str(BoundaryPoint((), (a, b, a, b))) == "|ab"
    assert str(BoundaryPoint((a,), (b, a))) == "|ab"
    assert P("ab|ab") == P("|ab")
    assert P("e|a") == P("|a")


def test_invalid_points_rejected():
    a, A, b, _ = canonical_letters(2)
    with pytest.raises(ValueError):
        BoundaryPoint((a,), ())  # empty period
    with pytest.raises(ValueError):
        BoundaryPoint((a,), (A,))  # preperiod-period junction cancels
    with pytest.raises(ValueError):
        BoundaryPoint((), (a, A))  # period not reduced
    with pytest.raises(ValueError):
        BoundaryPoint((), (a, b, A))  # period-period junction cancels


def test_letters_and_prefixes():
    xi = P("aB|Ab")
    assert xi.prefix_letters(6) == W("aBAbAb").letters
    assert xi.letter_at(0) == W("a").letters[0] and xi.letter_at(3) == W("b").letters[0]


def test_boundary_gromov_examples():
    assert boundary_gromov(P("|a"), P("ab|b"), WORD) == 1
    xi = P("aB|a")
    assert boundary_gromov(xi, xi, WORD) == math.inf
    assert boundary_gromov(W("ab"), P("|a"), WORD) == 1


def test_boundary_point_equality_across_representations():
    assert boundary_gromov(P("a|ba"), P("|ab"), WORD) == math.inf
    assert P("a|ba") == P("|ab")
    assert P("a|b") != P("a|B")


def test_visual_metric():
    ctx = CTX
    assert visual_distance(P("|a"), P("|a"), ctx) == 0.0
    assert visual_distance(P("|a"), P("|b"), ctx) == 1.0
    assert visual_distance(P("a|b"), P("aB|a"), ctx) == math.exp(-1)


def test_visual_ultrametric():
    pts = seeded_points()
    rng = random.Random(0)
    for _ in range(300):
        x, y, z = rng.sample(pts, 3)
        dxz = visual_distance(x, z, CTX)
        assert dxz <= max(visual_distance(x, y, CTX), visual_distance(y, z, CTX)) + 1e-15


def test_hat_projection_is_continuous():
    # along a prefix sequence the projections' products with the limit grow
    target = P("a|b")
    prods = [
        boundary_gromov(hat_projection(ReducedWord(target.prefix_letters(n))), target, WORD)
        for n in range(1, 8)
    ]
    assert prods == sorted(prods) and prods[-1] >= 6


def in_image(image, xi):
    """xi lies in the image (u, complemented) of cylinder_image: in C_u, or outside it."""
    stem, complemented = image
    return Cylinder(stem).contains_point(xi) != complemented


def translate_image(g, image):
    """g applied to C_u or to its complement: the image of C_u, complemented once more."""
    stem, complemented = image
    u, flip = cylinder_image(g.letters, stem)
    return u, flip != complemented


def test_translate_cylinder_examples():
    assert cylinder_image(W("a").letters, W("b").letters) == (W("ab").letters, False)
    # a C_A is the complement of C_a
    assert cylinder_image(W("a").letters, W("A").letters) == (W("a").letters, True)
    assert cylinder_image(W("ba").letters, ()) == ((), False)


def test_translate_membership_oracle():
    # g xi lies in g C_w exactly when xi lies in C_w, over a dense sample
    pts = seeded_points()
    words = [W("a"), W("A"), W("ba"), W("aB"), W("bAb")]
    for w in ("e", "a", "ab", "B", "ba", "bAb"):
        c = Cylinder.from_str(w)
        for g in words:
            image = cylinder_image(g.letters, c.stem)
            for xi in pts:
                assert in_image(image, xi.translate(g)) == c.contains_point(xi)


def test_translate_is_an_action():
    rng = random.Random(2)
    for w in ("ab", "B"):
        stem = W(w).letters
        for _ in range(40):
            g = W("".join(rng.choice("abAB") for _ in range(3)))
            h = W("".join(rng.choice("abAB") for _ in range(3)))
            assert translate_image(g, cylinder_image(h.letters, stem)) == cylinder_image((g * h).letters, stem)
        assert cylinder_image((), stem) == (stem, False)


def test_translate_preserves_complements():
    # the images of the cells outside C_ab cover exactly the points outside g C_ab, once each
    k = 2
    g = W("bA")
    image = cylinder_image(g.letters, W("ab").letters)
    outside = [cylinder_image(g.letters, stem) for stem in _uncovered(_prefix_index([W("ab").letters]), k)]
    for xi in seeded_points(4):
        assert sum(in_image(part, xi) for part in outside) == (not in_image(image, xi))


def reduced_letters(k, max_len):
    return st.lists(st.sampled_from(canonical_letters(k)), max_size=max_len).map(reduce_letters)


POINTS = {k: seeded_points(3, k) for k in (2, 3)}


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_translate_as_an_action_on_points(data, k):
    # the stem may cancel into h's tail and g into h's head, so complemented images are common
    h = data.draw(reduced_letters(k, 6))
    inverse = invert_letters(h)
    stem = reduce_letters(inverse[: data.draw(st.integers(0, len(h)))] + data.draw(reduced_letters(k, 3)))
    g = ReducedWord(data.draw(reduced_letters(k, 4)) + inverse[len(h) - data.draw(st.integers(0, len(h))) :])
    h = ReducedWord(h)
    image_h = cylinder_image(h.letters, stem)
    image_gh = cylinder_image((g * h).letters, stem)
    assert translate_image(g, image_h) == image_gh
    for xi in POINTS[k]:
        inside = Cylinder(stem).contains_point(xi)
        h_xi = xi.translate(h)
        gh_xi = h_xi.translate(g)
        assert gh_xi == xi.translate(g * h)
        assert in_image(image_h, h_xi) == inside
        assert in_image(translate_image(g, image_h), gh_xi) == inside
        assert in_image(image_gh, gh_xi) == inside


def test_shadow_pair_examples():
    ctx0 = GroupContext(MetricSpec.word(2), rho=0)
    rect = shadow_pair(W("abab"), ctx0)
    assert rect.first == Cylinder.from_str("ab")
    assert rect.second == Cylinder.from_str("BA")
    rect_e = shadow_pair(W(""), ctx0)
    assert rect_e.first.is_all and rect_e.second.is_all
    rect2 = shadow_pair(W("aa"), ctx0)
    assert rect2.first == Cylinder.from_str("a")
    assert rect2.second == Cylinder.from_str("A")
    # |g| < 2 rho degenerates to the full square
    big_rho = GroupContext(MetricSpec.word(2), rho=3)
    rect3 = shadow_pair(W("ab"), big_rho)
    assert rect3.first.is_all and rect3.second.is_all


def test_shadow_contains_its_center():
    rng = random.Random(3)
    ctx = GroupContext(MetricSpec.word(2), rho=1)
    for _ in range(50):
        g = ReducedWord(hat_projection(W("")).prefix_letters(0))
        n = rng.randrange(2, 9)
        letters = []
        for _ in range(n):
            options = [s for s in canonical_letters(2) if not letters or s != letters[-1] ^ 1]
            letters.append(rng.choice(options))
        g = ReducedWord(tuple(letters), _reduced=True)
        rect = shadow_pair(g, ctx)
        assert rect.contains_pair(hat_projection(g), hat_projection(~g))


def _ball_by_definition(xi, t, m):
    """B(xi, e^(-eps*t)) is the set of eta with (xi, eta) >= t: the cylinder
    of the shortest prefix u of xi with metric length |u| >= t."""
    n = 0
    while m.length_of(xi.prefix_letters(n)) < t:
        n += 1
    return Cylinder(xi.prefix_letters(n))


@pytest.mark.parametrize(
    "metric, r_max",
    [
        (MetricSpec.word(2), 6),
        (MetricSpec.word(3), 4),
        (MetricSpec.weighted(2, [1, Fraction(4, 3)]), 4),
        (MetricSpec.weighted(2, [1, 2]), 5),
        (green_metric_of_walk(WalkSpec.from_generator_probs([Fraction(1, 5), Fraction(3, 10)])), 5),
    ],
    ids=["word2", "word3", "weighted_4_3", "weighted_2", "green"],
)
def test_shadow_pair_is_the_ball_pair_of_hat_and_check(metric, r_max):
    """shadow_pair cuts g and g^-1 directly; the oracle cuts the boundary
    points hat(g) and check(g), both through ball_cylinder and from the
    definition, with the same t (floats included) and exact equality."""
    for rho in (0, Fraction(1, 2), 1, 3):
        ctx = GroupContext(metric, rho=rho)
        for R in range(r_max + 1):
            for g in enumerate_annulus(R, ctx.h, metric):
                length = metric.length_of(g.letters)
                t = length / 2.0 - float(rho) if metric.kind == "green" else Fraction(length, 2) - rho
                rect = shadow_pair(g, ctx)
                for cyl, xi in ((rect.first, hat_projection(g)), (rect.second, hat_projection(~g))):
                    assert cyl == ball_cylinder(xi, t, metric) == _ball_by_definition(xi, t, metric), (g, rho)


CUT_CONTEXTS = [
    GroupContext(m)
    for m in (
        MetricSpec.word(2),
        MetricSpec.weighted(2, [1, Fraction(4, 3)]),
        MetricSpec.weighted(2, [1, Fraction(15, 11)]),
        MetricSpec.weighted(2, [1, Fraction(19, 14)]),
        MetricSpec.weighted(3, [1, Fraction(3, 2), Fraction(5, 2)]),
        green_metric_of_walk(WalkSpec.from_generator_probs([Fraction(1, 8), Fraction(3, 8)])),
    )
]


def reference_stem(letters, rho, m):
    """The shortest prefix reaching |g|/2 - rho: Fraction sums of the
    letter lengths, or the float sums and target for Green."""
    if m.kind == "green":
        total = 0
        for s in letters:
            total += m.letter_length(s)
        t, length = total / 2.0 - float(rho), 0
    else:
        t = sum((Fraction(m.letter_length(s)) for s in letters), Fraction(0)) / 2 - Fraction(rho)
        length = Fraction(0)
    n = 0
    while length < t:
        length += m.letter_length(letters[n])
        n += 1
    return letters[:n]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(CUT_CONTEXTS),
    st.sampled_from([0, Fraction(1, 2), 1, Fraction(3, 2), 2, 0.3]),
    st.data(),
)
def test_shadow_pair_matches_the_fraction_cut(ctx, rho, data):
    """The integer cut 2*den*P >= den*L - 2*scale*num picks the stems of
    the Fraction cut P >= |g|/2 - rho (the float cut for Green)."""
    m = ctx.metric
    raw = data.draw(st.lists(st.sampled_from(canonical_letters(m.k)), max_size=10))
    g = ReducedWord(reduce_letters(raw), _reduced=True)
    rect = shadow_pair(g, ctx.with_rho(rho))
    assert rect.first.stem == reference_stem(g.letters, rho, m)
    assert rect.second.stem == reference_stem((~g).letters, rho, m)


@pytest.mark.parametrize("kwargs", [{"rho": -1}, {"rho": Fraction(-1, 2)}, {"h": -1}, {"epsilon": 0}, {"epsilon": -1}])
def test_context_refuses_out_of_range_parameters(kwargs):
    with pytest.raises(ValueError):
        GroupContext(MetricSpec.word(2), **kwargs)


def test_with_rho_shares_the_measure():
    ctx = GroupContext(MetricSpec.weighted(2, [1, 2]))
    other = ctx.with_rho(Fraction(5, 2))
    assert other.rho == Fraction(5, 2) and ctx.rho == 1
    assert other.mu is ctx.mu and other.alpha == ctx.alpha and other.h == ctx.h
    with pytest.raises(ValueError):
        ctx.with_rho(-1)


def test_ball_cylinder_weighted_rounding():
    m = MetricSpec.weighted(2, [1, 2])
    xi = P("ab|a")  # prefix lengths 1, 3, 4, ...
    assert ball_cylinder(xi, Fraction(1, 2), m) == Cylinder.from_str("a")
    assert ball_cylinder(xi, 1, m) == Cylinder.from_str("a")
    assert ball_cylinder(xi, Fraction(3, 2), m) == Cylinder.from_str("ab")
    assert ball_cylinder(xi, 3, m) == Cylinder.from_str("ab")
    assert ball_cylinder(xi, 0, m).is_all


def test_gromov_equivariance_bound():
    pts = seeded_points()
    rng = random.Random(4)
    for _ in range(100):
        xi, eta = rng.sample(pts, 2)
        n = rng.randrange(0, 4)
        letters = []
        for _ in range(n):
            options = [s for s in canonical_letters(2) if not letters or s != letters[-1] ^ 1]
            letters.append(rng.choice(options))
        g = ReducedWord(tuple(letters), _reduced=True)
        before = boundary_gromov(xi, eta, WORD)
        after = boundary_gromov(xi.translate(g), eta.translate(g), WORD)
        if before is not math.inf:
            assert abs(after - before) <= len(g)
