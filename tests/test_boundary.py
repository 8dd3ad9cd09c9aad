import math
import random
from fractions import Fraction

import pytest

from freeboundary import (
    BoundaryPoint,
    Cylinder,
    CylinderSet,
    GroupContext,
    MetricSpec,
    ReducedWord,
    boundary_gromov,
    enumerate_annulus,
    hat_projection,
    retract,
    shadow_pair,
    translate_cylinder_set,
    visual_distance,
)
from freeboundary.boundary import ball_cylinder, translate_cylinder
from freeboundary.measures import WalkSpec, green_metric_of_walk
from freeboundary.words import canonical_letters

W = ReducedWord.from_str
P = BoundaryPoint.from_str
WORD = MetricSpec.word(2)
CTX = GroupContext(MetricSpec.word(2))


def seeded_points(depth=3):
    """Boundary points with every depth<=3 stem and a canonical tail."""
    out = []
    from freeboundary import enumerate_annulus

    for d in range(depth + 1):
        for g in enumerate_annulus(d, 0, WORD):
            out.append(hat_projection(g))
    return out


def test_canonical_form():
    assert str(BoundaryPoint((1, 2, 2), (2,))) == "a|b"
    assert str(BoundaryPoint((), (1, 2, 1, 2))) == "|ab"
    assert str(BoundaryPoint((1,), (2, 1))) == "|ab"
    assert P("ab|ab") == P("|ab")
    assert P("e|a") == P("|a")


def test_invalid_points_rejected():
    with pytest.raises(ValueError):
        BoundaryPoint((1,), ())  # empty period
    with pytest.raises(ValueError):
        BoundaryPoint((1,), (-1,))  # preperiod-period junction cancels
    with pytest.raises(ValueError):
        BoundaryPoint((), (1, -1))  # period not reduced
    with pytest.raises(ValueError):
        BoundaryPoint((), (1, 2, -1))  # period-period junction cancels


def test_letters_and_prefixes():
    xi = P("aB|Ab")
    assert xi.prefix_letters(6) == (1, -2, -1, 2, -1, 2)
    assert xi.letter_at(0) == 1 and xi.letter_at(3) == 2


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


def test_retract():
    assert retract(W("ab")) == P("ab|b")
    xi = P("b|Ab")
    assert retract(xi) is xi
    # continuity along a prefix sequence: products with the limit grow
    target = P("a|b")
    prods = [
        boundary_gromov(retract(ReducedWord(target.prefix_letters(n))), target, WORD)
        for n in range(1, 8)
    ]
    assert prods == sorted(prods) and prods[-1] >= 6


def test_translate_cylinder_examples():
    k = 2
    assert translate_cylinder(W("a"), Cylinder.from_str("b"), k) == CylinderSet.of(
        Cylinder.from_str("ab"), k
    )
    image = translate_cylinder(W("a"), Cylinder.from_str("A"), k)
    assert image == CylinderSet.of(Cylinder.from_str("a"), k).complement()
    assert translate_cylinder(W("ba"), Cylinder(()), k).is_all


def test_translate_membership_oracle():
    # g xi lies in g S exactly when xi lies in S, over a dense sample
    k = 2
    pts = seeded_points()
    rng = random.Random(1)
    sets = [
        CylinderSet.of(Cylinder.from_str("a"), k),
        CylinderSet([Cylinder.from_str("ab"), Cylinder.from_str("B")], k),
        CylinderSet.of(Cylinder.from_str("ba"), k).complement(),
    ]
    words = [W("a"), W("A"), W("ba"), W("aB"), W("bAb")]
    for S in sets:
        for g in words:
            gS = translate_cylinder_set(g, S)
            for xi in pts:
                assert gS.contains_point(xi.translate(g)) == S.contains_point(xi)


def test_translate_is_an_action():
    k = 2
    S = CylinderSet([Cylinder.from_str("ab"), Cylinder.from_str("B")], k)
    rng = random.Random(2)
    letters = canonical_letters(k)
    for _ in range(40):
        g = W("".join(rng.choice("abAB") for _ in range(3)))
        h = W("".join(rng.choice("abAB") for _ in range(3)))
        assert translate_cylinder_set(g, translate_cylinder_set(h, S)) == translate_cylinder_set(g * h, S)
    assert translate_cylinder_set(W(""), S) == S


def test_translate_preserves_complements():
    k = 2
    S = CylinderSet([Cylinder.from_str("ab")], k)
    g = W("bA")
    assert translate_cylinder_set(g, S.complement()) == translate_cylinder_set(g, S).complement()


def test_normalization_merges_and_absorbs():
    k = 2
    whole = CylinderSet(
        [Cylinder.from_str(s) for s in ("a", "A", "b", "B")], k
    )
    assert whole.is_all
    nested = CylinderSet([Cylinder.from_str("a"), Cylinder.from_str("ab")], k)
    assert nested == CylinderSet.of(Cylinder.from_str("a"), k)
    # complete sibling family below a stem merges up
    sibs = CylinderSet([Cylinder.from_str("a" + c) for c in ("a", "b", "B")], k)
    assert sibs == CylinderSet.of(Cylinder.from_str("a"), k)


def test_complement_roundtrip():
    k = 2
    S = CylinderSet([Cylinder.from_str("ab"), Cylinder.from_str("B")], k)
    assert S.complement().complement() == S
    assert CylinderSet.whole(k).complement().is_empty


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
            options = [s for s in canonical_letters(2) if not letters or s != -letters[-1]]
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


@pytest.mark.parametrize("kwargs", [{"rho": -1}, {"rho": Fraction(-1, 2)}, {"h": -1}, {"epsilon": 0}, {"epsilon": -1}])
def test_context_refuses_out_of_range_parameters(kwargs):
    with pytest.raises(ValueError):
        GroupContext(MetricSpec.word(2), **kwargs)


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
            options = [s for s in canonical_letters(2) if not letters or s != -letters[-1]]
            letters.append(rng.choice(options))
        g = ReducedWord(tuple(letters), _reduced=True)
        before = boundary_gromov(xi, eta, WORD)
        after = boundary_gromov(xi.translate(g), eta.translate(g), WORD)
        if before is not math.inf:
            assert abs(after - before) <= len(g)
