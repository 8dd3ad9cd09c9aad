import math
import random
from fractions import Fraction

import pytest

from freeboundary import (
    Cylinder,
    GroupContext,
    MetricSpec,
    QSqrt,
    ReducedWord,
    StepFunction,
    apply_pi,
    enumerate_sphere,
    harish_chandra,
    harish_chandra_length,
    inner_product,
    lipschitz_gap,
    matrix_coefficient,
    norm_sq,
    normalized_coefficient,
    ps_measure,
)
from freeboundary.words import canonical_letters

W = ReducedWord.from_str


def closed_form_xi(n: int) -> QSqrt:
    # independent oracle: the level-set sum collapses to
    # omega^(-n/2) * ((2k-1) + (n-1)(k-1)) / k, k = 2
    return QSqrt.root_power(-n, 3) * Fraction(n + 2, 2)


def random_word(rng, lo, hi):
    out = []
    for _ in range(rng.randrange(lo, hi + 1)):
        options = [s for s in canonical_letters(2) if not out or s != out[-1] ^ 1]
        out.append(rng.choice(options))
    return ReducedWord(tuple(out), _reduced=True)


def test_inner_products(word_mu, one, ind_a, ind_b):
    assert inner_product(one, one, word_mu) == 1
    assert inner_product(ind_a, ind_a, word_mu) == Fraction(1, 4)
    assert inner_product(ind_a, ind_b, word_mu) == 0
    assert inner_product(ind_a, one, word_mu) == Fraction(1, 4)


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([(Cylinder.from_str("a"), 1)], 2)  # does not cover
    with pytest.raises(ValueError):
        StepFunction.from_pairs([("a", 1), ("ab", 2)], 2)  # overlapping stems
    # a letter past the rank names no generator: refused by name, not as an overlap or a partial cover
    with pytest.raises(ValueError, match="letter 'c' is outside rank 2"):
        StepFunction.from_pairs([("c", 1)], 2)
    with pytest.raises(ValueError, match="letter 'c' is outside rank 2"):
        StepFunction.indicator("c", 2)
    with pytest.raises(ValueError, match="letter 'C' is outside rank 2"):
        StepFunction.indicator(Cylinder.from_str("aC"), 2)
    with pytest.raises(ValueError, match="letter 'c' is outside rank 2"):
        StepFunction([(Cylinder.from_str("c"), 1), (Cylinder.from_str("a"), 0)], 2)


def test_step_function_value_at():
    v = StepFunction.from_pairs([("a", Fraction(2)), ("bA", Fraction(-1))], 2, constant=Fraction(1, 3))
    from freeboundary import BoundaryPoint

    assert v.value_at(BoundaryPoint.from_str("a|b")) == Fraction(7, 3)
    assert v.value_at(BoundaryPoint.from_str("bA|b")) == Fraction(-2, 3)
    assert v.value_at(BoundaryPoint.from_str("|B")) == Fraction(1, 3)


def test_apply_pi_identity(word_mu, one, ind_a):
    for v in (one, ind_a):
        image = apply_pi(W(""), v, word_mu)
        assert norm_sq(image, word_mu) == norm_sq(v, word_mu)
        assert inner_product(image, v, word_mu) == norm_sq(v, word_mu)


def test_apply_pi_complemented_image_cells(word_mu):
    # a C_A is the complement of C_a: its cells come first, in sorted order, at
    # rn(a, .)^(1/2) = 3^(-1/2) off C_a; then a C_a, a C_b, a C_B, where pi(a) 1_A is 0
    image = apply_pi(W("a"), StepFunction.indicator("A", 2), word_mu)
    off, zero = QSqrt.root_power(-1, 3), QSqrt(0, 0, 3)
    want = [("A", off), ("b", off), ("B", off), ("aa", zero), ("ab", zero), ("aB", zero)]
    assert image.cells == tuple((Cylinder.from_str(stem), val) for stem, val in want)


def test_apply_pi_constant_values(word_mu, one):
    image = apply_pi(W("a"), one, word_mu)
    root3 = QSqrt.root_power(1, 3)
    for cyl, val in image.cells:
        if cyl.stem[:1] == W("a").letters:
            assert val == root3
        else:
            assert val == QSqrt.root_power(-1, 3)


def test_unitarity_exact(word_mu, one, ind_a):
    rng = random.Random(0)
    mixed = StepFunction.from_pairs(
        [("ab", Fraction(3, 2)), ("B", Fraction(-1, 3)), ("Ab", Fraction(2))], 2, constant=Fraction(1, 7)
    )
    for v in (one, ind_a, mixed):
        base = norm_sq(v, word_mu)
        for _ in range(25):
            g = random_word(rng, 0, 6)
            assert norm_sq(apply_pi(g, v, word_mu), word_mu) == base


def test_unitarity_norm_examples(word_mu):
    ind_b = StepFunction.indicator("b", 2)
    ind_ab = StepFunction.indicator("ab", 2)
    g = W("ab")
    assert norm_sq(apply_pi(g, ind_b, word_mu), word_mu) == Fraction(1, 4)
    assert norm_sq(apply_pi(g, ind_ab, word_mu), word_mu) == Fraction(1, 12)


def test_representation_property(word_mu):
    rng = random.Random(1)
    v = StepFunction.from_pairs([("a", Fraction(1)), ("bb", Fraction(-2))], 2, constant=Fraction(1, 2))
    for _ in range(20):
        g = random_word(rng, 0, 4)
        h = random_word(rng, 0, 4)
        x = apply_pi(g, apply_pi(h, v, word_mu), word_mu)
        y = apply_pi(g * h, v, word_mu)
        gap = norm_sq(x, word_mu) + norm_sq(y, word_mu) - 2 * inner_product(x, y, word_mu)
        assert gap == 0


def test_matrix_coefficient_examples(word_mu, one, ind_b):
    assert matrix_coefficient(W(""), ind_b, one, word_mu) == inner_product(ind_b, one, word_mu)
    # support analysis: pi(a) 1_{C_b} is carried by C_ab
    assert matrix_coefficient(W("a"), ind_b, one, word_mu) == QSqrt(0, Fraction(1, 12), 3)
    assert matrix_coefficient(W("a"), ind_b, StepFunction.indicator("ab", 2), word_mu) == QSqrt(0, Fraction(1, 12), 3)
    # the two supports C_ab and C_b are disjoint
    assert matrix_coefficient(W("a"), ind_b, ind_b, word_mu) == 0


def test_conjugate_symmetry(word_mu, one, ind_a):
    rng = random.Random(2)
    v = StepFunction.from_pairs([("a", Fraction(2)), ("Ba", Fraction(1, 3))], 2)
    for _ in range(30):
        g = random_word(rng, 0, 5)
        assert matrix_coefficient(g, v, ind_a, word_mu) == matrix_coefficient(~g, ind_a, v, word_mu)


def test_harish_chandra_values(word_mu):
    assert harish_chandra(W(""), word_mu) == 1
    assert harish_chandra(W("a"), word_mu) == QSqrt(0, Fraction(1, 2), 3)
    assert harish_chandra(W("ab"), word_mu) == Fraction(2, 3)


def test_harish_chandra_depends_on_length_only(word_mu):
    rng = random.Random(3)
    for _ in range(20):
        g = random_word(rng, 1, 7)
        assert harish_chandra(g, word_mu) == closed_form_xi(len(g))


def test_harish_chandra_closed_form(word_mu):
    for n in range(21):
        assert harish_chandra_length(n, word_mu) == closed_form_xi(n)


@pytest.mark.parametrize("k", [2, 3])
def test_harish_chandra_closed_form_is_the_kernel(k):
    # the closed form against the coefficient kernel at v = w = 1, on
    # every word of length <= 6
    metric = MetricSpec.word(k)
    mu = ps_measure(GroupContext(metric))
    one = StepFunction.constant(Fraction(1), k)
    for n in range(7):
        for g in enumerate_sphere(n, metric):
            assert matrix_coefficient(g, one, one, mu) == harish_chandra(g, mu), g


def test_harish_chandra_symmetry(word_mu):
    rng = random.Random(4)
    for _ in range(20):
        g = random_word(rng, 0, 6)
        assert harish_chandra(g, word_mu) == harish_chandra(~g, word_mu)


def test_harish_chandra_two_sided_bracket(word_mu):
    ratios = []
    for n in range(21):
        xi = float(harish_chandra_length(n, word_mu))
        ratios.append(xi * 3 ** (n / 2) / (1 + n))
    c1, c2 = min(ratios), max(ratios)
    assert c1 > 0.5 and c2 <= 1.0  # measured bracket [8/15 -> 1/2+, 1]
    assert abs(ratios[-1] - (20 + 2) / (2 * 21)) < 1e-12


def test_normalized_coefficient(word_mu, one, ind_b):
    assert normalized_coefficient(W("bA"), one, one, word_mu) == 1
    v = StepFunction.from_pairs([("a", Fraction(2))], 2)
    assert normalized_coefficient(W(""), v, ind_b, word_mu) == inner_product(v, ind_b, word_mu)
    assert normalized_coefficient(W("a"), ind_b, one, word_mu) == Fraction(1, 6)


def test_normalized_coefficient_weighted(weighted_mu):
    one = StepFunction.constant(1.0, 2)
    val = normalized_coefficient(W("ab"), one, one, weighted_mu)
    assert abs(val - 1.0) < 1e-12


def test_lipschitz_gap(word_mu, one, ind_a):
    for g in (W(""), W("ab"), W("bbb")):
        assert lipschitz_gap(g, one, one, word_mu) == 0
    D = math.log(3)
    for n in (2, 5, 9, 12):
        g = W("b" * n)
        gap = lipschitz_gap(g, ind_a, ind_a, word_mu)
        assert gap <= 2.0 * (1 + n) ** (-1 / D)
    # a case with a genuinely nonzero gap, still within the decay bound
    for n in (3, 6, 12):
        g = W("a" + "b" * (n - 1))
        gap = lipschitz_gap(g, ind_a, ind_a, word_mu)
        assert 0 < gap <= 2.0 * (1 + n) ** (-1 / D)


def test_exactness_backend_threading(word_mu, ind_a):
    # coefficients stay inside Q(sqrt(3)): parity of |g| decides the part
    for gs, rational in [("ab", True), ("a", False), ("aba", False), ("abab", True)]:
        val = matrix_coefficient(W(gs), ind_a, ind_a, word_mu)
        if isinstance(val, QSqrt):
            assert (val.q == 0) == rational
