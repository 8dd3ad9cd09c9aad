import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeboundary import (
    GroupContext,
    MetricSpec,
    ReducedWord,
    enumerate_annulus,
    enumerate_sphere,
    gromov_product,
    hat_projection,
    metric_length,
    sphere_size,
    translation_length,
)
from freeboundary.words import (
    canonical_letters,
    check_rank,
    invert_letters,
    letter_from_str,
    letter_to_str,
    multiply_letters,
    reduce_letters,
)

W = ReducedWord.from_str
WORD = MetricSpec.word(2)
WEIGHTED = MetricSpec.weighted(2, [1, 2])


def random_word(rng, max_len):
    letters = canonical_letters(2)
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        options = [s for s in letters if not out or s != out[-1] ^ 1]
        out.append(rng.choice(options))
    return ReducedWord(tuple(out), _reduced=True)


def brute_words_up_to(max_len):
    """Independent generator of all reduced words: filter raw products."""
    letters = canonical_letters(2)
    out = [()]
    for n in range(1, max_len + 1):
        for raw in itertools.product(letters, repeat=n):
            if all(raw[i] != raw[i + 1] ^ 1 for i in range(n - 1)):
                out.append(raw)
    return out


def _signed_letters(k):
    """Code -> the letter's former signed form: +i for a_i, -i for its inverse."""
    return {2 * (i - 1) + inverse: -i if inverse else i for i in range(1, k + 1) for inverse in (0, 1)}


def _signed_reduce(seq):
    out = []
    for s in seq:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


@st.composite
def coded_words(draw):
    """(k, reduced words of codes) at ranks 2..5."""
    k = draw(st.integers(2, 5))
    word = st.lists(st.integers(0, 2 * k - 1), max_size=6).map(reduce_letters)
    return k, draw(st.lists(word, min_size=1, max_size=8))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(coded_words())
def test_letter_codes_match_signed_letters(case):
    """Mapped back to signed letters, the codes keep the canonical order
    (|s|, sign), invert by c ^ 1 and multiply as signed words do."""
    k, words = case
    signed = _signed_letters(k)

    def old(w):
        return tuple(signed[c] for c in w)

    assert sorted(signed) == list(canonical_letters(k))
    assert all(signed[c ^ 1] == -signed[c] for c in signed)
    assert sorted(words) == sorted(words, key=lambda w: [(abs(s), s < 0) for s in old(w)])
    for u in words:
        assert old(invert_letters(u)) == tuple(-s for s in reversed(old(u)))
        for v in words:
            assert old(multiply_letters(u, v)) == _signed_reduce(old(u) + old(v))
            assert old(reduce_letters(u + v)) == _signed_reduce(old(u + v))


_rank3_word = st.lists(st.integers(0, 5), max_size=8).map(reduce_letters)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_rank3_word, _rank3_word, _rank3_word)
def test_multiply_letters_group_laws(x, y, z):
    """multiply_letters is the group law of F_3 on reduced words: the reduced
    concatenation, associative, with identity () and inverse invert_letters."""
    assert multiply_letters(x, y) == reduce_letters(x + y)
    assert multiply_letters(multiply_letters(x, y), z) == multiply_letters(x, multiply_letters(y, z))
    assert multiply_letters((), x) == x == multiply_letters(x, ())
    assert multiply_letters(x, invert_letters(x)) == () == multiply_letters(invert_letters(x), x)


def test_letter_text_round_trips_to_rank_26():
    signed = _signed_letters(26)
    for c, s in signed.items():
        text = chr(ord("a") + abs(s) - 1)
        assert letter_to_str(c) == (text if s > 0 else text.upper())
        assert letter_from_str(letter_to_str(c)) == c
    for bad in ("1", "_", "é"):
        with pytest.raises(ValueError, match="invalid letter"):
            letter_from_str(bad)


@pytest.mark.parametrize("text", ["ab", "", "aB", "1a"])
def test_letter_from_str_refuses_text_that_is_not_one_letter(text):
    with pytest.raises(ValueError, match=f"invalid letter {text!r}"):
        letter_from_str(text)


def test_letter_tuples_hash_apart():
    # signed letters hash -1 and -2 alike: 11,235 distinct hashes on this sphere
    words = [g.letters for g in enumerate_sphere(9, WORD)]
    assert len({hash(w) for w in words}) == len(words) == 26_244


def test_old_signed_letters_are_refused():
    check_rank((0, 1, 2, 3), 2)
    with pytest.raises(ValueError, match="letter 'c' is outside rank 2"):
        check_rank((0, 4), 2)
    with pytest.raises(ValueError, match="letter -1 is outside rank 2"):
        check_rank((0, -1), 2)
    with pytest.raises(ValueError, match="letter -2 is negative"):
        ReducedWord((1, -2))
    assert ReducedWord((0, 2, 3, 1)) == ReducedWord(())
    assert ReducedWord((1, 2), _reduced=True).letters == (1, 2)


def test_multiply_examples():
    assert W("ab") * W("Ba") == W("aa")
    assert W("a") * W("A") == W("")
    assert W("ab") * W("ba") == W("abba")


def test_invert_examples():
    assert ~W("ab") == W("BA")
    assert ~W("") == W("")
    assert ~W("aaB") == W("bAA")


def test_group_laws_random():
    rng = random.Random(0)
    for _ in range(200):
        u, v, w = (random_word(rng, 12) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * ~u == ReducedWord(())
        assert ~(u * v) == ~v * ~u
        assert ~~u == u


def test_metric_length():
    assert metric_length(W("ab"), WORD) == 2
    assert metric_length(W("ab"), WEIGHTED) == 3
    walk_len = metric_length(W("a"), _green_simple())
    assert abs(walk_len - math.log(3)) < 1e-12


def _green_simple():
    from freeboundary import WalkSpec, green_metric_of_walk

    return green_metric_of_walk(WalkSpec.simple(2))


def test_gromov_product_examples():
    assert gromov_product(W("ab"), W("aB"), WORD) == 1
    g = W("bAb")
    assert gromov_product(g, g, WORD) == metric_length(g, WORD)
    assert gromov_product(W("ab"), W("ab"), WEIGHTED) == 3


def test_gromov_product_defining_formula():
    rng = random.Random(1)
    for m in (WORD, WEIGHTED):
        for _ in range(100):
            x, y = random_word(rng, 10), random_word(rng, 10)
            d = metric_length(~x * y, m)
            direct = Fraction(metric_length(x, m) + metric_length(y, m) - d, 2)
            assert gromov_product(x, y, m) == direct


def test_tree_is_zero_hyperbolic():
    rng = random.Random(2)
    for m in (WORD, WEIGHTED):
        for _ in range(200):
            x, y, z = (random_word(rng, 10) for _ in range(3))
            assert gromov_product(x, y, m) >= min(
                gromov_product(x, z, m), gromov_product(z, y, m)
            )


def test_sphere_enumeration_small():
    s1 = list(enumerate_sphere(1, WORD))
    assert [str(g) for g in s1] == ["a", "A", "b", "B"]
    assert len(list(enumerate_sphere(2, WORD))) == 12
    # closed interval [R-h, R+h]: lengths 2, 3 and 4
    annulus = list(enumerate_annulus(3, 1, WORD))
    assert sorted(set(len(g) for g in annulus)) == [2, 3, 4]
    assert len(annulus) == 12 + 36 + 108


def test_sphere_matches_brute_force():
    brute = brute_words_up_to(5)
    for n in range(6):
        expected = sorted(w for w in brute if len(w) == n)
        got = sorted(g.letters for g in enumerate_sphere(n, WORD))
        assert got == expected
        assert len(got) == sphere_size(n, 2)


def test_enumeration_canonical_order():
    for n in (2, 3):
        seq = [g.letters for g in enumerate_sphere(n, WORD)]
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)


def test_weighted_annulus_matches_brute_force():
    brute = brute_words_up_to(6)
    for (R, h) in [(3, 0), (4, 1), (5, Fraction(3, 2))]:
        expected = sorted(
            w for w in brute if R - h <= WEIGHTED.length_of(w) <= R + h
        )
        got = sorted(g.letters for g in enumerate_annulus(R, h, WEIGHTED))
        assert got == expected


ORACLE_METRICS = [
    MetricSpec.weighted(2, [1, Fraction(4, 3)]),
    MetricSpec.weighted(2, [1, Fraction(15, 11)]),
    MetricSpec.weighted(2, [1, Fraction(19, 14)]),
    MetricSpec.weighted(3, [1, Fraction(3, 2), Fraction(5, 2)]),
]
DEFAULT_H = [GroupContext(m).h for m in ORACLE_METRICS]  # floats: R - h rounds


def fraction_annulus(R, h, m):
    """The annulus [R-h, R+h] by Fraction sums of the letter lengths,
    bounds computed as given, in canonical order (a prefix first, then by
    letter code)."""
    lo, hi = R - h, R + h
    found, frontier = [], [()]
    while frontier:
        deeper = []
        for w in frontier:
            length = sum((Fraction(m.letter_length(s)) for s in w), Fraction(0))
            if length > hi:
                continue
            if lo <= length:
                found.append(w)
            deeper.extend(w + (s,) for s in canonical_letters(m.k) if not w or s != w[-1] ^ 1)
        frontier = deeper
    return sorted(found)


@st.composite
def annulus_cases(draw):
    """(metric, R, h, word on R - h or R + h or None): R a whole number or
    a Fraction; h the float default, an exact Fraction putting a drawn word
    exactly on the boundary, or a Fraction."""
    i = draw(st.sampled_from(range(len(ORACLE_METRICS))))
    m = ORACLE_METRICS[i]
    r_max = 4 if m.k == 2 else 2
    R = draw(st.one_of(st.integers(0, r_max), st.fractions(0, r_max, max_denominator=12)))
    kind = draw(st.sampled_from(["default", "on_bound", "fraction"]))
    on = None
    if kind == "default":
        h = DEFAULT_H[i]
    elif kind == "on_bound":
        on = reduce_letters(draw(st.lists(st.sampled_from(canonical_letters(m.k)), max_size=4)))
        h = abs(sum((Fraction(m.letter_length(s)) for s in on), Fraction(0)) - R)
    else:
        h = draw(st.fractions(0, 2, max_denominator=15))
    return m, R, h, on


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(annulus_cases())
# default h: R + h rounds at (19/14, 3); R - h too at (19/14, 7); (4/3, 5) drops words on R +- 7/3
@example((ORACLE_METRICS[2], 3, DEFAULT_H[2], None))
@example((ORACLE_METRICS[2], 7, DEFAULT_H[2], None))
@example((ORACLE_METRICS[0], 5, DEFAULT_H[0], None))
def test_annulus_units_match_fraction_sums(case):
    """Integer units over the common denominator, with the bounds converted
    once, give the Fraction-sum annulus word for word and in order."""
    m, R, h, on = case
    got = [g.letters for g in enumerate_annulus(R, h, m)]
    assert got == fraction_annulus(R, h, m)
    if on is not None:
        assert on in got  # lies exactly on R - h or R + h


def test_unit_bounds_move_inward_exactly():
    m = MetricSpec.weighted(2, [1, Fraction(4, 3)])
    assert (m.scale, m.units) == (3, (3, 4))
    assert m.unit_bounds(Fraction(1, 3), 2.5) == (1, 7)
    assert m.unit_bounds(2, 2) == (6, 6)
    green = MetricSpec("green", 2, (math.log(3), math.log(5)))
    lo, hi = green.unit_bounds(Fraction(1, 3), Fraction(7, 3))
    assert lo >= Fraction(1, 3) > math.nextafter(lo, -math.inf)
    assert hi <= Fraction(7, 3) < math.nextafter(hi, math.inf)
    assert green.unit_bounds(0.5, 2.5) == (0.5, 2.5)


def test_sphere_size_formula():
    for k in (2, 3):
        m = MetricSpec.word(k)
        for n in range(5):
            assert len(list(enumerate_sphere(n, m))) == sphere_size(n, k)


def test_geodesic_decomposition_is_exact():
    rng = random.Random(3)
    for _ in range(50):
        g = random_word(rng, 10)
        n = metric_length(g, WORD)
        for t in range(n + 1):
            u = ReducedWord(g.letters[:t])
            v = ~u * g
            assert metric_length(u, WORD) == t
            assert u * v == g
            assert metric_length(u, WORD) + metric_length(v, WORD) == n


def test_translation_length_examples():
    assert translation_length(W("ab"), WORD) == 2
    assert translation_length(W("abA"), WORD) == 1
    assert translation_length(W(""), WORD) == 0


def test_translation_length_ball_oracle():
    ball = [ReducedWord(w, _reduced=True) for w in brute_words_up_to(4)]
    rng = random.Random(4)
    for _ in range(25):
        g = random_word(rng, 5)
        oracle = min(metric_length(~x * (g * x), WORD) for x in ball)
        assert translation_length(g, WORD) == oracle


def test_word_translation_lengths_are_integers():
    # arithmetic spectrum: documented assertion for the word metric
    rng = random.Random(5)
    for _ in range(100):
        assert isinstance(translation_length(random_word(rng, 8), WORD), int)


def test_hat_projection():
    assert str(hat_projection(W("ab"))) == "a|b"
    assert str(hat_projection(W(""))) == "|a"
    assert str(hat_projection(W("A"))) == "|A"
    assert str(hat_projection(W("aaB"))) == "aa|B"


def test_hat_projection_achieves_length():
    from freeboundary import boundary_gromov

    rng = random.Random(6)
    for _ in range(100):
        g = random_word(rng, 10)
        for m in (WORD, WEIGHTED):
            assert boundary_gromov(g, hat_projection(g), m) == metric_length(g, m)


def test_fiber_sizes_small():
    # |{x in S_R : x^-1 g in S_R'}| = 1 exactly when |g| = R + R'
    for R in (1, 2, 3):
        for Rp in (1, 2, 3):
            counts = {}
            for x in enumerate_sphere(R, WORD):
                for z in enumerate_sphere(Rp, WORD):
                    g = (x * z).letters
                    counts[g] = counts.get(g, 0) + 1
            for g, c in counts.items():
                if len(g) == R + Rp:
                    assert c == 1


def test_annulus_growth_rate():
    # log|S_n| / n approaches log(omega); the increment is exact
    a = math.log(sphere_size(8, 2))
    b = math.log(sphere_size(12, 2))
    assert abs((b - a) / 4 - math.log(3)) < 1e-12
    sizes = [
        sum(1 for _ in enumerate_annulus(R, 1, WEIGHTED)) for R in (6, 9, 12)
    ]
    from freeboundary import critical_exponent

    alpha, _ = critical_exponent(WEIGHTED)
    slope = (math.log(sizes[2]) - math.log(sizes[0])) / 6
    assert abs(slope - alpha) < 0.1 * alpha
