"""The prefix-table coefficient kernel against the explicit refinement.

``matrix_coefficient`` never builds pi(g)v; ``inner_product(apply_pi(g, v,
mu), w, mu)`` does, and is the oracle: exact and of the same type on the
word metric, within 1e-12 on float backends.
"""

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
from freeboundary.boundary import allowed_children
from freeboundary.words import enumerate_annulus

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


@st.composite
def step_vectors(draw, k: int, max_depth: int):
    """A random disjoint cylinder cover of depth <= max_depth with values
    from VALUES (zeros included); an unsplit root is the constant vector."""
    cells = []

    def grow(stem):
        if len(stem) < max_depth and draw(st.booleans()):
            for s in allowed_children(stem, k):
                grow(stem + (s,))
        else:
            cells.append((Cylinder(stem), draw(st.sampled_from(VALUES))))

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
