"""The integer pair tables, the rectangle errors over one denominator and
the stem partition's closed form against the Fraction formulation they
replace (the _reference_* functions: masses summed per key from each
support word's Fraction or float mass in entries(), errors compared as
masses)."""

import math
from fractions import Fraction

import pytest

from freeboundary import (
    GroupContext,
    MetricSpec,
    PairStepFunction,
    build_partition_weights,
    check_shadow_cover,
    equidistribution_pairing,
    max_rectangle_error,
    max_uniform_rectangle_error,
    sphere_size,
    sphere_weights,
)
from freeboundary.asymptotics import WeightFamily, _cylinder_masses
from freeboundary.boundary import Cylinder
from freeboundary.words import _hat_prefix, enumerate_annulus


def _reference_sum_by_key(items, zero):
    out = {}
    for key, mass in items:
        out[key] = out.get(key, zero) + mass
    return out


def _reference_pair_table(weights, d1, d2):
    keyed = (((_hat_prefix(g.letters, d1), _hat_prefix((~g).letters, d2)), mass) for g, mass in weights.entries())
    return _reference_sum_by_key(keyed, weights.ctx.mu.zero)


def _reference_cylinder_masses(mu, d):
    stems = (w.letters for w in enumerate_annulus(d, 0, MetricSpec.word(mu.k)))
    return dict(sorted(((u, mu.mass_letters(u)) for u in stems), key=lambda e: e[1], reverse=True))


def _reference_table_rectangle_error(table, m1, m2, zero):
    worst = zero
    for (u, v), mass in table.items():
        worst = max(worst, abs(mass - m1[u] * m2[v]))
    if len(table) < len(m1) * len(m2):
        for u, mass_u in m1.items():
            v = next((v for v in m2 if (u, v) not in table), None)
            if v is not None:
                worst = max(worst, mass_u * m2[v])
    return worst


def _reference_max_rectangle_error(weights, max_depth):
    table = _reference_pair_table(weights, max_depth, max_depth)
    zero = weights.ctx.mu.zero
    masses = [_reference_cylinder_masses(weights.ctx.mu, d) for d in range(max_depth + 1)]
    worst = zero
    for d1 in range(max_depth + 1):
        for d2 in range(max_depth + 1):
            marginal = _reference_sum_by_key((((p1[:d1], p2[:d2]), mass) for (p1, p2), mass in table.items()), zero)
            worst = max(worst, _reference_table_rectangle_error(marginal, masses[d1], masses[d2], zero))
    return worst


def _reference_max_uniform_rectangle_error(weights, depth):
    masses = _reference_cylinder_masses(weights.ctx.mu, depth)
    return _reference_table_rectangle_error(
        _reference_pair_table(weights, depth, depth), masses, masses, weights.ctx.mu.zero
    )


def _pair_masses(weights, d1, d2):
    table, den = weights.pair_table(d1, d2)
    return {key: Fraction(c, den) if weights.exact else c / den for key, c in table.items()}


def _assert_same(weights, depths):
    """Pair tables and both errors equal the reference exactly: as
    Fractions of the same value, or as the same float bit for bit."""
    for d in depths:
        assert _pair_masses(weights, d, d) == _reference_pair_table(weights, d, d), d
        for fast, slow in (
            (max_uniform_rectangle_error(weights, d), _reference_max_uniform_rectangle_error(weights, d)),
            (max_rectangle_error(weights, d), _reference_max_rectangle_error(weights, d)),
        ):
            assert type(fast) is type(slow) and fast == slow, d
            if not weights.exact:
                assert fast.hex() == slow.hex(), d


def _stem_depth(R, rho):
    return max(0, math.ceil(Fraction(R, 2) - Fraction(rho)))


@pytest.mark.parametrize("k, r_max", [(2, 9), (3, 6)], ids=["k2", "k3"])
def test_stem_partition_closed_form_matches_the_reference(k, r_max):
    # every covering stem partition at depths a..a+2: the uniform error is
    # |S_a|^-2 - |S_D|^-2 past the stems, 0 at a, and every error of depth
    # <= a is 0, exactly as the Fraction tables give them
    cases = 0
    for rho in (0, Fraction(1, 2), 1, Fraction(3, 2), 2):
        ctx = GroupContext(MetricSpec.word(k), rho=rho)
        for R in range(r_max + 1):
            if not check_shadow_cover(R, ctx).covered:
                continue
            weights = build_partition_weights(R, ctx)
            a = _stem_depth(R, rho)
            assert weights.stem == a
            for D in range(a, a + 3):
                closed = max_uniform_rectangle_error(weights, D)
                want = Fraction(1, sphere_size(a, k) ** 2) - Fraction(1, sphere_size(D, k) ** 2) if D > a else 0
                assert closed == want == _reference_max_uniform_rectangle_error(weights, D), (rho, R, D)
                cases += 1
            # the reference at D = a holds every depth pair below it (a <= 3
            # keeps it under a second; a = 4 adds two seconds)
            assert a > 3 or _reference_max_rectangle_error(weights, a) == 0, (rho, R)
            assert all(max_rectangle_error(weights, D) == 0 for D in range(a + 1)), (rho, R)
    assert cases > 50


def test_probe_error_falls_by_nine_per_two_radii():
    # F_2, rho = 1: the stems have depth a = R/2 - 1 at even R, and the
    # probe one level finer errs by 1/(2 * 9^a)
    ctx = GroupContext(MetricSpec.word(2), rho=1)
    for R in range(4, 15, 2):
        a = R // 2 - 1
        assert max_uniform_rectangle_error(build_partition_weights(R, ctx), a + 1) == Fraction(1, 2 * 9**a)
    assert max_uniform_rectangle_error(build_partition_weights(14, ctx), 7) == Fraction(1, 1062882)


def test_stem_partition_table_path_past_the_stems():
    # max_rectangle_error past the stems still reads the integer table
    ctx = GroupContext(MetricSpec.word(2), rho=1)
    for R in (4, 5, 6, 7):
        weights = build_partition_weights(R, ctx)
        a = weights.stem
        _assert_same(weights, range(a + 1, a + 3))


@pytest.mark.parametrize("k, r_max", [(2, 6), (3, 4)], ids=["k2", "k3"])
def test_sphere_tables_match_the_reference(k, r_max):
    ctx = GroupContext(MetricSpec.word(k), rho=1)
    for R in range(r_max + 1):
        _assert_same(sphere_weights(R, ctx), range(4))


def test_dense_sweep_tables_match_the_reference():
    # exact supports of the dense sweep: h = 1, at whole radii and off them
    h1 = GroupContext(MetricSpec.word(2), rho=1, h=1)
    for R in (3, 4, 5):
        weights = build_partition_weights(R, h1)
        assert weights.words is not None
        _assert_same(weights, range(4))
    weights = build_partition_weights(Fraction(11, 2), h1)
    assert weights.words is not None
    _assert_same(weights, range(5))


def test_weighted_families_are_bit_identical():
    weighted = GroupContext(MetricSpec.weighted(2, [1, 2]), h=1)
    third = GroupContext(MetricSpec.weighted(2, [1, Fraction(4, 3)]), rho=1)
    s2 = [g.letters for g in enumerate_annulus(2, 0, MetricSpec.word(2))]
    families = [build_partition_weights(R, weighted) for R in (3, 4, 5)]
    families += [build_partition_weights(4, third), WeightFamily(2, weighted, s2, [1.0 / len(s2)] * len(s2))]
    F = PairStepFunction.rectangle(Cylinder((0,)), Cylinder((2, 2)), 2)
    for weights in families:
        assert not weights.exact
        _assert_same(weights, range(4))
        assert weights.pair_table(1, 2)[1] == 1
        lhs, _ = equidistribution_pairing(F, weights)
        want = sum(mass * F.value_at_prefixes(*key) for key, mass in _reference_pair_table(weights, 1, 2).items())
        assert lhs.hex() == (0.0 + want).hex()


def test_word_metric_cylinder_masses_are_one_over_the_sphere():
    ctx = GroupContext(MetricSpec.word(3))
    for d in range(4):
        masses, den = _cylinder_masses(ctx.mu, d)
        assert den == sphere_size(d, 3)
        assert {u: Fraction(c, den) for u, c in masses.items()} == _reference_cylinder_masses(ctx.mu, d)


@pytest.mark.parametrize("kind", ["stem", "sphere", "dense", "weighted"])
def test_rectangle_errors_refuse_a_negative_depth(kind):
    # depth -1 gave 0 or ZeroDivisionError on a stem partition, and an empty
    # max() or a KeyError on the other families
    word = GroupContext(MetricSpec.word(2), rho=1)
    weights = {
        "stem": lambda: build_partition_weights(6, word),
        "sphere": lambda: sphere_weights(3, word),
        "dense": lambda: build_partition_weights(4, GroupContext(MetricSpec.word(2), rho=1, h=1)),
        "weighted": lambda: build_partition_weights(4, GroupContext(MetricSpec.weighted(2, [1, 2]), h=1)),
    }[kind]()
    for error in (max_rectangle_error, max_uniform_rectangle_error):
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            error(weights, -1)
