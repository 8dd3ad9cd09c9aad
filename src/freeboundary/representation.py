"""Step functions on the boundary and the boundary representation.

pi(g) acts on L^2 of the boundary by [pi(g)v](xi) = rn(g,xi)^(1/2) v(g^-1 xi);
on step functions this is exact partition algebra: the image partition is
the common refinement of the translated cells with the Gromov level sets
of g, and the square root of the Radon-Nikodym derivative contributes a
half-integer power of the growth rate, so word-metric coefficients live
in Q(sqrt(omega)).

Coefficients never build pi(g)v.  The weight rn(g,xi)^(1/2) is
omega^(-L/2) * e_t, where L = |g|, e_t = omega^|g[:t]| and t is the
number of letters xi shares with g, so e_t is constant on the level cells
along the geodesic to g.  ``coefficient_sum`` integrates e_t over each
cell of w and over the image under g of each cell of v, read from w's
prefix index in O((cells(v) + cells(w)) * depth) steps, and returns S with
<pi(g)v, w> = omega^(-L/2) S.  On the word metric the table holds
integers over D = 2k q^M and each vector its integer numerators over one
denominator, so S is an int over one denominator.  The half-density
factor stays apart: ``matrix_coefficient`` multiplies it in once, as one
QSqrt; it cancels in the normalized coefficients, whose Xi(g) carries it
too, and squares to the rational q^(-n) in the sphere sums, so neither
builds a QSqrt.  ``apply_pi`` builds pi(g)v explicitly, as the common
refinement of depth at most |g| + depth(v) + 1: each cell's image is
read from ``cylinder_image``, C_u or the sibling cells along u's path
that cover its complement, then split by the level cells.  With
``inner_product`` it is the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .boundary import BoundaryPoint, Cylinder, PrefixIndex, _prefix_index, _uncovered, cylinder_image
from .measures import BoundaryMeasure, gromov_level_cells
from .scalars import QSqrt, as_float
from .words import Letters, ReducedWord, _hat_prefix, check_rank, common_prefix_letters, invert_letters

Value = Union[Fraction, QSqrt, float, int]


def _first_overlap(stems: Sequence[Letters], below: Dict[Letters, List[int]]) -> Tuple[int, int]:
    """The first (i, j), i < j, with C_stems[i] and C_stems[j] nested."""
    where: Dict[Letters, List[int]] = {}
    for j, stem in enumerate(stems):
        where.setdefault(stem, []).append(j)
    for i, stem in enumerate(stems):
        nested = [j for m in range(len(stem) + 1) for j in where.get(stem[:m], ())] + below.get(stem, [])
        later = [j for j in nested if j > i]
        if later:
            return i, min(later)


class StepFunction:
    """Finitely-valued boundary function over a disjoint cylinder cover.
    Constructors refuse letters outside rank k; validate=False skips all checks."""

    __slots__ = ("cells", "k", "_depth", "_integer_terms", "_index")

    def __init__(self, cells: Sequence[Tuple[Cylinder, Value]], k: int, *, validate: bool = True):
        self.cells = tuple(cells)
        self.k = k
        self._depth = max((len(c.stem) for c, _ in self.cells), default=0)
        self._integer_terms = None
        self._index = None
        if validate:
            for c, _ in self.cells:
                check_rank(c.stem, k)
            at, below = self.prefix_index()
            if _uncovered((at, below), k):
                raise ValueError("cells do not cover the boundary")
            if len(at) < len(self.cells) or not below.keys().isdisjoint(at):
                i, j = _first_overlap([c.stem for c, _ in self.cells], below)
                raise ValueError(f"cells {self.cells[i][0]} and {self.cells[j][0]} overlap")

    @classmethod
    def constant(cls, value: Value, k: int) -> "StepFunction":
        return cls([(Cylinder(()), value)], k, validate=False)

    @classmethod
    def indicator(cls, c: Union[Cylinder, str], k: int, value: Value = Fraction(1)) -> "StepFunction":
        if isinstance(c, str):
            c = Cylinder.from_str(c)
        check_rank(c.stem, k)
        if c.is_all:
            return cls.constant(value, k)
        cells: List[Tuple[Cylinder, Value]] = [(c, value)]
        cells.extend((Cylinder(stem), Fraction(0)) for stem in _uncovered(_prefix_index([c.stem]), k))
        return cls(cells, k, validate=False)

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple[Union[Cylinder, str], Value]],
        k: int,
        constant: Value = Fraction(0),
    ) -> "StepFunction":
        """constant + sum of indicators over pairwise disjoint stems."""
        cells: List[Tuple[Cylinder, Value]] = []
        for c, v in pairs:
            cyl = Cylinder.from_str(c) if isinstance(c, str) else c
            check_rank(cyl.stem, k)
            cells.append((cyl, constant + v))
        rest = _uncovered(_prefix_index([c.stem for c, _ in cells]), k)
        cells.extend((Cylinder(stem), constant) for stem in rest)
        return cls(cells, k)

    def depth(self) -> int:
        return self._depth

    def prefix_index(self) -> PrefixIndex:
        """``_prefix_index`` of the cells' stems, built on the first call and kept."""
        if self._index is None:
            self._index = _prefix_index([c.stem for c, _ in self.cells])
        return self._index

    def terms(self, exact: bool) -> Tuple[int, Tuple[Value, ...]]:
        """(den, values), one value per cell, for the coefficient kernel.
        With ``exact`` and rational values, den is their least common
        denominator and each value its integer numerator den * value,
        filled on the first call and kept; otherwise den = 1 and the
        values are as given."""
        if not exact:
            return 1, tuple(val for _, val in self.cells)
        if self._integer_terms is None:
            if all(isinstance(val, (int, Fraction)) for _, val in self.cells):
                den = math.lcm(*(val.denominator for _, val in self.cells))
                self._integer_terms = den, tuple(val.numerator * (den // val.denominator) for _, val in self.cells)
            else:
                self._integer_terms = self.terms(False)
        return self._integer_terms

    def cell_of(self, stem: Letters) -> Optional[int]:
        """The position of the cell around C_stem; None when C_stem is
        split between cells, that is, when cells lie below it."""
        at = self.prefix_index()[0]
        for i in range(min(len(stem), self._depth), -1, -1):
            j = at.get(stem[:i])
            if j is not None:
                return j
        return None

    def value_at(self, xi: BoundaryPoint) -> Value:
        return self.value_at_hat(xi.prefix_letters(self._depth))

    def value_at_hat(self, letters: Letters) -> Value:
        """The value at hat(g) (words.hat_projection), g given by its letters."""
        return self.cells[self.cell_of(_hat_prefix(letters, self._depth))][1]  # the cells cover every point

    def multiply(self, other: "StepFunction") -> "StepFunction":
        return StepFunction([(c, v1 * v2) for c, v1, v2 in _refine(self.cells, other)], self.k, validate=False)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}:{v}" for c, v in self.cells[:6])
        more = "..." if len(self.cells) > 6 else ""
        return f"StepFunction[{inner}{more}]"


def _refine(a: Sequence[Tuple[Cylinder, Value]], b: StepFunction) -> Iterator[Tuple[Cylinder, Value, Value]]:
    """(the smaller cell, value in a, value in b) for each nested pair of
    cells of a and b: the common refinement of two cylinder partitions,
    for each cell of a the cell of b around it or the cells of b below it,
    in b's order."""
    below = b.prefix_index()[1]
    for c1, v1 in a:
        j = b.cell_of(c1.stem)
        if j is not None:
            yield c1, v1, b.cells[j][1]
        else:
            for j in below.get(c1.stem, ()):
                c2, v2 = b.cells[j]
                yield c2, v1, v2


def inner_product(v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> Value:
    """<v, w> in L^2(boundary, mu), summed over the common refinement.

    All scalars are real, so conjugation is the identity.
    """
    total: Value = mu.zero
    for c, val1, val2 in _refine(v.cells, w):
        total = total + val1 * val2 * mu.mass(c)
    return total


def norm_sq(v: StepFunction, mu: BoundaryMeasure) -> Value:
    total: Value = mu.zero
    for c, val in v.cells:
        total = total + val * val * mu.mass(c)
    return total


def apply_pi(g: ReducedWord, v: StepFunction, mu: BoundaryMeasure) -> StepFunction:
    """pi(g) v as a step function of depth at most |g| + depth(v) + 1."""
    k = mu.k
    m = mu.metric
    n_len = m.length_of(g.letters)

    translated: List[Tuple[Cylinder, Value]] = []
    for c, val in v.cells:
        stem, complemented = cylinder_image(g.letters, c.stem)
        stems = _uncovered(_prefix_index([stem]), k) if complemented else [stem]
        translated.extend((Cylinder(s), val) for s in stems)

    levels: List[Tuple[Cylinder, Value]] = []
    for stem, c_letters in gromov_level_cells(g, k):
        j_len = m.length_of(g.letters[:c_letters])
        levels.append((Cylinder(stem), mu.sqrt_rn_factor(2 * j_len - n_len)))

    refined = _refine(translated, StepFunction(levels, k, validate=False))
    return StepFunction([(c, val * factor) for c, val, factor in refined], k, validate=False)


def coefficient_sum(
    g: ReducedWord, v: StepFunction, w: StepFunction, mu: BoundaryMeasure
) -> Tuple[object, Value, int]:
    """(L, N, den) with <pi(g) v, w> = omega^(-L/2) * N / den, L = |g| in the metric.

    With e_t = omega^|g[:t]| for the points that leave g after t letters,
    K(c) is the measure's integral of e_t over C_c.  The cells b of w sum
    beta_b K(b) to the integral of w e_t.  A cell a of v whose first j
    letters cancel the last j of g maps to C_u, u = g[:|g|-j] + a[j:],
    which leaves g after |g|-j letters, or, when all of a cancels, to the
    complement of C_u, u = g[:|g|-|a|+1]; w e_t integrates over C_u to
    beta_b K(u) for the cell b of w around C_u, else to the sum over the
    cells below it: at most depth(w) lookups in w's prefix index.  On the
    word metric K is an integer over D = 2k q^M, M = |g| + depth(v) +
    depth(w), and the vectors hold integer numerators over their own
    denominators, so N is an int and den = D den(v) den(w) depends only on
    |g| and the vectors; other measures sum floats with den = 1.
    """
    gl = g.letters
    n = len(gl)
    length, scale, integral = mu.geodesic_integrals(gl, n + v.depth() + w.depth())
    v_den, alphas = v.terms(mu.exact)
    w_den, betas = w.terms(mu.exact)
    below = w.prefix_index()[1]

    parts = [beta * integral(c.stem, common_prefix_letters(gl, c.stem)) if beta else 0
             for (c, _), beta in zip(w.cells, betas)]
    whole = sum(parts)

    def inside(u: Letters, t: int):
        j = w.cell_of(u)
        if j is not None:
            return betas[j] * integral(u, t) if betas[j] else 0
        return sum(parts[i] for i in below.get(u, ()))

    total = 0
    for (c, _), alpha in zip(v.cells, alphas):
        a = c.stem
        if not alpha:
            continue
        if not a:  # C_e maps onto the whole boundary
            total = total + alpha * whole
            continue
        j = 0
        while j < n and j < len(a) and a[j] == gl[n - 1 - j] ^ 1:
            j += 1
        if j == len(a):
            u = gl[: n - j + 1]
            total = total + alpha * (whole - inside(u, len(u)))
        else:
            total = total + alpha * inside(gl[: n - j] + a[j:], n - j)
    return length, total, scale * v_den * w_den


def _quotient(num, den):
    """num / den, as a Fraction when both are ints."""
    return Fraction(num, den) if type(num) is int and type(den) is int else num / den


def matrix_coefficient(g: ReducedWord, v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> Value:
    """<pi(g) v, w>; conjugate-symmetric in (g, v, w) <-> (g^-1, w, v).

    ``coefficient_sum`` gives N / den, rational on the exact backend;
    the half-density factor omega^(-L/2) multiplies it once, so on the
    word metric the result is the one QSqrt q^(-|g|/2) N / den.
    """
    length, total, den = coefficient_sum(g, v, w, mu)
    return mu.sqrt_rn_factor(-length) * _quotient(total, den)


def harish_chandra(g: ReducedWord, mu: BoundaryMeasure) -> Value:
    """Xi(g) = <pi(g) 1, 1> = omega^(-L/2) T_0 / D, the root entry of the
    measure's geodesic table.

    On the word metric T_0 / D = 1 + n (q-1)/(q+1) with n = |g| and
    q = 2k - 1, so Xi is Haagerup's spherical function
    q^(-n/2) (1 + n (q-1)/(q+1)).
    """
    length, scale, integral = mu.geodesic_integrals(g.letters, len(g))
    return mu.sqrt_rn_factor(-length) * _quotient(integral((), 0), scale)


def harish_chandra_length(n: int, mu: BoundaryMeasure) -> Value:
    """Xi at word-length n (word metric only)."""
    if mu.metric.kind != "word":
        raise ValueError("length-indexed Xi exists only for the word metric")
    # any word of length n: powers of a single generator stay reduced
    return harish_chandra(ReducedWord((0,) * n, _reduced=True), mu)


def normalized_coefficient(g: ReducedWord, v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> Value:
    """<pi~(g) v, w> = <pi(g) v, w> / Xi(g); Xi > 0 always.

    Xi(g) = omega^(-L/2) T_0 / D carries the same half-density factor as
    <pi(g) v, w> = omega^(-L/2) N / den, so the factor cancels and the
    quotient N D / (den T_0) is rational on the word metric: no QSqrt.
    """
    _, xi_den, integral = mu.geodesic_integrals(g.letters, len(g))
    _, total, den = coefficient_sum(g, v, w, mu)
    return _quotient(total * xi_den, den * integral((), 0))


def lipschitz_gap(g: ReducedWord, v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> float:
    """|<pi~(g) v, w> - v(check g) * conj(w(hat g))|.

    Step functions are Lipschitz for the visual metric, so the gap decays
    like (1 + |g|)^(-1/D); the sweep harness fits the rate.
    """
    nc = normalized_coefficient(g, v, w, mu)
    target = v.value_at_hat(invert_letters(g.letters)) * w.value_at_hat(g.letters)
    return abs(as_float(nc) - as_float(target))
