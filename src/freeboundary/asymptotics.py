"""Executable asymptotics: equidistribution weights, the orthogonality
functional, annular rapid-decay sums, convolution bounds, and the good-
vector-bound growth experiment.

Sphere sums exploit an exactness of the word-metric tree: a coefficient
<pi~(g)v, w> for step vectors of letter depth d depends on g only through
(|g|, first d letters, last d letters) once |g| >= 2d.  Summing over a
sphere therefore reduces to a few hundred classes whose cardinalities are
entries of powers of the letter-adjacency matrix -- exact integers -- so
sweeps stay exact at any radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .boundary import Cylinder, CylinderRectangle, shadow_pair
from .measures import BoundaryMeasure, ps_measure
from .representation import (
    StepFunction,
    inner_product,
    matrix_coefficient,
    norm_sq,
    normalized_coefficient,
)
from .scalars import QSqrt, as_float, exact_str
from .words import (
    GroupContext,
    Letters,
    MetricSpec,
    ReducedWord,
    _hat_prefix,
    canonical_letters,
    enumerate_annulus,
    hat_projection,
    sphere_size,
)


class BudgetError(RuntimeError):
    """A sweep would enumerate more elements than the configured budget."""


class CoverError(RuntimeError):
    """The double shadows failed to cover at the configured rho and h."""


# -- letter adjacency counts ---------------------------------------------

_ADJ_POWERS: Dict[Tuple[int, int], List[List[int]]] = {}


def _letter_index(s: int, k: int) -> int:
    return 2 * (abs(s) - 1) + (0 if s > 0 else 1)


def _adjacency_power(k: int, m: int) -> List[List[int]]:
    """A^m with A[x][y] = 1 iff y may follow x in a reduced word; exact."""
    key = (k, m)
    if key in _ADJ_POWERS:
        return _ADJ_POWERS[key]
    size = 2 * k
    letters = canonical_letters(k)
    if m == 0:
        out = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    elif m == 1:
        out = [
            [0 if letters[j] == -letters[i] else 1 for j in range(size)]
            for i in range(size)
        ]
    else:
        half = _adjacency_power(k, m // 2)
        out = _mat_mul(half, half)
        if m % 2:
            out = _mat_mul(out, _adjacency_power(k, 1))
    _ADJ_POWERS[key] = out
    return out


def _mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    size = len(a)
    return [
        [sum(a[i][l] * b[l][j] for l in range(size)) for j in range(size)]
        for i in range(size)
    ]


def _junctions(m: int, k: int) -> Dict[Tuple[int, int], Tuple[int, Letters]]:
    """{(x, y): (count, u)} over the junction letters x, y of the reduced
    words x u y with |u| = m >= 0: their number A^(m+1)[x][y], and the
    canonically first middle u.

    That u is a^(m-1) b: a is the first letter other than x^-1, and b the
    first other than y^-1 and the inverse of its predecessor (a, or x when
    m = 1).  For m >= 1 every count is positive, as A^2 > 0 for k >= 2.
    """
    letters = canonical_letters(k)
    power = _adjacency_power(k, m + 1)
    out = {}
    for x in letters:
        a = next(c for c in letters if c != -x)
        prev = a if m >= 2 else x
        for y in letters:
            count = power[_letter_index(x, k)][_letter_index(y, k)]
            if m == 0:
                out[x, y] = (count, ())
            else:
                b = next(c for c in letters if c != -prev and c != -y)
                out[x, y] = (count, (a,) * (m - 1) + (b,))
    return out


@dataclass
class ClassEntry:
    """One aggregation class of a weight family: every member g shares the
    normalized coefficients of step vectors up to the stated depth."""

    mass: object  # Fraction on the word metric, float otherwise
    rep: ReducedWord


def sphere_class_table(n: int, d: int, k: int) -> List[Tuple[int, ReducedWord]]:
    """(count, representative) per coefficient class of the word sphere S_n
    at depth d >= 1, for every n >= 0, in canonical order of the
    representatives, each the first word of its class.

    Below n = 2d the first and last d letters overlap, so every word of
    S_n (the identity at n = 0) is its own class.  From n = 2d on the
    classes are the pairs (p, s) of S_d x S_d whose junction (p[-1], s[0])
    has a positive count in _junctions(n - 2d, k); that entry gives the
    class size and the middle of its first word.
    """
    word = MetricSpec.word(k)
    if n < 2 * d:
        return [(1, g) for g in enumerate_annulus(n, 0, word)]
    stems = [w.letters for w in enumerate_annulus(d, 0, word)]
    junctions = _junctions(n - 2 * d, k)
    rank = {s: i for i, s in enumerate(canonical_letters(k))}
    # the tails after p depend on p[-1] only, so they are sorted once per letter
    tails = {}
    for x in canonical_letters(k):
        found = [(c, u + s) for s in stems for c, u in (junctions[x, s[0]],) if c]
        tails[x] = sorted(found, key=lambda t: [rank[c] for c in t[1]])
    return [(c, ReducedWord(p + t, _reduced=True)) for p in stems for c, t in tails[p[-1]]]


# -- canonical depth-m indexing of the letter tree ------------------------


class SphereGrid:
    """Canonical index of the depth-m words; cylinders map to index
    intervals because descendants are contiguous in canonical order."""

    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m
        self.letters = canonical_letters(k)
        self.size = sphere_size(m, k)
        self._pos = {s: i for i, s in enumerate(self.letters)}
        b = 2 * k - 1
        self._weights = [b ** (m - 1 - i) for i in range(m)]

    def interval(self, stem: Letters) -> Tuple[int, int]:
        if len(stem) > self.m:
            raise ValueError("stem deeper than the grid")
        if not stem:
            return 0, self.size
        lo = self._pos[stem[0]] * self._weights[0]
        for i in range(1, len(stem)):
            pos = self._pos[stem[i]]
            forbidden = self._pos[-stem[i - 1]]
            pos -= pos > forbidden
            lo += pos * self._weights[i]
        return lo, lo + (2 * self.k - 1) ** (self.m - len(stem))

    def index_of(self, word: Letters) -> int:
        if len(word) != self.m:
            raise ValueError("need a depth-m word")
        return self.interval(word)[0]

    def unrank(self, idx: int) -> Letters:
        out: List[int] = []
        for i in range(self.m):
            pos, idx = divmod(idx, self._weights[i])
            if i == 0:
                out.append(self.letters[pos])
            else:
                allowed = [s for s in self.letters if s != -out[-1]]
                out.append(allowed[pos])
        return tuple(out)


def _resolution_depth(R, ctx: GroupContext) -> int:
    min_len = float(ctx.metric.min_letter_length)
    return int(math.ceil(float(R + ctx.h) / (2.0 * min_len))) + 1


# -- weight families -------------------------------------------------------


def _sum_by_key(items, zero) -> Dict:
    """Masses summed per key, each sum taken in item order from zero."""
    out: Dict = {}
    for key, mass in items:
        out[key] = out.get(key, zero) + mass
    return out


class WeightFamily:
    """A probability weighting of an annulus.

    Uniform sphere weights stay implicit (``words is None``: the support
    would be |S_n| words); every other family carries its nonzero support
    as parallel lists of words and masses (Fractions for the word metric,
    floats otherwise).  Consumers read the family through class_entries.
    """

    def __init__(
        self,
        R,
        ctx: GroupContext,
        words: Optional[List[Letters]] = None,
        masses: Optional[List] = None,
        annulus_size: Optional[int] = None,
    ):
        self.R = R
        self.ctx = ctx
        self.words = words
        self.masses = masses
        self.annulus_size = annulus_size
        self._class_cache: Dict[int, List[ClassEntry]] = {}
        self._index: Optional[Dict[Letters, int]] = None

    # -- basic shape ------------------------------------------------------

    @property
    def uniform(self) -> bool:
        return self.words is None

    @property
    def exact(self) -> bool:
        return self.ctx.metric.kind == "word"

    def support_size(self) -> int:
        return self.annulus_size if self.uniform else len(self.words)

    def total(self):
        if self.uniform:
            return Fraction(1)
        if self.exact:  # one exact sum over a common denominator
            den = math.lcm(*(m.denominator for m in self.masses))
            return Fraction(sum(m.numerator * (den // m.denominator) for m in self.masses), den)
        return sum(self.masses)

    def max_mass(self):
        if self.uniform:
            return Fraction(1, self.support_size())
        return max(self.masses)

    def mass_of(self, g: ReducedWord):
        if self.uniform:
            return Fraction(1, self.support_size()) if len(g) == self.R else Fraction(0)
        if self._index is None:
            self._index = {w: i for i, w in enumerate(self.words)}
        i = self._index.get(g.letters)
        if i is None:
            return Fraction(0) if self.exact else 0.0
        return self.masses[i]

    def entries(self) -> Iterator[Tuple[ReducedWord, object]]:
        if self.uniform:
            mass = Fraction(1, self.support_size())
            for g in enumerate_annulus(self.R, 0, self.ctx.metric):
                yield g, mass
            return
        for w, mass in zip(self.words, self.masses):
            yield ReducedWord(w, _reduced=True), mass

    # -- aggregation ------------------------------------------------------

    def class_entries(self, d: int) -> List[ClassEntry]:
        """Aggregated masses per coefficient class at depth d.

        Members of a class share |g| and, once |g| >= 2d, their first and
        last d letters; on the word metric that fixes every depth-d
        normalized coefficient and both depth-d boundary prefixes.  Float
        (weighted or Green) supports get one entry per support word, in
        support order, so float sums keep their order.
        """
        d = max(1, d)
        if d in self._class_cache:
            return self._class_cache[d]
        if self.uniform:
            size = self.support_size()
            out = [
                ClassEntry(Fraction(c, size), rep)
                for c, rep in sphere_class_table(self.R, d, self.ctx.k)
            ]
        elif not self.exact:
            out = [ClassEntry(mass, g) for g, mass in self.entries()]
        else:
            buckets: Dict[Tuple, ClassEntry] = {}
            for w, mass in zip(self.words, self.masses):
                n = len(w)
                key = (n, w) if n < 2 * d else (n, w[:d], w[n - d:])
                if key in buckets:
                    buckets[key].mass += mass
                else:
                    buckets[key] = ClassEntry(mass, ReducedWord(w, _reduced=True))
            out = list(buckets.values())
        self._class_cache[d] = out
        return out

    def pair_table(self, d1: int, d2: int) -> Dict[Tuple[Letters, Letters], object]:
        """Aggregated mass per (hat(g) prefix of depth d1, check(g) prefix
        of depth d2)."""
        keyed = (
            ((_hat_prefix(e.rep.letters, d1), _hat_prefix((~e.rep).letters, d2)), e.mass)
            for e in self.class_entries(max(d1, d2, 1))
        )
        return _sum_by_key(keyed, Fraction(0) if self.exact else 0.0)


def sphere_weights(n: int, ctx: GroupContext) -> WeightFamily:
    """Uniform mass 1/|S_n| on the word-metric sphere S_n."""
    if ctx.metric.kind != "word":
        raise ValueError("sphere weights require the word metric")
    if n < 0:
        raise ValueError("n must be >= 0")
    return WeightFamily(n, ctx, annulus_size=sphere_size(n, ctx.k))


@dataclass
class CoverReport:
    covered: bool
    witness: Optional[CylinderRectangle]
    R: float
    rho: float
    h: float
    resolution: int
    annulus_size: int


def _resolution_grid(R, ctx: GroupContext, budget: int, what: str) -> SphereGrid:
    """The depth-m cylinder index of the shadow sweeps, refused when its
    cell pairs exceed 64 * budget."""
    grid = SphereGrid(ctx.k, _resolution_depth(R, ctx))
    if grid.size**2 > 64 * budget:
        raise BudgetError(f"{what} grid {grid.size}^2 exceeds budget")
    return grid


class _ShadowSweep:
    """The annulus in canonical order over the occupancy grid of depth-m
    cylinder pairs: iterating yields (g, rows, cols, sub, taken) per
    element whose double shadow still has unclaimed cells, sub the grid
    block of that shadow and taken its unclaimed count, and claims the
    block when the loop resumes.  Once every cell is claimed the rest of
    the annulus is only counted."""

    def __init__(self, R, ctx: GroupContext, budget: int, what: str):
        self.R = R
        self.ctx = ctx
        self.budget = budget
        self.grid = _resolution_grid(R, ctx, budget, what)
        self.occupied = np.zeros((self.grid.size, self.grid.size), dtype=bool)
        self.count = 0
        self.claimed = 0

    @property
    def full(self) -> bool:
        return self.claimed == self.occupied.size

    def __iter__(self) -> Iterator[Tuple[ReducedWord, Tuple[int, int], Tuple[int, int], np.ndarray, int]]:
        for g in enumerate_annulus(self.R, self.ctx.h, self.ctx.metric):
            self.count += 1
            if self.count > self.budget:
                raise BudgetError(f"annulus at R={self.R} exceeds budget {self.budget}")
            if self.full:
                continue
            rect = shadow_pair(g, self.ctx)
            rlo, rhi = self.grid.interval(rect.first.stem)
            clo, chi = self.grid.interval(rect.second.stem)
            sub = self.occupied[rlo:rhi, clo:chi]
            taken = sub.size - int(np.count_nonzero(sub))
            if taken:
                yield g, (rlo, rhi), (clo, chi), sub, taken
                sub[:] = True
                self.claimed += taken


def _sweep_cover(R, ctx: GroupContext, budget: int) -> CoverReport:
    """check_shadow_cover by the dense sweep; the witness is the first
    uncovered cell in row-major order."""
    sweep = _ShadowSweep(R, ctx, budget, "cover")
    for _ in sweep:
        pass
    covered = sweep.full
    witness = None
    if not covered:
        i, j = np.argwhere(~sweep.occupied)[0]
        witness = CylinderRectangle(Cylinder(sweep.grid.unrank(int(i))), Cylinder(sweep.grid.unrank(int(j))))
    return CoverReport(covered, witness, R, ctx.rho, ctx.h, sweep.grid.m, sweep.count)


def _cover_error(R, ctx: GroupContext) -> CoverError:
    return CoverError(
        f"shadows at R={R}, rho={ctx.rho}, h={ctx.h} do not cover; "
        "raise rho or h (renormalizing would fake the cover)"
    )


def _sweep_partition(R, ctx: GroupContext, budget: int) -> WeightFamily:
    """build_partition_weights by the dense sweep."""
    sweep = _ShadowSweep(R, ctx, budget, "partition")
    grid = sweep.grid
    exact = ctx.metric.kind == "word"
    if exact:
        cell = Fraction(1, 2 * ctx.k) * Fraction(1, 2 * ctx.k - 1) ** (grid.m - 1)
        cell_sq = cell * cell
    else:
        mu = ps_measure(ctx)
        cell_masses = np.array([mu.mass_letters(grid.unrank(i)) for i in range(grid.size)], dtype=np.float64)

    words: List[Letters] = []
    masses: List = []
    for g, (rlo, rhi), (clo, chi), sub, taken in sweep:
        words.append(g.letters)
        if exact:
            masses.append(taken * cell_sq)
        else:
            masses.append(float(np.outer(cell_masses[rlo:rhi], cell_masses[clo:chi])[~sub].sum()))
    if not sweep.full:
        raise _cover_error(R, ctx)
    fam = WeightFamily(R, ctx, words, masses, annulus_size=sweep.count)
    assert not exact or fam.total() == 1
    return fam


# -- the word sphere by stem-pair classes -----------------------------------
#
# For g in S_n the double shadow is C_p x C_q with p = g[:a] and
# q = (g^-1)[:a] at the one stem depth a = max(0, ceil(n/2 - rho)) (the
# cuts of shadow_pair at t = n/2 - rho), and a < m, the grid depth.  So the
# occupancy grid is a union of whole (p, q) blocks, one per pair in
# S_a x S_a that occurs, and the greedy sweep gives each block to the
# first word of its class (p, q^-1): the depth-a sphere class table.
#
# Every pair occurs iff a = 0 or 2a < n.  For 2a < n the junction gap
# n - 2a >= 1 has only positive counts in _junctions.  Otherwise the pair
# (1^a, 1^a) is missing: g would have to start with 1^a and end with
# (-1)^a, an empty junction (1, -1) at 2a = n and a clash on the overlap
# at 2a > n.  It is the first pair in canonical order, so the first
# uncovered cell is the grid's first, (C_{1^m}, C_{1^m}).


def _sphere_radius(R, ctx: GroupContext) -> Optional[int]:
    """R as an int when the annulus at R is the word sphere S_R (word
    metric, h = 0, R a whole number >= 0); None sends the caller to the
    dense sweep."""
    if ctx.metric.kind == "word" and ctx.h == 0 and R >= 0 and float(R).is_integer():
        return int(R)
    return None


def _stem_depth(n: int, R, ctx: GroupContext, budget: int, what: str) -> Tuple[SphereGrid, int, bool]:
    """(grid, stem depth a, covered) for the word sphere S_n.  The dense
    sweep's budget refusals are checked from the sizes; no grid is
    allocated."""
    grid = _resolution_grid(R, ctx, budget, what)
    if sphere_size(n, ctx.k) > budget:
        raise BudgetError(f"annulus at R={R} exceeds budget {budget}")
    a = max(0, math.ceil(Fraction(n, 2) - Fraction(ctx.rho)))
    return grid, a, a == 0 or 2 * a < n


def check_shadow_cover(R, ctx: GroupContext, budget: int = 10_000_000) -> CoverReport:
    """Exact finite check that double shadows of the annulus cover the
    boundary square, at the canonical resolution depth.

    Failure is a valid outcome (it calibrates rho and h); the witness is
    the first uncovered rectangle of depth-m cylinders in row-major order.
    Word spheres are decided by their stem depth, every other annulus by
    the dense sweep.
    """
    n = _sphere_radius(R, ctx)
    if n is None:
        return _sweep_cover(R, ctx, budget)
    grid, _, covered = _stem_depth(n, R, ctx, budget, "cover")
    first = Cylinder(grid.unrank(0))
    witness = None if covered else CylinderRectangle(first, first)
    return CoverReport(covered, witness, R, ctx.rho, ctx.h, grid.m, sphere_size(n, ctx.k))


def build_partition_weights(R, ctx: GroupContext, budget: int = 10_000_000) -> WeightFamily:
    """Greedy shadow-partition weights: sweep the annulus in canonical
    order, give each element the product mass of the not-yet-claimed part
    of its double shadow, claim it.

    Masses are exact for the word metric.  On a word sphere the family is
    the first word of each stem-pair class, the sphere class table at the
    stem depth a, with mass |S_a|^-2 each.  If any resolution cell stays
    unclaimed the cover has failed and the builder raises instead of
    renormalizing.
    """
    n = _sphere_radius(R, ctx)
    if n is None:
        return _sweep_partition(R, ctx, budget)
    _, a, covered = _stem_depth(n, R, ctx, budget, "partition")
    if not covered:
        raise _cover_error(R, ctx)
    if a == 0:
        words = [next(enumerate_annulus(n, 0, ctx.metric)).letters]
    else:
        words = [rep.letters for _, rep in sphere_class_table(n, a, ctx.k)]
    mass = Fraction(1, sphere_size(a, ctx.k) ** 2)
    fam = WeightFamily(R, ctx, words, [mass] * len(words), annulus_size=sphere_size(n, ctx.k))
    assert fam.total() == 1
    return fam


# -- boundary-pair observables and equidistribution ------------------------


class PairStepFunction:
    """Finitely-valued function on the boundary square: disjoint cylinder
    rectangles with values, zero elsewhere."""

    def __init__(self, cells: Sequence[Tuple[Cylinder, Cylinder, object]], k: int):
        self.cells = tuple(cells)
        self.k = k
        for i in range(len(self.cells)):
            for j in range(i + 1, len(self.cells)):
                a, b = self.cells[i], self.cells[j]
                if not (a[0].disjoint(b[0]) or a[1].disjoint(b[1])):
                    raise ValueError("rectangles overlap")

    @classmethod
    def rectangle(cls, first: Cylinder, second: Cylinder, k: int, value=Fraction(1)) -> "PairStepFunction":
        return cls([(first, second, value)], k)

    @classmethod
    def constant(cls, value, k: int) -> "PairStepFunction":
        return cls([(Cylinder(()), Cylinder(()), value)], k)

    @classmethod
    def product(cls, f1: StepFunction, f2: StepFunction) -> "PairStepFunction":
        cells = []
        for c1, v1 in f1.cells:
            for c2, v2 in f2.cells:
                cells.append((c1, c2, v1 * v2))
        return cls(cells, f1.k)

    def depths(self) -> Tuple[int, int]:
        d1 = max((len(c[0].stem) for c in self.cells), default=0)
        d2 = max((len(c[1].stem) for c in self.cells), default=0)
        return d1, d2

    def value_at_prefixes(self, p1: Letters, p2: Letters):
        for first, second, val in self.cells:
            if p1[: len(first.stem)] == first.stem and p2[: len(second.stem)] == second.stem:
                return val
        return Fraction(0)

    def integral(self, mu: BoundaryMeasure):
        total = Fraction(0) if mu.exact else 0.0
        for first, second, val in self.cells:
            total = total + val * mu.mass(first) * mu.mass(second)
        return total


def equidistribution_pairing(F: PairStepFunction, weights: WeightFamily, mu: BoundaryMeasure):
    """(sum_g w(g) F(hat g, check g), integral of F against mu x mu)."""
    d1, d2 = F.depths()
    table = weights.pair_table(d1, d2)
    lhs = Fraction(0) if weights.exact else 0.0
    for (p1, p2), mass in table.items():
        lhs = lhs + mass * F.value_at_prefixes(p1, p2)
    return lhs, F.integral(mu)


def equidistribution_error(F: PairStepFunction, weights: WeightFamily, mu: BoundaryMeasure):
    lhs, rhs = equidistribution_pairing(F, weights, mu)
    return abs(lhs - rhs)


def _table_rectangle_error(table: Dict[Tuple[Letters, Letters], object], d1: int, d2: int, mu: BoundaryMeasure, zero):
    """Max |W(C_u x C_v) - mu(C_u) mu(C_v)| over the depth-(d1, d2)
    rectangles, from the table of the nonzero masses W(C_u x C_v).

    An absent rectangle has mass 0, so its error is mu(C_u) mu(C_v); on
    the word metric every depth-d cylinder has mass 1/|S_d|.
    """
    word = MetricSpec.word(mu.k)  # mu(C_u) per stem u of depth d1 and of depth d2, each walked once
    masses = {d: {w.letters: mu.mass_letters(w.letters) for w in enumerate_annulus(d, 0, word)} for d in {d1, d2}}
    m1, m2 = masses[d1], masses[d2]
    worst = zero
    for (u, v), mass in table.items():
        worst = max(worst, abs(mass - m1[u] * m2[v]))
    if len(table) < len(m1) * len(m2):
        if mu.metric.kind == "word":
            worst = max(worst, Fraction(1, len(m1) * len(m2)))
        else:
            for u, mass_u in m1.items():
                for v, mass_v in m2.items():
                    if (u, v) not in table:
                        worst = max(worst, mass_u * mass_v)
    return worst


def max_rectangle_error(weights: WeightFamily, mu: BoundaryMeasure, max_depth: int):
    """Max equidistribution error over all rectangles of depth <= max_depth
    (both factors range over depths 0..max_depth independently).

    Every (d1, d2) table is a marginal of the one depth-max_depth pair
    table, summed in its stored order.
    """
    table = weights.pair_table(max_depth, max_depth)
    zero = Fraction(0) if weights.exact else 0.0
    worst = zero
    for d1 in range(max_depth + 1):
        for d2 in range(max_depth + 1):
            marginal = _sum_by_key((((p1[:d1], p2[:d2]), mass) for (p1, p2), mass in table.items()), zero)
            worst = max(worst, _table_rectangle_error(marginal, d1, d2, mu, zero))
    return worst


def max_uniform_rectangle_error(weights: WeightFamily, mu: BoundaryMeasure, depth: int):
    """Max equidistribution error over rectangles of exact depth x depth.

    Probing at depths finer than the shadow stems is what exposes a
    nonzero error on the tree: at or below the stem depth the greedy
    partition reproduces product masses exactly.
    """
    zero = Fraction(0) if weights.exact else 0.0
    return _table_rectangle_error(weights.pair_table(depth, depth), depth, depth, mu, zero)


# -- test functions and the orthogonality functional -----------------------


@dataclass
class TestFunction:
    """Continuous function on the compactification: a boundary step part
    composed with the retraction, plus a finitely supported interior
    perturbation (vanishing at infinity, hence continuous)."""

    __test__ = False  # not a pytest class despite the Test prefix

    boundary: StepFunction
    interior: Dict[ReducedWord, object] = field(default_factory=dict)

    @classmethod
    def one(cls, k: int) -> "TestFunction":
        return cls(StepFunction.constant(Fraction(1), k))

    def value_at_group(self, g: ReducedWord):
        base = self.boundary.value_at(hat_projection(g))
        extra = self.interior.get(g)
        return base if extra is None else base + extra

    def depth(self) -> int:
        return self.boundary.depth()


def phi_r(
    f1: TestFunction,
    f2: TestFunction,
    v1: StepFunction,
    v2: StepFunction,
    w1: StepFunction,
    w2: StepFunction,
    weights: WeightFamily,
    mu: BoundaryMeasure,
):
    """The orthogonality functional: the weighted annulus average of
    f1(g) f2(g^-1) <pi~(g)v1, w1> conj(<pi~(g)v2, w2>)."""
    return phi_r_pairs(f1, f2, [(v1, w1), (v2, w2)], weights, mu)[0][1]


def phi_r_pairs(
    f1: TestFunction,
    f2: TestFunction,
    pairs: Sequence[Tuple[StepFunction, StepFunction]],
    weights: WeightFamily,
    mu: BoundaryMeasure,
) -> List[List[object]]:
    """Phi_R for every ordered combination of coefficient slots.

    Entry [i][j] is phi_r with (v1, w1) = pairs[i], (v2, w2) = pairs[j];
    the normalized coefficients are computed once per class per pair, so
    a full combination grid costs no more than one slot pair would.

    Summed over the weights' coefficient classes at the depth of the
    vectors and of the boundary parts of f1 and f2; on the word metric the
    value is exact in Q(sqrt(omega)).  Interior perturbations are then
    added as corrections at the finitely many group elements they touch.
    """
    d = max(
        1,
        f1.depth(),
        f2.depth(),
        max(max(v.depth(), w.depth()) for v, w in pairs),
    )
    exact = mu.exact and weights.exact
    zero = QSqrt(0, 0, int(mu.omega)) if exact else 0.0
    out: List[List[object]] = [[zero for _ in pairs] for _ in pairs]

    def add(g: ReducedWord, factor) -> None:
        ncs = [normalized_coefficient(g, v, w, mu) for v, w in pairs]
        for i in range(len(pairs)):
            row = out[i]
            for j in range(len(pairs)):
                row[j] = row[j] + factor * ncs[i] * ncs[j]

    for entry in weights.class_entries(d):
        g = entry.rep
        add(g, entry.mass * f1.boundary.value_at(hat_projection(g)) * f2.boundary.value_at(hat_projection(~g)))
    for g0 in set(f1.interior) | {~g for g in f2.interior}:
        mass = weights.mass_of(g0)
        if mass:
            base = f1.boundary.value_at(hat_projection(g0)) * f2.boundary.value_at(hat_projection(~g0))
            add(g0, mass * (f1.value_at_group(g0) * f2.value_at_group(~g0) - base))
    return out


def orthogonality_target(
    f1: TestFunction,
    f2: TestFunction,
    v1: StepFunction,
    v2: StepFunction,
    w1: StepFunction,
    w2: StepFunction,
    mu: BoundaryMeasure,
):
    """<f2|bd v1, v2> * conj(<w1, f1|bd w2>), the theorem's limit value."""
    left = inner_product(f2.boundary.multiply(v1), v2, mu)
    right = inner_product(w1, f1.boundary.multiply(w2), mu)
    return left * right


# -- sweep reports and fits -------------------------------------------------


def _top_half_fit(grid: Sequence, values: Sequence, x_of) -> Tuple[Optional[float], Optional[float], List[float]]:
    """Least squares log(value) ~ a * x_of(point) + b over the top half of
    the grid, skipping non-positive values (they are reported, not
    fitted).  Returns (a, r2, window); (None, None, window) below two
    points and a = r2 = nan when the window has a single x."""
    xs, ys = [], []
    for x, value in list(zip(grid, values))[len(grid) // 2:]:
        fv = as_float(value)
        if fv > 0:
            xs.append(x_of(x))
            ys.append(math.log(fv))
    n = len(xs)
    if n < 2:
        return None, None, xs
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    if sxx == 0:
        return math.nan, math.nan, xs
    a = sxy / sxx
    b = ybar - a * xbar
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - ybar) ** 2 for y in ys)
    return a, 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot, xs


def fit_decay(grid: Sequence[float], errors: Sequence[float]) -> Tuple[Optional[float], Optional[float], List[float]]:
    """Fit log(err) ~ -c * x over the top half of the grid, skipping exact
    zeros.  Returns (c, r2, window)."""
    a, r2, xs = _top_half_fit(grid, errors, float)
    return (None if a is None else -a), r2, xs


def fit_growth(grid: Sequence[int], values: Sequence[float]) -> Tuple[Optional[float], Optional[float], List[float]]:
    """Fit log(q) ~ beta * log(1+n) over the top half of the grid."""
    return _top_half_fit(grid, values, lambda n: math.log(1.0 + n))


@dataclass
class SweepReport:
    name: str
    param: str
    grid: List = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    values_exact: List[str] = field(default_factory=list)
    targets: List[float] = field(default_factory=list)
    targets_exact: List[str] = field(default_factory=list)
    abs_errors: List[float] = field(default_factory=list)
    rel_errors: List[float] = field(default_factory=list)
    fitted_exponent: Optional[float] = None
    fit_r2: Optional[float] = None
    fit_window: List[float] = field(default_factory=list)
    reference_rate: Optional[float] = None
    constants: Dict[str, float] = field(default_factory=dict)
    verdict: str = ""
    passed: bool = True
    partial: bool = False
    extras: Dict[str, List] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "fitted_exponent": self.fitted_exponent,
            "fit_r2": self.fit_r2,
            "fit_window": self.fit_window,
            "reference_rate": self.reference_rate,
            "constants": self.constants,
            "verdict": self.verdict,
            "passed": self.passed,
            "partial": self.partial,
        }


class OrthCase(NamedTuple):
    """One Phi_R slot combination: (v1, w1) in the first slot, (v2, w2) in
    the second."""

    name: str
    v1: StepFunction
    w1: StepFunction
    v2: StepFunction
    w2: StepFunction


_REL_FLOOR = Fraction(1, 16)  # relative errors of targets below this are taken against it


def orthogonality_sweep(
    f1: TestFunction,
    f2: TestFunction,
    cases: Sequence[OrthCase],
    grid: Sequence,
    ctx: GroupContext,
    mu: BoundaryMeasure,
    weights_kind: str = "sphere",
    budget: int = 10_000_000,
    tolerance: float = 0.05,
) -> List[SweepReport]:
    """Phi_R of every case along a grid against the theorem's limit, one
    report per case, with decay fits against the modulus-of-continuity
    reference rate eps/2.

    Slot pairs shared between cases are evaluated once: each radius costs
    one phi_r_pairs call.  A BudgetError while building the weights stops
    the sweep and marks every report partial (and not passed).
    """
    if weights_kind not in ("sphere", "shadow"):
        raise ValueError(f"unknown weights kind {weights_kind!r}")
    pairs: List[Tuple[StepFunction, StepFunction]] = []
    seen: Dict[Tuple[int, int], int] = {}
    slots: List[Tuple[int, int]] = []
    for case in cases:
        ij = []
        for v, w in ((case.v1, case.w1), (case.v2, case.w2)):
            key = (id(v), id(w))
            if key not in seen:
                seen[key] = len(pairs)
                pairs.append((v, w))
            ij.append(seen[key])
        slots.append((ij[0], ij[1]))
    targets = [orthogonality_target(f1, f2, c.v1, c.v2, c.w1, c.w2, mu) for c in cases]
    reports = [SweepReport(name=case.name, param="R", reference_rate=float(ctx.epsilon) / 2.0) for case in cases]
    partial = False
    for R in grid:
        try:
            if weights_kind == "sphere":
                weights = sphere_weights(R, ctx)
            else:
                weights = build_partition_weights(R, ctx, budget=budget)
            table = phi_r_pairs(f1, f2, pairs, weights, mu)
        except BudgetError:
            partial = True
            break
        for (i, j), target, rep in zip(slots, targets, reports):
            val = table[i][j]
            err = abs(val - target)
            floor = _REL_FLOOR if abs(target) < _REL_FLOOR else abs(target)
            rep.grid.append(R)
            rep.values.append(as_float(val))
            rep.values_exact.append(exact_str(val))
            rep.targets.append(as_float(target))
            rep.targets_exact.append(exact_str(target))
            rep.abs_errors.append(as_float(err))
            rep.rel_errors.append(as_float(err / floor))
    for rep in reports:
        rep.fitted_exponent, rep.fit_r2, rep.fit_window = fit_decay(rep.grid, rep.abs_errors)
        rep.partial = partial
        rep.passed = bool(rep.rel_errors and rep.rel_errors[-1] <= tolerance) and not partial
        rep.verdict = "PASS" if rep.passed else "FAIL"
    return reports


# -- annular rapid decay and GVB --------------------------------------------


def sphere_sum_sq(v: StepFunction, w: StepFunction, n: int, mu: BoundaryMeasure, ctx: GroupContext):
    """sum over S_n of <pi(g)v, w>^2, exactly (word metric)."""
    if ctx.metric.kind != "word":
        raise ValueError("sphere sums require the word metric")
    total = QSqrt(0, 0, int(mu.omega))
    for c, rep in sphere_class_table(n, max(1, v.depth(), w.depth()), ctx.k):
        coef = matrix_coefficient(rep, v, w, mu)
        total = total + c * (coef * coef)
    return total


def _rd_ratio(total, n: int, scale: float) -> float:
    return math.sqrt(as_float(total)) / ((1 + n) * math.sqrt(scale))


def annular_rd_ratio(v: StepFunction, w: StepFunction, n: int, mu: BoundaryMeasure, ctx: GroupContext) -> float:
    """r_n = (sum_{S_n} <pi(g)v,w>^2)^(1/2) / ((1+n) ||v|| ||w||)."""
    scale = as_float(norm_sq(v, mu)) * as_float(norm_sq(w, mu))
    return _rd_ratio(sphere_sum_sq(v, w, n, mu, ctx), n, scale)


def rd_sweep(
    v: StepFunction,
    w: StepFunction,
    grid: Sequence[int],
    ctx: GroupContext,
    mu: BoundaryMeasure,
) -> SweepReport:
    ratios = []
    sums_exact = []
    scale = as_float(norm_sq(v, mu)) * as_float(norm_sq(w, mu))
    for n in grid:
        total = sphere_sum_sq(v, w, n, mu, ctx)
        ratios.append(_rd_ratio(total, n, scale))
        sums_exact.append(exact_str(total))
    sup_r = max(ratios)
    band = [r for n, r in zip(grid, ratios) if n >= 2]
    inf_r = min(band) if band else min(ratios)
    passed = inf_r >= _RD_LOWER_BAND and math.isfinite(sup_r)
    return SweepReport(
        name="annular-rd",
        param="n",
        grid=list(grid),
        values=ratios,
        values_exact=sums_exact,
        constants={"sup_ratio": sup_r, "inf_ratio_n_ge_2": inf_r},
        verdict="PASS" if passed else "FAIL",
        passed=passed,
    )


_RD_LOWER_BAND = 0.3  # inf of r_n over n >= 2 that counts as bounded below
_GVB_EXPONENT_BAND = (1.8, 2.2)  # growth exponents that count as "about 2"


def gvb_growth(
    v: StepFunction,
    w: StepFunction,
    grid: Sequence[int],
    ctx: GroupContext,
    mu: BoundaryMeasure,
) -> SweepReport:
    """q_n = sum_{S_n} <pi(g)v,w>^2 and its growth exponent in (1+n).

    Unbounded q_n with exponent about 2 is the computational content of
    the monotony argument: no vector can satisfy the good-vector bound,
    hence the verdict "GVB fails".
    """
    qs = []
    qs_exact = []
    ratios = []
    scale = as_float(norm_sq(v, mu)) * as_float(norm_sq(w, mu))
    for n in grid:
        q = sphere_sum_sq(v, w, n, mu, ctx)
        qs.append(as_float(q))
        qs_exact.append(exact_str(q))
        ratios.append(as_float(q) / ((1 + n) ** 2 * scale))
    exponent, r2, window = fit_growth(list(grid), qs)
    growing = qs[-1] > 2.0 * qs[0]
    in_band = exponent is not None and _GVB_EXPONENT_BAND[0] <= exponent <= _GVB_EXPONENT_BAND[1]
    passed = bool(growing and in_band)
    verdict = "GVB fails" if passed else "inconclusive"
    return SweepReport(
        name="gvb-growth",
        param="n",
        grid=list(grid),
        values=qs,
        values_exact=qs_exact,
        fitted_exponent=exponent,
        fit_r2=r2,
        fit_window=window,
        reference_rate=2.0,
        constants={"ratio_min": min(ratios), "ratio_max": max(ratios)},
        verdict=verdict,
        passed=passed,
        extras={"ratio": ratios},
    )


# -- group-algebra convolution ----------------------------------------------


def convolve(
    phi: Dict[ReducedWord, object],
    psi: Dict[ReducedWord, object],
    budget: int = 10_000_000,
) -> Dict[ReducedWord, object]:
    """(phi * psi)(g) = sum_x phi(x) psi(x^-1 g) over finite supports."""
    if len(phi) * len(psi) > budget:
        raise BudgetError(f"convolution support product {len(phi)}x{len(psi)} exceeds budget")
    out: Dict[ReducedWord, object] = {}
    for x, a in phi.items():
        for y, b in psi.items():
            g = x * y
            prev = out.get(g)
            out[g] = a * b if prev is None else prev + a * b
    return {g: val for g, val in out.items() if val}


def l2_norm_sq(phi: Dict[ReducedWord, object]):
    total: object = Fraction(0)
    for val in phi.values():
        total = total + val * val
    return total


@dataclass
class FiberReport:
    max_by_defect: Dict[int, int]  # p -> max fiber size over |g| = R+R'-2p
    extremal_ok: bool              # fiber size exactly 1 whenever p = 0
    bound_ok: bool                 # max fiber at defect p <= 2k(2k-1)^(p-1)


def _fiber_bound(p: int, k: int) -> int:
    """Haagerup's bound on the fiber size at defect p."""
    return 1 if p == 0 else 2 * k * (2 * k - 1) ** (p - 1)


def _fiber_count(R: int, Rp: int, p: int, k: int) -> int:
    """|{x in S_R : |x^-1 g| = R'}| for each g with |g| = n = R + R' - 2p:
    the x sharing exactly j = R - p letters with g, i.e. the words of S_R on
    g's first j letters less those on its first j+1 (none once j is R or n)."""
    n, j, q = R + Rp - 2 * p, R - p, 2 * k - 1
    on_prefix = sphere_size(R, k) if j == 0 else q ** (R - j)
    return on_prefix - (q ** (R - j - 1) if j < min(R, n) else 0)


def fiber_size_report(r_max: int, k: int) -> FiberReport:
    """Census of the fibers {x in S_R : x^-1 g in S_R'} for R, R' <= r_max,
    one common-prefix class count per defect p = (R + R' - |g|)/2."""
    max_by_defect: Dict[int, int] = {}
    extremal_ok = True
    for R in range(1, r_max + 1):
        for Rp in range(1, r_max + 1):
            for p in range(min(R, Rp) + 1):
                c = _fiber_count(R, Rp, p, k)
                if p == 0 and c != 1:
                    extremal_ok = False
                if c > max_by_defect.get(p, 0):
                    max_by_defect[p] = c
    bound_ok = all(c <= _fiber_bound(p, k) for p, c in max_by_defect.items())
    return FiberReport(max_by_defect, extremal_ok, bound_ok)


@dataclass
class ConvolutionCheck:
    grid: List[Tuple[int, int, int]]
    max_restricted_ratio: float
    max_full_ratio_over_1pR: float
    trials: int


def rd_convolution_check(
    triples: Sequence[Tuple[int, int, int]],
    ctx: GroupContext,
    trials: int = 3,
    seed: int = 0,
    budget: int = 10_000_000,
) -> ConvolutionCheck:
    """Random annulus-supported functions: record the worst observed
    restricted-convolution norm ratio and the full ratio divided by 1+R."""
    rng = np.random.default_rng(seed)
    metric = ctx.metric
    worst_restricted = 0.0
    worst_full = 0.0
    values = [-3, -2, -1, 1, 2, 3]
    for (R, Rp, Rpp) in triples:
        supp_phi = [g for g in enumerate_annulus(R, ctx.h, metric)]
        supp_psi = [g for g in enumerate_annulus(Rp, ctx.h, metric)]
        for _ in range(trials):
            phi = {g: Fraction(values[rng.integers(len(values))]) for g in supp_phi}
            psi = {g: Fraction(values[rng.integers(len(values))]) for g in supp_psi}
            conv = convolve(phi, psi, budget=budget)
            norm_sq_product = l2_norm_sq(phi) * l2_norm_sq(psi)
            restricted = sum(
                val * val for g, val in conv.items() if abs(metric.length_of(g.letters) - Rpp) <= ctx.h
            )
            full = sum(val * val for val in conv.values())
            worst_restricted = max(worst_restricted, math.sqrt(float(restricted / norm_sq_product)))
            worst_full = max(
                worst_full, math.sqrt(float(full / norm_sq_product)) / (1.0 + float(R))
            )
    return ConvolutionCheck(list(triples), worst_restricted, worst_full, trials)
