"""Executable asymptotics: equidistribution weights, the orthogonality
functional, annular rapid-decay sums, convolution bounds, and the good-
vector-bound growth experiment.

Sphere sums exploit an exactness of the word-metric tree: a coefficient
<pi~(g)v, w> for step vectors of letter depth d depends on g only through
(|g|, first d letters, last d letters) once |g| >= 2d.  Summing over a
sphere therefore reduces to a few hundred classes whose cardinalities,
entries of powers of the letter-adjacency matrix, have a closed form in
exact integers (see _junctions), so sweeps stay exact at any radius.

A function given a GroupContext or a WeightFamily reads the boundary
measure from it (ctx.mu, weights.ctx.mu); only those handed nothing
but a measure take one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .boundary import Cylinder, CylinderRectangle, shadow_cut
from .measures import BoundaryMeasure
from .representation import (
    StepFunction,
    _quotient,
    coefficient_sum,
    inner_product,
    norm_sq,
    normalized_coefficient,
)
from .scalars import as_float, exact_str
from .words import (
    GroupContext,
    Letters,
    MetricSpec,
    ReducedWord,
    _hat_prefix,
    annulus_units,
    canonical_letters,
    check_rank,
    enumerate_annulus,
    invert_letters,
    multiply_letters,
    sphere_size,
)


class BudgetError(RuntimeError):
    """A sweep would enumerate more elements than the configured budget."""


class CoverError(RuntimeError):
    """The double shadows failed to cover at the configured rho and h."""


# -- letter adjacency counts ---------------------------------------------

# Stays empty: the counts below are a closed form and nothing is memoized.
# The benchmark harness still clears this table by name between runs.
_ADJ_POWERS: Dict = {}


def _junctions(m: int, k: int) -> Dict[Tuple[int, int], Tuple[int, Letters]]:
    """{(x, y): (count, u)} over the junction letters x, y of the reduced
    words x u y with |u| = m >= 0: their number A^j[x][y] with j = m + 1,
    and the canonically first middle u.

    A = J - P (J all ones, P the inversion x -> x^-1) has the spectrum
    {2k-1, 1, -1}, so A^j = q^j J/2k + (-P)^j (I - J/2k) with q = 2k - 1:
    A^j[x][y] = (q^j - (-1)^j)/2k + (-1)^j [y = x for even j, x^-1 for odd],
    and x^-1 = x ^ 1.

    That u is a^(m-1) b: a is the first letter other than x^-1, and b the
    first other than y^-1 and the inverse of its predecessor (a, or x when
    m = 1).  For m >= 1 every count is positive, as A^2 > 0 for k >= 2.
    """
    letters = canonical_letters(k)
    j_odd = m % 2 == 0
    sign = -1 if j_odd else 1  # (-1)^j
    base = ((2 * k - 1) ** (m + 1) - sign) // (2 * k)
    out = {}
    for x in letters:
        a = next(c for c in letters if c != x ^ 1)
        prev = a if m >= 2 else x
        for y in letters:
            count = base + sign if y == x ^ j_odd else base
            if m == 0:
                out[x, y] = (count, ())
            else:
                b = next(c for c in letters if c != prev ^ 1 and c != y ^ 1)
                out[x, y] = (count, (a,) * (m - 1) + (b,))
    return out


def sphere_class_table(n: int, d: int, k: int) -> List[Tuple[int, ReducedWord]]:
    """(count, representative) per coefficient class of the word sphere S_n
    at depth d >= 0, for every n >= 0, in canonical order of the
    representatives, each the first word of its class.

    At d = 0 the sphere is one class, led by 0^n, a power of the first
    letter.  Below n = 2d the first and last d letters overlap, so every
    word of S_n (the identity at n = 0) is its own class.  From n = 2d on
    the classes are the pairs (p, s) of S_d x S_d whose junction
    (p[-1], s[0]) has a positive count in _junctions(n - 2d, k); that
    entry gives the class size and the middle of its first word.
    """
    if d == 0:
        return [(sphere_size(n, k), ReducedWord((0,) * n, _reduced=True))]
    word = MetricSpec.word(k)
    if n < 2 * d:
        return [(1, g) for g in enumerate_annulus(n, 0, word)]
    stems = [w.letters for w in enumerate_annulus(d, 0, word)]
    junctions = _junctions(n - 2 * d, k)
    # the tails after p depend on p[-1] only, so they are sorted once per letter
    tails = {}
    for x in canonical_letters(k):
        found = [(c, u + s) for s in stems for c, u in (junctions[x, s[0]],) if c]
        tails[x] = sorted(found, key=lambda t: t[1])
    return [(c, ReducedWord(p + t, _reduced=True)) for p in stems for c, t in tails[p[-1]]]


def _resolution_depth(R, ctx: GroupContext) -> int:
    """ceil((R + h) / (2 * min letter length)) + 1, in exact arithmetic."""
    return math.ceil((Fraction(R) + Fraction(ctx.h)) / (2 * Fraction(ctx.metric.min_letter_length))) + 1


# -- weight families -------------------------------------------------------


def _sum_by_key(items) -> Dict:
    """Masses summed per key, each sum taken in item order from 0."""
    out: Dict = {}
    for key, mass in items:
        out[key] = out.get(key, 0) + mass
    return out


class WeightFamily:
    """A probability weighting of an annulus as (count, representative)
    classes, each of mass count / den for one denominator ``den``.

    Word-sphere families are class tables on S_R (``words is None``): the
    uniform family over den = |S_R| when ``stem is None``, and the shadow
    partition when ``stem = a``, mass |S_a|^-2 on the first word of each
    depth-a class, over den = |S_a|^2.  Every other family is its nonzero
    support, one class per word: word-metric Fraction masses as ints over
    their least common denominator, floats otherwise, over 1.  Consumers
    read it through class_entries or pair_table.
    """

    def __init__(
        self,
        R,
        ctx: GroupContext,
        words: Optional[List[Letters]] = None,
        masses: Optional[List] = None,
        annulus_size: Optional[int] = None,
        stem: Optional[int] = None,
    ):
        self.R = R
        self.ctx = ctx
        self.words = words
        self.stem = stem
        self._class_cache: Dict[int, List[Tuple[int, ReducedWord]]] = {}
        self._mass_by_letters: Optional[Dict[Letters, object]] = None
        if words is None:
            self.annulus_size = sphere_size(R, ctx.k)
            self.den = self.annulus_size if stem is None else sphere_size(stem, ctx.k) ** 2
            return
        self.annulus_size = annulus_size
        self.den = math.lcm(*(m.denominator for m in masses)) if self.exact else 1
        counts = (m.numerator * (self.den // m.denominator) for m in masses) if self.exact else masses
        self._per_word = [(c, ReducedWord(w, _reduced=True)) for c, w in zip(counts, words)]

    # -- basic shape ------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.ctx.mu.exact

    def _mass(self, count):
        """A count over den as a mass: a Fraction, or the float count itself
        (float families are over 1)."""
        return Fraction(count, self.den) if self.exact else count

    def support_size(self) -> int:
        if self.words is not None:
            return len(self.words)
        return self.annulus_size if self.stem is None else self.den

    def total(self):
        return self._mass(sum(c for c, _ in self.class_entries(1)))

    def max_mass(self):
        if self.words is not None:
            return self._mass(max(c for c, _ in self._per_word))
        return Fraction(1, self.support_size())  # a class table spreads its mass evenly

    def mass_of(self, g: ReducedWord):
        """A word's mass.  On a shadow partition of S_R it is 1/den exactly
        on the first word of its depth-a class: 0^R at a = 0, else
        g[:a] u g[R-a:] with u the first middle of its junction."""
        if self.words is not None:
            if self._mass_by_letters is None:
                self._mass_by_letters = {h.letters: mass for h, mass in self.entries()}
            return self._mass_by_letters.get(g.letters, self.ctx.mu.zero)
        gl, R, a = g.letters, self.R, self.stem
        if len(gl) != R:
            return Fraction(0)
        if a is None:
            return Fraction(1, self.annulus_size)
        middle = (0,) * R if a == 0 else _junctions(R - 2 * a, self.ctx.k)[gl[a - 1], gl[R - a]][1]
        return Fraction(1, self.den) if gl[a : R - a] == middle else Fraction(0)

    def entries(self) -> Iterator[Tuple[ReducedWord, object]]:
        if self.words is None and self.stem is None:
            mass = Fraction(1, self.annulus_size)
            for g in enumerate_annulus(self.R, 0, self.ctx.metric):
                yield g, mass
        else:  # one class per support word: the stem table at depth a, or the word list
            for c, g in self.class_entries(self.stem or 0):
                yield g, self._mass(c)

    # -- aggregation ------------------------------------------------------

    def class_entries(self, d: int) -> List[Tuple[object, ReducedWord]]:
        """(count, representative) per coefficient class at depth d, each
        class of mass count / den.

        Members of a class share |g| and, once |g| >= 2d, their first and
        last d letters; on the word metric that fixes every depth-d
        normalized coefficient and both depth-d boundary prefixes.

        A shadow partition reads the sphere class table at depth
        e = min(d, a): every pair of S_a x S_a is a class of S_R, so a class
        of depth e holds (|S_a| / |S_e|)^2 of them.  Word lists give one
        entry per support word, in support order, whatever d, so float
        sums keep their order.
        """
        if self.words is not None:
            return self._per_word
        d = max(1, d) if self.stem is None else min(max(1, d), self.stem)
        if d not in self._class_cache:
            k = self.ctx.k
            table = sphere_class_table(self.R, d, k)
            if self.stem is not None:
                count = (sphere_size(self.stem, k) // sphere_size(d, k)) ** 2
                table = [(count, rep) for _, rep in table]
            self._class_cache[d] = table
        return self._class_cache[d]

    def pair_table(self, d1: int, d2: int) -> Tuple[Dict[Tuple[Letters, Letters], object], object]:
        """(table, den): mass table[key] / den per (hat(g) prefix of depth
        d1, check(g) prefix of depth d2), the counts of class_entries summed
        per key: ints on exact families, float masses (over 1) otherwise."""
        keyed = (
            ((_hat_prefix(g.letters, d1), _hat_prefix(invert_letters(g.letters), d2)), c)
            for c, g in self.class_entries(max(d1, d2, 1))
        )
        return _sum_by_key(keyed), self.den


def sphere_weights(n: int, ctx: GroupContext) -> WeightFamily:
    """Uniform mass 1/|S_n| on the word-metric sphere S_n."""
    if ctx.metric.kind != "word":
        raise ValueError("sphere weights require the word metric")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    return WeightFamily(n, ctx)


@dataclass
class CoverReport:
    covered: bool
    witness: Optional[CylinderRectangle]
    R: float
    rho: float
    h: float
    resolution: int
    annulus_size: int


def _grid_depth(R, ctx: GroupContext, budget: int, what: str) -> int:
    """The depth m of the shadow sweeps' cylinder grid, refused when its
    cell pairs exceed 64 * budget."""
    m = _resolution_depth(R, ctx)
    size = sphere_size(m, ctx.k)
    if size**2 > 64 * budget:
        raise BudgetError(f"{what} grid {size}^2 exceeds budget")
    return m


_STEM_CHUNK = 1024  # words per chunk of the stem pass


def _stem_intervals(g: np.ndarray, lengths: np.ndarray, cut, k: int, m: int) -> Tuple[np.ndarray, ...]:
    """shadow_stems of the words in the columns of g (int8 letters, -1 past
    a word's end; lengths in units) as (lo, hi, stem): the count of prefix
    sums of the cut's steps short of den*L - offset, added in letter order,
    and the stem's interval [lo, hi) of canonical indices in S_m.  Chunks of
    _STEM_CHUNK words keep the temporaries under 48 * _STEM_CHUNK * len(g)
    bytes (int64 or float64 sums; object sums add their Python ints)."""
    step, den, offset = cut
    b = 2 * k - 1
    # the pad steps 0, so sums past a word's end stay at 2*den*L: never short, as rho >= 0
    steps = np.array([step[c >> 1] for c in range(2 * k)] + [0], lengths.dtype)
    depth = np.arange(min(m, len(g)))[:, None]
    out = []
    for i in range(0, max(g.shape[1], 1), _STEM_CHUNK):
        w, need = g[:, i : i + _STEM_CHUNK], den * lengths[i : i + _STEM_CHUNK] - offset
        stem = (need > 0) + np.count_nonzero(np.cumsum(steps[w[:-1]], axis=0) < need, axis=0)
        head = w[:m]
        ranks = head.astype(np.int64)  # a letter's rank among its siblings: its code, less one past the parent's inverse
        ranks[1:] -= head[1:] > head[:-1] ^ 1
        lo = (ranks * b ** (m - 1 - depth) * (depth < stem)).sum(axis=0)
        out.append((lo, lo + np.where(stem, b ** (m - stem), sphere_size(m, k)), stem))
    return tuple(np.concatenate(e) for e in zip(*out))


def _unrank(idx: int, k: int, m: int) -> Letters:
    """The word of canonical index idx in S_m (the inverse of the ranks above)."""
    out: List[int] = []
    for i in range(m):
        c, idx = divmod(idx, (2 * k - 1) ** (m - 1 - i))
        if out:
            c += c >= out[-1] ^ 1
        out.append(c)
    return tuple(out)


def _first_blocks(R, ctx: GroupContext, m: int, budget: int) -> Tuple[int, np.ndarray, Tuple[np.ndarray, ...]]:
    """(annulus size, rows, (rlo, rhi, clo, chi)): the first word of each
    block C_p x C_q of the depth-m grid in canonical order, as int8 rows
    padded with -1, and the block's intervals.  Words grow one length at a
    time as in annulus_units, pruned past hi; one stem pass serves them all."""
    metric, cut, size = ctx.metric, shadow_cut(ctx.metric, ctx.rho), sphere_size(m, ctx.k)
    lo, hi = metric.unit_bounds(R - ctx.h, R + ctx.h)
    fits = 2 * cut[1] * max(hi, 1, *metric.units) + cut[2] < 2**62  # every sum below fits int64
    dtype = np.float64 if metric.kind == "green" else np.int64 if fits else object
    codes = np.arange(2 * ctx.k, dtype=np.int8)
    units = np.array([metric.units[c >> 1] for c in range(2 * ctx.k)], dtype)
    words, lengths = np.zeros((int(hi >= 0), 0), np.int8), np.zeros(int(hi >= 0), dtype)
    count, kept_words, kept_lengths = 0, [], [np.zeros(0, dtype)]
    while len(words):
        n, kept = words.shape[1], lengths >= lo
        kept_words.append(words[kept])
        kept_lengths.append(lengths[kept])
        count += len(kept_words[-1])
        if count > budget:
            raise BudgetError(f"annulus at R={R} exceeds budget {budget}")
        last = words[:, -1:] ^ 1 if n else -1
        rows, cols = np.nonzero((codes != last) & (lengths[:, None] + units <= hi))
        words, lengths = np.hstack([words[rows], codes[cols, None]]), lengths[rows] + units[cols]
    width = max((w.shape[1] for w in kept_words), default=0)
    annulus = np.full((width, 2 * count), -1, np.int8)  # a column per word g, then per g^-1
    start = 0
    for w in kept_words:
        annulus[: w.shape[1], start : start + len(w)] = w.T
        annulus[: w.shape[1], count + start : count + start + len(w)] = w.T[::-1] ^ 1
        start += len(w)
    lengths = np.concatenate(kept_lengths)
    lows, highs, stems = _stem_intervals(annulus, np.tile(lengths, 2), cut, ctx.k, m)
    p, q = (lows * (m + 1) + stems).reshape(2, -1)  # a stem by its interval start and length
    # canonical order: the first letter first, the pad -1 (a prefix) before every letter
    order = np.lexsort(annulus[::-1, :count]) if width else np.arange(count)
    _, first = np.unique((p * size * (m + 1) + q)[order], return_index=True)
    first = order[np.sort(first)]
    return count, annulus[:, first].T, tuple(e[first + j] for j in (0, count) for e in (lows, highs))


def _sweep_cover(R, ctx: GroupContext, budget: int) -> CoverReport:
    """check_shadow_cover by the dense sweep: the union of the blocks on the
    grid of depth-m cylinder pairs (claim order does not matter); the
    witness is the first uncovered cell in row-major order.  A block sets
    its columns on the first row of its row cylinder, and each depth ORs a
    cylinder's first row into its children's, so depth m holds the union."""
    m = _grid_depth(R, ctx, budget, "cover")
    count, _, (rlo, rhi, clo, chi) = _first_blocks(R, ctx, m, budget)
    k, size = ctx.k, sphere_size(m, ctx.k)
    grid = np.zeros((size, size), dtype=bool)
    tall, wide = rhi - rlo, chi - clo
    for a in range(m + 1):
        height = size // sphere_size(a, k)  # rows of a depth-a cylinder
        if a:
            firsts = grid.reshape(sphere_size(a - 1, k), -1, height, size)[:, :, 0]
            firsts[:, 1:] |= firsts[:, :1]
        at = tall == height
        for width in np.unique(wide[at]).tolist():
            sel = at & (wide == width)
            grid.reshape(-1, height, size // width, width)[rlo[sel] // height, 0, clo[sel] // width] = True
    full = bool(grid.all())
    witness = None
    if not full:
        i, j = divmod(int(np.argmin(grid)), size)  # the first False
        witness = CylinderRectangle(Cylinder(_unrank(i, k, m)), Cylinder(_unrank(j, k, m)))
    return CoverReport(full, witness, R, ctx.rho, ctx.h, m, count)


def _cover_error(R, ctx: GroupContext) -> CoverError:
    return CoverError(
        f"shadows at R={R}, rho={ctx.rho}, h={ctx.h} do not cover; "
        "raise rho or h (renormalizing would fake the cover)"
    )


def _sweep_partition(R, ctx: GroupContext, budget: int) -> WeightFamily:
    """build_partition_weights by the dense sweep: blocks claim the grid in
    the canonical order of their first words until it is full, each first
    word getting the product mass of its cells, priced before marking."""
    m = _grid_depth(R, ctx, budget, "partition")
    count, rows, blocks = _first_blocks(R, ctx, m, budget)
    exact, size = ctx.mu.exact, sphere_size(m, ctx.k)
    cell_sq = Fraction(1, 2 * ctx.k) ** 2 * Fraction(1, 2 * ctx.k - 1) ** (2 * m - 2)
    cells = None if exact else ctx.mu.sphere_masses(m)
    occupied, claimed, words, masses = np.zeros((size, size), dtype=bool), 0, [], []
    for i, (rlo, rhi, clo, chi) in enumerate(zip(*(e.tolist() for e in blocks))):
        if claimed == occupied.size:
            break
        sub = occupied[rlo:rhi, clo:chi]
        taken = sub.size - int(np.count_nonzero(sub))
        if taken:
            words.append(tuple(c for c in rows[i].tolist() if c >= 0))
            masses.append(taken * cell_sq if exact else float(np.outer(cells[rlo:rhi], cells[clo:chi])[~sub].sum()))
            sub[:] = True
            claimed += taken
    if claimed < occupied.size:
        raise _cover_error(R, ctx)
    fam = WeightFamily(R, ctx, words, masses, annulus_size=count)
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
# (0^a, 0^a) of the first letter, code 0, is missing: g would have to
# start with 0^a and end with 1^a (its inverse), an empty junction (0, 1)
# at 2a = n and a clash on the overlap at 2a > n.  It is the first pair
# in canonical order, so the first uncovered cell is the grid's first,
# C_{0^m} x C_{0^m}.


def _sphere_radius(R, ctx: GroupContext) -> Optional[int]:
    """R as an int when the annulus at R is the word sphere S_R (word
    metric, h = 0, R a whole number >= 0); None sends the caller to the
    dense sweep."""
    if ctx.metric.kind == "word" and ctx.h == 0 and R >= 0 and float(R).is_integer():
        return int(R)
    return None


def _stem_depth(n: int, R, ctx: GroupContext, budget: int, what: str) -> Tuple[int, int, bool]:
    """(grid depth m, stem depth a, covered) for the word sphere S_n.  The
    dense sweep's budget refusals are checked from the sizes; no grid is
    built."""
    m = _grid_depth(R, ctx, budget, what)
    if sphere_size(n, ctx.k) > budget:
        raise BudgetError(f"annulus at R={R} exceeds budget {budget}")
    a = max(0, math.ceil(Fraction(n, 2) - Fraction(ctx.rho)))
    return m, a, a == 0 or 2 * a < n


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
    m, _, covered = _stem_depth(n, R, ctx, budget, "cover")
    first = Cylinder((0,) * m)
    witness = None if covered else CylinderRectangle(first, first)
    return CoverReport(covered, witness, R, ctx.rho, ctx.h, m, sphere_size(n, ctx.k))


def build_partition_weights(R, ctx: GroupContext, budget: int = 10_000_000) -> WeightFamily:
    """Greedy shadow-partition weights: sweep the annulus in canonical
    order, give each element the product mass of the not-yet-claimed part
    of its double shadow, claim it.

    Masses are exact for the word metric.  On a word sphere the family is
    kept as the sphere class table at the stem depth a: the first word of
    each stem-pair class, with mass |S_a|^-2 each.  If any resolution
    cell stays unclaimed the cover has failed and the builder raises
    instead of renormalizing.
    """
    n = _sphere_radius(R, ctx)
    if n is None:
        return _sweep_partition(R, ctx, budget)
    _, a, covered = _stem_depth(n, R, ctx, budget, "partition")
    if not covered:
        raise _cover_error(R, ctx)
    return WeightFamily(n, ctx, stem=a)


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
    def rectangle(cls, first: Cylinder, second: Cylinder, k: int) -> "PairStepFunction":
        return cls([(first, second, Fraction(1))], k)

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
        total = mu.zero
        for first, second, val in self.cells:
            total = total + val * mu.mass(first) * mu.mass(second)
        return total


def equidistribution_pairing(F: PairStepFunction, weights: WeightFamily):
    """(sum_g w(g) F(hat g, check g), integral of F against mu x mu)."""
    d1, d2 = F.depths()
    table, den = weights.pair_table(d1, d2)
    lhs = weights.ctx.mu.zero
    for (p1, p2), mass in table.items():
        lhs = lhs + mass * F.value_at_prefixes(p1, p2)
    return lhs / den, F.integral(weights.ctx.mu)


def equidistribution_error(F: PairStepFunction, weights: WeightFamily):
    lhs, rhs = equidistribution_pairing(F, weights)
    return abs(lhs - rhs)


def _cylinder_masses(mu: BoundaryMeasure, d: int) -> Tuple[Dict[Letters, object], object]:
    """(masses, den): mu(C_u) = masses[u] / den per stem u of depth d, in
    descending order of mass; 1 over |S_d| each on the word metric."""
    stems = (w.letters for w in enumerate_annulus(d, 0, MetricSpec.word(mu.k)))
    if mu.exact:
        return dict.fromkeys(stems, 1), sphere_size(d, mu.k)
    return dict(sorted(((u, mu.mass_letters(u)) for u in stems), key=lambda e: e[1], reverse=True)), 1


def _table_rectangle_error(table: Dict[Tuple[Letters, Letters], object], den, m1: Tuple, m2: Tuple):
    """Max |W(C_u x C_v) - mu(C_u) mu(C_v)| over the rectangles with u in
    m1 and v in m2 (from _cylinder_masses), given the table of the nonzero
    masses W(C_u x C_v) over den (from pair_table): the max numerator over
    den e1 e2, divided once (floats are over 1, so bit for bit).

    An absent rectangle has mass 0, so its error is mu(C_u) mu(C_v): in
    row u the largest is at the first absent v in m2's descending order,
    bit for bit, as x > 0 and a <= b give x*a <= x*b in floating point too.
    """
    (n1, e1), (n2, e2) = m1, m2
    worst = max(abs(c * e1 * e2 - n1[u] * n2[v] * den) for (u, v), c in table.items())
    if len(table) < len(n1) * len(n2):
        for u, mass_u in n1.items():
            v = next((v for v in n2 if (u, v) not in table), None)
            if v is not None:
                worst = max(worst, mass_u * n2[v] * den)
    return _quotient(worst, den * e1 * e2)


def max_rectangle_error(weights: WeightFamily, max_depth: int):
    """Max equidistribution error over all rectangles of depth <= max_depth
    (both factors range over depths 0..max_depth independently).

    Every (d1, d2) table is a marginal of the one depth-max_depth pair
    table, summed in its stored order.  A stem partition is exact at
    depths <= a (see max_uniform_rectangle_error).
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if weights.stem is not None and max_depth <= weights.stem:
        return Fraction(0)
    table, den = weights.pair_table(max_depth, max_depth)
    masses = [_cylinder_masses(weights.ctx.mu, d) for d in range(max_depth + 1)]
    return max(
        _table_rectangle_error(
            _sum_by_key(((p1[:d1], p2[:d2]), c) for (p1, p2), c in table.items()), den, masses[d1], masses[d2]
        )
        for d1 in range(max_depth + 1)
        for d2 in range(max_depth + 1)
    )


def max_uniform_rectangle_error(weights: WeightFamily, depth: int):
    """Max equidistribution error over rectangles of exact depth x depth.

    Probing at depths finer than the shadow stems is what exposes a
    nonzero error on the tree.  A stem partition gives each pair (p, q)
    of S_a x S_a mass |S_a|^-2 on one word g with p = g[:a] and
    q = (g^-1)[:a].  At depths <= a a key holds exactly its product mass;
    at depth D > a each pair is its own key, so the error is
    |S_a|^-2 - |S_D|^-2, with no table built.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if weights.stem is not None:
        past = Fraction(1, weights.den) - Fraction(1, sphere_size(depth, weights.ctx.k) ** 2)
        return past if depth > weights.stem else Fraction(0)
    table, den = weights.pair_table(depth, depth)
    masses = _cylinder_masses(weights.ctx.mu, depth)
    return _table_rectangle_error(table, den, masses, masses)


# -- test functions and the orthogonality functional -----------------------


@dataclass
class TestFunction:
    """Continuous function on the compactification: a boundary step part
    composed with the retraction, plus a finitely supported interior
    perturbation (vanishing at infinity, hence continuous) whose words
    lie in the boundary part's rank."""

    __test__ = False  # not a pytest class despite the Test prefix

    boundary: StepFunction
    interior: Dict[ReducedWord, object] = field(default_factory=dict)

    def __post_init__(self):
        for g in self.interior:
            check_rank(g.letters, self.boundary.k)

    @classmethod
    def one(cls, k: int) -> "TestFunction":
        return cls(StepFunction.constant(Fraction(1), k))

    def value_at_group(self, g: ReducedWord):
        base = self.boundary.value_at_hat(g.letters)
        extra = self.interior.get(g)
        return base if extra is None else base + extra


def _check_ranks(k: int, functions: Sequence[StepFunction]) -> None:
    """Refuse a step function of another rank than the context's."""
    for f in functions:
        if f.k != k:
            raise ValueError(f"step function of rank {f.k} on a context of rank {k}")


def phi_r(
    f1: TestFunction,
    f2: TestFunction,
    v1: StepFunction,
    v2: StepFunction,
    w1: StepFunction,
    w2: StepFunction,
    weights: WeightFamily,
):
    """The orthogonality functional: the weighted annulus average of
    f1(g) f2(g^-1) <pi~(g)v1, w1> conj(<pi~(g)v2, w2>)."""
    return phi_r_pairs(f1, f2, [(v1, w1), (v2, w2)], weights)[0][1]


def phi_r_pairs(
    f1: TestFunction,
    f2: TestFunction,
    pairs: Sequence[Tuple[StepFunction, StepFunction]],
    weights: WeightFamily,
) -> List[List[object]]:
    """Phi_R for every ordered combination of coefficient slots.

    Entry [i][j] is phi_r with (v1, w1) = pairs[i], (v2, w2) = pairs[j],
    summed over the weights' coefficient classes at the depth of the
    vectors and of the boundary parts of f1 and f2.  Interior
    perturbations are then added as corrections at the finitely many
    group elements they touch.

    On the word metric with rational values each term is an int over a
    denominator fixed by |g|, so each length sums ints and divides once,
    and <pi(g) v, w> depends only on the key (|g|, g[:depth(w)],
    g[max(0, |g| - depth(v)):]): one coefficient_sum call per key and
    pair, whatever the radius.  Weighted metrics break the key; float
    measures sum one normalized coefficient per class and pair, in order.
    """
    if not pairs:
        raise ValueError("phi_r_pairs needs at least one (v, w) slot pair, got none")
    steps = [f1.boundary, f2.boundary, *(x for vw in pairs for x in vw)]
    _check_ranks(weights.ctx.k, steps)
    entries = weights.class_entries(max(1, *(f.depth() for f in steps)))
    mu = weights.ctx.mu

    def add(g: ReducedWord, factor) -> None:
        ncs = [normalized_coefficient(g, v, w, mu) for v, w in pairs]
        for i in range(len(pairs)):
            row = out[i]
            for j in range(len(pairs)):
                row[j] = row[j] + factor * ncs[i] * ncs[j]

    if mu.exact and all(isinstance(val, (int, Fraction)) for f in steps for _, val in f.cells):
        out = _integer_class_sums(f1.boundary, f2.boundary, pairs, entries, weights.den, mu)
    else:
        out = [[mu.zero for _ in pairs] for _ in pairs]
        for c, g in entries:
            gl = g.letters
            add(g, weights._mass(c) * f1.boundary.value_at_hat(gl) * f2.boundary.value_at_hat(invert_letters(gl)))
    for g0 in set(f1.interior) | {~g for g in f2.interior}:
        mass = weights.mass_of(g0)
        if mass:
            base = f1.boundary.value_at_hat(g0.letters) * f2.boundary.value_at_hat(invert_letters(g0.letters))
            add(g0, mass * (f1.value_at_group(g0) * f2.value_at_group(~g0) - base))
    return out


def _integer_class_sums(b1: StepFunction, b2: StepFunction, pairs, entries, mden: int, mu) -> List[List[Fraction]]:
    """phi_r_pairs' class sums on the word metric with rational values: per
    length n the ints c F N_i N_j, for a class count c over mden, boundary
    values F / (fden1 fden2) and normalized coefficients N_i D / (den_i T_0),
    (D, T_0) the root of the geodesic table at n."""
    (fden1, _), (fden2, _), d1, d2 = b1.terms(True), b2.terms(True), b1.depth(), b2.depth()
    slots = [(i, v, w, v.depth(), w.depth()) for i, (v, w) in enumerate(pairs)]
    size = range(len(pairs))
    kernel: Dict[Tuple, Tuple[int, int]] = {}  # (N_i, den_i) by key (i, n, prefix, suffix)
    values: Dict[Tuple, int] = {}  # F by (g[:d1], g[max(0, n - d2):]), which fix both values
    lengths: Dict[int, Tuple[Letters, List[List[int]], List[int]]] = {}  # n -> (a word, sums, dens)
    for c, g in entries:
        gl, n = g.letters, len(g)
        fkey = (gl[:d1], gl[max(0, n - d2):])
        if fkey not in values:
            values[fkey] = (b1.value_at_hat(gl) * fden1 * b2.value_at_hat(invert_letters(gl)) * fden2).numerator
        weight = c * values[fkey]
        if weight:
            _, sums, dens = lengths.setdefault(n, (gl, [[0 for _ in size] for _ in size], [1 for _ in size]))
            ns = []
            for i, v, w, dv, dw in slots:
                key = (i, n, gl[:dw], gl[max(0, n - dv):])
                if key not in kernel:
                    kernel[key] = coefficient_sum(g, v, w, mu)[1:]
                N, dens[i] = kernel[key]
                ns.append(N)
            for i in size:
                for j in size:
                    sums[i][j] += weight * ns[i] * ns[j]
    out = [[Fraction(0) for _ in size] for _ in size]
    for gl, sums, dens in lengths.values():
        _, D, integral = mu.geodesic_integrals(gl, len(gl))
        base = mden * fden1 * fden2 * integral((), 0) ** 2
        for i in size:
            for j in size:
                out[i][j] += Fraction(sums[i][j] * D * D, base * dens[i] * dens[j])
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


class GridRun(NamedTuple):
    """sweep_grid's points done, their results and seconds, and its refusal."""

    grid: List
    results: List
    seconds: List[float]
    refusal: Optional[RuntimeError]


def sweep_grid(grid: Sequence, point: Callable) -> GridRun:
    """point(x) for each x of the grid in order, each call timed, until the
    first BudgetError or CoverError: that error is the refusal, the points
    before it kept."""
    done, results, seconds = [], [], []
    for x in grid:
        t0 = time.monotonic()
        try:
            results.append(point(x))
        except (BudgetError, CoverError) as exc:
            return GridRun(done, results, seconds, exc)
        seconds.append(time.monotonic() - t0)
        done.append(x)
    return GridRun(done, results, seconds, None)


@dataclass
class SweepReport:
    name: str
    grid: List = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    refusal: Optional[RuntimeError] = None
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
            "partial": self.refusal is not None,
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
    weights_kind: str = "sphere",
    budget: int = 10_000_000,
    tolerance: float = 0.05,
) -> List[SweepReport]:
    """Phi_R of every case along a grid against the theorem's limit, one
    report per case, with decay fits against the modulus-of-continuity
    reference rate eps/2.

    Slot pairs shared between cases are evaluated once: each radius costs
    one phi_r_pairs call.  A BudgetError or CoverError while building the
    weights stops the sweep: the reports keep the radii before it, partial
    and failed.
    """
    if weights_kind not in ("sphere", "shadow"):
        raise ValueError(f"unknown weights kind {weights_kind!r}")
    if not cases:
        raise ValueError("orthogonality_sweep needs at least one case, got none")
    _check_ranks(ctx.k, [f1.boundary, f2.boundary, *(x for c in cases for x in c[1:])])
    # step functions hash by identity, so each slot pair is one key
    used = (vw for c in cases for vw in ((c.v1, c.w1), (c.v2, c.w2)))
    index = {vw: i for i, vw in enumerate(dict.fromkeys(used))}
    pairs = list(index)
    slots = [(index[c.v1, c.w1], index[c.v2, c.w2]) for c in cases]
    targets = [orthogonality_target(f1, f2, c.v1, c.v2, c.w1, c.w2, ctx.mu) for c in cases]

    def point(R):
        weights = sphere_weights(R, ctx) if weights_kind == "sphere" else build_partition_weights(R, ctx, budget=budget)
        return phi_r_pairs(f1, f2, pairs, weights)

    run = sweep_grid(grid, point)
    reports = []
    for case, (i, j), target in zip(cases, slots, targets):
        rep = SweepReport(case.name, list(run.grid), list(run.seconds), run.refusal, reference_rate=float(ctx.epsilon) / 2.0)
        floor = _REL_FLOOR if abs(target) < _REL_FLOOR else abs(target)
        for val in (table[i][j] for table in run.results):
            err = abs(val - target)
            rep.values.append(as_float(val))
            rep.values_exact.append(exact_str(val))
            rep.targets.append(as_float(target))
            rep.targets_exact.append(exact_str(target))
            rep.abs_errors.append(as_float(err))
            rep.rel_errors.append(as_float(err / floor))
        rep.fitted_exponent, rep.fit_r2, rep.fit_window = fit_decay(rep.grid, rep.abs_errors)
        rep.passed = bool(rep.rel_errors and rep.rel_errors[-1] <= tolerance) and run.refusal is None
        rep.verdict = "PASS" if rep.passed else "FAIL"
        reports.append(rep)
    return reports


# -- annular rapid decay and GVB --------------------------------------------


def sphere_sum_sq(v: StepFunction, w: StepFunction, n: int, ctx: GroupContext):
    """sum over S_n of <pi(g)v, w>^2, exactly (word metric)."""
    if ctx.metric.kind != "word":
        raise ValueError("sphere sums require the word metric")
    _check_ranks(ctx.k, [v, w])
    total = 0
    for c, rep in sphere_class_table(n, max(1, v.depth(), w.depth()), ctx.k):
        _, s, den = coefficient_sum(rep, v, w, ctx.mu)
        total = total + c * s * s
    # every coefficient on S_n is q^(-n/2) s / den, with one den for all of them
    return _quotient(total, den * den * ctx.mu.omega**n)


def _sum_sq_series(v: StepFunction, w: StepFunction, grid: Sequence[int], ctx: GroupContext):
    """(the sweep of q_n = sphere_sum_sq over the grid, ||v||^2 ||w||^2 as a float)."""
    run = sweep_grid(grid, lambda n: sphere_sum_sq(v, w, n, ctx))  # first: it refuses vectors of another rank
    return run, as_float(norm_sq(v, ctx.mu)) * as_float(norm_sq(w, ctx.mu))


def annular_rd_ratio(v: StepFunction, w: StepFunction, n: int, ctx: GroupContext) -> float:
    """r_n = (sum_{S_n} <pi(g)v,w>^2)^(1/2) / ((1+n) ||v|| ||w||)."""
    return rd_sweep(v, w, [n], ctx).values[0]


def rd_sweep(v: StepFunction, w: StepFunction, grid: Sequence[int], ctx: GroupContext) -> SweepReport:
    run, scale = _sum_sq_series(v, w, grid, ctx)
    ratios = [math.sqrt(as_float(q)) / ((1 + n) * math.sqrt(scale)) for n, q in zip(run.grid, run.results)]
    sup_r = max(ratios)
    band = [r for n, r in zip(run.grid, ratios) if n >= 2]
    inf_r = min(band) if band else min(ratios)
    passed = inf_r >= _RD_LOWER_BAND and math.isfinite(sup_r) and run.refusal is None
    return SweepReport(
        "annular-rd", run.grid, run.seconds, run.refusal,
        values=ratios,
        values_exact=[exact_str(total) for total in run.results],
        constants={"sup_ratio": sup_r, "inf_ratio_n_ge_2": inf_r},
        verdict="PASS" if passed else "FAIL",
        passed=passed,
    )


_RD_LOWER_BAND = 0.3  # inf of r_n over n >= 2 that counts as bounded below
_GVB_EXPONENT_BAND = (1.8, 2.2)  # growth exponents that count as "about 2"


def gvb_growth(v: StepFunction, w: StepFunction, grid: Sequence[int], ctx: GroupContext) -> SweepReport:
    """q_n = sum_{S_n} <pi(g)v,w>^2 and its growth exponent in (1+n).

    Unbounded q_n with exponent about 2 is the computational content of
    the monotony argument: no vector can satisfy the good-vector bound,
    hence the verdict "GVB fails".
    """
    run, scale = _sum_sq_series(v, w, grid, ctx)
    qs = [as_float(q) for q in run.results]
    ratios = [q / ((1 + n) ** 2 * scale) for n, q in zip(run.grid, qs)]
    exponent, r2, window = _top_half_fit(run.grid, qs, lambda n: math.log(1.0 + n))  # log(q) ~ beta log(1+n)
    growing = qs[-1] > 2.0 * qs[0]
    in_band = exponent is not None and _GVB_EXPONENT_BAND[0] <= exponent <= _GVB_EXPONENT_BAND[1]
    passed = bool(growing and in_band) and run.refusal is None
    verdict = "GVB fails" if passed else "inconclusive"
    return SweepReport(
        "gvb-growth", run.grid, run.seconds, run.refusal,
        values=qs,
        values_exact=[exact_str(q) for q in run.results],
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
    phi: Dict[Letters, int],
    psi: Dict[Letters, int],
    budget: int = 10_000_000,
) -> Dict[Letters, int]:
    """(phi * psi)(g) = sum_x phi(x) psi(x^-1 g) over finite supports,
    keyed by reduced letter tuples; integer values give exact sums."""
    if len(phi) * len(psi) > budget:
        raise BudgetError(f"convolution support product {len(phi)}x{len(psi)} exceeds budget")
    out: Dict[Letters, int] = {}
    for x, a in phi.items():
        for y, b in psi.items():
            g = multiply_letters(x, y)
            out[g] = out.get(g, 0) + a * b
    return {g: val for g, val in out.items() if val}


def l2_norm_sq(phi: Dict[Letters, int]) -> int:
    return sum(val * val for val in phi.values())


def _cancellation_norms(phi: np.ndarray, psi: np.ndarray, R: int, Rp: int, k: int) -> Dict[int, int]:
    """{n: sum of (phi * psi)(g)^2 over |g| = n = R + R' - 2j} for int arrays on
    the word spheres S_R, S_R' (canonical order).  x^-1 and y share exactly j
    first letters m^-1: j >= 1 sums one matrix product split after m^-1, j = 0
    the squares by first letter (README).  Each sum is <= 144 |S_R| |S_R'| <=
    144 budget (entries <= 9 |S_j|, |S_j| |S_(n-j)| <= 4/3 |S_n|), past int64 in
    Python ints; no array exceeds 8 |S_R| |S_R'| / (2k-1)^2, 11 |S_R| or 11 |S_R'| bytes."""
    if 144 * len(phi) * len(psi) > np.iinfo(np.int64).max:
        phi, psi = phi.astype(object), psi.astype(object)
    q, e, letters = 2 * k - 1, np.arange(2 * k - 1), np.arange(2 * k)
    last, inv, lasts = letters, letters ^ 1, {1: letters}
    for m in range(2, R + 1):  # last letter and rank of the inverse of each word of S_m
        up = np.repeat(last ^ 1, q)  # first letter of the parent's inverse
        last = lasts[m] = (e + (e >= (last ^ 1)[:, None])).ravel()
        inv = (last ^ 1) * q ** (m - 1) + (up - (up > last)) * q ** (m - 2) + np.repeat(inv, q) % q ** (m - 2)

    def split(f: np.ndarray, n: int, j: int) -> np.ndarray:  # f(ps) at (p, s) in S_j x S_(n-j), 0 if unreduced
        if j == n:
            return f.reshape(-1, 1)
        out = np.zeros((len(lasts[j]), 2 * k, q ** (n - j - 1)), dtype=f.dtype)
        out[np.arange(len(out))[:, None], e + (e >= (lasts[j] ^ 1)[:, None])] = f.reshape(len(out), q, -1)
        return out.reshape(len(out), -1)

    zphi = phi[inv] if R else phi  # phi(z^-1) at z, in the canonical order of z
    a, b = ((f * f).reshape(2 * k if n else 1, -1).sum(axis=1).tolist() for f, n in ((zphi, R), (psi, Rp)))
    norms = {R + Rp: sum(a) * sum(b) - (sum(x * y for x, y in zip(a, b)) if R and Rp else 0)}
    for j in range(1, min(R, Rp) + 1):
        P = split(zphi, R, j).T @ split(psi, Rp, j)
        if j < min(R, Rp):  # rows u^-1 and columns w that start alike share more than j letters
            P.reshape(2 * k, -1, 2 * k, P.shape[1] // (2 * k))[letters, :, letters, :] = 0
        norms[R + Rp - 2 * j] = int((P * P).sum())
    return norms


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
    seconds: List[float]
    refusal: Optional[RuntimeError]


def empty_annulus_error(triple: Sequence, ctx: GroupContext) -> Optional[str]:
    """Why the triple (R, R', R'') cannot be checked, or None: the first of
    its annuli of half-width ctx.h that holds no word.  An empty R or R'
    support has norm 0, which every ratio divides by; an empty R'' annulus
    makes every restricted ratio 0."""
    for r in triple:
        if next(annulus_units(r, ctx.h, ctx.metric), None) is None:
            return f"no word has metric length within h = {ctx.h} of {r}"
    return None


def rd_convolution_check(
    triples: Sequence[Tuple[int, int, int]],
    ctx: GroupContext,
    trials: int = 3,
    seed: int = 0,
    budget: int = 10_000_000,
) -> ConvolutionCheck:
    """Random annulus-supported functions: record the worst observed
    restricted-convolution norm ratio and the full ratio divided by 1+R.

    Each function takes integer values -3..3 (never 0) on the letter
    tuples of its annulus in canonical order (one draw each), so the norms
    are exact ints and each ratio ``int / int`` is correctly rounded once;
    word spheres (word metric, h = 0) sum them by cancellation depth, other
    annuli convolve.  A triple with an empty annulus raises ValueError; the
    triples run through sweep_grid, so a BudgetError keeps those before it."""
    for triple in triples:
        error = empty_annulus_error(triple, ctx)
        if error:
            raise ValueError(f"triple {tuple(triple)}: {error}")
    rng, metric = np.random.default_rng(seed), ctx.metric
    spheres = metric.kind == "word" and ctx.h == 0
    values = np.array([-3, -2, -1, 1, 2, 3])
    worst = [0.0, 0.0]  # restricted, full

    def point(R: int, Rp: int, Rpp: int) -> None:
        lo, hi = metric.unit_bounds(Rpp - Fraction(ctx.h), Rpp + Fraction(ctx.h))  # |g| within h of R''
        supports = None if spheres else [[g.letters for g in enumerate_annulus(r, ctx.h, metric)] for r in (R, Rp)]
        sizes = [sphere_size(r, ctx.k) for r in (R, Rp)] if spheres else [len(s) for s in supports]
        if sizes[0] * sizes[1] > budget:
            raise BudgetError(f"convolution support product {sizes[0]}x{sizes[1]} exceeds budget")
        for _ in range(trials):
            phi, psi = (values[rng.integers(len(values), size=n)] for n in sizes)
            norm_sq_product = int(phi @ phi) * int(psi @ psi)
            if spheres:
                norms = _cancellation_norms(phi, psi, R, Rp, ctx.k)
            else:
                conv = convolve(dict(zip(supports[0], phi.tolist())), dict(zip(supports[1], psi.tolist())), budget)
                norms = _sum_by_key((metric.units_of(g), val * val) for g, val in conv.items())
            restricted = sum(val for n, val in norms.items() if lo <= n <= hi)
            worst[0] = max(worst[0], math.sqrt(restricted / norm_sq_product))
            worst[1] = max(worst[1], math.sqrt(sum(norms.values()) / norm_sq_product) / (1.0 + float(R)))

    run = sweep_grid(triples, lambda triple: point(*triple))
    return ConvolutionCheck(run.grid, *worst, run.seconds, run.refusal)
