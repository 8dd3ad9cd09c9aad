"""The Gromov boundary of F_k as infinite reduced words.

Boundary points are restricted to eventually periodic words (dense,
closed under the group action, finitely representable).  Cylinders are
the clopen basis; on a tree every visual ball is exactly a cylinder, so
all measure and shadow computations below are exact set algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .words import (
    GroupContext,
    Letter,
    Letters,
    MetricSpec,
    ReducedWord,
    canonical_letters,
    hat_projection,
    letter_from_str,
    letter_key,
    letter_to_str,
    multiply_letters,
    reduce_letters,
)


def _is_reduced(seq: Sequence[Letter]) -> bool:
    return all(seq[i] != -seq[i + 1] for i in range(len(seq) - 1))


def _primitive_root(period: Letters) -> Letters:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[: d] * (n // d):
            return period[:d]
    return period


class BoundaryPoint:
    """Eventually periodic infinite reduced word, canonical form.

    Canonical: the period is primitive and the preperiod is minimal (a
    shared trailing letter is rotated into the period).
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: Sequence[Letter], period: Sequence[Letter]):
        pre = tuple(preperiod)
        per = tuple(period)
        if not per:
            raise ValueError("period must be nonempty")
        if not _is_reduced(pre) or not _is_reduced(per):
            raise ValueError("preperiod and period must be reduced")
        if per[-1] == -per[0]:
            raise ValueError("period does not concatenate reducibly with itself")
        if pre and pre[-1] == -per[0]:
            raise ValueError("preperiod does not concatenate reducibly with period")
        per = _primitive_root(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
        self.preperiod = pre
        self.period = per

    @classmethod
    def from_str(cls, text: str) -> "BoundaryPoint":
        stem, _, per = text.partition("|")
        pre = () if stem in ("", "e") else tuple(letter_from_str(c) for c in stem)
        return cls(pre, tuple(letter_from_str(c) for c in per))

    def __str__(self) -> str:
        stem = "".join(letter_to_str(s) for s in self.preperiod)
        per = "".join(letter_to_str(s) for s in self.period)
        return f"{stem}|{per}"

    def __repr__(self) -> str:
        return f"BoundaryPoint({self})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoundaryPoint):
            return self.preperiod == other.preperiod and self.period == other.period
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period))

    def letter_at(self, i: int) -> Letter:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix_letters(self, n: int) -> Letters:
        return tuple(self.letter_at(i) for i in range(n))

    def translate(self, g: ReducedWord) -> "BoundaryPoint":
        """The point g*xi, exactly (reduction resolved on a long prefix)."""
        depth = len(g) + len(self.preperiod) + 2 * len(self.period)
        head = reduce_letters(g.letters + self.prefix_letters(depth))
        # beyond the cancellation zone the tail is untouched, so the word
        # is head plus the original period continuing from position depth
        offset = (depth - len(self.preperiod)) % len(self.period)
        per = self.period[offset:] + self.period[:offset]
        return BoundaryPoint(head, per)


def _common_prefix_bound(x: BoundaryPoint, y: BoundaryPoint) -> int:
    lcm = abs(len(x.period) * len(y.period)) // math.gcd(len(x.period), len(y.period))
    return max(len(x.preperiod), len(y.preperiod)) + lcm


def boundary_common_letters(x, y) -> Optional[int]:
    """Letters in the common prefix of words/boundary points; None if equal
    as boundary points (infinite agreement)."""
    if isinstance(x, ReducedWord) and isinstance(y, ReducedWord):
        n = min(len(x), len(y))
        i = 0
        while i < n and x.letters[i] == y.letters[i]:
            i += 1
        return i
    if isinstance(x, ReducedWord):
        word, point = x, y
        i = 0
        while i < len(word) and word.letters[i] == point.letter_at(i):
            i += 1
        return i
    if isinstance(y, ReducedWord):
        return boundary_common_letters(y, x)
    bound = _common_prefix_bound(x, y)
    i = 0
    while i < bound and x.letter_at(i) == y.letter_at(i):
        i += 1
    return None if i >= bound else i


def boundary_gromov(x, y, m: MetricSpec):
    """Gromov product on the compactification; inf for equal boundary points.

    On the tree the liminf defining the extension is attained and equals
    the metric length of the common prefix.
    """
    c = boundary_common_letters(x, y)
    if c is None:
        return math.inf
    if isinstance(x, ReducedWord):
        return m.length_of(x.letters[:c])
    return m.length_of(x.prefix_letters(c))


def visual_distance(xi, eta, ctx: GroupContext) -> float:
    """Exactly e^(-eps * (xi, eta)); an ultrametric for every eps > 0."""
    p = boundary_gromov(xi, eta, ctx.metric)
    if p is math.inf:
        return 0.0
    return math.exp(-float(ctx.epsilon) * float(p))


def retract(x):
    """The retraction of the compactification onto the boundary."""
    if isinstance(x, BoundaryPoint):
        return x
    return hat_projection(x)


@dataclass(frozen=True, order=False)
class Cylinder:
    """C_w: boundary points with prefix w.  C_e is the whole boundary."""

    stem: Letters = ()

    def __post_init__(self):
        if not _is_reduced(self.stem):
            raise ValueError("cylinder stem must be reduced")

    @classmethod
    def from_str(cls, text: str) -> "Cylinder":
        return cls(ReducedWord.from_str(text).letters)

    @property
    def is_all(self) -> bool:
        return not self.stem

    def depth(self) -> int:
        return len(self.stem)

    def contains_point(self, xi: BoundaryPoint) -> bool:
        return xi.prefix_letters(len(self.stem)) == self.stem

    def contains(self, other: "Cylinder") -> bool:
        return other.stem[: len(self.stem)] == self.stem

    def disjoint(self, other: "Cylinder") -> bool:
        return not self.contains(other) and not other.contains(self)

    def __str__(self) -> str:
        return "C_" + ("".join(letter_to_str(s) for s in self.stem) or "e")

    def __repr__(self) -> str:
        return f"Cylinder({''.join(letter_to_str(s) for s in self.stem) or 'e'})"


def allowed_children(stem: Letters, k: int) -> List[Letter]:
    return [s for s in canonical_letters(k) if not stem or s != -stem[-1]]


def _normalize_stems(stems: Iterable[Letters], k: int) -> Tuple[Letters, ...]:
    pool = set(stems)
    # drop stems absorbed by an ancestor already in the pool
    pruned = set()
    for w in pool:
        if not any(w[:i] in pool for i in range(len(w))):
            pruned.add(w)
    # merge complete sibling families upward to keep stems maximal
    changed = True
    while changed:
        changed = False
        for w in list(pruned):
            if not w:
                continue
            parent = w[:-1]
            siblings = {parent + (s,) for s in allowed_children(parent, k)}
            if siblings <= pruned:
                pruned -= siblings
                pruned.add(parent)
                changed = True
    if () in pruned:
        return ((),)
    return tuple(sorted(pruned, key=lambda w: tuple(letter_key(s) for s in w)))


class CylinderSet:
    """Normalized finite disjoint union of cylinders.

    Complements reduce to finite unions on the tree, so one normal form
    (maximal pairwise-disjoint stems) covers both shapes the group action
    produces.
    """

    __slots__ = ("parts", "k")

    def __init__(self, cylinders: Iterable[Cylinder], k: int):
        self.k = k
        self.parts = tuple(Cylinder(w) for w in _normalize_stems((c.stem for c in cylinders), k))

    @classmethod
    def whole(cls, k: int) -> "CylinderSet":
        return cls([Cylinder(())], k)

    @classmethod
    def of(cls, cylinder: Cylinder, k: int) -> "CylinderSet":
        return cls([cylinder], k)

    @property
    def is_all(self) -> bool:
        return len(self.parts) == 1 and self.parts[0].is_all

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def contains_point(self, xi: BoundaryPoint) -> bool:
        return any(c.contains_point(xi) for c in self.parts)

    def complement(self) -> "CylinderSet":
        stems = {c.stem for c in self.parts}
        max_depth = max((len(w) for w in stems), default=0)

        def walk(node: Letters) -> List[Cylinder]:
            if node in stems:
                return []
            if not any(w[: len(node)] == node for w in stems):
                return [Cylinder(node)]
            if len(node) >= max_depth:
                return []
            out: List[Cylinder] = []
            for s in allowed_children(node, self.k):
                out.extend(walk(node + (s,)))
            return out

        return CylinderSet(walk(()), self.k)

    def translate(self, g: ReducedWord) -> "CylinderSet":
        pieces: List[Cylinder] = []
        for c in self.parts:
            image = translate_cylinder(g, c, self.k)
            pieces.extend(image.parts)
        return CylinderSet(pieces, self.k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CylinderSet):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " + ".join(str(c) for c in self.parts)

    def __repr__(self) -> str:
        return f"CylinderSet({self})"


def cylinder_image(g: Letters, stem: Letters) -> Tuple[Letters, bool]:
    """The set g*C_stem as (u, complemented): C_u, or its complement.

    Let v = g*stem.  If v is not a proper prefix of g the image is C_v;
    if it is (the stem cancels into g, including v = e != g) the image is
    the complement of C_u with u one letter of g past v; C_e maps to the
    whole boundary C_e.
    """
    if not stem:
        return (), False
    v = multiply_letters(g, stem)
    if len(v) < len(g) and g[: len(v)] == v:
        return g[: len(v) + 1], True
    return v, False


def translate_cylinder(g: ReducedWord, c: Cylinder, k: int) -> CylinderSet:
    """The set g*C_w in F_k, exactly (shape from ``cylinder_image``)."""
    stem, complemented = cylinder_image(g.letters, c.stem)
    image = CylinderSet.of(Cylinder(stem), k)
    return image.complement() if complemented else image


def translate_cylinder_set(g: ReducedWord, S: CylinderSet) -> CylinderSet:
    return S.translate(g)


@dataclass(frozen=True)
class CylinderRectangle:
    """C_u x C_v inside the boundary square."""

    first: Cylinder
    second: Cylinder

    def contains_pair(self, xi: BoundaryPoint, eta: BoundaryPoint) -> bool:
        return self.first.contains_point(xi) and self.second.contains_point(eta)

    def __str__(self) -> str:
        return f"{self.first} x {self.second}"


def _prefix_reaching(letters: Letters, t, m: MetricSpec) -> Letters:
    """The shortest prefix of ``letters`` whose metric length reaches t."""
    n = 0
    length = 0
    while length < t:
        length += m.letter_length(letters[n])
        n += 1
    return letters[:n]


def ball_cylinder(xi: BoundaryPoint, t, m: MetricSpec) -> Cylinder:
    """The visual ball B(xi, e^(-eps*t)) as a cylinder, exactly.

    The ball is the cylinder of the shortest prefix of xi whose metric
    length reaches t; nonpositive t gives the whole boundary.
    """
    # every letter is at least min_letter_length long, so this many reach t
    n = math.floor(t / m.min_letter_length) + 2
    return Cylinder(_prefix_reaching(xi.prefix_letters(n), t, m))


def shadow_pair(g: ReducedWord, ctx: GroupContext) -> CylinderRectangle:
    """The double shadow of g: visual balls of radius e^(-eps(|g|/2 - rho))
    around hat(g) and check(g), each exactly a cylinder.

    As rho >= 0 each stem is a prefix of g or of g^-1, read from its letters.
    For |g| < 2*rho the balls swallow the boundary: C_e x C_e.
    """
    m = ctx.metric
    length = m.length_of(g.letters)
    if m.kind == "green":
        t = length / 2.0 - float(ctx.rho)
    else:
        t = Fraction(length, 2) - Fraction(ctx.rho)
    first, second = (Cylinder(_prefix_reaching(w, t, m)) for w in (g.letters, (~g).letters))
    return CylinderRectangle(first, second)
