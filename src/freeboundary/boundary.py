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
from typing import Dict, List, Optional, Sequence, Tuple

from .words import (
    GroupContext,
    Letter,
    Letters,
    MetricSpec,
    ReducedWord,
    canonical_letters,
    common_prefix_letters,
    invert_letters,
    letter_from_str,
    letter_to_str,
    letters_from_str,
    multiply_letters,
    reduce_letters,
)


def _is_reduced(seq: Sequence[Letter]) -> bool:
    return all(seq[i] != seq[i + 1] ^ 1 for i in range(len(seq) - 1))


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
        if per[-1] == per[0] ^ 1:
            raise ValueError("period does not concatenate reducibly with itself")
        if pre and pre[-1] == per[0] ^ 1:
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
        return common_prefix_letters(x.letters, y.letters)
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


@dataclass(frozen=True, order=False)
class Cylinder:
    """C_w: boundary points with prefix w.  C_e is the whole boundary."""

    stem: Letters = ()

    def __post_init__(self):
        if not _is_reduced(self.stem):
            raise ValueError(f"cylinder stem {''.join(letter_to_str(s) for s in self.stem)!r} is not reduced")

    @classmethod
    def from_str(cls, text: str) -> "Cylinder":
        """C_w for the word ``text`` as written: text that free reduction
        would shorten is refused, not read as another cylinder."""
        return cls(letters_from_str(text))

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
    return [c for c in canonical_letters(k) if not stem or c != stem[-1] ^ 1]


PrefixIndex = Tuple[Dict[Letters, int], Dict[Letters, List[int]]]


def _prefix_index(stems: Sequence[Letters]) -> PrefixIndex:
    """(at, below): the first position of each stem, and for every proper
    prefix of a stem the positions of the stems below it, in order."""
    at: Dict[Letters, int] = {}
    below: Dict[Letters, List[int]] = {}
    for i, stem in enumerate(stems):
        at.setdefault(stem, i)
        for j in range(len(stem)):
            below.setdefault(stem[:j], []).append(i)
    return at, below


def _uncovered(index: PrefixIndex, k: int) -> List[Letters]:
    """The boundary outside the indexed cylinders: the unused children of
    the prefixes that lie in none of them, in sorted stem order."""
    at, below = index
    out, stack = [], [()]
    while stack:
        node = stack.pop()
        if node in at:
            continue
        if node in below:
            stack.extend(node + (s,) for s in reversed(allowed_children(node, k)))
        else:
            out.append(node)
    return out


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


@dataclass(frozen=True)
class CylinderRectangle:
    """C_u x C_v inside the boundary square."""

    first: Cylinder
    second: Cylinder

    def contains_pair(self, xi: BoundaryPoint, eta: BoundaryPoint) -> bool:
        return self.first.contains_point(xi) and self.second.contains_point(eta)

    def __str__(self) -> str:
        return f"{self.first} x {self.second}"


def _prefix_reaching(letters: Letters, need, step: Sequence) -> Letters:
    """The shortest prefix of ``letters`` whose summed per-generator
    ``step`` reaches ``need``."""
    n = 0
    total = 0
    while total < need:
        total += step[letters[n] >> 1]
        n += 1
    return letters[:n]


def ball_cylinder(xi: BoundaryPoint, t, m: MetricSpec) -> Cylinder:
    """The visual ball B(xi, e^(-eps*t)) as a cylinder, exactly.

    The ball is the cylinder of the shortest prefix of xi whose metric
    length reaches t; nonpositive t gives the whole boundary.  In units,
    a prefix of P units reaches t = num/den iff den*P >= scale*num.
    """
    # every letter is at least min_letter_length long, so this many reach t
    n = math.floor(t / m.min_letter_length) + 2
    if m.kind == "green":
        step, need = m.units, t
    else:
        t = Fraction(t)
        step, need = tuple(t.denominator * u for u in m.units), m.scale * t.numerator
    return Cylinder(_prefix_reaching(xi.prefix_letters(n), need, step))


def shadow_cut(m: MetricSpec, rho) -> Tuple[Tuple, object, object]:
    """The double-shadow cut at rho as (step, den, offset): the stem of g
    (L units long) is its shortest prefix whose summed ``step`` reaches
    den*L - offset.  With rho = num/den this is the integer test
    2*den*P >= den*L - 2*scale*num for a prefix of P units, that is
    P/scale >= |g|/2 - rho; for Green, 2*P >= L - 2*rho in floats, which
    scaling by 2 keeps bit-equal to P >= L/2 - rho.
    """
    if m.kind == "green":
        return tuple(2 * u for u in m.units), 1, 2 * float(rho)
    r = Fraction(rho)
    return tuple(2 * r.denominator * u for u in m.units), r.denominator, 2 * m.scale * r.numerator


def shadow_stems(letters: Letters, units, cut) -> Tuple[Letters, Letters]:
    """The stems of the double shadow of the word ``letters``, ``units``
    long, under ``cut`` (from ``shadow_cut``): prefixes of g and g^-1."""
    step, den, offset = cut
    need = den * units - offset
    return _prefix_reaching(letters, need, step), _prefix_reaching(invert_letters(letters), need, step)


def shadow_pair(g: ReducedWord, ctx: GroupContext) -> CylinderRectangle:
    """The double shadow of g: visual balls of radius e^(-eps(|g|/2 - rho))
    around hat(g) and check(g), each exactly a cylinder.

    As rho >= 0 each stem is a prefix of g or of g^-1, read from its letters.
    For |g| < 2*rho the balls swallow the boundary: C_e x C_e.
    """
    m = ctx.metric
    first, second = shadow_stems(g.letters, m.units_of(g.letters), shadow_cut(m, ctx.rho))
    return CylinderRectangle(Cylinder(first), Cylinder(second))
