"""Free-group words, invariant metrics, Gromov products and annuli.

A letter of the rank-k free group is an integer code 0..2k-1: the
generator a_i (i = 1..k) is 2(i-1) and its inverse 2(i-1) + 1.  So the
inverse of c is c ^ 1, its generator index is c >> 1, and numeric order
is the canonical letter order, fixed once and used for every enumeration
and every greedy choice:

    a < A < b < B < ... (a_1 < a_1^-1 < a_2 < a_2^-1 < ...).

Tuples of codes therefore sort canonically with plain ``sorted``.  Text
(``letter_to_str``, ``letter_from_str``) is the only external form.

Words are freely reduced tuples of letters; the tree structure of the
Cayley graph makes every Gromov product an exact common-prefix length.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple, Union

Letter = int
Letters = Tuple[Letter, ...]


def canonical_letters(k: int) -> Tuple[Letter, ...]:
    return tuple(range(2 * k))


def letter_to_str(c: Letter) -> str:
    s = chr(ord("a") + (c >> 1))
    return s.upper() if c & 1 else s


def letter_from_str(s: str) -> Letter:
    i = ord(s.lower()) - ord("a") if len(s) == 1 else -1
    if not (0 <= i < 26) or not s.isalpha():
        raise ValueError(f"invalid letter {s!r}")
    return 2 * i + s.isupper()


def letters_from_str(text: str) -> Letters:
    """The letters of ``text`` as written, unreduced ("", "e" and "1" are the identity)."""
    text = text.replace(" ", "")
    if text in ("", "e", "1"):
        return ()
    return tuple(letter_from_str(c) for c in text)


def check_rank(letters: Letters, k: int) -> None:
    """Refuse a letter that is no code of F_k (outside 0..2k-1)."""
    for c in letters:
        if not 0 <= c < 2 * k:
            raise ValueError(f"letter {letter_to_str(c) if 0 <= c < 52 else c!r} is outside rank {k}")


def reduce_letters(seq: Sequence[Letter]) -> Letters:
    out: list[Letter] = []
    for c in seq:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def multiply_letters(u: Letters, v: Letters) -> Letters:
    """Reduced concatenation of two already-reduced words."""
    i = len(u)
    j = 0
    n = len(v)
    while i > 0 and j < n and u[i - 1] == v[j] ^ 1:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def invert_letters(u: Letters) -> Letters:
    return tuple(c ^ 1 for c in reversed(u))


class ReducedWord:
    """An element of F_k as a freely reduced letter sequence."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[Letter] = (), *, _reduced: bool = False):
        letters = tuple(letters)
        if not _reduced:
            if letters and min(letters) < 0:
                raise ValueError(f"letter {min(letters)} is negative: letters are codes 0..2k-1")
            letters = reduce_letters(letters)
        self.letters = letters

    @classmethod
    def from_str(cls, text: str) -> "ReducedWord":
        return cls(letters_from_str(text))

    def __str__(self) -> str:
        return "".join(letter_to_str(s) for s in self.letters) if self.letters else "e"

    def __repr__(self) -> str:
        return f"ReducedWord({self})"

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReducedWord):
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return ReducedWord(multiply_letters(self.letters, other.letters), _reduced=True)

    def __invert__(self) -> "ReducedWord":
        return ReducedWord(invert_letters(self.letters), _reduced=True)


@dataclass(frozen=True)
class MetricSpec:
    """A left-invariant metric on F_k: word, generator-weighted, or Green.

    ``lengths`` holds each generator's letter length, shared by its
    inverse: the letter c has length ``lengths[c >> 1]``.  Word metric:
    all lengths 1, exact integer arithmetic.  Weighted: exact rationals.
    Green: float lengths -log f_s solved from a random walk (see
    measures.green_metric_of_walk), tolerance 1e-12 documented on all
    derived quantities.

    ``units`` holds each generator's length in units of ``1/scale``:
    integers over the common denominator ``scale`` of the lengths for the
    word and weighted metrics, so their hot loops add and compare ints;
    the Green lengths themselves, with ``scale = 1``.
    """

    kind: str  # "word" | "weighted" | "green"
    k: int
    lengths: Tuple = ()  # one per generator, in order; empty for word metric
    scale: int = field(init=False, repr=False, compare=False)
    units: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("word", "weighted", "green"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.k < 2:
            raise ValueError("rank must be >= 2")
        if self.kind != "word":
            if len(self.lengths) != self.k:
                raise ValueError("need one length per generator")
            if any(l <= 0 for l in self.lengths):
                raise ValueError("letter lengths must be positive")
        scale, units = 1, self.lengths
        if self.kind == "word":
            units = (1,) * self.k
        elif self.kind == "weighted":
            scale = math.lcm(*(Fraction(l).denominator for l in self.lengths))
            units = tuple(int(Fraction(l) * scale) for l in self.lengths)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "units", units)

    @classmethod
    def word(cls, k: int) -> "MetricSpec":
        return cls("word", k)

    @classmethod
    def weighted(cls, k: int, lengths: Sequence) -> "MetricSpec":
        return cls("weighted", k, tuple(Fraction(l) for l in lengths))

    def letter_length(self, c: Letter):
        if self.kind == "word":
            return 1
        return self.lengths[c >> 1]

    @property
    def max_letter_length(self):
        if self.kind == "word":
            return 1
        return max(self.lengths)

    @property
    def min_letter_length(self):
        if self.kind == "word":
            return 1
        return min(self.lengths)

    def units_of(self, letters: Letters):
        """The metric length of ``letters`` in units of ``1/scale``."""
        if self.kind == "word":
            return len(letters)
        units = self.units
        return sum(units[c >> 1] for c in letters)

    def length_of(self, letters: Letters):
        if self.kind == "weighted":
            return Fraction(self.units_of(letters), self.scale)
        return self.units_of(letters)

    def unit_bounds(self, lo, hi):
        """The closed length interval [lo, hi] in units, each end moved
        exactly to the nearest unit value inside: the integers
        ceil(scale*lo) and floor(scale*hi) for the exact metrics, the
        nearest floats for Green (float bounds stay as they are)."""
        if self.kind == "green":
            flo, fhi = float(lo), float(hi)
            return (
                math.nextafter(flo, math.inf) if flo < lo else flo,
                math.nextafter(fhi, -math.inf) if fhi > hi else fhi,
            )
        if self.scale != 1:
            lo, hi = self.scale * Fraction(lo), self.scale * Fraction(hi)
        return math.ceil(lo), math.floor(hi)


def metric_length(u: ReducedWord, m: MetricSpec):
    """d(1, u); d(g, h) = metric_length(~g * h) is left-invariant."""
    return m.length_of(u.letters)


def common_prefix_letters(x: Letters, y: Letters) -> int:
    n = min(len(x), len(y))
    i = 0
    while i < n and x[i] == y[i]:
        i += 1
    return i


def gromov_product(x: ReducedWord, y: ReducedWord, m: MetricSpec):
    """(x,y) at the identity; on a tree this is the common-prefix length.

    Equals (|x| + |y| - d(x,y)) / 2 exactly, for every metric kind.
    """
    c = common_prefix_letters(x.letters, y.letters)
    return m.length_of(x.letters[:c])


def annulus_units(R, h, m: MetricSpec) -> Iterator[Tuple[Letters, object]]:
    """(letters, length in units of 1/m.scale) of every g with metric
    length in [R-h, R+h], in canonical order.

    Depth-first in preorder; a prefix longer than R+h cuts its branch.
    The bounds R-h and R+h are converted to units once (``unit_bounds``).
    """
    lo, hi = m.unit_bounds(R - h, R + h)
    if hi < 0:
        return
    # children are pushed last letter first, so they pop in canonical order
    steps = [(c, m.units[c >> 1]) for c in reversed(canonical_letters(m.k))]
    stack = [((), 0)]
    while stack:
        word, length = stack.pop()
        if lo <= length:
            yield word, length
        last = word[-1] ^ 1 if word else -1  # the one letter that may not follow; -1 is none
        stack.extend((word + (c,), length + u) for c, u in steps if c != last and length + u <= hi)


def enumerate_annulus(R, h, m: MetricSpec) -> Iterator[ReducedWord]:
    """Stream all g with metric length in [R-h, R+h], in canonical order.

    Every qualifying word is yielded exactly once (see ``annulus_units``).
    """
    for word, _ in annulus_units(R, h, m):
        yield ReducedWord(word, _reduced=True)


def enumerate_sphere(n: int, m: MetricSpec) -> Iterator[ReducedWord]:
    return enumerate_annulus(n, 0, m)


def sphere_size(n: int, k: int) -> int:
    """|S_n| for the word metric: 2k(2k-1)^(n-1)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (n - 1)


def cyclic_reduction(g: ReducedWord) -> ReducedWord:
    ls = g.letters
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == ls[j - 1] ^ 1:
        i += 1
        j -= 1
    return ReducedWord(ls[i:j], _reduced=True)


def translation_length(g: ReducedWord, m: MetricSpec):
    """inf_x d(x, gx): the metric length of the cyclic reduction of g."""
    return m.length_of(cyclic_reduction(g).letters)


@dataclass
class GroupContext:
    """Bundle of a free group, a metric and the derived boundary data.

    epsilon is the visual parameter; omega = e^alpha the growth rate; the
    Hausdorff dimension D = log(omega)/epsilon satisfies e^(eps*D) = omega
    by construction.  rho is the shadow parameter, h the annulus
    half-width (word metric default 0; otherwise max letter length + 1 so
    annuli are never empty).  mu is the metric's Patterson-Sullivan
    measure (a measures.BoundaryMeasure), built once: alpha and omega read
    its Perron data, and it decides between exact and float arithmetic.
    """

    metric: MetricSpec
    epsilon: float = 1.0
    rho: float = 1
    h: Optional[float] = None
    mu: object = field(init=False, default=None, compare=False)

    def __post_init__(self):
        if self.h is None:
            self.h = 0 if self.metric.kind == "word" else float(self.metric.max_letter_length) + 1
        if self.epsilon <= 0 or self.rho < 0 or self.h < 0:
            raise ValueError(f"need epsilon > 0, rho >= 0, h >= 0; got {self.epsilon}, {self.rho}, {self.h}")
        from .measures import critical_exponent  # deferred: measures imports words

        _, self.mu = critical_exponent(self.metric)

    def with_rho(self, rho) -> "GroupContext":
        """This context at shadow parameter rho, sharing its measure:
        critical_exponent is not solved again."""
        if rho < 0:
            raise ValueError(f"need rho >= 0; got {rho}")
        out = copy.copy(self)
        out.rho = rho
        return out

    @property
    def k(self) -> int:
        return self.metric.k

    @property
    def alpha(self) -> float:
        return self.mu.alpha

    @property
    def omega(self) -> Union[int, float]:
        return self.mu.omega

    @property
    def dimension(self) -> float:
        return float(self.alpha) / float(self.epsilon)


def _hat_prefix(letters: Letters, n: int) -> Letters:
    """The first n letters of hat(g) (see hat_projection), g given by its letters."""
    return letters[:n] + (letters[-1:] or (0,)) * (n - len(letters))


def hat_projection(g: ReducedWord):
    """Canonical boundary extension: repeat the last letter of g forever.

    Achieves (g, hat(g)) = |g| exactly; hat(e) is the first generator's
    ray.  Returns a boundary.BoundaryPoint.
    """
    from .boundary import BoundaryPoint

    return BoundaryPoint(g.letters, g.letters[-1:] or (0,))
