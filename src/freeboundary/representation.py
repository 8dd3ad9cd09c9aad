"""Step functions on the boundary and the boundary representation.

pi(g) acts on L^2 of the boundary by [pi(g)v](xi) = rn(g,xi)^(1/2) v(g^-1 xi);
on step functions this is exact partition algebra: the image partition is
the common refinement of the translated cells with the Gromov level sets
of g, and the square root of the Radon-Nikodym derivative contributes a
half-integer power of the growth rate, so word-metric coefficients live
in Q(sqrt(omega)).

Coefficients never build pi(g)v.  The weight rn(g,xi)^(1/2) is
omega^(-|g|/2) * e_t, where e_t = omega^|g[:t]| and t is the number of
letters xi shares with g, so it is constant on the level cells along the
geodesic to g.  ``matrix_coefficient`` therefore integrates from a prefix
table of g (masses, weights and tail integrals of the cylinders C_{g[:j]})
over the pairs of cells of v and w, in O(|g| + cells(v)*cells(w)*depth)
steps with one QSqrt multiply at the end.  ``apply_pi`` builds pi(g)v
explicitly, as the common refinement of depth at most |g| + depth(v) + 1,
and with ``inner_product`` is the reference the kernel is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .boundary import BoundaryPoint, Cylinder, CylinderSet, cylinder_image, translate_cylinder
from .measures import BoundaryMeasure, gromov_level_cells
from .scalars import QSqrt, as_float
from .words import Letters, ReducedWord, common_prefix_letters, hat_projection

Value = Union[Fraction, QSqrt, float, int]


class StepFunction:
    """Finitely-valued boundary function over a disjoint cylinder cover."""

    __slots__ = ("cells", "k")

    def __init__(self, cells: Sequence[Tuple[Cylinder, Value]], k: int, *, validate: bool = True):
        self.cells = tuple(cells)
        self.k = k
        if validate:
            cover = CylinderSet([c for c, _ in self.cells], k)
            if not cover.is_all:
                raise ValueError("cells do not cover the boundary")
            parts = [c for c, _ in self.cells]
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    if not parts[i].disjoint(parts[j]):
                        raise ValueError(f"cells {parts[i]} and {parts[j]} overlap")

    @classmethod
    def constant(cls, value: Value, k: int) -> "StepFunction":
        return cls([(Cylinder(()), value)], k, validate=False)

    @classmethod
    def indicator(cls, c: Union[Cylinder, str], k: int, value: Value = Fraction(1)) -> "StepFunction":
        if isinstance(c, str):
            c = Cylinder.from_str(c)
        if c.is_all:
            return cls.constant(value, k)
        rest = CylinderSet.of(c, k).complement()
        cells: List[Tuple[Cylinder, Value]] = [(c, value)]
        cells.extend((part, Fraction(0)) for part in rest.parts)
        return cls(cells, k, validate=False)

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple[Union[Cylinder, str], Value]],
        k: int,
        constant: Value = Fraction(0),
    ) -> "StepFunction":
        """constant + sum of indicators over pairwise disjoint stems."""
        cyls = []
        for c, v in pairs:
            cyl = Cylinder.from_str(c) if isinstance(c, str) else c
            cyls.append((cyl, v))
        cells: List[Tuple[Cylinder, Value]] = [(c, constant + v) for c, v in cyls]
        rest = CylinderSet([c for c, _ in cyls], k).complement() if cyls else CylinderSet.whole(k)
        cells.extend((part, constant) for part in rest.parts)
        return cls(cells, k)

    def depth(self) -> int:
        return max((len(c.stem) for c, _ in self.cells), default=0)

    def value_at(self, xi: BoundaryPoint) -> Value:
        for c, v in self.cells:
            if c.contains_point(xi):
                return v
        raise RuntimeError("partition does not cover the point")  # unreachable

    def multiply(self, other: "StepFunction") -> "StepFunction":
        cells: List[Tuple[Cylinder, Value]] = []
        for c1, v1 in self.cells:
            for c2, v2 in other.cells:
                if c1.contains(c2):
                    cells.append((c2, v1 * v2))
                elif c2.contains(c1):
                    cells.append((c1, v1 * v2))
        return StepFunction(cells, self.k, validate=False)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}:{v}" for c, v in self.cells[:6])
        more = "..." if len(self.cells) > 6 else ""
        return f"StepFunction[{inner}{more}]"


def inner_product(v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> Value:
    """<v, w> in L^2(boundary, mu), summed over the common refinement.

    All scalars are real, so conjugation is the identity.
    """
    total: Value = Fraction(0) if mu.exact else 0.0
    for c1, val1 in v.cells:
        for c2, val2 in w.cells:
            if c1.contains(c2):
                total = total + val1 * val2 * mu.mass(c2)
            elif c2.contains(c1):
                total = total + val1 * val2 * mu.mass(c1)
    return total


def norm_sq(v: StepFunction, mu: BoundaryMeasure) -> Value:
    total: Value = Fraction(0) if mu.exact else 0.0
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
        for part in translate_cylinder(g, c, k).parts:
            translated.append((part, val))

    levels: List[Tuple[Cylinder, Value]] = []
    for stem, c_letters in gromov_level_cells(g, k):
        j_len = m.length_of(g.letters[:c_letters])
        levels.append((Cylinder(stem), mu.sqrt_rn_factor(2 * j_len - n_len)))

    cells: List[Tuple[Cylinder, Value]] = []
    for c1, val in translated:
        for c2, factor in levels:
            if c1.contains(c2):
                cells.append((c2, val * factor))
            elif c2.contains(c1):
                cells.append((c1, val * factor))
    return StepFunction(cells, k, validate=False)


def matrix_coefficient(g: ReducedWord, v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> Value:
    """<pi(g) v, w>; conjugate-symmetric in (g, v, w) <-> (g^-1, w, v).

    With m_j = mu(C_{g[:j]}), e_j = omega^|g[:j]| and the tail integrals
    T_j = int_{C_{g[:j]}} e_t dmu (T_n = e_n m_n, T_j = e_j (m_j - m_{j+1})
    + T_{j+1}), a cylinder C_c integrates e_t to K(c) = T_|c| when c is a
    prefix of g and to e_t mu(C_c) otherwise, t = common prefix of c and g
    (the mass walk resumes from m_t).
    g C_a is C_u or the complement of C_u (``cylinder_image``), so each
    cell pair contributes K(b), K(u), K(b) - K(u) or nothing.  The sum is
    rational on the exact backend; omega^(-|g|/2) multiplies it once.
    """
    gl = g.letters
    n = len(gl)
    m = mu.metric
    masses = mu.prefix_masses(gl)
    lengths = [0]
    for s in gl:
        lengths.append(lengths[-1] + m.letter_length(s))
    weights = [mu.rn_exponent_value(length) for length in lengths]
    tails = [None] * n + [weights[n] * masses[n]]
    for j in range(n - 1, -1, -1):
        tails[j] = weights[j] * (masses[j] - masses[j + 1]) + tails[j + 1]

    integrals = {}

    def cell(c: Letters):
        value = integrals.get(c)
        if value is None:
            t = common_prefix_letters(gl, c)
            value = tails[t] if t == len(c) else weights[t] * mu.prefix_masses(c, t, masses[t])[-1]
            integrals[c] = value
        return value

    w_cells = [(b.stem, beta) for b, beta in w.cells if beta]
    total: Value = Fraction(0) if mu.exact else 0.0
    for a, alpha in v.cells:
        if not alpha:
            continue
        u, complemented = cylinder_image(gl, a.stem)
        for b, beta in w_cells:
            if b[: len(u)] == u:  # C_b inside C_u
                if complemented:
                    continue
                part = cell(b)
            elif u[: len(b)] == b:  # C_u strictly inside C_b
                part = cell(b) - cell(u) if complemented else cell(u)
            elif complemented:  # C_b disjoint from C_u
                part = cell(b)
            else:
                continue
            total = total + alpha * beta * part
    return mu.sqrt_rn_factor(-lengths[n]) * total


def harish_chandra(g: ReducedWord, mu: BoundaryMeasure) -> Value:
    """Xi(g) = <pi(g) 1, 1>.

    For the word metric Xi depends only on |g| and the table is memoized
    by length; other metrics memoize by the word itself.
    """
    key: object = len(g) if mu.metric.kind == "word" else g.letters
    cached = mu._xi_cache.get(key)
    if cached is not None:
        return cached
    one = StepFunction.constant(Fraction(1) if mu.exact else 1.0, mu.k)
    value = matrix_coefficient(g, one, one, mu)
    mu._xi_cache[key] = value
    return value


def harish_chandra_length(n: int, mu: BoundaryMeasure) -> Value:
    """Xi at word-length n (word metric only)."""
    if mu.metric.kind != "word":
        raise ValueError("length-indexed Xi exists only for the word metric")
    cached = mu._xi_cache.get(n)
    if cached is not None:
        return cached
    # any word of length n: powers of a single generator stay reduced
    if n == 0:
        g = ReducedWord(())
    else:
        g = ReducedWord((1,) * n, _reduced=True)
    return harish_chandra(g, mu)


def normalized_coefficient(g: ReducedWord, v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> Value:
    """<pi~(g) v, w> = <pi(g) v, w> / Xi(g); Xi > 0 always."""
    return matrix_coefficient(g, v, w, mu) / harish_chandra(g, mu)


def lipschitz_gap(g: ReducedWord, v: StepFunction, w: StepFunction, mu: BoundaryMeasure) -> float:
    """|<pi~(g) v, w> - v(check g) * conj(w(hat g))|.

    Step functions are Lipschitz for the visual metric, so the gap decays
    like (1 + |g|)^(-1/D); the sweep harness fits the rate.
    """
    nc = normalized_coefficient(g, v, w, mu)
    target = v.value_at(hat_projection(~g)) * w.value_at(hat_projection(g))
    return abs(as_float(nc) - as_float(target))
