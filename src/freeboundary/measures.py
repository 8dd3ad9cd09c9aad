"""Boundary measures: Patterson-Sullivan (word and weighted Perron/Markov),
harmonic measures of symmetric nearest-neighbor walks, and Green metrics.

The conformal measure of a letter-weighted tree metric is the Markov
measure driven by the transfer matrix M(s)[x,t] = exp(-s*len(t)) over
allowed transitions t != x^-1: the critical exponent alpha is the unique
s with Perron eigenvalue 1, and the right Perron eigenvector u gives the
transition masses P(x,t) = exp(-alpha*len(t)) u_t / u_x.  For the word
metric everything collapses to exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .boundary import Cylinder, CylinderSet, allowed_children
from .scalars import QSqrt
from .words import (
    GroupContext,
    Letter,
    Letters,
    MetricSpec,
    ReducedWord,
    canonical_letters,
    common_prefix_letters,
    enumerate_annulus,
)


@dataclass
class PerronData:
    """Transfer-matrix data at the critical exponent."""

    alpha: float
    omega: Union[int, float]
    exact: bool
    vector: Dict[Letter, Union[Fraction, float]]
    pi0: Dict[Letter, Union[Fraction, float]]
    trans: Dict[Tuple[Letter, Letter], Union[Fraction, float]]
    eigenvalue_residual: float = 0.0

    def row_sum_residual(self) -> float:
        worst = 0.0
        letters = sorted(self.vector)
        for s in letters:
            total = sum(self.trans[(s, t)] for t in letters if t != -s)
            worst = max(worst, abs(float(total) - 1.0))
        return worst


def _transfer_matrix(m: MetricSpec, s: float) -> np.ndarray:
    letters = canonical_letters(m.k)
    size = len(letters)
    M = np.zeros((size, size))
    for i, x in enumerate(letters):
        for j, t in enumerate(letters):
            if t != -x:
                M[i, j] = math.exp(-s * float(m.letter_length(t)))
    return M


def _spectral_radius(M: np.ndarray) -> float:
    return float(max(abs(np.linalg.eigvals(M))))


_PERRON_ITERS = 5000  # power-iteration steps at most
_PERRON_TOL = 1e-16  # sup-norm step size that stops the power iteration
_BISECTION_TOL = 1e-13  # width of the final bracket of the critical exponent
_FIRST_PASSAGE_TOL = 1e-15  # sup-norm step size that stops the first-passage iteration
_FIRST_PASSAGE_MAX_ITER = 1_000_000


def _perron_vector(M: np.ndarray) -> np.ndarray:
    u = np.ones(M.shape[0])
    for _ in range(_PERRON_ITERS):
        u, prev = M @ u, u
        u /= u.sum()
        if np.max(np.abs(u - prev)) < _PERRON_TOL:
            break
    return u


def critical_exponent(m: MetricSpec) -> Tuple[float, PerronData]:
    """The unique s with Perron eigenvalue of M(s) equal to 1, plus the
    induced Markov data.  Word metric: closed form alpha = log(2k-1)."""
    k = m.k
    letters = canonical_letters(k)
    if m.kind == "word":
        omega = 2 * k - 1
        alpha = math.log(omega)
        vector = {s: Fraction(1) for s in letters}
        pi0 = {s: Fraction(1, 2 * k) for s in letters}
        trans = {(s, t): Fraction(1, omega) for s in letters for t in letters if t != -s}
        return alpha, PerronData(alpha, omega, True, vector, pi0, trans)

    min_len = float(m.min_letter_length)
    lo, hi = 0.0, math.log(2 * k - 1) / min_len
    # spectral radius is strictly decreasing in s; rho(lo) = 2k-1, rho(hi) <= 1
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _spectral_radius(_transfer_matrix(m, mid)) >= 1.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    M = _transfer_matrix(m, alpha)
    residual = abs(_spectral_radius(M) - 1.0)
    u = _perron_vector(M)
    vector = {s: float(u[i]) for i, s in enumerate(letters)}
    weights = {s: math.exp(-alpha * float(m.letter_length(s))) * vector[s] for s in letters}
    z = sum(weights.values())
    pi0 = {s: weights[s] / z for s in letters}
    trans: Dict[Tuple[Letter, Letter], float] = {}
    for x in letters:
        row = {t: weights[t] / vector[x] for t in letters if t != -x}
        row_sum = sum(row.values())  # 1 up to the bisection tolerance
        for t, val in row.items():
            trans[(x, t)] = val / row_sum
    return alpha, PerronData(alpha, math.exp(alpha), False, vector, pi0, trans, residual)


_ONE = Fraction(1)  # shared unit mass: building a Fraction costs about 1 us per mass walk


class BoundaryMeasure:
    """Cylinder-mass functional of a Markov measure on the tree boundary.

    mass(C_e) = 1; mass(C_{w t}) = mass(C_w) * P(last(w), t).  The word
    metric backend is exact (Fractions, growth rate an integer); weighted
    and Green backends carry floats with a 1e-12 tolerance policy.
    """

    def __init__(
        self,
        metric: MetricSpec,
        alpha: float,
        omega: Union[int, float],
        pi0: Dict[Letter, Union[Fraction, float]],
        trans: Dict[Tuple[Letter, Letter], Union[Fraction, float]],
        exact: bool,
    ) -> None:
        self.metric = metric
        self.k = metric.k
        self.alpha = alpha
        self.omega = omega
        self.pi0 = pi0
        self.trans = trans
        self.exact = exact
        self._xi_cache: Dict[object, object] = {}

    def prefix_masses(self, stem: Letters, start: int = 0, mass=None) -> list:
        """mass(C_{stem[:j]}) for j = start..|stem|, one Markov factor per
        letter; a walk from start > 0 resumes from mass = mass(C_{stem[:start]})."""
        if start == 0:
            mass = _ONE if self.exact else 1.0
        out = [mass]
        trans = self.trans
        for i in range(start, len(stem)):
            mass = mass * trans[(stem[i - 1], stem[i])] if i else self.pi0[stem[0]]
            out.append(mass)
        return out

    def mass_letters(self, stem: Letters):
        return self.prefix_masses(stem)[-1]

    def mass(self, c: Cylinder):
        return self.mass_letters(c.stem)

    def mass_set(self, S: CylinderSet):
        total = Fraction(0) if self.exact else 0.0
        for part in S.parts:
            total += self.mass_letters(part.stem)
        return total

    # -- Radon-Nikodym helpers ------------------------------------------

    def sqrt_rn_factor(self, two_j_minus_n):
        """sqrt of omega^(2(g,xi) - |g|), given the exponent 2(g,xi)-|g|."""
        if self.exact:
            return QSqrt.root_power(int(two_j_minus_n), int(self.omega))
        return math.exp(0.5 * self.alpha * float(two_j_minus_n))

    def rn_exponent_value(self, two_j_minus_n):
        if self.exact:
            return Fraction(int(self.omega)) ** int(two_j_minus_n)
        return math.exp(self.alpha * float(two_j_minus_n))

    def markov_rows(self) -> List[dict]:
        letters = canonical_letters(self.k)
        rows = []
        for s in letters:
            row = {"state": s, "initial": self.pi0[s]}
            for t in letters:
                row[("to", t)] = self.trans.get((s, t), 0)
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return f"BoundaryMeasure(ps, {self.metric.kind}, k={self.k}, exact={self.exact})"


def ps_measure(ctx: GroupContext) -> BoundaryMeasure:
    """The normalized Patterson-Sullivan measure of the context's metric."""
    pd: PerronData = ctx.perron
    return BoundaryMeasure(ctx.metric, ctx.alpha, ctx.omega, pd.pi0, pd.trans, pd.exact)


def rn_derivative(g: ReducedWord, at, mu: BoundaryMeasure):
    """d(g_* mu)/d mu at a boundary point or on a cylinder: omega^(2(g,xi)-|g|).

    A cylinder argument must be at least |g| letters deep so the value is
    constant on it.
    """
    gl = g.letters
    if isinstance(at, Cylinder):
        if len(at.stem) < len(gl):
            raise ValueError(f"cylinder of depth {len(at.stem)} is too shallow for |g| = {len(gl)}")
        c = common_prefix_letters(gl, at.stem)
    else:  # BoundaryPoint
        c = 0
        while c < len(gl) and at.letter_at(c) == gl[c]:
            c += 1
    m = mu.metric
    j = m.length_of(gl[:c])
    n = m.length_of(gl)
    return mu.rn_exponent_value(2 * j - n)


def gromov_level_cells(g: ReducedWord, k: int) -> List[Tuple[Letters, int]]:
    """Partition of the boundary by the value of (g, xi): cells are the
    sibling cylinders peeling off the geodesic to g, plus C_g itself.
    Returns (stem letters, common-prefix letter count)."""
    gl = g.letters
    if not gl:
        return [((), 0)]
    cells: List[Tuple[Letters, int]] = []
    for j in range(len(gl)):
        base = gl[:j]
        for s in allowed_children(base, k):
            if s != gl[j]:
                cells.append((base + (s,), j))
    cells.append((gl, len(gl)))
    return cells


def rn_integral(g: ReducedWord, mu: BoundaryMeasure):
    """Exact integral of the Radon-Nikodym derivative; equals 1."""
    m = mu.metric
    n = m.length_of(g.letters)
    total = Fraction(0) if mu.exact else 0.0
    for stem, c in gromov_level_cells(g, mu.k):
        j = m.length_of(g.letters[:c])
        total += mu.rn_exponent_value(2 * j - n) * mu.mass_letters(stem)
    return total


@dataclass
class AhlforsRow:
    depth: int
    radius: float
    min_ratio: float
    max_ratio: float


@dataclass
class AhlforsReport:
    rows: List[AhlforsRow]
    global_min: float
    global_max: float
    passed: bool


def ahlfors_profile(mu: BoundaryMeasure, depths: Sequence[int], epsilon: float = 1.0) -> AhlforsReport:
    """Extremal mass(ball)/r^D ratios over all cylinders at each depth.

    Cylinders are exactly the visual balls of radius e^(-eps*|w|), and
    r^D = e^(-alpha*|w|), so the ratio is mass * e^(alpha*|w|).  Passes
    when the per-depth brackets stay inside the depth-1 bracket.
    """
    m = mu.metric
    rows: List[AhlforsRow] = []
    for d in depths:
        lo, hi = math.inf, -math.inf
        radius = -math.inf
        for g in enumerate_annulus(d, 0, MetricSpec.word(mu.k)):
            length = m.length_of(g.letters)
            ratio = float(mu.mass_letters(g.letters)) * math.exp(mu.alpha * float(length))
            lo = min(lo, ratio)
            hi = max(hi, ratio)
            radius = max(radius, math.exp(-float(epsilon) * float(length)))
        rows.append(AhlforsRow(d, radius, lo, hi))
    gmin = min(r.min_ratio for r in rows)
    gmax = max(r.max_ratio for r in rows)
    deep = [r for r in rows if r.depth >= 1]
    if deep:
        base = deep[0]
        passed = all(
            r.min_ratio >= base.min_ratio - 1e-9 and r.max_ratio <= base.max_ratio + 1e-9
            for r in deep
        )
    else:
        passed = True
    return AhlforsReport(rows, gmin, gmax, passed)


# -- random walks -------------------------------------------------------


@dataclass(frozen=True)
class WalkSpec:
    """Symmetric nearest-neighbor step distribution on F_k."""

    k: int
    probs: Tuple[Tuple[Letter, Fraction], ...]

    @classmethod
    def from_generator_probs(cls, probs: Sequence) -> "WalkSpec":
        k = len(probs)
        table = []
        for i, p in enumerate(probs, start=1):
            p = Fraction(p)
            table.append((i, p))
            table.append((-i, p))
        spec = cls(k, tuple(table))
        spec.validate()
        return spec

    @classmethod
    def simple(cls, k: int) -> "WalkSpec":
        return cls.from_generator_probs([Fraction(1, 2 * k)] * k)

    def validate(self) -> None:
        if self.k < 2:
            raise ValueError("rank must be >= 2")
        d = dict(self.probs)
        if set(d) != set(canonical_letters(self.k)):
            raise ValueError("walk must assign a probability to every letter")
        if any(p <= 0 for p in d.values()):
            raise ValueError("step probabilities must be positive")
        if any(d[s] != d[-s] for s in d):
            raise ValueError("walk must be symmetric")
        if sum(d.values()) != 1:
            raise ValueError(f"step probabilities sum to {sum(d.values())}, not 1")

    def prob(self, s: Letter) -> Fraction:
        return dict(self.probs)[s]


@dataclass
class FirstPassage:
    """Minimal positive solution of f_s = p_s + f_s * sum_{u != s} p_u f_{u^-1}."""

    values: Dict[Letter, Union[Fraction, float]]
    exact: bool
    iterations: int
    residual: float

    def __getitem__(self, s: Letter):
        return self.values[s]


def solve_first_passage(walk: WalkSpec) -> FirstPassage:
    """Monotone fixed-point iteration from 0; the map is monotone and
    bounded by the minimal solution, so convergence is guaranteed.

    The float fixed point is rationalized and verified exactly; when the
    verification succeeds (e.g. the uniform walk) the exact rational
    solution is returned.
    """
    walk.validate()
    letters = canonical_letters(walk.k)
    p = {s: float(walk.prob(s)) for s in letters}
    f = {s: 0.0 for s in letters}
    for iterations in range(1, _FIRST_PASSAGE_MAX_ITER + 1):
        new = {}
        delta = 0.0
        for s in letters:
            ret = sum(p[u] * f[-u] for u in letters if u != s)
            new[s] = p[s] + f[s] * ret
            delta = max(delta, abs(new[s] - f[s]))
        f = new
        if delta < _FIRST_PASSAGE_TOL:
            break

    residual = 0.0
    for s in letters:
        ret = sum(p[u] * f[-u] for u in letters if u != s)
        residual = max(residual, abs(p[s] + f[s] * ret - f[s]))

    candidate = {s: Fraction(f[s]).limit_denominator(10**9) for s in letters}
    exact_ok = all(0 < candidate[s] < 1 for s in letters)
    if exact_ok:
        pr = {s: walk.prob(s) for s in letters}
        for s in letters:
            ret = sum(pr[u] * candidate[-u] for u in letters if u != s)
            if pr[s] + candidate[s] * ret != candidate[s]:
                exact_ok = False
                break
    if exact_ok:
        return FirstPassage(candidate, True, iterations, residual)
    if not all(0.0 < f[s] < 1.0 for s in letters):
        raise RuntimeError(f"first-passage iteration left (0,1): {f}")
    return FirstPassage(dict(f), False, iterations, residual)


def green_metric_of_walk(walk: WalkSpec) -> MetricSpec:
    """The Green metric: letter lengths -log f_s.

    On the tree, first-passage probabilities multiply along geodesics, so
    d(1, g) is exactly the sum of letter lengths (multiplicative constant
    1 in the Green-metric comparison).
    """
    fp = solve_first_passage(walk)
    lengths = tuple(-math.log(float(fp[i])) for i in range(1, walk.k + 1))
    return MetricSpec("green", walk.k, lengths, walk=walk)


# -- Monte-Carlo harmonic measure ---------------------------------------


@dataclass
class MCEstimate:
    estimate: float
    halfwidth: float
    samples: int
    decided: int
    undecided: int


def _letters_and_cum(walk: WalkSpec) -> Tuple[np.ndarray, np.ndarray]:
    letters = canonical_letters(walk.k)
    arr = np.array(letters, dtype=np.int8)
    cum = np.cumsum([float(walk.prob(s)) for s in letters])
    cum[-1] = 1.0
    return arr, cum


_PREFIX_MARGIN = 20  # letters past the prefix depth that decide a trajectory
_PREFIX_HORIZON = 10_000
_PASSAGE_MARGIN = 40  # letters past |g| that certify a first-passage miss
_PASSAGE_HORIZON = 100_000


def _run_walks(
    walk: WalkSpec, samples: int, seed: int, cap: int, horizon: int, target: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a batch of trajectories from the identity, kept as reduced words.

    A trajectory stops once its word has ``cap`` letters or, given a
    ``target`` word, once it equals the target.  Returns the word buffers,
    the word lengths and the mask of trajectories still running after
    ``horizon`` steps; letters past a word's length are stale.

    Draw order: every step draws one uniform per running trajectory, in
    index order, and the letter is the number of inner thresholds of the
    cumulative step law at or below the draw (``searchsorted(side="right")``,
    as the last threshold is 1.0).  Any change to this order changes every
    seeded estimate.

    Layout: trajectory i owns row i of a (samples, cap + 1) int8 buffer,
    at flat offset ``base = i * (cap + 1)``.  Column 0 is a zero sentinel
    and the word's letters sit in columns 1..len, so the last letter is
    ``flat[base + len]`` (0 for the empty word, which no letter cancels),
    and a step writes its letter to ``flat[base + len + 1]`` whether it
    grows the word or cancels a letter (then the write lands past the new
    length).  The running trajectories' base, length, last letter and,
    given a target, common-prefix length with the target are held in
    compact arrays in index order (int32 offsets while the buffer has
    fewer than 2^31 cells), compacted only on steps where some trajectory
    stops.
    """
    rng = np.random.default_rng(seed)
    letters, cum = _letters_and_cum(walk)
    thresholds = cum[:-1]
    width = cap + 1
    index = np.int32 if samples * width <= np.iinfo(np.int32).max else np.int64
    words = np.zeros((samples, width), dtype=np.int8)
    flat = words.reshape(-1)
    lens = np.zeros(samples, dtype=index)
    active = np.zeros(samples, dtype=bool)
    base = np.arange(0, samples * width, width, dtype=index)
    length = np.zeros(samples, dtype=index)
    last = np.zeros(samples, dtype=np.int8)
    if target is not None:
        n = target.size
        padded = np.zeros(width, dtype=np.int8)  # 0 past the target matches no letter
        padded[:n] = target
        agree = np.zeros(samples, dtype=index)
    for _ in range(horizon):
        if base.size == 0:
            break
        draws = rng.random(base.size)
        pick = (draws >= thresholds[0]).view(np.int8).copy()
        for c in thresholds[1:]:
            pick += (draws >= c).view(np.int8)
        chosen = letters.take(pick)
        cancel = chosen == -last
        flat[base + length + 1] = chosen
        if target is not None:
            # a cancelling letter never extends the agreement: the target is reduced
            agree += (agree == length) & (chosen == padded.take(length))
        length += 1
        length -= 2 * cancel.view(np.int8)  # a cancel takes back the step and the cancelled letter
        last = flat.take(base + length)
        stop = length >= cap
        if target is not None:
            np.minimum(agree, length, out=agree)
            stop |= agree == n  # only at length n: a longer word on the target passed through it
        if stop.any():
            lens[base[stop] // width] = length[stop]
            keep = ~stop
            base, length, last = base[keep], length[keep], last[keep]
            if target is not None:
                agree = agree[keep]
    lens[base // width] = length
    active[base // width] = True
    return words[:, 1:], lens, active


def sample_boundary_prefixes(walk: WalkSpec, depth: int, samples: int, seed: int) -> Tuple[np.ndarray, int]:
    """First ``depth`` letters of the limiting boundary point for a batch
    of trajectories.

    A trajectory is decided once its word length reaches depth +
    _PREFIX_MARGIN: the chance of ever backtracking below ``depth``
    afterwards is exponentially small in that margin.  Trajectories still
    undecided after _PREFIX_HORIZON steps are counted, never silently
    dropped.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    cap = max(depth + _PREFIX_MARGIN, 1)
    words, _, active = _run_walks(walk, samples, seed, cap, _PREFIX_HORIZON)
    return words[~active, :depth].copy(), int(active.sum())


def mc_cylinder_counts(walk: WalkSpec, depth: int, samples: int, seed: int) -> Tuple[Dict[Letters, int], int, int]:
    """Counts of decided trajectories per depth-d boundary prefix, keys in
    lexicographic order of their letters."""
    prefixes, undecided = sample_boundary_prefixes(walk, depth, samples, seed)
    decided = prefixes.shape[0]
    if depth == 0:
        return {(): decided}, decided, undecided
    rows = prefixes[np.lexsort(prefixes.T[::-1])]
    first = np.ones(decided, dtype=bool)  # the rows that open a run of equal prefixes
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=decided)
    counts = {tuple(row): c for row, c in zip(rows[starts].tolist(), sizes.tolist())}
    return counts, decided, undecided


def _binomial_halfwidth(p: float, n: int) -> float:
    if n == 0:
        return math.inf
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def harmonic_mass_mc(walk: WalkSpec, c: Cylinder, samples: int, seed: int) -> MCEstimate:
    """Monte-Carlo harmonic mass of a cylinder with a 95% binomial CI."""
    if c.is_all:
        return MCEstimate(1.0, 0.0, samples, samples, 0)
    depth = len(c.stem)
    counts, decided, undecided = mc_cylinder_counts(walk, depth, samples, seed)
    hits = counts.get(c.stem, 0)
    est = hits / decided if decided else math.nan
    return MCEstimate(est, _binomial_halfwidth(est, decided), samples, decided, undecided)


def mc_first_passage(walk: WalkSpec, g: ReducedWord, samples: int, seed: int) -> MCEstimate:
    """Monte-Carlo estimate of the first-passage probability F(e, g).

    A trajectory is a hit when its word first equals g, and a certified
    miss once its word length reaches |g| + _PASSAGE_MARGIN: from there
    the hitting probability is below max_s f_s^_PASSAGE_MARGIN.
    """
    n = len(g)
    if n == 0:
        return MCEstimate(1.0, 0.0, samples, samples, 0)
    target = np.array(g.letters, dtype=np.int8)
    _, lens, active = _run_walks(walk, samples, seed, n + _PASSAGE_MARGIN, _PASSAGE_HORIZON, target)
    hits = int(((lens == n) & ~active).sum())  # every other stop is at n + _PASSAGE_MARGIN letters
    decided = int((~active).sum())
    undecided = int(active.sum())
    est = hits / decided if decided else math.nan
    return MCEstimate(est, _binomial_halfwidth(est, decided), samples, decided, undecided)
