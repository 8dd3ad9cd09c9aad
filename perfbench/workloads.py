"""Seeded workload generators for the freeboundary benchmark.

A workload is a fixed list of ``Op``s (one round).  Every op is a single
``freeboundary.cli.main`` run on a generated JSON config.  The seed picks
the stems of step vectors and the order of their values, the weighted
letter lengths, which letter gets which walk probability, the convolution
triples and the Monte-Carlo seeds.  It never picks a size, and where an
input changes the amount of work (weighted lengths, walk probabilities,
triples) it picks from choices of equal cost, so the run-to-run spread
reflects the program and the machine rather than the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

WORKLOADS = ("shadow", "coeff", "walk", "census")

WORD2 = {"group": {"rank": 2}, "metric": {"kind": "word"}}
WORD3 = {"group": {"rank": 3}, "metric": {"kind": "word"}}


@dataclass
class Op:
    """One CLI run.  ``out`` names the output directory inside the round
    directory; two ops sharing it see each other's cache.  ``exact`` ops
    must reproduce reference CSVs byte for byte; the others (float
    backends) within 1e-12.  ``checks`` names the seed-independent checks
    in ``checks.py`` that apply to this op's outputs."""

    name: str
    subcommand: str
    config: dict
    out: str
    exact: bool
    checks: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)


def _letters(k: int) -> List[str]:
    out = []
    for i in range(k):
        c = chr(ord("a") + i)
        out += [c, c.upper()]
    return out


def _inverse(c: str) -> str:
    return c.lower() if c.isupper() else c.upper()


def _reduced_word(rng: random.Random, k: int, n: int) -> str:
    word = rng.choice(_letters(k))
    while len(word) < n:
        word += rng.choice([c for c in _letters(k) if c != _inverse(word[-1])])
    return word


def _step_vector(rng: random.Random, k: int, depth: int) -> dict:
    """A vector of two cells on seeded stems: one of the given depth and
    one depth-1 stem starting with a different letter (so they are
    disjoint).  The values are a fixed pair in seeded order, so exact
    arithmetic costs the same for every seed."""
    deep = _reduced_word(rng, k, depth)
    other = rng.choice([c for c in _letters(k) if c != deep[0]])
    values = rng.sample(["3/2", "-1"], 2)
    return {"cells": [[deep, values[0]], [other, values[1]]], "constant": "1/2"}


def _phi_cases(slots: List[tuple]) -> List[dict]:
    """Every ordered slot combination, so the whole Phi grid is written out
    and its symmetry can be checked."""
    cases = []
    for i, (v1, w1) in enumerate(slots):
        for j, (v2, w2) in enumerate(slots):
            cases.append({"name": f"s{i}{j}", "v1": v1, "w1": w1, "v2": v2, "w2": w2})
    return cases


def _sizes(tiny: bool, full, small):
    return small if tiny else full


def shadow(rng: random.Random, tiny: bool) -> List[Op]:
    """Dense-grid shadow path: enumeration, shadow_pair, occupancy grid,
    rectangle errors, with exact (word) and float (weighted) storage, and
    each cover scan run cold and then warm against one cache."""
    ops: List[Op] = []
    # lengths near 4/3 give annuli of about the same size, so the seed
    # changes the metric without changing the work much
    num, den = rng.choice([(4, 3), (11, 8), (15, 11), (19, 14)])
    lengths = {"a": "1", "b": f"{num}/{den}"}
    if rng.random() < 0.5:
        lengths = {"a": lengths["b"], "b": lengths["a"]}
    contexts = [
        ("w2", WORD2, True, _sizes(tiny, [6, 7], [4]), _sizes(tiny, [6, 7], [4]), 2),
        ("w3", WORD3, True, _sizes(tiny, [5], [3]), _sizes(tiny, [4], [3]), 1),
        (
            "wt",
            {"group": {"rank": 2}, "metric": {"kind": "weighted", "lengths": lengths}},
            False,
            _sizes(tiny, [5], [4]),
            _sizes(tiny, [5], [4]),
            1,
        ),
    ]
    for tag, base, exact, cover_grid, eq_grid, depth in contexts:
        cover = {**base, "grid": cover_grid, "rho_max": 2}
        for phase in ("cold", "warm"):
            ops.append(
                Op(f"cover_{tag}_{phase}", "cover", cover, f"cover_{tag}", exact, ["cover_scan", f"cache_{phase}"])
            )
        equi = {**base, "grid": eq_grid, "depth": depth, "rho": "1"}
        ops.append(Op(f"equidist_{tag}", "equidist", equi, f"equidist_{tag}", exact, ["zero_rect_error"] if exact else []))
    return ops


def coeff(rng: random.Random, tiny: bool) -> List[Op]:
    """Coefficient path: matrix_coefficient/apply_pi on class
    representatives with QSqrt/Fraction arithmetic, little enumeration."""
    ops: List[Op] = []
    v, w = _step_vector(rng, 2, 2), _step_vector(rng, 2, 2)
    vectors = {"v": v, "w": w}
    slots = [("v", "one"), ("w", "one")]
    ops.append(
        Op(
            "orth_d2",
            "orth",
            {**WORD2, "grid": _sizes(tiny, [6], [4]), "weights": "sphere",
             "vectors": vectors, "cases": _phi_cases(slots)},
            "orth_d2",
            True,
            ["phi_symmetric"],
        )
    )
    shallow = {"u": _step_vector(rng, 2, 1), "x": _step_vector(rng, 2, 1)}
    ops.append(
        Op(
            "orth_d1",
            "orth",
            {**WORD2, "grid": _sizes(tiny, [24], [8]), "weights": "sphere",
             "vectors": shallow, "cases": _phi_cases([("u", "one"), ("x", "u")])},
            "orth_d1",
            True,
            ["phi_symmetric"],
        )
    )
    ops.append(
        Op(
            "orth_shadow",
            "orth",
            {**WORD2, "grid": _sizes(tiny, [4], [4]), "weights": "shadow",
             "vectors": vectors, "cases": _phi_cases(slots)},
            "orth_shadow",
            True,
            ["phi_symmetric"],
        )
    )
    sweeps = [
        ("r2", WORD2, vectors, _sizes(tiny, [0, 1, 2, 3], [0, 1, 2, 3])),
        ("r3", WORD3, {"v": _step_vector(rng, 3, 1), "w": _step_vector(rng, 3, 1)},
         _sizes(tiny, [0, 1, 2, 4], [0, 1, 2, 3])),
    ]
    for tag, base, vecs, grid in sweeps:
        cfg = {**base, "grid": grid, "vectors": vecs, "v": "v", "w": "w"}
        ops.append(Op(f"gvb_{tag}", "gvb", cfg, f"gvb_{tag}", True))
        ops.append(Op(f"rd_{tag}", "rd", cfg, f"rd_{tag}", True, ["brute_sum_sq", "gvb_matches_rd"],
                      {"gvb_op": f"gvb_{tag}"}))
    ops.append(Op("xi", "xi", {**WORD2, "grid": [_sizes(tiny, 32, 12)]}, "xi", True, ["xi_closed_form"]))
    return ops


def _walk(rng: random.Random, probs: List[Fraction]) -> Dict[str, str]:
    """A symmetric nearest-neighbour walk: the seed assigns a fixed set of
    generator probabilities to the letters, so the Monte-Carlo escape
    speed, and with it the work, is the same for every seed."""
    probs = rng.sample(probs, len(probs))
    return {chr(ord("a") + i): str(p) for i, p in enumerate(probs)}


def walk(rng: random.Random, tiny: bool) -> List[Op]:
    """numpy Monte-Carlo kernels and float Perron code in measures."""
    ops: List[Op] = []
    walks = (
        ("k2", 2, _walk(rng, [Fraction(1, 5), Fraction(3, 10)])),
        ("k3", 3, _walk(rng, [Fraction(1, 8), Fraction(1, 6), Fraction(5, 24)])),
    )
    for tag, k, probs in walks:
        group = {"group": {"rank": k}}
        green = {
            **group,
            "metric": {"kind": "word"},
            "walk": probs,
            "samples": _sizes(tiny, 40_000, 2_000),
            "depth": 2,
            "seed": rng.randrange(1 << 30),
            "ancona_words": _sizes(tiny, 8, 2),
            "ancona_max_len": 5,
            "ancona_samples": _sizes(tiny, 8_000, 2_000),
        }
        ops.append(Op(f"green_{tag}", "green", green, f"green_{tag}", False, ["mc_decided"]))
        spec = {**group, "metric": {"kind": "green", "walk": probs}}
        ops.append(Op(f"spec_{tag}", "spec", spec, f"spec_{tag}", False, ["perron_residual"]))
    return ops


def _triples(rng: random.Random, total: int, count: int) -> List[List[int]]:
    """Triples (R, R', R'') with R + R' fixed, so the convolution product
    count |S_R| |S_R'| does not depend on the seed."""
    out = []
    for _ in range(count):
        r = rng.randint(1, total - 1)
        rp = total - r
        out.append([r, rp, rng.randint(abs(r - rp), r + rp)])
    return out


def census(rng: random.Random, tiny: bool) -> List[Op]:
    """Exhaustive fiber census and random convolutions: words used for
    multiplication, dict/Fraction heavy, the largest memory footprint."""
    return [
        Op("conv_k2", "conv",
           {**WORD2, "fiber_r_max": _sizes(tiny, 5, 3), "triples": _triples(rng, _sizes(tiny, 6, 3), 2),
            "trials": 2, "seed": rng.randrange(1 << 30)},
           "conv_k2", True, ["fiber_ok"]),
        Op("conv_k3", "conv",
           {**WORD3, "fiber_r_max": _sizes(tiny, 3, 2), "triples": _triples(rng, _sizes(tiny, 4, 2), 2),
            "trials": 1, "seed": rng.randrange(1 << 30)},
           "conv_k3", True, ["fiber_ok"]),
    ]


GENERATORS = {"shadow": shadow, "coeff": coeff, "walk": walk, "census": census}


def generate(workload: str, seed: int, tiny: bool = False) -> List[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, tiny)
