"""Experiment runner: JSON config in, CSV + JSON summaries out.

Subcommands: spec, xi, cover, equidist, orth, rd, conv, gvb, green.
Exit codes: 0 all verdicts PASS, 2 a verdict FAILED, 1 usage/config
error, 3 budget exceeded (partial outputs flagged in the manifest).

Rationals in configs are strings "p/q" and are parsed exactly; exact
values are rendered both as decimals and as "p+q*sqrt(w)" strings, so two
runs of the same config produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .asymptotics import (
    BudgetError,
    CoverError,
    OrthCase,
    TestFunction,
    build_partition_weights,
    check_shadow_cover,
    empty_annulus_error,
    fiber_size_report,
    gvb_growth,
    max_rectangle_error,
    max_uniform_rectangle_error,
    orthogonality_sweep,
    rd_convolution_check,
    rd_sweep,
    _fiber_bound,
    _resolution_depth,
    fit_decay,
)
from .boundary import Cylinder
from .measures import (
    WalkSpec,
    _binomial_halfwidth,
    green_metric_of_walk,
    mc_cylinder_counts,
    mc_first_passage,
    ps_measure,
    solve_first_passage,
)
from .representation import StepFunction, harish_chandra_length
from .scalars import as_float, exact_str
from .words import (
    GroupContext,
    Letters,
    MetricSpec,
    ReducedWord,
    canonical_letters,
    enumerate_annulus,
    letter_to_str,
    sphere_size,
)

log = logging.getLogger("freeboundary")

SCHEMA_VERSION = 1
_CONV_RATIO_CAP = 4.0  # largest restricted convolution norm ratio that passes


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _parse_fraction(value, path: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError("booleans are not rationals")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, f"invalid rational {value!r}: {exc}") from None
    raise ConfigError(path, f"expected a rational 'p/q' string or integer, got {type(value).__name__}")


def _parse_int(value, path: str, low: Optional[int] = None) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value if low is None else _at_least(value, low, path)
    raise ConfigError(path, f"expected an integer, got {value!r}")


def _at_least(value, low, path: str):
    """``value`` if it is >= low, else a ConfigError at ``path``."""
    if value < low:
        raise ConfigError(path, f"expected a value >= {low}, got {value}")
    return value


def _parse_float(value, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(path, f"expected a number, got {value!r}")


_TOP_KEYS = {
    "schema_version", "group", "metric", "epsilon", "rho", "h", "grid", "weights", "depth",
    "tolerance", "seed", "samples", "budget", "vectors", "functions", "cases", "walk", "v", "w",
    "rho_max", "fiber_r_max", "triples", "trials",
    "ancona_words", "ancona_max_len", "ancona_samples",
}


def _check_keys(spec, allowed, path: str) -> None:
    """Refuse a non-object or any key outside ``allowed``, naming its field path."""
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _generator_table(spec, k: int, path: str, table: str, entry: str) -> List[Fraction]:
    """One rational per generator a, b, ... from the object at ``path``;
    ``table`` is the message for a non-object, ``entry`` names a value."""
    if not isinstance(spec, dict):
        raise ConfigError(path, table)
    _check_keys(spec, {letter_to_str(i) for i in range(1, k + 1)}, path)
    values = []
    for i in range(1, k + 1):
        key = letter_to_str(i)
        if key not in spec:
            raise ConfigError(f"{path}.{key}", f"missing generator {entry}")
        values.append(_parse_fraction(spec[key], f"{path}.{key}"))
    return values


def _parse_metric(cfg: dict, k: int) -> MetricSpec:
    spec = cfg.get("metric", {"kind": "word"})
    _check_keys(spec, {"kind", "lengths", "walk"}, "metric")
    kind = spec.get("kind", "word")
    if kind == "word":
        return MetricSpec.word(k)
    if kind == "weighted":
        lengths = spec.get("lengths")
        return MetricSpec.weighted(
            k, _generator_table(lengths, k, "metric.lengths", "weighted metric needs a lengths table", "length")
        )
    if kind == "green":
        walk = _parse_walk(spec.get("walk"), k, "metric.walk")
        return green_metric_of_walk(walk)
    raise ConfigError("metric.kind", f"unknown metric kind {kind!r}")


def _parse_walk(spec, k: int, path: str) -> WalkSpec:
    probs = _generator_table(spec, k, path, "walk needs a generator probability table", "probability")
    try:
        return WalkSpec.from_generator_probs(probs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _check_rank(letters, k: int, path: str) -> None:
    for s in letters:
        if abs(s) > k:
            raise ConfigError(path, f"letter {letter_to_str(s)!r} is outside rank {k}")


def _parse_vector(spec, k: int, path: str) -> StepFunction:
    if not isinstance(spec, dict):
        raise ConfigError(path, "vector spec must be an object")
    _check_keys(spec, {"constant", "cells"}, path)
    constant = _parse_fraction(spec.get("constant", 0), f"{path}.constant")
    cells = []
    for i, cell in enumerate(spec.get("cells", [])):
        if not (isinstance(cell, (list, tuple)) and len(cell) == 2):
            raise ConfigError(f"{path}.cells[{i}]", "expected [stem, value]")
        stem, value = cell
        try:
            cyl = Cylinder.from_str(stem)
        except ValueError as exc:
            raise ConfigError(f"{path}.cells[{i}]", str(exc)) from None
        _check_rank(cyl.stem, k, f"{path}.cells[{i}]")
        cells.append((cyl, _parse_fraction(value, f"{path}.cells[{i}]")))
    try:
        if cells:
            return StepFunction.from_pairs(cells, k, constant=constant)
        return StepFunction.constant(constant, k)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_function(spec, k: int, path: str) -> TestFunction:
    if spec is None:
        return TestFunction.one(k)
    _check_keys(spec, {"boundary", "interior"}, path)
    boundary = _parse_vector(spec.get("boundary", {"constant": 1}), k, f"{path}.boundary")
    interior = {}
    interior_spec = spec.get("interior", {})
    if not isinstance(interior_spec, dict):
        raise ConfigError(f"{path}.interior", "expected an object")
    for word, value in interior_spec.items():
        try:
            g = ReducedWord.from_str(word)
        except ValueError as exc:
            raise ConfigError(f"{path}.interior.{word}", str(exc)) from None
        _check_rank(g.letters, k, f"{path}.interior.{word}")
        interior[g] = _parse_fraction(value, f"{path}.interior.{word}")
    return TestFunction(boundary, interior)


class RunConfig:
    def __init__(self, raw: dict, path: Path):
        self.raw = raw
        self.path = path
        _check_keys(raw, _TOP_KEYS, "")
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"unsupported version {version!r} (expected {SCHEMA_VERSION})")
        group = raw.get("group", {})
        _check_keys(group, {"rank"}, "group")
        self.k = _parse_int(group.get("rank", 2), "group.rank")
        if self.k < 2:
            raise ConfigError("group.rank", "rank must be >= 2")
        if self.k > 26:
            raise ConfigError("group.rank", "text encoding supports ranks up to 26")
        self.metric = _parse_metric(raw, self.k)
        self.epsilon = _parse_fraction(raw.get("epsilon", 1), "epsilon")
        if self.epsilon <= 0:
            raise ConfigError("epsilon", f"expected a value > 0, got {self.epsilon}")
        self.rho = _at_least(_parse_fraction(raw.get("rho", 1), "rho"), 0, "rho")
        self.h = None if raw.get("h") is None else _at_least(_parse_fraction(raw["h"], "h"), 0, "h")
        grid = raw.get("grid", [4, 6, 8, 10, 12])
        if not isinstance(grid, list) or not grid:
            raise ConfigError("grid", "grid must be a nonempty strictly increasing list")
        for i, x in enumerate(grid):
            _at_least(_parse_float(x, f"grid[{i}]"), 0, f"grid[{i}]")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise ConfigError("grid", "grid must be a nonempty strictly increasing list")
        self.grid = grid
        self.weights_kind = raw.get("weights", "sphere")
        if self.weights_kind not in ("sphere", "shadow"):
            raise ConfigError("weights", f"unknown weights kind {self.weights_kind!r}")
        # depth 0 holds only C_e x C_e, whose error is 0 for every weighting
        self.depth = _parse_int(raw.get("depth", 2), "depth", low=1)
        # absent: each subcommand applies its own default (orth 0.05, equidist 0.02)
        self.tolerance = _parse_float(raw["tolerance"], "tolerance") if "tolerance" in raw else None
        self.seed = _parse_int(raw.get("seed", 0), "seed", low=0)
        self.samples = _parse_int(raw.get("samples", 100_000), "samples", low=1)
        self.budget = _parse_int(raw.get("budget", 10_000_000), "budget", low=1)
        self.rho_max = _parse_int(raw.get("rho_max", 3), "rho_max", low=0)
        self.fiber_r_max = _parse_int(raw.get("fiber_r_max", 6), "fiber_r_max", low=1)
        self.trials = _parse_int(raw.get("trials", 3), "trials", low=1)
        self.ancona_words = _parse_int(raw.get("ancona_words", 20), "ancona_words", low=0)
        self.ancona_max_len = _parse_int(raw.get("ancona_max_len", 6), "ancona_max_len", low=1)
        self.ancona_samples = _parse_int(
            raw.get("ancona_samples", max(self.samples // 5, 10_000)), "ancona_samples", low=1
        )
        triples = raw.get("triples", [[2, 2, 2], [2, 3, 3], [3, 3, 4]])
        if not isinstance(triples, list):
            raise ConfigError("triples", "expected a list")
        self.triples = []
        for i, t in enumerate(triples):
            if not (isinstance(t, list) and len(t) == 3):
                raise ConfigError(f"triples[{i}]", f"expected [R, R', R''], got {t!r}")
            self.triples.append(tuple(_parse_int(x, f"triples[{i}][{j}]", low=0) for j, x in enumerate(t)))
        vectors = raw.get("vectors", {})
        if not isinstance(vectors, dict):
            raise ConfigError("vectors", "expected an object")
        self.vectors = {
            name: _parse_vector(spec, self.k, f"vectors.{name}")
            for name, spec in vectors.items()
        }
        self.v = raw.get("v", "one")
        self.w = raw.get("w", "one")
        functions = raw.get("functions", {})
        _check_keys(functions, {"f1", "f2"}, "functions")
        self.f1 = _parse_function(functions.get("f1"), self.k, "functions.f1")
        self.f2 = _parse_function(functions.get("f2"), self.k, "functions.f2")
        self.cases = raw.get("cases", [])
        if not isinstance(self.cases, list):
            raise ConfigError("cases", "expected a list")
        for i, case in enumerate(self.cases):
            _check_keys(case, {"name", "v1", "w1", "v2", "w2"}, f"cases[{i}]")
        self.walk = _parse_walk(raw["walk"], self.k, "walk") if "walk" in raw else None
        self._one = StepFunction.constant(Fraction(1), self.k)
        self._context: Optional[GroupContext] = None

    def context(self, rho: Optional[Fraction] = None) -> GroupContext:
        """The run's context, at ``rho`` if given; all of them share one
        boundary measure, solved on the first call."""
        if self._context is None:
            self._context = GroupContext(self.metric, epsilon=self.epsilon, rho=self.rho, h=self.h)
        return self._context if rho is None else self._context.with_rho(rho)

    def sphere_radii(self) -> List[int]:
        """The grid as word-sphere radii: each entry a JSON integer."""
        for i, n in enumerate(self.grid):
            _parse_int(n, f"grid[{i}]")
        return self.grid

    def vector(self, name: str) -> StepFunction:
        if name in ("1", "one"):
            return self._one
        if not isinstance(name, str) or name not in self.vectors:
            raise ConfigError(f"vectors.{name}", "vector not defined")
        return self.vectors[name]


def load_config(path: Path) -> RunConfig:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"config file is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}", f"invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "config must be a JSON object")
    return RunConfig(raw, path)


# -- cache and manifest -------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:24]


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the package's module sources: cache entries written by
    other code are misses.  Computed on first use, once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Cache:
    """JSON entries under ``root``, keyed by the computation's inputs plus
    the package version and source digest."""

    def __init__(self, root: Path):
        self.root = root
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _stamp(key: dict) -> dict:
        return {**key, "package_version": __version__, "source_sha256": _source_digest()}

    def _path(self, kind: str, key: dict) -> Path:
        return self.root / f"{kind}-{_digest(key)}.json"

    def get(self, kind: str, key: dict):
        key = self._stamp(key)
        path = self._path(kind, key)
        try:
            entry = json.loads(path.read_text())
            if entry.get("key") != json.loads(json.dumps(key, default=str)):
                raise ValueError("key mismatch")
            self.hits += 1
            return entry["payload"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError) as exc:
            log.warning("corrupt cache entry %s (%s); recomputing", path, exc)
            self.misses += 1
            return None

    def put(self, kind: str, key: dict, payload) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        key = self._stamp(key)
        path = self._path(kind, key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"key": key, "payload": payload}, sort_keys=True, default=str))
        os.replace(tmp, path)


class Emitter:
    """Collects output files, timings and cache stats into a manifest."""

    def __init__(self, out: Path, config: RunConfig, subcommand: str, cache: Cache):
        self.out = out
        self.config = config
        self.subcommand = subcommand
        self.cache = cache
        self.files: List[dict] = []
        self.timings: Dict[str, float] = {}
        self.flags: Dict[str, bool] = {}
        self.t0 = time.monotonic()
        out.mkdir(parents=True, exist_ok=True)

    def write_csv(self, name: str, rows: Sequence[dict]) -> Path:
        path = self.out / name
        if rows:
            fields = list(rows[0].keys())
            with open(path, "w", newline="\n") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
        else:
            path.write_text("")
        self._record(path)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        path = self.out / name
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
        self._record(path)
        return path

    def write_plot_script(self, name: str, csv_name: str, param: str, ycol: str, logy: bool = True) -> Path:
        body = PLOT_TEMPLATE.format(name=name, csv=csv_name, param=param, ycol=ycol, plot="semilogy" if logy else "plot")
        path = self.out / f"plot_{name}.py"
        path.write_text(body)
        self._record(path)
        return path

    def _record(self, path: Path) -> None:
        data = path.read_bytes()
        self.files.append(
            {"path": path.name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )

    def finish(self, exit_code: int) -> None:
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "config_hash": _digest(self.config.raw),
            "config_path": str(self.config.path),
            "package_version": __version__,
            "wall_clock_s": round(time.monotonic() - self.t0, 3),
            "stage_timings_s": {k: round(v, 3) for k, v in self.timings.items()},
            "cache": {"hits": self.cache.hits, "misses": self.cache.misses},
            "files": self.files,
            "flags": self.flags,
            "exit_code": exit_code,
        }
        (self.out / "run_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot the {name} sweep from {csv} (generated script)."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "{csv}")))
xs = [float(r["{param}"]) for r in rows]
ys = [float(r["{ycol}"]) for r in rows]
plt.figure()
plt.{plot}(xs, [max(abs(y), 1e-18) for y in ys], "o-")
plt.xlabel("{param}")
plt.ylabel("{ycol}")
plt.title("{name}")
plt.tight_layout()
plt.savefig(Path(__file__).parent / "{name}.png", dpi=150)
print("wrote {name}.png")
'''


# -- subcommands --------------------------------------------------------------


def cmd_spec(cfg: RunConfig, emit: Emitter) -> int:
    ctx = cfg.context()
    alpha, mu = ctx.alpha, ctx.mu
    letters = canonical_letters(cfg.k)
    payload = {
        "rank": cfg.k,
        "metric_kind": cfg.metric.kind,
        "alpha": alpha,
        "omega": float(ctx.omega),
        "epsilon": str(cfg.epsilon),
        "dimension": ctx.dimension,
        "exp_minus_alpha": math.exp(-alpha),
        "rho": str(ctx.rho),
        "h": str(ctx.h),
        "perron_exact": mu.exact,
        "eigenvalue_residual": mu.eigenvalue_residual,
        "row_sum_residual": mu.row_sum_residual(),
        "perron_vector": {letter_to_str(s): str(mu.vector[s]) for s in letters},
    }
    rows = []
    for entry in mu.markov_rows():
        row = {"state": letter_to_str(entry["state"]), "initial": str(entry["initial"])}
        for t in letters:
            row[f"to_{letter_to_str(t)}"] = str(entry[("to", t)])
        rows.append(row)
    emit.write_csv("markov.csv", rows)
    emit.write_json("spec_summary.json", payload)
    print(f"omega = {float(ctx.omega):.12g}  alpha = {alpha:.12g}  D = {ctx.dimension:.12g}")
    print(f"e^-alpha = {math.exp(-alpha):.12g}  perron exact = {mu.exact}")
    return 0


def cmd_xi(cfg: RunConfig, emit: Emitter) -> int:
    mu = ps_measure(cfg.context())
    n_max = cfg.sphere_radii()[-1]
    if cfg.metric.kind != "word":
        raise ConfigError("metric.kind", "the xi table is indexed by length only for the word metric")
    t0 = time.monotonic()
    xis = [harish_chandra_length(n, mu) for n in range(n_max + 1)]
    emit.timings["xi_table"] = time.monotonic() - t0
    emit.write_csv("xi.csv", [{"n": n, "xi": repr(as_float(xi)), "xi_exact": exact_str(xi)} for n, xi in enumerate(xis)])
    bracket = [as_float(xi) * (2 * cfg.k - 1) ** (n / 2) / (1 + n) for n, xi in enumerate(xis)]
    emit.write_json(
        "xi_summary.json",
        {"n_max": n_max, "bracket_c1": min(bracket), "bracket_c2": max(bracket)},
    )
    emit.write_plot_script("xi", "xi.csv", "n", "xi")
    print(f"xi table up to n = {n_max}; bracket of xi(n)*omega^(n/2)/(1+n): [{min(bracket):.6f}, {max(bracket):.6f}]")
    return 0


def cmd_cover(cfg: RunConfig, emit: Emitter) -> int:
    rows = []
    ok = True
    for R in cfg.grid:
        minimal = None
        witness = ""
        for rho in range(cfg.rho_max + 1):
            key = {
                "kind": "cover",
                "k": cfg.k,
                "metric": cfg.metric.kind,
                "lengths": [str(l) for l in cfg.metric.lengths],
                "epsilon": str(cfg.epsilon),
                "rho": rho,
                "h": str(cfg.h) if cfg.h is not None else "default",
                "R": R,
            }
            payload = emit.cache.get("cover", key)
            if payload is None:
                rep = check_shadow_cover(R, cfg.context(rho=Fraction(rho)), budget=cfg.budget)
                payload = {"covered": rep.covered, "witness": str(rep.witness) if rep.witness else ""}
                emit.cache.put("cover", key, payload)
            if payload["covered"]:
                minimal = rho
                break
            witness = payload["witness"]
        rows.append(
            {
                "R": R,
                "minimal_rho": "" if minimal is None else minimal,
                "covered_within_scan": minimal is not None,
                "last_witness": witness,
            }
        )
        ok = ok and minimal is not None
    emit.write_csv("cover.csv", rows)
    emit.write_json("cover_summary.json", {"rows": rows, "rho_max": cfg.rho_max, "passed": ok})
    for row in rows:
        print(f"R={row['R']}: minimal covering rho = {row['minimal_rho']}")
    return 0 if ok else 2


def cmd_equidist(cfg: RunConfig, emit: Emitter) -> int:
    ctx = cfg.context()
    mu = ps_measure(ctx)
    tol = 0.02 if cfg.tolerance is None else cfg.tolerance
    rows = []
    probe_errors = []
    t0 = time.monotonic()
    for R in cfg.grid:
        weights = build_partition_weights(R, ctx, budget=cfg.budget)
        err = max_rectangle_error(weights, mu, cfg.depth)
        probe_depth = _resolution_depth(R, ctx) - 1
        probe = max_uniform_rectangle_error(weights, mu, probe_depth)
        probe_errors.append(as_float(probe))
        rows.append(
            {
                "R": R,
                "max_error": repr(as_float(err)),
                "max_error_exact": exact_str(err),
                "probe_depth": probe_depth,
                "probe_error": repr(as_float(probe)),
                "probe_error_exact": exact_str(probe),
                "support": weights.support_size(),
                "annulus": weights.annulus_size,
                "max_mass_times_annulus": repr(as_float(weights.max_mass() * weights.annulus_size)),
            }
        )
    emit.timings["equidist"] = time.monotonic() - t0
    final_err = float(rows[-1]["max_error"])
    exponent, r2, window = fit_decay(cfg.grid, probe_errors)
    passed = final_err <= tol
    emit.write_csv("equidist.csv", rows)
    emit.write_json(
        "equidist_summary.json",
        {
            "depth": cfg.depth,
            "tolerance": tol,
            "final_max_error": final_err,
            "probe_fit_exponent": exponent,
            "probe_fit_r2": r2,
            "reference_rate": float(cfg.epsilon) / 2.0,
            "passed": passed,
        },
    )
    emit.write_plot_script("equidist", "equidist.csv", "R", "probe_error")
    print(f"max depth<={cfg.depth} rectangle error at R={cfg.grid[-1]}: {final_err:.6g} (tol {tol})")
    print(f"probe-depth errors fit: exponent {exponent} (reference {float(cfg.epsilon)/2}), r2 {r2}")
    return 0 if passed else 2


def cmd_orth(cfg: RunConfig, emit: Emitter) -> int:
    if cfg.weights_kind == "sphere" and cfg.metric.kind != "word":
        raise ConfigError("weights", "sphere weights require the word metric")
    grid = cfg.sphere_radii() if cfg.weights_kind == "sphere" else cfg.grid
    tol = 0.05 if cfg.tolerance is None else cfg.tolerance
    ctx = cfg.context()
    mu = ps_measure(ctx)
    cases = []
    for i, case in enumerate(cfg.cases or [{}]):
        name = case.get("name", f"case{i}")
        if not isinstance(name, str):
            raise ConfigError(f"cases[{i}].name", f"expected a string, got {name!r}")
        if any(c.name == name for c in cases):  # one row per name in the summary
            raise ConfigError(f"cases[{i}].name", f"duplicate case name {name!r}")
        slots = (cfg.vector(case.get(key, "one")) for key in ("v1", "w1", "v2", "w2"))
        cases.append(OrthCase(name, *slots))
    t0 = time.monotonic()
    reports = orthogonality_sweep(
        cfg.f1, cfg.f2, cases, grid, ctx, mu, weights_kind=cfg.weights_kind, budget=cfg.budget, tolerance=tol
    )
    emit.timings["orth"] = time.monotonic() - t0
    rows = [
        {
            "case": rep.name,
            "R": R,
            "value": repr(rep.values[i]),
            "value_exact": rep.values_exact[i],
            "target": repr(rep.targets[i]),
            "target_exact": rep.targets_exact[i],
            "abs_error": repr(rep.abs_errors[i]),
            "rel_error": repr(rep.rel_errors[i]),
        }
        for i, R in enumerate(reports[0].grid)
        for rep in reports
    ]
    emit.write_csv("orth.csv", rows)
    finals = {rep.name: rep.rel_errors[-1] for rep in reports if rep.rel_errors}
    partial = reports[0].partial
    passed = all(rep.passed for rep in reports)
    emit.write_json(
        "orth_summary.json",
        {
            "weights": cfg.weights_kind,
            "tolerance": tol,
            "final_rel_errors": finals,
            "passed": passed,
            "partial": partial,
        },
    )
    emit.write_plot_script("orth", "orth.csv", "R", "abs_error")
    emit.flags["partial"] = partial
    for name, rel in finals.items():
        print(f"{name}: final rel error {rel:.6g} (tol {tol})")
    if partial:
        return 3
    return 0 if passed else 2


def cmd_rd(cfg: RunConfig, emit: Emitter) -> int:
    ctx = cfg.context()
    mu = ps_measure(ctx)
    v = cfg.vector(cfg.v)
    w = cfg.vector(cfg.w)
    grid = cfg.sphere_radii()
    t0 = time.monotonic()
    report = rd_sweep(v, w, grid, ctx, mu)
    emit.timings["rd"] = time.monotonic() - t0
    rows = [
        {"n": n, "ratio": repr(report.values[i]), "sum_sq_exact": report.values_exact[i]}
        for i, n in enumerate(report.grid)
    ]
    emit.write_csv("rd.csv", rows)
    emit.write_json("rd_summary.json", report.summary())
    emit.write_plot_script("rd", "rd.csv", "n", "ratio", logy=False)
    print(
        f"r_n over n={grid[0]}..{grid[-1]}: sup {report.constants['sup_ratio']:.6f}, "
        f"inf(n>=2) {report.constants['inf_ratio_n_ge_2']:.6f} -> {report.verdict}"
    )
    return 0 if report.passed else 2


def cmd_conv(cfg: RunConfig, emit: Emitter) -> int:
    ctx = cfg.context()
    for i, triple in enumerate(cfg.triples):
        error = empty_annulus_error(triple, ctx)
        if error:
            raise ConfigError(f"triples[{i}]", error)
    t0 = time.monotonic()
    fibers = fiber_size_report(cfg.fiber_r_max, cfg.k)
    emit.timings["fibers"] = time.monotonic() - t0
    t0 = time.monotonic()
    check = rd_convolution_check(cfg.triples, ctx, trials=cfg.trials, seed=cfg.seed, budget=cfg.budget)
    emit.timings["random_trials"] = time.monotonic() - t0
    rows = [
        {"defect_p": p, "max_fiber": fibers.max_by_defect[p], "bound": _fiber_bound(p, cfg.k)}
        for p in sorted(fibers.max_by_defect)
    ]
    emit.write_csv("conv_fibers.csv", rows)
    passed = fibers.extremal_ok and fibers.bound_ok and check.max_restricted_ratio <= _CONV_RATIO_CAP
    emit.write_json(
        "conv_summary.json",
        {
            "fiber_r_max": cfg.fiber_r_max,
            "extremal_fibers_all_one": fibers.extremal_ok,
            "fiber_bound_ok": fibers.bound_ok,
            "max_restricted_ratio": check.max_restricted_ratio,
            "max_full_ratio_over_1pR": check.max_full_ratio_over_1pR,
            "ratio_cap": _CONV_RATIO_CAP,
            "triples": [list(t) for t in check.grid],
            "passed": passed,
        },
    )
    print(
        f"fibers by class census to R,R'<= {cfg.fiber_r_max}: extremal size-1 {fibers.extremal_ok}, bound {fibers.bound_ok}; "
        f"max restricted conv ratio {check.max_restricted_ratio:.4f} (cap {_CONV_RATIO_CAP})"
    )
    return 0 if passed else 2


def cmd_gvb(cfg: RunConfig, emit: Emitter) -> int:
    ctx = cfg.context()
    mu = ps_measure(ctx)
    v = cfg.vector(cfg.v)
    w = cfg.vector(cfg.w)
    grid = cfg.sphere_radii()
    t0 = time.monotonic()
    report = gvb_growth(v, w, grid, ctx, mu)
    emit.timings["gvb"] = time.monotonic() - t0
    rows = [
        {
            "n": n,
            "q": repr(report.values[i]),
            "q_exact": report.values_exact[i],
            "ratio": repr(report.extras["ratio"][i]),
        }
        for i, n in enumerate(report.grid)
    ]
    emit.write_csv("gvb.csv", rows)
    emit.write_json("gvb_summary.json", report.summary())
    emit.write_plot_script("gvb", "gvb.csv", "n", "q")
    print(
        f"q_n growth exponent {report.fitted_exponent:.4f} (r2 {report.fit_r2:.4f}) "
        f"over top half of n={grid[0]}..{grid[-1]} -> verdict: {report.verdict}"
    )
    return 0 if report.passed else 2


def _prefix_totals(counts: Dict[Letters, int]) -> Dict[Letters, int]:
    """Per stem, the total count of the keys it is a prefix of, in one
    pass: each key adds its count to every one of its prefixes."""
    totals: Dict[Letters, int] = {}
    for w, c in counts.items():
        for i in range(len(w) + 1):
            totals[w[:i]] = totals.get(w[:i], 0) + c
    return totals


def cmd_green(cfg: RunConfig, emit: Emitter) -> int:
    depth = cfg.depth
    if depth > 4:
        raise ConfigError("depth", f"green tabulates cylinders of depth <= 4, got {depth}")
    _check_ancona_words(cfg)
    walk = cfg.walk or WalkSpec.simple(cfg.k)
    fp = solve_first_passage(walk)
    metric = green_metric_of_walk(walk)
    ctx = GroupContext(metric, epsilon=cfg.epsilon, rho=cfg.rho)
    mu = ps_measure(ctx)
    t0 = time.monotonic()
    counts, decided, undecided = mc_cylinder_counts(walk, depth, cfg.samples, cfg.seed)
    emit.timings["mc_cylinders"] = time.monotonic() - t0

    hits = _prefix_totals(counts)

    def mc_mass(stem) -> Tuple[float, float]:
        est = hits.get(stem, 0) / decided
        return est, _binomial_halfwidth(est, decided)

    rows = []
    inside = 0
    total = 0
    stems = [()]
    for d in range(1, depth + 1):
        stems.extend(w.letters for w in enumerate_annulus(d, 0, MetricSpec.word(cfg.k)))
    for stem in stems:
        est, half = mc_mass(stem)
        exact = mu.mass_letters(stem)
        ok = abs(est - float(exact)) <= half or stem == ()
        inside += ok
        total += 1
        rows.append(
            {
                "cylinder": "".join(letter_to_str(s) for s in stem) or "e",
                "mc": repr(est),
                "ci_halfwidth": repr(half),
                "ps_of_green": repr(float(exact)),
                "inside_ci": ok,
            }
        )
    emit.write_csv("green_cylinders.csv", rows)

    anc_rows, anc_inside = _ancona_words(cfg, walk, fp, emit)
    passed = inside == total and anc_inside == len(anc_rows) and undecided == 0
    emit.write_json(
        "green_summary.json",
        {
            "first_passage_exact": fp.exact,
            "first_passage": {letter_to_str(s): str(fp.values[s]) for s in canonical_letters(cfg.k) if s > 0},
            "green_alpha": ctx.alpha,
            "green_alpha_minus_one": ctx.alpha - 1.0,
            "mc_samples": cfg.samples,
            "mc_undecided": undecided,
            "cylinders_inside_ci": f"{inside}/{total}",
            "ancona_inside_ci": f"{anc_inside}/{len(anc_rows)}",
            "passed": passed,
        },
    )
    print(
        f"first passage exact={fp.exact}; green alpha-1 = {ctx.alpha-1:.2e}; "
        f"cylinders in CI {inside}/{total}; ancona in CI {anc_inside}/{len(anc_rows)}"
    )
    return 0 if passed else 2


def _check_ancona_words(cfg: RunConfig) -> None:
    """Refuse more Ancona words than there are distinct reduced words of
    1..ancona_max_len letters, which the word draw would never finish."""
    distinct = 0
    for n in range(1, cfg.ancona_max_len + 1):
        distinct += sphere_size(n, cfg.k)
        if distinct >= cfg.ancona_words:
            return
    raise ConfigError(
        "ancona_words",
        f"only {distinct} distinct reduced words have 1..{cfg.ancona_max_len} letters at rank {cfg.k}, "
        f"got {cfg.ancona_words}",
    )


def _ancona_words(cfg: RunConfig, walk: WalkSpec, fp, emit: Emitter):
    import numpy as np

    rng = np.random.default_rng(cfg.seed + 1)
    letters = canonical_letters(cfg.k)
    words = []
    while len(words) < cfg.ancona_words:
        length = int(rng.integers(1, cfg.ancona_max_len + 1))
        seq: List[int] = []
        for _ in range(length):
            options = [s for s in letters if not seq or s != -seq[-1]]
            seq.append(options[int(rng.integers(len(options)))])
        w = tuple(seq)
        if w not in words:
            words.append(w)
    rows = []
    inside = 0
    t0 = time.monotonic()
    for i, wl in enumerate(words):
        g = ReducedWord(wl, _reduced=True)
        est = mc_first_passage(walk, g, cfg.ancona_samples, cfg.seed + 100 + i)
        product = 1.0
        for s in wl:
            product *= float(fp.values[s])
        ok = abs(est.estimate - product) <= est.halfwidth
        inside += ok
        rows.append(
            {
                "g": str(g),
                "mc_F": repr(est.estimate),
                "ci_halfwidth": repr(est.halfwidth),
                "product_f": repr(product),
                "inside_ci": ok,
            }
        )
    emit.timings["mc_ancona"] = time.monotonic() - t0
    emit.write_csv("green_ancona.csv", rows)
    return rows, inside


# -- entry point --------------------------------------------------------------


COMMANDS = {
    "spec": cmd_spec,
    "xi": cmd_xi,
    "cover": cmd_cover,
    "equidist": cmd_equidist,
    "orth": cmd_orth,
    "rd": cmd_rd,
    "conv": cmd_conv,
    "gvb": cmd_gvb,
    "green": cmd_green,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeboundary",
        description="Exact boundary-representation experiments on free groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _parse_int(args.seed, "seed", low=0)
        if args.budget is not None:
            cfg.budget = _parse_int(args.budget, "budget", low=1)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    emit = Emitter(args.out, cfg, args.subcommand, Cache(args.out / "cache"))
    try:
        code = COMMANDS[args.subcommand](cfg, emit)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        emit.flags["budget_exceeded"] = True
        emit.finish(3)
        return 3
    except CoverError as exc:
        print(f"cover failure: {exc}", file=sys.stderr)
        emit.finish(2)
        return 2
    emit.finish(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
