"""Per-layer tracing of freeboundary from outside the package.

``Tracer.install`` wraps every public module-level function of the seven
modules, plus the few methods the layer metrics need, and rebinds every
reference the package holds to them: module attributes (including names
imported directly, such as ``asymptotics.shadow_pair`` or
``cli.build_partition_weights``) and module-level tables such as
``cli.COMMANDS``.  Function-local imports resolve the module attribute at
call time, so they see the wrapper too.  No file of the package changes.

Each call records a span (name, start, end, parent span, op id) in flat
arrays.  A generator function records one span per resumption, so the
time spent producing elements is charged to the generator and not to its
consumer.  A span's self time is its duration minus the durations of its
child spans; the program is single-threaded, so children never overlap.
Probes attached to a few functions record work counts from their
arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

MODULES = ("cli", "words", "boundary", "measures", "representation", "asymptotics", "scalars")
METHODS = {
    ("asymptotics", "WeightFamily"): ("pair_table", "class_entries"),
    ("cli", "Cache"): ("get", "put"),
    ("cli", "Emitter"): ("write_csv", "write_json", "write_plot_script", "finish"),
}

# (name, unit, better).  Self times are ".s"; per-call and per-second rates
# use inclusive time (what a caller pays).
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("words.enumerate_annulus.elements", "count", "lower"),
    ("words.enumerate_annulus.s", "s", "lower"),
    ("words.enumerate_annulus.elements_per_s", "1/s", "higher"),
    ("boundary.shadow_pair.calls", "count", "lower"),
    ("boundary.shadow_pair.us_per_call", "us", "lower"),
    ("asymptotics.check_shadow_cover.s", "s", "lower"),
    ("asymptotics.check_shadow_cover.grid_cells", "count", "lower"),
    ("asymptotics.build_partition_weights.s", "s", "lower"),
    ("asymptotics.build_partition_weights.support", "count", "lower"),
    ("asymptotics.build_partition_weights.useful_ratio", "ratio", "higher"),
    ("asymptotics.build_partition_weights.grid_bytes", "B", "lower"),
    ("asymptotics.max_rectangle_error.s", "s", "lower"),
    ("asymptotics.max_uniform_rectangle_error.s", "s", "lower"),
    ("asymptotics.WeightFamily.pair_table.s", "s", "lower"),
    ("asymptotics.WeightFamily.pair_table.keys", "count", "lower"),
    ("cli.cache.hits", "count", "higher"),
    ("cli.cache.misses", "count", "lower"),
    ("cli.cache.s", "s", "lower"),
    ("representation.matrix_coefficient.calls", "count", "lower"),
    ("representation.matrix_coefficient.s", "s", "lower"),
    ("representation.matrix_coefficient.us_per_call", "us", "lower"),
    ("representation.apply_pi.s", "s", "lower"),
    ("representation.apply_pi.cells", "count", "lower"),
    ("representation.inner_product.s", "s", "lower"),
    ("boundary.translate_cylinder.calls", "count", "lower"),
    ("boundary.translate_cylinder.s", "s", "lower"),
    ("representation.harish_chandra.calls", "count", "lower"),
    ("representation.harish_chandra.hit_ratio", "ratio", "higher"),
    ("asymptotics.WeightFamily.class_entries.s", "s", "lower"),
    ("asymptotics.WeightFamily.class_entries.classes", "count", "lower"),
    ("asymptotics.phi_r_pairs.s", "s", "lower"),
    ("asymptotics.sphere_sum_sq.calls", "count", "lower"),
    ("asymptotics.sphere_sum_sq.s", "s", "lower"),
    ("scalars.max_numerator_bits", "count", "lower"),
    ("scalars.max_denominator_bits", "count", "lower"),
    ("measures.mc_cylinder_counts.s", "s", "lower"),
    ("measures.mc_cylinder_counts.samples_per_s", "1/s", "higher"),
    ("measures.sample_boundary_prefixes.s", "s", "lower"),
    ("measures.mc_first_passage.s", "s", "lower"),
    ("measures.mc_first_passage.samples_per_s", "1/s", "higher"),
    ("measures.mc.decided_ratio", "ratio", "higher"),
    ("measures.critical_exponent.s", "s", "lower"),
    ("measures.solve_first_passage.s", "s", "lower"),
    ("measures.ps_measure.calls", "count", "lower"),
    ("words.multiply_letters.calls", "count", "lower"),
    ("asymptotics.fiber_size_report.s", "s", "lower"),
    ("asymptotics.convolve.s", "s", "lower"),
    ("asymptotics.convolve.products", "count", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("cli.emit.bytes", "B", "lower"),
] + [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _grid_size(R, ctx) -> int:
    from freeboundary.asymptotics import _resolution_depth

    m = _resolution_depth(R, ctx)
    k = ctx.k
    return 2 * k * (2 * k - 1) ** (m - 1)


def _probe_cover(tracer, args, kwargs, result):
    size = _grid_size(_arg(args, kwargs, 0, "R"), _arg(args, kwargs, 1, "ctx"))
    tracer.counts["asymptotics.check_shadow_cover.grid_cells"] += size * size


def _probe_partition(tracer, args, kwargs, result):
    ctx = _arg(args, kwargs, 1, "ctx")
    size = _grid_size(_arg(args, kwargs, 0, "R"), ctx)
    # one bool per occupancy cell, plus one float64 per cell mass off the word metric
    grid_bytes = size * size + (0 if ctx.metric.kind == "word" else 8 * size)
    c = tracer.counts
    c["asymptotics.build_partition_weights.grid_bytes"] += grid_bytes
    c["asymptotics.build_partition_weights.support"] += result.support_size()
    c["asymptotics.build_partition_weights.annulus"] += result.annulus_size


def _probe_len(key):
    def probe(tracer, args, kwargs, result):
        tracer.counts[key] += len(result)

    return probe


def _probe_cache(tracer, args, kwargs, result):
    tracer.counts["cli.cache.misses" if result is None else "cli.cache.hits"] += 1


def _probe_written(tracer, args, kwargs, result):
    tracer.counts["cli.emit.bytes"] += Path(result).stat().st_size


def _probe_manifest(tracer, args, kwargs, result):
    tracer.counts["cli.emit.bytes"] += (args[0].out / "run_manifest.json").stat().st_size


def _probe_cells(tracer, args, kwargs, result):
    tracer.counts["representation.apply_pi.cells"] += len(result.cells)


def _probe_bits(tracer, args, kwargs, result):
    from freeboundary.scalars import QSqrt

    stack = [result]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple)):
            stack.extend(value)
            continue
        if isinstance(value, QSqrt):
            parts = (value.p, value.q)
        elif isinstance(value, (Fraction, int)):
            parts = (Fraction(value),)
        else:
            continue
        m = tracer.maxima
        for f in parts:
            m["scalars.max_numerator_bits"] = max(m["scalars.max_numerator_bits"], abs(f.numerator).bit_length())
            m["scalars.max_denominator_bits"] = max(m["scalars.max_denominator_bits"], f.denominator.bit_length())


def _probe_mc(prefix, decided_of):
    def probe(tracer, args, kwargs, result):
        tracer.counts[f"{prefix}.samples"] += _arg(args, kwargs, 2, "samples")
        tracer.counts["measures.mc.samples"] += _arg(args, kwargs, 2, "samples")
        tracer.counts["measures.mc.decided"] += decided_of(result)

    return probe


def _probe_convolve(tracer, args, kwargs, result):
    tracer.counts["asymptotics.convolve.products"] += len(_arg(args, kwargs, 0, "phi")) * len(
        _arg(args, kwargs, 1, "psi")
    )


PROBES: Dict[str, Callable] = {
    "asymptotics.check_shadow_cover": _probe_cover,
    "asymptotics.build_partition_weights": _probe_partition,
    "asymptotics.WeightFamily.pair_table": _probe_len("asymptotics.WeightFamily.pair_table.keys"),
    "asymptotics.WeightFamily.class_entries": _probe_len("asymptotics.WeightFamily.class_entries.classes"),
    "cli.Cache.get": _probe_cache,
    "cli.Emitter.write_csv": _probe_written,
    "cli.Emitter.write_json": _probe_written,
    "cli.Emitter.write_plot_script": _probe_written,
    "cli.Emitter.finish": _probe_manifest,
    "representation.apply_pi": _probe_cells,
    "representation.normalized_coefficient": _probe_bits,
    "asymptotics.phi_r_pairs": _probe_bits,
    "asymptotics.sphere_sum_sq": _probe_bits,
    "measures.mc_cylinder_counts": _probe_mc("measures.mc_cylinder_counts", lambda r: r[1]),
    "measures.mc_first_passage": _probe_mc("measures.mc_first_passage", lambda r: r.decided),
    "asymptotics.convolve": _probe_convolve,
}


class Tracer:
    """Spans in flat arrays plus work counters; install() patches the
    package, uninstall() restores every patched reference."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._undo: List[Callable[[], None]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        probe = PROBES.get(name)
        names, starts, ends, parents, ops, stack = self.name, self.start, self.end, self.parent, self.op, self.stack
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            elements = f"{name}.elements"

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = len(starts)
                        names.append(nid)
                        parents.append(stack[-1])
                        ops.append(tracer.op_id)
                        ends.append(0.0)
                        stack.append(idx)
                        starts.append(clock())
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            ends[idx] = clock()
                            stack.pop()
                        tracer.counts[elements] += 1
                        yield item
                finally:
                    inner.close()

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return call

    def install(self) -> None:
        import freeboundary

        modules = {m: sys.modules[f"freeboundary.{m}"] for m in MODULES}
        wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))
                self._undo.append(functools.partial(setattr, cls, meth, original))

        def replacement(value):
            entry = wrappers.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        for mod in [freeboundary, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                new = replacement(value)
                if new is not None:
                    setattr(mod, attr, new)
                    self._undo.append(functools.partial(setattr, mod, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = replacement(item)
                        if new is not None:
                            value[key] = new
                            self._undo.append(functools.partial(value.__setitem__, key, item))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- derived metrics ------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: Path, op_names: List[str]) -> None:
        np.savez_compressed(path, names=np.array(self.names), ops=np.array(op_names), **self.arrays())

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        a = self.arrays()
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - child
        self_by = np.bincount(a["name"], weights=self_time, minlength=n_names)
        incl_by = np.bincount(a["name"], weights=duration, minlength=n_names)
        calls_by = np.bincount(a["name"], minlength=n_names)

        def s(*names: str) -> float:
            return float(sum(self_by[self._ids[n]] for n in names if n in self._ids))

        def incl(name: str) -> float:
            return float(incl_by[self._ids[name]]) if name in self._ids else 0.0

        def calls(name: str) -> int:
            return int(calls_by[self._ids[name]]) if name in self._ids else 0

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        c = self.counts
        hc, mc = "representation.harish_chandra", "representation.matrix_coefficient"
        reached = 0
        if hc in self._ids and mc in self._ids:
            mc_parents = a["parent"][a["name"] == self._ids[mc]]
            mc_parents = mc_parents[mc_parents >= 0]
            reached = int(np.unique(mc_parents[a["name"][mc_parents] == self._ids[hc]]).size)
        out = {
            "words.enumerate_annulus.elements": c["words.enumerate_annulus.elements"],
            "words.enumerate_annulus.s": s("words.enumerate_annulus"),
            "words.enumerate_annulus.elements_per_s": ratio(
                c["words.enumerate_annulus.elements"], s("words.enumerate_annulus")
            ),
            "boundary.shadow_pair.calls": calls("boundary.shadow_pair"),
            "boundary.shadow_pair.us_per_call": 1e6 * ratio(incl("boundary.shadow_pair"), calls("boundary.shadow_pair")),
            "asymptotics.check_shadow_cover.s": s("asymptotics.check_shadow_cover"),
            "asymptotics.check_shadow_cover.grid_cells": c["asymptotics.check_shadow_cover.grid_cells"],
            "asymptotics.build_partition_weights.s": s("asymptotics.build_partition_weights"),
            "asymptotics.build_partition_weights.support": c["asymptotics.build_partition_weights.support"],
            "asymptotics.build_partition_weights.useful_ratio": ratio(
                c["asymptotics.build_partition_weights.support"], c["asymptotics.build_partition_weights.annulus"]
            ),
            "asymptotics.build_partition_weights.grid_bytes": c["asymptotics.build_partition_weights.grid_bytes"],
            "asymptotics.max_rectangle_error.s": s("asymptotics.max_rectangle_error"),
            "asymptotics.max_uniform_rectangle_error.s": s("asymptotics.max_uniform_rectangle_error"),
            "asymptotics.WeightFamily.pair_table.s": s("asymptotics.WeightFamily.pair_table"),
            "asymptotics.WeightFamily.pair_table.keys": c["asymptotics.WeightFamily.pair_table.keys"],
            "cli.cache.hits": c["cli.cache.hits"],
            "cli.cache.misses": c["cli.cache.misses"],
            "cli.cache.s": s("cli.Cache.get", "cli.Cache.put"),
            "representation.matrix_coefficient.calls": calls(mc),
            "representation.matrix_coefficient.s": s(mc),
            "representation.matrix_coefficient.us_per_call": 1e6 * ratio(incl(mc), calls(mc)),
            "representation.apply_pi.s": s("representation.apply_pi"),
            "representation.apply_pi.cells": c["representation.apply_pi.cells"],
            "representation.inner_product.s": s("representation.inner_product"),
            "boundary.translate_cylinder.calls": calls("boundary.translate_cylinder"),
            "boundary.translate_cylinder.s": s("boundary.translate_cylinder"),
            "representation.harish_chandra.calls": calls(hc),
            "representation.harish_chandra.hit_ratio": ratio(calls(hc) - reached, calls(hc)),
            "asymptotics.WeightFamily.class_entries.s": s("asymptotics.WeightFamily.class_entries"),
            "asymptotics.WeightFamily.class_entries.classes": c["asymptotics.WeightFamily.class_entries.classes"],
            "asymptotics.phi_r_pairs.s": s("asymptotics.phi_r_pairs"),
            "asymptotics.sphere_sum_sq.calls": calls("asymptotics.sphere_sum_sq"),
            "asymptotics.sphere_sum_sq.s": s("asymptotics.sphere_sum_sq"),
            "scalars.max_numerator_bits": self.maxima["scalars.max_numerator_bits"],
            "scalars.max_denominator_bits": self.maxima["scalars.max_denominator_bits"],
            "measures.mc_cylinder_counts.s": s("measures.mc_cylinder_counts"),
            "measures.mc_cylinder_counts.samples_per_s": ratio(
                c["measures.mc_cylinder_counts.samples"], incl("measures.mc_cylinder_counts")
            ),
            "measures.sample_boundary_prefixes.s": s("measures.sample_boundary_prefixes"),
            "measures.mc_first_passage.s": s("measures.mc_first_passage"),
            "measures.mc_first_passage.samples_per_s": ratio(
                c["measures.mc_first_passage.samples"], incl("measures.mc_first_passage")
            ),
            "measures.mc.decided_ratio": ratio(c["measures.mc.decided"], c["measures.mc.samples"]),
            "measures.critical_exponent.s": s("measures.critical_exponent"),
            "measures.solve_first_passage.s": s("measures.solve_first_passage"),
            "measures.ps_measure.calls": calls("measures.ps_measure"),
            "words.multiply_letters.calls": calls("words.multiply_letters"),
            "asymptotics.fiber_size_report.s": s("asymptotics.fiber_size_report"),
            "asymptotics.convolve.s": s("asymptotics.convolve"),
            "asymptotics.convolve.products": c["asymptotics.convolve.products"],
            "cli.load_config.s": s("cli.load_config"),
            "cli.emit.s": s(*(n for n in self._ids if n.startswith("cli.Emitter."))),
            "cli.emit.bytes": c["cli.emit.bytes"],
            "trace.spans": len(duration),
            "trace.overhead_s": overhead_s,
        }
        for m in MODULES:
            out[f"{m}.self_s"] = s(*(n for n in self._ids if n.startswith(m + ".")))
        return out
