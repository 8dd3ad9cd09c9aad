#!/usr/bin/env python3
"""freeboundary benchmark: seeded CLI workloads run in-process.

    python3 perfbench/run.py --workload shadow --seed 0 --seconds 30 --trace 0

Run from the repository root.  The workload's ops (``workloads.py``) are
generated from ``--seed``, written as JSON configs, and each is run through
``freeboundary.cli.main`` in this process, in sequence (a closed loop with
one caller).  The module-level memo table ``asymptotics._ADJ_POWERS`` is
cleared before every op, so each op pays what a fresh CLI process pays.

One round runs every op once.  Rounds repeat while another one still
fits into ``--seconds``; at least one runs.  End-to-end metrics
(``--trace 0``):

  setup_s      median of 7 fresh interpreter set-ups (import numpy and the
               package, generate and write the configs), each timed from
               process spawn to exit, at reference speed (below)
  wall_s       wall time of one round's ops at reference speed: the sum
               over ops of each op's median over rounds
  cpu_s        the same for user+sys CPU time
  peak_rss_mb  ru_maxrss of this process at the end

Reference speed.  On a shared host the speed of a vCPU swings by up to 2x
for seconds or whole minutes at a time (other tenants on the same physical
cores), and the CPU time of identical work swings with it, so even the
fastest of 30 seconds of rounds can be 50% slow.  So every timed span is
bracketed by a fixed pure-Python calibration kernel (``calibration_kernel``),
run just before and just after it, and its time is reported as
``span * REFERENCE_KERNEL_S / kernel``, with ``kernel`` the mean of the two
kernel times (wall time for wall spans, CPU time for CPU spans): the span's
time on a host where the kernel takes ``REFERENCE_KERNEL_S``, its fastest
time on the host the baseline was recorded on.  The kernel is code of this
benchmark, not of the package, so a change to the package moves only the
spans.  The uncorrected figures (``raw_*``) and the kernel's times are
printed in the ``env`` line.

With ``--trace 1`` the run makes an untraced round, a traced round and a
second untraced round, and reports the per-layer metrics of ``layers.py``
from the traced round; ``trace.overhead_s`` is the traced round's wall
time minus the median untraced one, both at reference speed.  Spans are written to
``.perfbench_work/spans-<workload>-seed<seed>.npz``.

Every op's outputs are checked outside the timed span (``checks.py``); an
op fails if it raises, exits with 1 or 3, or fails a check.  The last
stdout line is the JSON result; the lines before it print the environment
and every metric with its unit.  Measurement acts only on this process
and its own children: no cache drops, no kernel or cgroup settings.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference"
SETUP_SAMPLES = 7
CALIBRATION_TERMS = 800
# calibration_kernel()'s fastest wall and CPU time on an Intel Xeon vCPU at
# 2.1 GHz (2 vCPUs, Python 3.11.7), the host of perfbench/baseline.json
REFERENCE_KERNEL_S = 1.80e-3

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, Op, generate  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def import_package():
    """Import freeboundary from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import freeboundary
    from freeboundary import asymptotics, cli  # noqa: F401

    if src.resolve() not in Path(freeboundary.__file__).resolve().parents:
        raise ImportError(f"freeboundary imported from {freeboundary.__file__}, not from {src}")
    return freeboundary


def write_configs(ops: List[Op], directory: Path) -> Dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        path = directory / f"{op.name}.json"
        path.write_text(json.dumps({"schema_version": 1, **op.config}, indent=1, sort_keys=True))
        paths[op.name] = path
    return paths


def setup_probe(args, kernel_before: float) -> int:
    """The set-up a user's process pays before its first op.  Prints the
    calibration kernel's wall time at the probe's start and end."""
    import_package()
    import numpy  # noqa: F401

    directory = WORK / f"setup-{os.getpid()}"
    try:
        write_configs(generate(args.workload, args.seed, args.tiny), directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps([kernel_before, calibration_kernel()[0]]))
    return 0


def time_setup(args, samples: int) -> tuple:
    """Spawn-to-exit times of ``samples`` set-up probes: (at reference
    speed, raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times, raw = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        probe = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        raw.append(time.perf_counter() - t0)
        kernel = json.loads(probe.stdout.strip().splitlines()[-1])
        times.append(raw[-1] * REFERENCE_KERNEL_S / statistics.mean(kernel))
    return times, raw


# -- environment -----------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_revision() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    rev = _read(ROOT / ".git" / ref)
    if rev:
        return rev
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy

    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "freeboundary").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "cache_sizes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "isolation": "measures only this process and its own children; no cache drops, no kernel or cgroup settings",
    }


# -- running ops -------------------------------------------------------------------


def calibration_kernel() -> tuple:
    """Time a fixed piece of pure-Python work like the package's own
    (Fraction arithmetic, int-keyed dict stores); return (wall, cpu)
    seconds.  Keys are ints, so the work does not depend on the
    interpreter's string-hash seed."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        table[i * 2654435761 % 1000003] = total.numerator % 1009
    return time.perf_counter() - t0, time.process_time() - c0


class Runner:
    def __init__(self, ops: List[Op], configs: Dict[str, Path], run_dir: Path, reference: dict):
        from freeboundary import asymptotics, cli

        import checks

        self.ops = ops
        self.configs = configs
        self.run_dir = run_dir
        self.reference = reference
        self.cli = cli
        self.asymptotics = asymptotics
        self.checks = checks
        self.first: Dict[str, object] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.op_walls: Dict[str, List[float]] = {op.name: [] for op in ops}
        self.op_cpus: Dict[str, List[float]] = {op.name: [] for op in ops}
        # calibration-kernel (wall, cpu) time next to each op run: the mean
        # of the runs just before and just after it
        self.op_cals: Dict[str, List[tuple]] = {op.name: [] for op in ops}
        self.calibrations: List[tuple] = []

    def run_op(self, op: Op, out: Path):
        self.asymptotics._ADJ_POWERS.clear()
        argv = [op.subcommand, "--config", str(self.configs[op.name]), "--out", str(out)]
        sink = io.StringIO()
        error = ""
        code = None
        before = calibration_kernel()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op that raises is a counted failure
            error = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        after = calibration_kernel()
        self.calibrations += [before, after]
        cal = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
        return code, error, wall, cpu, cal

    def run_round(self, index: int, tracer=None):
        """Run every op once (traced, if a tracer is given), then check the
        outputs with tracing off; return the wall time of the ops alone, at
        reference speed."""
        round_dir = self.run_dir / f"round{index}"
        results = {}
        wall = 0.0
        if tracer is not None:
            tracer.install()
        try:
            for op_id, op in enumerate(self.ops):
                out = round_dir / op.out
                if tracer is not None:
                    tracer.op_id = op_id
                code, error, w, c, cal = self.run_op(op, out)
                self.op_walls[op.name].append(w)
                self.op_cpus[op.name].append(c)
                self.op_cals[op.name].append(cal)
                wall += w * REFERENCE_KERNEL_S / cal[0]
                files, manifest = self.checks.collect(out)
                results[op.name] = self.checks.OpResult(code, files, manifest, self.configs[op.name], error)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.op_id = -1
        for op in self.ops:
            self.attempted += 1
            res = results[op.name]
            errors = self.checks.run_checks(op, res, results)
            if op.name not in self.first:
                self.first[op.name] = res
                if self.reference:
                    errors += self.checks.compare_reference(op, res, self.reference.get(op.name))
            elif (res.code, res.files) != (self.first[op.name].code, self.first[op.name].files):
                errors.append("outputs differ from the first round")
            if errors:
                self.failures.append(f"round {index} {op.name}: " + "; ".join(errors))
        shutil.rmtree(round_dir, ignore_errors=True)
        return wall


def load_reference(workload: str, seed: int, directory: Path):
    path = directory / workload / f"seed{seed}.json"
    return json.loads(path.read_text())["ops"] if path.exists() else None


def record_reference(runner: Runner, workload: str, seed: int, directory: Path) -> None:
    ops = {name: {"code": res.code, "files": res.files} for name, res in runner.first.items()}
    path = directory / workload / f"seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    kernel_start = calibration_kernel()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-tests")
    parser.add_argument("--reference-dir", type=Path, default=None,
                        help=f"reference outputs (default: {REFERENCE.relative_to(ROOT)} for full-size runs, none for --tiny)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write the first round's outputs as the seed's reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reference_dir is None and not args.tiny:
        args.reference_dir = REFERENCE
    if args.record_reference and args.reference_dir is None:
        parser.error("--record-reference with --tiny needs --reference-dir")

    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import freeboundary from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if args.setup_probe:
        return setup_probe(args, kernel_start)

    ops = generate(args.workload, args.seed, args.tiny)
    run_dir = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    configs = write_configs(ops, run_dir / "configs")
    reference = None
    if args.reference_dir is not None and not args.record_reference:
        reference = load_reference(args.workload, args.seed, args.reference_dir)
    runner = Runner(ops, configs, run_dir, reference)
    env = environment(args)
    env["reference_checked"] = reference is not None
    try:
        if args.trace:
            metrics, units, rounds = traced_run(runner, args)
        else:
            setup, setup_raw = time_setup(args, SETUP_SAMPLES)
            metrics, units, rounds, calibration = timed_run(runner, args.seconds)
            metrics = {"setup_s": statistics.median(setup), **metrics}
            env.update(calibration)
            env["setup_samples_s"] = setup
            env["raw_setup_s"] = statistics.median(setup_raw)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.record_reference:
        record_reference(runner, args.workload, args.seed, args.reference_dir)

    failed = len(runner.failures)
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    env["rounds"] = rounds
    env["op_wall_s"] = runner.op_walls
    env["outputs_sha256"] = hashlib.sha256(
        json.dumps({n: [r.code, r.files] for n, r in runner.first.items()}, sort_keys=True).encode()
    ).hexdigest()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of {len(ops)} ops")
    for name in metrics:
        print(f"  {name:<52} {metrics[name]!r:>24} {units[name]}")
    print(f"  {'fail_ratio':<52} {failed / max(runner.attempted, 1):>24} ({failed} of {runner.attempted} ops attempted)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


def timed_run(runner: Runner, seconds: float):
    spans = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runner.run_round(len(spans))
        spans.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(spans) > seconds:
            break
    wall = cpu = 0.0
    for name, walls in runner.op_walls.items():
        cals = runner.op_cals[name]
        wall += statistics.median(w * REFERENCE_KERNEL_S / cal[0] for w, cal in zip(walls, cals))
        cpu += statistics.median(c * REFERENCE_KERNEL_S / cal[1] for c, cal in zip(runner.op_cpus[name], cals))
    metrics = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    calibration = {
        "raw_wall_s": sum(statistics.median(w) for w in runner.op_walls.values()),
        "raw_cpu_s": sum(statistics.median(c) for c in runner.op_cpus.values()),
        "kernel_best_wall_s": min(cal[0] for cal in runner.calibrations),
        "kernel_median_wall_s": statistics.median(cal[0] for cal in runner.calibrations),
        "kernel_best_cpu_s": min(cal[1] for cal in runner.calibrations),
        "kernel_runs": len(runner.calibrations),
    }
    return metrics, dict(END_TO_END), len(spans), calibration


def traced_run(runner: Runner, args):
    from layers import LAYER_METRICS, Tracer

    tracer = Tracer()
    untraced = [runner.run_round(0)]
    traced = runner.run_round(1, tracer)
    untraced.append(runner.run_round(2))
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz", [op.name for op in runner.ops])
    values = tracer.metrics(traced - statistics.median(untraced))
    metrics = {name: values[name] for name, _, _ in LAYER_METRICS}
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return metrics, units, 3


if __name__ == "__main__":
    sys.exit(main())
