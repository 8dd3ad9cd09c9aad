#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize every metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), sequentially, each in a fresh
process, with the ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric it prints and records the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over the median) and the metric's bound; it also prints
``fail_ratio`` with the attempted-op count.  With ``--traced-seed`` it
adds two traced runs per workload, records the first one's per-layer
table and whether the counts of the two agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "bound": bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(spec["command"], workload, s, spec["run_seconds"], 0) for s in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "rounds": [r["env"].get("rounds") for r in runs],
            "op_wall_s": {r["seed"]: r["env"].get("op_wall_s") for r in runs},
            # uncorrected figures and calibration-kernel times, one per run
            "raw": {key: [r["env"].get(key) for r in runs]
                    for key in ("raw_setup_s", "raw_wall_s", "raw_cpu_s", "kernel_best_wall_s", "kernel_median_wall_s")},
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       **summarize([r["metrics"][name]["value"] for r in runs], bounds[name])}
                for name in bounds
            },
        }
        print(f"{workload}: fail_ratio {entry['fail_ratio']} ({failed} of {attempted} ops attempted), "
              f"rounds per run {entry['rounds']}")
        for name, m in entry["metrics"].items():
            flag = "" if m["spread"] is not None and m["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:<12} median {m['median']:.4f} {m['unit']:<3} q1 {m['q1']:.4f} q3 {m['q3']:.4f} "
                  f"spread {m['spread']:.4f} (bound {m['bound']}){flag}")
        if args.traced_seed is not None:
            traced = [run_once(spec["command"], workload, args.traced_seed, spec["run_seconds"], 1) for _ in range(2)]
            counts = [{n: m["value"] for n, m in t["metrics"].items() if m["unit"] == "count"} for t in traced]
            entry["traced"] = {
                "seed": args.traced_seed,
                "failed": traced[0]["failed"],
                "counts_identical_in_two_runs": counts[0] == counts[1],
                "metrics": traced[0]["metrics"],
            }
            print(f"  traced seed {args.traced_seed}: counts identical in two runs: {counts[0] == counts[1]}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        report["env"] = {k: v for k, v in runs[-1]["env"].items() if k not in ("op_wall_s", "setup_samples_s")}
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
