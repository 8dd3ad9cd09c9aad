#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints exactly the metric names and
   units that BENCHMARK.json declares, and passes its own checks.
2. A tampered reference output is counted as a failed op.
3. Two traced runs with the same seed give identical counts and outputs.
4. Without the package sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int = 0, trace: int = 0, *extra: str, cwd: Path = ROOT):
    argv = ["python3", str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> tuple:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr[-1500:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def test_declared_metrics():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = result_of(bench(workload, trace=trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (workload, trace, set(got) ^ set(declared))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_reference():
    ref = WORK / "reference"
    shutil.rmtree(ref, ignore_errors=True)
    result_of(bench("shadow", 0, 0, "--record-reference", "--reference-dir", str(ref)))
    clean, env = result_of(bench("shadow", 0, 0, "--reference-dir", str(ref)))
    assert env["reference_checked"] and clean["failed"] == 0, clean
    path = ref / "shadow" / "seed0.json"
    data = json.loads(path.read_text())
    files = data["ops"]["equidist_w2"]["files"]
    files["equidist.csv"] = files["equidist.csv"].replace("\n4,", "\n5,", 1)
    path.write_text(json.dumps(data))
    tampered, _ = result_of(bench("shadow", 0, 0, "--reference-dir", str(ref)))
    assert tampered["failed"] >= 1 and not tampered["correct"], tampered


def test_same_seed_same_counts():
    counted = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count" and m["name"] != "trace.spans"}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [result_of(bench(workload, 3, 1)) for _ in range(2)]
        counts = [{n: r["metrics"][n]["value"] for n in counted} for r, _ in runs]
        assert counts[0] == counts[1], workload
        assert runs[0][1]["outputs_sha256"] == runs[1][1]["outputs_sha256"], workload


def test_bare_directory_fails():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("shadow", cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    failed = 0
    for test in (test_declared_metrics, test_tampered_reference, test_same_seed_same_counts, test_bare_directory_fails):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
