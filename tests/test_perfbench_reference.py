"""The package still reproduces the benchmark's reference outputs.

One round of every ``perfbench`` workload runs in this process through
``perfbench/run.py``'s ``Runner``, which checks each op's exit code and
files against ``perfbench/reference/<workload>/seed<seed>.json`` and the
seed-independent checks of ``perfbench/checks.py``.  A change to the
package that moves an output fails here, not first in a benchmark run.
"""

import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 99])
@pytest.mark.parametrize("workload", ["shadow", "coeff", "walk", "census"])
def test_workload_round_matches_reference(tmp_path, workload, seed):
    run = _load_run()
    ops = run.generate(workload, seed)
    reference = run.load_reference(workload, seed, run.REFERENCE)
    assert reference is not None
    runner = run.Runner(ops, run.write_configs(ops, tmp_path / "configs"), tmp_path, reference)
    runner.run_round(0)
    assert runner.attempted == len(ops)
    assert runner.failures == []
