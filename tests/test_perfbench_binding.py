"""The benchmark harness still binds to the package.

``perfbench/layers.py`` reads the package's functions and methods by
name; a refactor that drops one of them should fail here, not first in a
benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from freeboundary import asymptotics, cli

ROOT = Path(__file__).resolve().parents[1]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_binds_to_the_package(tmp_path):
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        config = tmp_path / "eq.json"
        config.write_text(json.dumps({"group": {"rank": 2}, "metric": {"kind": "word"}, "grid": [4, 6]}))
        assert cli.main(["equidist", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        metrics = tracer.metrics(0.0)
    finally:
        tracer.uninstall()
    assert metrics["asymptotics.build_partition_weights.support"] > 0
    assert metrics["measures.ps_measure.calls"] > 0
    # the run loop clears this memo table between runs and the probes call this
    assert callable(asymptotics._ADJ_POWERS.clear)
    assert callable(asymptotics._resolution_depth)
