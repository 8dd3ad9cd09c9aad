"""The benchmark harness still binds to the package.

``perfbench/layers.py`` reads the package's functions and methods by
name; a refactor that drops one of them should fail here, not first in a
benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from freeboundary import MetricSpec, asymptotics, cli, enumerate_annulus

ROOT = Path(__file__).resolve().parents[1]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_metrics(tmp_path, subcommand, config):
    """Per-layer metrics of one CLI run under the perfbench tracer."""
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        path = tmp_path / f"{subcommand}.json"
        path.write_text(json.dumps(config))
        assert cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        return tracer.metrics(0.0)
    finally:
        tracer.uninstall()


def test_layer_tracer_binds_to_the_package(tmp_path):
    metrics = _traced_metrics(tmp_path, "equidist", {"group": {"rank": 2}, "metric": {"kind": "word"}, "grid": [4, 6]})
    assert metrics["asymptotics.build_partition_weights.support"] > 0
    # equidist reads the measure from its context; xi still fetches it through cli's import
    metrics = _traced_metrics(tmp_path, "xi", {"group": {"rank": 2}, "metric": {"kind": "word"}, "grid": [2]})
    assert metrics["measures.ps_measure.calls"] > 0
    # the run loop clears this table (kept, always empty) by name and the probes call this
    assert callable(asymptotics._ADJ_POWERS.clear)
    assert callable(asymptotics._resolution_depth)


def test_layer_tracer_binds_to_the_convolution(tmp_path):
    # the convolve probe reads phi and psi by name and position; word spheres
    # sum their norms without convolve, so the run is on weighted annuli
    metric = {"kind": "weighted", "lengths": {"a": "1", "b": "2"}}
    config = {"group": {"rank": 2}, "metric": metric, "h": "1", "fiber_r_max": 2, "triples": [[1, 2, 2]], "trials": 1}
    metrics = _traced_metrics(tmp_path, "conv", config)
    sizes = [len(list(enumerate_annulus(r, 1, MetricSpec.weighted(2, [1, 2])))) for r in (1, 2)]
    assert metrics["asymptotics.convolve.products"] == sizes[0] * sizes[1]
    assert metrics["words.multiply_letters.calls"] == sizes[0] * sizes[1]  # one product per pair
