import json
from pathlib import Path

import pytest

from freeboundary.cli import _prefix_totals, main
from freeboundary.measures import WalkSpec, mc_cylinder_counts
from freeboundary.words import MetricSpec, enumerate_annulus


def write_config(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "group": {"rank": 2},
    "metric": {"kind": "word"},
    "grid": [1, 2, 3, 4, 5, 6],
}


def test_spec_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", BASE)
    out = tmp_path / "out"
    assert main(["spec", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "markov.csv").exists()
    summary = json.loads((out / "spec_summary.json").read_text())
    assert summary["omega"] == 3.0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert {f["path"] for f in manifest["files"]} == {"markov.csv", "spec_summary.json"}


def test_spec_weighted(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "w.json",
        {**BASE, "metric": {"kind": "weighted", "lengths": {"a": "1", "b": "2"}}},
    )
    out = tmp_path / "outw"
    assert main(["spec", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "0.469396" in captured.out  # e^-alpha, root of 3x^3+x^2+x-1


COVER = {**BASE, "grid": [2, 3, 4]}


def test_cover_cache_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "c.json", COVER)
    out = tmp_path / "out"
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "cover.csv").read_bytes()
    manifest1 = json.loads((out / "run_manifest.json").read_text())
    assert manifest1["cache"]["hits"] == 0 and manifest1["cache"]["misses"] > 0
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    manifest2 = json.loads((out / "run_manifest.json").read_text())
    assert manifest2["cache"] == {"hits": manifest1["cache"]["misses"], "misses": 0}
    assert (out / "cover.csv").read_bytes() == first
    # a recompute without the cache matches the cached scan byte for byte
    assert main(["cover", "--config", str(cfg), "--out", str(tmp_path / "fresh")]) == 0
    assert (tmp_path / "fresh" / "cover.csv").read_bytes() == first


def test_corrupt_cache_recovers(tmp_path):
    cfg = write_config(tmp_path, "c.json", COVER)
    out = tmp_path / "out"
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    good = (out / "cover.csv").read_bytes()
    for entry in (out / "cache").glob("cover-*.json"):
        entry.write_text("{ not json")
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "cover.csv").read_bytes() == good


def test_config_errors(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", {**BASE, "metric": {"kind": "weighted", "lengths": {"a": "1", "b": "2/0"}}})
    assert main(["spec", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "metric.lengths.b" in err
    missing = tmp_path / "nope.json"
    assert main(["spec", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    nonmono = write_config(tmp_path, "g.json", {**BASE, "grid": [4, 4]})
    assert main(["spec", "--config", str(nonmono), "--out", str(tmp_path / "o")]) == 1
    assert "grid" in capsys.readouterr().err


def test_orth_quarter_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "orth.json",
        {
            **BASE,
            "grid": [2, 4, 6],
            "weights": "sphere",
            "tolerance": 0.05,
            "functions": {"f1": {"boundary": {"cells": [["b", "1"]]}}},
            "cases": [{"name": "quarter", "v1": "one", "w1": "one", "v2": "one", "w2": "one"}],
        },
    )
    out = tmp_path / "orth_out"
    assert main(["orth", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "orth.csv").read_text().splitlines()
    assert rows[0].startswith("case,R,value")
    summary = json.loads((out / "orth_summary.json").read_text())
    assert summary["final_rel_errors"]["quarter"] == 0.0
    assert (out / "plot_orth.py").exists()


def test_orth_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        "orth.json",
        {
            **BASE,
            "grid": [2, 4, 6],
            "vectors": {"ca": {"cells": [["a", "1"]]}},
            "cases": [
                {"name": "c00", "v1": "one", "w1": "one", "v2": "one", "w2": "one"},
                {"name": "c11", "v1": "ca", "w1": "one", "v2": "ca", "w2": "one"},
            ],
        },
    )
    outs = []
    codes = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        codes.append(main(["orth", "--config", str(cfg), "--out", str(out)]))
        outs.append((out / "orth.csv").read_bytes())
    # the slow-converging case is over tolerance at R=6 (exit 2); what the
    # determinism contract pins is the bytes
    assert codes[0] == codes[1]
    assert outs[0] == outs[1]


def test_budget_exit_code(tmp_path):
    cfg = write_config(tmp_path, "orth.json", {**BASE, "grid": [6], "weights": "shadow"})
    out = tmp_path / "b"
    code = main(["orth", "--config", str(cfg), "--out", str(out), "--budget", "10"])
    assert code == 3
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["flags"].get("partial") or manifest["flags"].get("budget_exceeded")


def test_equidist_subcommand(tmp_path):
    cfg = write_config(tmp_path, "eq.json", {**BASE, "grid": [4, 6], "depth": 2, "tolerance": 0.02})
    out = tmp_path / "eq"
    assert main(["equidist", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "equidist.csv").read_text().splitlines()
    assert len(rows) == 3
    summary = json.loads((out / "equidist_summary.json").read_text())
    assert summary["final_max_error"] == 0.0


def test_cover_subcommand(tmp_path):
    cfg = write_config(tmp_path, "cv.json", {**BASE, "grid": [4, 5, 6]})
    out = tmp_path / "cv"
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "cover.csv").read_text().splitlines()
    assert all(row.split(",")[1] == "1" for row in rows[1:])


def test_rd_and_gvb_subcommands(tmp_path):
    cfg = write_config(tmp_path, "c.json", {**BASE, "grid": list(range(4, 15))})
    out_rd = tmp_path / "rd"
    assert main(["rd", "--config", str(cfg), "--out", str(out_rd)]) == 0
    out_gvb = tmp_path / "gvb"
    assert main(["gvb", "--config", str(cfg), "--out", str(out_gvb)]) == 0
    summary = json.loads((out_gvb / "gvb_summary.json").read_text())
    assert summary["verdict"] == "GVB fails"


def test_conv_subcommand(tmp_path):
    cfg = write_config(tmp_path, "c.json", {**BASE, "fiber_r_max": 3, "triples": [[2, 2, 2]], "trials": 1})
    out = tmp_path / "conv"
    assert main(["conv", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "conv_summary.json").read_text())
    assert summary["extremal_fibers_all_one"] is True


def test_green_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        "g.json",
        {**BASE, "walk": {"a": "1/4", "b": "1/4"}, "samples": 30000, "seed": 0,
         "ancona_words": 5, "ancona_samples": 20000},
    )
    out = tmp_path / "green"
    code = main(["green", "--config", str(cfg), "--out", str(out)])
    summary = json.loads((out / "green_summary.json").read_text())
    assert summary["first_passage_exact"] is True
    assert abs(summary["green_alpha_minus_one"]) < 1e-12
    assert code in (0, 2)  # CI containment is statistics; exactness is asserted above
    assert (out / "green_cylinders.csv").exists()
    assert (out / "green_ancona.csv").exists()


def test_green_prefix_totals_match_the_scan():
    # the one-pass stem totals equal the per-stem scan over every key
    counts, _, _ = mc_cylinder_counts(WalkSpec.simple(3), 4, 5_000, seed=7)
    totals = _prefix_totals(counts)
    stems = [()] + [g.letters for d in range(1, 5) for g in enumerate_annulus(d, 0, MetricSpec.word(3))]
    assert set(totals) <= set(stems)
    for stem in stems:
        assert totals.get(stem, 0) == sum(c for w, c in counts.items() if w[: len(stem)] == stem)


def test_manifest_digests_match(tmp_path):
    import hashlib

    cfg = write_config(tmp_path, "c.json", BASE)
    out = tmp_path / "m"
    assert main(["spec", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    for entry in manifest["files"]:
        data = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]


def test_unknown_config_keys_and_schema_version_rejected(tmp_path, capsys):
    typo = write_config(tmp_path, "t.json", {**BASE, "tolerence": 0.01})
    assert main(["spec", "--config", str(typo), "--out", str(tmp_path / "t")]) == 1
    assert "config error: tolerence: unknown key" in capsys.readouterr().err
    nested = write_config(
        tmp_path,
        "n.json",
        {**BASE, "vectors": {"ca": {"cells": [["a", "1"]], "constnat": "1"}}},
    )
    assert main(["spec", "--config", str(nested), "--out", str(tmp_path / "t")]) == 1
    assert "vectors.ca.constnat: unknown key" in capsys.readouterr().err
    case = write_config(tmp_path, "c.json", {**BASE, "cases": [{"name": "x", "v3": "one"}]})
    assert main(["orth", "--config", str(case), "--out", str(tmp_path / "t")]) == 1
    assert "cases[0].v3: unknown key" in capsys.readouterr().err
    for key, value in (("lower_band", 0.3), ("ratio_cap", 4.0)):
        retired = write_config(tmp_path, "r.json", {**BASE, key: value})
        assert main(["conv", "--config", str(retired), "--out", str(tmp_path / "t")]) == 1
        assert f"config error: {key}: unknown key" in capsys.readouterr().err
    future = write_config(tmp_path, "v2.json", {**BASE, "schema_version": 2})
    assert main(["spec", "--config", str(future), "--out", str(tmp_path / "t")]) == 1
    assert "schema_version" in capsys.readouterr().err
    current = write_config(tmp_path, "v1.json", {**BASE, "schema_version": 1})
    assert main(["spec", "--config", str(current), "--out", str(tmp_path / "t")]) == 0


def test_cache_entry_from_other_code_is_a_miss(tmp_path, monkeypatch):
    from freeboundary import cli

    cfg = write_config(tmp_path, "c.json", {**BASE, "grid": [2]})
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    stale = (out / "cover.csv").read_bytes()
    monkeypatch.undo()
    assert main(["cover", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 0, "misses": 2}  # rho = 0 fails at R = 2, rho = 1 covers
    assert (out / "cover.csv").read_bytes() == stale
    assert len(list((out / "cache").glob("cover-*.json"))) == 4


@pytest.mark.parametrize(
    "subcommand, patch, path",
    [
        ("spec", {"depth": "x"}, "depth"),
        ("cover", {"rho_max": "x"}, "rho_max"),
        ("spec", {"group": {"rank": "x"}}, "group.rank"),
        ("equidist", {"tolerance": "tight"}, "tolerance"),
        ("conv", {"triples": [[2, 2]]}, "triples[0]"),
        ("conv", {"triples": [[2, 2, 2.5]]}, "triples[0][2]"),
        ("rd", {"grid": ["a", "b"]}, "grid[0]"),
        ("green", {"ancona_words": [20]}, "ancona_words"),
        ("orth", {"functions": {"f1": {"interior": {"a1": "1"}}}}, "functions.f1.interior.a1"),
        # word-sphere radii (rd, gvb, xi, sphere-weight orth) are integers >= 0
        ("rd", {"grid": [1.5, 2.5, 3]}, "grid[0]"),
        ("gvb", {"grid": [1.5, 2.5, 3]}, "grid[0]"),
        ("xi", {"grid": [1.5, 2.5, 3]}, "grid[0]"),
        ("rd", {"grid": [1, 2.5]}, "grid[1]"),
        ("rd", {"grid": [-1, 2]}, "grid[0]"),
        ("gvb", {"grid": [-1, 2]}, "grid[0]"),
        ("xi", {"grid": [-1, 2]}, "grid[0]"),
        ("orth", {"grid": [5.5, 6.5]}, "grid[0]"),
        # range rules: each of these used to run, pass vacuously or crash
        ("equidist", {"depth": -1}, "depth"),
        ("orth", {"weights": "shadow", "grid": [4], "rho": "-3"}, "rho"),
        ("equidist", {"rho": "-1"}, "rho"),
        ("equidist", {"h": "-1"}, "h"),
        ("cover", {"rho_max": -1}, "rho_max"),
        ("spec", {"epsilon": 0}, "epsilon"),
        ("spec", {"epsilon": "-1"}, "epsilon"),
        ("conv", {"fiber_r_max": -2}, "fiber_r_max"),
        ("conv", {"trials": 0}, "trials"),
        ("conv", {"triples": [[-1, 1, 1]]}, "triples[0][0]"),
        ("green", {"samples": 0}, "samples"),
        ("green", {"depth": 7}, "depth"),
        ("green", {"seed": -1}, "seed"),
        # every grid entry is >= 0, whatever the subcommand
        ("cover", {"grid": [-3, -2]}, "grid[0]"),
        ("equidist", {"grid": [-3, -2]}, "grid[0]"),
        ("orth", {"weights": "shadow", "grid": [-1, 2]}, "grid[0]"),
        # budget >= 1, whatever the subcommand consults it for
        ("cover", {"grid": [2, 3], "budget": -5}, "budget"),
        ("rd", {"budget": 0}, "budget"),
        # no more Ancona words than distinct reduced words: 4 of one letter, 16 of one or two at k = 2
        ("green", {"ancona_max_len": 1, "ancona_words": 5}, "ancona_words"),
        ("green", {"ancona_max_len": 2, "ancona_words": 17}, "ancona_words"),
    ],
)
def test_bad_config_values_are_field_anchored(tmp_path, capsys, subcommand, patch, path):
    cfg = write_config(tmp_path, "bad.json", {**BASE, **patch})
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {path}: " in capsys.readouterr().err


def test_negative_seed_flag_is_field_anchored(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", BASE)
    assert main(["green", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
    assert "config error: seed: " in capsys.readouterr().err


def test_ancona_words_up_to_the_reduced_word_count_are_accepted(tmp_path):
    from freeboundary.cli import RunConfig, _check_ancona_words

    _check_ancona_words(RunConfig({**BASE, "ancona_max_len": 2, "ancona_words": 16}, tmp_path / "c.json"))


def test_negative_budget_flag_is_field_anchored(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", BASE)
    assert main(["rd", "--config", str(cfg), "--out", str(tmp_path / "o"), "--budget", "-5"]) == 1
    assert "config error: budget: " in capsys.readouterr().err


def test_orth_sphere_weights_need_word_metric(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "w.json",
        {**BASE, "metric": {"kind": "weighted", "lengths": {"a": "1", "b": "2"}}, "weights": "sphere"},
    )
    assert main(["orth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "config error: weights: sphere weights require the word metric" in capsys.readouterr().err
