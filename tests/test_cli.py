import csv
import json
from fractions import Fraction
from pathlib import Path

import pytest

from freeboundary.cli import COMMANDS, ConfigError, _prefix_totals, load_config, main
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


def test_spec_green_metric(tmp_path):
    # the Green metric of a walk has critical exponent 1 (float Perron data)
    cfg = write_config(
        tmp_path, "g.json", {"group": {"rank": 2}, "metric": {"kind": "green", "walk": {"a": "1/5", "b": "3/10"}}}
    )
    out = tmp_path / "g"
    assert main(["spec", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "spec_summary.json").read_text())
    assert summary["metric_kind"] == "green"
    assert abs(summary["alpha"] - 1) < 1e-12
    assert summary["perron_exact"] is False


@pytest.mark.parametrize("k", [2, 3])
def test_xi_table_is_haagerups_closed_form(tmp_path, k):
    # Xi(n) = q^(-n/2) (1 + n (q-1)/(q+1)), q = 2k - 1; q^(-n/2) is
    # q^-(n/2) for even n and sqrt(q) q^-((n+1)/2) for odd n
    cfg = write_config(tmp_path, "xi.json", {**BASE, "group": {"rank": k}, "grid": [2, 5, 8]})
    out = tmp_path / "xi"
    assert main(["xi", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "xi.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["n"]) for row in rows] == list(range(9))
    q = 2 * k - 1
    for n, row in enumerate(rows):
        poly = 1 + Fraction(n * (q - 1), q + 1)
        if n % 2:
            want = f"0+{poly / q ** ((n + 1) // 2)}*sqrt({q})"
        else:
            want = str(poly / q ** (n // 2))
        assert row["xi_exact"] == want
        assert abs(float(row["xi"]) - q ** (-n / 2) * float(poly)) < 1e-15


def test_xi_refuses_a_weighted_metric(tmp_path, capsys, monkeypatch):
    import freeboundary.cli as cli

    # refused before the boundary measure is solved, and the manifest records the exit
    monkeypatch.setattr(cli, "ps_measure", lambda ctx: pytest.fail("xi solved the boundary measure"))
    cfg = write_config(tmp_path, "w.json", {**BASE, "metric": {"kind": "weighted", "lengths": {"a": "1", "b": "2"}}})
    assert main(["xi", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "config error: metric.kind: " in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 1 and manifest["files"] == []


@pytest.mark.parametrize("subcommand", ["rd", "gvb"])
def test_sphere_sums_refuse_a_weighted_metric(tmp_path, capsys, subcommand):
    # refused before any work, with the field in the message, as xi does
    cfg = write_config(tmp_path, "w.json", {**BASE, "metric": {"kind": "weighted", "lengths": {"a": "1", "b": "2"}}})
    out = tmp_path / "o"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
    assert "config error: metric.kind: " in capsys.readouterr().err
    assert not (out / f"{subcommand}.csv").exists()


def test_equidist_budget_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "eq.json", {**BASE, "grid": [4, 6]})
    out = tmp_path / "eq"
    assert main(["equidist", "--config", str(cfg), "--out", str(out), "--budget", "10"]) == 3
    assert "budget exceeded: " in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["flags"]["budget_exceeded"] is True
    assert manifest["exit_code"] == 3


def test_equidist_cover_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "eq.json", {**BASE, "grid": [4, 6], "rho": "0"})
    out = tmp_path / "eq"
    assert main(["equidist", "--config", str(cfg), "--out", str(out)]) == 2
    assert "cover failure: " in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 2


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
    # refused at the first radius: nothing is written but the manifest
    cfg = write_config(tmp_path, "orth.json", {**BASE, "grid": [6], "weights": "shadow"})
    out = tmp_path / "b"
    code = main(["orth", "--config", str(cfg), "--out", str(out), "--budget", "10"])
    assert code == 3
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["flags"] == {"budget_exceeded": True}
    assert manifest["files"] == []


_UNCOVERED_AT_4 = {"rho": "1/2"}  # F_2's shadows cover S_1 and S_3, not S_4


@pytest.mark.parametrize(
    "subcommand, extra, key, done, refused, budget",
    [
        ("cover", {}, "grid", [4], [4, 6], "150"),
        ("equidist", {}, "grid", [4], [4, 6], "150"),
        ("orth", {"weights": "shadow"}, "grid", [4], [4, 6], "150"),
        ("conv", {}, "triples", [[2, 2, 2]], [[2, 2, 2], [4, 4, 4]], "1000"),
        ("equidist", _UNCOVERED_AT_4, "grid", [1, 3], [1, 3, 4], None),
        ("orth", {**_UNCOVERED_AT_4, "weights": "shadow"}, "grid", [1, 3], [1, 3, 4], None),
    ],
    ids=["cover", "equidist", "orth", "conv", "equidist-uncovered", "orth-uncovered"],
)
def test_refusal_keeps_the_points_done(tmp_path, capsys, subcommand, extra, key, done, refused, budget):
    # the last point is over the budget, or its shadows do not cover: the
    # run writes what the run of the points before it writes, but fails,
    # and exits 3 on the budget, 2 on the cover
    def run(name: str, points: list):
        cfg = write_config(tmp_path, f"{name}.json", {**BASE, **extra, key: points})
        limit = [] if budget is None else ["--budget", budget]
        code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / name), *limit])
        manifest = json.loads((tmp_path / name / "run_manifest.json").read_text())
        return code, capsys.readouterr(), tmp_path / name, manifest

    done_code, done_io, done_out, done_manifest = run("done", done)
    code, io, out, manifest = run("refused", refused)
    assert done_code in (0, 2) and done_manifest["flags"] == {}
    if budget is None:
        assert code == 2 and manifest["exit_code"] == 2 and manifest["flags"] == {}
        assert "cover failure: " in io.err
    else:
        assert code == 3 and manifest["exit_code"] == 3
        assert manifest["flags"] == {"budget_exceeded": True}
        assert "budget exceeded: " in io.err
    assert io.out == done_io.out  # the printed lines name the last point done
    files = [f["path"] for f in manifest["files"]]
    assert files == [f["path"] for f in done_manifest["files"]]
    for name in files:
        if name.endswith("_summary.json"):
            want = json.loads((done_out / name).read_text())
            want.update({"passed": False, **({"partial": True} if "partial" in want else {})})
            assert json.loads((out / name).read_text()) == want
        else:
            assert (out / name).read_bytes() == (done_out / name).read_bytes(), name


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


def test_green_solves_the_first_passage_once(tmp_path, monkeypatch):
    import freeboundary.cli as cli
    import freeboundary.measures as measures

    calls, solve = [], measures.solve_first_passage

    def counted(walk):
        calls.append(walk)
        return solve(walk)

    monkeypatch.setattr(cli, "solve_first_passage", counted)
    monkeypatch.setattr(measures, "solve_first_passage", counted)
    cfg = write_config(
        tmp_path,
        "g.json",
        {**BASE, "walk": {"a": "1/5", "b": "3/10"}, "samples": 200, "seed": 0, "depth": 1,
         "ancona_words": 1, "ancona_samples": 200},
    )
    assert main(["green", "--config", str(cfg), "--out", str(tmp_path / "green")]) in (0, 2)
    assert len(calls) == 1


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


def test_manifest_records_peak_rss(tmp_path):
    cfg = write_config(tmp_path, "c.json", BASE)
    out = tmp_path / "m"
    assert main(["xi", "--config", str(cfg), "--out", str(out)]) == 0
    rss = json.loads((out / "run_manifest.json").read_text())["peak_rss_mb"]
    assert isinstance(rss, float) and rss > 0


# each sweep's stage and the axis of its points, (R, R', R'') for conv
SWEEPS = {"cover": "R", "equidist": "R", "orth": "R", "rd": "n", "gvb": "n", "conv": "triple"}


def sweep_stages(subcommand: str, cfg) -> set:
    """The stage_timings_s keys of a sweep: one per point, and the total."""
    points = cfg.triples if subcommand == "conv" else cfg.grid
    return {subcommand, *(f"{subcommand}_{SWEEPS[subcommand]}={x}" for x in points)}


@pytest.mark.parametrize("subcommand", list(SWEEPS))
def test_manifest_times_each_sweep_point_in_microseconds(tmp_path, subcommand):
    payload = {**BASE, "grid": [4, 6], "rho": "1", "depth": 2, "triples": [[2, 2, 2], [2, 3, 3]], "trials": 1}
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / subcommand
    # a two-radius gvb grid has a one-radius top half, so no growth fit: inconclusive
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == (2 if subcommand == "gvb" else 0)
    timings = json.loads((out / "run_manifest.json").read_text())["stage_timings_s"]
    stages = sweep_stages(subcommand, load_config(cfg))
    assert set(timings) == stages | ({"fibers"} if subcommand == "conv" else set())
    assert all(t == round(t, 6) for t in timings.values())
    assert sum(timings[s] for s in stages - {subcommand}) <= timings[subcommand] + 2e-6
    # sub-millisecond stages are kept, not rounded to 0.0
    assert all(t > 0 for t in timings.values())


def test_readme_commands_run(tmp_path):
    # every command line of README's runner block, in-process: README and runner cannot drift apart
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    lines = [line.split() for line in readme.splitlines() if line.startswith("python -m freeboundary ")]
    assert sorted(line[3] for line in lines) == sorted(COMMANDS)
    for _, _, _, subcommand, *flags in lines:
        args = dict(zip(flags[::2], flags[1::2]))
        assert set(args) == {"--config", "--out"}, subcommand
        config = root / args["--config"]
        out = tmp_path / Path(args["--out"]).name
        code = main([subcommand, "--config", str(config), "--out", str(out)])
        assert code in (0, 2), subcommand
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["exit_code"] == code, subcommand
        if subcommand in SWEEPS:
            assert sweep_stages(subcommand, load_config(config)) <= set(manifest["stage_timings_s"]), subcommand


def test_back_to_back_runs_parse_their_own_arguments(tmp_path, capsys):
    # the parser is built once per process; each call still sees only its own flags
    orth = write_config(tmp_path, "orth.json", {**BASE, "grid": [6], "weights": "shadow"})
    assert main(["orth", "--config", str(orth), "--out", str(tmp_path / "a"), "--budget", "10"]) == 3
    assert main(["orth", "--config", str(orth), "--out", str(tmp_path / "b")]) in (0, 2)  # default budget again
    cfg = write_config(tmp_path, "c.json", {**BASE, "grid": [1, 2]})
    assert main(["xi", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert main(["spec", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    manifests = [json.loads((tmp_path / d / "run_manifest.json").read_text()) for d in "abcd"]
    assert [m["subcommand"] for m in manifests] == ["orth", "orth", "xi", "spec"]
    assert {f["path"] for f in manifests[3]["files"]} == {"markov.csv", "spec_summary.json"}
    with pytest.raises(SystemExit):
        main(["xi", "--out", str(tmp_path / "e")])  # --config is still required
    assert "--config" in capsys.readouterr().err


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


# every letter has length 2 and h = 0, so only even radii hold words
_EMPTY_ANNULUS = {
    "metric": {"kind": "weighted", "lengths": {"a": "2", "b": "2"}},
    "h": "0",
    "fiber_r_max": 2,
    "trials": 1,
}
_WALK = {"a": "1/4", "b": "1/4"}  # the simple random walk on F_2


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
        # orth reports one row per case name: a duplicate would hide a case
        ("orth", {"grid": [1, 2], "cases": [{"name": "x", "v1": "1"}, {"name": "x"}]}, "cases[1].name"),
        ("orth", {"grid": [1, 2], "cases": [{"name": "case1"}, {}]}, "cases[1].name"),
        ("orth", {"grid": [1, 2], "cases": [{"name": ["x"]}]}, "cases[0].name"),
        # conv refuses a triple whose R or R' annulus holds no word (its norm would be 0)
        ("conv", {**_EMPTY_ANNULUS, "triples": [[1, 2, 2]]}, "triples[0]"),
        ("conv", {**_EMPTY_ANNULUS, "triples": [[2, 2, 2], [2, 3, 2]]}, "triples[1]"),
        # ... and one whose R'' annulus holds no word (every restricted ratio would be 0)
        ("conv", {**_EMPTY_ANNULUS, "triples": [[2, 2, 1]]}, "triples[0]"),
        # letters beyond the rank name no generator
        ("orth", {"grid": [2], "functions": {"f1": {"interior": {"cc": "1"}}}}, "functions.f1.interior.cc"),
        ("orth", {"grid": [2], "vectors": {"v": {"cells": [["c", "1"]]}}}, "vectors.v.cells[0]"),
        # a metric takes only its own kind's table: another kind's would be dropped unread
        ("spec", {"metric": {"kind": "word", "lengths": {"a": "1", "b": "2"}}}, "metric.lengths"),
        ("spec", {"metric": {"kind": "weighted", "lengths": {"a": "1", "b": "2"}, "walk": _WALK}}, "metric.walk"),
        ("spec", {"metric": {"kind": "green", "walk": _WALK, "lengths": {"a": "1", "b": "2"}}}, "metric.lengths"),
        # text that free reduction would shorten names another cylinder or word: C_Aa would be C_e,
        # and interior abBb would be ab, whose value it would overwrite
        ("orth", {"grid": [2], "vectors": {"v": {"cells": [["Aa", "1"]]}}}, "vectors.v.cells[0]"),
        ("orth", {"grid": [2], "functions": {"f1": {"interior": {"ab": "1", "abBb": "2"}}}}, "functions.f1.interior.abBb"),
    ],
)
def test_bad_config_values_are_field_anchored(tmp_path, capsys, subcommand, patch, path):
    cfg = write_config(tmp_path, "bad.json", {**BASE, **patch})
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {path}: " in capsys.readouterr().err


def test_unreadable_config_is_a_config_error(tmp_path, capsys, monkeypatch):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"group": "\xe9"}')
    for path in (tmp_path, undecodable):
        assert main(["spec", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)  # root reads a chmod 000 file, so deny it here
    with pytest.raises(ConfigError, match="Permission denied"):
        load_config(tmp_path / "c.json")


@pytest.mark.parametrize("grid", [[2], [1, 2]])
def test_gvb_on_a_short_grid_is_inconclusive(tmp_path, capsys, grid):
    # the fit window holds one radius, so there is no growth exponent to print
    cfg = write_config(tmp_path, "g.json", {**BASE, "grid": grid})
    out = tmp_path / "o"
    assert main(["gvb", "--config", str(cfg), "--out", str(out)]) == 2
    assert "q_n growth exponent n/a (r2 n/a)" in capsys.readouterr().out
    assert json.loads((out / "gvb_summary.json").read_text())["verdict"] == "inconclusive"
    assert json.loads((out / "run_manifest.json").read_text())["exit_code"] == 2


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


def test_equidist_on_a_one_radius_grid_prints_no_fit(tmp_path, capsys):
    # one radius leaves no decay fit: n/a as gvb prints it, null in the summary
    cfg = write_config(tmp_path, "e.json", {**BASE, "grid": [4]})
    out = tmp_path / "o"
    assert main(["equidist", "--config", str(cfg), "--out", str(out)]) == 2  # error 1/6 at R = 4
    assert "probe-depth errors fit: exponent n/a (reference 0.5), r2 n/a" in capsys.readouterr().out
    summary = json.loads((out / "equidist_summary.json").read_text())
    assert summary["probe_fit_exponent"] is None and summary["probe_fit_r2"] is None
