"""Output checks for benchmark ops.

Three kinds, all run outside the timed span:

* seed-independent exact checks named in ``Op.checks`` (they recompute
  what they verify and do not trust any recorded output);
* comparison with recorded reference outputs, when the seed has them:
  exact ops byte for byte, float-backend ops within ``FLOAT_TOL``;
* (in ``run.py``) identity of every later round with the first.

Each check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

ALLOWED_CODES = (0, 2)  # 2 is a verdict ("FAILED"), not a failure of the run
FLOAT_TOL = 1e-12
BRUTE_FORCE_MAX_SPHERE = 1000


class OpResult:
    """What one op left behind: exit code, the CSV and summary JSON files
    (the outputs that are compared) and the parsed run manifest."""

    def __init__(self, code, files: Dict[str, str], manifest: dict, config_path: Path, error: str = ""):
        self.code = code
        self.files = files
        self.manifest = manifest
        self.config_path = config_path
        self.error = error


def collect(out: Path) -> tuple:
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        if path.suffix == ".csv" or path.name.endswith("_summary.json"):
            files[path.name] = path.read_text()
    manifest_path = out / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    return files, manifest


def _rows(text: str) -> List[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _summary(res: OpResult) -> dict:
    name = next(n for n in res.files if n.endswith("_summary.json"))
    return json.loads(res.files[name])


# -- seed-independent checks ------------------------------------------------


def check_cover_scan(op, res, results) -> List[str]:
    errors = []
    for row in _rows(res.files["cover.csv"]):
        if row["covered_within_scan"] != "True":
            errors.append(f"R={row['R']}: no covering rho within the scan")
        elif int(row["minimal_rho"]) < 1:
            errors.append(f"R={row['R']}: rho=0 reported as covering")
    return errors


def check_cache_cold(op, res, results) -> List[str]:
    cache = res.manifest.get("cache", {})
    if cache.get("hits") != 0 or not cache.get("misses"):
        return [f"cold cache expected only misses, got {cache}"]
    return []


def check_cache_warm(op, res, results) -> List[str]:
    cache = res.manifest.get("cache", {})
    errors = []
    if cache.get("misses") != 0 or not cache.get("hits"):
        errors.append(f"warm cache expected only hits, got {cache}")
    cold = results.get(op.name.replace("_warm", "_cold"))
    if cold is None or cold.files != res.files:
        errors.append("warm-cache outputs differ from the cold run")
    return errors


def check_zero_rect_error(op, res, results) -> List[str]:
    """Word metric: at depths up to the shadow-stem depth ceil(R/2 - rho)
    the greedy partition reproduces every rectangle mass exactly."""
    depth = int(op.config["depth"])
    rho = Fraction(op.config["rho"])
    errors = []
    for row in _rows(res.files["equidist.csv"]):
        R = int(row["R"])
        if depth <= math.ceil(Fraction(R, 2) - rho) and row["max_error_exact"] != "0":
            errors.append(f"R={R}: depth-{depth} rectangle error {row['max_error_exact']} != 0")
    return errors


def check_phi_symmetric(op, res, results) -> List[str]:
    values = {(row["case"], row["R"]): row["value_exact"] for row in _rows(res.files["orth.csv"])}
    errors = []
    for (case, R), value in values.items():
        mirror = values.get((f"s{case[2]}{case[1]}", R))
        if mirror != value:
            errors.append(f"R={R}: Phi[{case[1]}][{case[2]}] = {value} but the mirror is {mirror}")
    return errors


_BRUTE: Dict[tuple, str] = {}


def _brute_sum_sq(config_path: Path, n: int) -> str:
    """sum over the whole sphere S_n of <pi(g)v, w>^2, one matrix
    coefficient per element (no class aggregation)."""
    key = (config_path.read_text(), n)
    if key not in _BRUTE:
        from freeboundary import cli
        from freeboundary.measures import ps_measure
        from freeboundary.representation import matrix_coefficient
        from freeboundary.scalars import QSqrt, exact_str
        from freeboundary.words import enumerate_annulus

        cfg = cli.load_config(config_path)
        v, w = cfg.vector(cfg.raw["v"]), cfg.vector(cfg.raw["w"])
        ctx = cfg.context()
        mu = ps_measure(ctx)
        omega = int(mu.omega)
        total = QSqrt(0, 0, omega)
        for g in enumerate_annulus(n, 0, ctx.metric):
            coef = matrix_coefficient(g, v, w, mu)
            if not isinstance(coef, QSqrt):
                coef = QSqrt(coef, 0, omega)
            total = total + coef * coef
        _BRUTE[key] = exact_str(total)
    return _BRUTE[key]


def check_brute_sum_sq(op, res, results) -> List[str]:
    k = int(op.config["group"]["rank"])
    errors = []
    for row in _rows(res.files["rd.csv"]):
        n = int(row["n"])
        size = 1 if n == 0 else 2 * k * (2 * k - 1) ** (n - 1)
        if size > BRUTE_FORCE_MAX_SPHERE:
            continue
        expected = _brute_sum_sq(res.config_path, n)
        if row["sum_sq_exact"] != expected:
            errors.append(f"n={n}: sum_sq_exact {row['sum_sq_exact']} != brute force {expected}")
    return errors


def check_gvb_matches_rd(op, res, results) -> List[str]:
    gvb = results.get(op.meta["gvb_op"])
    if gvb is None or "gvb.csv" not in gvb.files:
        return ["no gvb output to compare with"]
    q = {row["n"]: row["q_exact"] for row in _rows(gvb.files["gvb.csv"])}
    s = {row["n"]: row["sum_sq_exact"] for row in _rows(res.files["rd.csv"])}
    return [] if q == s else ["gvb q_exact differs from rd sum_sq_exact"]


def check_xi_closed_form(op, res, results) -> List[str]:
    """Xi(n) = (1 + n(q-1)/(q+1)) q^(-n/2) with q = 2k - 1."""
    from freeboundary.scalars import QSqrt

    q = 2 * int(op.config["group"]["rank"]) - 1
    errors = []
    for row in _rows(res.files["xi.csv"]):
        n = int(row["n"])
        expected = str((1 + Fraction(n * (q - 1), q + 1)) * QSqrt.root_power(-n, q))
        if row["xi_exact"] != expected:
            errors.append(f"n={n}: xi {row['xi_exact']} != closed form {expected}")
    return errors


def check_fiber_ok(op, res, results) -> List[str]:
    summary = _summary(res)
    if summary["extremal_fibers_all_one"] is not True or summary["fiber_bound_ok"] is not True:
        return ["fiber census: extremal_ok or bound_ok is false"]
    return []


def check_mc_decided(op, res, results) -> List[str]:
    undecided = _summary(res)["mc_undecided"]
    return [] if undecided == 0 else [f"mc_undecided = {undecided}"]


def check_perron_residual(op, res, results) -> List[str]:
    summary = _summary(res)
    worst = max(abs(summary["eigenvalue_residual"]), abs(summary["row_sum_residual"]))
    return [] if worst <= FLOAT_TOL else [f"Perron residual {worst} above {FLOAT_TOL}"]


CHECKS: Dict[str, Callable] = {
    "cover_scan": check_cover_scan,
    "cache_cold": check_cache_cold,
    "cache_warm": check_cache_warm,
    "zero_rect_error": check_zero_rect_error,
    "phi_symmetric": check_phi_symmetric,
    "brute_sum_sq": check_brute_sum_sq,
    "gvb_matches_rd": check_gvb_matches_rd,
    "xi_closed_form": check_xi_closed_form,
    "fiber_ok": check_fiber_ok,
    "mc_decided": check_mc_decided,
    "perron_residual": check_perron_residual,
}


def run_checks(op, res: OpResult, results: Dict[str, OpResult]) -> List[str]:
    if res.error:
        return [res.error]
    if res.code not in ALLOWED_CODES:
        return [f"exit code {res.code}"]
    errors = []
    for name in op.checks:
        try:
            errors += CHECKS[name](op, res, results)
        except (KeyError, ValueError, IndexError, StopIteration) as exc:
            errors.append(f"check {name} could not read the outputs: {exc!r}")
    return errors


# -- reference outputs ------------------------------------------------------


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= FLOAT_TOL * max(1.0, abs(x), abs(y))


def _json_close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_json_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and _close(repr(a), repr(b))
    return a == b


def _file_close(name: str, got: str, want: str) -> bool:
    if name.endswith(".json"):
        return _json_close(json.loads(got), json.loads(want))
    rows_got = list(csv.reader(io.StringIO(got)))
    rows_want = list(csv.reader(io.StringIO(want)))
    return len(rows_got) == len(rows_want) and all(
        len(r) == len(s) and all(_close(x, y) for x, y in zip(r, s)) for r, s in zip(rows_got, rows_want)
    )


def compare_reference(op, res: OpResult, ref: dict) -> List[str]:
    if ref is None:
        return [f"no reference entry for op {op.name}"]
    errors = []
    if res.code != ref["code"]:
        errors.append(f"exit code {res.code} != reference {ref['code']}")
    if set(res.files) != set(ref["files"]):
        errors.append(f"files {sorted(res.files)} != reference {sorted(ref['files'])}")
    for name in sorted(set(res.files) & set(ref["files"])):
        got, want = res.files[name], ref["files"][name]
        if got == want:
            continue
        if op.exact or not _file_close(name, got, want):
            errors.append(f"{name} differs from the reference")
    return errors
