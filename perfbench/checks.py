"""Per-op correctness gate.

``summarize`` reads what one op left behind (exit code, the JSON error on
stderr, its output files) into a small dict; ``compare`` checks that dict
against the one recorded at the seed commit in ``reference.json``.  A
wrong answer makes the op count as failed, never as fast.

Rules, by kind of field:

* exit code, error type, verdicts and labels, grids, path counts: equal;
* analytic values (certificate ratios and margin, predictions, bounds,
  tail oracles): relative difference at most ``REL_TOL``;
* Monte Carlo estimates carrying a bootstrap ``stderr``: difference at most
  ``MC_K`` times the combined stderr of both runs, plus ``MC_ABS``, so an
  engine that draws the same law differently (or another seed) passes;
* the `compare` fitted exponent, whose fit stderr can be 0: difference at
  most the comparison's own tolerance ``tol`` (2 eps + 2 stderr).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-6
MC_K = 5.0
MC_ABS = 1e-3


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def _columns(rows: list[dict], *names: str) -> dict:
    return {n: [_num(r[n]) for r in rows] for n in names}


def _mean_se(values: list[float]) -> list[float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return [mean, math.sqrt(var / n)]


def _paths_summary(rows: list[dict], value: str) -> dict:
    """Path count plus per-path row count and mean value, averaged over
    paths with their standard errors."""
    per_path: dict[str, list[float]] = {}
    for r in rows:
        per_path.setdefault(r["path_id"], []).append(float(r[value]))
    counts = [float(len(v)) for v in per_path.values()]
    means = [sum(v) / len(v) for v in per_path.values()]
    return {"paths": len(per_path), "rows_per_path": _mean_se(counts),
            "mean_value": _mean_se(means)}


def summarize(command: str, out: Path, rc: int, stderr: str) -> dict:
    """Observable results of one op, in the form ``compare`` expects."""
    summary: dict = {"rc": rc, "error": None}
    if rc != 0:
        lines = [ln for ln in stderr.splitlines() if ln.startswith("{")]
        summary["error"] = json.loads(lines[-1])["type"] if lines else "?"
    if command == "certify" and (out / "certificate.json").is_file():
        cert = json.loads((out / "certificate.json").read_text())
        summary.update(valid=cert["valid"], uniform=cert["uniform"]["uniform"],
                       drift_margin=cert["drift_margin"], ratios=cert["ratios"])
    elif command == "predict":
        rows = _read_csv(out / "predictions.csv")
        summary.update(kind=[r["kind"] for r in rows],
                       **_columns(rows, "u_or_t", "value"))
    elif command == "report":
        row = _read_csv(out / "row.csv")[0]
        summary["labels"] = [row["regime"], row["rate"], row["tail"]]
    elif command == "classify":
        rep = json.loads((out / "classify.json").read_text())
        summary.update(verdict=rep["verdict"], method=rep["method"],
                       uniform=rep["uniform"])
    elif command == "compare":
        rep = json.loads((out / "compare.json").read_text())
        summary.update({k: rep[k] for k in ("verdict", "fitted", "tol",
                                            "predicted_upper",
                                            "predicted_lower")})
    elif command == "tail":
        rows = _read_csv(out / "tail.csv")
        summary.update(_columns(rows, "u", "estimate", "stderr", "reference"))
    elif command in ("converge-wp", "converge-tv") and rc == 0:
        name = "wp.csv" if command == "converge-wp" else "tv.csv"
        rows = _read_csv(out / name)
        summary.update(_columns(rows, "t", "estimate", "stderr"))
    elif command == "simulate":
        if (out / "events.csv").is_file():
            summary.update(_paths_summary(_read_csv(out / "events.csv"),
                                          "x_after"))
        else:
            summary.update(_paths_summary(_read_csv(out / "paths.csv"), "x"))
    return summary


# ---------------------------------------------------------------------------
# comparing with the seed commit
# ---------------------------------------------------------------------------

_EXACT = ("rc", "error", "valid", "uniform", "kind", "labels", "verdict",
          "method", "u", "t", "u_or_t", "paths")
_ANALYTIC = ("drift_margin", "ratios", "value", "reference",
             "predicted_upper", "predicted_lower")
_MEAN_SE = ("rows_per_path", "mean_value")


def _as_list(v):
    return v if isinstance(v, list) else [v]


def _rel_ok(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def _mc_ok(a, sa, b, sb) -> bool:
    return abs(a - b) <= MC_K * math.hypot(sa, sb) + MC_ABS


def compare(got: dict, ref: dict) -> list[str]:
    """Disagreements between an op's summary and its reference; empty when
    the op's answer is correct."""
    problems = []
    missing = sorted(set(ref) - set(got))
    if missing:
        return [f"missing outputs {missing}"]
    for key in _EXACT:
        if key in ref and got[key] != ref[key]:
            problems.append(f"{key}: {got[key]!r} != {ref[key]!r}")
    for key in _ANALYTIC:
        if key not in ref:
            continue
        a, b = _as_list(got[key]), _as_list(ref[key])
        if len(a) != len(b) or not all(map(_rel_ok, a, b)):
            problems.append(f"{key}: {got[key]!r} vs {ref[key]!r} "
                            f"beyond rel {REL_TOL:g}")
    if "estimate" in ref:
        rows = zip(got["estimate"], got["stderr"], ref["estimate"], ref["stderr"])
        for j, (a, sa, b, sb) in enumerate(rows):
            if not _mc_ok(a, sa, b, sb):
                problems.append(f"estimate[{j}]: {a:.6g} +- {sa:.2g} vs "
                                f"{b:.6g} +- {sb:.2g}")
    for key in _MEAN_SE:
        if key in ref and not _mc_ok(*got[key], *ref[key]):
            problems.append(f"{key}: {got[key]} vs {ref[key]}")
    if "fitted" in ref and abs(got["fitted"] - ref["fitted"]) > ref["tol"]:
        problems.append(f"fitted exponent {got['fitted']:.4f} vs "
                        f"{ref['fitted']:.4f} beyond tol {ref['tol']:g}")
    return problems
