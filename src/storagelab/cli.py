"""Command-line front end: scenario loading, dispatch, report emission.

Commands consume a scenario (JSON file or ``preset:NAME``), write their
artifacts under ``--out`` (default ``./out/<scenario>/<command>/``,
overridable by the STORAGELAB_OUT environment variable), and exit 0 on
success, 2 when a hypothesis or criterion check fails, 1 on usage errors.
Every error is also emitted as a structured JSON object on stderr.
certify and predict need the scenario's drift certificate; tail,
converge-tv, compare and report use it only where it can be built.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import classify
from .errors import (
    C3Violation,
    Divergent,
    HypothesisFailed,
    InvalidModulus,
    InvalidRateFunction,
    MomentConditionFailed,
    NoiseFloorReached,
    NonFiniteEvaluation,
    NotBracketed,
    NotStationaryRegime,
)
from .ergodicity_lab import (
    _MIN_TAIL_SAMPLES,
    compare_rates,
    estimate_tail,
    estimate_tv_decay,
    estimate_wp_decay,
)
from .levy_input import laplace_check
from .lyapunov import GapBound, TailEnvelope, build_certificate, tv_lower_rate
from .presets import load_preset, preset_names
from .release_rate import check_regularity
from .scenario import Scenario, ScenarioError
from .simulator import event_ensemble, grid_ensemble

CSV_SCHEMA = 1
# most retained jumps a run may expect to draw (see _check_work)
_MAX_JUMPS = 10**7
_CRITERION_ERRORS = (HypothesisFailed, C3Violation, NotStationaryRegime,
                     MomentConditionFailed, Divergent, NoiseFloorReached,
                     InvalidRateFunction, InvalidModulus)
# the scenario's numbers leave what floats represent: a rate that overflows
# (NaN integrands, overflowing flows), a flow too stiff to step, a bound
# beyond the inversion's e^600 bracket.  A usage error, as no run of the
# scenario can succeed.
_RANGE_ERRORS = (NonFiniteEvaluation, NotBracketed, OverflowError,
                 FloatingPointError)


# ---------------------------------------------------------------------------
# i/o helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.9e}"
    return str(value)


# the %-conversion that writes a value of each type as _fmt does (NaN aside)
_CSV_CONVERSIONS = {int: "%d", float: "%.9e", str: "%s"}


def _csv_lines(rows):
    """One line per row, formatted as _fmt formats each value.  A row is
    filled into one %-template built from its value types; a row with any
    other type, or whose line shows a NaN (an empty field), goes through
    _fmt."""
    templates = {}
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = (
                ",".join(map(_CSV_CONVERSIONS.__getitem__, kinds)) + "\n"
                if all(kind in _CSV_CONVERSIONS for kind in kinds) else "")
        line = template and template % tuple(row)
        yield (line if line and "nan" not in line
               else ",".join(map(_fmt, row)) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    """The schema line, the header, then one line per row, written as the
    rows come, so memory does not grow with the file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# csv_schema={CSV_SCHEMA}\n{','.join(header)}\n")
        f.writelines(_csv_lines(rows))


def _rows(cols):
    """The rows of equal-length column arrays as Python values, converted
    2^16 rows at a time, so no list as long as the columns is built."""
    block = 1 << 16
    for lo in range(0, len(cols[0]), block):
        yield from zip(*(col[lo:lo + block].tolist() for col in cols))


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n", encoding="utf-8")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return str(obj)


def _write_curve(path: Path, x_name: str, xs, estimates, stderr,
                 reference=None) -> None:
    """(x, estimate, stderr, reference) rows; with no reference its column
    stays empty."""
    if reference is None:
        reference = [math.nan] * len(xs)
    write_csv(path, [x_name, "estimate", "stderr", "reference"],
              [tuple(map(float, row))
               for row in zip(xs, estimates, stderr, reference)])


def _resolve_scenario(spec: str, overrides: list[str]) -> Scenario:
    if spec.startswith("preset:"):
        scen = load_preset(spec.split(":", 1)[1])
    else:
        scen = Scenario.from_json(Path(spec).read_text(encoding="utf-8"))
    if overrides:
        raw = json.loads(json.dumps(scen.raw))
        for item in overrides:
            if "=" not in item:
                raise ScenarioError(f"override {item!r} is not KEY=VALUE")
            key, val = item.split("=", 1)
            _apply_override(raw, key.split("."), val)
        scen = Scenario.from_dict(raw)
    return scen


def _apply_override(raw: dict, path: list[str], val: str) -> None:
    node = raw
    for part in path[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ScenarioError(f"override path {'.'.join(path)} is not an object")
    try:
        parsed = json.loads(val)
    except json.JSONDecodeError:
        parsed = val
    node[path[-1]] = parsed


def _out_dir(args, scen: Scenario, command: str) -> Path:
    base = os.environ.get("STORAGELAB_OUT") or args.out
    if base:
        return Path(base)
    return Path("out") / scen.name / command


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(scen: Scenario, out: Path, args) -> int:
    margin = scen.tolerances["decision_margin"]
    rep = classify(scen.levy, scen.release, tuple(scen.grids["probe_u"]), margin)
    reg = check_regularity(scen.release, scen.levy.activity)
    payload = {
        "scenario": scen.name,
        "verdict": rep.verdict,
        "via": rep.via,
        "method": rep.method,
        "uniform": rep.uniform,
        "decision_margin": rep.decision_margin,
        "regularity": dataclasses.asdict(reg),
        "evidence": rep.evidence,
    }
    write_json(out / "classify.json", payload)
    print(f"{scen.name}: {rep.verdict} (method={rep.method}, uniform={rep.uniform})")
    return 0


def _envelope_section(scen: Scenario, cert) -> dict:
    """Tail envelopes of a valid certificate, evaluated on the scenario's
    level grid; envelopes whose hypotheses fail are reported by the failing
    condition, not an error."""
    from .lyapunov import tail_lower, tail_lower_log, tail_upper

    us = [float(u) for u in scen.grids["u_grid"]]
    eps = scen.tolerances["epsilon"]
    probe_u = tuple(scen.grids["probe_u"])
    section = {}
    candidates = {
        "upper_from_rate": lambda: TailEnvelope(
            "UpperFromRate", cert.predicted_tail_upper, 1.0),
        "upper_subgeometric": lambda: tail_upper(
            scen.levy, scen.release, eps, probe_u,
            scen.tolerances["decision_margin"]),
        "lower_poly_quotient": lambda: tail_lower(
            scen.levy, scen.release, eps, probe_u),
        "lower_log_scale": lambda: tail_lower_log(
            scen.levy, scen.release, eps, probe_u),
    }
    for key, build in candidates.items():
        try:
            env = build()
        except _CRITERION_ERRORS as exc:
            section[key] = {"available": False, "reason": str(exc)}
            continue
        section[key] = {
            "available": True,
            "kind": env.kind,
            "u_report": env.u_report,
            "up_to_constant": env.up_to_constant,
            "values": {str(u): float(v) for u, v in zip(us, env(np.asarray(us)))},
        }
    return section


def cmd_certify(scen: Scenario, out: Path, args) -> int:
    if scen.phi is None:
        raise ScenarioError("certify needs a 'phi' block in the scenario")
    cert = build_certificate(scen.levy, scen.release, scen.phi,
                             tuple(scen.grids["probe_u"]))
    rep = classify(scen.levy, scen.release, tuple(scen.grids["probe_u"]),
                   scen.tolerances["decision_margin"])
    payload = {
        "scenario": scen.name,
        "phi": {"family": scen.phi.family, "c": scen.phi.c, "a": scen.phi.a},
        "ratios": list(cert.ratios),
        "drift_margin": cert.drift_margin,
        "valid": cert.valid,
        "uniform": {"verdict": rep.verdict, "method": rep.method,
                    "uniform": rep.uniform},
        "tail_envelopes": _envelope_section(scen, cert) if cert.valid else {},
    }
    write_json(out / "certificate.json", payload)
    print(f"{scen.name}: drift margin {cert.drift_margin:.6f} "
          f"(valid={cert.valid}, uniform={rep.uniform})")
    return 0 if cert.valid else 2


def cmd_predict(scen: Scenario, out: Path, args) -> int:
    if scen.phi is None:
        raise ScenarioError("predict needs a 'phi' block in the scenario")
    cert = build_certificate(scen.levy, scen.release, scen.phi,
                             tuple(scen.grids["probe_u"]))
    if not cert.valid:
        raise HypothesisFailed("certificate", "certificate is not valid")
    rows = []
    for t in scen.grids["t_grid"]:
        rows.append((float(t), 1.0 / cert.predicted_tv_rate(float(t)), "tv_bound_shape"))
    for u in scen.grids["u_grid"]:
        rows.append((float(u), cert.predicted_tail_upper(float(u)), "tail_upper"))
    write_csv(out / "predictions.csv", ["u_or_t", "value", "kind"], rows)
    print(f"{scen.name}: wrote {len(rows)} prediction rows")
    return 0


def _check_work(scen: Scenario, horizon: float, n_paths: int) -> None:
    """Refuse a run expected to draw more than _MAX_JUMPS retained jumps
    (proposal rate x horizon x paths), before it draws any."""
    jumps = scen.levy.proposal_rate(scen.truncation_eps) * horizon * n_paths
    if not jumps <= _MAX_JUMPS:
        raise ScenarioError(f"the run expects {jumps:.3g} jumps, more than "
                            f"the {_MAX_JUMPS:.0e} a run may draw")


def cmd_simulate(scen: Scenario, out: Path, args) -> int:
    n = scen.budgets["n_paths"]
    n = n if args.paths is None else min(n, args.paths)
    if n < 1:
        raise ScenarioError("simulate needs at least one path")
    horizon = scen.budgets["horizon"]
    grid = [float(t) for t in scen.grids["t_grid"] if t <= horizon]
    if args.mode == "grid" and not grid:
        raise ScenarioError("simulate --mode grid needs a t_grid time "
                            "within the horizon")
    _check_work(scen, horizon, n)
    draw = (scen.levy, scen.release, args.x0)
    if args.mode == "events":
        lane, t, size, x = event_ensemble(*draw, horizon, n, scen.seed,
                                          scen.truncation_eps)
        # each path's rows open with its start at t = 0
        first = np.searchsorted(lane, np.arange(n))
        cols = [np.insert(col, first, start) for col, start in
                ((lane, np.arange(n)), (t, 0.0), (size, 0.0), (x, args.x0))]
        write_csv(out / "events.csv", ["path_id", "t", "jump_size", "x_after"],
                  _rows(cols))
    else:
        paths = grid_ensemble(*draw, grid, n, scen.seed, scen.truncation_eps)
        cols = [np.repeat(np.arange(n), len(grid)), np.tile(grid, n),
                paths.ravel()]
        write_csv(out / "paths.csv", ["path_id", "t", "x"], _rows(cols))
    print(f"{scen.name}: simulated {n} paths")
    return 0


_TAIL_ORACLES = {
    "constant-mm1": lambda u: 0.5 * math.exp(-0.5 * u),
    "shotnoise-gamma": lambda u: (1.0 + u) * math.exp(-u),
}


def _tail_oracle(scen: Scenario):
    """The preset's closed-form stationary tail, only while the model run is
    the preset's own input and release (a seed override keeps it)."""
    oracle = _TAIL_ORACLES.get(scen.name)
    if oracle is None:
        return None
    preset = load_preset(scen.name)
    if (scen.levy, scen.release) != (preset.levy, preset.release):
        return None
    return oracle


def _context_certificate(scen: Scenario):
    """The scenario's drift certificate for the commands that only use it as
    context (burn-in, reference horizon and column, rate label); None when
    the scenario has no phi or the certificate cannot be built."""
    if scen.phi is None:
        return None
    try:
        return build_certificate(scen.levy, scen.release, scen.phi,
                                 tuple(scen.grids["probe_u"]))
    except _CRITERION_ERRORS:
        return None


def cmd_tail(scen: Scenario, out: Path, args) -> int:
    if scen.budgets["n_paths"] < _MIN_TAIL_SAMPLES:
        raise ScenarioError(f"budgets.n_paths: tail needs at least "
                            f"{_MIN_TAIL_SAMPLES} paths")
    # the window is n_paths time units: at least n_paths x rate jumps
    _check_work(scen, 1.0, scen.budgets["n_paths"])
    est = estimate_tail(scen.levy, scen.release,
                        np.asarray(scen.grids["u_grid"]),
                        scen.budgets["n_paths"], seed=scen.seed,
                        eps=scen.truncation_eps,
                        certificate=_context_certificate(scen))
    oracle = _tail_oracle(scen)
    _write_curve(out / "tail.csv", "u", est.levels, est.pi_bar_hat, est.stderr,
                 [oracle(float(u)) for u in est.levels] if oracle else None)
    print(f"{scen.name}: tail estimated at {est.levels.size} levels ({est.method})")
    return 0


def _tv_curve(scen: Scenario, x0: float):
    """The TV curve with its exponent fit, or NoiseFloorReached."""
    cert = _context_certificate(scen)
    curve = estimate_tv_decay(scen.levy, scen.release, x0,
                              np.asarray(scen.grids["t_grid"]),
                              scen.budgets["n_paths"], seed=scen.seed,
                              eps=scen.truncation_eps, certificate=cert)
    if curve.fitted is None:
        raise NoiseFloorReached(
            "no usable TV points above the noise floor past the grid midpoint")
    return curve, cert


def cmd_converge_tv(scen: Scenario, out: Path, args) -> int:
    _check_work(scen, scen.grids["t_grid"][-1], scen.budgets["n_paths"])
    curve, cert = _tv_curve(scen, args.x0)
    _write_curve(out / "tv.csv", "t", curve.times, curve.values, curve.stderr,
                 [1.0 / cert.predicted_tv_rate(float(t)) for t in curve.times]
                 if cert is not None and cert.valid else None)
    print(f"{scen.name}: TV curve fitted exponent {curve.fitted.exponent:.3f} "
          f"(noise floor {curve.noise_floor:.3f})")
    return 0


def cmd_converge_wp(scen: Scenario, out: Path, args) -> int:
    _check_work(scen, scen.grids["t_grid"][-1], scen.budgets["n_paths"])
    bound = None
    if scen.modulus is not None:
        kappa = max(args.x0, scen.kappa)
        bound = GapBound(scen.modulus, scen.gamma, kappa)
    curve = estimate_wp_decay(scen.levy, scen.release, args.x0, args.p,
                              np.asarray(scen.grids["t_grid"]),
                              scen.budgets["n_paths"], seed=scen.seed,
                              eps=scen.truncation_eps, contraction=bound)
    # the reference column only where the contraction check let it through
    cols = {"t": curve.times, "estimate": curve.values, "stderr": curve.stderr}
    if curve.reference_curve is not None:
        cols["reference"] = curve.reference_curve
    write_csv(out / "wp.csv", list(cols),
              [tuple(map(float, row)) for row in zip(*cols.values())])
    print(f"{scen.name}: W{args.p:g} curve estimated at {curve.times.size} times")
    if bound is not None and curve.reference_curve is None:
        print(f"{scen.name}: no reference column: the release fails the "
              "beta_modulus contraction")
    return 0


def cmd_compare(scen: Scenario, out: Path, args) -> int:
    _check_work(scen, scen.grids["t_grid"][-1], scen.budgets["n_paths"])
    # the lower rate first: a release out of its range is refused before
    # the curve is drawn
    try:
        lower = tv_lower_rate(scen.levy, scen.release,
                              eps=scen.tolerances["epsilon"], x=max(args.x0, 1.0))
    except _CRITERION_ERRORS:
        lower = None
    curve, cert = _tv_curve(scen, args.x0)
    rep = compare_rates(curve, certificate=cert, lower=lower,
                        eps=scen.tolerances["epsilon"])
    payload = dataclasses.asdict(rep) | {"scenario": scen.name}
    write_json(out / "compare.json", payload)
    print(f"{scen.name}: fitted {rep.fitted:.3f} vs "
          f"[{rep.predicted_lower}, {rep.predicted_upper}] -> {rep.verdict}")
    return 0 if rep.verdict == "PASS" else 2


def _row_labels(scen: Scenario) -> dict:
    rep = classify(scen.levy, scen.release, tuple(scen.grids["probe_u"]),
                   scen.tolerances["decision_margin"])
    labels = {"regime": rep.verdict, "rate": "-", "tail": "-"}
    if rep.verdict != "PositiveRecurrent":
        return labels
    if rep.uniform:
        labels["rate"] = "uniform"
    else:
        cert = _context_certificate(scen)
        if cert is not None and cert.valid:
            labels["rate"] = ("exponential" if scen.phi.family == "linear"
                              else "polynomial")
    asym = scen.levy.asymptotics()
    labels["tail"] = "exponential" if asym.kind == "exp" else "power"
    return labels


def cmd_report(scen: Scenario, out: Path, args) -> int:
    labels = _row_labels(scen)
    asym = scen.levy.asymptotics()
    detail = {"scenario": scen.name, "labels": labels,
              "input_tail_kind": asym.kind,
              "m_nu": scen.levy.first_moment(),
              "artifacts": sorted(str(p.relative_to(out.parent))
                                  for p in out.parent.glob("*/*")
                                  if p.is_file())}
    if labels["regime"] == "PositiveRecurrent" and asym.kind == "power":
        ra = scen.release.asymptotics()
        beta = ra.exponent if ra.kind == "power" else 0.0
        detail["table_tail_exponent"] = 1.0 - asym.index - beta
        if beta < 1.0:
            detail["table_tv_exponent"] = (1.0 - asym.index - beta) / (1.0 - beta)
    write_json(out / "report.json", detail)
    write_csv(out / "row.csv", ["scenario", "regime", "rate", "tail"],
              [(scen.name, labels["regime"], labels["rate"], labels["tail"])])
    print(f"{scen.name}: {labels['regime']} / rate {labels['rate']} / "
          f"tail {labels['tail']}")
    return 0


def cmd_laplace(scen: Scenario, out: Path, args) -> int:
    n = max(scen.budgets["n_paths"], 1000)
    _check_work(scen, 1.0, n)
    rows = laplace_check(scen.levy, 1.0, [0.5, 1.0, 2.0], n, scen.seed,
                         scen.truncation_eps)
    write_csv(out / "laplace.csv", ["lam", "empirical", "analytic", "se", "z"],
              [(r["lam"], r["empirical"], r["analytic"], r["se"], r["z"])
               for r in rows])
    worst = max(abs(r["z"]) for r in rows)
    print(f"{scen.name}: worst |z| = {worst:.2f}")
    return 0 if worst <= 4.0 else 2


_COMMANDS = {
    "classify": cmd_classify,
    "certify": cmd_certify,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "tail": cmd_tail,
    "converge-tv": cmd_converge_tv,
    "converge-wp": cmd_converge_wp,
    "compare": cmd_compare,
    "report": cmd_report,
    "laplace": cmd_laplace,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="storagelab",
        description="Levy-driven storage processes: simulate, classify, "
                    "certify drift conditions, and validate convergence rates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("scenario",
                       help="scenario JSON path or preset:NAME "
                            f"(presets: {', '.join(preset_names())})")
        p.add_argument("--out", default=None,
                       help="output directory (default out/<scenario>/<command>)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a scenario field (dotted path)")
        if name in ("simulate", "converge-tv", "converge-wp", "compare"):
            p.add_argument("--x0", type=float, default=0.0)
        if name == "simulate":
            p.add_argument("--mode", choices=["grid", "events"], default="grid")
            p.add_argument("--paths", type=int, default=None)
        if name == "converge-wp":
            p.add_argument("--p", type=float, default=1.0)
    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({
        "error": kind, "type": type(exc).__name__, "message": str(exc),
    }) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        scen = _resolve_scenario(args.scenario, args.overrides)
    except (ScenarioError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        _emit_error("usage", exc)
        return 1
    out = _out_dir(args, scen, args.command)
    # the warnings of a run that ends in an error are dropped, so its stderr
    # is the one JSON line; a run that returns shows them
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _COMMANDS[args.command](scen, out, args)
        except (ScenarioError, *_RANGE_ERRORS) as exc:
            _emit_error("usage", exc)
            return 1
        except _CRITERION_ERRORS as exc:
            _emit_error("criterion", exc)
            return 2
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
