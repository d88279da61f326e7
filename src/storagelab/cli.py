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
import json
import math
import os
import sys
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
    NotStationaryRegime,
)
from .ergodicity_lab import (
    EnsembleEndpoint,
    LongRunTimeAverage,
    compare_rates,
    estimate_tail,
    estimate_tv_decay,
    estimate_wp_decay,
)
from .levy_input import laplace_check
from .lyapunov import (
    FromRate,
    build_certificate,
    check_uniform,
    tv_lower_rate,
    wasserstein_rate,
)
from .presets import load_preset, preset_names
from .release_rate import check_regularity
from .scenario import Scenario, ScenarioError
from .simulator import FullEvents, Grid, PathConfig, simulate_ensemble
from .levy_input import JumpStream

CSV_SCHEMA = 1
_CRITERION_ERRORS = (HypothesisFailed, C3Violation, NotStationaryRegime,
                     MomentConditionFailed, Divergent, NoiseFloorReached,
                     InvalidRateFunction, InvalidModulus)


# ---------------------------------------------------------------------------
# i/o helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.9e}"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# csv_schema={CSV_SCHEMA}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    """Tail envelopes evaluated on the scenario's level grid; modes whose
    hypotheses fail are reported by the failing condition, not an error."""
    from .lyapunov import LogScale, PolyQuotient, SubGeometric, tail_lower, tail_upper

    us = [float(u) for u in scen.grids["u_grid"]]
    eps = scen.tolerances["epsilon"]
    section = {}
    candidates = {
        "upper_from_rate": lambda: tail_upper(scen.levy, scen.release,
                                              FromRate(cert)),
        "upper_subgeometric": lambda: tail_upper(
            scen.levy, scen.release, SubGeometric(eps),
            tuple(scen.grids["probe_u"]), scen.tolerances["decision_margin"]),
        "lower_poly_quotient": lambda: tail_lower(
            scen.levy, scen.release, eps, PolyQuotient(),
            tuple(scen.grids["probe_u"])),
        "lower_log_scale": lambda: tail_lower(
            scen.levy, scen.release, eps, LogScale(),
            tuple(scen.grids["probe_u"])),
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
    uni = check_uniform(scen.levy, scen.release, tuple(scen.grids["probe_u"]),
                        scen.tolerances["decision_margin"])
    payload = {
        "scenario": scen.name,
        "phi": {"family": scen.phi.family, "c": scen.phi.c, "a": scen.phi.a},
        "ratios": list(cert.ratios),
        "drift_margin": cert.drift_margin,
        "valid": cert.valid,
        "uniform": dataclasses.asdict(uni.pos_rec) | {
            "finite_time_integral": uni.finite_time_integral,
            "uniform": uni.uniform},
        "tail_envelopes": _envelope_section(scen, cert) if cert.valid else {},
    }
    write_json(out / "certificate.json", payload)
    print(f"{scen.name}: drift margin {cert.drift_margin:.6f} "
          f"(valid={cert.valid}, uniform={uni.uniform})")
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


def cmd_simulate(scen: Scenario, out: Path, args) -> int:
    n = scen.budgets["n_paths"]
    n = n if args.paths is None else min(n, args.paths)
    if n < 1:
        raise ScenarioError("simulate needs at least one path")
    horizon = scen.budgets["horizon"]
    grid = tuple(t for t in scen.grids["t_grid"] if t <= horizon)
    record = FullEvents() if args.mode == "events" else Grid(grid)
    cfg = PathConfig(args.x0, horizon, record, scen.seed, scen.truncation_eps)
    paths = simulate_ensemble(scen.levy, scen.release, cfg, n)
    if args.mode == "events":
        rows = [(i, float(t), float(j), float(x)) for i, rec in enumerate(paths)
                for t, x, j in zip(rec.times, rec.values, rec.jump_sizes)]
        write_csv(out / "events.csv", ["path_id", "t", "jump_size", "x_after"], rows)
    else:
        rows = [(i, float(t), float(x)) for i, values in enumerate(paths)
                for t, x in zip(grid, values)]
        write_csv(out / "paths.csv", ["path_id", "t", "x"], rows)
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
    choice = args.method
    if choice == "auto":
        # the exact occupation engine needs drift-free inter-jump motion
        choice = "longrun" if scen.levy.activity == "finite" else "endpoint"
    method = (EnsembleEndpoint() if choice == "endpoint"
              else LongRunTimeAverage())
    est = estimate_tail(scen.levy, scen.release, method,
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
    curve, cert = _tv_curve(scen, args.x0)
    _write_curve(out / "tv.csv", "t", curve.times, curve.values, curve.stderr,
                 [1.0 / cert.predicted_tv_rate(float(t)) for t in curve.times]
                 if cert is not None and cert.valid else None)
    print(f"{scen.name}: TV curve fitted exponent {curve.fitted.exponent:.3f} "
          f"(noise floor {curve.noise_floor:.3f})")
    return 0


def cmd_converge_wp(scen: Scenario, out: Path, args) -> int:
    bound = None
    if scen.modulus is not None:
        kappa = max(args.x0, scen.kappa)
        bound = wasserstein_rate(scen.modulus, scen.gamma, kappa)
    curve = estimate_wp_decay(scen.levy, scen.release, args.x0, None, args.p,
                              np.asarray(scen.grids["t_grid"]),
                              scen.budgets["n_paths"], seed=scen.seed,
                              eps=scen.truncation_eps, contraction=bound)
    _write_curve(out / "wp.csv", "t", curve.times, curve.values, curve.stderr,
                 curve.reference_curve)
    print(f"{scen.name}: W{args.p:g} curve estimated at {curve.times.size} times")
    return 0


def cmd_compare(scen: Scenario, out: Path, args) -> int:
    curve, cert = _tv_curve(scen, args.x0)
    lower = None
    try:
        lower = tv_lower_rate(scen.levy, scen.release,
                              eps=scen.tolerances["epsilon"], x=max(args.x0, 1.0))
    except _CRITERION_ERRORS:
        lower = None
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
    stream = JumpStream(scen.seed, scen.truncation_eps)
    rows = laplace_check(scen.levy, 1.0, [0.5, 1.0, 2.0],
                         max(scen.budgets["n_paths"], 1000), stream)
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


def build_parser() -> argparse.ArgumentParser:
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
        if name == "tail":
            p.add_argument("--method", choices=["auto", "longrun", "endpoint"],
                           default="auto")
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
    try:
        return _COMMANDS[args.command](scen, out, args)
    except ScenarioError as exc:
        _emit_error("usage", exc)
        return 1
    except _CRITERION_ERRORS as exc:
        _emit_error("criterion", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
