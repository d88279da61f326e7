"""Command-line front end: scenario loading, dispatch, report emission.

Commands consume a scenario (JSON file or ``preset:NAME``), write their
artifacts under ``--out`` (without it, under the STORAGELAB_OUT environment
variable, else ``./out/<scenario>/<command>/``), and exit 0 on success, 2
when a hypothesis or criterion check fails, 1 on usage errors.  Every error
is also emitted as a structured JSON object on stderr.  A CSV file opens
with a ``# csv_schema`` line and a header; a float is written ``%.9e``, an
integer column (``path_id``) as plain integers, a label as text, and a
missing value (a reference without a closed form) as an empty field.
certify and predict need the scenario's drift certificate; tail,
converge-tv, compare and report use it only where it can be built.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
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
    laplace_check,
    reference_draws,
    stationary_tail,
    tail_draws,
)
from .lyapunov import (
    GapBound,
    TailEnvelope,
    build_certificate,
    tail_lower,
    tail_lower_log,
    tail_upper,
    tv_lower_rate,
)
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
# (NaN integrands, overflowing flows), a bound beyond the inversion's e^600
# bracket.  A usage error, as no run of the scenario can succeed.
_RANGE_ERRORS = (NonFiniteEvaluation, NotBracketed, OverflowError)


# ---------------------------------------------------------------------------
# i/o helpers
# ---------------------------------------------------------------------------

# the %-conversion of a column by its numpy kind: an integer plain, a float
# in scientific notation with 10 significant digits, text as it is
_CONVERSIONS = {"i": "%d", "f": "%.9e", "U": "%s"}
_CSV_BLOCK = 1024  # rows formatted by one write


def write_csv(path: Path, header: list[str], blocks) -> None:
    """The schema line, the header, then the rows of each block, a sequence
    of equal-length columns, formatted _CSV_BLOCK rows at a time: memory
    does not grow with the file, and blocks can come from a generator."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# csv_schema={CSV_SCHEMA}\n{','.join(header)}\n")
        for cols in blocks:
            cols = [np.asarray(col) for col in cols]
            n = len(cols[0])
            line = ",".join(_CONVERSIONS[col.dtype.kind] for col in cols) + "\n"
            for lo in range(0, n, _CSV_BLOCK):
                rows = zip(*(col[lo:lo + _CSV_BLOCK].tolist() for col in cols))
                values = tuple(itertools.chain.from_iterable(rows))
                f.write((line * min(_CSV_BLOCK, n - lo)) % values)


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
    is empty."""
    if reference is None:
        reference = np.full(len(xs), "")
    write_csv(path, [x_name, "estimate", "stderr", "reference"],
              [(xs, estimates, stderr, reference)])


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
    base = args.out or os.environ.get("STORAGELAB_OUT")
    return Path(base) if base else Path("out") / scen.name / command


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(scen: Scenario, out: Path, args) -> None:
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


def _envelope_section(scen: Scenario, cert) -> dict:
    """Tail envelopes of a valid certificate, evaluated on the scenario's
    level grid; envelopes whose hypotheses fail are reported by the failing
    condition, not an error."""
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


def cmd_certify(scen: Scenario, out: Path, args) -> None:
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
    if not cert.valid:
        raise HypothesisFailed("certificate", "certificate is not valid")


def cmd_predict(scen: Scenario, out: Path, args) -> None:
    if scen.phi is None:
        raise ScenarioError("predict needs a 'phi' block in the scenario")
    cert = build_certificate(scen.levy, scen.release, scen.phi,
                             tuple(scen.grids["probe_u"]))
    if not cert.valid:
        raise HypothesisFailed("certificate", "certificate is not valid")
    ts, us = (np.asarray(scen.grids[g], dtype=float) for g in ("t_grid", "u_grid"))
    blocks = [(ts, [1.0 / cert.predicted_tv_rate(t) for t in ts.tolist()],
               np.full(ts.size, "tv_bound_shape")),
              (us, [cert.predicted_tail_upper(u) for u in us.tolist()],
               np.full(us.size, "tail_upper"))]
    write_csv(out / "predictions.csv", ["u_or_t", "value", "kind"], blocks)
    print(f"{scen.name}: wrote {ts.size + us.size} prediction rows")


def _check_args(args) -> None:
    """Refuse a start ``--x0`` outside the state space [0, inf) and a
    Wasserstein order ``--p`` below 1, before anything is drawn."""
    for flag, low in (("x0", 0.0), ("p", 1.0)):
        value = getattr(args, flag, low)
        if not (math.isfinite(value) and value >= low):
            raise ScenarioError(f"--{flag} must be finite and >= {low:g}, "
                                f"not {value}")


def _check_work(jumps: float) -> None:
    """Refuse a run expected to draw more than _MAX_JUMPS retained jumps,
    before it draws any."""
    if not jumps <= _MAX_JUMPS:
        raise ScenarioError(f"the run expects {jumps:.3g} jumps, more than "
                            f"the {_MAX_JUMPS:.0e} a run may draw")


def _ensemble_jumps(scen: Scenario, horizon: float, n_paths: int) -> float:
    """The retained jumps of ``n_paths`` paths over ``horizon``."""
    return scen.levy.restricted_rate(scen.truncation_eps) * horizon * n_paths


def _curve_jumps(scen: Scenario, certificate) -> float:
    """The draws of a TV or W_p curve: its ensemble up to the last grid time,
    and the stationary reference of 2 n_paths samples it picks against
    ``certificate``."""
    t_last, n = scen.grids["t_grid"][-1], scen.budgets["n_paths"]
    return _ensemble_jumps(scen, t_last, n) + reference_draws(
        scen.levy, scen.release, 2 * n, t_last, certificate, scen.truncation_eps)


def cmd_simulate(scen: Scenario, out: Path, args) -> None:
    n = scen.budgets["n_paths"]
    n = n if args.paths is None else min(n, args.paths)
    if n < 1:
        raise ScenarioError("simulate needs at least one path")
    horizon = scen.budgets["horizon"]
    grid = [float(t) for t in scen.grids["t_grid"] if t <= horizon]
    if args.mode == "grid" and not grid:
        raise ScenarioError("simulate --mode grid needs a t_grid time "
                            "within the horizon")
    _check_work(_ensemble_jumps(scen, horizon, n))
    draw = (scen.levy, scen.release, args.x0)
    if args.mode == "events":
        chunks = event_ensemble(*draw, horizon, n, scen.seed,
                                scen.truncation_eps)
        write_csv(out / "events.csv", ["path_id", "t", "jump_size", "x_after"],
                  chunks)
    else:
        paths = grid_ensemble(*draw, grid, n, scen.seed, scen.truncation_eps)
        cols = [np.repeat(np.arange(n), len(grid)), np.tile(grid, n),
                paths.ravel()]
        write_csv(out / "paths.csv", ["path_id", "t", "x"], [cols])
    print(f"{scen.name}: simulated {n} paths")


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


def cmd_tail(scen: Scenario, out: Path, args) -> None:
    if scen.budgets["n_paths"] < _MIN_TAIL_SAMPLES:
        raise ScenarioError(f"budgets.n_paths: tail needs at least "
                            f"{_MIN_TAIL_SAMPLES} paths")
    cert = _context_certificate(scen)
    _check_work(tail_draws(scen.levy, scen.release, scen.budgets["n_paths"],
                           cert, scen.truncation_eps))
    est = estimate_tail(scen.levy, scen.release,
                        np.asarray(scen.grids["u_grid"]),
                        scen.budgets["n_paths"], seed=scen.seed,
                        eps=scen.truncation_eps, certificate=cert)
    exact = stationary_tail(scen.levy, scen.release)
    # a level no chain or draw exceeds carries no estimate: empty, not 0 +- 0
    seen = est.pi_bar_hat > 0.0
    estimate, stderr = (np.where(seen, np.char.mod(_CONVERSIONS["f"], col), "")
                        for col in (est.pi_bar_hat, est.stderr))
    _write_curve(out / "tail.csv", "u", est.levels, estimate, stderr,
                 None if exact is None else exact(est.levels))
    print(f"{scen.name}: tail estimated at {est.levels.size} levels ({est.method})")


def _tv_curve(scen: Scenario, x0: float, cert):
    """The TV curve with its exponent fit, or NoiseFloorReached."""
    curve = estimate_tv_decay(scen.levy, scen.release, x0,
                              np.asarray(scen.grids["t_grid"]),
                              scen.budgets["n_paths"], seed=scen.seed,
                              eps=scen.truncation_eps, certificate=cert)
    if curve.fitted is None:
        raise NoiseFloorReached(
            "no usable TV points above the noise floor past the grid midpoint")
    return curve


def cmd_converge_tv(scen: Scenario, out: Path, args) -> None:
    cert = _context_certificate(scen)
    _check_work(_curve_jumps(scen, cert))
    curve = _tv_curve(scen, args.x0, cert)
    _write_curve(out / "tv.csv", "t", curve.times, curve.values, curve.stderr,
                 [1.0 / cert.predicted_tv_rate(float(t)) for t in curve.times]
                 if cert is not None and cert.valid else None)
    print(f"{scen.name}: TV curve fitted exponent {curve.fitted.exponent:.3f} "
          f"(noise floor {curve.noise_floor:.3f})")


def cmd_converge_wp(scen: Scenario, out: Path, args) -> None:
    _check_work(_curve_jumps(scen, None))
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
    write_csv(out / "wp.csv", list(cols), [cols.values()])
    print(f"{scen.name}: W{args.p:g} curve estimated at {curve.times.size} times")
    if bound is not None and curve.reference_curve is None:
        print(f"{scen.name}: no reference column: the release fails the "
              "beta_modulus contraction")


def cmd_compare(scen: Scenario, out: Path, args) -> None:
    cert = _context_certificate(scen)
    _check_work(_curve_jumps(scen, cert))
    # the lower rate first: a release out of its range is refused before
    # the curve is drawn
    try:
        lower = tv_lower_rate(scen.levy, scen.release,
                              eps=scen.tolerances["epsilon"], x=max(args.x0, 1.0))
    except _CRITERION_ERRORS:
        lower = None
    curve = _tv_curve(scen, args.x0, cert)
    rep = compare_rates(curve, certificate=cert, lower=lower,
                        eps=scen.tolerances["epsilon"])
    payload = dataclasses.asdict(rep) | {"scenario": scen.name}
    write_json(out / "compare.json", payload)
    print(f"{scen.name}: fitted {rep.fitted:.3f} vs "
          f"[{rep.predicted_lower}, {rep.predicted_upper}] -> {rep.verdict}")
    if rep.verdict != "PASS":
        raise HypothesisFailed("compare", rep.note or (
            f"fitted exponent {rep.fitted:.3f} is more than {rep.tol:.3f} "
            f"outside [{rep.predicted_lower}, {rep.predicted_upper}]"))


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
        exponent = cert.tv_exponent if cert is not None else None
        if exponent is not None and exponent < 0.0:
            labels["rate"] = ("exponential" if exponent == -math.inf
                              else "polynomial")
    asym = scen.levy.asymptotics()
    labels["tail"] = "exponential" if asym.kind == "exp" else "power"
    return labels


def cmd_report(scen: Scenario, out: Path, args) -> None:
    labels = _row_labels(scen)
    asym = scen.levy.asymptotics()
    detail = {"scenario": scen.name, "labels": labels,
              "input_tail_kind": asym.kind,
              "m_nu": scen.levy.first_moment()}
    if labels["regime"] == "PositiveRecurrent" and asym.kind == "power":
        ra = scen.release.asymptotics()
        beta = ra.exponent if ra.kind == "power" else 0.0
        detail["table_tail_exponent"] = 1.0 - asym.index - beta
        if beta < 1.0:
            detail["table_tv_exponent"] = (1.0 - asym.index - beta) / (1.0 - beta)
    write_json(out / "report.json", detail)
    write_csv(out / "row.csv", ["scenario", "regime", "rate", "tail"],
              [[[scen.name], [labels["regime"]], [labels["rate"]],
                [labels["tail"]]]])
    print(f"{scen.name}: {labels['regime']} / rate {labels['rate']} / "
          f"tail {labels['tail']}")


def cmd_laplace(scen: Scenario, out: Path, args) -> None:
    n = max(scen.budgets["n_paths"], 1000)
    _check_work(_ensemble_jumps(scen, 1.0, n))
    rows = laplace_check(scen.levy, 1.0, [0.5, 1.0, 2.0], n, scen.seed,
                         scen.truncation_eps)
    keys = ["lam", "empirical", "analytic", "se", "z"]
    write_csv(out / "laplace.csv", keys, [[[r[k] for r in rows] for k in keys]])
    worst = max(abs(r["z"]) for r in rows)
    print(f"{scen.name}: worst |z| = {worst:.2f}")
    if not worst <= 4.0:
        raise HypothesisFailed("laplace", f"worst |z| = {worst:.2f} exceeds 4")


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
    # the warnings of a run that ends in an error are dropped, so its stderr
    # is the one JSON line; a run that returns shows them
    with warnings.catch_warnings(record=True) as caught:
        try:
            _check_args(args)
            scen = _resolve_scenario(args.scenario, args.overrides)
        except (ScenarioError, FileNotFoundError, KeyError,
                json.JSONDecodeError) as exc:
            _emit_error("usage", exc)
            return 1
        out = _out_dir(args, scen, args.command)
        try:
            _COMMANDS[args.command](scen, out, args)
        except (ScenarioError, *_RANGE_ERRORS) as exc:
            _emit_error("usage", exc)
            return 1
        except _CRITERION_ERRORS as exc:
            _emit_error("criterion", exc)
            return 2
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return 0


if __name__ == "__main__":
    sys.exit(main())
