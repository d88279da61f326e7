"""Scenario declarations: strict JSON schema -> model objects.

A scenario pins everything a run needs: the input subordinator, the release
rate, an optional rate function and contraction modulus, grids, budgets and
tolerances, and the master seed.  Unknown keys are rejected at every level
so that typos fail loudly, and a parsed scenario re-serialises to exactly
the canonical form it was built from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .classifier import DEFAULT_DECISION_MARGIN, DEFAULT_PROBE_GRID
from .errors import StorageLabError
from .levy_input import (
    CompoundPoisson,
    DeterministicJumps,
    Exponential,
    GammaSub,
    ParetoJumps,
    StableSub,
    TabulatedTail,
    TemperedStableSub,
)
from .lyapunov import PowerModulus, RateFunction
from .release_rate import Affine, Constant, Plateau, Power, PowerSmoothed

SCHEMA_VERSION = 1

_DEFAULT_GRIDS = {
    "probe_u": list(DEFAULT_PROBE_GRID),
    "t_grid": [float(x) for x in (2, 3, 5, 8, 12, 18, 27, 40, 60, 90)],
    "u_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
}
_DEFAULT_BUDGETS = {"n_paths": 4000, "horizon": 60.0}
_DEFAULT_TOLERANCES = {"decision_margin": DEFAULT_DECISION_MARGIN, "epsilon": 0.1}


class ScenarioError(ValueError):
    pass


def _take(d: dict, context: str, required: dict, optional: dict | None = None):
    """Pull typed fields out of a dict, rejecting anything unexpected."""
    optional = optional or {}
    out = {}
    for key, typ in required.items():
        if key not in d:
            raise ScenarioError(f"{context}: missing key {key!r}")
        out[key] = _coerce(d[key], typ, f"{context}.{key}")
    for key, (typ, default) in optional.items():
        out[key] = _coerce(d[key], typ, f"{context}.{key}") if key in d else default
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {sorted(unknown)}")
    return out


def _coerce(value, typ, context):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{context}: expected a number")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ScenarioError(f"{context}: expected a finite number")
        return number
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{context}: expected an integer")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ScenarioError(f"{context}: expected a string")
        return value
    if typ is list:
        if not isinstance(value, list):
            raise ScenarioError(f"{context}: expected a list")
        return value
    if typ is dict:
        if not isinstance(value, dict):
            raise ScenarioError(f"{context}: expected an object")
        return value
    raise AssertionError(typ)


def _check_grids(grids: dict) -> None:
    """Each grid is a non-empty list of finite numbers.  probe_u and u_grid
    are strictly increasing and positive, probe_u with at least 3 points
    (the criteria's rule); t_grid is sorted and non-negative (the rule of
    ``grid_ensemble``).
    """
    for name, xs in grids.items():
        if not xs or any(isinstance(x, bool) or not isinstance(x, (int, float))
                         or not math.isfinite(x) for x in xs):
            raise ScenarioError(
                f"grids.{name}: expected a non-empty list of finite numbers")
        pairs = list(zip(xs, xs[1:]))
        if name == "t_grid":
            if xs[0] < 0 or any(b < a for a, b in pairs):
                raise ScenarioError(
                    "grids.t_grid: times must be sorted and non-negative")
        elif xs[0] <= 0 or any(b <= a for a, b in pairs):
            raise ScenarioError(
                f"grids.{name}: levels must be strictly increasing and positive")
    if len(grids["probe_u"]) < 3:
        raise ScenarioError("grids.probe_u: needs at least 3 points")


def _build_jump(d: dict):
    law = d.get("law")
    if law == "exp":
        f = _take(d, "input.jump", {"law": str, "mu": float})
        return Exponential(f["mu"])
    if law == "pareto":
        f = _take(d, "input.jump", {"law": str, "alpha": float},
                  {"xm": (float, 1.0)})
        return ParetoJumps(f["alpha"], f["xm"])
    if law == "fixed":
        f = _take(d, "input.jump", {"law": str, "size": float})
        return DeterministicJumps(f["size"])
    raise ScenarioError(f"input.jump: unknown law {law!r}")


def build_input(d: dict):
    family = d.get("family")
    if family == "compound_poisson":
        f = _take(d, "input", {"family": str, "rate": float, "jump": dict},
                  {"truncation_eps": (float, 1e-4)})
        return CompoundPoisson(f["rate"], _build_jump(f["jump"])), f["truncation_eps"]
    if family == "gamma":
        f = _take(d, "input", {"family": str, "shape": float, "rate": float},
                  {"truncation_eps": (float, 1e-4)})
        return GammaSub(f["shape"], f["rate"]), f["truncation_eps"]
    if family == "stable":
        f = _take(d, "input", {"family": str, "alpha": float},
                  {"scale": (float, 1.0), "truncation_eps": (float, 1e-4)})
        return StableSub(f["alpha"], f["scale"]), f["truncation_eps"]
    if family == "tempered_stable":
        f = _take(d, "input", {"family": str, "alpha": float},
                  {"scale": (float, 1.0), "tempering": (float, 1.0),
                   "truncation_eps": (float, 1e-4)})
        return (TemperedStableSub(f["alpha"], f["scale"], f["tempering"]),
                f["truncation_eps"])
    if family == "tabulated":
        # required: every command reads the tail past the last knot
        f = _take(d, "input", {"family": str, "knots_u": list, "knots_tail": list,
                               "extension": list}, {"truncation_eps": (float, 1e-4)})
        if len(f["extension"]) != 2:
            raise ScenarioError("input.extension: expected [kind, number]")
        kind, par = f["extension"]
        return (TabulatedTail(tuple(f["knots_u"]), tuple(f["knots_tail"]),
                              (kind, _coerce(par, float, "input.extension"))),
                f["truncation_eps"])
    raise ScenarioError(f"input: unknown family {family!r}")


def build_release(d: dict):
    family = d.get("family")
    if family == "constant":
        return Constant(_take(d, "release", {"family": str, "a": float})["a"])
    if family == "affine":
        f = _take(d, "release", {"family": str, "a": float, "b": float})
        return Affine(f["a"], f["b"])
    if family == "power":
        f = _take(d, "release", {"family": str, "k": float, "beta": float})
        return Power(f["k"], f["beta"])
    if family == "power_smoothed":
        f = _take(d, "release", {"family": str, "k": float, "beta": float},
                  {"u_s": (float, 0.01)})
        return PowerSmoothed(f["k"], f["beta"], f["u_s"])
    if family == "plateau":
        f = _take(d, "release", {"family": str, "m": float}, {"u0": (float, 1.0)})
        return Plateau(f["m"], f["u0"])
    raise ScenarioError(f"release: unknown family {family!r}")


def build_phi(d: dict | None):
    if d is None:
        return None
    family = d.get("family")
    if family == "constant1":
        _take(d, "phi", {"family": str})
        return RateFunction.constant1()
    if family == "linear":
        return RateFunction.linear(_take(d, "phi", {"family": str, "c": float})["c"])
    if family == "power":
        return RateFunction.power(_take(d, "phi", {"family": str, "a": float})["a"])
    raise ScenarioError(f"phi: unknown family {family!r}")


def build_modulus(d: dict | None):
    if d is None:
        return None, None, None
    f = _take(d, "beta_modulus", {"family": str, "d": float},
              {"Gamma": (float, 1.0), "kappa": (float, 1.0)})
    if f["family"] != "power":
        raise ScenarioError(f"beta_modulus: unknown family {f['family']!r}")
    for key in ("Gamma", "kappa"):
        if f[key] <= 0:
            raise ScenarioError(
                f"beta_modulus.{key}: expected a finite positive number")
    return PowerModulus(f["d"]), f["Gamma"], f["kappa"]


def _build(block: str, build, d):
    """``build(d)``, with a model constructor's own error re-raised as a
    ScenarioError that names the scenario block."""
    try:
        return build(d)
    except ScenarioError:
        raise
    except (ValueError, StorageLabError) as exc:
        raise ScenarioError(f"{block}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    raw: dict
    levy: object
    release: object
    phi: object
    modulus: object
    gamma: float
    kappa: float
    truncation_eps: float
    grids: dict
    budgets: dict
    tolerances: dict

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        top = _take(d, "scenario", {
            "scenario_schema": int, "name": str, "input": dict, "release": dict,
        }, {
            "seed": (int, 0),
            "phi": (dict, None),
            "beta_modulus": (dict, None),
            "grids": (dict, None),
            "budgets": (dict, None),
            "tolerances": (dict, None),
        })
        if top["scenario_schema"] != SCHEMA_VERSION:
            raise ScenarioError(
                f"scenario_schema {top['scenario_schema']} != {SCHEMA_VERSION}")
        if top["seed"] < 0:
            raise ScenarioError("seed: expected a non-negative integer")
        levy, eps = _build("input", build_input, top["input"])
        if eps <= 0:
            raise ScenarioError(
                "input.truncation_eps: expected a finite positive number")
        release = _build("release", build_release, top["release"])
        phi = _build("phi", build_phi, top["phi"])
        modulus, gamma, kappa = _build("beta_modulus", build_modulus,
                                       top["beta_modulus"])
        grids = dict(_DEFAULT_GRIDS)
        if top["grids"]:
            extra = _take(top["grids"], "grids", {},
                          {k: (list, v) for k, v in _DEFAULT_GRIDS.items()})
            grids.update(extra)
        _check_grids(grids)
        budgets = dict(_DEFAULT_BUDGETS)
        if top["budgets"]:
            budgets.update(_take(top["budgets"], "budgets", {}, {
                "n_paths": (int, _DEFAULT_BUDGETS["n_paths"]),
                "horizon": (float, _DEFAULT_BUDGETS["horizon"]),
            }))
        if budgets["n_paths"] < 1:
            raise ScenarioError("budgets.n_paths: needs at least one path")
        if budgets["horizon"] <= 0:
            raise ScenarioError("budgets.horizon: expected a finite positive time")
        tolerances = dict(_DEFAULT_TOLERANCES)
        if top["tolerances"]:
            tolerances.update(_take(top["tolerances"], "tolerances", {}, {
                "decision_margin": (float, _DEFAULT_TOLERANCES["decision_margin"]),
                "epsilon": (float, _DEFAULT_TOLERANCES["epsilon"]),
            }))
        if tolerances["epsilon"] <= 0:
            raise ScenarioError(
                "tolerances.epsilon: expected a finite positive number")
        return cls(top["name"], top["seed"], d, levy, release, phi, modulus,
                   gamma, kappa, eps, grids, budgets, tolerances)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))
