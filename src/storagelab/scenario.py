"""Scenario declarations: strict JSON schema -> model objects.

A scenario pins everything a run needs: the input subordinator, the release
rate, an optional rate function and contraction modulus, grids, budgets and
tolerances, and the master seed.  Unknown keys are rejected at every level
so that typos fail loudly, and a parsed scenario re-serialises to exactly
the canonical form it was built from.  A jump law, a gamma, stable or
tempered-stable input, a release, phi and the modulus take the parameters
of the constructor their family names as keys, with its defaults:
``{"family": "linear", "c": 0.5}`` is ``RateFunction.linear(0.5)``.  Every
other key is declared once, with its type, default and bound (see _take).
"""

from __future__ import annotations

import inspect
import json
import math
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass

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

# the families whose keys are their constructor's parameters (see _spec)
JUMP_LAWS = {"exp": Exponential, "pareto": ParetoJumps, "fixed": DeterministicJumps}
INPUT_FAMILIES = {"gamma": GammaSub, "stable": StableSub,
                  "tempered_stable": TemperedStableSub}
RELEASE_FAMILIES = {"constant": Constant, "affine": Affine, "power": Power,
                    "power_smoothed": PowerSmoothed, "plateau": Plateau}
PHI_FAMILIES = {"constant1": RateFunction.constant1, "linear": RateFunction.linear,
                "power": RateFunction.power}
MODULI = {"power": PowerModulus}

_TRUNCATION = {"truncation_eps": (float, 1e-4, 0.0)}
_GRIDS = {
    "probe_u": (list, list(DEFAULT_PROBE_GRID)),
    "t_grid": (list, [float(x) for x in (2, 3, 5, 8, 12, 18, 27, 40, 60, 90)]),
    "u_grid": (list, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
}
_BUDGETS = {"n_paths": (int, 4000, 1), "horizon": (float, 60.0, 0.0)}
_TOLERANCES = {"decision_margin": (float, DEFAULT_DECISION_MARGIN),
               "epsilon": (float, 0.1, 0.0)}
_CONTRACTION = {"Gamma": (float, 1.0, 0.0), "kappa": (float, 1.0, 0.0)}
# a scenario's name is a CSV field and a path component: one safe token
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
# each type's accepted Python types (a bool is never a number) and its name
_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
          str: (str, "a string"), list: (list, "a list"), dict: (dict, "an object")}


class ScenarioError(ValueError):
    pass


def _take(d: dict, context: str, required: dict, optional: dict | None = None):
    """Pull typed fields out of a dict, rejecting anything unexpected.  An
    optional key's spec is (type, default) or (type, default, low): a float
    must be above low (0 wherever one is set), an integer at least low."""
    optional = optional or {}
    out = {}
    for key, typ in required.items():
        if key not in d:
            raise ScenarioError(f"{context}: missing key {key!r}")
        out[key] = _coerce(d[key], typ, f"{context}.{key}")
    for key, (typ, default, *low) in optional.items():
        out[key] = (_coerce(d[key], typ, f"{context}.{key}", *low) if key in d
                    else default)
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {sorted(unknown)}")
    return out


def _coerce(value, typ, context, low=None):
    accepted, name = _TYPES[typ]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ScenarioError(f"{context}: expected {name}")
    if typ is float:
        if not _finite_number(value):
            raise ScenarioError(f"{context}: expected a finite number")
        value = float(value)
        if low is not None and value <= low:
            raise ScenarioError(f"{context}: expected a finite positive number")
    elif low is not None and value < low:
        raise ScenarioError(f"{context}: expected an integer >= {low}")
    return value


def _finite_number(x) -> bool:
    """x is a number, not a bool, and finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_grids(grids: dict) -> None:
    """Each grid is a non-empty list of finite numbers.  probe_u and u_grid
    are strictly increasing and positive, probe_u with at least 3 points
    (the criteria's rule); t_grid is sorted and non-negative (the rule of
    ``grid_ensemble``).
    """
    for name, xs in grids.items():
        if not xs or not all(map(_finite_number, xs)):
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


def _spec(build) -> tuple[dict, dict]:
    """_take's required and optional specs of the parameters of ``build``,
    which are numbers: required where ``build`` has no default, else
    optional with its default.  A model class's are its init fields, read
    uncached: other forms moved mc-ensemble's peak RSS (see CHANGES.md)."""
    if not is_dataclass(build):  # a factory such as RateFunction.linear
        params = inspect.signature(build).parameters.values()
        return ({p.name: float for p in params if p.default is p.empty},
                {p.name: (float, p.default) for p in params if p.default is not p.empty})
    init = [f for f in fields(build) if f.init]
    return ({f.name: float for f in init if f.default is MISSING},
            {f.name: (float, f.default) for f in init if f.default is not MISSING})


def _build_family(d: dict, context: str, table: dict, key: str = "family",
                  extra: dict | None = None):
    """The model that the constructor ``d[key]`` names in ``table`` builds,
    and _take's dict of ``d``: the constructor's parameters (see _spec),
    plus the block's own optional ``extra`` keys."""
    name = d.get(key)
    build = table.get(name) if isinstance(name, str) else None
    if build is None:
        raise ScenarioError(f"{context}: unknown {key} {name!r}")
    required, optional = _spec(build)
    f = _take(d, context, {key: str, **required}, {**optional, **(extra or {})})
    return build(**{k: f[k] for k in required | optional}), f


def build_input(d: dict):
    family = d.get("family")
    if family == "compound_poisson":
        f = _take(d, "input", {"family": str, "rate": float, "jump": dict},
                  _TRUNCATION)
        jump, _ = _build_family(f["jump"], "input.jump", JUMP_LAWS, "law")
        return CompoundPoisson(f["rate"], jump), f["truncation_eps"]
    if family == "tabulated":
        # required: every command reads the tail past the last knot
        f = _take(d, "input", {"family": str, "knots_u": list, "knots_tail": list,
                               "extension": list}, _TRUNCATION)
        if len(f["extension"]) != 2:
            raise ScenarioError("input.extension: expected [kind, number]")
        kind, par = f["extension"]
        return (TabulatedTail(tuple(f["knots_u"]), tuple(f["knots_tail"]),
                              (kind, _coerce(par, float, "input.extension"))),
                f["truncation_eps"])
    levy, f = _build_family(d, "input", INPUT_FAMILIES, extra=_TRUNCATION)
    return levy, f["truncation_eps"]


def build_release(d: dict):
    return _build_family(d, "release", RELEASE_FAMILIES)[0]


def build_phi(d: dict | None):
    return None if d is None else _build_family(d, "phi", PHI_FAMILIES)[0]


def build_modulus(d: dict | None):
    if d is None:
        return None, None, None
    modulus, f = _build_family(d, "beta_modulus", MODULI, extra=_CONTRACTION)
    return modulus, f["Gamma"], f["kappa"]


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
            "seed": (int, 0, 0),
            "phi": (dict, None),
            "beta_modulus": (dict, None),
            "grids": (dict, {}),
            "budgets": (dict, {}),
            "tolerances": (dict, {}),
        })
        if top["scenario_schema"] != SCHEMA_VERSION:
            raise ScenarioError(
                f"scenario_schema {top['scenario_schema']} != {SCHEMA_VERSION}")
        if not _NAME.fullmatch(top["name"]):
            raise ScenarioError(
                f"name {top['name']!r}: expected letters, digits, '.', '_' "
                "and '-', starting with a letter or digit")
        levy, eps = _build("input", build_input, top["input"])
        release = _build("release", build_release, top["release"])
        phi = _build("phi", build_phi, top["phi"])
        modulus, gamma, kappa = _build("beta_modulus", build_modulus,
                                       top["beta_modulus"])
        grids = _take(top["grids"], "grids", {}, _GRIDS)
        _check_grids(grids)
        budgets = _take(top["budgets"], "budgets", {}, _BUDGETS)
        tolerances = _take(top["tolerances"], "tolerances", {}, _TOLERANCES)
        return cls(top["name"], top["seed"], d, levy, release, phi, modulus,
                   gamma, kappa, eps, grids, budgets, tolerances)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))
