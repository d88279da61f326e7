"""Preset scenarios mirroring the worked storage-model examples.

Each entry carries the scenario declaration plus its documented row in the
regime/rate/tail summary; the ``report`` command must reproduce those labels
exactly, which the golden tests pin down.
"""

from __future__ import annotations

import copy

from .scenario import Scenario

_CATALOG: dict[str, dict] = {
    # constant drain beating the mean input: the workhorse M/M/1 workload
    "constant-mm1": {
        "scenario": {
            "scenario_schema": 1,
            "name": "constant-mm1",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 1.0,
                      "jump": {"law": "exp", "mu": 1.0}},
            "release": {"family": "constant", "a": 2.0},
            "phi": {"family": "linear", "c": 0.5},
            "grids": {"u_grid": [0.5, 1.0, 2.0, 3.0, 4.0, 6.0]},
            "budgets": {"n_paths": 20000, "horizon": 40.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "exponential",
                "tail": "exponential"},
    },
    # linear drain, finite-activity input: stationary law is Gamma(2, 1)
    "shotnoise-gamma": {
        "scenario": {
            "scenario_schema": 1,
            "name": "shotnoise-gamma",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 2.0,
                      "jump": {"law": "exp", "mu": 1.0}},
            "release": {"family": "affine", "a": 0.0, "b": 1.0},
            "phi": {"family": "linear", "c": 0.5},
            "beta_modulus": {"family": "power", "d": 1.0, "Gamma": 1.0},
            "grids": {"u_grid": [0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
                      "t_grid": [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0]},
            "budgets": {"n_paths": 20000, "horizon": 12.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "exponential",
                "tail": "exponential"},
    },
    # infinite-activity linear drain
    "gamma-linear": {
        "scenario": {
            "scenario_schema": 1,
            "name": "gamma-linear",
            "seed": 20260810,
            "input": {"family": "gamma", "shape": 1.0, "rate": 1.0,
                      "truncation_eps": 1e-4},
            "release": {"family": "affine", "a": 0.0, "b": 1.0},
            "phi": {"family": "linear", "c": 0.5},
            "beta_modulus": {"family": "power", "d": 1.0, "Gamma": 1.0},
            "budgets": {"n_paths": 8000, "horizon": 12.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "exponential",
                "tail": "exponential"},
    },
    # heavy tail against a weak sublinear drain: escapes to infinity
    "power-heavy": {
        "scenario": {
            "scenario_schema": 1,
            "name": "power-heavy",
            "seed": 20260810,
            "input": {"family": "stable", "alpha": 0.3, "scale": 1.0},
            "release": {"family": "power_smoothed", "k": 1.0, "beta": 0.3},
        },
        "row": {"regime": "Transient", "rate": "-", "tail": "-"},
    },
    # drain exactly matching the mean input at high content
    "plateau-null": {
        "scenario": {
            "scenario_schema": 1,
            "name": "plateau-null",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 1.0,
                      "jump": {"law": "exp", "mu": 1.0}},
            "release": {"family": "plateau", "m": 1.0, "u0": 1.0},
        },
        "row": {"regime": "NullRecurrent", "rate": "-", "tail": "-"},
    },
    # sharp polynomial pair: tail exponent -1/2, decay exponent -1
    "power-sharp": {
        "scenario": {
            "scenario_schema": 1,
            "name": "power-sharp",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 1.0,
                      "jump": {"law": "pareto", "alpha": 1.0}},
            "release": {"family": "power_smoothed", "k": 1.0, "beta": 0.5},
            "phi": {"family": "power", "a": 0.45},
            "grids": {"u_grid": [10.0, 14.7, 21.5, 31.6, 46.4, 68.1, 100.0,
                                 146.8, 215.4, 316.2, 464.2, 681.3, 1000.0],
                      "t_grid": [2.0, 2.7, 3.6, 4.9, 6.6, 8.9, 12.0, 16.3,
                                 22.0, 29.7, 40.2, 54.3, 73.4, 99.2, 134.0,
                                 181.0]},
            "budgets": {"n_paths": 20000, "horizon": 181.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "polynomial",
                "tail": "power"},
    },
    # faster partner of power-sharp (decay exponent -2) for ordering checks
    "power-sharp-fast": {
        "scenario": {
            "scenario_schema": 1,
            "name": "power-sharp-fast",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 1.0,
                      "jump": {"law": "pareto", "alpha": 1.5}},
            "release": {"family": "power_smoothed", "k": 1.0, "beta": 0.5},
            "phi": {"family": "power", "a": 0.6},
            "grids": {"t_grid": [2.0, 2.7, 3.6, 4.9, 6.6, 8.9, 12.0, 16.3,
                                 22.0, 29.7, 40.2, 54.3, 73.4, 99.2, 134.0,
                                 181.0]},
            "budgets": {"n_paths": 20000, "horizon": 181.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "polynomial",
                "tail": "power"},
    },
    # superlinear drain: start-uniform convergence
    "power-uniform": {
        "scenario": {
            "scenario_schema": 1,
            "name": "power-uniform",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 1.0,
                      "jump": {"law": "pareto", "alpha": 1.0}},
            "release": {"family": "power", "k": 1.0, "beta": 2.0},
            "grids": {"u_grid": [5.0, 8.1, 13.1, 21.2, 34.3, 55.6, 90.0,
                                 145.7, 235.9]},
            "budgets": {"n_paths": 20000, "horizon": 60.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "uniform",
                "tail": "power"},
    },
    # bounded drain against a finite-mean Pareto input: decay exponent -1/2
    "sharp-constant": {
        "scenario": {
            "scenario_schema": 1,
            "name": "sharp-constant",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 0.5,
                      "jump": {"law": "pareto", "alpha": 1.5}},
            "release": {"family": "constant", "a": 2.0},
            "phi": {"family": "power", "a": 0.3},
            "grids": {"u_grid": [5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]},
            "budgets": {"n_paths": 20000, "horizon": 120.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "polynomial",
                "tail": "power"},
    },
    # bounded-below drain (plateau above the mean input): geometric regime
    "general-bounded": {
        "scenario": {
            "scenario_schema": 1,
            "name": "general-bounded",
            "seed": 20260810,
            "input": {"family": "compound_poisson", "rate": 1.0,
                      "jump": {"law": "exp", "mu": 1.0}},
            "release": {"family": "plateau", "m": 3.0, "u0": 1.0},
            "phi": {"family": "linear", "c": 0.5},
            "budgets": {"n_paths": 8000, "horizon": 30.0},
        },
        "row": {"regime": "PositiveRecurrent", "rate": "exponential",
                "tail": "exponential"},
    },
}


def preset_names() -> list[str]:
    return sorted(_CATALOG)


def load_preset(name: str) -> Scenario:
    if name not in _CATALOG:
        raise KeyError(f"unknown preset {name!r}; available: {preset_names()}")
    entry = _CATALOG[name]
    # a copy: the scenario keeps it as its raw, which callers may change
    return Scenario.from_dict(copy.deepcopy(entry["scenario"]))


def preset_row(name: str) -> dict:
    return dict(_CATALOG[name]["row"])

