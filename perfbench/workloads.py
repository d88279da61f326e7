"""The benchmark's three workloads: fixed lists of storagelab CLI calls.

Each op is the argv of one ``storagelab`` command, without ``--out`` and
without the seed override; `run.py` appends both.  An op's name is its
argv joined by spaces, which keys its entry in ``reference.json``.
"""

from __future__ import annotations

_ANALYTIC_PAIRS = ("power-sharp", "power-sharp-fast", "sharp-constant",
                   "constant-mm1", "general-bounded")

# `simulate` on gamma-linear with a smoothed power release: the compensator
# drift is > 0, so every inter-jump flow takes the scalar Runge-Kutta path.
_POWER_SMOOTHED = 'release={"family":"power_smoothed","k":1.0,"beta":0.5}'

WORKLOADS: dict[str, list[list[str]]] = {
    # quadrature + lyapunov only; no simulation
    "analytic": (
        [[cmd, f"preset:{name}"] for name in _ANALYTIC_PAIRS
         for cmd in ("certify", "predict")]
        + [["report", "preset:power-sharp"],
           ["report", "preset:power-uniform"],
           ["report", "preset:plateau-null"],
           ["classify", "preset:power-heavy"]]
    ),
    # chunked ensembles with closed-form flows, the occupation engine and
    # the per-path walker with a large CSV write
    "mc-ensemble": [
        ["compare", "preset:power-sharp"],
        ["converge-wp", "preset:shotnoise-gamma"],
        ["tail", "preset:constant-mm1"],
        ["tail", "preset:shotnoise-gamma"],
        ["simulate", "preset:shotnoise-gamma", "--mode", "events",
         "--paths", "2000"],
    ],
    # infinite-activity jump sampling, padded-matrix memory, RK fallback.
    # n_paths=1000 keeps the sharp-constant padded matrix near 1.6 GB; the
    # preset's 20000 paths would need several GB.
    "mc-heavy": [
        ["converge-wp", "preset:gamma-linear", "--set", "budgets.n_paths=2000"],
        ["converge-tv", "preset:sharp-constant",
         "--set", "budgets.n_paths=1000"],
        ["simulate", "preset:gamma-linear", "--set", _POWER_SMOOTHED,
         "--paths", "8"],
    ],
}

# every command any workload uses, for the per-layer `cli.<command>` rows
COMMANDS = sorted({op[0] for ops in WORKLOADS.values() for op in ops})


def op_name(op: list[str]) -> str:
    return " ".join(op)
