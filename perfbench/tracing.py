"""In-memory span recorder and the per-layer metrics computed from it.

The recorder wraps public functions of the package from outside: each name
is replaced *where it is looked up* (the importing module's global, a
class's method, an entry of ``cli._COMMANDS``) and restored afterwards.
A span is ``[name, start, end, parent index, info]``; ``info`` holds what
the layer counts (panels, draws, lanes, jumps, bytes) or the exception
type that ended it.  Scalar methods called inside quadrature integrands
are not wrapped: their time is the self time of ``numerics.quad``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    # --- recording ---------------------------------------------------------
    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, result)``
        returns the span's counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None):
        """Replace ``owner.attr`` (module global, class attribute or dict
        entry) by its traced version until ``restore``."""
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else owner.__dict__.get(attr)
        if original is None:
            label = getattr(owner, "__name__", "dict")
            self.missing.append(f"{label}.{attr}")
            return
        traced = self.wrap(name, original, count)
        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, is_dict))

    def restore(self):
        for owner, attr, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end",
                                               "parent", "info"],
                                    "spans": self.spans}, default=str))


# ---------------------------------------------------------------------------
# what is wrapped, and where
# ---------------------------------------------------------------------------

def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return arguments


def _quad_count(args, kwargs, result):
    return {"panels": int(result.subdivisions)}


def _ensemble_count(fn, horizon_of):
    arguments = _bound(fn)

    def count(args, kwargs, result):
        a = arguments(args, kwargs)
        # the rate is looked up when metrics are computed, untraced
        return {"paths": int(a["n_paths"]), "levy": a["levy"],
                "eps": float(a["eps"]), "horizon": horizon_of(a)}

    return count


def _io_count(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def install(rec: Recorder, commands) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    mod = {name: importlib.import_module(f"storagelab.{name}") for name in (
        "numerics", "levy_input", "release_rate", "simulator", "lyapunov",
        "classifier", "ergodicity_lab", "cli")}
    users = {
        ("numerics.quad", "integrate_semiinfinite", _quad_count): (
            "numerics", "classifier", "lyapunov", "ergodicity_lab",
            "levy_input", "release_rate"),
        ("numerics.quad", "integrate_interval", _quad_count): (
            "numerics", "lyapunov", "release_rate"),
        ("numerics.invert", "invert_monotone", None): (
            "numerics", "lyapunov", "ergodicity_lab"),
        ("numerics.fit", "fit_loglog", None): ("lyapunov", "ergodicity_lab"),
        ("numerics.ode_flow", "ode_flow", None): ("simulator",),
        ("levy_input.sample_jumps", "sample_jumps",
         lambda a, k, r: {"jumps": len(r[0])}): (
            "levy_input", "simulator", "ergodicity_lab"),
        ("simulator.flow_vec", "flow_vec",
         lambda a, k, r: {"lanes": int(r.size)}): ("simulator",),
        ("simulator.simulate_path", "simulate_path",
         lambda a, k, r: {"jumps": int(r.n_jumps)}): ("simulator", "cli"),
        ("lyapunov.build_certificate", "build_certificate", None): ("cli",),
        ("lyapunov.tail_envelopes", "tail_upper", None): ("lyapunov",),
        ("lyapunov.tail_envelopes", "tail_lower", None): ("lyapunov",),
        ("lyapunov.check_uniform", "check_uniform", None): ("cli",),
        ("lyapunov.tv_lower_rate", "tv_lower_rate", None): ("cli",),
        ("classifier.classify", "classify", None): ("cli", "ergodicity_lab"),
        ("ergodicity_lab.estimate_tail", "estimate_tail", None): ("cli",),
        ("ergodicity_lab.estimate_tv_decay", "estimate_tv_decay", None): ("cli",),
        ("ergodicity_lab.estimate_wp_decay", "estimate_wp_decay", None): ("cli",),
        ("ergodicity_lab.wasserstein_1d", "wasserstein_1d", None): (
            "ergodicity_lab",),
        ("cli.io", "write_csv", _io_count): ("cli",),
        ("cli.io", "write_json", _io_count): ("cli",),
    }
    sim = mod["simulator"]
    for attr, horizon_of in (
            ("endpoint_ensemble", lambda a: float(a["horizon"])),
            ("grid_ensemble", lambda a: float(list(a["grid"])[-1]))):
        fn = getattr(sim, attr, None)
        if fn is not None:
            users[(f"simulator.{attr}", attr,
                   _ensemble_count(fn, horizon_of))] = ("ergodicity_lab",)
    for (name, attr, count), where in users.items():
        for m in where:
            rec.patch(mod[m], attr, name, count)
    levy = mod["levy_input"]
    for cls in vars(levy).values():
        if (isinstance(cls, type) and issubclass(cls, levy.LevyInput)
                and "sample_sizes" in cls.__dict__ and cls is not levy.LevyInput):
            rec.patch(cls, "sample_sizes", "levy_input.sample_sizes",
                      _draws_count(cls.__dict__["sample_sizes"]))
    table = getattr(mod["cli"], "_COMMANDS", {})
    for command in commands:
        rec.patch(table, command, f"cli.{command}")


def _draws_count(fn):
    arguments = _bound(fn)
    return lambda args, kwargs, result: {"draws": int(arguments(args, kwargs)["n"])}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _per_name(spans):
    """Per span name: calls, summed self time, summed total time of the
    outermost spans of that name, and summed counters."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    cover = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            cover[s[3]] += dur[i]
    agg: dict[str, dict] = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "errors": {}, "counts": {}})
        a["calls"] += 1
        a["self_s"] += dur[i] - cover[i]
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            a["total_s"] += dur[i]
        info = s[4] or {}
        if "error" in info:
            a["errors"][info["error"]] = a["errors"].get(info["error"], 0) + 1
        for k, v in info.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                a["counts"][k] = a["counts"].get(k, 0) + v
    return agg


def _rate(num, secs):
    return num / secs if secs > 0 else 0.0


def layer_metrics(spans, commands) -> dict[str, float]:
    """Every per-layer metric of the traced pass; a layer the workload never
    reaches reads 0."""
    agg = _per_name(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": {},
             "counts": {}}

    def get(name):
        return agg.get(name, empty)

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    quad, sizes, flow = (get("numerics.quad"), get("levy_input.sample_sizes"),
                         get("simulator.flow_vec"))
    m = {
        "numerics.quad.calls": quad["calls"],
        "numerics.quad.panels": count("numerics.quad", "panels"),
        "numerics.quad.self_s": quad["self_s"],
        "numerics.quad.panels_per_s": _rate(count("numerics.quad", "panels"),
                                            quad["self_s"]),
        "numerics.quad.divergent": quad["errors"].get("Divergent", 0),
    }
    for layer in ("numerics.invert", "numerics.fit"):
        m[f"{layer}.calls"] = get(layer)["calls"]
        m[f"{layer}.self_s"] = get(layer)["self_s"]
    m["numerics.ode_flow.calls"] = get("numerics.ode_flow")["calls"]
    m["numerics.ode_flow.self_s"] = get("numerics.ode_flow")["self_s"]
    m["numerics.ode_flow.in_flow_vec"] = sum(
        1 for s in spans if s[0] == "numerics.ode_flow" and s[3] >= 0
        and spans[s[3]][0] == "simulator.flow_vec")
    draws = count("levy_input.sample_sizes", "draws")
    m.update({
        "levy_input.sample_sizes.draws": draws,
        "levy_input.sample_sizes.self_s": sizes["self_s"],
        "levy_input.sample_sizes.draws_per_s": _rate(draws, sizes["self_s"]),
        "levy_input.sample_jumps.calls": get("levy_input.sample_jumps")["calls"],
        "levy_input.sample_jumps.jumps": count("levy_input.sample_jumps", "jumps"),
        "levy_input.sample_jumps.self_s": get("levy_input.sample_jumps")["self_s"],
    })
    lanes = count("simulator.flow_vec", "lanes")
    m.update({
        "simulator.flow_vec.calls": flow["calls"],
        "simulator.flow_vec.lanes": lanes,
        "simulator.flow_vec.self_s": flow["self_s"],
        "simulator.flow_vec.lanes_per_s": _rate(lanes, flow["self_s"]),
    })
    ensembles = ("simulator.endpoint_ensemble", "simulator.grid_ensemble")
    for layer in ensembles:
        m[f"{layer}.paths"] = count(layer, "paths")
        m[f"{layer}.self_s"] = get(layer)["self_s"]
        m[f"{layer}.total_s"] = get(layer)["total_s"]
    m.update({
        "simulator.simulate_path.calls": get("simulator.simulate_path")["calls"],
        "simulator.simulate_path.jumps": count("simulator.simulate_path", "jumps"),
        "simulator.simulate_path.self_s": get("simulator.simulate_path")["self_s"],
        "simulator.ensemble.useful_ratio": _useful_ratio(spans, ensembles),
        "lyapunov.build_certificate.calls": get("lyapunov.build_certificate")["calls"],
    })
    for layer in ("lyapunov.build_certificate", "lyapunov.tail_envelopes",
                  "lyapunov.check_uniform", "lyapunov.tv_lower_rate"):
        m[f"{layer}.total_s"] = get(layer)["total_s"]
    m["classifier.classify.calls"] = get("classifier.classify")["calls"]
    m["classifier.classify.total_s"] = get("classifier.classify")["total_s"]
    for est in ("estimate_tail", "estimate_tv_decay", "estimate_wp_decay"):
        m[f"ergodicity_lab.{est}.total_s"] = get(f"ergodicity_lab.{est}")["total_s"]
        m[f"ergodicity_lab.{est}.self_s"] = get(f"ergodicity_lab.{est}")["self_s"]
    m["ergodicity_lab.wasserstein_1d.calls"] = get("ergodicity_lab.wasserstein_1d")["calls"]
    m["ergodicity_lab.wasserstein_1d.self_s"] = get("ergodicity_lab.wasserstein_1d")["self_s"]
    for command in commands:
        m[f"cli.{command}.total_s"] = get(f"cli.{command}")["total_s"]
    m["cli.io.self_s"] = get("cli.io")["self_s"]
    m["cli.io.bytes"] = count("cli.io", "bytes")
    return m


def _useful_ratio(spans, ensembles) -> float:
    """Expected real jumps (paths x retained rate x horizon) over the
    flow_vec lanes the ensembles stepped: computed, not counted."""
    expected = 0.0
    lanes = 0
    for s in spans:
        if s[0] in ensembles:
            info = s[4] or {}
            if "levy" in info:
                rate = info["levy"].restricted_rate(info["eps"])
                expected += info["paths"] * rate * info["horizon"]
        elif (s[0] == "simulator.flow_vec" and s[3] >= 0
              and spans[s[3]][0] in ensembles):
            lanes += (s[4] or {}).get("lanes", 0)
    return expected / lanes if lanes else 0.0


def warn_missing(rec: Recorder) -> None:
    if rec.missing:
        sys.stderr.write("perfbench: not traced (name not found): "
                         + ", ".join(rec.missing) + "\n")
