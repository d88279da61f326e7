"""The whole scenario schema against the CLI's contract, by Hypothesis.

The scenario strategy is built from the family tables of ``scenario`` and
their constructors' parameters, so a family or a parameter added there is
drawn here without an edit.  Numbers include edge values and non-finite
ones, and a block may lose a key, gain an unknown one or carry a list- or
dict-valued family name.  Every command runs in-process on a scenario
file; the path-drawing commands at small budgets.  Examples are
derandomized and their number fixed, so the suite is deterministic.
"""

import contextlib
import copy
import inspect
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from storagelab.cli import main
from storagelab.errors import StorageLabError
from storagelab.presets import load_preset
from storagelab.scenario import (
    INPUT_FAMILIES,
    JUMP_LAWS,
    MODULI,
    PHI_FAMILIES,
    RELEASE_FAMILIES,
    Scenario,
    ScenarioError,
    _spec,
)

EDGES = [0.0, -1.0, 1e-300, 1e300, 10**400, math.nan, math.inf, -math.inf,
         True, "1", None, [1.0], {"a": 1.0}]
# half below 1, as an index must be, half above, as a modulus' d must be
numbers = st.one_of(st.floats(0.05, 0.95), st.floats(1.0, 4.0))
# positive levels stop at 1e-3, where the bias of the discarded small jumps
# is far below what laplace resolves: flagging a coarser level is its job
truncation = st.sampled_from([1e-6, 1e-4, 1e-3])


def _family(table, key="family", extra=None):
    """A block of one of ``table``'s families: the required parameters of
    its constructor and a subset of its optional ones, plus ``extra`` keys."""
    def block(name):
        required, optional = _spec(table[name])
        return st.fixed_dictionaries(
            {key: st.just(name)} | {k: numbers for k in required},
            optional={k: numbers for k in optional} | (extra or {}))
    return st.sampled_from(sorted(table)).flatmap(block)


def _grid(low, min_size=1, unique=True):
    return st.lists(st.floats(low, 50.0), min_size=min_size, max_size=6,
                    unique=unique).map(sorted)


# knot pairs: mostly increasing levels with falling tails, else edge values
_KNOTS = st.one_of(
    *[st.lists(st.floats(0.1, 8.0), min_size=4, max_size=10, unique=True).map(
        lambda xs: sorted(xs[::2]) + sorted(xs[1::2], reverse=True))] * 3,
    st.lists(st.one_of(numbers, st.sampled_from(EDGES)), min_size=4,
             max_size=8))
INPUTS = st.one_of(
    _family(INPUT_FAMILIES, extra={"truncation_eps": truncation}),
    st.fixed_dictionaries(
        {"family": st.just("compound_poisson"), "rate": numbers,
         "jump": _family(JUMP_LAWS, "law")},
        optional={"truncation_eps": truncation}),
    st.builds(
        lambda knots, extension: {
            "family": "tabulated", "knots_u": knots[:len(knots) // 2],
            "knots_tail": knots[len(knots) // 2:], "extension": extension},
        _KNOTS, st.tuples(st.sampled_from(["power", "exp"]), numbers).map(list)),
)
PHIS = _family(PHI_FAMILIES)
GRIDS = st.fixed_dictionaries({}, optional={
    "probe_u": _grid(0.1, min_size=3), "t_grid": _grid(0.0, unique=False),
    "u_grid": _grid(0.1)})


def _dicts(node):
    """Every dict in ``node``, ``node`` included when it is one."""
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _dicts(value)


@st.composite
def _with_a_fault(draw, scenarios):
    """A drawn scenario, one in four with one fault: a value replaced by an
    edge value (a non-finite number, a wrong type, a list- or dict-valued
    family name), a key dropped, or an unknown key."""
    scenario = copy.deepcopy(draw(scenarios))
    if not draw(st.sampled_from([False, False, False, True])):
        return scenario
    block = draw(st.sampled_from(list(_dicts(scenario))))
    fault = draw(st.sampled_from(["edge", "edge", "drop", "unknown"]))
    if fault == "unknown" or not block:
        block["bogus"] = 1.0
        return scenario
    key = draw(st.sampled_from(sorted(block)))
    if fault == "edge":
        block[key] = draw(st.sampled_from(EDGES))
    else:
        del block[key]
    return scenario


def scenarios(budgets):
    return _with_a_fault(st.fixed_dictionaries(
        {"scenario_schema": st.just(1), "name": st.just("fuzz"),
         "input": INPUTS, "release": _family(RELEASE_FAMILIES),
         "phi": st.one_of(PHIS, PHIS, PHIS, st.none()), "budgets": budgets},
        optional={"seed": st.sampled_from([0, 7]),
                  "beta_modulus": _family(MODULI, extra={
                      "Gamma": numbers, "kappa": numbers}),
                  "grids": GRIDS,
                  "tolerances": st.fixed_dictionaries({}, optional={
                      "decision_margin": numbers, "epsilon": numbers})}))


def _preset(name, **blocks):
    return json.loads(json.dumps(load_preset(name).raw)) | blocks


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def _run(command, scenario):
    """main on ``scenario`` written to a file: the exit code, and stderr with
    the warnings written to it as the interpreter writes them."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _show
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


def _keeps_the_contract(code, err):
    """Exit 0, 1 or 2, never a traceback, and a nonzero exit's stderr is
    exactly one JSON line naming its kind."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["error"] == ("usage", "criterion")[code - 1]


# a concentrated input, whose sample spread of e^(-lam A) missed its rare
# small values: |z| read 8.68 and 27.65
LAPLACE_FIXED_JUMPS = _preset("constant-mm1", input={
    "family": "compound_poisson", "rate": 20, "jump": {"law": "fixed", "size": 2.0}})
LAPLACE_GAMMA = _preset("gamma-linear", input={
    "family": "gamma", "shape": 5, "rate": 0.06})
# an invalid certificate: certify writes it, then exits 2
INVALID_CERTIFICATE = _preset(
    "power-uniform", phi={"family": "linear", "c": 0.5},
    grids={"probe_u": [0.1, 0.2, 0.4]})
NAN_KNOT = _preset("shotnoise-gamma", input={
    "family": "tabulated", "knots_u": [0.5, 1, math.nan, 4],
    "knots_tail": [1.0, 0.5, 0.2, 0.05], "extension": ["power", 1.5]})
# a fitted TV exponent outside the bounds at a narrow tolerance
COMPARE_FAIL = _preset("sharp-constant", tolerances={"epsilon": 0.001})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from([
    ("input", INPUT_FAMILIES, "family"), ("input.jump", JUMP_LAWS, "law"),
    ("release", RELEASE_FAMILIES, "family"), ("phi", PHI_FAMILIES, "family"),
    ("beta_modulus", MODULI, "family"),
]).flatmap(lambda t: st.tuples(st.just(t), _family(t[1], t[2]))))
def test_a_block_builds_the_model_its_keys_name(case):
    # the block builds exactly when its constructor takes its values as
    # keywords
    (where, table, key), block = case
    raw = _preset("constant-mm1")
    if where == "input.jump":
        raw["input"]["jump"] = block
    else:
        raw[where] = block
    build = table[block[key]]
    try:
        expected = build(**{k: v for k, v in block.items() if k != key})
    except (ValueError, StorageLabError):
        with pytest.raises(ScenarioError, match=f"^{where.split('.')[0]}: "):
            Scenario.from_dict(raw)
        return
    scen = Scenario.from_dict(raw)
    model = (scen.levy.jump if where == "input.jump" else
             {"input": scen.levy, "release": scen.release, "phi": scen.phi,
              "beta_modulus": scen.modulus}[where])
    assert model == expected
    # the keys given, the constructor's defaults for the others: not every
    # field is a key (linear sets a = 1)
    for p in inspect.signature(build).parameters.values():
        assert getattr(model, p.name) == block.get(p.name, p.default), p.name


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["classify", "certify", "predict", "report", "laplace"]),
       scenarios(st.just({"n_paths": 200})))
@example("laplace", LAPLACE_FIXED_JUMPS)
@example("laplace", LAPLACE_GAMMA)
@example("certify", INVALID_CERTIFICATE)
@example("classify", NAN_KNOT)
def test_analytic_commands_keep_the_exit_contract(command, scenario):
    code, err = _run(command, scenario)
    _keeps_the_contract(code, err)
    if command == "laplace":  # |z| <= 4 on every scenario it accepts
        assert code != 2, err


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["simulate", "tail", "converge-tv", "converge-wp",
                        "compare"]),
       scenarios(st.fixed_dictionaries({
           "n_paths": st.sampled_from([200, 20, 1000, 1]),
           "horizon": st.sampled_from([5.0, 30.0])})))
@example("compare", COMPARE_FAIL)
def test_path_commands_keep_the_exit_contract(command, scenario):
    _keeps_the_contract(*_run(command, scenario))
