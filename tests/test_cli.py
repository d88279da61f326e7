"""Scenario schema, preset catalog, and CLI behaviour."""

import json
import math
import re
import signal
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from storagelab.classifier import classify
from storagelab import cli
from storagelab.cli import _resolve_scenario, build_parser, main, write_csv
from storagelab.lyapunov import build_certificate
from storagelab.presets import load_preset, preset_names, preset_row
from storagelab.scenario import Scenario, ScenarioError

MINIMAL = {
    "scenario_schema": 1,
    "name": "tiny",
    "seed": 7,
    "input": {"family": "compound_poisson", "rate": 1.0,
              "jump": {"law": "exp", "mu": 1.0}},
    "release": {"family": "constant", "a": 2.0},
}

# a positive recurrent model with finite int_1^inf du / r(u), certified
# with a phi and probe grid on which the numeric ergodicity estimate fails
POWER_UNIFORM_REPRO = ["--set", 'phi={"family":"linear","c":0.5}',
                       "--set", "grids.probe_u=[0.1,0.2,0.4]"]
PHI_CASES = [(name, []) for name in preset_names()
             if load_preset(name).phi is not None]
PHI_CASES.append(("power-uniform", POWER_UNIFORM_REPRO))


def _main_capped(argv, seconds):
    """main(argv), failing at an alarm after ``seconds`` instead of hanging
    the suite."""
    def hang(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestScenario:
    def test_roundtrip_lossless(self):
        again = Scenario.from_json(json.dumps(MINIMAL))
        assert again.raw == MINIMAL
        assert again == Scenario.from_dict(MINIMAL)

    def test_unknown_top_key_rejected(self):
        bad = dict(MINIMAL, extra=1)
        with pytest.raises(ScenarioError, match="unknown keys"):
            Scenario.from_dict(bad)

    def test_unknown_nested_key_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["release"]["typo"] = 3
        with pytest.raises(ScenarioError, match="unknown keys"):
            Scenario.from_dict(bad)

    def test_missing_field_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        del bad["input"]["rate"]
        with pytest.raises(ScenarioError, match="missing key"):
            Scenario.from_dict(bad)

    def test_schema_version_pinned(self):
        bad = dict(MINIMAL, scenario_schema=2)
        with pytest.raises(ScenarioError, match="scenario_schema"):
            Scenario.from_dict(bad)

    def test_type_checked(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["seed"] = "seven"
        with pytest.raises(ScenarioError, match="integer"):
            Scenario.from_dict(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_number_rejected(self, value):
        bad = json.loads(json.dumps(MINIMAL))
        bad["input"]["jump"]["mu"] = value
        with pytest.raises(ScenarioError, match="input.jump.mu: expected a finite"):
            Scenario.from_dict(bad)

    @pytest.mark.parametrize("block, key, low, refused, message", [
        (None, "seed", 0, -1, "scenario.seed: expected an integer >= 0"),
        ("input", "truncation_eps", 1e-300, 0.0,
         "input.truncation_eps: expected a finite positive number"),
        ("budgets", "n_paths", 1, 0, "budgets.n_paths: expected an integer >= 1"),
        ("budgets", "horizon", 1e-300, 0.0,
         "budgets.horizon: expected a finite positive number"),
        ("tolerances", "epsilon", 1e-300, 0.0,
         "tolerances.epsilon: expected a finite positive number"),
        ("beta_modulus", "Gamma", 1e-300, 0.0,
         "beta_modulus.Gamma: expected a finite positive number"),
        ("beta_modulus", "kappa", 1e-300, 0.0,
         "beta_modulus.kappa: expected a finite positive number"),
    ], ids=["seed", "truncation_eps", "n_paths", "horizon", "epsilon", "Gamma",
            "kappa"])
    def test_bounded_key_refused_at_its_bound(self, block, key, low, refused,
                                              message):
        def with_value(value):
            d = json.loads(json.dumps(MINIMAL))
            d["beta_modulus"] = {"family": "power", "d": 1.0}
            (d if block is None else d.setdefault(block, {}))[key] = value
            return d
        Scenario.from_dict(with_value(low))
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            Scenario.from_dict(with_value(refused))

    @pytest.mark.parametrize("block, message", [
        ({"family": "x"}, "'x'"), ({"family": "x", "d": "a"}, "'x'"),
        ({"d": 1.0}, "None"), ({"family": 3, "d": 1.0}, "3"),
    ], ids=["unknown", "unknown-bad-key", "missing", "not-a-string"])
    def test_modulus_names_its_family_first(self, block, message):
        with pytest.raises(ScenarioError, match=re.escape(
                f"beta_modulus: unknown family {message}") + "$"):
            Scenario.from_dict(dict(MINIMAL, beta_modulus=block))

    def test_defaults_filled(self):
        scen = Scenario.from_dict(MINIMAL)
        assert scen.tolerances["decision_margin"] == pytest.approx(0.05)
        assert scen.budgets["n_paths"] >= 1000
        assert scen.phi is None


class TestPresets:
    def test_all_presets_load(self):
        for name in preset_names():
            scen = load_preset(name)
            assert scen.name == name

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            load_preset("nope")

    def test_a_preset_raw_is_its_own_copy(self):
        # changing one scenario's raw leaves the catalog as it was
        raw = load_preset("constant-mm1").raw
        raw["grids"]["u_grid"].append(99.0)
        raw["seed"] = 1
        again = load_preset("constant-mm1")
        assert again.grids["u_grid"] == [0.5, 1.0, 2.0, 3.0, 4.0, 6.0]
        assert again.seed == 20260810

    @pytest.mark.parametrize("name", preset_names())
    def test_golden_row_labels(self, name, tmp_path):
        # `report` must reproduce the documented regime/rate/tail row
        out = tmp_path / "report"
        code = main(["report", f"preset:{name}", "--out", str(out)])
        assert code == 0
        row = (out / "row.csv").read_text().strip().splitlines()[-1].split(",")
        expected = preset_row(name)
        assert row[1] == expected["regime"]
        assert row[2] == expected["rate"]
        assert row[3] == expected["tail"]


class TestCli:
    def test_classify_exit_codes(self, tmp_path):
        assert main(["classify", "preset:power-heavy",
                     "--out", str(tmp_path / "a")]) == 0

    def test_usage_error_missing_file(self, tmp_path, capsys):
        code = main(["classify", str(tmp_path / "missing.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"

    def test_certify_without_phi_is_usage_error(self, tmp_path, capsys):
        code = main(["certify", "preset:plateau-null", "--out", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_report_labels_no_rate_for_constant1(self, tmp_path):
        # constant1 promises a TV bound of 1 at every t: no decay to label
        out = tmp_path / "report"
        assert main(["report", "preset:constant-mm1", "--out", str(out),
                     "--set", 'phi={"family":"constant1"}']) == 0
        row = (out / "row.csv").read_text().splitlines()[-1]
        assert row == "constant-mm1,PositiveRecurrent,-,exponential"

    def test_criterion_failure_exit_2(self, tmp_path, capsys):
        # an over-ambitious rate function violates the jump-moment condition
        code = main(["certify", "preset:constant-mm1", "--out", str(tmp_path),
                     "--set", "phi.c=2.5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "criterion"

    @pytest.mark.parametrize("command,preset,override", [
        ("certify", "constant-mm1", "grids.probe_u=[]"),
        ("certify", "constant-mm1", "grids.probe_u=[1e4,1e3,1e2]"),
        ("tail", "constant-mm1", "grids.u_grid=[]"),
        ("converge-tv", "shotnoise-gamma", "grids.t_grid=[]"),
        ("predict", "constant-mm1", "grids.t_grid=[-1]"),
        ("tail", "constant-mm1", "grids.u_grid=[4.0,1.0,2.0]"),
        ("simulate", "constant-mm1", "budgets.horizon=-1"),
        ("tail", "constant-mm1", "budgets.n_paths=-3"),
        ("predict", "constant-mm1", "budgets.horizon=-1"),
    ], ids=["probe-empty", "probe-decreasing", "u-empty", "t-empty",
            "t-negative", "u-unsorted", "horizon-negative", "paths-negative",
            "predict-horizon-negative"])
    def test_malformed_grid_is_usage_error(self, command, preset, override,
                                           tmp_path, capsys):
        code = main([command, f"preset:{preset}", "--out", str(tmp_path),
                     "--set", override])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, preset, override, artifact", [
        ("certify", "constant-mm1", "tolerances.epsilon=0", "certificate.json"),
        ("laplace", "constant-mm1", "seed=-1", "laplace.csv"),
        ("certify", "constant-mm1", "input.jump.mu=NaN", "certificate.json"),
        ("classify", "constant-mm1", "input.rate=-1", "classify.json"),
        ("classify", "power-sharp", "phi.a=0", "classify.json"),
        ("classify", "gamma-linear", "beta_modulus.d=0.5", "classify.json"),
        ("converge-wp", "shotnoise-gamma",
         'beta_modulus={"family":"power","d":1.0,"Gamma":0}', "wp.csv"),
        ("classify", "gamma-linear", "beta_modulus.kappa=0", "classify.json"),
        ("tail", "gamma-linear", "input.truncation_eps=0", "tail.csv"),
        ("simulate", "gamma-linear", "input.truncation_eps=-1", "paths.csv"),
        # an integer beyond the float range: an OverflowError traceback
        ("classify", "constant-mm1", f"grids.u_grid=[1,{10**400}]",
         "classify.json"),
    ], ids=["epsilon-zero", "seed-negative", "mu-nan", "input-rate-negative",
            "phi-a-zero", "modulus-d-below-1", "modulus-gamma-zero",
            "modulus-kappa-zero", "truncation-eps-zero",
            "truncation-eps-negative", "grid-huge-integer"])
    def test_bad_number_is_usage_error(self, command, preset, override,
                                       artifact, tmp_path, capsys):
        code = main([command, f"preset:{preset}", "--out", str(tmp_path),
                     "--set", override])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert override.split("=")[0].split(".")[-1] in err["message"]
        assert not (tmp_path / artifact).exists()

    @pytest.mark.parametrize("extension", [
        "", ',"extension":["power","1.5"]', ',"extension":["power",1.5,2]'],
        ids=["missing", "text-exponent", "three-fields"])
    def test_tabulated_input_needs_its_extension(self, extension, tmp_path,
                                                 capsys):
        # every command reads the tail past the last knot
        code = main(["classify", "preset:shotnoise-gamma",
                     "--out", str(tmp_path / "o"), "--set",
                     'input={"family":"tabulated","knots_u":[0.5,1,2,4],'
                     f'"knots_tail":[1.0,0.5,0.2,0.05]{extension}}}'])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        err = json.loads(lines[-1])
        assert len(lines) == 1 and err["error"] == "usage"
        assert "input" in err["message"] and "extension" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("knots", [
        '"knots_u":[0.5,1,NaN,4],"knots_tail":[1.0,0.5,0.2,0.05]',
        '"knots_u":[0.5,1,2,4],"knots_tail":[1.0,0.5,NaN,0.05]',
        '"knots_u":["0.5",true,"2",4],"knots_tail":[1.0,0.5,0.2,0.05]',
        '"knots_u":[0.5,1,2,4],"knots_tail":[1.0,0.5,"0.2",false]'],
        ids=["knots_u", "knots_tail", "strings-bools-u", "strings-bools-tail"])
    def test_tabulated_knots_must_be_finite(self, knots, tmp_path, capsys):
        # a NaN passes the order checks, which compare it as False: the run
        # failed later at a quadrature node; a numeral string or a bool
        # converted to a float and ran
        code = main(["classify", "preset:shotnoise-gamma",
                     "--out", str(tmp_path / "o"), "--set",
                     f'input={{"family":"tabulated",{knots},'
                     '"extension":["power",1.5]}'])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        err = json.loads(lines[-1])
        assert len(lines) == 1 and err["error"] == "usage"
        assert err["message"] == "input: knots must be finite numbers"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, artifact", [
        (["certify", "preset:power-uniform", *POWER_UNIFORM_REPRO],
         "certificate.json"),
        (["compare", "preset:sharp-constant",
          "--set", "tolerances.epsilon=0.001"], "compare.json"),
        # a truncation this coarse biases the simulated law: |z| 31
        (["laplace", "preset:gamma-linear",
          "--set", "input.truncation_eps=1.0"], "laplace.csv"),
    ], ids=["certify-invalid", "compare-fail", "laplace-z"])
    def test_exit_2_writes_its_output_then_one_json_line(self, argv, artifact,
                                                         tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["error"], err["type"]) == ("criterion", "HypothesisFailed")
        assert (tmp_path / artifact).exists()

    @pytest.mark.parametrize("argv, expected, artifact", [
        (["converge-tv", "preset:constant-mm1", "--x0", "10",
          "--set", 'grids={"t_grid":[1.0,2.0,3.0,3.0]}',
          "--set", "budgets.n_paths=2000"], 2, "tv.csv"),
        (["converge-wp", "preset:shotnoise-gamma",
          "--set", 'grids={"t_grid":[0.0,0.0,0.0,1.0]}',
          "--set", "budgets.n_paths=500"], 0, "wp.csv"),
    ], ids=["tv-repeated-time", "wp-zero-times"])
    def test_fit_needs_two_distinct_positive_times(self, argv, expected,
                                                   artifact, tmp_path, capsys):
        # a curve whose fit mask keeps fewer than two distinct times > 0 has
        # no fit: converge-tv stops at its noise floor, converge-wp writes
        code = main(argv + ["--out", str(tmp_path)])
        assert code == expected
        err = capsys.readouterr().err
        if expected == 2:
            assert json.loads(err.splitlines()[-1])["type"] == "NoiseFloorReached"
            assert not (tmp_path / artifact).exists()
        else:
            assert err == "" and (tmp_path / artifact).exists()

    @pytest.mark.parametrize("n_paths", [5, 999])
    def test_tail_below_sample_floor_is_usage_error(self, n_paths, tmp_path,
                                                    capsys):
        code = main(["tail", "preset:constant-mm1", "--out", str(tmp_path),
                     "--set", f"budgets.n_paths={n_paths}"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert "at least 1000 paths" in err["message"]
        assert not (tmp_path / "tail.csv").exists()

    def test_tail_at_sample_floor_runs(self, tmp_path):
        assert main(["tail", "preset:constant-mm1", "--out", str(tmp_path),
                     "--set", "budgets.n_paths=1000"]) == 0
        assert (tmp_path / "tail.csv").exists()

    def test_predict_refuses_invalid_certificate(self, tmp_path, capsys):
        # phi = linear(1.5) passes (C3) but has drift margin -1
        code = main(["predict", "preset:constant-mm1", "--out", str(tmp_path),
                     "--set", "phi.c=1.5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "criterion"
        assert err["message"] == "certificate is not valid"
        assert not (tmp_path / "predictions.csv").exists()

    def test_override_applies(self, tmp_path):
        out = tmp_path / "o"
        code = main(["classify", "preset:constant-mm1", "--out", str(out),
                     "--set", "release.a=0.5"])
        assert code == 0
        payload = json.loads((out / "classify.json").read_text())
        assert payload["verdict"] == "Transient"  # drain now below the mean

    def test_scenario_file_and_determinism(self, tmp_path):
        scen_path = tmp_path / "scen.json"
        scen = dict(MINIMAL)
        scen["phi"] = {"family": "linear", "c": 0.5}
        scen["budgets"] = {"n_paths": 2000, "horizon": 10.0}
        scen_path.write_text(json.dumps(scen))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["tail", str(scen_path), "--out", str(out_a)]) == 0
        assert main(["tail", str(scen_path), "--out", str(out_b)]) == 0
        assert (out_a / "tail.csv").read_bytes() == (out_b / "tail.csv").read_bytes()

    def test_golden_predictions_file(self, tmp_path):
        # byte-exact against the committed golden artifact
        out = tmp_path / "gold"
        assert main(["predict", "preset:constant-mm1", "--out", str(out)]) == 0
        golden = Path(__file__).parent / "golden" / "constant-mm1-predictions.csv"
        assert (out / "predictions.csv").read_bytes() == golden.read_bytes()

    def test_csv_schema_line(self, tmp_path):
        out = tmp_path / "t"
        assert main(["predict", "preset:constant-mm1", "--out", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "# csv_schema=1"
        assert lines[1] == "u_or_t,value,kind"
        # scientific notation with 9 significant digits
        first_val = lines[2].split(",")[1]
        assert "e" in first_val and len(first_val.split("e")[0]) == 11

    def test_simulate_events_csv(self, tmp_path):
        out = tmp_path / "ev"
        code = main(["simulate", "preset:constant-mm1", "--out", str(out),
                     "--mode", "events", "--paths", "3",
                     "--set", "budgets.horizon=5.0"])
        assert code == 0
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[1] == "path_id,t,jump_size,x_after"
        assert len(lines) > 3
        rows = [line.split(",") for line in lines[2:]]
        ids = [int(r[0]) for r in rows]
        assert sorted(set(ids)) == [0, 1, 2] and ids == sorted(ids)
        # each path opens with its start at t = 0
        firsts = [r for i, r in enumerate(rows) if i == 0 or ids[i - 1] != ids[i]]
        assert all(float(r[1]) == float(r[2]) == float(r[3]) == 0.0
                   for r in firsts)

    @pytest.mark.parametrize("command", ["simulate", "converge-tv",
                                         "converge-wp", "compare"])
    @pytest.mark.parametrize("x0", ["-3", "nan", "inf"])
    def test_start_outside_the_state_space_is_usage_error(
            self, command, x0, monkeypatch, tmp_path, capsys):
        def drawn(*args, **kwargs):
            raise AssertionError("paths were drawn")

        for name in ("grid_ensemble", "event_ensemble", "estimate_tv_decay",
                     "estimate_wp_decay"):
            monkeypatch.setattr(cli, name, drawn)
        code = main([command, "preset:shotnoise-gamma", "--x0", x0,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage" and "--x0" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("p", ["0.5", "0", "nan", "inf"])
    def test_wasserstein_order_below_one_is_usage_error(self, p, monkeypatch,
                                                        tmp_path, capsys):
        def drawn(*args, **kwargs):
            raise AssertionError("paths were drawn")

        monkeypatch.setattr(cli, "estimate_wp_decay", drawn)
        code = main(["converge-wp", "preset:shotnoise-gamma", "--p", p,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage" and "--p" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, preset, override, extra", [
        ("simulate", "constant-mm1", "input.rate=1e300", ["--paths", "2"]),
        ("simulate", "constant-mm1", "budgets.horizon=1e300", ["--paths", "2"]),
        ("laplace", "constant-mm1", "input.rate=1e300", []),
        ("tail", "shotnoise-gamma", "input.rate=1e9",
         ["--set", "budgets.n_paths=1000"]),
        ("converge-wp", "shotnoise-gamma", "input.rate=1e300",
         ["--set", "budgets.n_paths=200"]),
        ("converge-tv", "shotnoise-gamma", "input.rate=1e300", []),
        ("compare", "power-sharp", "input.rate=1e300", []),
        # the ensemble alone is 6.3e6 jumps, 1.06e7 with the reference's
        ("compare", "power-sharp", "budgets.n_paths=35000", []),
        # an input with drift reads the tail off the reference: 1.25e7
        # jumps, where its n_paths time units would hold 5.2e6
        ("tail", "gamma-linear", "budgets.n_paths=600000", []),
    ], ids=["simulate-rate", "simulate-horizon", "laplace-rate", "tail-rate",
            "converge-wp-rate", "converge-tv-rate", "compare-rate",
            "compare-reference", "tail-reference"])
    def test_unbounded_work_is_usage_error(self, command, preset, override,
                                           extra, tmp_path, capsys):
        # refused before any draw: a hang fails at the alarm, not the suite
        code = _main_capped([command, f"preset:{preset}", "--set", override,
                             "--out", str(tmp_path / "o")] + extra, 15)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage" and "jumps" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_tail_work_counts_the_burn_in(self, tmp_path, capsys):
        # with no phi each of the 16 chains burns a fifth of its window:
        # 4.5e6 time units and 16 burn-ins of 56 250 hold 1.08e7 jumps at
        # rate 2, past the cap, though the window alone holds 9.0e6
        raw = json.loads(json.dumps(load_preset("shotnoise-gamma").raw))
        del raw["phi"]
        raw["budgets"]["n_paths"] = 4_500_000
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(raw))
        code = _main_capped(["tail", str(path), "--out", str(tmp_path / "o")],
                            15)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage" and "1.08e+07 jumps" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, error", [
        # the rate overflows past u = 1: NaN integrands in the certificate
        (["certify", "preset:power-sharp", "--set", "release.beta=1e300"],
         "NonFiniteEvaluation"),
        # ... and the power flow's drain time overflows
        (["simulate", "preset:power-sharp", "--set", "release.beta=1e300",
          "--paths", "2"], "OverflowError"),
        # the lower-rate envelope lies beyond the inversion's e^600 bracket
        (["compare", "preset:power-sharp", "--set", "release.k=1e-300",
          "--set", "budgets.n_paths=1000"], "NotBracketed"),
    ], ids=["certify-beta", "simulate-beta", "compare-k"])
    def test_out_of_range_scenario_is_usage_error(self, argv, error, tmp_path,
                                                  capsys):
        code = _main_capped(argv + ["--out", str(tmp_path / "o")], 10)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage" and err["type"] == error
        assert not (tmp_path / "o").exists()

    def test_stiff_ramp_simulates(self, tmp_path, capsys):
        # a ramp slope of 1e301 against the compensator drift: the drain
        # clock holds every lane at its equilibrium, about 1e-305, with no
        # warning on stderr
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _main_capped(["simulate", "preset:power-heavy", "--set",
                                 "release.k=1e300", "--paths", "2",
                                 "--out", str(out)], 10)
        assert code == 0 and capsys.readouterr().err == ""
        xs = [float(r.split(",")[2]) for r in
              (out / "paths.csv").read_text().splitlines()[2:]]
        assert xs and all(0.0 <= x < 1e-300 for x in xs)

    def test_error_stderr_is_one_json_line(self, tmp_path, capsys):
        # the overflowing rate raises numpy RuntimeWarnings before the NaN
        # integrand; a run that ends in an error drops them
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["certify", "preset:power-sharp", "--set",
                         "release.beta=1e300", "--out", str(tmp_path / "o")])
        assert code == 1 and seen == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "NonFiniteEvaluation"

    @pytest.mark.parametrize("command", ["predict", "certify"])
    def test_levels_below_the_clock_origin_are_finite(self, command, tmp_path,
                                                        capsys):
        # G(u) + 1 < 0 at u = 1e-9 and 1e-7 for power-sharp's release: the
        # profile reads Vbar = 1 there, so no value is NaN and nothing warns
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main([command, "preset:power-sharp", "--set",
                         'grids={"u_grid":[1e-9,1e-7,0.5]}', "--out", str(out)])
        assert code == 0 and seen == [] and capsys.readouterr().err == ""
        if command == "predict":
            rows = (out / "predictions.csv").read_text().splitlines()[2:]
            values = [float(r.split(",")[1]) for r in rows]
        else:
            def refuse(name):
                raise ValueError(f"certificate.json holds {name}")

            cert = json.loads((out / "certificate.json").read_text(),
                              parse_constant=refuse)
            values = [v for env in cert["tail_envelopes"].values()
                      for v in env["values"].values()]
        assert len(values) >= 3 and all(math.isfinite(v) for v in values)

    def test_probes_below_the_clock_origin_are_a_criterion_refusal(
            self, tmp_path, capsys):
        # the profile is flat at these probes, so they have no drift and
        # their ratios are +inf: an invalid certificate (exit 2), not a NaN
        # integrand (exit 1)
        out = tmp_path / "o"
        code = main(["certify", "preset:power-sharp", "--set",
                     'grids={"probe_u":[1e-9,1e-8,1e-7]}', "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0])["error"] == "criterion"
        ratios = json.loads((out / "certificate.json").read_text())["ratios"]
        assert ratios == [math.inf] * 3

    def test_warnings_of_a_run_that_returns_are_shown(self, monkeypatch,
                                                       tmp_path, capsys):
        def warn_then(result):
            def command(scen, out, args):
                warnings.warn("from the command", RuntimeWarning)
                if isinstance(result, Exception):
                    raise result
                return result
            return command

        for result, shown in ((0, 1), (2, 1), (ScenarioError("bad"), 0)):
            monkeypatch.setitem(cli._COMMANDS, "classify", warn_then(result))
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                main(["classify", "preset:plateau-null",
                      "--out", str(tmp_path / "o")])
            assert [str(w.message) for w in seen] == ["from the command"] * shown
        assert json.loads(capsys.readouterr().err)["message"] == "bad"

    def test_compare_refuses_out_of_range_release_before_drawing(
            self, monkeypatch, tmp_path, capsys):
        def drawn(*args, **kwargs):
            raise AssertionError("the TV curve was drawn")

        monkeypatch.setattr(cli, "estimate_tv_decay", drawn)
        code = main(["compare", "preset:power-sharp", "--set",
                     "release.k=1e-300", "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["type"] == "NotBracketed"

    def test_tiny_rate_simulates(self, tmp_path):
        # a gamma input of rate 1e-300 has a finite proposal rate and a zero
        # compensator drift (1 - e^{-1e-304} is 0 in floats)
        out = tmp_path / "g"
        assert main(["simulate", "preset:gamma-linear", "--set",
                     "input.rate=1e-300", "--paths", "2", "--out", str(out)]) == 0
        assert (out / "paths.csv").exists()

    def test_simulate_rejects_no_paths(self, tmp_path, capsys):
        assert main(["simulate", "preset:constant-mm1", "--paths", "-3",
                     "--out", str(tmp_path / "neg")]) == 1
        assert "at least one path" in capsys.readouterr().err
        # --paths 0 is not "the full budget"
        assert main(["simulate", "preset:shotnoise-gamma", "--paths", "0",
                     "--set", "budgets.n_paths=3",
                     "--out", str(tmp_path / "zero")]) == 1
        assert "at least one path" in capsys.readouterr().err
        assert not (tmp_path / "zero").exists()

    def test_context_certificate_failure_reads_as_no_phi(self, tmp_path):
        # phi = linear(2.0) violates (C3) on constant-mm1's pair; the TV
        # commands then run as if the scenario had no phi block
        overrides = ["--x0", "20", "--set", "budgets.n_paths=2000",
                     "--set", "grids.t_grid=[1,2,3,4,5,6,8,10]"]
        results = {}
        for tag, scen in (("lin2", dict(MINIMAL, phi={"family": "linear",
                                                      "c": 2.0})),
                          ("nophi", MINIMAL)):
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(scen))
            for command in ("converge-tv", "compare"):
                out = tmp_path / tag / command
                code = main([command, str(path), "--out", str(out)] + overrides)
                files = {f.name: f.read_bytes() for f in out.iterdir()}
                results.setdefault(tag, []).append((code, files))
        assert results["lin2"] == results["nophi"]
        assert [code for code, _ in results["lin2"]] == [0, 0]

    def test_compare_without_lower_bound(self, tmp_path):
        # the exponential-tail lower envelope underflows, so tv_lower_rate
        # fails F-monotone and compare reports no lower exponent
        out = tmp_path / "cmp"
        code = main(["compare", "preset:constant-mm1", "--x0", "20",
                     "--out", str(out), "--set", "budgets.n_paths=2000",
                     "--set", "grids.t_grid=[1,2,3,4,5,6,8,10]"])
        payload = json.loads((out / "compare.json").read_text())
        assert payload["predicted_lower"] is None
        assert code == (0 if payload["verdict"] == "PASS" else 2)

    def test_compare_with_an_envelope_past_the_float_range(self, tmp_path):
        # Pareto(0.8) input: tv_lower_rate's log grid reaches levels past the
        # floats, which fail F-monotone instead of raising OverflowError
        out = tmp_path / "pareto"
        code = main(["compare", "preset:power-sharp", "--set",
                     'input={"family":"compound_poisson","rate":1.0,'
                     '"jump":{"law":"pareto","alpha":0.8}}',
                     "--set", "budgets.n_paths=2000", "--out", str(out)])
        payload = json.loads((out / "compare.json").read_text())
        assert payload["predicted_lower"] is None
        assert code == (0 if payload["verdict"] == "PASS" else 2)

    def test_compare_power_heavy_is_a_regime_refusal(self, tmp_path, capsys):
        code = main(["compare", "preset:power-heavy", "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["type"] == "NotStationaryRegime"

    def test_laplace_command(self, tmp_path):
        out = tmp_path / "lp"
        code = main(["laplace", "preset:gamma-linear", "--out", str(out),
                     "--set", "budgets.n_paths=20000"])
        assert code == 0

    def test_env_out_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("STORAGELAB_OUT", str(target))
        assert main(["classify", "preset:plateau-null"]) == 0
        assert (target / "classify.json").exists()

    def test_out_flag_beats_env_out(self, tmp_path, monkeypatch):
        # the variable only replaces the default directory
        monkeypatch.setenv("STORAGELAB_OUT", str(tmp_path / "env-out"))
        flag = tmp_path / "flag-out"
        assert main(["classify", "preset:plateau-null", "--out", str(flag)]) == 0
        assert (flag / "classify.json").exists()
        assert not (tmp_path / "env-out").exists()

    def test_tail_reference_follows_the_model(self, tmp_path):
        # the closed-form column is the tail of the model that ran, whatever
        # the preset's name: Gamma(lam / b, mu) under a linear drain, so
        # Gamma(2, 1) for the preset and Gamma(1, 1) = Exp(1) at b = 2; a
        # jump law without a closed form leaves the column empty
        def reference(name, override):
            out = tmp_path / name
            assert main(["tail", "preset:shotnoise-gamma", "--out", str(out),
                         "--set", "budgets.n_paths=2000",
                         "--set", override]) == 0
            rows = (out / "tail.csv").read_text().splitlines()[2:]
            return [row.split(",")[3] for row in rows]

        u = load_preset("shotnoise-gamma").grids["u_grid"]
        kept = reference("seed", "seed=7")
        assert [float(r) for r in kept] == pytest.approx(
            [(1.0 + x) * math.exp(-x) for x in u], rel=1e-9)
        b2 = reference("b2", "release.b=2.0")
        assert [float(r) for r in b2] == pytest.approx(
            [math.exp(-x) for x in u], rel=1e-9)
        fixed = reference("fixed", 'input.jump={"law":"fixed","size":1.0}')
        assert fixed == [""] * len(u)

    def test_tail_level_never_exceeded_is_empty(self, tmp_path):
        # gamma-linear's draws stay below u = 8: those levels carry no
        # estimate, so estimate and stderr are empty, not 0 with stderr 0
        assert main(["tail", "preset:gamma-linear", "--out", str(tmp_path)]) == 0
        rows = [row.split(",") for row in
                (tmp_path / "tail.csv").read_text().splitlines()[2:]]
        assert [float(u) for u, *_ in rows] == load_preset("gamma-linear").grids["u_grid"]
        for u, estimate, stderr, _ in rows:
            if float(u) >= 8.0:
                assert (estimate, stderr) == ("", "")
            else:
                assert float(estimate) > 0.0 and float(stderr) > 0.0

    def test_wp_reference_needs_the_contraction(self, tmp_path, capsys):
        # a constant drain fails r(u) - r(v) <= -Gamma (v - u): wp.csv gets
        # no reference column, while shotnoise-gamma's affine drain keeps it
        def header(preset, *overrides):
            out = tmp_path / preset
            args = ["converge-wp", f"preset:{preset}", "--out", str(out),
                    "--set", "budgets.n_paths=2000"]
            for override in overrides:
                args += ["--set", override]
            assert main(args) == 0
            return (out / "wp.csv").read_text().splitlines()[1]

        assert header("constant-mm1", 'beta_modulus={"family":"power",'
                      '"d":1.0,"Gamma":5.0}') == "t,estimate,stderr"
        assert "no reference column" in capsys.readouterr().out
        assert header("shotnoise-gamma") == "t,estimate,stderr,reference"

    def test_wp_at_few_paths_runs_without_warnings(self, tmp_path, capsys):
        # at budgets.n_paths <= 8 the reference still has two lanes, so the
        # noise floor compares two halves that are not empty
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["converge-wp", "preset:shotnoise-gamma", "--set",
                         "budgets.n_paths=4", "--out", str(tmp_path / "o")])
        assert code == 0 and seen == []
        assert capsys.readouterr().err == ""

    def test_simulate_grid_needs_a_time_within_the_horizon(self, tmp_path,
                                                           capsys):
        # constant-mm1's first t_grid time lies past a horizon of 1
        args = ["simulate", "preset:constant-mm1", "--paths", "3",
                "--set", "budgets.horizon=1"]
        assert main(args + ["--out", str(tmp_path / "grid")]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"
        assert not (tmp_path / "grid").exists()
        assert main(args + ["--mode", "events",
                            "--out", str(tmp_path / "events")]) == 0
        assert (tmp_path / "events" / "events.csv").exists()

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        args = ["simulate", "preset:constant-mm1", "--paths", "2",
                "--set", "budgets.horizon=5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--set", "seed=3", "--out", str(tmp_path / "b")]) == 0
        assert main(args + ["--out", str(tmp_path / "c")]) == 0
        paths = {k: (tmp_path / k / "paths.csv").read_bytes() for k in "abc"}
        assert paths["c"] == paths["a"] != paths["b"]
        assert build_parser().parse_args(args).overrides == [
            "budgets.horizon=5"]
        assert main(["classify", "preset:plateau-null", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_threads_flag_rejected(self, capsys):
        # removed flags: --threads, and tail's --method (the input picks it)
        for argv in (["classify", "preset:plateau-null", "--threads", "2"],
                     ["tail", "preset:constant-mm1", "--method", "endpoint"]):
            assert main(argv) == 2
            assert (f"unrecognized arguments: {argv[2]}"
                    in capsys.readouterr().err)

    def test_write_csv_formats(self, tmp_path):
        # one conversion per column kind: an integer plain, a float %.9e,
        # text as it is, whatever the values
        path = tmp_path / "x.csv"
        write_csv(path, ["i", "f", "s"], [
            (np.array([1, -7, 10**18]), np.array([0.5, -math.inf, -0.0]),
             np.array(["a", "", "nan"])),
            ([3], [1e-300], ["b c"])])
        assert path.read_text().splitlines() == [
            "# csv_schema=1", "i,f,s", "1,5.000000000e-01,a",
            "-7,-inf,", "1000000000000000000,-0.000000000e+00,nan",
            "3,1.000000000e-300,b c"]

    def test_write_csv_empty_reference(self, tmp_path):
        # a curve with no reference writes that column as empty fields
        path = tmp_path / "c.csv"
        cli._write_curve(path, "u", np.array([1.0, 2.0]), np.array([0.5, 0.25]),
                         np.array([0.01, 0.02]))
        assert path.read_text().splitlines()[1:] == [
            "u,estimate,stderr,reference",
            "1.000000000e+00,5.000000000e-01,1.000000000e-02,",
            "2.000000000e+00,2.500000000e-01,2.000000000e-02,"]

    @pytest.mark.parametrize("block", [3, 1024])
    def test_write_csv_blocks_cut_short(self, tmp_path, monkeypatch, block):
        # blocks of any length, each written in writes of _CSV_BLOCK rows and
        # a last write cut short, read as one row per line in order
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        gen = np.random.default_rng(5)
        sizes = [2500, 0, 7, 1]
        blocks = [(np.arange(n), gen.exponential(1.0, n),
                   np.array([f"p{i % 3}" for i in range(n)])) for n in sizes]
        path = tmp_path / "b.csv"
        write_csv(path, ["x", "y", "z"], iter(blocks))
        expected = "".join(f"{i},{v:.9e},{s}\n" for cols in blocks
                           for i, v, s in zip(*(c.tolist() for c in cols)))
        assert path.read_text().split("\n", 2)[2] == expected

    def test_write_csv_streams_rows(self, tmp_path):
        # at most _CSV_BLOCK rows are formatted at once: memory does not
        # grow with the file
        path = tmp_path / "big.csv"
        n = 200_000
        cols = (np.arange(n), np.arange(n) * 0.5, np.full(n, "x"))
        tracemalloc.start()
        try:
            write_csv(path, ["i", "v", "s"], [cols])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak
        lines = path.read_text().splitlines()
        assert len(lines) == 200_002
        assert lines[-1] == "199999,9.999950000e+04,x"


class TestCertificateJson:
    @pytest.mark.parametrize("name,overrides", PHI_CASES,
                             ids=[n + ("-repro" if o else "") for n, o in PHI_CASES])
    def test_uniform_and_envelopes(self, name, overrides, tmp_path):
        out = tmp_path / "certify"
        code = main(["certify", f"preset:{name}", "--out", str(out)] + overrides)
        cert_json = json.loads((out / "certificate.json").read_text())
        assert set(cert_json) == {"scenario", "phi", "ratios", "drift_margin",
                                  "valid", "uniform", "tail_envelopes"}
        assert set(cert_json["uniform"]) == {"verdict", "method", "uniform"}
        assert code == (0 if cert_json["valid"] else 2)

        # the uniform verdict is classify's, and report's rate label agrees
        scen = _resolve_scenario(f"preset:{name}", overrides[1::2])
        probe_u = tuple(scen.grids["probe_u"])
        rep = classify(scen.levy, scen.release, probe_u,
                       scen.tolerances["decision_margin"])
        assert cert_json["uniform"] == {"verdict": rep.verdict,
                                        "method": rep.method,
                                        "uniform": rep.uniform}
        report = tmp_path / "report"
        assert main(["report", f"preset:{name}", "--out", str(report)]
                    + overrides) == 0
        rate = (report / "row.csv").read_text().splitlines()[-1].split(",")[2]
        assert (rate == "uniform") == cert_json["uniform"]["uniform"]
        if overrides:
            assert cert_json["uniform"]["uniform"]

        # the from-rate envelope is the certificate's moment bound
        if not cert_json["valid"]:
            assert cert_json["tail_envelopes"] == {}
            return
        cert = build_certificate(scen.levy, scen.release, scen.phi, probe_u)
        us = [float(u) for u in scen.grids["u_grid"]]
        from_rate = cert_json["tail_envelopes"]["upper_from_rate"]
        assert from_rate["kind"] == "UpperFromRate"
        assert from_rate["values"] == {
            str(u): float(v)
            for u, v in zip(us, cert.predicted_tail_upper(np.asarray(us)))}
