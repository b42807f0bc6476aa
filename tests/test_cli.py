import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausstube.cli
import gausstube.harness
import gausstube.tube
from gausstube.cli import _build_parser, main
from gausstube.harness import EXPERIMENTS, ExperimentConfig


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


GMF = {
    "experiment": "gmf",
    "seed": 99,
    "region": {"kind": "halfspace", "u": 0.5, "dim": 2},
    "J": 1,
    "N": 20_000,
}

CROFTON = {
    "experiment": "crofton",
    "seed": 17,
    "space": {"kind": "interval", "length": 10.0, "grid": 200},
    "cov": {"preset": "cosine", "frequency": 1.0},
    "potential": "identity",
    "u_levels": [0.5],
    "n": 8,
    "J": 1,
    "N": 10_000,
    "reps": 100,
    "index": 1,
}

CONVERGE = {
    "experiment": "converge",
    "seed": 3,
    "potential": "identity",
    "u": 0.5,
    "J": 1,
    "N": 10_000,
    "n_grid": [4, 8],
}

TUBE = {
    "experiment": "tube",
    "seed": 5,
    "region": {"kind": "ball", "radius": 1.0, "dim": 2},
    "J": 2,
    "N": 10_000,
    "rho_grid": [0.1, 0.2],
}

# A well-formed saved result, for the malformed variants of the report tests.
SAVED_RESULT = {
    "config_hash": "0" * 64,
    "experiment": "gmf",
    "rows": [{"j": 0, "estimate": 0.5}],
    "counters": {},
    "wall_clock": 0.1,
    "version": "0",
}


class TestCli:
    def test_gmf_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GMF)
        code = main(["gmf", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert any(line.endswith(".json") for line in printed)
        out = tmp_path / "out"
        assert (out / "summary.txt").exists()
        result_file = next(out.glob("gmf_*.json"))
        payload = json.loads(result_file.read_text())
        assert payload["experiment"] == "gmf"

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_config(tmp_path, GMF)
        assert main(["gmf", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["gmf", "--config", cfg, "--seed", "100", "--out", str(tmp_path / "b")]) == 0
        a = next((tmp_path / "a").glob("gmf_*.json")).name
        b = next((tmp_path / "b").glob("gmf_*.json")).name
        assert a != b

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, GMF)
        main(["gmf", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["gmf", "--config", cfg, "--out", str(tmp_path / "b")])
        a = json.loads(next((tmp_path / "a").glob("gmf_*.json")).read_text())
        b = json.loads(next((tmp_path / "b").glob("gmf_*.json")).read_text())
        a.pop("wall_clock"), b.pop("wall_clock")
        assert a == b

    def test_invalid_config_exits_2(self, tmp_path, capsys, monkeypatch):
        def sampling(*args, **kwargs):
            raise AssertionError("sampling started before the config was rejected")

        # a bad config must exit 2 before any Monte Carlo runs
        for name in (
            "ec_mc_levels", "gmf_surface_mc", "gmf_surface_mc_levels", "convergence_study",
            "validate_tube_series",
        ):
            monkeypatch.setattr(gausstube.harness, name, sampling)
        cfg = write_config(tmp_path, {**GMF, "bogus_key": 1})
        assert main(["gmf", "--config", cfg]) == 2
        bad_settings = [{"workers": w} for w in ("2", 0, -3, True, 1.5)] + [{"seed": True}]
        for i, bad in enumerate(bad_settings):
            cfg = write_config(tmp_path, {**GMF, **bad}, name=f"gmf_bad_{i}.json")
            assert main(["gmf", "--config", cfg, "--out", str(tmp_path)]) == 2, bad
        for index in (3, -1, 1.5):
            cfg = write_config(tmp_path, {**CROFTON, "index": index}, name=f"crofton_{index}.json")
            assert main(["crofton", "--config", cfg, "--out", str(tmp_path)]) == 2
        gkf = {key: value for key, value in CROFTON.items() if key != "index"}
        faults = {
            # a 1-D covariance on a 2-D torus
            "cov_dim": {"space": {"kind": "torus", "lengths": [6.0, 6.0], "grid": 40}, "J": 2},
            # 4 * spacing * sqrt(lambda2) = 4 * (10/9) * 1 >= 1
            "coarse": {"space": {"kind": "interval", "length": 10.0, "grid": 10}},
            "few_reps": {"reps": 50},
            "long_time_grid": {"n": 1000},
        }
        for name, fault in faults.items():
            cfg = write_config(
                tmp_path, {**gkf, **fault, "experiment": "gkf"}, name=f"gkf_{name}.json"
            )
            assert main(["gkf", "--config", cfg, "--out", str(tmp_path)]) == 2
        gkf["experiment"] = "gkf"
        sq_exp = {"preset": "squared-exponential", "lambda2": 1.0}
        cases = [
            # integer keys given as floats, strings or booleans
            ("gmf", {"N": 20_000.0}),
            ("gmf", {"J": "2"}),
            ("gmf", {"J": True}),
            ("gkf", {"n": 8.0}),
            ("gkf", {"reps": 100.0}),
            # region values the closed forms reject
            ("gmf", {"region": {"kind": "ball", "radius": -1, "dim": 2}}),
            ("gmf", {"region": {"kind": "ball", "radius": 1.0, "dim": 0}}),
            ("gmf", {"region": {"kind": "two-sided", "a": 0}}),
            ("gmf", {"region": {"kind": "two-sided", "a": 1.0, "dim": 0}}),
            ("gmf", {"region": {"kind": "ball", "radius": "x", "dim": 2}}),
            # unknown keys in nested specs
            ("gmf", {"region": {"kind": "ball", "radus": 1.0, "dim": 2}}),
            ("gkf", {"cov": {**sq_exp, "n_wave": 256}}),
            ("gkf", {"cov": {**sq_exp, "dim": 2}}),
            ("gkf", {"space": {"kind": "interval", "length": 10.0, "grid": 200, "lengths": 1}}),
            # too few surface samples
            ("gmf", {"N": 9_999}),
            ("gkf", {"N": 5_000}),
            ("crofton", {"N": 5_000}),
            ("converge", {"N": 5_000}),
            ("tube", {"N": 0}),
            # non-positive or non-numeric bandwidths
            ("gkf", {"eps": -1}),
            ("gmf", {"eps": 0}),
            ("converge", {"eps": "0.05"}),
            # levels and grids that are empty or hold non-numbers
            ("gkf", {"u_levels": []}),
            ("gkf", {"u_levels": ["a"]}),
            ("crofton", {"u_levels": [0.5, True]}),
            ("gkf", {"u_levels": 0.5}),
            ("converge", {"u": "0.5"}),
            ("tube", {"rho_grid": [0.1, "x"]}),
            ("tube", {"rho_grid": []}),
            ("converge", {"n_grid": [8.0]}),
            # negative orders, grids out of order, negative radii
            ("converge", {"J": -1}),
            ("tube", {"J": -1}),
            ("gmf", {"J": -2}),
            # an order whose factorial is beyond the float range
            ("tube", {"J": 171}),
            ("gkf", {"J": 172}),
            ("converge", {"n_grid": [8, 4]}),
            ("converge", {"n_grid": [8, 8]}),
            ("tube", {"rho_grid": [0.1, -0.2]}),
            # a level outside the chi-squared limit target's domain u > -1/2
            ("converge", {"u": -0.6}),
            # nested integers given as floats or booleans
            ("gkf", {"space": {"kind": "interval", "length": 10.0, "grid": 200.7}}),
            ("gmf", {"region": {"kind": "ball", "radius": 1.0, "dim": 2.0}}),
            ("tube", {"region": {"kind": "halfspace", "u": 0.5, "dim": True}}),
            ("gkf", {"cov": {**sq_exp, "n_waves": 64.5}}),
            ("gkf", {"cov": {**sq_exp, "seed": 1.0}}),
            # nested numbers that are not finite, booleans, or out of range
            ("gmf", {"region": {"kind": "ball", "radius": math.nan, "dim": 2}}),
            ("gmf", {"region": {"kind": "ball", "radius": True, "dim": 2}}),
            ("gmf", {"region": {"kind": "two-sided", "a": math.inf}}),
            ("tube", {"region": {"kind": "halfspace", "u": math.nan, "dim": 2}}),
            ("gkf", {"space": {"kind": "interval", "length": math.nan, "grid": 200}}),
            ("gkf", {"space": {"kind": "interval", "length": True, "grid": 200}}),
            ("gkf", {"cov": {"preset": "cosine", "frequency": math.nan}}),
            ("gkf", {"cov": {"preset": "cosine", "frequency": True}}),
            ("gkf", {"cov": {"preset": "wave-sum", "frequencies": [[math.nan]]}}),
            ("gkf", {"cov": {"preset": "wave-sum", "frequencies": [[1]], "weights": [math.nan]}}),
            ("gkf", {"cov": {**sq_exp, "lambda2": -1}}),
            ("gkf", {"cov": {**sq_exp, "lambda2": math.nan}}),
            ("gmf", {"region": {"kind": "halfspace", "u": 10**400}}),
            ("converge", {"u": -(10**400)}),
            # a seed the generator cannot take
            ("gmf", {"seed": -1}),
            # an experiment that is not a name
            ("gmf", {"experiment": ["gmf"]}),
            ("gmf", {"experiment": None}),
        ]
        capsys.readouterr()
        bases = {"gmf": GMF, "gkf": gkf, "crofton": CROFTON, "converge": CONVERGE, "tube": TUBE}
        for i, (command, fault) in enumerate(cases):
            base = bases[command]
            cfg = write_config(tmp_path, {**base, **fault}, name=f"bad_{i}.json")
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2, fault
            assert capsys.readouterr().err.startswith("config error:"), fault
        cfg = write_config(tmp_path, GMF, name="gmf_seed.json")
        assert main(["gmf", "--config", cfg, "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_example_configs_match_the_registry(self):
        examples = sorted(Path(__file__).parents[1].glob("examples_configs/*.json"))
        assert examples
        for path in examples:
            config = ExperimentConfig.from_dict(json.loads(path.read_text()))
            assert config.experiment in EXPERIMENTS, path.name
        subparsers = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(subparsers.choices) == set(EXPERIMENTS) | {"report"}

    def test_config_validation_does_not_load_scipy(self):
        # a fresh interpreter: importing the package and checking configs
        # must leave scipy and numpy.polynomial unloaded, which keeps start-up
        # cheap; checking the presets' assumptions must not load numpy.polynomial
        code = (
            "import json, sys\n"
            "import gausstube\n"
            "from gausstube.harness import ExperimentConfig\n"
            "for data in json.loads(sys.argv[1]):\n"
            "    ExperimentConfig.from_dict(data)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
            "from gausstube.cylinder import _PRESETS, PotentialV\n"
            "for name in _PRESETS:\n"
            "    gausstube.validate_assumptions(PotentialV.preset(name))\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        )
        configs = json.dumps([GMF, CROFTON, CONVERGE, TUBE])
        src = str(Path(gausstube.harness.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, configs], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]

    @pytest.mark.parametrize("command", ["gmf", "report"])
    def test_out_naming_a_file_exits_2_before_running(self, tmp_path, capsys, monkeypatch, command):
        def running(*args, **kwargs):
            raise AssertionError("the experiment ran before the output directory was checked")

        monkeypatch.setattr(gausstube.cli, "run", running)
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        if command == "gmf":
            argv = ["gmf", "--config", write_config(tmp_path, GMF)]
        else:
            argv = ["report", write_config(tmp_path, SAVED_RESULT, name="result.json")]
        assert main([*argv, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "output directory" in err
        assert taken.read_text() == "keep me"

    @pytest.mark.parametrize("command", ["gmf", "report"])
    @pytest.mark.parametrize("fault", ["missing", "not-json", "not-utf8", "directory"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, command, fault):
        path = tmp_path / "input.json"
        text = json.dumps(GMF if command == "gmf" else SAVED_RESULT)
        if fault == "not-json":
            path.write_text(text[:-1])
        elif fault == "not-utf8":
            path.write_bytes(text.replace("gmf", "gmf\xe9").encode("latin-1"))
        elif fault == "directory":
            path.mkdir()
        argv = ["gmf", "--config", str(path)] if command == "gmf" else ["report", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "cannot read" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data", [[1, 2], "gmf"])
    @pytest.mark.parametrize("override", [["--seed", "3"], ["--workers", "2"]])
    def test_non_object_config_exits_2(self, tmp_path, capsys, data, override):
        # an override must not write into a config that is not a JSON object
        cfg = write_config(tmp_path, data)
        assert main(["gmf", "--config", cfg, *override, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_subcommand_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, GMF)
        assert main(["tube", "--config", cfg]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a projection solver allowed no iterations fails on every exterior
        # point: a ProjectionError at runtime, not a config error
        monkeypatch.setattr(gausstube.tube, "PROJECTION_MAXITER", 0)
        cfg = write_config(tmp_path, {**TUBE, "method": "projection"})
        assert main(["tube", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "projection solves failed" in err

    def test_env_var_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GAUSSTUBE_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, GMF)
        assert main(["gmf", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "summary.txt").exists()

    def test_report_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GMF)
        main(["gmf", "--config", cfg, "--out", str(tmp_path / "a")])
        result = next((tmp_path / "a").glob("gmf_*.json"))
        code = main(["report", str(result), "--out", str(tmp_path / "rep")])
        assert code == 0
        assert (tmp_path / "rep" / "summary.txt").exists()

    @pytest.mark.parametrize(
        "data, wanted",
        [
            (
                {"experiment": "gmf", "rows": [], "counters": {}, "wall_clock": 0.0,
                 "version": "0"},
                "missing keys ['config_hash']",
            ),
            ([{"config_hash": "0" * 64, "experiment": "gmf"}], "missing keys ['config_hash'"),
            ({**SAVED_RESULT, "rows": 5}, "'rows' must be a list of objects"),
            ({**SAVED_RESULT, "config_hash": 7}, "'config_hash' must be a string"),
            ({**SAVED_RESULT, "wall_clock": "x"}, "'wall_clock' must be a number"),
            ({**SAVED_RESULT, "counters": [1]}, "'counters' must be an object"),
        ],
        ids=[
            "missing-config-hash", "top-level-list", "rows-int", "config-hash-int",
            "wall-clock-string", "counters-list",
        ],
    )
    def test_report_rejects_a_file_that_is_not_a_result(self, tmp_path, capsys, data, wanted):
        path = write_config(tmp_path, data, name="result.json")
        assert main(["report", path, "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not a saved RunResult" in err
        assert wanted in err
        assert not (tmp_path / "rep").exists()
