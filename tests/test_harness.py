import dataclasses
import inspect
import json

import numpy as np
import pytest

import gausstube.harness
from gausstube._mc import as_seed_sequence
from gausstube.cylinder import CylFunctional, PotentialV
from gausstube.errors import ConfigError
from gausstube.fields import (
    ParamSpace,
    SpatialCov,
    ec_mc_levels,
    excursion_volumes_mc,
    kinematic_weights,
)
from gausstube.gmf import gmf_surface_mc_levels
from gausstube.harness import (
    _COVS,
    _DEFAULTS,
    _KEYS,
    _REGIONS,
    _SPACES,
    EXPERIMENTS,
    ExperimentConfig,
    RunResult,
    report,
    run,
)
from gausstube.series import gaussian_pdf, gaussian_tail


def gmf_config(**overrides):
    data = {
        "experiment": "gmf",
        "seed": 1234,
        "region": {"kind": "halfspace", "u": 1.0, "dim": 3},
        "J": 2,
        "N": 40_000,
    }
    data.update(overrides)
    return data


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(gmf_config())
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert cfg == again

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(gmf_config(bananas=3))

    def test_missing_keys_rejected(self):
        data = gmf_config()
        del data["N"]
        with pytest.raises(ConfigError, match="missing config keys"):
            ExperimentConfig.from_dict(data)

    def test_bad_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict(gmf_config(experiment="frobnicate"))

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(gmf_config(seed="abc"))

    def test_hash_stable_under_key_order(self):
        a = ExperimentConfig.from_dict(gmf_config())
        shuffled = dict(reversed(list(gmf_config().items())))
        b = ExperimentConfig.from_dict(shuffled)
        assert a.hash() == b.hash()

    def test_checked_config_keeps_no_reference_to_its_input(self):
        def tube_config():
            return {
                "experiment": "tube",
                "region": {"kind": "ball", "radius": 2.0, "dim": 3},
                "J": 4,
                "N": 1000,
                "rho_grid": [0.1],
                "seed": 1,
            }

        data = tube_config()
        cfg = ExperimentConfig.from_dict(data)
        digest = cfg.hash()
        data["region"]["radius"] = "x"
        data["rho_grid"].append(-5.0)
        data["J"] = "many"
        del data["N"]
        assert cfg == ExperimentConfig.from_dict(tube_config())
        assert cfg.hash() == digest
        assert run(cfg).payload() == run(ExperimentConfig.from_dict(tube_config())).payload()


class TestRunGmf:
    def test_rows_contain_targets(self):
        result = run(ExperimentConfig.from_dict(gmf_config()))
        rows = {r["quantity"]: r for r in result.rows}
        assert rows["M_1"]["target"] == pytest.approx(gaussian_pdf(1.0), rel=1e-12)
        assert abs(rows["M_1"]["estimate"] - rows["M_1"]["target"]) <= max(
            5 * rows["M_1"]["stderr"], 0.05 * rows["M_1"]["target"]
        )
        assert rows["M_0"]["target"] == pytest.approx(gaussian_tail(1.0), rel=1e-12)

    def test_determinism_bit_exact(self):
        cfg = ExperimentConfig.from_dict(gmf_config())
        a, b = run(cfg), run(cfg)
        assert a.payload() == b.payload()
        assert a.wall_clock != 0.0

    def test_worker_count_does_not_change_estimates(self):
        a = run(ExperimentConfig.from_dict(gmf_config(workers=1)))
        b = run(ExperimentConfig.from_dict(gmf_config(workers=3)))
        a_rows = [{k: v for k, v in r.items()} for r in a.rows]
        b_rows = [{k: v for k, v in r.items()} for r in b.rows]
        assert a_rows == b_rows


class TestRunTube:
    def test_residual_rows(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "tube",
                "seed": 7,
                "region": {"kind": "two-sided", "a": 1.5, "dim": 2},
                "J": 8,
                "N": 50_000,
                "rho_grid": [0.2, 0.5],
            }
        )
        result = run(cfg)
        assert len(result.rows) == 2
        for row in result.rows:
            assert abs(row["residual"]) <= 5 * row["stderr"]
        assert "max_abs_residual" in result.counters

    def test_projection_method(self):
        data = {
            "experiment": "tube",
            "seed": 7,
            "region": {"kind": "ball", "radius": 1.0, "dim": 2},
            "J": 6,
            "N": 10_000,
            "rho_grid": [0.3],
        }
        # the configuration of the benchmark's tube-projection workload
        workload = {
            **data,
            "seed": 20_240_603,
            "region": {"kind": "ball", "radius": 2.0, "dim": 3},
            "N": 65_536,
            "rho_grid": [0.05, 0.1, 0.2, 0.3, 0.4],
        }
        for cfg in (data, workload):
            solved = run(ExperimentConfig.from_dict({**cfg, "method": "projection"}))
            closed = run(ExperimentConfig.from_dict({**cfg, "method": "closed-form"}))
            for row in solved.rows:
                assert abs(row["residual"]) <= 5 * row["stderr"]
            # the solver puts every sample on the same side of every radius
            # as the closed-form distance does
            assert [r["tube_mc"] for r in solved.rows] == [r["tube_mc"] for r in closed.rows]


class TestRunConverge:
    def test_schema(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "converge",
                "seed": 11,
                "potential": "identity",
                "u": 0.0,
                "J": 1,
                "N": 20_000,
                "n_grid": [4, 8],
            }
        )
        result = run(cfg)
        assert {(r["n"], r["j"]) for r in result.rows} == {(4, 0), (4, 1), (8, 0), (8, 1)}
        assert all("target" in r for r in result.rows)
        metas = result.counters["gmf_meta"]
        assert [m["n"] for m in metas] == [4, 8]
        assert all(m["n_samples"] == 20_000 and "skip_fraction" in m for m in metas)


class TestRunGkf:
    def test_gaussian_interval(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "gkf",
                "seed": 13,
                "space": {"kind": "interval", "length": 10.0, "grid": 200},
                "cov": {"preset": "cosine", "frequency": 1.0},
                "potential": "one",
                "u_levels": [1.0],
                "n": 8,
                "J": 1,
                "N": 30_000,
                "reps": 300,
            }
        )
        result = run(cfg)
        row = result.rows[0]
        assert abs(row["z"]) < 5.0
        (meta,) = result.counters["gmf_meta"]
        assert meta["u"] == 1.0 and meta["n_samples"] == 30_000
        assert 0 < meta["n_window"] <= 30_000
        assert meta["n_degenerate"] == 0 and meta["skip_fraction"] == 0.0
        assert meta["eps"] > 0.0
        assert row["rhs"] == pytest.approx(
            gaussian_tail(1.0) + (2 * np.pi) ** -0.5 * 10.0 * gaussian_pdf(1.0), rel=0.15
        )

    def test_levels_share_one_sample_set(self, monkeypatch):
        # the sampled functional (F_n's meridian for this affine V) is evaluated
        # on the pilot and on the N samples once, not once per level
        rows = []
        meridian = CylFunctional.meridian

        def counting_meridian(self):
            func = meridian(self)

            def values(x):
                rows.append(x.shape[0])
                return func.values(x)

            return dataclasses.replace(func, values=values)

        monkeypatch.setattr(CylFunctional, "meridian", counting_meridian)
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "gkf",
                "seed": 13,
                "space": {"kind": "interval", "length": 10.0, "grid": 200},
                "cov": {"preset": "cosine", "frequency": 1.0},
                "potential": "identity",
                "u_levels": [0.0, 0.5, 1.0],
                "n": 8,
                "J": 1,
                "N": 30_000,
                "reps": 100,
            }
        )
        result = run(cfg)
        assert len(result.rows) == 3
        assert sum(rows) == 30_000 + 4096

    def test_affine_worker_count_is_bit_exact(self):
        # several blocks of the meridian's two-variate draws, on one and two threads
        data = {
            "experiment": "gkf",
            "seed": 19,
            "space": {"kind": "interval", "length": 10.0, "grid": 200},
            "cov": {"preset": "cosine", "frequency": 1.0},
            "potential": "identity",
            "u_levels": [0.5, 1.0],
            "n": 16,
            "J": 2,
            "N": 100_000,
            "reps": 100,
        }
        one, two = (
            run(ExperimentConfig.from_dict({**data, "workers": w})).payload() for w in (1, 2)
        )
        assert one["rows"] == two["rows"]
        assert one["counters"] == two["counters"]

    def test_each_side_draws_from_its_own_child_of_the_root(self):
        # children 1, 2 and 3 of the root seed drive the EC, GMF and volume
        # sides (child 0 is unused): moving one would move every payload
        data = {
            "experiment": "gkf",
            "seed": 23,
            "space": {"kind": "interval", "length": 10.0, "grid": 200},
            "cov": {"preset": "cosine", "frequency": 1.0},
            "potential": "identity",
            "u_levels": [0.5, 1.0],
            "n": 8,
            "J": 1,
            "N": 10_000,
            "reps": 100,
        }
        gkf = run(ExperimentConfig.from_dict(data)).rows
        crofton = run(ExperimentConfig.from_dict({**data, "experiment": "crofton", "index": 1}))
        space, cov = ParamSpace.interval(10.0, 200), SpatialCov.cosine(1.0)
        potential, levels = PotentialV.preset("identity"), data["u_levels"]
        children = np.random.SeedSequence(23).spawn(4)
        ec_means, _ = ec_mc_levels(space, cov, potential, levels, 8, 100, rng=children[1])
        gmfs = gmf_surface_mc_levels(
            CylFunctional(8, potential).sampled(), "excursion", levels, 1, 10_000,
            rng=children[2].spawn(1)[0],
        )
        vols, _ = excursion_volumes_mc(
            space, cov, potential, levels, 8, 100, rng=children[3].spawn(1)[0]
        )
        for i, gmf in enumerate(gmfs):
            assert gkf[i]["ec_mean"] == ec_means[i]
            assert gkf[i]["rhs"] == gmf.dot(kinematic_weights(0, space, cov, 1))[0]
            assert crofton.rows[i]["rhs"] == gmf.dot(kinematic_weights(1, space, cov, 1))[0]
            assert crofton.rows[i]["volume_mc"] == vols[i]

    def test_crofton_top_index_has_volume_check(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "crofton",
                "seed": 17,
                "space": {"kind": "interval", "length": 10.0, "grid": 200},
                "cov": {"preset": "cosine", "frequency": 1.0},
                "potential": "identity",
                "u_levels": [0.5],
                "n": 8,
                "J": 1,
                "N": 30_000,
                "reps": 300,
                "index": 1,
            }
        )
        result = run(cfg)
        row = result.rows[0]
        assert "volume_mc" in row
        assert abs(row["rhs"] - row["volume_mc"]) <= 4 * np.hypot(
            row["rhs_stderr"], row["volume_stderr"]
        )


    @pytest.mark.parametrize("experiment", ["gkf", "crofton"])
    def test_coarse_grid_fails_before_any_sampling(self, experiment, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("ran before the resolution guard")

        for name in ("gmf_surface_mc", "gmf_surface_mc_levels", "ec_mc_levels"):
            monkeypatch.setattr(gausstube.harness, name, not_reached)
        data = {
            "experiment": experiment,
            "seed": 17,
            "space": {"kind": "interval", "length": 10.0, "grid": 10},
            "cov": {"preset": "cosine", "frequency": 1.0},
            "potential": "identity",
            "u_levels": [0.5],
            "n": 8,
            "J": 1,
            "N": 30_000,
            "reps": 300,
        }
        if experiment == "crofton":
            data["index"] = 1  # the top index: a volume Monte Carlo over fields
        with pytest.raises(ConfigError, match="too coarse"):
            run(ExperimentConfig.from_dict(data))

    @pytest.mark.parametrize("index", [3, -1, 1.5])
    def test_bad_crofton_index_fails_before_any_sampling(self, index, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("ran before the index check")

        for name in ("gmf_surface_mc", "gmf_surface_mc_levels", "ec_mc_levels"):
            monkeypatch.setattr(gausstube.harness, name, not_reached)
        data = {
            "experiment": "crofton",
            "seed": 17,
            "space": {"kind": "interval", "length": 10.0, "grid": 200},
            "cov": {"preset": "cosine", "frequency": 1.0},
            "potential": "identity",
            "u_levels": [0.5],
            "n": 8,
            "J": 1,
            "N": 30_000,
            "reps": 300,
            "index": index,
        }
        with pytest.raises(ConfigError, match="index"):
            run(ExperimentConfig.from_dict(data))

    @pytest.mark.parametrize(
        "experiment,fault,match",
        [
            ("gkf", {"reps": 50}, "reps"),
            ("crofton", {"reps": 99}, "reps"),
            ("gkf", {"n": 1000}, "time-grid"),
            ("crofton", {"n": 1}, "time-grid"),
            ("converge", {"n_grid": [4, 1000]}, "time-grid"),
        ],
    )
    def test_bad_reps_or_time_grid_fails_before_any_sampling(
        self, experiment, fault, match, monkeypatch
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("ran before the reps and time-grid checks")

        for name in ("ec_mc_levels", "gmf_surface_mc_levels", "convergence_study"):
            monkeypatch.setattr(gausstube.harness, name, not_reached)
        if experiment == "converge":
            data = {"potential": "identity", "u": 0.0, "J": 1, "N": 30_000}
        else:
            data = {
                "space": {"kind": "interval", "length": 10.0, "grid": 200},
                "cov": {"preset": "cosine", "frequency": 1.0},
                "potential": "identity",
                "u_levels": [0.5],
                "n": 8,
                "J": 1,
                "N": 30_000,
                "reps": 300,
            }
            if experiment == "crofton":
                data["index"] = 0
        cfg = ExperimentConfig.from_dict({"experiment": experiment, "seed": 17, **data, **fault})
        with pytest.raises(ConfigError, match=match):
            run(cfg)

    @pytest.mark.parametrize("index", [1, 2])
    def test_crofton_reps_floor_only_at_index_zero(self, index, monkeypatch):
        # index 1 draws no field and index dim draws max(100, reps // 4) of them
        def reached(*args, **kwargs):
            raise RuntimeError("reached sampling")

        monkeypatch.setattr(gausstube.harness, "gmf_surface_mc_levels", reached)
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "crofton",
                "seed": 17,
                "space": {"kind": "torus", "lengths": [2 * np.pi, 2 * np.pi], "grid": 64},
                "cov": {"preset": "torus-pair", "frequency": 2.0},
                "potential": "one",
                "u_levels": [0.5],
                "n": 8,
                "J": 2,
                "N": 30_000,
                "reps": 50,
                "index": index,
            }
        )
        with pytest.raises(RuntimeError, match="reached sampling"):
            run(cfg)

    @pytest.mark.parametrize(
        "fault,match",
        [
            ({"experiment": "gmf", "N": 20_000.0}, "N must be an integer"),
            ({"experiment": "gmf", "J": "2"}, "J must be an integer"),
            ({"n": 8.0}, "n must be an integer"),
            ({"reps": True}, "reps must be an integer"),
            ({"experiment": "gmf", "region": {"kind": "ball", "radius": -1, "dim": 2}}, "radius"),
            ({"experiment": "gmf", "region": {"kind": "ball", "radius": 1, "dim": 0}}, "dim"),
            ({"experiment": "tube", "region": {"kind": "two-sided", "a": 0}}, "threshold"),
            ({"experiment": "gmf", "region": {"kind": "ball", "radius": "x", "dim": 2}}, "bad"),
            ({"experiment": "gmf", "region": {"kind": "ball", "radus": 1, "dim": 2}}, "radus"),
            (
                {"experiment": "gmf", "region": {"kind": "ball", "dim": 2}},
                "missing region keys for 'ball'",
            ),
            ({"experiment": "gmf", "region": {"kind": "cube"}}, "unknown region kind"),
            ({"experiment": "tube", "method": "bisection"}, "distance method"),
            ({"cov": {"preset": "squared-exponential", "lambda2": 1, "n_wave": 256}}, "n_wave"),
            ({"cov": {"preset": "squared-exponential", "lambda2": 1, "dim": 2}}, "dim"),
            ({"space": {"kind": "torus", "lengths": [6.0], "grid": 40}}, "bad space"),
            ({"space": ["interval", 10.0]}, "dict"),
            ({"cov": {"preset": "wave-sum", "frequencies": [[True], [-1]]}}, "frequencies"),
            (
                {"cov": {"preset": "wave-sum", "frequencies": [[1], [-1]], "weights": [True, 0.0]}},
                "weights",
            ),
            ({"cov": {"preset": "wave-sum", "frequencies": []}}, "frequencies"),
            ({"space": {"kind": "torus", "lengths": [6.0, 6.0, 6.0], "grid": 40}}, "bad space"),
            ({"experiment": "gmf", "region": {"kind": "halfspace", "u": 1.0, "dim": 0}}, "dim"),
            ({"experiment": "gmf", "region": {"kind": "halfspace", "u": 1.0, "dim": -2}}, "dim"),
        ],
    )
    def test_bad_keys_and_specs_fail_before_any_sampling(self, fault, match, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("ran before the config checks")

        for name in (
            "gmf_surface_mc", "gmf_surface_mc_levels", "ec_mc_levels", "validate_tube_series",
        ):
            monkeypatch.setattr(gausstube.harness, name, not_reached)
        data = {
            "experiment": "gkf",
            "seed": 17,
            "space": {"kind": "interval", "length": 10.0, "grid": 200},
            "cov": {"preset": "cosine", "frequency": 1.0},
            "potential": "identity",
            "u_levels": [0.5],
            "n": 8,
            "J": 1,
            "N": 30_000,
            "reps": 300,
        }
        if fault.get("experiment") in ("gmf", "tube"):
            data = gmf_config(region={"kind": "ball", "radius": 1.0, "dim": 2})
            if fault["experiment"] == "tube":
                data.update(experiment="tube", rho_grid=[0.1])
        with pytest.raises(ConfigError, match=match):
            run(ExperimentConfig.from_dict({**data, **fault}))

    @pytest.mark.parametrize(
        "fault,match",
        [
            ({"experiment": "tube", "rho_grid": [0.1], "method": "bisection"}, "distance method"),
            ({"experiment": "crofton", "index": "1"}, "index must be an integer"),
            ({"experiment": "crofton", "index": None}, "index must be an integer"),
            ({"potential": "nope"}, "potential must be one of"),
            ({"potential": ["identity"]}, "potential must be one of"),
            ({"space": {"kind": "interval", "lenght": 10.0, "grid": 200}}, "lenght"),
            ({"space": {"kind": "interval", "length": 10.0, "grid": 200.7}}, "grid"),
            ({"space": {"kind": "torus", "lengths": [6.0], "grid": 40}}, "bad space"),
            ({"space": {"kind": "sphere"}}, "unknown space kind"),
            ({"space": ["interval", 10.0]}, "dict"),
            ({"cov": {"preset": "cosine", "frequency": True}}, "frequency"),
            (
                {"cov": {"preset": "wave-sum", "frequencies": [[1], [-1]], "weights": [True]}},
                "weights",
            ),
            ({"cov": {"preset": "squared-exponential", "n_waves": 64}}, "missing cov keys"),
            ({"experiment": "gmf", "region": {"kind": "ball", "radius": "x", "dim": 2}}, "radius"),
            ({"experiment": "gmf", "region": {"kind": "halfspace", "u": 1.0, "dim": True}}, "dim"),
        ],
    )
    def test_from_dict_checks_every_scalar_key(self, fault, match):
        # from_dict is the validation call of the CLI and the benchmark's set-up
        # step; it checks the keys and value types of nested specs too, and
        # leaves a value a constructor rejects (a ball radius of -1) to run()
        data = {
            "experiment": "gkf",
            "seed": 17,
            "space": {"kind": "interval", "length": 10.0, "grid": 200},
            "cov": {"preset": "cosine", "frequency": 1.0},
            "potential": "identity",
            "u_levels": [0.5],
            "n": 8,
            "J": 1,
            "N": 30_000,
            "reps": 300,
        }
        if fault.get("experiment") in ("gmf", "tube"):
            data = gmf_config()
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({**data, **fault})

    def test_every_key_has_one_value_test(self):
        # a runner or spec parameter with no _KEYS entry would be a KeyError
        # (exit 1) on the first config that sets it
        builders = [entry.run for entry in EXPERIMENTS.values()] + [
            build for table in (_REGIONS, _SPACES, _COVS) for build in table.values()
        ]
        params = {name for build in builders for name in inspect.signature(build).parameters}
        assert params - _KEYS.keys() == set(), "parameters with no _KEYS entry"
        assert _KEYS.keys() - params == set(), "_KEYS entries no builder takes"
        assert _DEFAULTS.keys() <= _KEYS.keys()

    def test_low_order_fails_before_validation(self, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("ran before the series-order check")

        monkeypatch.setattr(gausstube.harness, "gmf_surface_mc_levels", not_reached)
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "gkf",
                "seed": 19,
                "space": {"kind": "torus", "lengths": [2 * np.pi, 2 * np.pi], "grid": 64},
                "cov": {"preset": "torus-pair", "frequency": 2.0},
                "potential": "one",
                "u_levels": [1.0],
                "n": 8,
                "J": 1,
                "N": 30_000,
                "reps": 100,
            }
        )
        with pytest.raises(ConfigError, match="J=1"):
            run(cfg)

    @pytest.mark.parametrize("index,J", [(1, 1), (2, 0)])
    def test_crofton_order_needs_only_dim_minus_index(self, index, J):
        # the series order covers the weights j ≤ dim − index, not the whole dimension
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 64)
        cov = SpatialCov.torus_pair(2.0)
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "crofton",
                "seed": 23,
                "space": {"kind": "torus", "lengths": [2 * np.pi, 2 * np.pi], "grid": 64},
                "cov": {"preset": "torus-pair", "frequency": 2.0},
                "potential": "one",
                "u_levels": [0.5],
                "n": 8,
                "J": J,
                "N": 30_000,
                "reps": 400,
                "index": index,
            }
        )
        (row,) = run(cfg).rows
        if index == 1:
            # V = 1 makes F_n a standard normal: M_1 of {z ≥ u} is φ(u)
            target = kinematic_weights(1, space, cov, 1)[1] * gaussian_pdf(0.5)
            assert abs(row["rhs"] - target) <= 4 * row["rhs_stderr"]
        else:
            combined = np.hypot(row["rhs_stderr"], row["volume_stderr"])
            assert abs(row["rhs"] - row["volume_mc"]) <= 4 * combined


class TestReport:
    def test_empty_results_write_nothing(self, tmp_path):
        assert report([], tmp_path / "out") == []
        assert not (tmp_path / "out").exists()

    def test_files_written(self, tmp_path):
        result = run(ExperimentConfig.from_dict(gmf_config(N=20_000)))
        written = report([result], tmp_path)
        names = {p.name for p in written}
        assert any(n.endswith("_rows.csv") for n in names)
        assert any(n.endswith("_plot.csv") for n in names)
        assert "summary.txt" in names
        rows_file = next(p for p in written if p.name.endswith("_rows.csv"))
        header = rows_file.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["quantity", "j"]

    def test_converge_csv_schema(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "converge",
                "seed": 19,
                "potential": "identity",
                "u": 0.0,
                "J": 1,
                "N": 20_000,
                "n_grid": [4, 8],
            }
        )
        result = run(cfg)
        written = report([result], tmp_path)
        plot = next(p for p in written if p.name.endswith("_plot.csv"))
        assert plot.read_text().splitlines()[0] == "n,j,estimate,stderr,target"

    def test_result_round_trip(self, tmp_path):
        result = run(ExperimentConfig.from_dict(gmf_config(N=20_000)))
        path = tmp_path / "res.json"
        result.save(path)
        loaded = RunResult.load(path)
        assert loaded.payload() == result.payload()


class TestSeeds:
    @pytest.mark.parametrize(
        "seed", [7, np.int64(7), [7], (7,)], ids=["int", "numpy-int", "list", "tuple"]
    )
    def test_int_forms_agree(self, seed):
        state = as_seed_sequence(seed).generate_state(4)
        assert np.array_equal(state, np.random.SeedSequence(7).generate_state(4))

    def test_seed_sequence_is_returned_as_is(self):
        root = np.random.SeedSequence(7)
        assert as_seed_sequence(root) is root

    @pytest.mark.parametrize(
        "seed", [np.random.default_rng(7), 7.0, "7", None], ids=["generator", "float", "str", "none"]
    )
    def test_other_forms_raise(self, seed):
        with pytest.raises(TypeError, match="as a seed"):
            as_seed_sequence(seed)
