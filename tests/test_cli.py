"""Tests for the command-line front end and its CSV/JSON artifacts."""

import csv
import json
import math
from pathlib import Path

import pytest

from moeeqi.cli import load_config, main
from moeeqi.gp import GpFitError
from moeeqi.pareto import FrontPoint, ParetoFront


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _problem_file(tmp_path, **extra) -> str:
    doc = {"problem": "toy", "a": 0.0}
    doc.update(extra)
    return _write_json(tmp_path / "problem.json", doc)


def _config_file(tmp_path, **overrides) -> str:
    doc = {
        "beta": 0.7,
        "n_mc": 8,
        "n_iter": 2,
        "grid_resolution": 20,
        "initial_design_size": 4,
        "seed": 17,
    }
    doc.update(overrides)
    return _write_json(tmp_path / "config.json", doc)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


class TestCmdRun:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(out),
        ])
        assert rc == 0
        for name in ("observations.csv", "front.csv", "evolution.csv", "run_meta.json"):
            assert (out / name).exists()

    def test_front_rows_form_a_staircase(self, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(out),
        ])
        header, rows = _read_csv(out / "front.csv")
        assert header[:2] == ["q1", "q2"]
        q1 = [float(r[0]) for r in rows]
        q2 = [float(r[1]) for r in rows]
        assert all(a < b for a, b in zip(q1, q1[1:]))
        assert all(a > b for a, b in zip(q2, q2[1:]))
        # and it round-trips into a valid front object
        ParetoFront([FrontPoint(a, b) for a, b in zip(q1, q2)])

    def test_missing_beta_field_exits_2_naming_it(self, tmp_path, capsys):
        config = _write_json(tmp_path / "config.json", {"n_mc": 8, "n_iter": 2})
        rc = main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", config, "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "beta" in capsys.readouterr().err

    def test_same_seed_gives_byte_identical_csvs(self, tmp_path):
        args = lambda out: [
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(tmp_path / out),
        ]
        assert main(args("a")) == 0
        assert main(args("b")) == 0
        for name in ("observations.csv", "front.csv", "evolution.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_observation_rows_round_trip_full_precision(self, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(out),
        ])
        header, rows = _read_csv(out / "observations.csv")
        assert header[:2] == ["x0", "x1"]
        reparsed = [[float(v) for v in row[:6]] for row in rows]
        rewritten = [[format(v, ".17g") for v in row] for row in reparsed]
        assert rewritten == [row[:6] for row in rows]

    def test_run_meta_contains_seed(self, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(out),
        ])
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 17
        assert meta["config"]["n_iter"] == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(out), "--seed", "99",
        ])
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 99

    def test_env_var_overrides_config_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOEEQI_SEED", "1234")
        out = tmp_path / "out"
        main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(out),
        ])
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 1234

    def test_invalid_problem_document_exits_2(self, tmp_path, capsys):
        problem = _write_json(tmp_path / "problem.json", {"problem": "toy"})
        rc = main([
            "run", "--problem", problem,
            "--config", _config_file(tmp_path), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "'a'" in capsys.readouterr().err


    @pytest.mark.parametrize("fixed", [{"5": 0.0}, {"1": 2.0}, {"x": 0.1}, {"0": 0.5, "1": 0.5}])
    def test_invalid_fixed_coords_exit_2_naming_the_field(self, tmp_path, capsys, fixed):
        rc = main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path, fixed_coords=fixed), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "fixed_coords" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, env_seed, field", [
        ({"beta": 0.7, "n_mc": "many", "n_iter": 2}, None, "n_mc"),
        ({"beta": 0.7, "n_mc": 8, "n_iter": 2, "mode_schedule": [["aggressive"]]}, None, "mode_schedule"),
        ([{"beta": 0.7, "n_mc": 8, "n_iter": 2}], None, "config"),
        ({"beta": 0.7, "n_mc": 8, "n_iter": 2}, "abc", "MOEEQI_SEED"),
        ({"beta": 0.7, "n_mc": 8, "n_iter": 2, "refit_hyperparameters": "false"}, None,
         "refit_hyperparameters"),
        ({"beta": 0.7, "n_mc": 2.7, "n_iter": 2}, None, "n_mc"),
        ({"beta": 0.7, "n_mc": "10", "n_iter": 2}, None, "n_mc"),
        ({"beta": 0.7, "n_mc": 8, "n_iter": 2}, "-1", "seed"),
        ({"beta": 0.7, "n_mc": 8, "n_iter": 2, "grid_resolutoin": 300}, None, "grid_resolutoin"),
        ({"beta": 0.7, "n_mc": 8, "n_iter": 2, "min_score": math.nan}, None, "min_score"),
    ])
    def test_invalid_config_value_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, doc, env_seed, field
    ):
        if env_seed is not None:
            monkeypatch.setenv("MOEEQI_SEED", env_seed)
        rc = main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _write_json(tmp_path / "config.json", doc), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("extra, field", [
        ({"a": "x"}, "'a'"),
        ({"constraints": {"upper_bounds": ["x", None]}}, "'constraints.upper_bounds'"),
        ({"control_bounds": [["a", 1], [0, 1]]}, "'control_bounds'"),
        ({"env": 5}, "'env'"),
        ({"env": [{"type": "normal", "mu": 0.0, "sd": -1.0}]}, "'env[0].sd'"),
        ({"cost_params": {"dose_cost": 1}}, "'cost_params'"),
        ({"env": []}, "'env'"),
        ({"env": [{"type": "uniform", "lo": -1.0, "hi": 1.0}]}, "'env'"),
        ({"constraint": {"upper_bounds": [0.2, None]}}, "'constraint'"),
        ({"constraints": {"upper_bounds": [1.1, None], "lower_bounds": [0, 0]}},
         "'constraints.lower_bounds'"),
        ({"env": [{"type": "uniform", "lo": -1.0, "hi": 1.0, "sd": 9.0},
                  {"type": "normal", "mu": 0.0, "sd": 0.5}]}, "'env[0].sd'"),
        ({"control_bounds": [[0.0, 3.0], [0.0, 1.0]]}, "'control_bounds'"),
        ({"constraints": {"upper_bounds": [math.nan, None]}}, "'constraints.upper_bounds'"),
        ({"constraints": {"upper_bounds": [None, -math.inf]}}, "'constraints.upper_bounds'"),
        ({"a": math.nan}, "'a'"),
        ({"a": math.inf}, "'a'"),
        ({"env": [{"type": "normal", "mu": math.nan, "sd": 0.5},
                  {"type": "uniform", "lo": -1.0, "hi": 1.0}]}, "'env[0].mu'"),
        ({"env": [{"type": "uniform", "lo": -1.0, "hi": 1.0},
                  {"type": "uniform", "lo": -1.0, "hi": math.inf}]}, "'env[1].hi'"),
        ({"problem": "sphere"}, "'problem'"),
        ({"constraints": 5}, "'constraints'"),
        ({"constraints": {"upper_bounds": [1.1]}}, "'constraints.upper_bounds'"),
        # Numbers must be JSON numbers, as in the config.
        ({"a": True}, "'a'"),
        ({"a": "0.5"}, "'a'"),
        ({"env": [{"type": "uniform", "lo": False, "hi": True},
                  {"type": "normal", "mu": 0.0, "sd": 0.5}]}, "'env[0].lo'"),
        ({"env": [{"type": "uniform", "lo": -1.0, "hi": 1.0},
                  {"type": "normal", "mu": 0.0, "sd": True}]}, "'env[1].sd'"),
        ({"constraints": {"upper_bounds": [True, None]}}, "'constraints.upper_bounds'"),
        ({"control_bounds": [[False, True], [0, 1]]}, "'control_bounds'"),
    ])
    def test_invalid_problem_field_exits_2_naming_it(self, tmp_path, capsys, extra, field):
        rc = main([
            "run", "--problem", _problem_file(tmp_path, **extra),
            "--config", _config_file(tmp_path), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert field in capsys.readouterr().err

    def test_runtime_failure_exits_1_with_its_message(self, tmp_path, capsys, monkeypatch):
        from moeeqi import cli

        def run(problem, config):
            raise GpFitError("no positive-definite covariance found at any restart")

        monkeypatch.setattr(cli, "run", run)
        rc = main([
            "run", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: no positive-definite covariance found at any restart\n"

    def test_inline_problem_json_longer_than_a_file_name(self, tmp_path):
        doc = {"problem": "toy", "a": 0.0, "env": [{"type": "uniform", "lo": -1.0, "hi": 1.0}] * 8}
        assert len(json.dumps(doc)) > 255
        rc = main([
            "run", "--problem", json.dumps(doc),
            "--config", _config_file(tmp_path, n_iter=1), "--out", str(tmp_path / "out"),
        ])
        assert rc == 0

    def test_inline_config_gives_the_artifacts_of_its_file(self, tmp_path):
        config = _config_file(tmp_path)
        args = lambda source, out: [
            "run", "--problem", _problem_file(tmp_path),
            "--config", source, "--out", str(tmp_path / out),
        ]
        assert main(args(config, "file")) == 0
        assert main(args("  " + Path(config).read_text(), "inline")) == 0
        for name in ("observations.csv", "front.csv", "evolution.csv"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


class TestCmdOracle:
    def test_endpoints_near_corners(self, tmp_path):
        out = tmp_path / "front.csv"
        rc = main([
            "oracle", "--problem", _problem_file(tmp_path),
            "--resolution", "100", "--out", str(out),
        ])
        assert rc == 0
        _, rows = _read_csv(out)
        first = (float(rows[0][0]), float(rows[0][1]))
        last = (float(rows[-1][0]), float(rows[-1][1]))
        assert math.hypot(first[0] - 0.0, first[1] - 1.0) < 0.02
        assert math.hypot(last[0] - 1.0, last[1] - 0.0) < 0.02

    def test_resolution_one_is_rejected(self, tmp_path, capsys):
        rc = main([
            "oracle", "--problem", _problem_file(tmp_path),
            "--resolution", "1", "--out", str(tmp_path / "front.csv"),
        ])
        assert rc == 2
        assert "resolution" in capsys.readouterr().err

    def test_control_bounds_outside_the_toy_box_exit_2(self, tmp_path, capsys):
        out = tmp_path / "front.csv"
        rc = main([
            "oracle", "--problem", _problem_file(tmp_path, control_bounds=[[0.0, 3.0], [0.0, 1.0]]),
            "--resolution", "20", "--out", str(out),
        ])
        assert rc == 2
        assert "'control_bounds'" in capsys.readouterr().err
        assert not out.exists()

    def test_output_parses_back_as_valid_front(self, tmp_path):
        out = tmp_path / "front.csv"
        main([
            "oracle", "--problem", _problem_file(tmp_path),
            "--resolution", "40", "--out", str(out),
        ])
        _, rows = _read_csv(out)
        front = ParetoFront([FrontPoint(float(r[0]), float(r[1])) for r in rows])
        assert len(front) == len(rows)


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


class TestCmdStudy:
    def test_row_accounting_and_bands(self, tmp_path):
        out = tmp_path / "study"
        config = _config_file(
            tmp_path, n_iter=2, study_betas=[0.7, 0.9], truth_resolution=150
        )
        rc = main([
            "study", "--problem", _problem_file(tmp_path),
            "--config", config, "--replicates", "3", "--out", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out / "metrics.csv")
        # 3 variants (beta 0.7, beta 0.9, moeei) x 3 replicates x 2 iterations
        assert len(rows) == 3 * 3 * 2
        comparators = {r[0] for r in rows}
        assert comparators == {"moeeqi", "moeei"}
        per_variant = {}
        for r in rows:
            per_variant.setdefault((r[0], r[1]), []).append(r)
        for rows_v in per_variant.values():
            assert len(rows_v) == 3 * 2

        s_header, s_rows = _read_csv(out / "summary.csv")
        i_dist = s_header.index("mean_distance_mean")
        for r in s_rows:
            lo, mean, hi = float(r[i_dist + 1]), float(r[i_dist]), float(r[i_dist + 2])
            assert lo <= mean <= hi

    @pytest.mark.filterwarnings("error")
    def test_all_empty_fronts_summarize_to_nan_without_warnings(self, tmp_path):
        # q1 <= -5 holds nowhere, so every replicate's front is empty
        out = tmp_path / "study"
        rc = main([
            "study", "--problem", _problem_file(tmp_path, constraints={"upper_bounds": [-5, None]}),
            "--config", _config_file(tmp_path, n_iter=2, truth_resolution=100),
            "--replicates", "2", "--out", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out / "summary.csv")
        i_dist = header.index("mean_distance_mean")
        assert len(rows) == 2 * 2  # 2 variants x 2 iterations
        for r in rows:
            assert r[i_dist:i_dist + 3] == ["nan", "nan", "nan"]
            assert r[header.index("front_size_mean")] == "0"

    def test_study_meta_records_failures_field(self, tmp_path):
        out = tmp_path / "study"
        config = _config_file(tmp_path, n_iter=1, truth_resolution=100)
        main([
            "study", "--problem", _problem_file(tmp_path),
            "--config", config, "--replicates", "1", "--out", str(out),
        ])
        meta = json.loads((out / "study_meta.json").read_text())
        assert meta["failures"] == []
        assert meta["replicates"] == 1

    def test_study_meta_records_the_failure_type(self, tmp_path, monkeypatch):
        from moeeqi import cli

        real_run = cli.run

        def run(problem, config):
            if config.comparator == "moeeqi" and config.seed == 18:
                raise GpFitError("no fit")
            return real_run(problem, config)

        monkeypatch.setattr(cli, "run", run)
        out = tmp_path / "study"
        rc = main([
            "study", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path, n_iter=1, truth_resolution=100),
            "--replicates", "2", "--out", str(out),
        ])
        assert rc == 0
        _, rows = _read_csv(out / "metrics.csv")
        assert [(r[0], r[2]) for r in rows] == [("moeeqi", "0"), ("moeei", "0"), ("moeei", "1")]
        meta = json.loads((out / "study_meta.json").read_text())
        assert meta["failures"] == [{"comparator": "moeeqi", "beta": 0.7, "replicate": 1,
                                     "type": "GpFitError", "error": "no fit"}]

    def test_every_replicate_failing_exits_1(self, tmp_path, capsys, monkeypatch):
        from moeeqi import cli

        def run(problem, config):
            raise GpFitError("no fit")

        monkeypatch.setattr(cli, "run", run)
        out = tmp_path / "study"
        rc = main([
            "study", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path, n_iter=1, truth_resolution=100),
            "--replicates", "2", "--out", str(out),
        ])
        assert rc == 1
        assert "4/4 failed replicates" in capsys.readouterr().err
        assert len(json.loads((out / "study_meta.json").read_text())["failures"]) == 4

    def test_zero_replicates_rejected(self, tmp_path, capsys):
        rc = main([
            "study", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path), "--replicates", "0",
            "--out", str(tmp_path / "study"),
        ])
        assert rc == 2
        assert "replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("fixed", [{"5": 0.0}, {"1": 2.0}, {"x": 0.1}, {"0": 0.5, "1": 0.5}])
    def test_invalid_fixed_coords_exit_2_before_any_replicate(self, tmp_path, capsys, fixed):
        out = tmp_path / "study"
        rc = main([
            "study", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path, fixed_coords=fixed, truth_resolution=50),
            "--replicates", "1", "--out", str(out),
        ])
        assert rc == 2
        assert "fixed_coords" in capsys.readouterr().err
        assert not (out / "study_meta.json").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"study_betas": 0.7}, "study_betas"),
        ({"truth_resolution": 1}, "truth_resolution"),
        ({"study_betas": [1.5]}, "study_betas"),
        ({"study_betas": []}, "study_betas"),
        ({"study_betas": [0.7, 0.7]}, "study_betas"),
    ])
    def test_invalid_study_field_exits_2_before_the_truth_front(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "study"
        rc = main([
            "study", "--problem", _problem_file(tmp_path),
            "--config", _config_file(tmp_path, **overrides), "--replicates", "1", "--out", str(out),
        ])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# unusable paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, option, target", [
    ("run", "--config", "missing"),
    ("run", "--config", "directory"),
    ("run", "--problem", "missing"),
    ("oracle", "--problem", "missing"),
    ("run", "--problem", "directory"),
    ("study", "--problem", "directory"),
    ("run", "--out", "file"),
    ("study", "--out", "file"),
    ("oracle", "--out", "directory"),
])
def test_unusable_path_exits_2_naming_the_option_before_any_work(
        tmp_path, capsys, monkeypatch, command, option, target):
    def no_work(*args):
        raise RuntimeError("work started before the paths were checked")

    monkeypatch.setattr("moeeqi.cli.run", no_work)
    monkeypatch.setattr("moeeqi.cli.oracle_front", no_work)
    bad = tmp_path / "bad"
    if target == "directory":
        bad.mkdir()
    elif target == "file":
        bad.write_text("")
    paths = {"--problem": _problem_file(tmp_path), "--out": str(tmp_path / "out")}
    if command != "oracle":
        paths["--config"] = _config_file(tmp_path)
    paths[option] = str(bad)
    extra = {"run": [], "study": ["--replicates", "1"], "oracle": ["--resolution", "50"]}[command]
    rc = main([command] + [a for pair in paths.items() for a in pair] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert option in err and str(bad) in err


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


class TestLoadConfig:
    def test_mode_schedule_round_trip(self, tmp_path):
        path = _config_file(
            tmp_path, n_iter=4, mode_schedule=[["aggressive", 1], ["non_aggressive", 3]]
        )
        config, _ = load_config(path)
        assert [m.value for m, _ in config.mode_schedule] == ["aggressive", "non_aggressive"]

    def test_invalid_schedule_sum_is_schema_error(self, tmp_path):
        from moeeqi.problems import ProblemSchemaError

        path = _config_file(tmp_path, n_iter=4, mode_schedule=[["aggressive", 1]])
        with pytest.raises(ProblemSchemaError):
            load_config(path)

    def test_null_fields_take_their_defaults(self, tmp_path):
        path = _config_file(tmp_path, seed=None, min_score=None, n_mc=10.0,
                            study_betas=None, truth_resolution=None)
        config, study = load_config(path)
        assert (config.seed, config.min_score, config.n_mc) == (0, None, 10)
        assert study == {"study_betas": None, "truth_resolution": 500}

    def test_study_fields_are_extracted(self, tmp_path):
        path = _config_file(tmp_path, study_betas=[0.6, 0.8], truth_resolution=123)
        config, study = load_config(path)
        assert study["study_betas"] == [0.6, 0.8]
        assert study["truth_resolution"] == 123
        assert config.beta == 0.7
