import json
import os
import re
import stat
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tlspr import analysis, cli, correction, noise, serialization
from tlspr.cli import (
    ExperimentConfig,
    UsageError,
    _strip_wall_time,
    config_from_mapping,
    load_config,
    main,
    run_error_analysis,
    run_sweep,
    run_trial,
)
from tlspr.core import MeasurementSet, SensingEnsemble, make_rng, trial_rng
from tlspr.metrics import rel_dist
from tlspr.models import synthesize_measurements
from tlspr.solvers import SolverConfig, solve_ls, solve_tls, spectral_init

from oracles import peak_bytes


def test_config_from_nested_mapping():
    cfg = config_from_mapping(
        {
            "seed": 5,
            "n": 24,
            "ratios": [4, 8],
            "noise": {"model": "gaussian", "measurement_snr_db": [20, 30], "sensing_snr_db": 10},
            "solver": {"threshold": 1e-8, "max_iters": 100},
            "analysis": {"mode": "first_order", "lambda_ratio": 2.0},
            "real_mode": True,
        }
    )
    assert cfg.seed == 5
    assert cfg.ratios == (4, 8)
    assert cfg.measurement_snr_db == (20, 30)
    assert cfg.sensing_snr_db == (10,)
    assert cfg.threshold == 1e-8
    assert cfg.analysis_mode == "first_order"
    assert cfg.lambda_ratio == 2.0


def test_config_rejects_unknown_keys():
    with pytest.raises(UsageError):
        config_from_mapping({"frobnicate": 1})
    with pytest.raises(UsageError):
        config_from_mapping({"solver": {"bogus": 1}})
    with pytest.raises(UsageError):
        config_from_mapping({"trials": 0})
    with pytest.raises(UsageError):
        config_from_mapping({"model": "cdp", "ratios": [2.5]})


@pytest.mark.parametrize("grid_points", [0, 1])
def test_config_rejects_grid_points_below_two(tmp_path, capsys, grid_points):
    with pytest.raises(UsageError, match="grid_points"):
        config_from_mapping({"analysis": {"grid_points": grid_points}})
    config_path = tmp_path / "grid.yaml"
    config_path.write_text(
        "n: 8\nratios: [4]\ntrials: 1\nreal_mode: true\n"
        "noise:\n  measurement_snr_db: 30\n  sensing_snr_db: 30\n"
        f"analysis:\n  mode: ml_sweep\n  grid_points: {grid_points}\n"
    )
    rc = main(["analyze", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: config key analysis.grid_points does not take {grid_points}: it must be >= 2\n"


@pytest.mark.parametrize(
    "text, key",
    [
        ('n: "8"\n', "n"),
        ("trials: true\n", "trials"),
        ("seed: 1.5\n", "seed"),
        ('real_mode: "no"\n', "real_mode"),
        ("model: 3\n", "model"),
        ("ratios: [4, x]\n", "ratios"),
        ("ratios: [4, null]\n", "ratios"),
        ("noise:\n  measurement_snr_db: abc\n", "noise.measurement_snr_db"),
        ("noise:\n  sensing_snr_db: [10, true]\n", "noise.sensing_snr_db"),
        ("solver:\n  threshold: 1e-6x\n", "solver.threshold"),
        ("solver:\n  threshold: true\n", "solver.threshold"),
        ("solver:\n  step_size_ls: [0.1]\n", "solver.step_size_ls"),
        ("solver:\n  max_iters: 10.0\n", "solver.max_iters"),
        ("analysis:\n  grid_decades: null\n", "analysis.grid_decades"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, text, key):
    import yaml

    with pytest.raises(UsageError, match=f"config key {key} does not take"):
        config_from_mapping(yaml.safe_load(text))
    config_path = tmp_path / "typed.yaml"
    config_path.write_text(text)
    rc = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: config key {key} does not take")
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "text, key, reason",
    [
        ("solver:\n  projection: bogus\n", "solver.projection", "unknown projection 'bogus'"),
        ("solver:\n  max_iters: -1\n", "solver.max_iters", "max_iters must be an integer >= 0, got -1"),
        ("solver:\n  power_iters: 0\n", "solver.power_iters", "power_iters must be an integer >= 1, got 0"),
        ("solver:\n  threshold: 0.0\n", "solver.threshold", "threshold must be finite and > 0, got 0.0"),
        ("solver:\n  step_size_ls: -1.0\n", "solver.step_size_ls", "step_size must be finite and > 0, got -1.0"),
        ("solver:\n  lambda_y_dag: .inf\n", "solver.lambda_y_dag", "lambda_y_dag must be finite and > 0, got inf"),
    ],
)
def test_config_rejects_solver_values_when_it_is_read(tmp_path, capsys, monkeypatch, text, key, reason):
    config_path = tmp_path / "solver.yaml"
    config_path.write_text(text)
    with pytest.raises(UsageError, match=f"config key {key} does not take") as err:
        cli.load_config(str(config_path))
    assert str(err.value).endswith(reason)
    drawn = []
    monkeypatch.setattr(cli, "_simulate", lambda *args: drawn.append(args))
    rc = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1 and not drawn
    assert capsys.readouterr().err.startswith(f"error: config key {key} does not take")
    assert not (tmp_path / "x.csv").exists()


def test_solver_section_is_solver_configs_fields_with_its_defaults():
    assert sorted(cli._NESTED_KEYS["solver"]) == sorted([
        "lambda_a_dag", "lambda_y_dag", "step_size_tls", "step_size_ls",
        "threshold", "max_iters", "power_iters", "projection",
    ])
    config = ExperimentConfig()
    assert config.solver_config("tls") == config.solver_config("ls") == SolverConfig()
    config = config_from_mapping({"solver": {
        "lambda_a_dag": 2.0, "lambda_y_dag": 3.0, "step_size_tls": 0.5, "step_size_ls": 0.25,
        "threshold": 1e-8, "max_iters": 7, "power_iters": 9, "projection": "real_binary",
    }})
    shared = dict(lambda_a_dag=2.0, lambda_y_dag=3.0, threshold=1e-8, max_iters=7, power_iters=9,
                  projection="real_binary")
    assert config.solver_config("tls") == SolverConfig(step_size=0.5, **shared)
    assert config.solver_config("ls") == SolverConfig(step_size=0.25, **shared)


def test_config_takes_the_floats_yaml_reads_as_strings(tmp_path, capsys):
    import yaml

    # YAML 1.1 reads an exponent without a dot (1e-6) as a string.
    bare = "solver:\n  threshold: 1e-7\n  step_size_tls: 2e-1\nanalysis:\n  lambda_ratio: 1e2\n"
    dotted = "solver:\n  threshold: 1.0e-7\n  step_size_tls: 2.0e-1\nanalysis:\n  lambda_ratio: 1.0e+2\n"
    assert yaml.safe_load(bare)["solver"]["threshold"] == "1e-7"
    config = config_from_mapping(yaml.safe_load(bare))
    assert config == config_from_mapping(yaml.safe_load(dotted))
    assert (config.threshold, config.step_size_tls, config.lambda_ratio) == (1e-7, 0.2, 100.0)
    # Ints stay ints in float fields, and null is an SNR that leaves a block clean.
    config = config_from_mapping({"solver": {"lambda_a_dag": 2}, "noise": {"sensing_snr_db": [None, 10]}})
    assert config.lambda_a_dag == 2 and type(config.lambda_a_dag) is int
    assert config.sensing_snr_db == (None, 10)
    config_path = tmp_path / "exp.yaml"
    config_path.write_text("n: 8\nratios: [4]\ntrials: 1\nsolver:\n  max_iters: 5\n  threshold: 1e-7\n")
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "s.csv")]) == 0
    assert (tmp_path / "s.csv").exists()
    capsys.readouterr()


def _tiny_config(**overrides):
    base = dict(
        seed=13,
        n=12,
        ratios=(4,),
        trials=2,
        max_iters=60,
        threshold=1e-9,
        measurement_snr_db=(30.0,),
        sensing_snr_db=(20.0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_sweep_csv_schema_and_determinism(tmp_path):
    cfg = _tiny_config()
    p1 = run_sweep(cfg, output=str(tmp_path / "one.csv"))
    p2 = run_sweep(cfg, output=str(tmp_path / "two.csv"))
    text1 = open(p1).read()
    text2 = open(p2).read()
    assert text1.startswith("# tlspr-sweep-csv v1\n")
    header = text1.splitlines()[1].split(",")
    assert header[:5] == ["record", "ratio", "meas_snr_db", "sensing_snr_db", "trial_index"]
    assert _strip_wall_time(text1) == _strip_wall_time(text2)
    lines = text1.strip().splitlines()
    # 2 trials + mean + std rows
    assert len(lines) == 2 + 2 + 2
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("std,")


def test_sweep_worker_counts_agree(tmp_path):
    cfg = _tiny_config(trials=3)
    old = os.environ.get("TLSPR_WORKERS")
    try:
        os.environ["TLSPR_WORKERS"] = "1"
        p1 = run_sweep(cfg, output=str(tmp_path / "serial.csv"))
        os.environ["TLSPR_WORKERS"] = "2"
        p2 = run_sweep(cfg, output=str(tmp_path / "parallel.csv"))
    finally:
        if old is None:
            os.environ.pop("TLSPR_WORKERS", None)
        else:
            os.environ["TLSPR_WORKERS"] = old
    assert _strip_wall_time(open(p1).read()) == _strip_wall_time(open(p2).read())


@pytest.mark.parametrize("value", ["abc", "0"])
def test_sweep_rejects_a_worker_count_that_is_not_a_positive_integer(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("TLSPR_WORKERS", value)
    with pytest.raises(UsageError, match=repr(value)):
        cli.worker_count()
    config_path = tmp_path / "exp.yaml"
    config_path.write_text("n: 8\nratios: [4]\ntrials: 1\nsolver:\n  max_iters: 5\n")
    rc = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert f"TLSPR_WORKERS must be a positive integer, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_solve_step_size_flag_sets_both_solver_steps():
    args = cli.build_parser().parse_args(["solve", "--ensemble", "e", "--measurements", "m", "--step-size", "0.25"])
    config = cli.load_config(None, cli._flags(args))
    assert config.step_size_tls == config.step_size_ls == 0.25


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("synthesize", ["--seed", "7"], "seed: 7"),
        ("synthesize", ["--n", "12"], "n: 12"),
        ("synthesize", ["--ratio", "6"], "ratios: [6]"),
        ("synthesize", ["--model", "cdp"], "model: cdp"),
        ("synthesize", ["--real"], "real_mode: true"),
        ("synthesize", ["--meas-snr-db", "20"], "noise:\n  measurement_snr_db: 20"),
        ("synthesize", ["--sensing-snr-db", "10"], "noise:\n  sensing_snr_db: 10"),
        ("synthesize", ["--noise-model", "handcrafted"], "noise:\n  model: handcrafted"),
        ("sweep", ["--trials", "3"], "trials: 3"),
        ("solve", ["--step-size", "0.25"], "solver:\n  step_size_tls: 0.25\n  step_size_ls: 0.25"),
        ("solve", ["--threshold", "1e-8"], "solver:\n  threshold: 1e-8"),
        ("solve", ["--max-iters", "7"], "solver:\n  max_iters: 7"),
        ("solve", ["--projection", "real_binary"], "solver:\n  projection: real_binary"),
    ],
)
def test_each_setting_flag_sets_the_config_its_yaml_key_does(tmp_path, command, flag, text):
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(text + "\n")
    files = ["--ensemble", "e", "--measurements", "m"] if command == "solve" else []
    parse = cli.build_parser().parse_args
    from_flag = cli.load_config(None, cli._flags(parse([command, *files, *flag])))
    from_yaml = cli.load_config(str(config_path), cli._flags(parse([command, *files])))
    assert from_flag == from_yaml != ExperimentConfig()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["sweep", "--trials", "1"], "n: 8\nratios: [4]\ntrials: 0\nsolver:\n  max_iters: 5"),
        (["synthesize", "--ratio", "4"], "n: 8\nratios: [0.01]"),
        (["synthesize", "--sensing-snr-db", "10"], "n: 8\nratios: [4]\nnoise:\n  sensing_snr_db: -7000"),
    ],
    ids=["trials", "ratios", "sensing_snr_db"],
)
def test_a_file_value_that_a_flag_replaces_is_never_checked(tmp_path, capsys, argv, text):
    (tmp_path / "exp.yaml").write_text(text + "\n")
    assert main([*argv, "--config", str(tmp_path / "exp.yaml"), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("real_mode", "no", "real_mode"),
        ("trials", 2.5, "trials"),
        ("n", 8.0, "n"),
        ("seed", 1.5, "seed"),
        ("seed", True, "seed"),
        ("max_iters", 7.0, "solver.max_iters"),
        ("threshold", "1e-6x", "solver.threshold"),
        ("noise_model", 3, "noise.model"),
        ("analysis_mode", None, "analysis.mode"),
        ("ratios", (4, "8"), "ratios"),
        ("sensing_snr_db", (10, True), "noise.sensing_snr_db"),
    ],
)
def test_a_config_built_in_python_passes_the_type_gate_naming_the_key(field, value, key):
    with pytest.raises(UsageError, match=f"^config key {key} does not take {re.escape(repr(value))}: it takes "):
        ExperimentConfig(**{field: value})


def test_a_config_built_in_python_stores_values_as_the_gate_gives_them():
    assert ExperimentConfig(ratios=8) == ExperimentConfig(ratios=(8,))
    assert ExperimentConfig(measurement_snr_db=[20, None]).measurement_snr_db == (20, None)
    assert ExperimentConfig(threshold="1e-7").threshold == 1e-7
    config = ExperimentConfig(seed=np.int64(3), n=np.int64(8), trials=np.int64(2), grid_points=np.int64(5),
                              max_iters=np.int64(7), power_iters=np.int64(9))
    assert config == ExperimentConfig(seed=3, n=8, trials=2, grid_points=5, max_iters=7, power_iters=9)
    assert all(type(getattr(config, name)) is int for name in ("seed", "n", "trials", "grid_points", "max_iters"))
    assert config.solver_config("tls").power_iters == 9


@pytest.mark.parametrize("value", [True, 7.0, np.float64(7.0), "7"])
def test_both_config_dataclasses_take_the_same_integers(value):
    for name in ("max_iters", "power_iters"):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            SolverConfig(**{name: value})
    for name in ("seed", "n", "trials", "grid_points", "max_iters", "power_iters"):
        with pytest.raises(UsageError, match=f"config key {cli._CONFIG_KEYS.get(name, name)} does not take"):
            ExperimentConfig(**{name: value})
    for integer in (7, np.int64(7), np.uint8(7)):
        assert SolverConfig(max_iters=integer).max_iters == ExperimentConfig(max_iters=integer).max_iters == 7


def test_main_builds_one_config_per_call(tmp_path, monkeypatch, capsys):
    (tmp_path / "exp.yaml").write_text("n: 8\nratios: [4]\n")
    built = []
    post_init = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__", lambda self: built.append(self) or post_init(self))
    argv = ["synthesize", "--config", str(tmp_path / "exp.yaml"), "--n", "6", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    assert [(config.n, config.ratios) for config in built] == [(6, (4,))]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (["synthesize", "--ratio", "inf"], None, "ratios"),
        (["synthesize", "--meas-snr-db", "nan"], None, "noise.measurement_snr_db"),
        (["sweep"], "ratios: [.inf]", "ratios"),
        (["sweep"], "ratios: [0]", "ratios"),
        (["sweep"], "ratios: [-2]", "ratios"),
        (["sweep"], "model: cdp\nratios: [.inf]", "ratios"),
        (["sweep"], "noise:\n  measurement_snr_db: .nan", "noise.measurement_snr_db"),
        (["sweep"], "noise:\n  sensing_snr_db: [10, -.inf]", "noise.sensing_snr_db"),
    ],
)
def test_ratios_and_snrs_are_checked_at_the_gate(tmp_path, capsys, argv, text, key):
    if text is not None:
        (tmp_path / "exp.yaml").write_text(text + "\n")
        argv = [*argv, "--config", str(tmp_path / "exp.yaml")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key} does not take")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


_REAL_ANALYSIS = "n: 8\nratios: [4]\ntrials: 1\nreal_mode: true\nnoise:\n  measurement_snr_db: 30\n  sensing_snr_db: 30\n"


def _draws(monkeypatch) -> list:
    """The seeds of every generator the CLI makes from here on."""
    drawn = []
    make_rng = cli.make_rng
    monkeypatch.setattr(cli, "make_rng", lambda seed: drawn.append(seed) or make_rng(seed))
    return drawn


@pytest.mark.parametrize(
    "argv, text",
    [
        (["synthesize", "--ratio", "0.01", "--n", "8"], None),
        (["sweep"], "n: 8\nratios: [4, 0.01]"),
        (["analyze"], _REAL_ANALYSIS + "ratios: [0.01]\nanalysis:\n  mode: first_order"),
    ],
    ids=["synthesize", "sweep", "analyze"],
)
def test_a_ratio_that_gives_no_rows_fails_at_the_gate_before_any_draw(tmp_path, capsys, monkeypatch, argv, text):
    if text is not None:
        (tmp_path / "exp.yaml").write_text(text + "\n")
        argv = [*argv, "--config", str(tmp_path / "exp.yaml")]
    drawn = _draws(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key ratios does not take 0.01: at n 8 its ensemble has round(0.01 * 8) = 0")
    assert "Traceback" not in err and not drawn
    assert not list(tmp_path.glob("out*"))


def test_a_ratio_beyond_float_range_is_not_rounded_without_the_memory_probe(monkeypatch):
    # ratio * n is infinite, and round(inf) would raise an OverflowError.
    monkeypatch.setattr(os, "sysconf_names", {})
    assert ExperimentConfig(n=64, ratios=(1e308,)).ratios == (1e308,)


@pytest.mark.parametrize(
    "text, key, reason",
    [
        ("grid_decades: .inf", "analysis.grid_decades", "grid_decades must be finite and > 0, got inf"),
        ("grid_decades: .nan", "analysis.grid_decades", "grid_decades must be finite and > 0, got nan"),
        ("grid_decades: -1.0", "analysis.grid_decades", "grid_decades must be finite and > 0, got -1.0"),
        ("grid_decades: 0", "analysis.grid_decades", "grid_decades must be finite and > 0, got 0"),
        ("lambda_ratio: -1.0", "analysis.lambda_ratio", "lambda_ratio must be finite and >= 0, got -1.0"),
        ("lambda_ratio: .inf", "analysis.lambda_ratio", "lambda_ratio must be finite and >= 0, got inf"),
    ],
    ids=["grid_decades-inf", "grid_decades-nan", "grid_decades-negative", "grid_decades-zero",
         "lambda_ratio-negative", "lambda_ratio-inf"],
)
def test_config_rejects_analysis_values_when_it_is_read(tmp_path, capsys, monkeypatch, text, key, reason):
    config_path = tmp_path / "analysis.yaml"
    config_path.write_text(_REAL_ANALYSIS + f"analysis:\n  mode: ml_sweep\n  {text}\n")
    with pytest.raises(UsageError, match=f"config key {key} does not take") as err:
        cli.load_config(str(config_path))
    assert str(err.value).endswith(reason)
    drawn = _draws(monkeypatch)
    rc = main(["analyze", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1 and not drawn
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "noise_section, key, value",
    [("", "measurement_snr_db", [None]), ("  measurement_snr_db: 30\n", "sensing_snr_db", [None]),
     ("  sensing_snr_db: 30\n", "measurement_snr_db", [None]),
     ("  measurement_snr_db: 30\n  sensing_snr_db: [30, null]\n", "sensing_snr_db", [30, None])],
    ids=["no-targets", "no-sensing", "no-measurement", "null-in-list"],
)
def test_ml_sweep_without_both_snr_targets_fails_before_any_trial(tmp_path, capsys, monkeypatch, noise_section,
                                                                  key, value):
    config_path = tmp_path / "ml.yaml"
    config_path.write_text("n: 8\nratios: [4]\ntrials: 1\nreal_mode: true\n"
                           f"noise:\n  model: gaussian\n{noise_section}analysis:\n  mode: ml_sweep\n")
    drawn = _draws(monkeypatch)
    rc = main(["analyze", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1 and not drawn
    reason = "ml_sweep needs finite SNR targets on both blocks"
    assert capsys.readouterr().err == f"error: config key noise.{key} does not take {value}: {reason}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "analyze"])
def test_an_output_that_cannot_be_written_is_refused_before_the_first_trial(tmp_path, capsys, monkeypatch, command):
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(_REAL_ANALYSIS + "solver:\n  max_iters: 40\nanalysis:\n  mode: first_order\n")
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    drawn = _draws(monkeypatch)
    reason = "it must name a file in an existing directory"
    for out in (tmp_path / "absent" / "x.csv", tmp_path / "file" / "x.csv", tmp_path / "dir"):
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config key output does not take {str(out)!r}: {reason}\n"
    assert not drawn and sorted(p.name for p in tmp_path.iterdir()) == ["dir", "exp.yaml", "file"]
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 0
    assert drawn and (tmp_path / "x.csv").read_text().startswith("# tlspr-")
    capsys.readouterr()


def _analysis_at(meas_db, sens_db, mode):
    return (f"n: 8\nratios: [4]\ntrials: 1\nreal_mode: true\nnoise:\n  measurement_snr_db: {meas_db}\n"
            f"  sensing_snr_db: {sens_db}\nanalysis:\n  mode: {mode}")


@pytest.mark.parametrize(
    "argv, text, key, db",
    [
        (["synthesize", "--n", "4", "--ratio", "4", "--sensing-snr-db", "-7000"], None, "sensing_snr_db", "-7000.0"),
        (["analyze"], _analysis_at(-3100, 30, "expected"), "measurement_snr_db", "-3100"),
        (["analyze"], _analysis_at(-3100, 30, "ml_sweep"), "measurement_snr_db", "-3100"),
        (["analyze"], _analysis_at(30, 4000, "ml_sweep"), "sensing_snr_db", "4000"),
        (["sweep"], "n: 8\nratios: [4]\ntrials: 1\nnoise:\n  measurement_snr_db: 7000", "measurement_snr_db", "7000"),
    ],
    ids=["synthesize-overflow", "expected-overflow", "ml_sweep-overflow", "ml_sweep-underflow", "sweep-underflow"],
)
def test_an_snr_target_whose_energy_ratio_is_not_a_positive_float_fails_at_the_gate(
    tmp_path, capsys, monkeypatch, argv, text, key, db
):
    if text is not None:
        (tmp_path / "exp.yaml").write_text(text + "\n")
        argv = [*argv, "--config", str(tmp_path / "exp.yaml")]
    drawn = _draws(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    reason = f"{key} must be a finite number or None, a number within about -3082.5 to 3236 dB"
    assert err.startswith(f"error: config key noise.{key} does not take {db}: {reason}")
    assert "Traceback" not in err and not drawn
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("noise: 5\n", "config section 'noise' must be a mapping"),
        ("analysis: [first_order]\n", "config section 'analysis' must be a mapping"),
        ("n: [1, 2\n", "config parse error"),
        ("- n\n- 8\n", "config root must be a mapping"),
        ("n: 0\n", "config key n does not take 0: it must be >= 1"),
        ("model: dft\n", "config key model does not take 'dft': it must be one of gaussian, cdp"),
        ("noise:\n  model: laplace\n", "config key noise.model does not take 'laplace': it must be one of gaussian, "
         "handcrafted"),
        ("analysis:\n  mode: exact\n", "config key analysis.mode does not take 'exact': it must be one of none, "
         "first_order, expected, ml_sweep"),
    ],
)
def test_a_malformed_config_file_is_a_usage_error_naming_its_key(tmp_path, capsys, text, message):
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(text)
    with pytest.raises(UsageError, match=message):
        load_config(str(config_path))
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_analyze_without_a_mode_lists_the_three_modes(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "none.yaml"
    config_path.write_text(_REAL_ANALYSIS)
    drawn = _draws(monkeypatch)
    assert main(["analyze", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    reason = "analyze takes only first_order, expected, ml_sweep"
    assert capsys.readouterr().err == f"error: config key analysis.mode does not take 'none': {reason}\n"
    assert not drawn and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["measurement_snr_db", "sensing_snr_db"])
@pytest.mark.parametrize("db", ["20", float("nan"), pytest.param(10**400, id="int-beyond-float")])
def test_config_checks_each_snr_as_a_noise_spec_does(key, db):
    reason = f"{key} must be a finite number or None"
    with pytest.raises(UsageError, match=f"^config key noise.{key} does not take .*: {reason}"):
        ExperimentConfig(**{key: (10.0, db)})


# A bad value of every ExperimentConfig field: its YAML text, the argv of a flag that sets it badly (None where
# no flag does: argparse refuses a bad choice or integer itself, and --step-size sets step_size_tls first) and
# the key every refusal names.
_BAD_SETTINGS = {
    "seed": ("seed: 1.5", None, "seed"),
    "n": ("n: 0", ["synthesize", "--n", "0"], "n"),
    "ratios": ("ratios: [0]", ["synthesize", "--ratio", "0"], "ratios"),
    "model": ("model: dft", None, "model"),
    "real_mode": ('real_mode: "no"', None, "real_mode"),
    "trials": ("trials: 0", ["sweep", "--trials", "0"], "trials"),
    "noise_model": ("noise:\n  model: laplace", None, "noise.model"),
    "measurement_snr_db": ("noise:\n  measurement_snr_db: .nan", ["synthesize", "--meas-snr-db", "nan"],
                           "noise.measurement_snr_db"),
    "sensing_snr_db": ("noise:\n  sensing_snr_db: -7000", ["synthesize", "--sensing-snr-db", "-7000"],
                       "noise.sensing_snr_db"),
    "lambda_a_dag": ("solver:\n  lambda_a_dag: 0", None, "solver.lambda_a_dag"),
    "lambda_y_dag": ("solver:\n  lambda_y_dag: .inf", None, "solver.lambda_y_dag"),
    "step_size_tls": ("solver:\n  step_size_tls: -1.0", ["solve", "--step-size", "-1"], "solver.step_size_tls"),
    "step_size_ls": ("solver:\n  step_size_ls: [0.1]", None, "solver.step_size_ls"),
    "threshold": ("solver:\n  threshold: 0.0", ["solve", "--threshold", "0"], "solver.threshold"),
    "max_iters": ("solver:\n  max_iters: -1", ["solve", "--max-iters", "-1"], "solver.max_iters"),
    "power_iters": ("solver:\n  power_iters: 0", None, "solver.power_iters"),
    "projection": ("solver:\n  projection: bogus", None, "solver.projection"),
    "analysis_mode": ("analysis:\n  mode: exact", None, "analysis.mode"),
    "lambda_ratio": ("analysis:\n  lambda_ratio: -1.0", None, "analysis.lambda_ratio"),
    "grid_points": ("analysis:\n  grid_points: 1", None, "analysis.grid_points"),
    "grid_decades": ("analysis:\n  grid_decades: 0", None, "analysis.grid_decades"),
    "output": ("output: 3", ["sweep", "--out", "absent/x.csv"], "output"),
}


def test_the_bad_settings_cover_every_config_field():
    assert sorted(_BAD_SETTINGS) == sorted(cli._FIELD_TYPES)


@pytest.mark.parametrize("field", sorted(_BAD_SETTINGS))
def test_every_setting_is_refused_by_its_yaml_key(tmp_path, capsys, monkeypatch, field):
    import yaml

    text, argv, key = _BAD_SETTINGS[field]
    with pytest.raises(UsageError, match=f"^config key {re.escape(key)} does not take "):
        config_from_mapping(yaml.safe_load(text))
    if argv is not None:
        monkeypatch.chdir(tmp_path)
        if argv[0] == "solve":
            argv = [*argv, "--ensemble", "absent.tlspr", "--measurements", "absent.tlspr"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key} does not take ") and "Traceback" not in err
        assert not list(tmp_path.iterdir())


def test_only_seven_fields_have_no_section():
    top = sorted(set(cli._FIELD_TYPES) - set(cli._CONFIG_KEYS))
    assert top == ["model", "n", "output", "ratios", "real_mode", "seed", "trials"]
    assert len(cli._CONFIG_KEYS) == 15


def _default_setting(field: str):
    """``field``'s default as a YAML value: a list for a tuple."""
    value = getattr(ExperimentConfig(), field)
    return list(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("field", sorted(cli._CONFIG_KEYS))
def test_a_section_field_at_the_top_level_is_refused_by_its_section_key(tmp_path, capsys, monkeypatch, field):
    import yaml

    key = cli._CONFIG_KEYS[field]
    section, sub = key.split(".")
    value = _default_setting(field)
    message = f"unknown config key '{field}': write it as {key}"
    drawn = _draws(monkeypatch)
    # Alone, and beside its section key in either order: a setting is read only from its one key.
    for data in ({field: value}, {field: value, section: {sub: value}}, {section: {sub: value}, field: value}):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            config_from_mapping(data)
        config_path = tmp_path / "top.yaml"
        config_path.write_text(yaml.safe_dump(data, sort_keys=False))
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            load_config(str(config_path))
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not drawn and not (tmp_path / "x.csv").exists()
    assert getattr(config_from_mapping({section: {sub: value}}), field) == getattr(ExperimentConfig(), field)


@pytest.mark.parametrize(
    "argv, text",
    [(["synthesize", "--seed", "-1"], None), (["selftest", "--seed", "-1"], None), (["sweep"], "seed: -1")],
    ids=["synthesize-flag", "selftest-flag", "sweep-yaml"],
)
def test_a_negative_seed_is_refused_at_the_gate_before_any_draw(tmp_path, capsys, monkeypatch, argv, text):
    with pytest.raises(UsageError, match="^config key seed does not take -1: it must be >= 0$"):
        ExperimentConfig(seed=-1)
    if text is not None:
        (tmp_path / "exp.yaml").write_text(text + "\n")
        argv = [*argv, "--config", str(tmp_path / "exp.yaml")]
    drawn = _draws(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: config key seed does not take -1: it must be >= 0\n"
    assert not drawn and not list(tmp_path.glob("out*"))
    assert ExperimentConfig(seed=0).seed == 0


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_the_documented_config_grammar_names_each_setting_by_its_one_key(doc):
    import yaml

    text = (Path(__file__).resolve().parents[1] / doc).read_text()
    grammar = text.split("### Config grammar (YAML)", 1)[1]
    data = yaml.safe_load(grammar.split("```yaml\n", 1)[1].split("```", 1)[0])
    config_from_mapping(data)
    keys = [f"{k}.{sub}" for k, v in data.items() if k in cli._NESTED_KEYS for sub in v]
    keys += [k for k in data if k not in cli._NESTED_KEYS]
    assert sorted(keys) == sorted(cli._CONFIG_KEYS.get(name, name) for name in cli._FIELD_TYPES)


def test_solve_injects_real_sensing_errors_into_real_files(tmp_path):
    prefix, out = str(tmp_path / "real"), str(tmp_path / "sol")
    assert main(["synthesize", "--real", "--n", "8", "--ratio", "4", "--seed", "1", "--out", prefix]) == 0
    files = ["--ensemble", prefix + ".ensemble.tlspr", "--measurements", prefix + ".meas.tlspr"]
    # The config keeps its default real_mode: false; the errors follow the data.
    assert main(["solve", *files, "--sensing-snr-db", "10", "--meas-snr-db", "20", "--out", out]) == 0
    corrected, x_hat = serialization.load(out + ".corrected.tlspr"), serialization.load(out + ".solution.tlspr")
    assert corrected.is_real() and not x_hat.imag.any()
    y, ens = serialization.load(prefix + ".meas.tlspr"), serialization.load(prefix + ".ensemble.tlspr")
    y_obs, ens_obs = noise.inject(make_rng(0), y, ens, noise.NoiseSpec(20.0, 10.0))
    assert np.array_equal(solve_tls(y_obs, ens_obs, ExperimentConfig().solver_config("tls")).x_hat, x_hat)


def _file_bytes(prefix, *kinds):
    return [(prefix.parent / f"{prefix.name}.{kind}.tlspr").read_bytes() for kind in kinds]


def test_synthesize_and_solve_read_the_config_noise_like_the_flags(tmp_path):
    # Each run writes to its own directory under one prefix, since the
    # measurement file names its ensemble file.
    config_path = tmp_path / "noise.yaml"
    config_path.write_text("n: 8\nratios: [4]\nnoise:\n  measurement_snr_db: 20\n  sensing_snr_db: 10\n")
    flags = ["--meas-snr-db", "20", "--sensing-snr-db", "10"]
    runs = {"config": ["--config", str(config_path)], "flags": flags, "none": []}
    for name, args in runs.items():
        (tmp_path / name).mkdir()
        shape = [] if name == "config" else ["--n", "8", "--ratio", "4"]
        assert main(["synthesize", "--seed", "3", "--out", str(tmp_path / name / "in"), *shape, *args]) == 0
    kinds = ("ensemble", "meas", "signal")
    synthesized = {name: _file_bytes(tmp_path / name / "in", *kinds) for name in runs}
    assert synthesized["config"] == synthesized["flags"] != synthesized["none"]
    # solve injects the same errors into the clean files under either source.
    src = tmp_path / "none" / "in"
    files = ["--ensemble", f"{src}.ensemble.tlspr", "--measurements", f"{src}.meas.tlspr", "--max-iters", "5"]
    for name, args in runs.items():
        assert main(["solve", *files, "--out", str(tmp_path / name / "sol"), *args]) == 0
    solved = {name: _file_bytes(tmp_path / name / "sol", "solution", "corrected") for name in runs}
    assert solved["config"] == solved["flags"] != solved["none"]


@pytest.mark.parametrize(
    "command, setting, key",
    [
        ("synthesize", "ratios: [4, 8]\n", "ratios"),
        ("synthesize", "noise:\n  measurement_snr_db: [20, 30]\n", "noise.measurement_snr_db"),
        ("solve", "noise:\n  sensing_snr_db: [10, 20]\n", "noise.sensing_snr_db"),
    ],
)
def test_one_instance_commands_reject_a_list_of_several_values(tmp_path, capsys, command, setting, key):
    src = tmp_path / "in"
    assert main(["synthesize", "--n", "8", "--ratio", "4", "--seed", "1", "--out", str(src)]) == 0
    config_path = tmp_path / "lists.yaml"
    config_path.write_text("n: 8\n" + setting)
    capsys.readouterr()
    args = [] if command == "synthesize" else ["--ensemble", f"{src}.ensemble.tlspr", "--measurements", f"{src}.meas.tlspr"]
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "out"), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key} does not take [")
    assert err.endswith("]: this command takes one value\n")
    assert not list(tmp_path.glob("out*"))


def test_main_builds_the_parser_once_and_prints_its_help(tmp_path, monkeypatch, capsys):
    build = cli.build_parser
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()

    def help_text(parse, argv):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        assert info.value.code == 0
        return capsys.readouterr().out

    argvs = (["--help"], ["solve", "--help"])
    helps = [help_text(main, argv) for argv in argvs + argvs]
    assert main(["sweep", "--config", str(tmp_path / "absent.yaml")]) == 1
    assert len(builds) == 1
    # build_parser still returns a new parser, whose help the cached one prints.
    assert build() is not build()
    assert helps == [help_text(build().parse_args, argv) for argv in argvs + argvs]


def test_run_trial_shares_initialization():
    cfg = _tiny_config(max_iters=30)
    row = run_trial(cfg, 4, 30.0, 20.0, trial_seed=99, trial_index=0)
    assert row["rel_dist_tls"] >= 0.0
    assert row["rel_dist_ls"] >= 0.0
    assert row["rel_corr"] >= 0.0
    assert row["iterations_tls"] <= 30


def test_sweep_trials_start_where_each_solver_would_alone(tmp_path, capsys):
    # At -30 dB the measurements of many trials sum to <= 0, where the
    # spectral start is undefined; such a trial runs from the fallback start
    # that solve_tls and solve_ls take without x0, and the sweep completes.
    path = tmp_path / "exp.yaml"
    path.write_text("n: 8\nratios: [4]\ntrials: 20\nnoise:\n  measurement_snr_db: -30\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""
    cfg = load_config(str(path))
    lines = (tmp_path / "out.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    args = cfg.ratios[0], cfg.measurement_snr_db[0], cfg.sensing_snr_db[0]
    degenerate = 0
    for row in (r for r in rows if r["record"] == "trial"):
        x, y, ens, _ = cli._simulate(trial_rng(cfg.seed, int(row["trial_index"])), cfg, *args)
        if float(np.sum(y.values)) > 0.0:
            continue
        degenerate += 1
        for mode, solve in (("tls", solve_tls), ("ls", solve_ls)):
            assert float(row[f"rel_dist_{mode}"]) == rel_dist(x, solve(y, ens, cfg.solver_config(mode)).x_hat)
    assert degenerate >= 5


def test_a_problem_too_large_to_allocate_is_a_usage_error(tmp_path):
    # Run under an address-space limit in a child process, so that no
    # attempt can touch the memory it asks for (931 TiB here).
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "tlspr.cli", "synthesize", "--ratio", "1e12", "--n", "8", "--out", str(tmp_path / "big")]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert not list(tmp_path.glob("big*"))


@pytest.mark.parametrize("ratio", [str(10**399), "123456789012345678901"], ids=["400-digit", "21-digit"])
def test_a_huge_integer_cdp_ratio_is_a_usage_error(tmp_path, capsys, ratio):
    (tmp_path / "exp.yaml").write_text(f"model: cdp\nn: 8\nratios: [{ratio}]\n")
    assert main(["synthesize", "--config", str(tmp_path / "exp.yaml"), "--out", str(tmp_path / "big")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be integers" not in err
    assert not list(tmp_path.glob("big*"))


@pytest.mark.parametrize("model, ratio, size", [("gaussian", 1e12, "1.02e+15"), ("gaussian", 1e308, "Infinity"),
                                               ("cdp", 10**399, "1.02e+402")])
def test_a_ratio_too_large_for_memory_fails_at_the_config_gate_naming_the_key(model, ratio, size):
    with pytest.raises(UsageError) as exc:
        ExperimentConfig(model=model, n=8, ratios=(ratio,))
    message = f"config key ratios does not take {ratio!r}: at n 8 its ensemble needs {size} bytes"
    assert str(exc.value).startswith(message)


def test_cli_synthesize_solve_roundtrip(tmp_path):
    prefix = str(tmp_path / "case")
    rc = main(
        [
            "synthesize",
            "--n",
            "16",
            "--ratio",
            "6",
            "--seed",
            "3",
            "--out",
            prefix,
        ]
    )
    assert rc == 0
    ens = serialization.load(prefix + ".ensemble.tlspr")
    y = serialization.load(prefix + ".meas.tlspr")
    x = serialization.load(prefix + ".signal.tlspr")
    assert isinstance(ens, SensingEnsemble) and ens.m == 96

    out_prefix = str(tmp_path / "sol")
    rc = main(
        [
            "solve",
            "--ensemble",
            prefix + ".ensemble.tlspr",
            "--measurements",
            prefix + ".meas.tlspr",
            "--signal",
            prefix + ".signal.tlspr",
            "--mode",
            "tls",
            "--threshold",
            "1e-12",
            "--max-iters",
            "3000",
            "--out",
            out_prefix,
        ]
    )
    assert rc == 0
    report = json.loads(open(out_prefix + ".report.json").read())
    assert report["rel_dist"] < 1e-4
    assert report["final_objective"] < 1e-10
    x_hat = serialization.load(out_prefix + ".solution.tlspr")
    corrected = serialization.load(out_prefix + ".corrected.tlspr")
    assert isinstance(corrected, SensingEnsemble)
    assert corrected.noise_tag == "corrected"

    # in-process solve from the same files matches the CLI result
    x0 = spectral_init(y, ens)
    res = solve_tls(y, ens, SolverConfig(mode="tls", threshold=1e-12, max_iters=3000), x0=x0)
    assert rel_dist(res.x_hat, x_hat) <= 1e-10


def test_solve_writes_the_corrected_ensemble_the_result_holds(tmp_path):
    # M = 600 rows: full write blocks and a short last one.
    prefix, out = str(tmp_path / "case"), str(tmp_path / "sol")
    assert main(["synthesize", "--n", "16", "--ratio", "37.5", "--seed", "4", "--out", prefix,
                 "--meas-snr-db", "20", "--sensing-snr-db", "10"]) == 0
    assert main(["solve", "--ensemble", prefix + ".ensemble.tlspr", "--measurements", prefix + ".meas.tlspr",
                 "--mode", "tls", "--out", out]) == 0
    ens = serialization.load(prefix + ".ensemble.tlspr")
    blocks = correction._BLOCK_ROWS
    assert ens.m > blocks and ens.m % blocks != 0
    res = solve_tls(serialization.load(prefix + ".meas.tlspr"), ens, ExperimentConfig().solver_config("tls"))
    serialization.save(res.corrected_ensemble, tmp_path / "whole.tlspr")
    assert (tmp_path / "whole.tlspr").read_bytes() == open(out + ".corrected.tlspr", "rb").read()
    # The JSON variant joins the blocks into the same rows.
    serialization.save(res.corrections, tmp_path / "blocks.json")
    serialization.save(res.corrected_ensemble, tmp_path / "whole.json")
    assert (tmp_path / "blocks.json").read_text() == (tmp_path / "whole.json").read_text()


def test_synthesize_and_solve_peak_near_the_ensembles_they_hold(tmp_path):
    # First measured run, in ensembles of (M, N) = (1024, 128): CDP
    # synthesize with sensing errors 2.042, the clean and the noisy
    # ensemble (2.51 with a full-size float draw buffer); solve --mode tls
    # 1.113, the loaded ensemble (1.65 with two 256-row corrected blocks
    # alive while it wrote them).
    ens_bytes = 16 * 1024 * 128
    prefix, codes = str(tmp_path / "cdp"), []
    synthesize = ["synthesize", "--model", "cdp", "--n", "128", "--ratio", "8",
                  "--meas-snr-db", "20", "--sensing-snr-db", "10", "--out", prefix]
    # A tiny first run imports the modules the commands load lazily.
    for argv in (synthesize[:3] + ["--n", "4", "--ratio", "2", "--out", prefix],
                 ["solve", "--ensemble", prefix + ".ensemble.tlspr", "--measurements", prefix + ".meas.tlspr",
                  "--out", str(tmp_path / "sol")]):
        assert main(argv) == 0
    assert peak_bytes(lambda: codes.append(main(synthesize))) < 2.1 * ens_bytes
    solve = ["solve", "--ensemble", prefix + ".ensemble.tlspr", "--measurements", prefix + ".meas.tlspr",
             "--mode", "tls", "--out", str(tmp_path / "sol")]
    assert peak_bytes(lambda: codes.append(main(solve))) < 1.15 * ens_bytes
    assert codes == [0, 0]


def test_cli_missing_file_exit_code(tmp_path, capsys):
    rc = main(
        [
            "solve",
            "--ensemble",
            str(tmp_path / "absent.tlspr"),
            "--measurements",
            str(tmp_path / "absent2.tlspr"),
        ]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ensemble, measurements, signal, message",
    [
        ("meas", "ensemble", None, "inputs must be an ensemble file and a measurements file"),
        ("ensemble", "ensemble", None, "inputs must be an ensemble file and a measurements file"),
        ("signal", "meas", None, "inputs must be an ensemble file and a measurements file"),
        ("ensemble", "meas", "meas", "signal file does not hold a signal"),
        ("ensemble", "meas", "ensemble", "signal file does not hold a signal"),
    ],
)
def test_solve_rejects_files_of_the_wrong_kind(tmp_path, capsys, ensemble, measurements, signal, message):
    prefix = str(tmp_path / "kind")
    assert main(["synthesize", "--n", "4", "--ratio", "2", "--out", prefix]) == 0
    capsys.readouterr()
    argv = ["solve", "--ensemble", f"{prefix}.{ensemble}.tlspr", "--measurements", f"{prefix}.{measurements}.tlspr"]
    if signal is not None:
        argv += ["--signal", f"{prefix}.{signal}.tlspr"]
    assert main([*argv, "--out", str(tmp_path / "sol")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("sol*"))


def test_solve_refuses_a_signal_file_of_the_wrong_length_before_solving(tmp_path, capsys, monkeypatch):
    for prefix, n in (("a", "8"), ("b", "6")):
        assert main(["synthesize", "--n", n, "--ratio", "4", "--out", str(tmp_path / prefix)]) == 0
    capsys.readouterr()
    solved = []
    monkeypatch.setattr(cli, "solve_tls", lambda *args: solved.append(args))
    signal = str(tmp_path / "b.signal.tlspr")
    argv = ["solve", "--ensemble", str(tmp_path / "a.ensemble.tlspr"), "--measurements", str(tmp_path / "a.meas.tlspr"),
            "--signal", signal, "--mode", "tls", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"signal file {signal} " in err and "length 6, expected 8" in err
    assert "Traceback" not in err and not solved
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("meas_db", [None, 30.0])
def test_cli_rejects_files_of_unequal_m_at_the_gate(tmp_path, capsys, meas_db):
    # Measurements for 8 rows against a 12-row ensemble, with and without
    # injected noise: the solver's or inject's own check names both counts.
    for prefix, ratio in (("short", "2"), ("long", "3")):
        assert main(["synthesize", "--n", "4", "--ratio", ratio, "--seed", "3", "--out", str(tmp_path / prefix)]) == 0
    args = ["--ensemble", str(tmp_path / "long.ensemble.tlspr"), "--measurements", str(tmp_path / "short.meas.tlspr")]
    noise_args = [] if meas_db is None else ["--meas-snr-db", str(meas_db)]
    assert main(["solve", *args, *noise_args, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "8" in err and "12" in err


def test_cli_nonfinite_input_file_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "nan")
    assert main(["synthesize", "--n", "4", "--ratio", "2", "--seed", "3", "--out", prefix]) == 0
    files = {"ensemble": prefix + ".ensemble.tlspr", "measurements": prefix + ".meas.tlspr",
             "signal": prefix + ".signal.tlspr"}
    for kind, path in files.items():
        intact = open(path, "rb").read()
        raw = bytearray(intact)
        raw[-8:] = struct.pack("<d", np.nan)
        open(path, "wb").write(raw)
        args = [arg for name, file in files.items() for arg in (f"--{name}", file)]
        assert main(["solve", *args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "non-finite" in err
        open(path, "wb").write(intact)


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "div")
    assert main(["synthesize", "--n", "8", "--ratio", "4", "--seed", "2", "--out", prefix]) == 0
    rc = main(
        [
            "solve",
            "--ensemble",
            prefix + ".ensemble.tlspr",
            "--measurements",
            prefix + ".meas.tlspr",
            "--mode",
            "ls",
            "--step-size",
            "1e9",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_a_spectral_start_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    # Targets inside NoiseSpec's range whose errors overflow the power loop's products.
    config = tmp_path / "overflow.yaml"
    config.write_text("n: 8\nratios: [4]\ntrials: 2\nnoise:\n  measurement_snr_db: -3000\n  sensing_snr_db: -3000\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("numerical failure: spectral start: power iterate's norm became ")
    assert "Traceback" not in err and not (tmp_path / "out.csv").exists()


def test_solve_twice_into_one_prefix_writes_new_files_of_the_same_bytes(tmp_path):
    prefix, out = str(tmp_path / "cdp"), tmp_path / "sol"
    assert main(["synthesize", "--model", "cdp", "--n", "16", "--ratio", "4", "--seed", "2", "--out", prefix]) == 0
    solve = ["solve", "--ensemble", prefix + ".ensemble.tlspr", "--measurements", prefix + ".meas.tlspr",
             "--signal", prefix + ".signal.tlspr", "--mode", "tls", "--out", str(out)]
    paths = [tmp_path / f"sol.{kind}" for kind in ("solution.tlspr", "corrected.tlspr", "report.json")]
    assert main(solve) == 0
    first = [path.read_bytes() for path in paths]
    for path in paths:
        os.link(path, f"{path}.old")
    assert main(solve) == 0
    assert [path.read_bytes() for path in paths] == first
    # Each output is a new file; the old one lives on under its other link.
    assert [path.stat().st_nlink for path in paths] == [1, 1, 1]


def test_sweep_to_the_null_device_leaves_it_a_device():
    assert run_sweep(_tiny_config(trials=1, max_iters=5), output=os.devnull) == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_cli_handcrafted_refused_without_signal(tmp_path):
    prefix = str(tmp_path / "hc")
    assert main(["synthesize", "--n", "8", "--ratio", "4", "--seed", "1", "--out", prefix]) == 0
    rc = main(
        [
            "solve",
            "--ensemble",
            prefix + ".ensemble.tlspr",
            "--measurements",
            prefix + ".meas.tlspr",
            "--noise-model",
            "handcrafted",
            "--meas-snr-db",
            "25",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1


def test_cli_handcrafted_refused_on_external_tag(tmp_path):
    rng = make_rng(5)
    ens = SensingEnsemble(rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4)))
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = synthesize_measurements(ens, x)
    serialization.save(ens, tmp_path / "e.tlspr")
    serialization.save(MeasurementSet(y.values), tmp_path / "m.tlspr")
    serialization.save(x, tmp_path / "x.tlspr")
    rc = main(
        [
            "solve",
            "--ensemble",
            str(tmp_path / "e.tlspr"),
            "--measurements",
            str(tmp_path / "m.tlspr"),
            "--signal",
            str(tmp_path / "x.tlspr"),
            "--noise-model",
            "handcrafted",
            "--meas-snr-db",
            "25",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1


def test_cli_config_file_and_override(tmp_path):
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(
        "n: 10\nratios: [4]\ntrials: 2\nseed: 7\n"
        "solver:\n  max_iters: 25\n"
        "noise:\n  measurement_snr_db: 30\n  sensing_snr_db: 20\n"
    )
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out), "--trials", "1"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 1 + 2  # schema + header + 1 trial + mean/std


def test_cli_analyze_first_order(tmp_path):
    config_path = tmp_path / "an.yaml"
    config_path.write_text(
        "n: 16\nratios: [4]\ntrials: 3\nseed: 2\nreal_mode: true\n"
        "noise:\n  measurement_snr_db: 40\n  sensing_snr_db: 30\n"
        "analysis:\n  mode: first_order\n"
    )
    out = tmp_path / "an.csv"
    rc = main(["analyze", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# tlspr-analyze-csv v1\n")
    trial_lines = [l for l in text.splitlines() if l.startswith("trial,")]
    assert len(trial_lines) == 3


def test_cli_analyze_requires_real_mode(tmp_path, capsys):
    config_path = tmp_path / "bad.yaml"
    config_path.write_text("analysis:\n  mode: first_order\n")
    rc = main(["analyze", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: config key real_mode does not take False: analyze takes only true\n"


@pytest.mark.parametrize("setting", ["model: cdp\n", "noise:\n  model: handcrafted\n"], ids=["cdp", "handcrafted"])
def test_cli_analyze_rejects_cdp_and_handcrafted_errors(tmp_path, capsys, setting):
    # The predictions are for the real Gaussian model with Gaussian errors;
    # other settings were once ignored and gave Gaussian results.
    config_path = tmp_path / "bad.yaml"
    config_path.write_text("n: 8\nratios: [4]\ntrials: 1\nreal_mode: true\nanalysis:\n  mode: first_order\n" + setting)
    rc = main(["analyze", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    key, value = ("model", "cdp") if setting.startswith("model") else ("noise.model", "handcrafted")
    assert capsys.readouterr().err == f"error: config key {key} does not take {value!r}: analyze takes only gaussian\n"
    assert not (tmp_path / "x.csv").exists()


def test_cli_selftest_smoke(capsys):
    rc = main(["selftest", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_selftest_fails_when_the_solvers_root_is_not_the_smallest(monkeypatch, capsys):
    # The correction check runs the root the solvers run: hand LineRoots.solve
    # the largest real root instead (the smallest root of the cubic with
    # const negated, negated back) and the check must fail.
    smallest = correction.smallest_real_root_into

    def largest_real_root_into(t, alpha, rows, masks):
        rows[1] *= -1.0
        smallest(t, alpha, rows, masks)
        t *= -1.0

    monkeypatch.setattr(correction, "smallest_real_root_into", largest_real_root_into)
    rc = main(["selftest", "--seed", "0"])
    assert rc == 2
    assert "selftest correction global optimality: FAIL" in capsys.readouterr().out.splitlines()


def test_sweep_clean_data_recovers_exactly(tmp_path):
    cfg = ExperimentConfig(
        seed=21,
        n=64,
        ratios=(8,),
        trials=2,
        threshold=1e-14,
        max_iters=8000,
        measurement_snr_db=(None,),
        sensing_snr_db=(None,),
    )
    path = run_sweep(cfg, output=str(tmp_path / "clean.csv"))
    lines = open(path).read().strip().splitlines()
    header = lines[1].split(",")
    i_tls = header.index("rel_dist_tls")
    i_ls = header.index("rel_dist_ls")
    trial_rows = [l.split(",") for l in lines[2:] if l.startswith("trial,")]
    assert len(trial_rows) == 2
    for row in trial_rows:
        assert float(row[i_tls]) < 1e-5
        assert float(row[i_ls]) < 1e-5


def test_analyze_first_order_trend_regimes(tmp_path):
    # with most error in the sensing vectors the TLS predictor is lower;
    # with a noisier measurement channel the ranking flips
    def mean_predictions(meas_db):
        cfg = ExperimentConfig(
            seed=31,
            n=100,
            ratios=(4, 8, 16),
            trials=10,
            real_mode=True,
            measurement_snr_db=(meas_db,),
            sensing_snr_db=(40.0,),
            analysis_mode="first_order",
            lambda_ratio=1.0,
        )
        path = run_error_analysis(cfg, output=str(tmp_path / f"fo{meas_db}.csv"))
        lines = open(path).read().strip().splitlines()
        header = lines[1].split(",")
        i_ratio = header.index("ratio")
        i_tls = header.index("rel_e_tls")
        i_ls = header.index("rel_e_ls")
        out = {}
        for line in lines[2:]:
            cells = line.split(",")
            if cells[0] != "mean":
                continue
            out[float(cells[i_ratio])] = (float(cells[i_tls]), float(cells[i_ls]))
        return out

    high_meas_snr = mean_predictions(65.0)
    for ratio, (tls, ls) in high_meas_snr.items():
        assert tls < ls, f"ratio {ratio}: expected TLS < LS at meas 65 dB"
    low_meas_snr = mean_predictions(40.0)
    for ratio, (tls, ls) in low_meas_snr.items():
        assert ls < tls, f"ratio {ratio}: expected LS < TLS at meas 40 dB"


def test_analyze_ml_sweep(tmp_path, monkeypatch):
    solves = []
    gated_solve = analysis._gated_solve
    monkeypatch.setattr(analysis, "_gated_solve", lambda *args: solves.append(1) or gated_solve(*args))
    cfg = ExperimentConfig(
        seed=3,
        n=16,
        ratios=(6,),
        trials=2,
        real_mode=True,
        measurement_snr_db=(30.0,),
        sensing_snr_db=(35.0,),
        analysis_mode="ml_sweep",
        grid_points=21,
        grid_decades=1.0,
    )
    path = run_error_analysis(cfg, output=str(tmp_path / "ml.csv"))
    # One TLS solve per grid ratio; the LS system is never needed.
    assert len(solves) == cfg.trials * cfg.grid_points
    rows = [l.split(",") for l in open(path).read().strip().splitlines()[2:]]
    header = open(path).read().splitlines()[1].split(",")
    i_opt = header.index("optimal_ratio")
    i_arg = header.index("argmin_ratio")
    for row in rows:
        opt, arg = float(row[i_opt]), float(row[i_arg])
        assert abs(np.log10(opt) - np.log10(arg)) <= 0.1 + 1e-9


@pytest.mark.parametrize("mode", ["expected", "ml_sweep"])
def test_analyze_maps_snr_to_the_variance_of_each_block(tmp_path, mode):
    cfg = ExperimentConfig(
        seed=23,
        n=10,
        ratios=(4, 6),
        trials=2,
        real_mode=True,
        measurement_snr_db=(30, 22.5),
        sensing_snr_db=(35.0,),
        analysis_mode=mode,
        lambda_ratio=1.7,
        grid_points=5,
    )
    lines = open(run_error_analysis(cfg, output=str(tmp_path / "an.csv"))).read().splitlines()
    header = lines[1].split(",")
    trials = [dict(zip(header, line.split(","))) for line in lines[2:] if line.startswith("trial,")]
    combos = [(r, m, s) for r in cfg.ratios for m in cfg.measurement_snr_db for s in cfg.sensing_snr_db]
    assert len(trials) == len(combos) * cfg.trials
    for k, row in enumerate(trials):
        ratio, meas_db, sens_db = combos[k // cfg.trials]
        x, _, _, ens = cli._simulate(trial_rng(cfg.seed, k % cfg.trials, k // cfg.trials), cfg, ratio, meas_db, sens_db)
        y = synthesize_measurements(ens, x).values
        a, x = ens.vectors.real, x.real
        # sigma^2 = ||C||_F^2 10^(-dB/10) / C.size for each clean block C
        s2_delta = float(np.sum(a * a)) * 10 ** (-sens_db / 10.0) / a.size
        s2_eta = float(np.sum(y * y)) * 10 ** (-meas_db / 10.0) / y.size
        if mode == "expected":
            e_tls, e_ls = analysis.expected_squared_errors(a, y, x, cfg.lambda_ratio, s2_delta, s2_eta)
            assert (float(row["expected_sq_tls"]), float(row["expected_sq_ls"])) == (e_tls, e_ls)
        else:
            assert float(row["optimal_ratio"]) == s2_delta / s2_eta


def test_expected_analysis_without_a_sensing_target_expects_measurement_errors_only(tmp_path):
    # sensing_snr_db: null is no sensing error, so sigma_delta^2 = 0.
    config_path = tmp_path / "expected.yaml"
    config_path.write_text("seed: 29\nn: 8\nratios: [4]\ntrials: 2\nreal_mode: true\nnoise:\n"
                           "  measurement_snr_db: 25\n  sensing_snr_db: null\nanalysis:\n  mode: expected\n")
    out = tmp_path / "expected.csv"
    assert main(["analyze", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    trials = [dict(zip(header, line.split(","))) for line in lines[2:] if line.startswith("trial,")]
    assert len(trials) == 2
    cfg = load_config(str(config_path))
    for k, row in enumerate(trials):
        assert row["sensing_snr_db"] == ""
        x, _, _, ens = cli._simulate(trial_rng(29, k), cfg, 4, 25, None)
        y = synthesize_measurements(ens, x).values
        a, x = ens.vectors.real, x.real
        s2_eta = float(np.sum(y * y)) * 10 ** (-25 / 10.0) / y.size
        e_tls, e_ls = analysis.expected_squared_errors(a, y, x, ExperimentConfig().lambda_ratio, 0.0, s2_eta)
        assert (float(row["expected_sq_tls"]), float(row["expected_sq_ls"])) == (e_tls, e_ls)


@pytest.mark.parametrize("mode", ["first_order", "expected"])
def test_analyze_row_predicts_the_sweep_trial_of_its_seed(tmp_path, mode):
    # Row k of combination c is computed on the instance of sweep trial
    # trial_rng(seed, k, c): its signal, clean rows and clean measurements,
    # and for first_order its noisy minus clean data.
    config_path = tmp_path / "paired.yaml"
    config_path.write_text("seed: 17\nn: 12\nratios: [4, 8]\ntrials: 3\nreal_mode: true\nnoise:\n"
                           "  measurement_snr_db: [null, 25]\n  sensing_snr_db: [30, null]\n"
                           f"analysis:\n  mode: {mode}\n  lambda_ratio: 1.3\n")
    out = tmp_path / "paired.csv"
    assert main(["analyze", "--config", str(config_path), "--out", str(out)]) == 0
    cfg = load_config(str(config_path))
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    trials = [dict(zip(header, line.split(","))) for line in lines[2:] if line.startswith("trial,")]
    combos = [(r, m, s) for r in cfg.ratios for m in cfg.measurement_snr_db for s in cfg.sensing_snr_db]
    assert len(trials) == len(combos) * cfg.trials == 24
    for k, row in enumerate(trials):
        c, t = divmod(k, cfg.trials)
        ratio, meas_db, sens_db = combos[c]
        x, y_obs, ens_obs, ens = cli._simulate(trial_rng(cfg.seed, t, c), cfg, ratio, meas_db, sens_db)
        y = synthesize_measurements(ens, x).values
        # A C-order copy, as analyze passes: BLAS rounds a strided view's products differently.
        a, x = np.ascontiguousarray(ens.vectors.real), x.real
        if mode == "first_order":
            pred = analysis.first_order_errors(analysis.ErrorAnalysisInputs(
                a, y, x, ens_obs.vectors.real - a, y_obs.values - y, cfg.lambda_ratio))
            want = {"rel_e_tls": pred.rel_e_tls, "rel_e_ls": pred.rel_e_ls}
        else:
            s2_delta, s2_eta = noise.error_variance(a, sens_db), noise.error_variance(y, meas_db)
            e_tls, e_ls = analysis.expected_squared_errors(a, y, x, cfg.lambda_ratio, s2_delta, s2_eta)
            want = {"expected_sq_tls": e_tls, "expected_sq_ls": e_ls}
        assert {col: row[col] for col in want} == {col: cli._fmt(v) for col, v in want.items()}, k


def test_importing_the_cli_loads_neither_yaml_nor_the_process_pool():
    # Both load only where they are used: yaml for a config file, the pool
    # for a sweep with more than one worker.
    code = (
        "import sys, tlspr.cli; "
        "print(sorted(m for m in ('yaml', 'concurrent.futures.process') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_trials_draw_the_streams_trial_rng_gives():
    cfg = ExperimentConfig(seed=17, n=4, ratios=(4, 8), trials=3)

    def trial(config, ratio, meas_db, sens_db, trial_seed, trial_index):
        return {"draw": make_rng(trial_seed).standard_normal()}

    draws = [row["draw"] for row in cli._run_trials(cfg, trial, ())]
    assert draws == [trial_rng(17, t, combination=c).standard_normal() for c in range(2) for t in range(3)]
