import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from tlspr import analysis, cli, correction, noise, serialization
from tlspr.cli import (
    ExperimentConfig,
    UsageError,
    _strip_wall_time,
    config_from_mapping,
    main,
    run_error_analysis,
    run_sweep,
    run_trial,
)
from tlspr.core import MeasurementSet, SensingEnsemble, make_rng, trial_rng
from tlspr.metrics import rel_dist
from tlspr.models import synthesize_measurements
from tlspr.solvers import SolverConfig, solve_tls, spectral_init


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
    assert "grid_points must be >= 2" in capsys.readouterr().err


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
        ("measurement_snr_db: abc\n", "measurement_snr_db"),
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
    config = cli._apply_overrides(ExperimentConfig(), args)
    assert config.step_size_tls == config.step_size_ls == 0.25


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
        ("synthesize", "noise:\n  measurement_snr_db: [20, 30]\n", "measurement_snr_db"),
        ("solve", "noise:\n  sensing_snr_db: [10, 20]\n", "sensing_snr_db"),
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
    assert f"config key {key} takes one value" in capsys.readouterr().err
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
    # M = 600 rows: two full write blocks of 256 and a short one.
    prefix, out = str(tmp_path / "case"), str(tmp_path / "sol")
    assert main(["synthesize", "--n", "16", "--ratio", "37.5", "--seed", "4", "--out", prefix,
                 "--meas-snr-db", "20", "--sensing-snr-db", "10"]) == 0
    assert main(["solve", "--ensemble", prefix + ".ensemble.tlspr", "--measurements", prefix + ".meas.tlspr",
                 "--mode", "tls", "--out", out]) == 0
    ens = serialization.load(prefix + ".ensemble.tlspr")
    blocks = correction.CorrectedRows.BLOCK_ROWS
    assert ens.m > blocks and ens.m % blocks != 0
    res = solve_tls(serialization.load(prefix + ".meas.tlspr"), ens, ExperimentConfig().solver_config("tls"))
    serialization.save(res.corrected_ensemble, tmp_path / "whole.tlspr")
    assert (tmp_path / "whole.tlspr").read_bytes() == open(out + ".corrected.tlspr", "rb").read()
    # The JSON variant joins the blocks into the same rows.
    serialization.save(res.corrections, tmp_path / "blocks.json")
    serialization.save(res.corrected_ensemble, tmp_path / "whole.json")
    assert (tmp_path / "blocks.json").read_text() == (tmp_path / "whole.json").read_text()


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


@pytest.mark.parametrize("setting", ["model: cdp\n", "noise:\n  model: handcrafted\n"], ids=["cdp", "handcrafted"])
def test_cli_analyze_rejects_cdp_and_handcrafted_errors(tmp_path, capsys, setting):
    # The predictions are for the real Gaussian model with Gaussian errors;
    # other settings were once ignored and gave Gaussian results.
    config_path = tmp_path / "bad.yaml"
    config_path.write_text("n: 8\nratios: [4]\ntrials: 1\nreal_mode: true\nanalysis:\n  mode: first_order\n" + setting)
    rc = main(["analyze", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error analysis requires model: gaussian and noise.model: gaussian" in capsys.readouterr().err
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


def _exact_snr_errors_inline(rng, a, y, meas_db, sens_db):
    # The analysis error draw as written before it shared noise._rescale.
    e_a = rng.normal(size=a.shape)
    e_y = rng.normal(size=y.shape)
    if sens_db is not None:
        e_a *= np.linalg.norm(a) * 10 ** (-sens_db / 20.0) / np.linalg.norm(e_a)
    else:
        e_a[:] = 0.0
    if meas_db is not None:
        e_y *= np.linalg.norm(y) * 10 ** (-meas_db / 20.0) / np.linalg.norm(e_y)
    else:
        e_y[:] = 0.0
    return e_a, e_y


def test_analyze_errors_byte_identical_to_inline_rescale(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        seed=17,
        n=12,
        ratios=(4, 8),
        trials=3,
        real_mode=True,
        measurement_snr_db=(None, 25.0),
        sensing_snr_db=(30, None),
        analysis_mode="first_order",
    )
    run_error_analysis(cfg, output=str(tmp_path / "shared.csv"))
    shared = noise.real_errors_at_snr
    monkeypatch.setattr(noise, "real_errors_at_snr", _exact_snr_errors_inline)
    run_error_analysis(cfg, output=str(tmp_path / "inline.csv"))
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()
    # a zero-norm clean block still gets a zero error, as inline
    a, y = np.zeros((3, 2)), np.ones(3)
    got = shared(make_rng(1), a, y, 20.0, 10.0)
    want = _exact_snr_errors_inline(make_rng(1), a, y, 20.0, 10.0)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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
        rng = make_rng(cfg.seed + 100003 * (k // cfg.trials) + k % cfg.trials)
        x = rng.normal(size=cfg.n)
        a = rng.normal(size=(ratio * cfg.n, cfg.n))
        y = (a @ x) ** 2
        # sigma^2 = ||C||_F^2 10^(-dB/10) / C.size for each clean block C
        s2_delta = float(np.sum(a * a)) * 10 ** (-sens_db / 10.0) / a.size
        s2_eta = float(np.sum(y * y)) * 10 ** (-meas_db / 10.0) / y.size
        if mode == "expected":
            e_tls, e_ls = analysis.expected_squared_errors(a, y, x, cfg.lambda_ratio, s2_delta, s2_eta)
            assert (float(row["expected_sq_tls"]), float(row["expected_sq_ls"])) == (e_tls, e_ls)
        else:
            assert float(row["optimal_ratio"]) == s2_delta / s2_eta


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
