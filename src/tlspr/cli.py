"""Batch experiment harness and command line interface.

Subcommands
-----------
``synthesize``  generate ensemble + measurement (+ ground truth) files
``solve``       run one solver on ensemble/measurement files
``sweep``       seeded trial sweeps over oversampling ratios and SNR combos
``analyze``     first-order error predictions and weight-ratio sweeps
``selftest``    fast in-process checks of the paths the commands run: the
                batched correction root against a grid of nu, metrics,
                serialization, exact-SNR noise, clean recovery, sweep
                determinism

Every subcommand takes ``--seed``, ``--out`` and ``--config``.  Config files
are YAML (key/value with nesting, see the README for the grammar); command
line flags replace file values before the one config is built and checked.
The worker count for sweeps comes from the ``TLSPR_WORKERS`` environment
variable, a positive integer (default 1).
``analyze`` covers the real-valued Gaussian model with Gaussian errors only.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.

Reproducibility: every trial owns the generator that
:func:`tlspr.core.trial_rng` gives its combination and trial index, and
result rows are written in (combination, trial) order, so output is
identical across runs and worker counts.  Wall-time columns are the only
nondeterministic output and are excluded from determinism comparisons.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import operator
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, metrics, noise, serialization
from .core import MeasurementSet, SensingEnsemble, _check_positive, _checked, _complex_normal, _is_integer, _trial_seed
from .core import complex_gaussian_vector, make_rng
from .models import CdpConfig, cdp_ensemble, gaussian_ensemble, synthesize_measurements
from .solvers import MODES, PROJECTIONS, SolverConfig, SolverError, _initial_point, solve_ls, solve_tls
from .solvers import spectral_init  # noqa: F401  (not called here; bench/harness.py traces it by this name)

SWEEP_SCHEMA = "tlspr-sweep-csv v1"
ANALYZE_SCHEMA = "tlspr-analyze-csv v1"
MODELS = ("gaussian", "cdp")
ANALYSIS_MODES = ("none", "first_order", "expected", "ml_sweep")

SWEEP_COLUMNS = [
    "record",
    "ratio",
    "meas_snr_db",
    "sensing_snr_db",
    "trial_index",
    "rel_dist_tls",
    "rel_dist_ls",
    "rel_corr",
    "iterations_tls",
    "iterations_ls",
    "converged_tls",
    "converged_ls",
    "wall_time_ms",
]


class UsageError(ValueError):
    """Bad flags, bad config or unusable input files."""


def _refuse(field: str, value, reason) -> None:
    """Refuse ``value`` of the config field ``field``, naming it by its YAML key (``section.key`` in a section)."""
    raise UsageError(f"config key {_CONFIG_KEYS.get(field, field)} does not take {value!r}: {reason}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n: int = 64
    ratios: tuple = (8,)
    model: str = "gaussian"
    real_mode: bool = False
    trials: int = 50
    noise_model: str = "gaussian"
    measurement_snr_db: tuple = (None,)
    sensing_snr_db: tuple = (None,)
    lambda_a_dag: float = SolverConfig.lambda_a_dag
    lambda_y_dag: float = SolverConfig.lambda_y_dag
    step_size_tls: float | None = SolverConfig.step_size
    step_size_ls: float | None = SolverConfig.step_size
    threshold: float = SolverConfig.threshold
    max_iters: int = SolverConfig.max_iters
    power_iters: int = SolverConfig.power_iters
    projection: str = SolverConfig.projection
    analysis_mode: str = "none"
    lambda_ratio: float = 1.0
    grid_points: int = 41
    grid_decades: float = 2.0
    output: str = "results.csv"

    def __post_init__(self):
        # However the config is built, each value first passes its field's type gate, stored as the gate gives it.
        for name in _FIELD_TYPES:
            object.__setattr__(self, name, _typed(name, getattr(self, name)))
        for name, least in (("seed", 0), ("trials", 1), ("n", 1), ("grid_points", 2)):
            if getattr(self, name) < least:
                _refuse(name, getattr(self, name), f"it must be >= {least}")
        for name, known in (("model", MODELS), ("noise_model", noise.NOISE_MODELS), ("analysis_mode", ANALYSIS_MODES)):
            if getattr(self, name) not in known:
                _refuse(name, getattr(self, name), f"it must be one of {', '.join(known)}")
        for r in self.ratios:
            if not 0 < r < np.inf:  # before the CDP check, where int(inf) raises an OverflowError
                _refuse("ratios", r, "a ratio must be finite and > 0")
            if self.model == "cdp" and r != int(r):  # not float(r), which rounds and overflows
                _refuse("ratios", r, "CDP ratios are pattern counts and must be integers")
            # Only a finite r * n is rounded, as round(inf) overflows.
            if self.model == "gaussian" and r * self.n < np.inf and _gaussian_rows(r, self.n) < 1:
                _refuse("ratios", r, f"at n {self.n} its ensemble has round({r!r} * {self.n}) = 0 rows, "
                        "and an ensemble needs at least one")
        # No draw on an M x n complex128 ensemble beyond the machine's memory; M ~ ratio * n, as round(inf) overflows.
        if all(name in getattr(os, "sysconf_names", {}) for name in ("SC_PHYS_PAGES", "SC_PAGE_SIZE")):
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
            for r in self.ratios:
                need = 16 * self.n * (int(r) * self.n if self.model == "cdp" else r * self.n)
                if need > memory > 0:
                    from decimal import Decimal  # formats an int beyond float too

                    _refuse("ratios", r, f"at n {self.n} its ensemble needs {Decimal(need):.3g} bytes, "
                            f"more than the machine's {memory} bytes of memory")
        # Each solver key, SNR and analysis key alone through SolverConfig, NoiseSpec or _check_positive.
        checks = [(key, SolverConfig, getattr(self, key)) for key in _SOLVER_KEYS]
        checks += [(name, noise.NoiseSpec, db) for name in ("measurement_snr_db", "sensing_snr_db")
                   for db in getattr(self, name) if db is not None]
        checks += [("lambda_ratio", functools.partial(_check_positive, allow_zero=True), self.lambda_ratio),
                   ("grid_decades", _check_positive, self.grid_decades)]
        for name, gate, value in checks:
            try:
                gate(**{_SOLVER_KEYS.get(name, name): value})
            except ValueError as exc:
                _refuse(name, value, exc)
        shared = {name: getattr(self, key) for key, name in _SOLVER_KEYS.items() if name != "step_size"}
        solvers = {mode: SolverConfig(step_size=getattr(self, f"step_size_{mode}"), **shared) for mode in MODES}
        object.__setattr__(self, "_solvers", solvers)

    def solver_config(self, mode: str) -> SolverConfig:
        return self._solvers[mode]


# Each ``solver:`` key to the SolverConfig field it sets.
_SOLVER_KEYS = {f.name: f.name for f in fields(SolverConfig) if f.name not in ("mode", "step_size")}
_SOLVER_KEYS.update({f"step_size_{mode}": "step_size" for mode in MODES})

_NESTED_KEYS = {
    "noise": {"model": "noise_model", "measurement_snr_db": "measurement_snr_db", "sensing_snr_db": "sensing_snr_db"},
    "solver": {key: key for key in _SOLVER_KEYS},
    "analysis": {"mode": "analysis_mode", **{key: key for key in ("lambda_ratio", "grid_points", "grid_decades")}},
}


# Each field given in a section to its key there, such as ``solver.threshold``.
_CONFIG_KEYS = {name: f"{section}.{key}" for section, keys in _NESTED_KEYS.items() for key, name in keys.items()}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# Each field type's test of a value (of each item, for ratios and the SNR lists of type tuple), and its words.
_FITS = {"bool": (lambda v: isinstance(v, bool), "true or false"), "int": (_is_integer, "an integer"),
         "str": (lambda v: isinstance(v, str), "a string"), "float": (_is_number, "a number"),
         "float | None": (lambda v: v is None or _is_number(v), "a number or null"),
         "ratios": (_is_number, "numbers"), "tuple": (lambda v: not isinstance(v, bool), "numbers or nulls")}


def _typed(name: str, value):
    """``value`` of the field ``name`` as the config stores it, or a refusal if it does not fit the field's
    type.  An integer is any integral but a bool, stored as an int, as SolverConfig takes one.  A float field
    also takes the strings that float() parses, since YAML reads 1e-6 as a string.  A ratio or SNR list takes
    one value or a list: ratios are numbers, and each SNR is null or a target that NoiseSpec checks."""
    kind = "ratios" if name == "ratios" else _FIELD_TYPES[name]
    if kind.startswith("float") and isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = float(value)
    listed = kind in ("ratios", "tuple")
    items = tuple(value) if listed and isinstance(value, (list, tuple)) else (value,)
    fits, takes = _FITS[kind]
    if not all(map(fits, items)):
        _refuse(name, value, f"it takes {takes}")
    return items if listed else operator.index(value) if kind == "int" else value


def config_from_mapping(data: dict, flags: dict | None = None) -> ExperimentConfig:
    """The config of a (possibly nested) mapping with ``flags``, a mapping of field names, laid over it.  Each
    setting is read from its one key, a section's field only in its section (``_CONFIG_KEYS``); any other
    key errors.  The config checks every value, so a value that a flag replaces is never checked."""
    flat: dict = {}
    for key, value in (data or {}).items():
        if key in _NESTED_KEYS:
            if not isinstance(value, dict):
                raise UsageError(f"config section {key!r} must be a mapping")
            for sub, v in value.items():
                if sub not in _NESTED_KEYS[key]:
                    raise UsageError(f"unknown config key {key}.{sub}")
                flat[_NESTED_KEYS[key][sub]] = v
        elif key in _FIELD_TYPES and key not in _CONFIG_KEYS:
            flat[key] = value
        else:
            hint = f": write it as {_CONFIG_KEYS[key]}" if key in _CONFIG_KEYS else ""
            raise UsageError(f"unknown config key {key!r}{hint}")
    return ExperimentConfig(**{**flat, **(flags or {})})


def load_config(path: str | None, flags: dict | None = None) -> ExperimentConfig:
    """The config of the YAML file ``path`` (none: the defaults) with ``flags`` laid over it."""
    if path is None:
        return ExperimentConfig(**(flags or {}))
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    import yaml  # only config files need it; deferred to keep start-up short

    try:
        data = yaml.safe_load(p.read_text()) or {}
    except yaml.YAMLError as exc:
        raise UsageError(f"config parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config root must be a mapping")
    return config_from_mapping(data, flags)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _noise_spec(config: ExperimentConfig, meas_db, sens_db) -> noise.NoiseSpec | None:
    """The config's errors at one SNR pair, or None for no target; ``noise.inject`` gives them the ensemble's kind."""
    if meas_db is None and sens_db is None:
        return None
    return noise.NoiseSpec(meas_db, sens_db, model=config.noise_model)


def _gaussian_rows(ratio, n: int) -> int:
    """M of a Gaussian ensemble of N = ``n`` columns at the ratio M/N ``ratio``."""
    return int(round(ratio * n))


def _simulate(rng: np.random.Generator, config: ExperimentConfig, ratio, meas_db, sens_db):
    """Draw a signal and an ensemble, synthesize the measurements and inject
    the configured errors: ``(x_sharp, y_obs, ens_obs, clean ensemble)``."""
    x_sharp = _complex_normal(rng, config.n, config.real_mode)
    if config.model == "cdp":
        ens = cdp_ensemble(rng, CdpConfig(n=config.n, l=int(ratio)))
    else:
        ens = gaussian_ensemble(rng, config.n, _gaussian_rows(ratio, config.n), real_mode=config.real_mode)
    y = synthesize_measurements(ens, x_sharp)
    spec = _noise_spec(config, meas_db, sens_db)
    y_obs, ens_obs = (y, ens) if spec is None else noise.inject(rng, y, ens, spec, x_sharp=x_sharp)
    return x_sharp, y_obs, ens_obs, ens


def run_trial(config: ExperimentConfig, ratio, meas_db, sens_db, trial_seed: int, trial_index: int) -> dict:
    """One seeded comparison trial; both solvers share the start each takes alone."""
    t_start = time.perf_counter()
    x_sharp, y_obs, ens_obs, ens = _simulate(make_rng(trial_seed), config, ratio, meas_db, sens_db)
    x0 = _initial_point(ens_obs.vectors, y_obs.values, config.power_iters)
    res_tls = solve_tls(y_obs, ens_obs, config.solver_config("tls"), x0=x0)
    res_ls = solve_ls(y_obs, ens_obs, config.solver_config("ls"), x0=x0)
    rc = metrics.rel_corr(ens, x_sharp, res_tls.corrections, res_tls.x_hat)
    wall_ms = (time.perf_counter() - t_start) * 1e3
    return {
        "record": "trial",
        "ratio": ratio,
        "meas_snr_db": meas_db,
        "sensing_snr_db": sens_db,
        "trial_index": trial_index,
        "rel_dist_tls": metrics.rel_dist(x_sharp, res_tls.x_hat),
        "rel_dist_ls": metrics.rel_dist(x_sharp, res_ls.x_hat),
        "rel_corr": rc,
        "iterations_tls": res_tls.iterations,
        "iterations_ls": res_ls.iterations,
        "converged_tls": res_tls.converged,
        "converged_ls": res_ls.converged,
        "wall_time_ms": wall_ms,
    }


def _summary_rows(combo_rows: list[dict], cols) -> list[dict]:
    """``mean`` and ``std`` rows of ``cols`` over one combination's trial rows."""
    keys = {k: combo_rows[0].get(k) for k in ("mode", "ratio", "meas_snr_db", "sensing_snr_db")}
    return [
        {"record": stat, **keys, **{col: float(fn([r[col] for r in combo_rows])) for col in cols}}
        for stat, fn in (("mean", np.mean), ("std", np.std))
    ]


def _trial_worker(args) -> tuple:
    trial, config, combo_index, ratio, meas_db, sens_db, trial_index = args
    seed = _trial_seed(config.seed, trial_index, combo_index)
    return combo_index, trial(config, ratio, meas_db, sens_db, seed, trial_index)


def _run_trials(config: ExperimentConfig, trial, cols, workers: int = 1) -> list[dict]:
    """``trial`` rows for every (combination, trial index), in that order,
    each combination followed by its ``mean`` and ``std`` rows over ``cols``."""
    tasks = [
        (trial, config, combo_index, ratio, meas_db, sens_db, trial_index)
        for combo_index, (ratio, meas_db, sens_db) in enumerate(
            itertools.product(config.ratios, config.measurement_snr_db, config.sensing_snr_db)
        )
        for trial_index in range(config.trials)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_trial_worker, tasks, chunksize=1))
    else:
        results = [_trial_worker(t) for t in tasks]
    rows = []
    for _, group in itertools.groupby(results, key=lambda r: r[0]):
        combo_rows = [row for _, row in group]
        rows.extend(combo_rows)
        if cols:
            rows.extend(_summary_rows(combo_rows, cols))
    return rows


def worker_count() -> int:
    value = os.environ.get("TLSPR_WORKERS", "1")
    if not value.strip().isdecimal() or int(value) < 1:
        raise UsageError(f"TLSPR_WORKERS must be a positive integer, got {value!r}")
    return int(value)


def _trials_csv(config: ExperimentConfig, output, trial, cols, schema: str, columns: list, workers: int = 1) -> str:
    """Write :func:`_run_trials`'s rows as CSV to ``output`` (None: the config's), checked before the first trial."""
    path = output or config.output
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        _refuse("output", path, "it must name a file in an existing directory")
    lines = [f"# {schema}", ",".join(columns)]
    lines += [",".join(_fmt(row.get(col)) for col in columns) for row in _run_trials(config, trial, cols, workers)]
    serialization._write_new(path, [("\n".join(lines) + "\n").encode("utf-8")])
    return path


def run_sweep(config: ExperimentConfig, output: str | None = None) -> str:
    """Run every (ratio, SNR combination, trial) and write the CSV."""
    cols = ("rel_dist_tls", "rel_dist_ls", "rel_corr")
    return _trials_csv(config, output, run_trial, cols, SWEEP_SCHEMA, SWEEP_COLUMNS, worker_count())


ANALYZE_COLUMNS = [
    "record",
    "mode",
    "ratio",
    "meas_snr_db",
    "sensing_snr_db",
    "trial_index",
    "rel_e_tls",
    "rel_e_ls",
    "expected_sq_tls",
    "expected_sq_ls",
    "optimal_ratio",
    "argmin_ratio",
    "grid_step_decades",
]


def _analysis_trial(config: ExperimentConfig, ratio, meas_db, sens_db, trial_seed: int, trial_index: int) -> dict:
    """The ``config.analysis_mode`` prediction on the instance of the sweep
    trial seeded ``trial_seed``: its signal, clean rows and clean
    measurements, and for ``first_order`` its noisy minus clean data."""
    mode = config.analysis_mode
    # The other modes read no errors: without targets, _simulate stops at the clean instance it draws first.
    targets = (meas_db, sens_db) if mode == "first_order" else (None, None)
    x_sharp, y_obs, ens_obs, ens = _simulate(make_rng(trial_seed), config, ratio, *targets)
    # Contiguous real copies: the analysis reads each many times, and strided .real views slow it ~2x.
    a, x = np.ascontiguousarray(ens.vectors.real), np.ascontiguousarray(x_sharp.real)
    y = synthesize_measurements(ens, x_sharp).values
    row = {
        "record": "trial",
        "mode": mode,
        "ratio": ratio,
        "meas_snr_db": meas_db,
        "sensing_snr_db": sens_db,
        "trial_index": trial_index,
    }
    if mode == "first_order":
        e_a, e_y = ens_obs.vectors.real - a, y_obs.values - y
        pred = analysis.first_order_errors(
            analysis.ErrorAnalysisInputs(a, y, x, e_a, e_y, config.lambda_ratio)
        )
        row["rel_e_tls"] = pred.rel_e_tls
        row["rel_e_ls"] = pred.rel_e_ls
        return row
    s2_delta, s2_eta = noise.error_variance(a, sens_db), noise.error_variance(y, meas_db)
    if mode == "expected":
        e_tls, e_ls = analysis.expected_squared_errors(
            a, y, x, config.lambda_ratio, s2_delta, s2_eta
        )
        row["expected_sq_tls"] = e_tls
        row["expected_sq_ls"] = e_ls
        return row
    optimal = s2_delta / s2_eta
    grid = optimal * 10.0 ** np.linspace(
        -config.grid_decades, config.grid_decades, config.grid_points
    )
    vals = analysis.expected_tls_errors(a, y, x, grid, s2_delta, s2_eta)
    k = int(np.argmin(vals))
    row["optimal_ratio"] = optimal
    row["argmin_ratio"] = float(grid[k])
    row["grid_step_decades"] = 2.0 * config.grid_decades / (config.grid_points - 1)
    return row


def run_error_analysis(config: ExperimentConfig, output: str | None = None) -> str:
    """First-order predictions, expectations, or the weight-ratio sweep."""
    for name, takes in (("real_mode", (True,)), ("model", ("gaussian",)), ("noise_model", ("gaussian",)),
                        ("analysis_mode", ANALYSIS_MODES[1:])):
        if getattr(config, name) not in takes:
            _refuse(name, getattr(config, name), f"analyze takes only {', '.join(map(_fmt, takes))}")
    # The sweep centres on s2_delta / s2_eta: no target gives a zero variance (NoiseSpec keeps the rest positive).
    for name in ("measurement_snr_db", "sensing_snr_db"):
        if config.analysis_mode == "ml_sweep" and None in getattr(config, name):
            _refuse(name, list(getattr(config, name)), "ml_sweep needs finite SNR targets on both blocks")
    cols = {"first_order": ("rel_e_tls", "rel_e_ls"), "expected": ("expected_sq_tls", "expected_sq_ls")}
    return _trials_csv(config, output, _analysis_trial, cols.get(config.analysis_mode, ()), ANALYZE_SCHEMA,
                       ANALYZE_COLUMNS)


def _single(config: ExperimentConfig, *names: str) -> list:
    """The one value of each list field ``names`` of ``config``: a command
    that makes or solves one instance takes no list of several."""
    for name in names:
        if len(getattr(config, name)) != 1:
            _refuse(name, list(getattr(config, name)), "this command takes one value")
    return [getattr(config, name)[0] for name in names]


def solve_single(
    ensemble_path: str,
    measurements_path: str,
    config: ExperimentConfig,
    mode: str,
    out_prefix: str,
    signal_path: str | None = None,
) -> dict:
    """Solve external data files, with the errors of the config's one SNR
    pair injected; writes solution, report and TLS corrections."""
    ens = serialization.load(ensemble_path)
    y = serialization.load(measurements_path)
    if not isinstance(ens, SensingEnsemble) or not isinstance(y, MeasurementSet):
        raise UsageError("inputs must be an ensemble file and a measurements file")
    x_sharp = None
    if signal_path is not None:
        x_sharp = serialization.load(signal_path)
        if not isinstance(x_sharp, np.ndarray):
            raise UsageError("signal file does not hold a signal")
        try:
            _checked(x_sharp, ens, y)
        except ValueError as exc:
            raise UsageError(f"{ensemble_path}, {measurements_path} and signal file {signal_path} do not fit "
                             f"together: {exc}") from exc
    spec = _noise_spec(config, *_single(config, "measurement_snr_db", "sensing_snr_db"))
    if spec is not None:
        if spec.model == "handcrafted" and (x_sharp is None or ens.model_tag == "external"):
            _refuse("noise_model", spec.model, "handcrafted errors need simulated data with a ground-truth signal file")
        y, ens = noise.inject(make_rng(config.seed), y, ens, spec, x_sharp=x_sharp)
    solver = solve_tls if mode == "tls" else solve_ls
    result = solver(y, ens, config.solver_config(mode))
    out = Path(out_prefix)
    serialization.save(result.x_hat, str(out) + ".solution.tlspr")
    if result.corrections is not None:
        serialization.save(result.corrections, str(out) + ".corrected.tlspr")
    report = {
        "mode": mode,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "final_objective": float(result.objective_trace[-1]) if result.iterations else None,
        "objective_trace": [float(v) for v in result.objective_trace],
    }
    if x_sharp is not None:
        report["rel_dist"] = metrics.rel_dist(x_sharp, result.x_hat)
    serialization._write_new(str(out) + ".report.json", [json.dumps(report, indent=2).encode("utf-8")])
    return report


def run_synthesize(config: ExperimentConfig, out_prefix: str) -> list[str]:
    """One instance at the config's one ratio and SNR pair: ensemble,
    measurement and signal files."""
    ratio, meas_db, sens_db = _single(config, "ratios", "measurement_snr_db", "sensing_snr_db")
    # Only the observed data are kept: the clean ensemble is freed before the saves.
    x, y, ens = _simulate(make_rng(config.seed), config, ratio, meas_db, sens_db)[:3]
    out = Path(out_prefix)
    paths = [str(out) + ".ensemble.tlspr", str(out) + ".meas.tlspr", str(out) + ".signal.tlspr"]
    serialization.save(ens, paths[0])
    serialization.save(MeasurementSet(y.values, ensemble_ref=Path(paths[0]).name), paths[1])
    serialization.save(x, paths[2])
    return paths


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks(seed: int, tmp: Path):
    from .core import inner_rows
    from .correction import apply_corrections, sweep_corrections

    rng = make_rng(seed)

    def correction_optimality():
        # The solvers' batched root against a polar grid of nu per row.  With
        # r = lambda_a / alpha and q = r |inner(a_m, x)| the plus cubic is
        # t^3 + (r - y_m) t + q: y_m < r leaves one real root, and
        # y_m = r + 3 u q^(2/3) with u >= 1 gives three.
        m = 64
        x = complex_gaussian_vector(rng, 3)
        vectors = gaussian_ensemble(rng, 3, m).vectors
        lambda_a, lambda_y = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        norm_sq = float(np.vdot(x, x).real)
        nu_a = inner_rows(vectors, x)
        r = lambda_a / (2.0 * lambda_y * norm_sq)
        q = r * np.abs(nu_a)
        three = np.arange(m) % 2 == 1
        y = np.where(three, r + 3.0 * rng.uniform(1.0, 4.0, m) * q ** (2.0 / 3.0), r * rng.uniform(size=m))
        nu_star, f_star = sweep_corrections(vectors, y, x, lambda_a, lambda_y)
        v = apply_corrections(vectors, x, nu_star)
        f_v = lambda_a * np.sum(np.abs(v - vectors) ** 2, axis=1) + lambda_y * (
            y - np.abs(inner_rows(v, x)) ** 2
        ) ** 2
        # The closest vector to a_m with inner(v, x) = nu is at squared
        # distance |nu - nu_a|^2 / ||x||^2; the minimizer has |nu| below
        # sqrt(y_m) + cbrt(q_m).
        radius = 1.5 * (np.sqrt(y) + np.cbrt(q))
        nu = radius[:, None, None] * np.linspace(0.0, 1.0, 101)[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
        f_grid = lambda_a * np.abs(nu - nu_a[:, None, None]) ** 2 / norm_sq + lambda_y * (
            y[:, None, None] - np.abs(nu) ** 2
        ) ** 2
        tol = 1e-9 * (1.0 + f_star)
        return np.all(np.abs(f_v - f_star) <= tol) and np.all(f_grid.min(axis=(1, 2)) >= f_star - tol)

    def metric_identities():
        for _ in range(50):
            u = rng.normal(size=6) + 1j * rng.normal(size=6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            lhs = metrics.dist(u, v) ** 2 + 2 * abs(np.vdot(u, v))
            rhs = np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2
            if abs(lhs - rhs) > 1e-9 * rhs:
                return False
            phi = float(rng.uniform(0, 2 * np.pi))
            if metrics.dist(u, np.exp(1j * phi) * u) > 1e-9:
                return False
        return True

    def serialization_roundtrip():
        for idx in range(10):
            ens = SensingEnsemble(rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
            p = tmp / f"e{idx}.tlspr"
            serialization.save(ens, p)
            back = serialization.load(p)
            if not np.array_equal(back.vectors, ens.vectors):
                return False
        return True

    def noise_exact_snr():
        x, y, ens_obs, ens = _simulate(rng, ExperimentConfig(n=16), 4, 37.0, 11.0)
        clean = synthesize_measurements(ens, x).values
        ok_y = abs(noise.snr_db(clean, y.values - clean) - 37.0) < 1e-9
        ok_a = abs(noise.snr_db(ens.vectors, ens_obs.vectors - ens.vectors) - 11.0) < 1e-9
        return ok_y and ok_a

    def clean_recovery():
        row = run_trial(ExperimentConfig(n=24, threshold=1e-13, max_iters=4000), 8, None, None, seed + 1, 0)
        return row["rel_dist_tls"] < 1e-4 and row["rel_dist_ls"] < 1e-4

    def sweep_determinism():
        cfg = ExperimentConfig(
            seed=seed, n=12, ratios=(4,), trials=2, max_iters=40,
            measurement_snr_db=(30.0,), sensing_snr_db=(20.0,),
        )
        p1 = run_sweep(cfg, output=str(tmp / "a.csv"))
        p2 = run_sweep(cfg, output=str(tmp / "b.csv"))
        s1 = _strip_wall_time(Path(p1).read_text())
        s2 = _strip_wall_time(Path(p2).read_text())
        return s1 == s2

    return [
        ("correction global optimality", correction_optimality),
        ("metric identities", metric_identities),
        ("serialization round-trip", serialization_roundtrip),
        ("noise exact SNR", noise_exact_snr),
        ("clean recovery", clean_recovery),
        ("sweep determinism", sweep_determinism),
    ]


def _strip_wall_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    out = [lines[0]]
    header = lines[1].split(",")
    drop = header.index("wall_time_ms") if "wall_time_ms" in header else None
    for line in lines[1:]:
        cells = line.split(",")
        if drop is not None and len(cells) == len(header):
            cells = cells[:drop] + cells[drop + 1 :]
        out.append(",".join(cells))
    return "\n".join(out)


def run_selftest(seed: int) -> bool:
    import tempfile

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, check in _selftest_checks(seed, Path(tmp)):
            passed = bool(check())
            print(f"selftest {name}: {'PASS' if passed else 'FAIL'}")
            ok = ok and passed
    return ok


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlspr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synthesize": "generate ensemble/measurement/signal files",
        "solve": "solve ensemble/measurement files",
        "sweep": "seeded comparison sweep, CSV output",
        "analyze": "first-order error analysis, CSV output",
        "selftest": "run fast property checks",
    }
    subparsers = {name: sub.add_parser(name, help=text) for name, text in commands.items()}
    # A setting flag's dest is the ExperimentConfig field it sets (see _flags).
    for name, p in subparsers.items():
        p.add_argument("--seed", type=int, help="base seed (overrides config)")
        p.add_argument("--out", type=str, help="output path or prefix")
        p.add_argument("--config", type=str, help="YAML experiment config")
        if name in ("synthesize", "solve"):
            p.add_argument("--meas-snr-db", dest="measurement_snr_db", metavar="MEAS_SNR_DB", type=float)
            p.add_argument("--sensing-snr-db", type=float)
            p.add_argument("--noise-model", choices=noise.NOISE_MODELS)
        if name in ("sweep", "analyze"):
            p.add_argument("--trials", type=int)

    p = subparsers["synthesize"]
    p.add_argument("--n", type=int)
    p.add_argument("--ratio", dest="ratios", metavar="RATIO", type=float, help="M/N (or pattern count for cdp)")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--real", dest="real_mode", action="store_const", const=True, help="real-valued signal and ensemble")

    p = subparsers["solve"]
    p.add_argument("--ensemble", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--signal", default=None, help="optional ground-truth signal file")
    p.add_argument("--mode", choices=MODES, default="tls")
    p.add_argument("--step-size", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--projection", choices=PROJECTIONS)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s tree, built once per process: parsing leaves
    the parser unchanged."""
    return build_parser()


def _flags(args) -> dict:
    """Each config field that a given flag of ``args`` sets, to its value;
    ``--step-size`` sets both solver steps."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    if "step_size" in given:
        given.update({f"step_size_{mode}": given["step_size"] for mode in MODES})
    return {name: value for name, value in given.items() if name in _FIELD_TYPES}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config, _flags(args))
        if args.command == "synthesize":
            print(*run_synthesize(config, args.out or "synthesized"), sep="\n")
            return 0
        if args.command == "solve":
            report = solve_single(args.ensemble, args.measurements, config, args.mode, args.out or "solution",
                                  signal_path=args.signal)
            print(json.dumps({k: v for k, v in report.items() if k != "objective_trace"}))
            return 0
        if args.command in ("sweep", "analyze"):
            run = run_sweep if args.command == "sweep" else run_error_analysis
            print(run(config, output=args.out))
            return 0
        if args.command == "selftest":
            return 0 if run_selftest(config.seed) else 2
    except (UsageError, serialization.FileFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, analysis.IllConditionedError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
