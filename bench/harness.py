"""Workloads, timed loop, output checks and metrics of the tlspr benchmark.

Each run is one process driving one workload as a closed loop with a single
client: the next operation starts when the previous one has returned.  The
operations cycle through a pool of inputs generated from ``--seed``; a pass
is one trip through the pool.  See ``run.py`` for the command line.

Timings are taken per input as the fastest of its repeats over the complete
passes of a run.  Other processes on a shared machine only ever slow an op
down, in bursts of a few seconds, so the fastest repeat is a steady estimate
of the program's own cost and still moves one for one with it.

The speed of a shared machine also drifts by up to a third over minutes,
which no choice within one run removes.  So before every op the loop times
a fixed numpy kernel that does not use tlspr (``Calibration``), and every
reported time is scaled by ``CALIBRATION_REF_S`` over the kernel's 10th
percentile time in the run (a fast-moment statistic, like the fastest
repeat): times are in ms (or s) at the speed of the reference machine.  A change to tlspr does not touch the kernel, so it moves the
scaled times exactly as it moves the raw ones; the raw values and the
scale factor are kept in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# Inputs of seed s come from the block of library seeds starting at
# s * SEED_STRIDE, so the pools of two bench seeds never share a trial.
SEED_STRIDE = 1_000_003
SETUP_PROBES = 5  # fresh processes whose set-up time gives the setup_s median
MIN_PASSES = 5  # repeats of each input that the fastest-of timing picks from
LOOP_CAP_S = 150.0  # hard stop for the timed loop, whatever else is unmet
# 10th percentile time of Calibration.sample on one core of the 2-core x86
# box the benchmark was written on (numpy 2.4, OpenBLAS 0.3.31).
CALIBRATION_REF_S = 3.4e-3
MEAS_SNR_DB = 20.0
SENSING_SNR_DB = 10.0

# name -> unit; the last line of a run reports exactly these.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "rel_dist_tls_p50": "ratio",
    "rel_dist_ls_p50": "ratio",
}
# Printed beside the end-to-end metrics and saved in the result file.
# ``attempted`` and ``failed`` in the last line carry ops and fail_frac.
REPORTED = {"ops": "count", "fail_frac": "ratio", "unconverged_inputs": "count"}
PER_LAYER = {
    "cubic.ns_per_cubic": "ns",
    "cubic.cubics_per_meas": "count",
    "correction.sweep_ns_per_meas": "ns",
    "correction.self_ns_per_meas": "ns",
    "correction.sweeps": "count",
    "solvers.ls_ms_per_iter": "ms",
    "solvers.tls_self_ms_per_iter": "ms",
    "solvers.spectral_init_ms": "ms",
    "solvers.matvec_gb_computed": "GB",
    "solvers.iters_tls": "count",
    "solvers.iters_ls": "count",
    "models.ensemble_ms": "ms",
    "models.synthesize_ms": "ms",
    "noise.inject_ms": "ms",
    "core.container_inits": "count",
    "core.container_init_ms": "ms",
    "serialization.load_ms": "ms",
    "serialization.save_ms": "ms",
    "serialization.read_mb_per_s": "MB/s",
    "serialization.write_mb_per_s": "MB/s",
    "cli.self_ms": "ms",
    "metrics.ms": "ms",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep": cli.run_trial per op; "solve": cli.main(["solve", ...]) per op
    n: int
    ratio: int  # M/N for Gaussian data, the pattern count L for CDP
    pool: int  # distinct problem instances cycled by the loop
    check_tls_beats_ls: bool = False


# Pool sizes are set so that MIN_PASSES passes take about 25 s on one core of
# a 2-core x86 box (op costs there: 75, 160 and 450 ms); a 30 s run then
# repeats each input five or six times.
WORKLOADS = {
    # The paper's headline setting; M=512 keeps arrays small, so per-call
    # overhead dominates.
    "sweep-paper": Workload("sweep-paper", "sweep", n=64, ratio=8, pool=64),
    # M=4096: per-element cost of the correction sweep and the cubic solve.
    "sweep-tall": Workload("sweep-tall", "sweep", n=32, ratio=128, pool=30, check_tls_beats_ls=True),
    # Dense matvecs and file I/O.
    "solve-cdp": Workload("solve-cdp", "solve", n=128, ratio=8, pool=11),
}


@dataclass
class Outcome:
    """What one operation produced, after its output checks."""

    rel_dist_tls: float | None = None
    rel_dist_ls: float | None = None
    unconverged: int = 0  # solves that stopped at max_iters; reported, not failed
    error: str | None = None


@dataclass
class OpRecord:
    index: int  # position in the pool
    seconds: float
    outcome: Outcome


class Calibration:
    """Fixed numpy work like the library's (a complex matvec pair, elementwise
    complex arithmetic, cube roots) on constant inputs, independent of tlspr."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.normal(size=(512, 64)) + 1j * rng.normal(size=(512, 64))
        self.x = rng.normal(size=64) + 1j * rng.normal(size=64)
        self.b = rng.normal(size=4096)

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            nu = self.a.conj() @ self.x
            self.a.T @ ((np.abs(nu) ** 2 - 1.0) * nu)
            np.sqrt((self.b * self.b - 3.0).astype(np.complex128)) ** (1.0 / 3.0)
        return time.perf_counter() - start


class UnusableCheckout(RuntimeError):
    """The directory the benchmark runs in does not hold the library."""


def load_library():
    """Import tlspr from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tlspr
        from tlspr import cli, core, correction, metrics, noise, serialization, solvers  # noqa: F401
    except ImportError as exc:
        raise UnusableCheckout(f"cannot import tlspr from {src}: {exc}") from exc
    if not Path(tlspr.__file__).resolve().is_relative_to(src.resolve()):
        raise UnusableCheckout(f"tlspr was imported from {tlspr.__file__}, not from {src}")
    return tlspr  # with the submodules above loaded as attributes


def _finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


class SweepOps:
    """One op is one ``cli.run_trial``: the per-trial body of ``tlspr sweep``."""

    def __init__(self, lib, wl: Workload, seed: int, workdir: Path):
        self.cli = lib.cli
        self.wl = wl
        self.base = seed * SEED_STRIDE
        self.config = self.cli.ExperimentConfig(
            seed=self.base,
            n=wl.n,
            ratios=(wl.ratio,),
            measurement_snr_db=(MEAS_SNR_DB,),
            sensing_snr_db=(SENSING_SNR_DB,),
        )
        self.size = wl.pool

    def run(self, k: int):
        # Same seed as row k of ``tlspr sweep`` for a one-combination config.
        return self.cli.run_trial(
            self.config, self.wl.ratio, MEAS_SNR_DB, SENSING_SNR_DB, self.base + k, k
        )

    def check(self, k: int, row: dict) -> Outcome:
        out = Outcome(row.get("rel_dist_tls"), row.get("rel_dist_ls"))
        out.unconverged = [row.get("converged_tls"), row.get("converged_ls")].count(False)
        if not (_finite(out.rel_dist_tls) and _finite(out.rel_dist_ls)):
            out.error = "non-finite rel_dist"
        return out


class SolveOps:
    """One op is two in-process ``tlspr solve`` runs on the binary files of
    one CDP instance, first with ``--mode tls``, then with ``--mode ls``.

    A pair, not a single solve, is the op because TLS solves take about half
    as long as LS solves: the median of single solves would fall in the gap
    between the two groups and swing with their extremes.  Set-up writes the
    ``pool`` instances with ``tlspr synthesize``.
    """

    MODES = ("tls", "ls")

    def __init__(self, lib, wl: Workload, seed: int, workdir: Path):
        self.cli = lib.cli
        self.serialization = lib.serialization
        self.metrics = lib.metrics
        self.workdir = workdir
        self.size = wl.pool
        self.truth = []
        for k in range(wl.pool):
            argv = [
                "synthesize", "--model", "cdp", "--n", str(wl.n), "--ratio", str(wl.ratio),
                "--meas-snr-db", str(MEAS_SNR_DB), "--sensing-snr-db", str(SENSING_SNR_DB),
                "--seed", str(seed * SEED_STRIDE + k), "--out", str(workdir / f"in{k}"),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"tlspr synthesize exited with {rc} for instance {k}")
            self.truth.append(self.serialization.load(workdir / f"in{k}.signal.tlspr"))

    def run(self, k: int):
        src = self.workdir / f"in{k}"
        outputs = []
        for mode in self.MODES:
            argv = [
                "solve", "--ensemble", f"{src}.ensemble.tlspr", "--measurements", f"{src}.meas.tlspr",
                "--signal", f"{src}.signal.tlspr", "--mode", mode, "--out", str(self.workdir / f"out{k}{mode}"),
            ]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
            outputs.append((rc, buf.getvalue()))
        return outputs

    def check(self, k: int, outputs) -> Outcome:
        outcome = Outcome()
        for mode, (rc, stdout) in zip(self.MODES, outputs):
            if rc != 0:
                outcome.error = f"tlspr solve --mode {mode} exited with {rc}"
                return outcome
            report = json.loads(stdout.strip().splitlines()[-1])
            rel = report.get("rel_dist")
            setattr(outcome, f"rel_dist_{mode}", rel)
            outcome.unconverged += report.get("converged") is False
            if not _finite(rel):
                outcome.error = f"{mode}: non-finite rel_dist"
            else:
                x_hat = self.serialization.load(self.workdir / f"out{k}{mode}.solution.tlspr")
                again = self.metrics.rel_dist(self.truth[k], x_hat)
                if not math.isclose(again, rel, rel_tol=1e-12, abs_tol=0.0):
                    outcome.error = f"{mode}: report rel_dist {rel!r} != {again!r} from the saved solution"
            if outcome.error:
                return outcome
        return outcome


def make_ops(lib, wl: Workload, seed: int, workdir: Path):
    return (SweepOps if wl.kind == "sweep" else SolveOps)(lib, wl, seed, workdir)


def _shape(ensemble) -> tuple[int, int]:
    return getattr(ensemble, "vectors", ensemble).shape


def _file_bytes(call, _result) -> dict:
    return {"bytes": os.path.getsize(call["path"])}


def _solve_counts(call, result) -> dict:
    m, n = _shape(call["ensemble"])
    # One matvec before the loop and two per iteration, in both solvers.
    return {"iters": result.iterations, "matvec_bytes": 16 * m * n * (1 + 2 * result.iterations)}


def _spectral_counts(call, _result) -> dict:
    m, n = _shape(call["ensemble"])
    return {"matvec_bytes": 16 * m * n * 2 * call["power_iters"]}


def make_tracer(lib) -> spans.Tracer:
    """Spans at each layer boundary, placed where the caller looks the name up."""
    cli, solvers, correction = lib.cli, lib.solvers, lib.correction
    t = spans.Tracer()
    t.site(cli, "run_trial", "cli.run_trial")
    t.site(cli, "main", "cli.main")
    for name in ("gaussian_ensemble", "cdp_ensemble", "synthesize_measurements"):
        t.site(cli, name, f"models.{name}")
    t.site(lib.noise, "inject", "noise.inject")
    t.site(cli, "spectral_init", "solvers.spectral_init", _spectral_counts)
    t.site(solvers, "spectral_init", "solvers.spectral_init", _spectral_counts)
    t.site(cli, "solve_tls", "solvers.solve_tls", _solve_counts)
    t.site(cli, "solve_ls", "solvers.solve_ls", _solve_counts)
    t.site(solvers, "sweep_corrections", "correction.sweep_corrections",
           lambda call, _r: {"meas": len(call["y"])})
    t.site(correction, "depressed_roots_batch", "cubic.depressed_roots_batch",
           lambda call, _r: {"cubics": len(call["beta"])})
    for name in ("rel_dist", "rel_corr"):
        t.site(lib.metrics, name, f"metrics.{name}")
    t.site(lib.serialization, "load", "serialization.load", _file_bytes)
    t.site(lib.serialization, "save", "serialization.save", _file_bytes)
    for cls in (lib.core.SensingEnsemble, lib.core.MeasurementSet):
        t.site(cls, "__post_init__", f"core.{cls.__name__}.__post_init__")
    return t


def layer_metrics(totals: dict[str, spans.Totals], n_ops: int, overhead_frac: float) -> dict:
    """Per-layer metrics from span totals over ``n_ops`` traced operations.

    ``*_ms`` are per op, ``*_per_iter`` per solver iteration, ``*_per_meas``
    per measurement swept, ``iters_*`` per solve call.  ``*self*`` metrics
    exclude the time of child spans; ``matvec_gb_computed`` is 16*M*N bytes
    per matvec counted from iterations and shapes, not measured traffic.
    """

    def get(name):
        return totals.get(name, spans.Totals())

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_ns(prefix):
        return sum(t.outer_ns for name, t in totals.items() if name.startswith(prefix))

    cubic = get("cubic.depressed_roots_batch")
    sweep = get("correction.sweep_corrections")
    tls, ls = get("solvers.solve_tls"), get("solvers.solve_ls")
    load, save = get("serialization.load"), get("serialization.save")
    meas = sweep.counts["meas"]
    ms_per_op = 1e-6 / n_ops
    return {
        "cubic.ns_per_cubic": ratio(cubic.duration_ns, cubic.counts["cubics"]),
        "cubic.cubics_per_meas": ratio(cubic.counts["cubics"], meas),
        "correction.sweep_ns_per_meas": ratio(sweep.duration_ns, meas),
        "correction.self_ns_per_meas": ratio(sweep.self_ns, meas),
        "correction.sweeps": sweep.calls / n_ops,
        "solvers.ls_ms_per_iter": 1e-6 * ratio(ls.self_ns, ls.counts["iters"]),
        "solvers.tls_self_ms_per_iter": 1e-6 * ratio(tls.self_ns, tls.counts["iters"]),
        "solvers.spectral_init_ms": get("solvers.spectral_init").duration_ns * ms_per_op,
        "solvers.matvec_gb_computed": 1e-9 * (tls.counts["matvec_bytes"] + ls.counts["matvec_bytes"]
                                              + get("solvers.spectral_init").counts["matvec_bytes"]) / n_ops,
        "solvers.iters_tls": ratio(tls.counts["iters"], tls.calls),
        "solvers.iters_ls": ratio(ls.counts["iters"], ls.calls),
        "models.ensemble_ms": (
            get("models.gaussian_ensemble").duration_ns + get("models.cdp_ensemble").duration_ns
        ) * ms_per_op,
        "models.synthesize_ms": get("models.synthesize_measurements").duration_ns * ms_per_op,
        "noise.inject_ms": get("noise.inject").duration_ns * ms_per_op,
        "core.container_inits": sum(t.calls for n, t in totals.items() if n.startswith("core.")) / n_ops,
        "core.container_init_ms": layer_ns("core.") * ms_per_op,
        "serialization.load_ms": load.duration_ns * ms_per_op,
        "serialization.save_ms": save.duration_ns * ms_per_op,
        "serialization.read_mb_per_s": 1e3 * ratio(load.counts["bytes"], load.duration_ns),
        "serialization.write_mb_per_s": 1e3 * ratio(save.counts["bytes"], save.duration_ns),
        "cli.self_ms": (get("cli.run_trial").self_ns + get("cli.main").self_ns) * ms_per_op,
        "metrics.ms": layer_ns("metrics.") * ms_per_op,
        "trace.overhead_frac": overhead_frac,
    }


def run_op(ops, k: int, tracer: spans.Tracer | None = None, op_id=None) -> OpRecord:
    """Time one op; its output checks run after the clock (and the trace) stop."""
    error = None
    with contextlib.nullcontext() if tracer is None else tracer.recording(op_id):
        start = time.perf_counter()
        try:
            raw = ops.run(k)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if error is None:
        try:
            return OpRecord(k, seconds, ops.check(k, raw))
        except Exception as exc:  # malformed output also fails only this op
            error = f"output check raised {type(exc).__name__}: {exc}"
    return OpRecord(k, seconds, Outcome(error=error))


def measure(ops, seconds: float, deadline: float, tracer: spans.Tracer | None = None):
    """Cycle through the pool until ``seconds`` have passed.

    The loop also runs on until MIN_PASSES times the pool size ops have run,
    unless ``deadline`` (a perf_counter value) comes first.  With a tracer every
    input runs twice, untraced and traced, in alternating order; the traced
    op of step i has op id i.  Returns the untraced records, the traced
    records and the Calibration times, one taken before each step.
    """
    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    calibration = Calibration()
    kernel_s: list[float] = []
    start = time.perf_counter()
    i = 0
    while True:
        kernel_s.append(calibration.sample())
        k = i % ops.size
        if tracer is None:
            plain.append(run_op(ops, k))
        else:
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                if with_trace:
                    traced.append(run_op(ops, k, tracer, i))
                else:
                    plain.append(run_op(ops, k))
        i += 1
        now = time.perf_counter()
        if now >= deadline:
            break
        if now - start >= seconds and len(plain) + len(traced) >= MIN_PASSES * ops.size:
            break
    return plain, traced, kernel_s


def best_times(records: list[OpRecord], size: int) -> list[float]:
    """Fastest time of each input over the complete passes in ``records``.

    With no complete pass, every record counts.
    """
    passes = len(records) // size
    best: dict[int, float] = {}
    for r in records[: passes * size] if passes else records:
        best[r.index] = min(r.seconds, best.get(r.index, math.inf))
    return [best[k] for k in sorted(best)]


def latency_summary(best: list[float]) -> dict:
    """Throughput and 50th/90th percentile latency (ms, linear interpolation)
    of the per-input best times."""
    p50, p90 = np.percentile(np.asarray(best) * 1e3, [50, 90])
    return {"ops_per_s": len(best) / sum(best), "op_ms_p50": float(p50), "op_ms_p90": float(p90)}


def quality(records: list[OpRecord]) -> tuple[float | None, float | None, int]:
    """Median rel_dist of TLS and of LS over the distinct pool inputs, and
    the number of inputs with a solve that stopped at max_iters.

    Each input counts once, with its first result, so the values depend on
    the seed and not on how many passes the run completed.
    """
    first: dict[int, Outcome] = {}
    for r in records:
        first.setdefault(r.index, r.outcome)
    medians = []
    for attr in ("rel_dist_tls", "rel_dist_ls"):
        values = [getattr(o, attr) for o in first.values() if o.error is None and getattr(o, attr) is not None]
        medians.append(statistics.median(values) if values else None)
    return medians[0], medians[1], sum(o.unconverged > 0 for o in first.values())


def probe_setup(workload: str, seed: int, timeout: float = 60.0) -> list[float]:
    """Seconds from process start to the first timed op, in fresh processes."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                proc.kill()
            proc.communicate(timeout=timeout)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or f"unknown ({done.stderr.strip()})"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def run_metadata(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "tlspr_workers": os.environ.get("TLSPR_WORKERS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="bench/run.py", description="tlspr benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit; used to time set-up")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        lib = load_library()
    except UnusableCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{wl.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            run_op(make_ops(lib, wl, args.seed, workdir), 0)
            print("ready", flush=True)
            return 0
        return run(lib, wl, args, workdir, started + LOOP_CAP_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(lib, wl: Workload, args, workdir: Path, deadline: float) -> int:
    probes = [] if args.trace else probe_setup(wl.name, args.seed)
    tracer = make_tracer(lib) if args.trace else None
    with contextlib.nullcontext() if tracer is None else tracer.recording("setup"):
        ops = make_ops(lib, wl, args.seed, workdir)
    run_op(ops, 0)  # warm-up
    plain, traced, kernel_s = measure(ops, args.seconds, deadline, tracer)
    scale = CALIBRATION_REF_S / statistics.quantiles(kernel_s, n=10)[0]

    records = plain + traced
    errors = [f"op {r.index}: {r.outcome.error}" for r in records if r.outcome.error]
    tls_p50, ls_p50, unconverged = quality(plain)
    if tls_p50 is None or ls_p50 is None:
        errors.append("no successful op of each solver")
    elif wl.check_tls_beats_ls and not tls_p50 < ls_p50:
        errors.append(f"median rel_dist_tls {tls_p50!r} is not below rel_dist_ls {ls_p50!r}")
    attempted = len(records)
    failed = len(errors)
    best = best_times(plain, ops.size)
    raw = {"setup_s": statistics.median(probes), **latency_summary(best)} if tracer is None else {}
    if tracer is None:
        units, gated = {**END_TO_END, **REPORTED}, END_TO_END
        values = {
            "setup_s": raw["setup_s"] * scale,
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_ms_p50": raw["op_ms_p50"] * scale,
            "op_ms_p90": raw["op_ms_p90"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # 0.0 only when no op succeeded, and then the run is not correct.
            "rel_dist_tls_p50": tls_p50 or 0.0,
            "rel_dist_ls_p50": ls_p50 or 0.0,
            "ops": len(plain),
            "fail_frac": failed / attempted,
            "unconverged_inputs": unconverged,
        }
    else:
        units = gated = PER_LAYER
        passes = len(traced) // ops.size
        op_ids = range(passes * ops.size if passes else len(traced))
        overhead = sum(best_times(traced, ops.size)) / sum(best) - 1.0
        values = layer_metrics(spans.summarize(tracer.spans, op_ids), len(op_ids), overhead)

    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    result_file = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "metadata": run_metadata(args.seed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "calibration_scale": scale,
        "calibration_s": statistics.quantiles(kernel_s, n=10),
        "raw_unscaled": raw,
        "setup_probe_s": probes,
        "best_op_s": best,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{tag}.json").write_text(json.dumps(result_file, indent=2) + "\n")
    if tracer is not None:
        (OUT_DIR / f"spans_{tag}.json").write_text(json.dumps(tracer.dump()))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"({attempted} ops attempted, {failed} failed)")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:>14.6g} {unit}")
    for line in errors[:5]:
        print(f"  FAILED {line}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in gated.items()},
    }))
    return 0 if correct else 1
