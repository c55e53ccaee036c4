"""Tests of the benchmark's own logic: run with ``python -m pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import harness
import spans

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=-1, op=0, counts=None):
    return spans.Span(name, start, end, parent, op, counts or {})


def test_covered_ns_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered_ns(0, 100, []) == 0
    assert spans.covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert spans.covered_ns(0, 100, [(10, 60), (20, 30)]) == 50
    assert spans.covered_ns(50, 100, [(0, 10)]) == 0


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("cli.main", 0, 100),
        _span("solvers.solve_tls", 10, 60, parent=0),
        _span("correction.sweep_corrections", 20, 30, parent=1),
        _span("correction.sweep_corrections", 40, 55, parent=1),
        _span("serialization.save", 70, 80, parent=0),
    ]
    assert spans.self_times(trace) == [40, 25, 10, 15, 10]


def test_summarize_totals_by_name_and_outermost_layer_time():
    trace = [
        _span("metrics.rel_corr", 0, 10, op=1),
        _span("metrics.rel_dist", 2, 6, parent=0, op=1),  # nested in its own layer
        _span("metrics.rel_dist", 20, 25, op=1, counts={"bytes": 3}),
        _span("metrics.rel_dist", 30, 90, op=2),  # another op, left out
    ]
    totals = spans.summarize(trace, ops=[1])
    assert totals["metrics.rel_corr"].self_ns == 6
    assert totals["metrics.rel_dist"].calls == 2
    assert totals["metrics.rel_dist"].duration_ns == 9
    assert totals["metrics.rel_dist"].outer_ns == 5
    assert totals["metrics.rel_dist"].counts["bytes"] == 3


def test_tracer_records_spans_only_while_recording_and_restores_attributes():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    mod = types.SimpleNamespace()
    mod.inner = lambda values, scale=2: [v * scale for v in values]
    mod.outer = lambda values: mod.inner(values)
    original_inner, original_outer = mod.inner, mod.outer
    tracer.site(mod, "outer", "cli.outer")
    tracer.site(mod, "inner", "cubic.inner", lambda args, result: {"n": len(args["values"]), "scale": args["scale"]})

    with tracer.recording(op=7):
        assert mod.outer([1, 2, 3]) == [2, 4, 6]
    assert mod.inner is original_inner and mod.outer is original_outer
    mod.outer([1])  # untraced: no new span

    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [("cli.outer", -1, 7), ("cubic.inner", 0, 7)]
    outer, inner = tracer.spans
    assert outer.start_ns < inner.start_ns < inner.end_ns < outer.end_ns
    assert inner.counts == {"n": 3, "scale": 2}


def test_tracer_closes_the_span_of_a_raising_call():
    tracer = spans.Tracer()
    mod = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer.site(mod, "fail", "solvers.fail")
    with tracer.recording(op=0), pytest.raises(ZeroDivisionError):
        mod.fail()
    (span,) = tracer.spans
    assert span.end_ns >= span.start_ns and tracer._stack == []


def test_latency_summary_reports_throughput_and_interpolated_percentiles():
    best = [ms / 1e3 for ms in range(1, 201)]
    summary = harness.latency_summary(best)
    assert summary["ops_per_s"] == pytest.approx(200 / 20.1)
    assert summary["op_ms_p50"] == pytest.approx(100.5)
    assert summary["op_ms_p90"] == pytest.approx(180.1)


def _record(index, seconds, **outcome):
    return harness.OpRecord(index, seconds, harness.Outcome(**outcome))


def test_best_times_take_the_fastest_repeat_over_complete_passes():
    records = [_record(i % 2, s) for i, s in enumerate([0.5, 0.7, 0.25, 0.9, 0.1])]
    assert harness.best_times(records, size=2) == [0.25, 0.7]
    assert harness.best_times(records[:1], size=2) == [0.5]


def test_quality_takes_each_input_once_and_skips_failed_ops():
    records = [
        _record(0, 1.0, rel_dist_tls=0.1, rel_dist_ls=0.3),
        _record(1, 1.0, rel_dist_tls=0.2, rel_dist_ls=0.4, unconverged=1),
        _record(2, 1.0, rel_dist_tls=9.0, rel_dist_ls=9.0, error="non-finite rel_dist"),
        _record(0, 1.0, rel_dist_tls=0.7, rel_dist_ls=0.7, unconverged=2),  # repeat of input 0
    ]
    assert harness.quality(records) == (pytest.approx(0.15), pytest.approx(0.35), 1)


def test_sweep_check_fails_non_finite_errors_and_counts_unconverged_solves():
    check = harness.SweepOps.check.__get__(object.__new__(harness.SweepOps))
    row = {"rel_dist_tls": 0.05, "rel_dist_ls": 1.2, "converged_tls": True, "converged_ls": False}
    outcome = check(0, row)
    assert outcome.error is None and outcome.unconverged == 1
    assert check(0, {**row, "rel_dist_tls": float("nan")}).error == "non-finite rel_dist"


def test_layer_metrics_ratios():
    totals = {
        "cubic.depressed_roots_batch": spans.Totals(4, 8000, 8000, 8000, Counter(cubics=16)),
        "correction.sweep_corrections": spans.Totals(2, 20000, 12000, 20000, Counter(meas=8)),
        "solvers.solve_tls": spans.Totals(1, 10**6, 5 * 10**5, 10**6, Counter(iters=2, matvec_bytes=10**9)),
    }
    m = harness.layer_metrics(totals, n_ops=2, overhead_frac=0.01)
    assert set(m) == set(harness.PER_LAYER)
    assert m["cubic.ns_per_cubic"] == 500.0
    assert m["cubic.cubics_per_meas"] == 2.0
    assert m["correction.sweep_ns_per_meas"] == 2500.0
    assert m["correction.self_ns_per_meas"] == 1500.0
    assert m["correction.sweeps"] == 1.0
    assert m["solvers.tls_self_ms_per_iter"] == 0.25
    assert m["solvers.iters_tls"] == 2.0
    assert m["solvers.matvec_gb_computed"] == 0.5
    assert m["serialization.read_mb_per_s"] == 0.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_run_emits_every_named_metric(name, trace, tmp_path, monkeypatch, capsys):
    tiny = dataclasses.replace(harness.WORKLOADS[name], n=8, pool=2)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    monkeypatch.setattr(harness, "MIN_PASSES", 1)
    monkeypatch.setattr(harness, "probe_setup", lambda *a: [0.5, 0.25, 0.75])
    args = harness.parse_args(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    workdir = tmp_path / "work"
    workdir.mkdir()
    harness.run(harness.load_library(), tiny, args, workdir, deadline=float("inf"))

    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    wanted = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())
    saved = json.loads((tmp_path / f"BENCH_{name}_seed3_trace{trace}.json").read_text())
    assert {"git_commit", "seed", "numpy", "blas", "blas_threads", "tlspr_workers", "nproc"} <= set(saved["metadata"])
    if not trace:
        assert saved["raw_unscaled"]["setup_s"] == 0.5
        assert last["metrics"]["setup_s"]["value"] == pytest.approx(0.5 * saved["calibration_scale"])
        assert last["metrics"]["ops_per_s"]["value"] == pytest.approx(
            saved["raw_unscaled"]["ops_per_s"] / saved["calibration_scale"])
        assert saved["metrics"]["ops"]["value"] == last["attempted"]
        assert saved["metrics"]["fail_frac"]["value"] == last["failed"] / last["attempted"]


def test_setup_probe_reports_ready():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "sweep-paper", "--seed", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stdout == "ready\n"


def test_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
