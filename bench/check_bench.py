"""The benchmark's own checks, at tiny sizes.

Run with ``python3 -m pytest bench/check_bench.py -q`` from the repository
root. The file name keeps it out of a plain ``pytest`` run of the repository.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import score_mewma as sm  # noqa: E402
from score_mewma import cli  # noqa: E402

import run as bench_run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def env():
    return workloads.build_env(sm, cli)[0]


def tiny(name):
    """A workload instance sized down for tests; checks are unchanged."""
    w = type(workloads.WORKLOADS[name])()
    if name == "shift-study":
        w.REPS = 100
    elif name == "monitor":
        w.ROWS = 300
    elif name == "calibrate":
        w.CONFIRM_REPS = 2100  # still two chunks
    w.trace_ops = {"calibrate": 1, "shift-study": 1, "monitor": 1, "phase1-arl": 3}[name]
    return w


# stands in for run.SetupClock, which re-imports the package
FAKE_SETUP = SimpleNamespace(median_s=lambda: 0.05, median_sigma_s=lambda: 0.001, sample=lambda: None,
                             seconds=[0.1, 0.05])


def benchmark_doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["calibrate", "shift-study", "monitor", "phase1-arl"])
def test_workload_runs_and_passes_its_checks(env, tmp_path, name):
    w = tiny(name)
    inputs = w.prepare(env, 5, str(tmp_path))
    ops = [bench_run.run_op(w, env, inputs, 5, i, 2) for i in range(w.trace_ops)]
    for op in ops:
        assert op.problems == []
        # a Phase-I refit may hit the known FitError; nothing else may fail
        assert op.error is None or (name == "phase1-arl" and op.error.startswith("FitError"))


def test_only_a_workloads_rejections_are_kept_out_of_failed(env):
    def raising(exc):
        def run(*args):
            raise exc
        return SimpleNamespace(run=run, check=lambda *args: [], rejections=("FitError",))

    fit = bench_run.run_op(raising(sm.SeparationError("separated")), env, None, 1, 0, 2)
    assert fit.rejected and not fit.failed and not fit.solved
    other = bench_run.run_op(raising(sm.CalibrationError("no bracket")), env, None, 1, 0, 2)
    assert other.failed and not other.rejected
    wrong = bench_run.run_op(SimpleNamespace(run=lambda *a: 0, check=lambda *a: ["wrong"], rejections=()),
                             env, None, 1, 0, 2)
    assert wrong.failed and not wrong.rejected


def test_time_budget_runs_at_least_one_operation_and_samples_the_gauge(env, tmp_path):
    w = tiny("monitor")
    inputs = w.prepare(env, 1, str(tmp_path))
    gauge = bench_run.SpeedGauge()
    ops = bench_run.run_ops(w, env, inputs, 1, 2, 0.0, gauge)
    assert len(ops) == 1 and not ops[0].failed
    # the speed gauge is sampled before the first operation
    assert len(gauge.seconds) >= 1 and gauge.mean_s() > 0


def test_monitor_oracle_rejects_a_perturbed_trace(env, tmp_path):
    w = tiny("monitor")
    inputs = w.prepare(env, 2, str(tmp_path))
    out = w.run(env, inputs, 2, 0, 2)
    header, rows = workloads.read_trace(out.path)
    expected = inputs["t2"]
    assert workloads.check_trace(header, rows, expected, workloads.H_FIXED) == []
    assert len(out.record_gaps_us()) == w.ROWS

    bumped = rows.copy()
    bumped[17, 1] *= 1.0 + 1e-8
    assert workloads.check_trace(header, bumped, expected, workloads.H_FIXED)
    flipped = rows.copy()
    flipped[3, 2] = 1.0 - flipped[3, 2]
    assert workloads.check_trace(header, flipped, expected, workloads.H_FIXED)
    assert workloads.check_trace(header, rows[:-1], expected, workloads.H_FIXED)


def test_calibrate_check_rejects_far_h_missed_target_and_bad_confirmation(env):
    w = workloads.WORKLOADS["calibrate"]

    def out(h=workloads.H_REFERENCE, achieved=200.5, confirmed=198.0, censored=0):
        cal = SimpleNamespace(h=h, achieved_arl=SimpleNamespace(mean_rl=achieved))
        arl = SimpleNamespace(reps=w.CONFIRM_REPS, censored=censored, mean_rl=confirmed, std_error=3.0)
        return workloads.CalibrateOutput(cal, arl)

    assert w.check(env, None, out()) == []
    assert w.check(env, None, out(h=workloads.H_REFERENCE + 4.0))
    assert w.check(env, None, out(achieved=190.0))
    assert w.check(env, None, out(confirmed=290.0))
    assert w.check(env, None, out(censored=w.CONFIRM_MAX_CENSORED)) == []
    assert w.check(env, None, out(censored=w.CONFIRM_MAX_CENSORED + 1))


def test_shift_study_check_rejects_rising_arl_and_censoring(env):
    w = workloads.WORKLOADS["shift-study"]

    def row(c, mean, target="beta24", censored=0):
        arl = SimpleNamespace(mean_rl=mean, std_error=1.0, censored=censored)
        return SimpleNamespace(shift_kind="coefficient", targets=(target,), c=c, arl=arl)

    # the same series in two studies is checked within each study only
    good = [[row(c, 150.0 / c + k) for c in (1.0, 2.0, 3.0, 4.0, 5.0)] for k in range(5)]
    assert w.check(env, None, good) == []
    rising = good[:4] + [good[4][:4] + [row(5.0, 80.0)]]
    assert any("rose" in p for p in w.check(env, None, rising))
    censored = good[:4] + [good[4][:4] + [row(5.0, 30.0, censored=1)]]
    assert any("censored" in p for p in w.check(env, None, censored))
    high = [[row(0.5, 250.0)] + good[0][1:]] + good[1:]
    assert any("not below" in p for p in w.check(env, None, high))
    assert any("25 rows" in p for p in w.check(env, None, good[:4]))


def test_phase1_check_rejects_out_of_range_run_length(env):
    w = workloads.WORKLOADS["phase1-arl"]
    good = SimpleNamespace(reps=1, run_lengths=np.array([12]))
    assert w.check(env, None, good) == []
    bad = SimpleNamespace(reps=1, run_lengths=np.array([workloads.MAX_RL + 1]))
    assert w.check(env, None, bad)


def test_traced_run_reports_every_per_layer_metric_and_is_deterministic(env, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    names = [m["name"] for m in benchmark_doc()["per_layer"]]
    for name in ("calibrate", "monitor", "phase1-arl"):
        w = tiny(name)
        inputs = w.prepare(env, 3, str(tmp_path))
        result = bench_run.traced(w, env, inputs, 3, FAKE_SETUP)
        assert sorted(result.metrics) == sorted(names)
        assert result.problems == [] and result.metrics["determinism_mismatches"][0] == 0
        assert all(math.isfinite(v) for v, _ in result.metrics.values())
        assert result.metrics["chart.records" if name != "calibrate" else "mc.passes"][0] > 0
    # the tracer put every patched function back
    assert sm.estimate_arl.__module__ == "score_mewma.calibrate"
    assert not hasattr(sm.estimate_arl, "__wrapped__")


def test_end_to_end_metrics_match_benchmark_json(env, tmp_path):
    w = tiny("monitor")
    inputs = w.prepare(env, 4, str(tmp_path))
    result = bench_run.end_to_end(w, env, inputs, 4, 0.0, FAKE_SETUP)
    assert sorted(result.metrics) == sorted(m["name"] for m in benchmark_doc()["end_to_end"])
    assert all(value > 0 for value, _ in result.metrics.values())
    assert result.details["record_latency_p99_us"] >= result.details["record_latency_p50_us"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monitor", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
