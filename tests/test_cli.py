import argparse
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import score_mewma as sm
from score_mewma import io as fio
from score_mewma.cli import EXIT_BROKEN_PIPE, build_parser, main, rerun_from_manifest

from conftest import delivery_with_risk_factors


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model_path = root / "model.json"
    model_path.write_text(sm.serialize_model_spec(sm.default_delivery_model()))
    return root, str(model_path)


def run(*argv):
    return main([str(a) for a in argv])


def test_simulate_writes_rows_and_is_seed_deterministic(work):
    root, model = work
    out1, out2 = root / "p1.csv", root / "p2.csv"
    assert run("simulate", model, model, "--n", 500, "--seed", 3, "-o", out1) == 0
    assert run("simulate", model, model, "--n", 500, "--seed", 3, "-o", out2) == 0
    body1, body2 = fio.payload_bytes(str(out1)), fio.payload_bytes(str(out2))
    assert body1 == body2
    assert body1.decode().strip().count("\n") == 500  # header + 500 rows
    # equivalence with the library sampler
    model_obj = sm.default_delivery_model()
    lib = sm.sample_patients(sm.in_control_generator(model_obj), 500, np.random.default_rng(3))
    data = fio.read_patient_csv(str(out1), model_obj.spec)
    np.testing.assert_array_equal(data.y, lib.y)


def test_simulate_with_shift(work):
    root, model = work
    out = root / "shifted.csv"
    assert run("simulate", model, model, "--n", 300, "--seed", 4,
               "--shift", "mean-odds", "--targets", "Y3", "--c", 6.0, "-o", out) == 0
    model_obj = sm.default_delivery_model()
    data = fio.read_patient_csv(str(out), model_obj.spec)
    base = sm.sample_patients(sm.in_control_generator(model_obj), 300, np.random.default_rng(4))
    assert data.y[:, 2].mean() > base.y[:, 2].mean()
    # invalid shift exits 5
    assert run("simulate", model, model, "--n", 10, "--shift", "mean-odds",
               "--targets", "Y9", "--c", 2.0, "-o", root / "bad.csv") == 5


def test_fit_roundtrip(work):
    root, model = work
    data_csv = root / "fitdata.csv"
    assert run("simulate", model, model, "--n", 500, "--seed", 11, "-o", data_csv) == 0
    out = root / "fit.json"
    assert run("fit", model, data_csv, "-o", out) == 0
    payload = fio.read_json_report(str(out))["payload"]
    assert len(payload["params"]) == 17
    ses = np.array(list(payload["std_errors"].values()))
    assert np.all(np.isfinite(ses)) and np.all(ses > 0)
    assert payload["converged"]


def test_fit_reports_firth_node(work, tmp_path):
    root, model = work
    data_csv = tmp_path / "small.csv"
    # no Y3 event falls among these patients with X2 = 1 or with Y2 = 1
    assert run("simulate", model, model, "--n", 300, "--seed", 6, "-o", data_csv) == 0
    out = tmp_path / "fit.json"
    assert run("fit", model, data_csv, "-o", out) == 0
    nodes = fio.read_json_report(str(out))["payload"]["nodes"]
    assert {node: (r["separation"], r["estimator"]) for node, r in nodes.items()} == {
        "Y1": ("none", "mle"),
        "Y2": ("none", "mle"),
        "Y3": ("quasi-complete", "firth"),
        "Y4": ("none", "mle"),
    }


def test_fit_error_codes(work, tmp_path):
    root, model = work
    # missing column
    cols = [c for c in fio.patient_columns(sm.default_delivery_model().spec) if c != "Y3"]
    bad = tmp_path / "missing.csv"
    bad.write_text(",".join(cols) + "\n" + ",".join(["0"] * len(cols)) + "\n")
    assert run("fit", model, bad, "-o", tmp_path / "o.json") == 2
    # empty file
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("fit", model, empty, "-o", tmp_path / "o.json") == 2
    # separation: X1 predicts Y1 perfectly
    model_obj = sm.default_delivery_model()
    data = sm.sample_patients(sm.in_control_generator(model_obj), 120, 5)
    y = data.y.copy()
    y[:, 0] = data.x[:, 0]
    sep = tmp_path / "sep.csv"
    fio.write_patient_csv(str(sep), model_obj.spec, sm.PatientData(x=data.x, z=data.z, y=y))
    assert run("fit", model, sep, "-o", tmp_path / "o.json") == 3
    # nonexistent file
    assert run("fit", model, tmp_path / "nope.csv", "-o", tmp_path / "o.json") == 2


@pytest.fixture(scope="module")
def calibrated(work):
    root, model = work
    out = root / "cal.json"
    code = run("calibrate", model, model, "--target-arl", 15, "--reps", 600,
               "--r", 0.1, "--seed", 5, "--max-rl", 300, "-o", out)
    assert code == 0
    return str(out), fio.read_json_report(str(out))["payload"]


def test_calibrate_payload_and_rerun(work, calibrated, tmp_path):
    root, model = work
    cal_path, payload = calibrated
    assert payload["h"] > 0
    assert abs(payload["achieved_arl"]["mean_rl"] - 15.0) / 15.0 < 0.02
    assert payload["config"]["seed"] == 5
    # byte-identical re-run from the manifest, across thread counts
    for threads in ("1", "2"):
        os.environ["SCORE_MEWMA_THREADS"] = threads
        try:
            out2 = tmp_path / f"cal_rerun_{threads}.json"
            assert rerun_from_manifest(cal_path, str(out2)) == 0
            assert fio.payload_bytes(str(out2)) == fio.payload_bytes(cal_path)
        finally:
            del os.environ["SCORE_MEWMA_THREADS"]


def test_calibrate_matches_library(work, calibrated):
    root, model = work
    _, payload = calibrated
    model_obj = sm.parse_model_spec(Path(model).read_text())
    sigma = sm.expected_score_covariance(model_obj.spec, model_obj.params, model_obj.covariates)
    config = sm.ChartConfig(sigma_s=sigma.values, r=0.1, coord_names=model_obj.params.names)
    res = sm.calibrate_h(
        sm.in_control_generator(model_obj), model_obj.params, config,
        target_arl=15.0, reps_schedule=(100, 500, 600), seed=5, max_rl=300,
    )
    assert res.h == payload["h"]


def test_calibrate_validation_exit_codes(work, tmp_path):
    root, model = work
    assert run("calibrate", model, model, "--target-arl", 1, "-o", tmp_path / "x.json") == 2
    assert run("calibrate", model, model, "--target-arl", 0.5, "-o", tmp_path / "x.json") == 2


def test_calibrate_above_the_enumeration_limit_uses_monte_carlo_and_reruns(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(sm.serialize_model_spec(delivery_with_risk_factors(9)))  # 17 binary variables
    out, again = tmp_path / "cal.json", tmp_path / "again.json"
    assert run("calibrate", big, big, "--target-arl", 20, "--reps", 100, "-o", out) == 0
    config = fio.read_json_report(str(out))["payload"]["config"]
    assert config["sigma_s_mode"] == "monte-carlo" and config["sigma_samples"] == 100_000
    assert rerun_from_manifest(str(out), str(again)) == 0
    assert fio.payload_bytes(str(again)) == fio.payload_bytes(str(out))


def test_calibrate_small_reps_caps_every_stage(work, tmp_path):
    root, model = work
    out = tmp_path / "cal120.json"
    assert run("calibrate", model, model, "--target-arl", 15, "--reps", 120, "--r", 0.1,
               "--seed", 5, "--max-rl", 300, "--rel-tolerance", 0.1, "-o", out) == 0
    payload = fio.read_json_report(str(out))["payload"]
    assert payload["config"]["reps_schedule"] == [100, 120]
    assert payload["achieved_arl"]["reps"] == 120
    assert "warnings" not in payload


def test_calibrate_missing_the_tolerance_exits_4(work, tmp_path, capsys):
    root, model = work
    # the final stage has 100 reps, and no mean of 100 integer run lengths
    # lies within 1.5e-4 of 15.001
    code = run("calibrate", model, model, "--target-arl", 15.001, "--rel-tolerance", 1e-5,
               "--reps", 100, "--max-rl", 300, "-o", tmp_path / "x.json")
    assert code == 4
    assert "did not reach the target within 0.001%" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_study_range_grid_and_plot_data(work, calibrated, tmp_path):
    root, model = work
    _, payload = calibrated
    out = tmp_path / "study.csv"
    plot = tmp_path / "plot.csv"
    code = run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", "0.2:4.0:0.2", "--h", payload["h"], "--reps", 20, "--max-rl", 60,
               "--seed", 9, "--emit-plot-data", plot, "-o", out)
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "shift_kind,targets,c,mean_rl,std_error,reps,censored"
    assert len(lines) == 1 + 20
    plot_lines = [ln for ln in plot.read_text().splitlines() if ln and not ln.startswith("#")]
    assert plot_lines[0] == "c,mean_rl,ci_low,ci_high"
    assert len(plot_lines) == 1 + 20


def test_study_matches_library(work, calibrated, tmp_path):
    root, model = work
    _, payload = calibrated
    out = tmp_path / "study_eq.csv"
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", "1.0,2.0", "--h", payload["h"], "--reps", 50, "--max-rl", 80,
               "--seed", 31, "-o", out) == 0
    model_obj = sm.parse_model_spec(Path(model).read_text())
    sigma = sm.expected_score_covariance(model_obj.spec, model_obj.params, model_obj.covariates)
    config = sm.ChartConfig(sigma_s=sigma.values, r=0.1, h=payload["h"], coord_names=model_obj.params.names)
    grid = sm.StudyGrid(shift=sm.ShiftSpec("coefficient", ("beta24",), 0.0),
                        c_values=(1.0, 2.0), reps=50, chart=config, max_rl=80)
    rows = sm.run_arl_study(sm.in_control_generator(model_obj), model_obj.params, grid, seed=31)
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")][1:]
    for row, line in zip(rows, lines):
        fields = line.split(",")
        assert float(fields[3]) == row.arl.mean_rl
        assert int(fields[6]) == row.arl.censored


def test_study_rerun_deterministic(work, calibrated, tmp_path):
    root, model = work
    _, payload = calibrated
    out = tmp_path / "study_d.csv"
    argv = ["study", model, model, "--shift", "mean-odds", "--targets", "Y3",
            "--c-grid", "0.2,1.0,4.0", "--h", str(payload["h"]), "--reps", "30",
            "--max-rl", "60", "--seed", "2", "-o", str(out)]
    assert main(argv) == 0
    for threads in ("1", "2"):
        os.environ["SCORE_MEWMA_THREADS"] = threads
        try:
            out2 = tmp_path / f"study_d{threads}.csv"
            assert rerun_from_manifest(str(out), str(out2)) == 0
            assert fio.payload_bytes(str(out2)) == fio.payload_bytes(str(out))
        finally:
            del os.environ["SCORE_MEWMA_THREADS"]


def test_study_invalid_shift_exit_codes(work, tmp_path):
    root, model = work
    base = ["study", model, model, "--c-grid", "1.0", "--h", "30", "-o", str(tmp_path / "s.csv")]
    assert main(base + ["--shift", "coefficient-pair", "--targets", "beta23,beta24,gamma99"]) == 5
    assert main(base + ["--shift", "coefficient", "--targets", "gamma99"]) == 5
    assert main(base + ["--shift", "mean-additive", "--targets", "Y3", "--c-grid", "9.0"]) == 5


def test_monitor_matches_run_stream(work, calibrated, tmp_path):
    root, model = work
    _, payload = calibrated
    data_csv = root / "fitdata.csv"
    out = tmp_path / "trace.csv"
    assert run("monitor", model, model, data_csv, "--h", payload["h"], "--r", 0.1, "-o", out) == 0
    model_obj = sm.parse_model_spec(Path(model).read_text())
    sigma = sm.expected_score_covariance(model_obj.spec, model_obj.params, model_obj.covariates)
    config = sm.ChartConfig(sigma_s=sigma.values, r=0.1, h=payload["h"], coord_names=model_obj.params.names)
    data = fio.read_patient_csv(str(data_csv), model_obj.spec)
    expected = list(sm.run_stream(model_obj.spec, model_obj.params, config, data))
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")][1:]
    assert len(lines) == len(expected) == 500
    post = 0
    for line, (t, t2, signal) in zip(lines, expected):
        ft, ft2, fsig, fpost = line.split(",")
        assert int(ft) == t
        assert float(ft2) == t2  # repr round-trips exactly
        assert int(fsig) == int(signal)
        assert int(fpost) == post
        post = post or int(signal)


def test_monitor_no_signal_under_huge_h(work, tmp_path):
    root, model = work
    out = tmp_path / "quiet.csv"
    assert run("monitor", model, model, root / "fitdata.csv", "--h", 1e9, "-o", out) == 0
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")][1:]
    assert len(lines) == 500
    assert all(ln.endswith(",0,0") for ln in lines)


def test_monitor_malformed_row_stops_with_code_2(work, tmp_path):
    root, model = work
    model_obj = sm.default_delivery_model()
    cols = fio.patient_columns(model_obj.spec)
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(cols) + "\n" + ",".join(["0"] * 8) + "\n" + "0,1,x,0,0,0,0,1\n")
    out = tmp_path / "trace.csv"
    assert run("monitor", model, model, bad, "--h", 10, "-o", out) == 2
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == 2  # header plus the one good row already flushed


def test_monitor_echoes_sigma_samples_in_mc_mode_only(work, tmp_path):
    root, model = work
    big = tmp_path / "big.json"
    big.write_text(sm.serialize_model_spec(delivery_with_risk_factors(9)))  # 17 binary variables
    data_csv, big_csv = tmp_path / "few.csv", tmp_path / "big.csv"
    assert run("simulate", model, model, "--n", 5, "--seed", 2, "-o", data_csv) == 0
    assert run("simulate", big, big, "--n", 5, "--seed", 2, "-o", big_csv) == 0
    exact, mc = tmp_path / "exact.csv", tmp_path / "mc.csv"
    assert run("monitor", model, model, data_csv, "--h", 10, "--sigma-samples", 100_001, "-o", exact) == 0
    assert run("monitor", big, big, big_csv, "--h", 10, "--sigma-samples", 100_001, "-o", mc) == 0
    assert fio.read_manifest(str(exact))["config"] == {
        "h": 10.0, "r": 0.1, "warmup": 1, "covariance_mode": "exact-recursive", "sigma_s_mode": "exact",
    }
    assert fio.read_manifest(str(mc))["config"] == {
        "h": 10.0, "r": 0.1, "warmup": 1, "covariance_mode": "exact-recursive",
        "sigma_s_mode": "monte-carlo", "sigma_samples": 100_001,
    }


def test_monitor_closes_input_when_output_cannot_open(work, tmp_path):
    root, model = work
    data_csv = tmp_path / "sim.csv"
    assert run("simulate", model, model, "--n", 5, "--seed", 1, "-o", data_csv) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("monitor", model, model, data_csv, "--h", 10, "-o", tmp_path / "missing_dir" / "x.csv") == 2
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_monitor_streams_incrementally(work, tmp_path):
    root, model = work
    out = tmp_path / "live.csv"
    cols = fio.patient_columns(sm.default_delivery_model().spec)
    with subprocess.Popen(
        [sys.executable, "-m", "score_mewma", "monitor", model, model, "-",
         "--h", "1e9", "-o", str(out)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            proc.stdin.write(",".join(cols) + "\n")
            proc.stdin.write(",".join(["0"] * 8) + "\n")
            proc.stdin.flush()

            def rows_written():
                if not out.exists():
                    return 0
                return sum(
                    1 for ln in out.read_text().splitlines()
                    if ln and not ln.startswith("#") and not ln.startswith("t,")
                )

            deadline = time.time() + 15.0
            while rows_written() < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert rows_written() == 1, "first row should appear before EOF"
            proc.stdin.write(",".join(["1"] * 8) + "\n")
            proc.stdin.flush()
            deadline = time.time() + 15.0
            while rows_written() < 2 and time.time() < deadline:
                time.sleep(0.05)
            assert rows_written() == 2
            proc.stdin.close()
            assert proc.wait(timeout=15) == 0
        finally:
            proc.kill()


def test_fit_rerun_byte_identical(work, tmp_path):
    root, model = work
    out = root / "fit.json"
    out2 = tmp_path / "fit2.json"
    assert rerun_from_manifest(str(out), str(out2)) == 0
    assert fio.payload_bytes(str(out2)) == fio.payload_bytes(str(out))


def test_simulate_rerun_byte_identical(work, tmp_path):
    root, model = work
    out2 = tmp_path / "p1_again.csv"
    assert rerun_from_manifest(str(root / "p1.csv"), str(out2)) == 0
    assert fio.payload_bytes(str(out2)) == fio.payload_bytes(str(root / "p1.csv"))


def test_version_and_usage():
    assert main(["--version"]) == 0
    assert main([]) == 2
    assert main(["simulate"]) == 2


def _option_strings(parser):
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)


def test_readme_names_only_real_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert "--threads" in named
    assert sorted(named - set(_option_strings(build_parser()))) == []


def test_singular_chart_covariance_exits_2(work, tmp_path, capsys):
    root, model = work
    doc = json.loads(Path(model).read_text())
    for cov in doc["covariates"]:
        if cov["id"] == "X1":
            cov["prevalence"] = 1e-13
    rare = tmp_path / "rare_x1.json"
    rare.write_text(json.dumps(doc))
    data_csv = tmp_path / "rare.csv"
    assert run("simulate", rare, rare, "--n", 20, "-o", data_csv) == 0
    capsys.readouterr()
    assert run("monitor", rare, rare, data_csv, "--h", 10, "-o", tmp_path / "trace.csv") == 2
    assert run("calibrate", rare, rare, "--target-arl", 20, "--reps", 100, "-o", tmp_path / "cal.json") == 2
    err = capsys.readouterr().err
    assert err.count("numerically singular") == 2 and "beta11" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("h", ["inf", "nan", "0"])
def test_nonfinite_or_nonpositive_h_rejected_at_parse_time(work, tmp_path, h):
    root, model = work
    out = tmp_path / "out.csv"
    assert run("monitor", model, model, root / "fitdata.csv", "--h", h, "-o", out) == 2
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", "1.0", "--h", h, "-o", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "-0.1"])
def test_nonpositive_rel_tolerance_rejected_at_parse_time(work, tmp_path, tol):
    root, model = work
    out = tmp_path / "cal.json"
    assert run("calibrate", model, model, "--target-arl", 20, "--rel-tolerance", tol, "-o", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("target", ["inf", "nan", "1"])
def test_nonfinite_or_small_target_arl_rejected_at_parse_time(work, tmp_path, target, capsys):
    root, model = work
    out = tmp_path / "cal.json"
    assert run("calibrate", model, model, "--target-arl", target, "-o", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "target ARL must be finite and exceed 1" in err and "Traceback" not in err


def test_calibrate_max_rl_not_above_target_exits_4(work, tmp_path, capsys):
    root, model = work
    out = tmp_path / "cal.json"
    assert run("calibrate", model, model, "--target-arl", 50, "--max-rl", 40, "-o", out) == 4
    assert not out.exists()
    assert "max_rl 40 must exceed the target ARL 50" in capsys.readouterr().err


def test_negative_seed_rejected_at_parse_time(work, tmp_path, capsys):
    root, model = work
    out = tmp_path / "out"
    assert run("simulate", model, model, "--n", 10, "--seed", -1, "-o", out) == 2
    assert run("calibrate", model, model, "--target-arl", 20, "--seed", -3, "-o", out) == 2
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", "1.0", "--h", 10, "--seed", -2, "-o", out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("must be at least 0") == 3


def test_threads_env_not_an_integer_exits_2(work, tmp_path, monkeypatch, capsys):
    root, model = work
    monkeypatch.setenv("SCORE_MEWMA_THREADS", "abc")
    out = tmp_path / "study.csv"
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", "1.0", "--h", 10, "--reps", 20, "--max-rl", 50, "-o", out) == 2
    err = capsys.readouterr().err
    assert "SCORE_MEWMA_THREADS" in err and "'abc'" in err
    assert "Traceback" not in err


def test_too_many_threads_exit_2_before_any_worker_starts(work, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(sm.mc, "worker_pool", forbidden)
    root, model = work
    out = tmp_path / "out"
    study = ("study", model, model, "--shift", "coefficient", "--targets", "beta24",
             "--c-grid", "1.0,1.5", "--h", 10, "--reps", 20, "--max-rl", 50)
    assert run("calibrate", model, model, "--target-arl", 20, "--threads", 10_000, "-o", out) == 2
    assert run(*study, "--threads", 65, "-o", out) == 2
    assert capsys.readouterr().err.count("must be at most 64") == 2
    monkeypatch.setenv("SCORE_MEWMA_THREADS", "65")
    assert run(*study, "-o", out) == 2
    err = capsys.readouterr().err
    assert "SCORE_MEWMA_THREADS must be an integer from 0 to 64, got '65'" in err and "Traceback" not in err
    assert not out.exists()


def test_max_rl_beyond_the_bound_exits_2(work, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a simulation was started")

    monkeypatch.setattr(sm.mc, "_CompiledSim", forbidden)
    root, model = work
    out = tmp_path / "out"
    assert run("calibrate", model, model, "--target-arl", 20, "--max-rl", 10**12, "-o", out) == 2
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", "1.0", "--h", 10, "--max-rl", 10_000_001, "-o", out) == 2
    assert capsys.readouterr().err.count("must be at most 10000000") == 2
    assert run("calibrate", model, model, "--target-arl", 500_001, "-o", out) == 2
    err = capsys.readouterr().err
    assert "--max-rl" in err and "Traceback" not in err
    assert not out.exists()


def test_negative_threads_and_few_sigma_samples_rejected_at_parse_time(work, tmp_path, capsys):
    root, model = work
    out = tmp_path / "cal.json"
    assert run("calibrate", model, model, "--target-arl", 20, "--threads", -4, "-o", out) == 2
    assert run("calibrate", model, model, "--target-arl", 20, "--sigma-samples", 10, "-o", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "must be at least 0" in err and "must be at least 100000" in err


def test_sigma_samples_above_the_bound_rejected_at_parse_time(work, tmp_path, capsys):
    """Each sample costs the Monte Carlo Sigma_S hundreds of bytes, so a huge
    count ends at parse time, not in numpy's failed allocation."""
    root, model = work
    out = tmp_path / "trace.csv"
    assert run("monitor", model, model, "-", "--h", 10, "--sigma-samples", 10**7 + 1, "-o", out) == 2
    assert run("monitor", model, model, "-", "--h", 10, "--sigma-samples", 10**9, "-o", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("argument --sigma-samples: must be at most 10000000") == 2 and "Traceback" not in err


def test_simulate_n_above_the_bound_rejected_at_parse_time(work, tmp_path, monkeypatch, capsys):
    """Each patient costs the draw tens of bytes, so a huge --n ends at
    parse time, not in numpy's failed allocation."""
    def forbidden(*args, **kwargs):
        raise AssertionError("patients were drawn")

    monkeypatch.setattr(sm.cli, "sample_patients", forbidden)
    root, model = work
    out = tmp_path / "patients.csv"
    assert run("simulate", model, model, "--n", 10**7 + 1, "-o", out) == 2
    assert run("simulate", model, model, "--n", 10**13, "-o", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("argument --n: must be at most 10000000") == 2 and "Traceback" not in err


def _rounded_trace_digest(path):
    """SHA-256 of a monitor trace body with t2 to 10 significant digits."""
    lines = fio.payload_bytes(str(path)).decode().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        t, t2, signal, post = line.split(",")
        rows.append(f"{t},{float(t2):.10g},{signal},{post}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_monitor_trace_is_pinned(work, tmp_path):
    """A fixed simulated CSV's monitor trace: a change to parsing, scoring,
    smoothing or T2 fails here. t2 is compared to 10 significant digits, as
    its last bits follow the BLAS kernel's summation order: OpenBLAS's
    SkylakeX, Haswell, Sandybridge, Nehalem and Prescott kernels give five
    different trace bytes, up to 2e-15 apart relative, and this one digest."""
    root, model = work
    data_csv, out = tmp_path / "pinned.csv", tmp_path / "pinned_trace.csv"
    assert run("simulate", model, model, "--n", 300, "--seed", 2020, "-o", data_csv) == 0
    assert run("monitor", model, model, data_csv, "--h", 12, "--r", 0.05, "-o", out) == 0
    signals = [ln.split(",")[2] for ln in fio.payload_bytes(str(out)).decode().splitlines()[1:]]
    assert 0 < signals.count("1") < len(signals) == 300
    assert _rounded_trace_digest(out) == "0394b69455f02c744f4b520dc4211576e71f9fd04934a15e405b28709792526d"


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_monitor_to_a_closed_pipe_exits_141_quietly(work, tmp_path, monkeypatch, capsys):
    root, model = work
    data_csv = tmp_path / "sim.csv"
    assert run("simulate", model, model, "--n", 5, "-o", data_csv) == 0
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run("monitor", model, model, data_csv, "--h", 10, "-o", "-") == EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


def test_monitor_piped_into_a_reader_that_stops_early(work, tmp_path):
    root, model = work
    cols = fio.patient_columns(sm.default_delivery_model().spec)
    data_csv = tmp_path / "long.csv"
    # far more trace than a pipe buffers, so the monitor is still writing when the reader stops
    data_csv.write_text(",".join(cols) + "\n" + (",".join(["0"] * len(cols)) + "\n") * 20_000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "score_mewma", "monitor", model, model, str(data_csv), "--h", "1e9", "-o", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert head[1] == "t,t2,signal,post_signal\n" and head[2].startswith("1,")
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.stderr.close()


def _children(pid: int) -> set[int]:
    """Pids of the processes whose parent is pid, read from /proc."""
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while it was read
        if int(fields[1]) == pid:
            found.add(int(stat.parent.name))
    return found


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_interrupted_study_exits_130_and_stops_its_workers(work, tmp_path):
    """Ctrl-C reaches the whole process group: the workers ignore it, and
    the CLI prints one line, stops its workers and exits 130."""
    if multiprocessing.get_all_start_methods()[0] != "fork" or not Path("/proc/self/stat").is_file():
        pytest.skip("needs forked workers and /proc")
    root, model = work
    proc = subprocess.Popen(
        [sys.executable, "-m", "score_mewma", "study", model, model, "--shift", "coefficient", "--targets",
         "beta24", "--c-grid", "0:3:0.01", "--h", "40", "--reps", "2000", "--threads", "2",
         "-o", str(tmp_path / "study.csv")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(workers := _children(proc.pid)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "the study started no workers"
            time.sleep(0.02)
        time.sleep(0.2)  # into the rows
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 130
    assert "Traceback" not in err and err == "score-mewma: interrupted\n", err
    assert out == "" and not (tmp_path / "study.csv").exists()
    deadline = time.monotonic() + 10  # time for an orphan that has ended to be reaped
    while any(_running(pid) for pid in workers):
        assert time.monotonic() < deadline, f"workers {workers} outlived the interrupted study"
        time.sleep(0.05)


def test_directory_as_input_or_output_exits_2(work, tmp_path, capsys):
    root, model = work
    data_csv = tmp_path / "sim.csv"
    assert run("simulate", model, model, "--n", 5, "-o", data_csv) == 0
    assert run("monitor", model, model, tmp_path, "--h", 10, "-o", tmp_path / "trace.csv") == 2
    assert run("fit", model, tmp_path, "-o", tmp_path / "fit.json") == 2
    assert run("monitor", model, model, data_csv, "--h", 10, "-o", tmp_path) == 2
    assert run("simulate", model, model, "--n", 5, "-o", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count(f"{tmp_path}: Is a directory") == 4
    assert "Traceback" not in err


@pytest.mark.parametrize("r", ["0", "1.5", "nan", "-0.1"])
def test_smoothing_outside_unit_interval_rejected_at_parse_time(work, tmp_path, r, capsys):
    root, model = work
    out = tmp_path / "out.csv"
    assert run("monitor", model, model, "-", "--h", 10, "--r", r, "-o", out) == 2
    assert run("calibrate", model, model, "--target-arl", 20, "--r", r, "-o", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("argument --r: smoothing weight must lie in (0, 1]") == 2


@pytest.mark.parametrize("below", [False, True], ids=["at-floor", "below-floor"])
def test_smoothing_floor_at_parse_time(work, tmp_path, capsys, below):
    """At r = 1e-6 monitor writes finite T2 and study and calibrate run; just
    below it each command exits 2 at parse time and writes nothing."""
    root, model = work
    r = repr(float(np.nextafter(1e-6, 0.0))) if below else "1e-6"
    data_csv = tmp_path / "sim.csv"
    assert run("simulate", model, model, "--n", 5, "--seed", 1, "-o", data_csv) == 0
    outs = {cmd: tmp_path / f"{cmd}.out" for cmd in ("monitor", "study", "calibrate")}
    codes = [
        run("monitor", model, model, data_csv, "--h", 30, "--r", r, "-o", outs["monitor"]),
        run("study", model, model, "--shift", "coefficient", "--targets", "beta24", "--c-grid", "1.0", "--h", 30,
            "--r", r, "--reps", 20, "--max-rl", 50, "-o", outs["study"]),
        run("calibrate", model, model, "--target-arl", 15, "--reps", 600, "--r", r, "--seed", 5,
            "--max-rl", 300, "-o", outs["calibrate"]),
    ]
    err = capsys.readouterr().err
    if below:
        assert codes == [2, 2, 2] and not any(out.exists() for out in outs.values())
        assert err.count("argument --r: smoothing weight must lie in (0, 1] and be at least 1e-06") == 3
        return
    assert codes == [0, 0, 0], err
    rows = [ln.split(",") for ln in outs["monitor"].read_text().splitlines() if ln and not ln.startswith("#")][1:]
    assert len(rows) == 5 and all(0.0 <= float(row[1]) < 30.0 for row in rows)
    study = [ln.split(",") for ln in outs["study"].read_text().splitlines() if ln and not ln.startswith("#")][1:]
    assert len(study) == 1 and int(study[0][6]) < 20
    assert math.isfinite(fio.read_json_report(str(outs["calibrate"]))["payload"]["h"])


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--target-arl", "abc"],
        ["calibrate", "--target-arl", "20", "--rel-tolerance", "abc"],
        ["calibrate", "--target-arl", "20", "--r", "abc"],
        ["study", "--shift", "coefficient", "--targets", "beta24", "--c-grid", "1.0", "--h", "abc"],
        ["monitor", "patients.csv", "--h", "abc"],
    ],
    ids=["target-arl", "rel-tolerance", "r", "study-h", "monitor-h"],
)
def test_float_options_name_the_float_type(work, tmp_path, argv, capsys):
    root, model = work
    command, *options = argv
    assert run(command, model, model, *options, "-o", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "invalid float value: 'abc'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: doc.update(covariates=[1]), "covariates must be a list of objects"),
        (lambda doc: doc.update(covariates=5), "covariates must be a list of objects"),
        (lambda doc: doc.update(nodes=[7]), "nodes must be a list of objects"),
        (lambda doc: doc["nodes"][0].update(process_parents=5), "node Y1: process_parents must be a list"),
        (lambda doc: doc["covariates"][0].update(prevalence="x"), "covariate 'X1': prevalence must be a number"),
        (lambda doc: doc["nodes"][0]["intercept"].update(value="x"), "node Y1: intercept value must be a number"),
        (
            lambda doc: doc["nodes"][0]["process_parents"][0].update(value="x"),
            "node Y1: process_parents value of 'beta11' must be a number",
        ),
        (lambda doc: doc.update(metadata=5), "metadata must be an object"),
    ],
    ids=["covariate-entry", "covariates-not-a-list", "node-entry", "parents-not-a-list", "prevalence",
         "intercept-value", "parent-value", "metadata"],
)
def test_malformed_model_config_exits_2(work, tmp_path, edit, named, capsys):
    root, model = work
    doc = json.loads(Path(model).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("simulate", bad, model, "--n", 5, "-o", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("score-mewma: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", ["x", None], ids=["text", "null"])
def test_non_numeric_params_value_exits_2(work, tmp_path, value, capsys):
    root, model = work
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": {"alpha1": value}}))
    assert run("simulate", model, params, "--n", 5, "-o", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert f"{params}: coefficient 'alpha1' must be a number" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: doc["nodes"][0]["intercept"].update(value=True), "node Y1: intercept value must be a number"),
        (lambda doc: doc["covariates"][0].update(prevalence=False), "covariate 'X1': prevalence must be a number"),
    ],
    ids=["intercept-true", "prevalence-false"],
)
def test_boolean_model_value_exits_2(work, tmp_path, edit, named, capsys):
    """JSON true and false are not read as 1 and 0."""
    root, model = work
    doc = json.loads(Path(model).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(sm.ModelConfigError, match=named):
        sm.model_from_dict(doc)
    assert run("simulate", bad, model, "--n", 5, "-o", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err and not (tmp_path / "out.csv").exists()


def _params_with_true_alpha1():
    values = sm.default_delivery_model().params.as_dict()
    values["alpha1"] = True
    return values


def _model_with_true_intercept():
    doc = json.loads(sm.serialize_model_spec(sm.default_delivery_model()))
    doc["nodes"][0]["intercept"]["value"] = True
    return doc


@pytest.mark.parametrize(
    "make_doc, named",
    [
        (lambda: {"params": _params_with_true_alpha1()}, "coefficient 'alpha1' must be a number, got True"),
        (_params_with_true_alpha1, "coefficient 'alpha1' must be a number, got True"),
        (_model_with_true_intercept, "node Y1: intercept value must be a number, got True"),
    ],
    ids=["params-map", "flat-map", "model-config"],
)
def test_boolean_params_value_exits_2(work, tmp_path, make_doc, named, capsys):
    root, model = work
    params = tmp_path / "params.json"
    params.write_text(json.dumps(make_doc()))
    with pytest.raises(sm.DataFormatError, match=f"{params}: {named}"):
        fio.load_params_file(str(params), sm.default_delivery_model().spec)
    assert run("simulate", model, params, "--n", 5, "-o", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert f"{params}: {named}" in err and "Traceback" not in err


@pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:1", "inf:inf:1", "0:1:nan", "0:1e300:1e-300"])
def test_non_finite_c_grid_range_exits_2(work, tmp_path, grid, capsys):
    root, model = work
    out = tmp_path / "s.csv"
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", grid, "--h", 30, "-o", out) == 2
    err = capsys.readouterr().err
    assert f"bad c grid {grid!r}" in err and "Traceback" not in err
    assert not out.exists()


def test_oversized_c_grid_range_exits_2_at_once(work, tmp_path, capsys):
    root, model = work
    out = tmp_path / "s.csv"
    start = time.perf_counter()
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", "0:1e12:1", "--h", 30, "-o", out) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"bad c grid '0:1e12:1': 1000000000001 points, more than {fio.MAX_C_GRID}" in err
    assert "Traceback" not in err and not out.exists()


def test_oversized_c_grid_list_exits_2(work, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a simulation was started")

    monkeypatch.setattr(sm.mc, "_CompiledSim", forbidden)
    root, model = work
    out = tmp_path / "s.csv"
    grid = ",".join(["1.0"] * 20_001)
    assert run("study", model, model, "--shift", "coefficient", "--targets", "beta24",
               "--c-grid", grid, "--h", 30, "-o", out) == 2
    err = capsys.readouterr().err
    assert f"bad c grid: a list of 20001 points, more than {fio.MAX_C_GRID}" in err
    assert "Traceback" not in err and not out.exists()


_NON_FINITE = [float("inf"), float("nan"), "inf", "-inf", "nan"]
_NON_FINITE_IDS = ["Infinity", "NaN", "text-inf", "text-minus-inf", "text-nan"]


@pytest.mark.parametrize("value", _NON_FINITE, ids=_NON_FINITE_IDS)
@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc, v: doc["nodes"][1]["intercept"].update(value=v), "node Y2: intercept value must be finite"),
        (
            lambda doc, v: doc["nodes"][0]["process_parents"][0].update(value=v),
            "node Y1: process_parents value of 'beta11' must be finite",
        ),
        (lambda doc, v: doc["covariates"][0].update(prevalence=v), "covariate 'X1': prevalence must be finite"),
    ],
    ids=["intercept", "parent", "prevalence"],
)
def test_non_finite_model_value_exits_2(work, tmp_path, edit, named, value, capsys):
    """json.dumps writes inf and nan as JSON Infinity and NaN, which json.load reads back."""
    root, model = work
    data = tmp_path / "patients.csv"
    assert run("simulate", model, model, "--n", 20, "-o", data) == 0
    doc = json.loads(Path(model).read_text())
    edit(doc, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("simulate", bad, model, "--n", 5, "-o", tmp_path / "out.csv") == 2
    assert run("monitor", bad, model, data, "--h", 10, "-o", tmp_path / "trace.csv") == 2
    err = capsys.readouterr().err
    assert err.count(named) == 2 and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("value", _NON_FINITE, ids=_NON_FINITE_IDS)
def test_non_finite_params_value_exits_2(work, tmp_path, value, capsys):
    root, model = work
    data = tmp_path / "patients.csv"
    assert run("simulate", model, model, "--n", 20, "-o", data) == 0
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": {"alpha2": value}}))
    capsys.readouterr()
    assert run("simulate", model, params, "--n", 5, "-o", tmp_path / "out.csv") == 2
    assert run("monitor", model, params, data, "--h", 10, "-o", tmp_path / "trace.csv") == 2
    err = capsys.readouterr().err
    assert err.count(f"{params}: coefficient 'alpha2' must be finite") == 2 and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "trace.csv").exists()
