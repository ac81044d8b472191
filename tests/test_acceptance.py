"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
chart configuration used for the run-length criteria (smoothing 0.02, exact
recursive covariance, warmup 1) is fixed here and reused across criteria;
the control limit comes from one calibration at target ARL 200.
"""

import contextlib
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

import score_mewma as sm
from score_mewma import io as fio
from score_mewma.cli import main as cli_main
from score_mewma.cli import rerun_from_manifest

from conftest import fd_gradient, fd_hessian, oracle_enumerate

R_CHART = 0.02
TARGET = 200.0
MAX_RL = 4000


@contextlib.contextmanager
def criterion(num, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL ({time.time() - start:6.1f}s)  {title}")
        raise
    print(f"\nACCEPTANCE {num:2d} PASS ({time.time() - start:6.1f}s)  {title}")


@pytest.fixture(scope="module")
def model():
    return sm.default_delivery_model()


@pytest.fixture(scope="module")
def sigma_s(model):
    return sm.expected_score_covariance(model.spec, model.params, model.covariates).values


@pytest.fixture(scope="module")
def chart(model, sigma_s):
    return sm.ChartConfig(sigma_s=sigma_s, r=R_CHART, coord_names=model.params.names)


@pytest.fixture(scope="module")
def calibrated(model, chart):
    gen = sm.in_control_generator(model)
    start = time.time()
    result = sm.calibrate_h(
        gen,
        model.params,
        chart,
        target_arl=TARGET,
        reps_schedule=(1000, 5000, 20000),
        seed=2024,
        max_rl=MAX_RL,
    )
    return result, time.time() - start


def test_criterion_1_score_and_hessian(model):
    with criterion(1, "score matches FD gradient; information matches negated FD Hessian"):
        spec, params = model.spec, model.params
        gen = sm.in_control_generator(model)
        rng = np.random.default_rng(101)
        elapsed = time.time()
        for trial in range(50):
            data = sm.sample_patients(gen, 40, 1000 + trial)
            theta = params.values + rng.normal(0.0, 0.35, len(params))
            fun = lambda th: sm.log_likelihood(spec, params.with_values(th), data)
            s = sm.score(spec, params.with_values(theta), data)
            g = fd_gradient(fun, theta, step=1e-6)
            assert np.max(np.abs(s - g)) / np.max(np.abs(g)) < 1e-5
            info = sm.fisher_information(spec, params.with_values(theta), data)
            hess = fd_hessian(fun, theta, step=1e-4)
            assert np.max(np.abs(info + hess)) / np.max(np.abs(info)) < 1e-5
        assert time.time() - elapsed < 60.0


def test_criterion_2_generator_matches_enumeration(model):
    with criterion(2, "ancestral sampler matches exact enumeration (chi-square, 5 seeds)"):
        spec, params, covs = model.spec, model.params, model.covariates
        records, probs = oracle_enumerate(spec, params, covs)
        nx, nz, nv = len(spec.process_ids), len(spec.risk_ids), spec.n_nodes
        weights = 2 ** np.arange(nx + nz + nv)

        def code(x, z, y):
            bits = np.concatenate([x, z, y], axis=-1).astype(np.int64)
            return bits @ weights

        cell_codes = np.array([code(r.x, r.z, r.y) for r in records])
        order = np.argsort(cell_codes)
        cell_probs = probs[order]
        n = 100_000
        gen = sm.in_control_generator(model)
        start = time.time()
        for seed in range(5):
            data = sm.sample_patients(gen, n, 20_000 + seed)
            codes = code(data.x, data.z, data.y)
            counts = np.bincount(codes, minlength=len(cell_probs)).astype(float)
            expected = cell_probs * n
            # merge sparse cells so the chi-square approximation is valid
            big = expected >= 5.0
            f_obs = np.append(counts[big], counts[~big].sum())
            f_exp = np.append(expected[big], expected[~big].sum())
            f_exp *= f_obs.sum() / f_exp.sum()
            stat, pval = stats.chisquare(f_obs, f_exp)
            assert pval > 0.001, f"seed {seed}: chi-square rejected (p={pval:.5f})"
        assert time.time() - start < 60.0


def test_criterion_3_score_covariance_law(model, sigma_s, monkeypatch):
    with criterion(3, "sample score covariance matches expected; exact agrees with Monte Carlo"):
        start = time.time()
        gen = sm.in_control_generator(model)
        n = 100_000
        data = sm.sample_patients(gen, n, 30_001)
        scores = sm.per_record_scores(model.spec, model.params, data)
        sample_cov = np.cov(scores, rowvar=False)
        prod = scores[:, :, None] * scores[:, None, :]
        se = prod.std(axis=0, ddof=1) / math.sqrt(n)
        gap = np.abs(sample_cov - sigma_s)
        assert np.all(gap <= 3.0 * se + 1e-12), f"max z = {np.max(gap / se):.2f}"

        monkeypatch.setattr(sm.model, "ENUM_LIMIT", 0)
        mc = sm.expected_score_covariance(
            model.spec, model.params, model.covariates, mc_samples=100_000, seed=30_002
        )
        gap2 = np.abs(mc.values - sigma_s)
        assert np.all(gap2 <= 3.0 * mc.mc_se + 1e-12), f"max z = {np.max(gap2 / mc.mc_se):.2f}"
        assert time.time() - start < 120.0


@pytest.mark.parametrize("r", [0.05, 0.1, 0.3, 1.0])
def test_criterion_4_covariance_identity(model, sigma_s, r):
    with criterion(4, f"exact-recursive covariance equals closed form up to t=1e4 (r={r})"):
        rr = r * r
        qq = (1.0 - r) * (1.0 - r)
        sigma_t = np.zeros_like(sigma_s)
        scale = np.max(np.abs(sigma_s))
        worst = 0.0
        for t in range(1, 10_001):
            sigma_t = rr * sigma_s + qq * sigma_t
            factor = r * (1.0 - (1.0 - r) ** (2 * t)) / (2.0 - r)
            err = np.max(np.abs(sigma_t - factor * sigma_s)) / (factor * scale)
            worst = max(worst, err)
        assert worst < 1e-12, f"max relative error {worst:.3e}"
        # the same identity through the chart's update path at a few t
        config = sm.ChartConfig(sigma_s=sigma_s, r=r, h=1e15)
        state = sm.init_state(config)
        for t in range(1, 101):
            state, _, _ = sm.update(state, np.zeros(config.p))
            closed = sm.sigma_w_closed_form(t, r, sigma_s)
            assert np.max(np.abs(state.sigma_w - closed)) / np.max(np.abs(closed)) < 1e-12


def test_criterion_5_in_control_arl(model, chart, calibrated):
    with criterion(5, "calibrated limit reproduces in-control ARL 200 within 5 percent"):
        result, cal_seconds = calibrated
        gen = sm.in_control_generator(model)
        start = time.time()
        re_est = sm.estimate_arl(
            gen, model.params, chart.with_h(result.h), reps=10_000, max_rl=MAX_RL, seed=777
        )
        elapsed = cal_seconds + (time.time() - start)
        assert abs(re_est.mean_rl - TARGET) / TARGET < 0.05, (
            f"h={result.h:.3f} gave ARL {re_est.mean_rl:.1f}"
        )
        assert elapsed < 300.0, f"calibration plus re-estimate took {elapsed:.0f}s"


def test_criterion_6_shift_monotonicity_and_ordering(model, chart, calibrated):
    with criterion(6, "coefficient-shift ARLs fall with c; beta24 detected before beta23 for c>=2"):
        result, _ = calibrated
        gen = sm.in_control_generator(model)
        config = chart.with_h(result.h)
        start = time.time()
        arls = {}
        for target in ("beta23", "beta24"):
            grid = sm.StudyGrid(
                shift=sm.ShiftSpec("coefficient", (target,), 0.0),
                c_values=(1.0, 2.0, 3.0, 4.0),
                reps=2000,
                chart=config,
                max_rl=MAX_RL,
            )
            arls[target] = sm.run_arl_study(gen, model.params, grid, seed=4001)
        for target in ("beta23", "beta24"):
            rows = arls[target]
            for a, b in zip(rows, rows[1:]):
                slack = 3.0 * math.hypot(a.arl.std_error, b.arl.std_error)
                assert b.arl.mean_rl <= a.arl.mean_rl + slack, (
                    f"{target}: ARL rose from c={a.c} to c={b.c}"
                )
        for i, c in enumerate((1.0, 2.0, 3.0, 4.0)):
            if c >= 2.0:
                a24 = arls["beta24"][i].arl.mean_rl
                a23 = arls["beta23"][i].arl.mean_rl
                assert a24 < a23, f"c={c}: beta24 ARL {a24:.1f} not below beta23 ARL {a23:.1f}"
        assert time.time() - start < 600.0


def test_criterion_7_pair_shift_dominance(model, chart, calibrated):
    with criterion(7, "simultaneous (beta23, beta24) shifts detected at least as fast as beta24 alone"):
        result, _ = calibrated
        gen = sm.in_control_generator(model)
        config = chart.with_h(result.h)
        start = time.time()
        rows = sm.run_pair_study(
            gen,
            model.params,
            [("beta23", "beta24")],
            (1.0, 2.0, 3.0),
            reps=2000,
            chart=config,
            max_rl=MAX_RL,
            seed=4002,
        )
        pair = {r.c: r.arl for r in rows if r.shift_kind == "coefficient-pair"}
        solo = {r.c: r.arl for r in rows if r.targets == ("beta24",)}
        for c in (1.0, 2.0, 3.0):
            slack = 3.0 * math.hypot(pair[c].std_error, solo[c].std_error)
            assert pair[c].mean_rl <= solo[c].mean_rl + slack, (
                f"c={c}: pair ARL {pair[c].mean_rl:.1f} above beta24-only {solo[c].mean_rl:.1f}"
            )
        assert time.time() - start < 600.0


def test_criterion_8_mean_shift_charts(model, chart, calibrated):
    with criterion(8, "mean shifts on Y3: ARL falls with magnitude; null cases recover ARL 200"):
        result, _ = calibrated
        gen = sm.in_control_generator(model)
        config = chart.with_h(result.h)
        grids = {
            "mean-additive": (0.0, 0.4, 1.0, 2.0, 4.0),
            "mean-odds": (1.0, 1.4, 2.0, 3.0, 5.0),
        }
        null_c = {"mean-additive": 0.0, "mean-odds": 1.0}
        in_control = sm.estimate_arl(
            gen, model.params, config, reps=4000, max_rl=MAX_RL, seed=4009
        )
        for kind, c_values in grids.items():
            grid = sm.StudyGrid(
                shift=sm.ShiftSpec(kind, ("Y3",), null_c[kind]),
                c_values=c_values,
                reps=2000,
                chart=config,
                max_rl=MAX_RL,
            )
            rows = sm.run_arl_study(gen, model.params, grid, seed=4003)
            for a, b in zip(rows, rows[1:]):
                slack = 3.0 * math.hypot(a.arl.std_error, b.arl.std_error)
                assert b.arl.mean_rl < a.arl.mean_rl + slack, (
                    f"{kind}: ARL did not fall from c={a.c} to c={b.c}"
                )
            null_row = rows[0].arl
            gap = abs(null_row.mean_rl - in_control.mean_rl)
            slack = 3.0 * math.hypot(null_row.std_error, in_control.std_error)
            assert gap <= slack, f"{kind} null case off by {gap:.1f} (allowed {slack:.1f})"


def test_criterion_9_mle_recovery(model):
    with criterion(9, "MLE on 5000 simulated patients recovers every slope (>=18/20 seeds)"):
        gen = sm.in_control_generator(model)
        slopes = [n for n in model.params.names if not n.startswith("alpha")]
        hits = {name: 0 for name in slopes}
        n_seeds = 20
        for seed in range(n_seeds):
            data = sm.sample_patients(gen, 5000, 50_000 + seed)
            fit = sm.fit_mle(model.spec, data, params_init=model.params)
            for name in slopes:
                err = abs(fit.params[name] - model.params[name])
                if err <= 3.0 * fit.std_error(name):
                    hits[name] += 1
        for name, count in hits.items():
            assert count >= 18, f"{name}: only {count}/{n_seeds} within 3 estimated SEs"


def test_criterion_10_cli_determinism(tmp_path, model):
    with criterion(10, "every command re-runs bit-identically from its manifest, any thread count"):
        model_path = tmp_path / "model.json"
        model_path.write_text(sm.serialize_model_spec(model))
        mp = str(model_path)

        outputs = {}
        assert cli_main(["simulate", mp, mp, "--n", "300", "--seed", "6", "-o", str(tmp_path / "sim.csv")]) == 0
        outputs["simulate"] = tmp_path / "sim.csv"
        assert cli_main(["fit", mp, str(tmp_path / "sim.csv"), "-o", str(tmp_path / "fit.json")]) == 0
        outputs["fit"] = tmp_path / "fit.json"
        assert (
            cli_main(
                ["calibrate", mp, mp, "--target-arl", "15", "--reps", "600", "--max-rl", "300",
                 "--seed", "7", "-o", str(tmp_path / "cal.json")]
            )
            == 0
        )
        outputs["calibrate"] = tmp_path / "cal.json"
        h = str(fio.read_json_report(str(tmp_path / "cal.json"))["payload"]["h"])
        assert (
            cli_main(
                ["study", mp, mp, "--shift", "coefficient", "--targets", "beta24", "--c-grid",
                 "1.0,2.0", "--h", h, "--reps", "200", "--max-rl", "200", "--seed", "8",
                 "-o", str(tmp_path / "study.csv")]
            )
            == 0
        )
        outputs["study"] = tmp_path / "study.csv"
        assert (
            cli_main(["monitor", mp, mp, str(tmp_path / "sim.csv"), "--h", h,
                      "-o", str(tmp_path / "trace.csv")])
            == 0
        )
        outputs["monitor"] = tmp_path / "trace.csv"

        for name, path in outputs.items():
            reference = fio.payload_bytes(str(path))
            for threads in ("1", "2"):
                os.environ["SCORE_MEWMA_THREADS"] = threads
                try:
                    again = tmp_path / f"{name}_rerun_{threads}{path.suffix}"
                    assert rerun_from_manifest(str(path), str(again)) == 0
                    assert fio.payload_bytes(str(again)) == reference, (
                        f"{name}: payload changed with SCORE_MEWMA_THREADS={threads}"
                    )
                finally:
                    del os.environ["SCORE_MEWMA_THREADS"]
