import numpy as np
import pytest

import score_mewma as sm
from score_mewma.mc import simulate_run_lengths

from conftest import oracle_enumerate


@pytest.fixture(scope="module")
def chart(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    return sm.ChartConfig(sigma_s=sigma, r=0.1, h=40.0)


def test_replication_streams_are_stable():
    a = sm.replication_rng(42, 7).random(5)
    b = sm.replication_rng(42, 7).random(5)
    c = sm.replication_rng(42, 8).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_patients_deterministic_extremes(delivery):
    ones = sm.CovariateModel({k: 1.0 for k in delivery.covariates.prevalence})
    gen = sm.PatientGenerator(delivery.spec, delivery.params, ones)
    data = sm.sample_patients(gen, 25, 0)
    assert np.all(data.x == 1) and np.all(data.z == 1)

    muted = delivery.params.replace({n.intercept_name: -50.0 for n in delivery.spec.nodes})
    gen = sm.PatientGenerator(delivery.spec, muted, delivery.covariates)
    data = sm.sample_patients(gen, 4000, 1)
    assert np.all(data.y == 0)


def test_sampler_marginals_match_enumeration(delivery):
    gen = sm.in_control_generator(delivery)
    n = 100_000
    data = sm.sample_patients(gen, n, 123)
    records, probs = oracle_enumerate(delivery.spec, delivery.params, delivery.covariates)
    for vi, node in enumerate(delivery.spec.nodes):
        p_true = sum(p for r, p in zip(records, probs) if r.y[vi] == 1)
        p_hat = float((data.y[:, vi] == 1).mean())
        se = np.sqrt(p_true * (1 - p_true) / n)
        assert abs(p_hat - p_true) < 4.0 * se


def test_run_lengths_deterministic_and_thread_independent(delivery, chart):
    gen = sm.in_control_generator(delivery)
    kw = dict(reps=600, max_rl=300, seed=17)
    a = simulate_run_lengths(gen, delivery.params, chart, threads=1, **kw)
    b = simulate_run_lengths(gen, delivery.params, chart, threads=2, **kw)
    c = simulate_run_lengths(gen, delivery.params, chart, threads=1, **kw)
    np.testing.assert_array_equal(a.run_lengths, b.run_lengths)
    np.testing.assert_array_equal(a.run_lengths, c.run_lengths)
    np.testing.assert_array_equal(a.resolved, b.resolved)


def test_kernel_matches_reference_stream(delivery, chart):
    """The vectorized kernel and the per-record reference path must agree."""
    gen = sm.in_control_generator(delivery)
    max_rl = 250
    sample = simulate_run_lengths(gen, delivery.params, chart, reps=6, max_rl=max_rl, seed=99, track_records=True)
    for rep in range(6):
        # one draw of max_rl rows reads the uniforms the kernel reads BUF rows at a time
        data = sm.sample_patients(gen, max_rl, sm.replication_rng(99, rep))
        trace = list(sm.run_stream(delivery.spec, delivery.params, chart, data))
        # first signal time matches the kernel's run length
        signals = [t for t, _, sig in trace if sig]
        expected = signals[0] if signals else max_rl
        assert sample.run_lengths[rep] == expected
        # record highs of the reference t2 path equal the kernel staircase
        times, values = sample.staircases[rep]
        best, refs = -np.inf, []
        for t, t2, _ in trace:
            if t2 > best:
                refs.append((t, t2))
                best = t2
            if best > sample.cap:
                break
        ref_times = np.array([t for t, _ in refs])
        ref_vals = np.array([v for _, v in refs])
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_allclose(values, ref_vals, rtol=1e-9)


def test_kernel_unequal_r_matches_reference(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    r = tuple(np.linspace(0.05, 0.6, 17))
    config = sm.ChartConfig(sigma_s=sigma, r=r, h=60.0)
    gen = sm.in_control_generator(delivery)
    max_rl = 200
    sample = simulate_run_lengths(gen, delivery.params, config, reps=4, max_rl=max_rl, seed=5)
    for rep in range(4):
        data = sm.sample_patients(gen, max_rl, sm.replication_rng(5, rep))
        signals = [t for t, _, sig in sm.run_stream(delivery.spec, delivery.params, config, data) if sig]
        assert sample.run_lengths[rep] == (signals[0] if signals else max_rl)


def test_at_limit_equals_direct_simulation(delivery, chart):
    gen = sm.in_control_generator(delivery)
    tracked = simulate_run_lengths(
        gen, delivery.params, chart, reps=500, max_rl=400, seed=3, cap=80.0, track_records=True
    )
    for h in (20.0, 40.0, 60.0):
        direct = simulate_run_lengths(gen, delivery.params, chart, reps=500, max_rl=400, seed=3, cap=h)
        rl, resolved = tracked.at_limit(h)
        np.testing.assert_array_equal(rl, direct.run_lengths)
        np.testing.assert_array_equal(resolved, direct.resolved)
    with pytest.raises(sm.ModelConfigError):
        tracked.at_limit(81.0)


def test_warmup_defers_resolution(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=1e-9, warmup=5)
    gen = sm.in_control_generator(delivery)
    sample = simulate_run_lengths(gen, delivery.params, config, reps=50, max_rl=100, seed=1)
    assert np.all(sample.run_lengths == 5)


def test_resolve_threads_env(monkeypatch):
    monkeypatch.setenv("SCORE_MEWMA_THREADS", "3")
    assert sm.resolve_threads() == 3
    monkeypatch.setenv("SCORE_MEWMA_THREADS", "0")
    assert sm.resolve_threads() >= 1
    monkeypatch.delenv("SCORE_MEWMA_THREADS")
    assert sm.resolve_threads(2) == 2


def test_resolve_threads_rejects_bad_counts(monkeypatch):
    with pytest.raises(sm.ModelConfigError, match="non-negative"):
        sm.resolve_threads(-4)
    for raw in ("abc", "-2", "1.5"):
        monkeypatch.setenv("SCORE_MEWMA_THREADS", raw)
        with pytest.raises(sm.ModelConfigError, match="SCORE_MEWMA_THREADS"):
            sm.resolve_threads()


@pytest.mark.parametrize(
    "shift", [sm.ShiftSpec("coefficient", ("beta24",), 0.5), sm.ShiftSpec("mean-odds", ("Y3",), 2.0)]
)
def test_kernel_under_shift_matches_reference_stream(delivery, chart, shift):
    """Under a shifted generator the kernel scores at the in-control params:
    its run lengths and staircases equal run_stream over the same patients."""
    gen = sm.apply_shift(sm.in_control_generator(delivery), shift)
    max_rl, reps = 300, 8
    sample = simulate_run_lengths(
        gen, delivery.params, chart, reps=reps, max_rl=max_rl, seed=21, track_records=True
    )
    for rep in range(reps):
        data = sm.sample_patients(gen, max_rl, sm.replication_rng(21, rep))
        trace = list(sm.run_stream(delivery.spec, delivery.params, chart, data, stop_at_signal=True))
        signals = [t for t, _, sig in trace if sig]
        assert sample.run_lengths[rep] == (signals[0] if signals else max_rl)
        best, refs = -np.inf, []
        for t, t2, _ in trace:
            if t2 > best:
                refs.append((t, t2))
                best = t2
        times, values = sample.staircases[rep]
        np.testing.assert_array_equal(times, [t for t, _ in refs])
        np.testing.assert_allclose(values, [v for _, v in refs], rtol=1e-9)


def test_kernel_matches_exact_short_horizon_probabilities(delivery):
    """P(RL = 1) and P(RL = 2) of the acceptance chart, enumerated over the
    256 patient types and their ordered pairs, bound the kernel's run lengths."""
    r, h, reps = 0.02, 35.686, 20_000
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    data, probs = sm.enumerate_patients(delivery.spec, delivery.params, delivery.covariates)
    s = sm.per_record_scores(delivery.spec, delivery.params, data)
    gram = s @ np.linalg.inv(sigma) @ s.T
    quad = np.diag(gram)
    # Sigma_W,t = f_t Sigma_S with f_1 = r^2, so T2_1 = s_1' Sigma_S^-1 s_1
    first = quad > h
    f2 = r * (1.0 - (1.0 - r) ** 4) / (2.0 - r)
    # w_2 = r (s_2 + (1 - r) s_1); rows index s_1, columns s_2
    t2_second = r * r / f2 * (quad[None, :] + 2.0 * (1.0 - r) * gram + (1.0 - r) ** 2 * quad[:, None])
    p1 = float(probs[first].sum())
    p2 = float(probs[~first] @ ((t2_second[~first] > h) @ probs))
    assert abs(p1 - 0.142738) < 1e-6 and abs(p2 - 0.056334) < 1e-6

    config = sm.ChartConfig(sigma_s=sigma, r=r, h=h, covariance_mode="exact-recursive")
    sample = simulate_run_lengths(
        sm.in_control_generator(delivery), delivery.params, config, reps=reps, max_rl=2, seed=1, threads=1
    )
    for t, p in ((1, p1), (2, p2)):
        p_hat = float((sample.resolved & (sample.run_lengths == t)).mean())
        assert abs(p_hat - p) < 4.0 * np.sqrt(p * (1.0 - p) / reps), (t, p_hat, p)
