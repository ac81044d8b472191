import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import score_mewma as sm
from score_mewma import mc
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
    # one chunk, then three chunks, whose replication ids carry each chunk's offset
    for reps, threads in ((500, None), (2 * mc.CHUNK + 3, 1), (2 * mc.CHUNK + 3, 2)):
        kw = dict(reps=reps, max_rl=400, seed=3, threads=threads)
        tracked = simulate_run_lengths(gen, delivery.params, chart, cap=80.0, track_records=True, **kw)
        for h in (20.0, 40.0, 60.0):
            direct = simulate_run_lengths(gen, delivery.params, chart, cap=h, **kw)
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


def test_auto_worker_count_follows_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert sm.resolve_threads(0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert sm.resolve_threads(0) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sm.resolve_threads(0) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sm.resolve_threads(0) == 1


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


def test_nan_limits_are_rejected(delivery, chart):
    gen = sm.in_control_generator(delivery)
    with pytest.raises(sm.ModelConfigError, match="cap"):
        simulate_run_lengths(gen, delivery.params, chart, reps=20, max_rl=50, seed=1, cap=float("nan"))
    tracked = simulate_run_lengths(gen, delivery.params, chart, reps=20, max_rl=50, seed=1, track_records=True)
    with pytest.raises(sm.ModelConfigError, match="limit"):
        tracked.at_limit(float("nan"))
    # a sample whose cap is nan bounds no limit
    odd = mc.RunLengthSample(tracked.run_lengths, tracked.resolved, float("nan"), 50, records=tracked.records)
    with pytest.raises(sm.ModelConfigError, match="exceeds"):
        odd.at_limit(1e9)


def test_at_limit_reads_empty_staircases_as_censored(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=1e-9, warmup=5)
    gen = sm.in_control_generator(delivery)
    sample = simulate_run_lengths(gen, delivery.params, config, reps=30, max_rl=3, seed=1, track_records=True)
    assert all(len(v) == 0 for _, v in sample.staircases)
    rl, resolved = sample.at_limit(0.0)
    np.testing.assert_array_equal(rl, np.full(30, 3))
    assert not resolved.any()


_ACCEPTANCE_CHART = dict(r=0.02, h=35.7)
_UNEQUAL_R_CHART = dict(r=tuple(np.linspace(0.01, 0.05, 17)), h=40.0)


@pytest.mark.parametrize(
    "shift, chart_kw, track",
    [
        (None, _ACCEPTANCE_CHART, False),
        (None, _ACCEPTANCE_CHART, True),
        (sm.ShiftSpec("coefficient", ("beta24",), 0.5), _ACCEPTANCE_CHART, True),
        (sm.ShiftSpec("mean-additive", ("Y3",), 1.0), _ACCEPTANCE_CHART, True),
        (sm.ShiftSpec("mean-odds", ("Y3",), 2.0), _ACCEPTANCE_CHART, True),
        (None, dict(_ACCEPTANCE_CHART, warmup=5), True),
        (None, _UNEQUAL_R_CHART, True),
    ],
    ids=["in-control", "tracked", "coefficient", "mean-additive", "mean-odds", "warmup", "unequal-r"],
)
def test_type_tables_equal_per_patient_path(delivery, monkeypatch, shift, chart_kw, track):
    """Scores read from the patient-type tables are the per-patient floats."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, **chart_kw)
    gen = sm.in_control_generator(delivery)
    if shift is not None:
        gen = sm.apply_shift(gen, shift)
    kw = dict(reps=300, max_rl=600, seed=8, threads=1, track_records=track)
    tables = simulate_run_lengths(gen, delivery.params, config, **kw)
    monkeypatch.setattr(mc, "_TYPE_LIMIT", 0)
    direct = simulate_run_lengths(gen, delivery.params, config, **kw)
    np.testing.assert_array_equal(tables.run_lengths, direct.run_lengths)
    np.testing.assert_array_equal(tables.resolved, direct.resolved)
    # lanes resolve within a block and others run on past the next refill
    assert tables.resolved.any() and tables.run_lengths.max() > mc.BUF
    if track:
        for (ta, va), (tb, vb) in zip(tables.staircases, direct.staircases, strict=True):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)


def test_multi_chunk_run_is_thread_independent(delivery, chart):
    """Also with unequal smoothing, whose threads read one T2Evaluator's
    per-step inverses."""
    unequal = sm.ChartConfig(sigma_s=chart.sigma_s, **_UNEQUAL_R_CHART)
    gen = sm.in_control_generator(delivery)
    kw = dict(reps=2 * mc.CHUNK + 3, max_rl=40, seed=31, track_records=True)
    for config in (chart, unequal):
        a = simulate_run_lengths(gen, delivery.params, config, threads=1, **kw)
        b = simulate_run_lengths(gen, delivery.params, config, threads=2, **kw)
        np.testing.assert_array_equal(a.run_lengths, b.run_lengths)
        np.testing.assert_array_equal(a.resolved, b.resolved)
        assert a.resolved.any() and not a.resolved.all()
        for (ta, va), (tb, vb) in zip(a.staircases, b.staircases, strict=True):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)


@pytest.mark.parametrize(
    "shift, digest",
    [
        (None, "1dfa9b9f54d7c749c8d28706c200aad9b75bd0b6c332cb00b2bb7bb145ac5218"),
        (
            sm.ShiftSpec("mean-additive", ("Y3",), 1.0),
            "3dec449f11b3cabc326851f823c7a67041bd0ed63544f20b3bceb6d127b004e1",
        ),
    ],
    ids=["in-control", "mean-additive"],
)
def test_kernel_run_lengths_are_pinned(delivery, shift, digest):
    """SHA-256 of the int64 run lengths of two fixed runs: a kernel change
    that moves any run length, at any thread count, fails here."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.02, h=35.7, covariance_mode="exact-recursive")
    gen = sm.in_control_generator(delivery)
    if shift is not None:
        gen = sm.apply_shift(gen, shift)
    sample = simulate_run_lengths(gen, delivery.params, config, reps=3000, max_rl=600, seed=2020, threads=2)
    assert hashlib.sha256(sample.run_lengths.astype(np.int64).tobytes()).hexdigest() == digest


def _built_on_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def test_pinned_run_lengths_hold_under_another_blas_kernel():
    """LAPACK gives Sigma_S's inverse and its Cholesky factor, whose last
    bits depend on OpenBLAS's kernel, and so do the kernel's whitened
    score tables and T2 values; the pinned run lengths must not. Reruns
    the pinned test under OpenBLAS's Haswell kernel, set for the child
    process only."""
    if not _built_on_openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    root = Path(__file__).resolve().parents[1]
    test = f"{Path(__file__).resolve()}::test_kernel_run_lengths_are_pinned"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=root, env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True,
    )
    if proc.returncode == -signal.SIGILL:
        pytest.skip("this CPU cannot run OpenBLAS's Haswell kernel")
    assert proc.returncode == 0 and "2 passed" in proc.stdout, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "parts",
    [(0,), (2**32 - 1,), (2**40 + 5,), (1, 2, 3, 4, 5, 6), (3, 7, 2)],
    ids=["zero", "max-word", "two-words", "six-parts", "bench-style"],
)
@pytest.mark.parametrize("lo", [0, 2048, 2**32 - 2048])
def test_bulk_streams_equal_seed_sequence(parts, lo):
    """A chunk's one-pass seed words and streams equal numpy's SeedSequence."""
    n = 2048
    states = mc._stream_states(mc._entropy_pool(parts), lo, n)
    assert states.shape == (n, 4) and states.dtype == np.uint64
    for i in (0, 1, 1000, n - 1):
        ss = np.random.SeedSequence(list(parts), spawn_key=(lo + i,))
        np.testing.assert_array_equal(states[i], ss.generate_state(4, np.uint64))
        bulk = np.random.Generator(np.random.PCG64(mc._SeedWords(states[i]))).random(50)
        np.testing.assert_array_equal(bulk, np.random.Generator(np.random.PCG64(ss)).random(50))


@pytest.mark.parametrize("seed", [-1, (1, -2), 1.5, "7", (2, 0.5), None])
def test_bad_seeds_are_rejected(delivery, chart, seed):
    gen = sm.in_control_generator(delivery)
    shift = sm.ShiftSpec("coefficient", ("beta24",), 0.0)
    grid = sm.StudyGrid(shift=shift, c_values=(1.0,), reps=4, chart=chart)
    with pytest.raises(sm.ModelConfigError, match="seed"):
        sm.estimate_arl(gen, delivery.params, chart, reps=4, max_rl=10, seed=seed)
    with pytest.raises(sm.ModelConfigError, match="seed"):
        sm.run_arl_study(gen, delivery.params, grid, seed=seed)
    with pytest.raises(sm.ModelConfigError, match="seed"):
        sm.calibrate_h(gen, delivery.params, chart, 25.0, reps_schedule=(4,), seed=seed, max_rl=100)
    with pytest.raises(sm.ModelConfigError, match="seed"):
        sm.replication_rng(seed, 0)


def test_numpy_integer_seeds_equal_python_ints(delivery, chart):
    gen = sm.in_control_generator(delivery)
    kw = dict(reps=40, max_rl=60)
    a = simulate_run_lengths(gen, delivery.params, chart, seed=(np.int64(4), np.uint32(9)), **kw)
    b = simulate_run_lengths(gen, delivery.params, chart, seed=[4, 9], **kw)
    np.testing.assert_array_equal(a.run_lengths, b.run_lengths)


def test_reps_beyond_one_spawn_word_raise_before_any_work(delivery, chart, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an invalid reps")

    for name in ("_CompiledSim", "_entropy_pool", "_chunk_generators", "worker_pool"):
        monkeypatch.setattr(mc, name, forbidden)
    gen = sm.in_control_generator(delivery)
    with pytest.raises(sm.ModelConfigError, match="2\\*\\*32"):
        simulate_run_lengths(gen, delivery.params, chart, reps=2**32 + 1, max_rl=10, seed=0)


def test_seed_words_refuse_other_requests():
    words = mc._SeedWords(np.zeros(4, dtype=np.uint64))
    assert words.generate_state(4, np.dtype(np.uint64)) is words.words
    with pytest.raises(ValueError):
        words.generate_state(4)
    with pytest.raises(ValueError):
        words.generate_state(8, np.uint64)


def _acceptance_config(delivery, **kw):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    return sm.ChartConfig(sigma_s=sigma, covariance_mode="exact-recursive", **dict(_ACCEPTANCE_CHART, **kw))


def _rows_digest(rows):
    return hashlib.sha256(b"".join(row.arl.run_lengths.astype(np.int64).tobytes() for row in rows)).hexdigest()


def test_study_run_lengths_are_pinned(delivery):
    """SHA-256 of every row's int64 run lengths in a shift grid and a pair
    study; rows reach max_rl 1000, so some are censored."""
    chart = _acceptance_config(delivery)
    gen = sm.in_control_generator(delivery)
    grid = sm.StudyGrid(
        shift=sm.ShiftSpec("mean-additive", ("Y3",), 0.0), c_values=(0.0, 0.25, 1.0), reps=500, chart=chart,
        max_rl=1000,
    )
    rows = sm.run_arl_study(gen, delivery.params, grid, seed=7, threads=2)
    assert _rows_digest(rows) == "f98c41a79aaa633a3bc1ab318f4244d7a11128fa27010bb2e34d9719955ea269"
    rows = sm.run_pair_study(
        gen, delivery.params, [("beta23", "beta24")], (0.0, 0.5), reps=300, chart=chart, seed=8, max_rl=1000,
        threads=2,
    )
    assert _rows_digest(rows) == "9b0d966ca1d2b258a8902babd2efba038c5f4babdf21230334be4223b230266a"


@pytest.mark.parametrize(
    "chart_kw",
    [
        dict(_ACCEPTANCE_CHART, covariance_mode="exact-recursive"),
        dict(_ACCEPTANCE_CHART, covariance_mode="asymptotic"),
        dict(_UNEQUAL_R_CHART, h=44.0, covariance_mode="exact-recursive"),
    ],
    ids=["exact", "asymptotic", "unequal-r"],
)
def test_studies_are_worker_count_independent(delivery, chart_kw):
    """Rows run side by side on two workers, or on more workers than this
    machine may have cores, give the bytes of rows run one after another
    in process."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    chart = sm.ChartConfig(sigma_s=sigma, **chart_kw)
    gen = sm.in_control_generator(delivery)
    grid = sm.StudyGrid(
        shift=sm.ShiftSpec("mean-odds", ("Y3",), 1.0), c_values=(1.0, 1.5, 3.0), reps=300, chart=chart, max_rl=600,
    )
    pair = dict(pairs=[("beta23", "beta24")], c_values=(0.0, 1.0), reps=200, chart=chart, seed=5, max_rl=600)
    digests = {
        threads: (
            _rows_digest(sm.run_arl_study(gen, delivery.params, grid, seed=4, threads=threads)),
            _rows_digest(sm.run_pair_study(gen, delivery.params, threads=threads, **pair)),
        )
        for threads in (1, 2, 4)
    }
    assert digests[1] == digests[2] == digests[4]


def test_calibration_is_pinned(delivery):
    chart = _acceptance_config(delivery)
    gen = sm.in_control_generator(delivery)
    cal = sm.calibrate_h(
        gen, delivery.params, chart, 100.0, rel_tolerance=0.05, reps_schedule=(200, 800), seed=3, max_rl=2000
    )
    assert repr(cal.h) == "30.32569248320675"
    assert repr(cal.bracket) == "(30.32155358700323, 30.329831379410276)"
    assert repr(cal.iterations) == "24"


def test_phase1_run_lengths_are_pinned(delivery):
    chart = _acceptance_config(delivery)
    gen = sm.in_control_generator(delivery)
    run_lengths = [
        int(sm.estimate_arl(gen, delivery.params, chart, reps=1, max_rl=4000, seed=s, phase1_size=2000).run_lengths[0])
        for s in range(10)
    ]
    assert run_lengths == [223, 430, 258, 26, 6, 488, 187, 64, 247, 1]


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
def test_tracked_records_are_pinned(delivery, threads):
    """A tracked sample over three chunks: SHA-256 of each replication's
    record count and times, and of the run lengths and flags at three
    limits; record values to 10 significant digits, since a value's last
    bits follow the BLAS kernel."""
    chart = _acceptance_config(delivery)
    gen = sm.in_control_generator(delivery)
    sample = simulate_run_lengths(
        gen, delivery.params, chart, reps=2 * mc.CHUNK + 3, max_rl=300, seed=44, cap=36.0, threads=threads,
        track_records=True,
    )
    stairs = sample.staircases
    counts = np.array([len(t) for t, _ in stairs], dtype=np.int64)
    times = np.concatenate([t for t, _ in stairs]).astype(np.int64)
    assert _sha256(counts, times) == "7d82c9a4b1c986262d56febf26ad02adfe433a1822156cf90b0afc3baa7c2132"
    limits = [sample.at_limit(h) for h in (20.0, 30.0, 36.0)]
    rls = [rl.astype(np.int64) for rl, _ in limits]
    assert _sha256(*rls, *(res for _, res in limits)) == (
        "f72074eb30be038510caee421a9dee00d4a2390f83968985f4685760d6046e45"
    )
    values = ",".join(f"{v:.9e}" for _, vs in stairs for v in vs).encode()
    assert hashlib.sha256(values).hexdigest() == "529cda3a90b557e2df4028c77a9ce3478cc22c4bb1cba6c0fa957b2d14ca1ead"


@pytest.mark.parametrize(
    "chart_kw, track, seed",
    [
        (dict(r=0.02, h=38.0), True, 34),
        (dict(r=0.02, h=38.0, warmup=21), False, 34),
        (dict(r=0.02, h=38.0, warmup=21), True, 34),
        (dict(_UNEQUAL_R_CHART, h=44.0), True, 32),
        (dict(r=0.02, h=34.0, covariance_mode="asymptotic"), True, 32),
        (dict(_UNEQUAL_R_CHART, h=40.0, covariance_mode="asymptotic"), True, 32),
    ],
    ids=["tracked", "warmup-21", "warmup-21-tracked", "unequal-r", "asymptotic", "asymptotic-unequal-r"],
)
def test_kernel_matches_reference_across_uniform_blocks(delivery, chart_kw, track, seed):
    """Replications that run past every uniform-block boundary (16 + 32 + 64
    + 128 + 256 = 496 patients) into a last block cut short at max_rl 503
    give the run lengths and staircases of run_stream over the same patients."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, **{"covariance_mode": "exact-recursive", **chart_kw})
    gen = sm.in_control_generator(delivery)
    reps, max_rl = 24, 503
    sample = simulate_run_lengths(
        gen, delivery.params, config, reps=reps, max_rl=max_rl, seed=seed, track_records=track
    )
    rl, resolved = sample.run_lengths, sample.resolved
    assert (~resolved).any() and np.all(rl[~resolved] == max_rl)
    assert (resolved & (rl > 496)).any()
    # crossings strictly inside a block of STEP patient steps
    assert (resolved & ~np.isin((rl - 1) % mc.STEP, (0, mc.STEP - 1))).any()
    if config.warmup > 1:
        assert rl.min() == config.warmup
    for rep in range(reps):
        data = sm.sample_patients(gen, max_rl, sm.replication_rng(seed, rep))
        trace = list(sm.run_stream(delivery.spec, delivery.params, config, data, stop_at_signal=True))
        signals = [t for t, _, sig in trace if sig]
        assert rl[rep] == (signals[0] if signals else max_rl)
        assert resolved[rep] == bool(signals)
        if track:
            best, refs = -np.inf, []
            for t, t2, _ in trace[config.warmup - 1 :]:
                if t2 > best:
                    refs.append((t, t2))
                    best = t2
            times, values = sample.staircases[rep]
            np.testing.assert_array_equal(times, [t for t, _ in refs])
            np.testing.assert_allclose(values, [v for _, v in refs], rtol=1e-9)


@pytest.mark.parametrize("mode", ["exact-recursive", "asymptotic"])
def test_whitened_t2_equals_the_evaluator(delivery, mode):
    """With equal smoothing the kernel's T2 of whitened states z = w W is the
    evaluator's T2 of w; W is block-diagonal by node, so each node's columns
    of z hold its share of T2. Unequal smoothing gets no whitener."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.02, covariance_mode=mode)
    sim = mc._CompiledSim(sm.in_control_generator(delivery), delivery.params, config, max_rl=100)
    whitener = config.t2_evaluator.whitener()
    np.testing.assert_array_equal(sim.whiten, 0.02 * whitener)
    w = 0.02 * np.random.default_rng(4).standard_normal((mc.STEP, 50, config.p))
    for t0 in (0, 40):
        expected = config.t2_evaluator.t2(w, t0 + 1, sim.factors[t0 : t0 + mc.STEP, None])
        np.testing.assert_allclose(sim.t2(w @ whitener, t0), expected, rtol=1e-12)
    for design in sim.sample.designs:
        rows = np.zeros(config.p, dtype=bool)
        rows[design.param_indices] = True
        assert not whitener[np.ix_(rows, ~rows)].any() and not whitener[np.ix_(~rows, rows)].any()

    unequal = sm.ChartConfig(sigma_s=sigma, r=_UNEQUAL_R_CHART["r"], covariance_mode=mode)
    assert unequal.t2_evaluator.whitener() is None
    assert mc._CompiledSim(sm.in_control_generator(delivery), delivery.params, unequal, max_rl=100).whiten is None


def _run_with_block_budget(monkeypatch, budget, *args, **kw):
    """simulate_run_lengths with mc.LANE_STEPS set to budget; also returns
    the step count of every block the kernel took T2 over. It runs in
    process: the patches hold only in this process, and a worker forked
    while they are active would keep them."""
    steps = []
    t2 = mc._CompiledSim.t2

    def counted(self, z, t0):
        steps.append(z.shape[0])
        return t2(self, z, t0)

    with monkeypatch.context() as patch:
        patch.setattr(mc, "LANE_STEPS", budget)
        patch.setattr(mc._CompiledSim, "t2", counted)
        return simulate_run_lengths(*args, threads=1, **kw), steps


@pytest.mark.parametrize("reps, seeds", [(300, (35,)), (1, range(6))], ids=["chunk-300", "width-1"])
@pytest.mark.parametrize("track", [True, False], ids=["tracked", "untracked"])
@pytest.mark.parametrize(
    "chart_kw",
    [
        dict(r=0.02, h=38.0),
        dict(r=0.02, h=34.0, covariance_mode="asymptotic"),
        dict(_UNEQUAL_R_CHART, h=44.0),
    ],
    ids=["exact", "asymptotic", "unequal-r"],
)
def test_block_length_changes_no_result(delivery, monkeypatch, chart_kw, track, reps, seeds):
    """Every block STEP steps long, or every block run to the end of its
    uniform block, gives the same run lengths, flags and records: bit for
    bit with equal smoothing, and record values within rtol 1e-12 with
    unequal smoothing, where T2 is a BLAS product whose last bits may follow
    the block's shape. max_rl 503 cuts the last uniform block short."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, warmup=21, **{"covariance_mode": "exact-recursive", **chart_kw})
    gen = sm.in_control_generator(delivery)
    max_rl = 503
    for seed in seeds:
        args = (gen, delivery.params, config, reps, max_rl, seed)
        short, short_steps = _run_with_block_budget(monkeypatch, 0, *args, track_records=track)
        long, long_steps = _run_with_block_budget(monkeypatch, 2**62, *args, track_records=track)
        assert set(short_steps) <= {mc.STEP, max_rl - 496} and max(long_steps) > mc.STEP
        assert len(long_steps) < len(short_steps)
        np.testing.assert_array_equal(long.run_lengths, short.run_lengths)
        np.testing.assert_array_equal(long.resolved, short.resolved)
        assert (long.records is None) == (not track)
        if not track:
            continue
        rep, times, values = long.records
        np.testing.assert_array_equal(rep, short.records[0])
        np.testing.assert_array_equal(times, short.records[1])
        if config.equal_r:
            np.testing.assert_array_equal(values, short.records[2])
        else:
            np.testing.assert_allclose(values, short.records[2], rtol=1e-12, atol=0)
    if reps > 1:
        assert (~long.resolved).any() and (long.resolved & (long.run_lengths > 21)).any()


def _fork_pool_or_skip():
    if multiprocessing.get_all_start_methods()[0] != "fork":
        pytest.skip("workers are forked only where fork is the default start method")


def test_a_killed_worker_is_replaced_by_the_next_call(delivery, chart):
    _fork_pool_or_skip()
    gen = sm.in_control_generator(delivery)
    kw = dict(reps=2 * mc.CHUNK + 3, max_rl=200, seed=12, track_records=True)
    expected = simulate_run_lengths(gen, delivery.params, chart, threads=1, **kw)
    pool = mc.worker_pool(2)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while victim.is_alive():
        assert time.monotonic() < deadline, "the killed worker did not end"
        time.sleep(0.01)
    got = simulate_run_lengths(gen, delivery.params, chart, threads=2, **kw)
    np.testing.assert_array_equal(got.run_lengths, expected.run_lengths)
    np.testing.assert_array_equal(got.resolved, expected.resolved)
    for a, b in zip(got.records, expected.records, strict=True):
        np.testing.assert_array_equal(a, b)
    assert victim not in multiprocessing.active_children() and mc.worker_pool(2) is not pool


def test_workers_ignore_ctrl_c(delivery, chart):
    """A Ctrl-C reaches the whole process group; the parent handles it, and
    an idle worker must not end with a KeyboardInterrupt."""
    _fork_pool_or_skip()
    gen = sm.in_control_generator(delivery)
    kw = dict(reps=300, max_rl=200, seed=13)
    pool = mc.worker_pool(2)
    workers = multiprocessing.active_children()
    for worker in workers:
        os.kill(worker.pid, signal.SIGINT)
    time.sleep(0.2)
    assert all(worker.is_alive() for worker in workers)
    got = simulate_run_lengths(gen, delivery.params, chart, threads=2, **kw)
    assert mc.worker_pool(2) is pool
    expected = simulate_run_lengths(gen, delivery.params, chart, threads=1, **kw)
    np.testing.assert_array_equal(got.run_lengths, expected.run_lengths)


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("ending", ["exit", "sigkill"])
def test_workers_end_with_their_process(ending):
    """Workers end when their process exits, and also when it is killed
    before it can stop them."""
    _fork_pool_or_skip()
    script = (
        "import multiprocessing, os, signal\n"
        "import score_mewma as sm\n"
        "model = sm.default_delivery_model()\n"
        "sigma = sm.expected_score_covariance(model.spec, model.params, model.covariates).values\n"
        "chart = sm.ChartConfig(sigma_s=sigma, r=0.1, h=40.0)\n"
        "sm.estimate_arl(sm.in_control_generator(model), model.params, chart, reps=50, max_rl=100, seed=1, threads=2)\n"
        "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
    )
    if ending == "sigkill":
        script += "os.kill(os.getpid(), signal.SIGKILL)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == (0 if ending == "exit" else -signal.SIGKILL) and proc.stderr == "", proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10  # time for an orphan that has ended to be reaped
    while any(_running(pid) for pid in pids):
        assert time.monotonic() < deadline, f"workers {pids} outlived their process"
        time.sleep(0.05)
