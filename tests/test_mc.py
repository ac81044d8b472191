import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

import score_mewma as sm
from score_mewma import mc
from score_mewma.likelihood import score_rows
from score_mewma.mc import simulate_run_lengths
from score_mewma.model import node_designs, node_eta, node_means, type_bits

from conftest import oracle_enumerate, two_node_model


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


_M64 = 2**64 - 1


def _ref_mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _splitmix64(state: int, n: int) -> list[int]:
    """The first n outputs of SplitMix64 from ``state``, in Python ints."""
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        out.append(_ref_mix(state))
    return out


def _ref_seed_key(parts) -> int:
    h = 0x9E3779B97F4A7C15
    for part in parts:
        words = []
        while True:
            words.append(part & _M64)
            part >>= 64
            if not part:
                break
        for word in [len(words), *words]:
            h = _ref_mix(h ^ word)
    return h


def test_stream_outputs_equal_scalar_splitmix64():
    """The vectorised hash, keys and uniforms against a Python-int reference."""
    assert _splitmix64(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    x = np.arange(1, 3, dtype=np.uint64) * np.uint64(mc.GAMMA)
    assert mc._mix64(x).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    for z in (0, 1, mc.GAMMA, 2**63, _M64):
        assert mc._mix64_int(z) == _ref_mix(z) == int(mc._mix64(np.array([z], dtype=np.uint64))[0])

    keys = [0, 1, mc.GAMMA, 2**63, _M64, sm.replication_rng(7, 3).key]
    u = mc._uniforms(np.array(keys, dtype=np.uint64), 5, 8)
    assert u.shape == (8, len(keys)) and u.dtype == np.float64
    for lane, key in enumerate(keys):
        expected = [(out >> 11) / 2**53 for out in _splitmix64(key, 13)[5:]]
        assert u[:, lane].tolist() == expected
    stream = mc.ReplicationStream(keys[-1])
    drawn = np.concatenate([stream.random(3), stream.random(4)])
    assert stream.position == 7 and drawn.tolist() == [(out >> 11) / 2**53 for out in _splitmix64(keys[-1], 7)]

    for parts in [(0,), (12,), (2**64 - 1,), (2**64,), (2**130 + 7, 0, 5)]:
        h = _ref_seed_key(parts)
        assert mc._seed_key(parts) == h
        # K(s, rep) is SplitMix64 output rep from state H(s)
        assert mc._replication_keys(h, 0, 4).tolist() == [_ref_mix(h), *_splitmix64(h, 3)]
        lo = 2**32 - 3
        assert mc._replication_keys(h, lo, 3).tolist() == [_ref_mix((h + (lo + i) * mc.GAMMA) & _M64) for i in range(3)]


def test_seeds_and_reps_get_distinct_keys():
    keys = [sm.replication_rng(seed, rep).key for seed in [(1, 2), (12,), (1, 2, 0)] for rep in (0, 2**32 - 1)]
    assert len(set(keys)) == 6
    assert sm.replication_rng(12, 5).key == sm.replication_rng([12], 5).key
    with pytest.raises(sm.ModelConfigError, match="rep"):
        sm.replication_rng(1, -1)


@pytest.mark.parametrize(
    "shift", [None, sm.ShiftSpec("mean-odds", ("Y3",), 2.0)], ids=["in-control", "mean-odds"]
)
def test_stream_types_follow_the_type_probabilities(delivery, shift):
    """Chi-square of 10^6 patients drawn from one stream, in four calls that
    continue it, against the exact type probabilities; cells expected below
    5 are pooled."""
    from scipy.special import expit
    from scipy.stats import chi2

    types, probs = sm.enumerate_patients(delivery.spec, delivery.params, delivery.covariates)
    gen = sm.in_control_generator(delivery)
    if shift is not None:
        gen = sm.apply_shift(gen, shift)
        design = node_designs(delivery.spec)[delivery.spec.node_index("Y3")]
        mu = expit(node_eta(design, delivery.params.values[design.param_indices], types.bits))
        shifted = mc.apply_mean_shift("odds", 2.0, mu)
        probs = probs * np.where(types.bits[:, design.out_col] == 1.0, shifted / mu, (1.0 - shifted) / (1.0 - mu))
    k = types.bits.shape[1]
    stream, n, counts = sm.replication_rng(2026, 0), 250_000, np.zeros(2**k)
    for _ in range(4):
        bits = sm.sample_patients(gen, n, stream).bits
        counts += np.bincount((bits @ (1 << np.arange(k))).astype(np.int64), minlength=2**k)
    assert stream.position == 4 * n
    expected = counts.sum() * probs
    big = expected >= 5.0
    assert not big.all()
    observed = np.append(counts[big], counts[~big].sum())
    expected = np.append(expected[big], expected[~big].sum())
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, df=observed.size - 1) > 1e-3, stat


def test_a_type_of_probability_zero_is_never_drawn(delivery, chart):
    """Covariates of prevalence 1 leave every type with a covariate 0 at
    probability 0: neither the smallest nor the largest uniform picks one,
    sample_patients draws none from a stream, and the kernel runs on those
    same patients."""
    ones = sm.CovariateModel({k: 1.0 for k in delivery.covariates.prevalence})
    gen = sm.PatientGenerator(delivery.spec, delivery.params, ones)
    sim = mc._CompiledSim(gen, delivery.params, chart)
    n_cov = ones.prevalences(delivery.spec).size
    picked = mc._pick_types(sim.cdf, np.array([0.0, np.nextafter(1.0, 0.0)]))
    assert np.all(picked & (2**n_cov - 1) == 2**n_cov - 1)
    data = sm.sample_patients(gen, 200_000, sm.replication_rng(5, 0))
    assert np.all(data.x == 1) and np.all(data.z == 1)
    sample = simulate_run_lengths(gen, delivery.params, chart, reps=4, max_rl=200, seed=5)
    for rep in range(4):
        data = sm.sample_patients(gen, 200, sm.replication_rng(5, rep))
        assert np.all(data.x == 1) and np.all(data.z == 1)
        signals = [t for t, _, sig in sm.run_stream(delivery.spec, delivery.params, chart, data) if sig]
        assert sample.run_lengths[rep] == (signals[0] if signals else 200)


@pytest.mark.parametrize(
    "shift", [None, sm.ShiftSpec("coefficient", ("beta24",), 0.5)], ids=["in-control", "coefficient"]
)
def test_type_law_is_the_enumerated_law(delivery, shift):
    """The kernel's cumulative type probabilities are, bit for bit, those
    of enumerate_patients' joint probabilities under the generator."""
    gen = sm.in_control_generator(delivery)
    if shift is not None:
        gen = sm.apply_shift(gen, shift)
    _, p = sm.enumerate_patients(gen.spec, gen.params, gen.covariates)
    np.testing.assert_array_equal(gen._type_law[0], np.cumsum(p) / np.cumsum(p)[-1])


def test_params0_of_another_layout_is_rejected(delivery, chart):
    from conftest import two_node_model

    with pytest.raises(sm.ModelConfigError, match="params0 does not match the model's coefficient layout"):
        simulate_run_lengths(
            sm.in_control_generator(delivery), two_node_model().params, chart, reps=4, max_rl=10, seed=0
        )


def test_generator_params_of_another_layout_are_rejected_at_construction(delivery):
    from conftest import two_node_model

    with pytest.raises(sm.ModelConfigError, match="params do not match the model's coefficient layout"):
        sm.PatientGenerator(delivery.spec, two_node_model().params, delivery.covariates)


def _sixteen_bit_model():
    """65,536 patient types; type i >= 2^15 has Y4 = 1, which is likely, so
    many of those types fill a guide bucket by themselves."""
    covs = [{"id": f"X{i}", "kind": "process", "prevalence": 0.5} for i in range(1, 7)]
    covs += [{"id": f"Z{i}", "kind": "risk", "prevalence": 0.1} for i in range(1, 7)]
    nodes = [
        {
            "id": f"Y{v}",
            "intercept": {"coef_name": f"a{v}", "value": 2.0 if v == 4 else 0.0},
            "process_parents": [{"var": f"X{v}", "coef_name": f"b{v}", "value": 0.7}],
            "outcome_parents": [{"var": f"Y{v - 1}", "coef_name": f"g{v}", "value": 0.9}] if v > 1 else [],
            "risk_parents": [{"var": f"Z{v}", "coef_name": f"d{v}", "value": -0.4}],
        }
        for v in range(1, 5)
    ]
    return sm.model_from_dict({"covariates": covs, "nodes": nodes})


def _type_law(delivery, case):
    if case == "sixteen-bits":
        return sm.in_control_generator(_sixteen_bit_model())._type_law
    gen = sm.in_control_generator(delivery)
    if case == "mean-odds":
        gen = sm.apply_shift(gen, sm.ShiftSpec("mean-odds", ("Y3",), 2.0))
    elif case == "zero-probability":
        ones = sm.CovariateModel({k: 1.0 for k in delivery.covariates.prevalence})
        gen = sm.PatientGenerator(delivery.spec, delivery.params, ones)
    return gen._type_law


_TYPE_LAWS = ["in-control", "mean-odds", "zero-probability", "sixteen-bits"]


@pytest.mark.parametrize("case", _TYPE_LAWS)
def test_guide_table_is_exact(delivery, case):
    """Each bucket's entry is -1 exactly where a cdf entry lies strictly
    inside it, and otherwise the type its lowest uniform picks; found here
    by binary searches over the bucket edges."""
    cdf, guide = _type_law(delivery, case)
    size = 2**mc._GUIDE_BITS
    edges = np.arange(size + 1) / size
    inside = np.searchsorted(cdf, edges[1:], side="left") > np.searchsorted(cdf, edges[:-1], side="right")
    np.testing.assert_array_equal(guide, np.where(inside, -1, mc._pick_types(cdf, edges[:-1])))
    if case == "sixteen-bits":
        assert inside.mean() > 0.5 and guide.max() > np.iinfo(np.int16).max


@pytest.mark.parametrize("case", _TYPE_LAWS)
def test_guided_types_equal_the_binary_search(delivery, case):
    """The guide picks the type the binary search picks from the output's
    uniform: at both ends of every bucket, at and one step either side of
    every cdf entry on the uniforms' 2^-53 grid, and for 10^6 random
    outputs, in a flat and in a (lanes, steps) layout."""
    cdf, guide = _type_law(delivery, case)
    shift = 64 - mc._GUIDE_BITS
    buckets = np.arange(2**mc._GUIDE_BITS, dtype=np.uint64)
    ends = np.concatenate([buckets << np.uint64(shift), ((buckets + np.uint64(1)) << np.uint64(shift)) - np.uint64(1)])
    grid = np.floor(cdf[cdf < 1.0] * 2.0**53).astype(np.uint64)
    steps = np.concatenate([grid - np.uint64(1), grid, grid + np.uint64(1)])
    near = steps[steps < np.uint64(2**53)] << np.uint64(11)
    random = np.random.default_rng(0).integers(0, 2**64 - 1, 10**6, dtype=np.uint64, endpoint=True)
    for x in (ends, near, near | np.uint64(2**11 - 1), random, random.reshape(1000, 1000)):
        expected = mc._pick_types(cdf, (x >> np.uint64(11)) * 2.0**-53)
        np.testing.assert_array_equal(mc._guided_types(cdf, guide, x), expected)
    assert np.isin(cdf, (near >> np.uint64(11)) * 2.0**-53).any()  # some uniforms equal a cdf entry


@pytest.mark.parametrize("lanes", [1, 300, 2048])
def test_kernel_picks_equal_the_binary_search(delivery, chart, lanes):
    """The kernel's input rows are the table rows of the types the binary
    search picks from the same streams' uniforms."""
    sim = mc._CompiledSim(sm.in_control_generator(delivery), delivery.params, chart)
    keys = mc._replication_keys(mc._seed_key(6), 0, lanes)
    for after, n in ((0, 16), (37, 256)):
        expected = sim.table.take(mc._pick_types(sim.cdf, mc._uniforms(keys, after, n)), axis=0)
        np.testing.assert_array_equal(sim.inputs(keys, after, n), expected)


def test_a_replication_depends_on_neither_its_chunk_nor_its_lane_mates_nor_max_rl(delivery, chart):
    gen = sm.in_control_generator(delivery)
    m = 60
    many = simulate_run_lengths(gen, delivery.params, chart, reps=2 * mc.CHUNK + 5, max_rl=m, seed=9, threads=1)
    few = simulate_run_lengths(gen, delivery.params, chart, reps=100, max_rl=m, seed=9)
    np.testing.assert_array_equal(many.run_lengths[:100], few.run_lengths)
    np.testing.assert_array_equal(many.resolved[:100], few.resolved)
    # the third chunk's last replications, run as a chunk of their own
    sim = mc._CompiledSim(gen, delivery.params, chart)
    keys = mc._replication_keys(mc._seed_key(9), 2 * mc.CHUNK, 5)
    rl, resolved, _ = mc._simulate_chunk(sim, keys, 0, chart.h, m, track_records=False)
    np.testing.assert_array_equal(rl, many.run_lengths[-5:])
    np.testing.assert_array_equal(resolved, many.resolved[-5:])
    longer = simulate_run_lengths(gen, delivery.params, chart, reps=100, max_rl=2 * m, seed=9)
    np.testing.assert_array_equal(np.minimum(longer.run_lengths, m), few.run_lengths)
    np.testing.assert_array_equal(longer.resolved & (longer.run_lengths <= m), few.resolved)
    # resolved by m, resolved between m and 2m, and censored at 2m
    assert few.resolved.any() and (longer.resolved & ~few.resolved).any() and (~longer.resolved).any()


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
    r = (0.05,) * 3 + (0.2,) * 3 + (0.4,) * 5 + (0.6,) * 6  # one r per node
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


def test_resolve_threads_bounds_explicit_counts(monkeypatch):
    """A fixed bound, not the machine's, on the argument and the variable alike."""
    assert sm.resolve_threads(64) == 64
    with pytest.raises(sm.ModelConfigError, match="at most 64, got 65"):
        sm.resolve_threads(65)
    monkeypatch.setenv("SCORE_MEWMA_THREADS", "64")
    assert sm.resolve_threads() == 64
    for raw in ("65", "10000"):
        monkeypatch.setenv("SCORE_MEWMA_THREADS", raw)
        with pytest.raises(sm.ModelConfigError, match=f"SCORE_MEWMA_THREADS must be .* 0 to 64, got '{raw}'"):
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
# one r per node of the delivery model, whose blocks hold 3, 3, 5 and 6 coefficients
_UNEQUAL_R_CHART = dict(r=(0.01,) * 3 + (0.02,) * 3 + (0.03,) * 5 + (0.05,) * 6, h=40.0)


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
    """Every type's table row is, bit for bit, the row the per-patient path
    gives that type's patient on its own. And the per-patient kernel path
    (``ENUM_LIMIT`` 0: k uniforms per patient) gives the run lengths and
    staircases of run_stream over the patients that sample_patients draws
    from the same streams under the same limit."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, **chart_kw)
    gen = sm.in_control_generator(delivery)
    if shift is not None:
        gen = sm.apply_shift(gen, shift)
    max_rl = 600
    sim = mc._CompiledSim(gen, delivery.params, config)
    types = type_bits(sim.k)
    # a uniform of 0 sets a bit on the ancestral path, the largest below 1 clears it
    u = np.where(types == 1.0, 0.0, np.nextafter(1.0, 0.0))
    designs = node_designs(delivery.spec)
    for i in range(types.shape[0]):
        bits = mc._generate(gen, u[i : i + 1])
        means = node_means(designs, delivery.params.values, bits)
        np.testing.assert_array_equal(bits, types[i : i + 1])
        np.testing.assert_array_equal(sim._from_scores(score_rows(designs, bits, means))[0], sim.table[i])

    monkeypatch.setattr(sm.model, "ENUM_LIMIT", 0)
    # gen keeps the type law it built above; a fresh generator builds none
    gen = replace(gen)
    assert gen._type_law is None
    direct = simulate_run_lengths(gen, delivery.params, config, reps=300, max_rl=max_rl, seed=8, threads=1,
                                  track_records=track)
    # lanes resolve within a block and others run on past BUF patients
    assert direct.resolved.any() and direct.run_lengths.max() > mc.BUF
    for rep in sorted({*range(6), int(direct.run_lengths.argmax())}):
        data = sm.sample_patients(gen, max_rl, sm.replication_rng(8, rep))
        trace = list(sm.run_stream(delivery.spec, delivery.params, config, data, stop_at_signal=True))
        signals = [t for t, _, sig in trace if sig]
        assert direct.run_lengths[rep] == (signals[0] if signals else max_rl)
        assert direct.resolved[rep] == bool(signals)
        if track:
            best, refs = -np.inf, []
            for t, t2, _ in trace[config.warmup - 1 :]:
                if t2 > best:
                    refs.append((t, t2))
                    best = t2
            times, values = direct.staircases[rep]
            np.testing.assert_array_equal(times, [t for t, _ in refs])
            np.testing.assert_allclose(values, [v for _, v in refs], rtol=1e-9)


def test_multi_chunk_run_is_thread_independent(delivery, chart):
    """Also with one smoothing weight per node."""
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
        (None, "55eafa50c38bc335bfd68c02ba75d8b6a47d4579b22b0ac42c814efcb65ac38d"),
        (
            sm.ShiftSpec("mean-additive", ("Y3",), 1.0),
            "04186174f3fa3252ab991c19d154c22b5bbe8c6655f6d044f07d09d8e30c001d",
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
def test_bulk_keys_equal_replication_rng(parts, lo):
    """A chunk's keys, derived in one pass, and the uniforms the kernel
    computes from them equal each replication's own stream."""
    n = 2048
    keys = mc._replication_keys(mc._seed_key(parts), lo, n)
    assert keys.shape == (n,) and keys.dtype == np.uint64
    u = mc._uniforms(keys, 0, 50)
    for i in (0, 1, 1000, n - 1):
        stream = sm.replication_rng(parts, lo + i)
        assert int(keys[i]) == stream.key
        np.testing.assert_array_equal(u[:, i], stream.random(50))


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

    for name in ("_CompiledSim", "_seed_key", "_replication_keys", "worker_pool"):
        monkeypatch.setattr(mc, name, forbidden)
    gen = sm.in_control_generator(delivery)
    with pytest.raises(sm.ModelConfigError, match="2\\*\\*32"):
        simulate_run_lengths(gen, delivery.params, chart, reps=2**32 + 1, max_rl=10, seed=0)


@pytest.mark.parametrize("phase1_size", [None, 500], ids=["plain", "phase1"])
def test_max_rl_beyond_the_bound_raises_before_any_work(delivery, chart, monkeypatch, phase1_size):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an invalid max_rl")

    for module in (mc, sm.calibrate):
        for name in ("_CompiledSim", "sample_patients"):
            monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(mc, "worker_pool", forbidden)
    gen = sm.in_control_generator(delivery)
    with pytest.raises(sm.ModelConfigError, match="max_rl must be at most 10000000, got 10000001"):
        sm.estimate_arl(gen, delivery.params, chart, reps=5, max_rl=mc.MAX_RL + 1, seed=0, phase1_size=phase1_size)


def test_patient_count_beyond_the_bound_raises_before_any_work(delivery, chart, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an invalid patient count")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(mc.ReplicationStream, "_next", forbidden)
    monkeypatch.setattr(mc.ReplicationStream, "random", forbidden)
    gen = sm.in_control_generator(delivery)
    for rng in (0, sm.replication_rng(0, 0)):
        with pytest.raises(sm.ModelConfigError, match="n must be at most 10000000, got 10000001"):
            sm.sample_patients(gen, sm.likelihood.MAX_MC_SAMPLES + 1, rng)
    for module in (mc, sm.calibrate):
        for name in ("_CompiledSim", "sample_patients"):
            monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(mc, "worker_pool", forbidden)
    with pytest.raises(sm.ModelConfigError, match="phase1_size must be at most 10000000, got 10000001"):
        sm.estimate_arl(gen, delivery.params, chart, reps=5, max_rl=100, seed=0, phase1_size=10**7 + 1)


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
    assert _rows_digest(rows) == "97421cf7785586cd3e27985fdffb11ba014d9ade43cf8e6f8d8b7660006af1da"
    rows = sm.run_pair_study(
        gen, delivery.params, [("beta23", "beta24")], (0.0, 0.5), reps=300, chart=chart, seed=8, max_rl=1000,
        threads=2,
    )
    assert _rows_digest(rows) == "0157f54dcb590f0bb861da0db9bd2f06defb34c1e64e74f22456cbfb1e76ee29"


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
    assert repr(cal.h) == "29.860892813147533"
    assert repr(cal.bracket) == "(29.85687439129137, 29.864911235003696)"
    assert repr(cal.iterations) == "24"


def test_phase1_run_lengths_are_pinned(delivery):
    chart = _acceptance_config(delivery)
    gen = sm.in_control_generator(delivery)
    run_lengths = [
        int(sm.estimate_arl(gen, delivery.params, chart, reps=1, max_rl=4000, seed=s, phase1_size=2000).run_lengths[0])
        for s in range(10)
    ]
    assert run_lengths == [158, 1, 9, 140, 425, 330, 2, 10, 1, 345]


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
    assert _sha256(counts, times) == "76c7111c7c81c63ef31196a77c7f8fc7a7487a297dfa2973d54f4e4b98f8229e"
    limits = [sample.at_limit(h) for h in (20.0, 30.0, 36.0)]
    rls = [rl.astype(np.int64) for rl, _ in limits]
    assert _sha256(*rls, *(res for _, res in limits)) == (
        "5379e886afc69eb201ab3cf982df04e0df3503c3799c49f787da297cbee96322"
    )
    values = ",".join(f"{v:.9e}" for _, vs in stairs for v in vs).encode()
    assert hashlib.sha256(values).hexdigest() == "133b15f9d09c0f6b97d39beaaf2a7d28e5d6436cc8159304668cba03a8808a7c"


@pytest.mark.parametrize(
    "chart_kw, track, seed",
    [
        (dict(r=0.02, h=38.0), True, 53),
        (dict(r=0.02, h=38.0, warmup=21), False, 57),
        (dict(r=0.02, h=38.0, warmup=21), True, 57),
        (dict(_UNEQUAL_R_CHART, h=44.0), True, 62),
        (dict(r=0.02, h=34.0, covariance_mode="asymptotic"), True, 53),
        (dict(_UNEQUAL_R_CHART, h=40.0, covariance_mode="asymptotic"), True, 55),
    ],
    ids=["tracked", "warmup-21", "warmup-21-tracked", "unequal-r", "asymptotic", "asymptotic-unequal-r"],
)
def test_kernel_matches_reference_across_uniform_blocks(delivery, chart_kw, track, seed):
    """24 lanes advance 16, 16, 32, 64 and 128 patients per block, and the
    block from patient 257 on, 256 long, is cut short at max_rl 503.
    Replications that resolve late in it, past 496, that are censored at
    503, or that cross inside a STEP-long stretch, give the run lengths and
    staircases of run_stream over the same patients."""
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
    """The kernel's T2 of whitened states z = w W is, step by step, the
    evaluator's T2 of w, at one r and at one r per node: both charts are
    whitened, and a type's row takes each node's r on that node's columns.
    W is block-diagonal by node, so each node's columns of z hold its share
    of T2."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    rng = np.random.default_rng(4)
    for r, runs in ((0.02, 1), (_UNEQUAL_R_CHART["r"], 4)):
        config = sm.ChartConfig(sigma_s=sigma, r=r, covariance_mode=mode)
        sim = mc._CompiledSim(sm.in_control_generator(delivery), delivery.params, config)
        evaluator = config.t2_evaluator
        whitener = evaluator.whitener()
        assert len(evaluator.runs) == runs
        np.testing.assert_array_equal(sim.whiten, config.r_vec[:, None] * whitener)
        if runs == 1:
            np.testing.assert_array_equal(sim.whiten, 0.02 * whitener)
        w = 0.02 * rng.standard_normal((mc.STEP, 50, config.p))
        for t0 in (0, 40):
            kernel = sim.t2(w @ whitener, t0)
            for j in range(mc.STEP):
                np.testing.assert_allclose(kernel[j], evaluator.t2(w[j], t0 + 1 + j), rtol=1e-12)
        for design in node_designs(delivery.spec):
            rows = np.zeros(config.p, dtype=bool)
            rows[design.param_indices] = True
            assert not whitener[np.ix_(rows, ~rows)].any() and not whitener[np.ix_(~rows, rows)].any()


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
        dict(_UNEQUAL_R_CHART, h=40.0, covariance_mode="asymptotic"),
    ],
    ids=["exact", "asymptotic", "unequal-r", "asymptotic-unequal-r"],
)
def test_block_length_changes_no_result(delivery, monkeypatch, chart_kw, track, reps, seeds):
    """Every block STEP steps long, or blocks as long as the patients done
    before them, gives the same run lengths, flags and records, bit for bit,
    at one r and at one r per node. max_rl 503 cuts the last block short."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, warmup=21, **{"covariance_mode": "exact-recursive", **chart_kw})
    gen = sm.in_control_generator(delivery)
    max_rl = 503
    ran_long = 0
    for seed in seeds:
        args = (gen, delivery.params, config, reps, max_rl, seed)
        short, short_steps = _run_with_block_budget(monkeypatch, 0, *args, track_records=track)
        long, long_steps = _run_with_block_budget(monkeypatch, 2**62, *args, track_records=track)
        assert set(short_steps) <= {mc.STEP, max_rl % mc.STEP}
        if long.run_lengths.max() > 2 * mc.STEP:
            assert max(long_steps) > mc.STEP and len(long_steps) < len(short_steps)
            ran_long += 1
        else:  # runs that end by patient 2 STEP take two STEP-long blocks either way
            assert long_steps == short_steps
        np.testing.assert_array_equal(long.run_lengths, short.run_lengths)
        np.testing.assert_array_equal(long.resolved, short.resolved)
        assert (long.records is None) == (not track)
        if not track:
            continue
        rep, times, values = long.records
        np.testing.assert_array_equal(rep, short.records[0])
        np.testing.assert_array_equal(times, short.records[1])
        np.testing.assert_array_equal(values, short.records[2])
    assert ran_long
    if reps > 1:
        assert (~long.resolved).any() and (long.resolved & (long.run_lengths > 21)).any()


@pytest.mark.parametrize("mode", ["exact-recursive", "asymptotic"])
@pytest.mark.parametrize(
    "chart_kw", [dict(r=0.02, h=34.0), dict(_UNEQUAL_R_CHART, h=40.0)], ids=["r-0.02", "unequal-r"]
)
def test_narrow_blocks_filter_to_the_wide_blocks_bits(delivery, monkeypatch, mode, chart_kw):
    """A replication alone runs its EWMA through lfilter in every block of
    more steps than state columns; among 2,048 lanes, with the step loop
    forced on every block, it gets the same run length, flag and record
    highs, bit for bit, and so it does alone with the loop forced."""
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, covariance_mode=mode, **chart_kw)
    sim = mc._CompiledSim(sm.in_control_generator(delivery), delivery.params, config)
    keys = mc._replication_keys(mc._seed_key(41), 0, mc.CHUNK)
    filtered = []

    def spy(b, a, x, **kw):
        filtered.append(x.shape)
        return lfilter(b, a, x, **kw)

    def run(key_slice, loop):
        with monkeypatch.context() as patch:
            patch.setattr(mc, "lfilter", spy)
            if loop:
                patch.setattr(mc, "_filters", lambda z, n: False)
            return mc._simulate_chunk(sim, keys[key_slice], 0, config.h, 1500, track_records=True)

    wide_rl, wide_resolved, (wide_rep, wide_times, wide_values) = run(slice(None), loop=True)
    assert filtered == []
    long_runs = np.flatnonzero(wide_rl > mc.BUF)
    assert long_runs.size >= 3 and not wide_resolved.all()
    for i in [*long_runs[:3], int(wide_rl.argmax())]:
        mine = wide_rep == i
        for loop in (False, True):
            del filtered[:]
            rl, resolved, (rep, times, values) = run(slice(i, i + 1), loop)
            assert bool(filtered) == (not loop) and len(filtered) % len(sim.runs) == 0
            np.testing.assert_array_equal(rl, wide_rl[i : i + 1])
            np.testing.assert_array_equal(resolved, wide_resolved[i : i + 1])
            np.testing.assert_array_equal(rep, np.zeros(mine.sum(), dtype=rep.dtype))
            np.testing.assert_array_equal(times, wide_times[mine])
            np.testing.assert_array_equal(values, wide_values[mine])


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


@pytest.mark.parametrize("victim", [0, 1])
def test_shutdown_right_after_a_worker_dies_returns(victim):
    """An idle survivor may hold the call queue's lock when its mate dies, so
    shutting the pool down must not wait for it. The script ends with
    os._exit, so that a stuck manager thread cannot hold up its exit."""
    _fork_pool_or_skip()
    script = (
        "import os, signal\n"
        "from score_mewma import mc\n"
        "mc.worker_pool(2)\n"
        f"os.kill(mc._pool[3][{victim}].pid, signal.SIGKILL)\n"
        "mc.shutdown_pool()\n"
        "print('stopped', flush=True)\n"
        "os._exit(0)\n"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:  # subprocess.run has killed the script
        pytest.fail("shutdown_pool did not return within 30 s of a worker's death")
    assert proc.returncode == 0 and proc.stdout == "stopped\n", proc.stderr


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


@pytest.mark.parametrize("chunk", [2048, 256, 100])
def test_run_lengths_do_not_depend_on_the_chunking(delivery, chart, monkeypatch, chunk):
    """A replication's stream depends only on (seed, rep), so any chunk size
    gives the run lengths, flags and record highs of one 2048-rep chunk."""
    gen = sm.in_control_generator(delivery)
    kw = dict(reps=2 * 256 + 37, max_rl=60, seed=23, track_records=True)
    expected = simulate_run_lengths(gen, delivery.params, chart, threads=1, **kw)
    assert expected.resolved.any() and not expected.resolved.all()
    monkeypatch.setattr(mc, "CHUNK", chunk)
    for threads in (1, 2):
        got = simulate_run_lengths(gen, delivery.params, chart, threads=threads, **kw)
        np.testing.assert_array_equal(got.run_lengths, expected.run_lengths)
        np.testing.assert_array_equal(got.resolved, expected.resolved)
        for a, b in zip(got.records, expected.records, strict=True):
            np.testing.assert_array_equal(a, b)


class _LazyPool:
    """A stand-in for the worker pool that runs a task when its result is
    read, and counts the tasks queued and neither read nor cancelled."""

    def __init__(self, fail_at=None):
        self.futures, self.most_in_flight, self.fail_at = [], 0, fail_at

    def submit(self, fn, *args):
        self.futures.append(_LazyFuture(fn, args, len(self.futures) == self.fail_at))
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        return self.futures[-1]

    @property
    def in_flight(self):
        return sum(not (f.read or f.cancelled) for f in self.futures)


class _LazyFuture:
    def __init__(self, fn, args, fails):
        self.fn, self.args, self.fails, self.read, self.cancelled = fn, args, fails, False, False

    def result(self):
        assert not self.cancelled
        self.read = True
        if self.fails:
            raise RuntimeError("chunk failed")
        return self.fn(*self.args)

    def cancel(self):
        self.cancelled = not self.read
        return self.cancelled


@pytest.mark.parametrize("threads", [1, 2])
def test_study_rows_equal_one_estimate_arl_per_row(delivery, chart, threads):
    """Row i of a study, run in one batch, is estimate_arl of its shifted
    generator with seed (seed..., i), bit for bit."""
    gen = sm.in_control_generator(delivery)
    grid = sm.StudyGrid(
        shift=sm.ShiftSpec("coefficient", ("beta24",), 0.0), c_values=(0.0, 1.0, 3.0), reps=150, chart=chart,
        max_rl=200,
    )
    rows = sm.run_arl_study(gen, delivery.params, grid, seed=6, threads=threads)
    pairs = sm.run_pair_study(
        gen, delivery.params, [("beta23", "beta24")], (2.0,), reps=120, chart=chart, seed=(8, 1), max_rl=200,
        threads=threads,
    )
    for seed, study in (((6,), rows), ((8, 1), pairs)):
        for i, row in enumerate(study):
            shifted = sm.apply_shift(gen, sm.ShiftSpec(row.shift_kind, row.targets, row.c))
            arl = sm.estimate_arl(shifted, delivery.params, chart, reps=row.arl.reps, max_rl=200, seed=seed + (i,))
            np.testing.assert_array_equal(row.arl.run_lengths, arl.run_lengths)
            assert (row.arl.mean_rl, row.arl.std_error, row.arl.censored) == (arl.mean_rl, arl.std_error, arl.censored)
    assert len(rows) == 3 and len(pairs) == 3


def test_a_study_keeps_at_most_two_chunks_per_worker_on_the_pool(delivery, chart, monkeypatch):
    """Three rows of seven chunks each on three workers: the batch keeps six
    chunks in flight, and the rows equal those run in process."""
    gen = sm.in_control_generator(delivery)
    grid = sm.StudyGrid(
        shift=sm.ShiftSpec("mean-odds", ("Y3",), 1.0), c_values=(1.0, 2.0, 4.0), reps=100, chart=chart, max_rl=200,
    )
    expected = sm.run_arl_study(gen, delivery.params, grid, seed=3, threads=1)
    pool = _LazyPool()
    monkeypatch.setattr(mc, "worker_pool", lambda workers: pool)
    monkeypatch.setattr(mc, "CHUNK", 16)
    rows = sm.run_arl_study(gen, delivery.params, grid, seed=3, threads=3)
    assert len(pool.futures) == 3 * 7 and pool.most_in_flight == mc.IN_FLIGHT * 3 == 6
    assert all(f.read for f in pool.futures)
    for got, want in zip(rows, expected, strict=True):
        np.testing.assert_array_equal(got.arl.run_lengths, want.arl.run_lengths)


@pytest.mark.parametrize("failure", ["chunk", "pass"])
def test_a_failing_pass_cancels_the_queued_chunks(delivery, chart, monkeypatch, failure):
    """A chunk that raises, or a pass whose simulation cannot be built,
    ends the batch, and no chunk still queued runs."""
    gen = sm.in_control_generator(delivery)
    pool = _LazyPool(fail_at=5 if failure == "chunk" else None)
    monkeypatch.setattr(mc, "worker_pool", lambda workers: pool)
    monkeypatch.setattr(mc, "CHUNK", 16)
    params = [delivery.params] * 2 + [delivery.params if failure == "chunk" else two_node_model().params]
    passes = [(gen, p, chart, 100, 200, (2, i), None, False) for i, p in enumerate(params)]
    with pytest.raises(RuntimeError if failure == "chunk" else sm.ModelConfigError):
        mc._simulate_passes(passes, threads=2)
    # a window of 4: chunk 5 fails when read, before chunk 9 is queued, so
    # chunks 6 to 8 are queued; the third pass fails after chunk 13 is queued
    queued = [6, 7, 8] if failure == "chunk" else [10, 11, 12, 13]
    assert [i for i, f in enumerate(pool.futures) if f.cancelled] == queued
    assert pool.in_flight == 0 and len(pool.futures) == queued[-1] + 1


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(reps=0), "reps must be at least 1"),
        (dict(max_rl=mc.MAX_RL + 1), "max_rl must be at most"),
        (dict(cap=float("nan")), "cap must be a number"),
        (dict(seed=-1), "seed"),
    ],
    ids=["reps", "max_rl", "cap", "seed"],
)
def test_no_chunk_is_queued_when_a_later_pass_fails_its_checks(delivery, chart, monkeypatch, bad, match):
    def forbidden(*args, **kwargs):
        raise AssertionError("a simulation was built before every pass was checked")

    pool = _LazyPool()
    monkeypatch.setattr(mc, "worker_pool", lambda workers: pool)
    monkeypatch.setattr(mc, "_CompiledSim", forbidden)
    good = dict(generator=sm.in_control_generator(delivery), params0=delivery.params, config=chart, reps=100,
                max_rl=200, seed=1, cap=None, track_records=False)
    passes = [tuple(good.values()), tuple(dict(good, **bad).values())]
    with pytest.raises(sm.ModelConfigError, match=match):
        mc._simulate_passes(passes, threads=2)
    assert pool.futures == []


def test_a_one_chunk_batch_never_reaches_the_pool(delivery, chart, monkeypatch):
    """At two workers a one-chunk simulation and the one-chunk passes of a
    calibration run in process, bit for bit as at one worker; a pass of two
    chunks still queues both."""
    gen = sm.in_control_generator(delivery)
    pool = _LazyPool()
    monkeypatch.setattr(mc, "worker_pool", lambda workers: pool)
    kw = dict(reps=300, max_rl=200, seed=4, track_records=True)
    expected = simulate_run_lengths(gen, delivery.params, chart, threads=1, **kw)
    got = simulate_run_lengths(gen, delivery.params, chart, threads=2, **kw)
    cal_kw = dict(target_arl=25.0, reps_schedule=(100, 300), seed=12)
    cal_expected = sm.calibrate_h(gen, delivery.params, chart, threads=1, **cal_kw)
    cal_got = sm.calibrate_h(gen, delivery.params, chart, threads=2, **cal_kw)
    assert pool.futures == []
    for a, b in zip((got.run_lengths, got.resolved, *got.records),
                    (expected.run_lengths, expected.resolved, *expected.records), strict=True):
        np.testing.assert_array_equal(a, b)
    assert cal_got == cal_expected
    np.testing.assert_array_equal(cal_got.achieved_arl.run_lengths, cal_expected.achieved_arl.run_lengths)
    monkeypatch.setattr(mc, "CHUNK", 150)
    two = simulate_run_lengths(gen, delivery.params, chart, threads=2, **kw)
    assert len(pool.futures) == 2 and all(f.read for f in pool.futures)
    for a, b in zip((two.run_lengths, two.resolved, *two.records),
                    (expected.run_lengths, expected.resolved, *expected.records), strict=True):
        np.testing.assert_array_equal(a, b)
