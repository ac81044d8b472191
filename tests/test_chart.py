import numpy as np
import pytest
from scipy.special import expit

import score_mewma as sm
from score_mewma import chart
from score_mewma.chart import ASYMPTOTIC, EXACT_RECURSIVE
from score_mewma.errors import ModelConfigError, SingularMatrixError
from score_mewma.likelihood import score_rows
from score_mewma.model import MISSING, node_designs, node_eta, type_bits


def _config(p=2, r=0.1, h=None, **kw):
    return sm.ChartConfig(sigma_s=np.eye(p), r=r, h=h, **kw)


def test_init_state_zero():
    state = sm.init_state(_config())
    assert state.t == 0
    assert np.all(state.w == 0.0)
    assert np.all(state.sigma_w == 0.0)


def test_update_r_one_copies_score():
    state = sm.init_state(_config(r=1.0, h=100.0))
    state, t2, signal = sm.update(state, np.array([3.0, 4.0]))
    np.testing.assert_array_equal(state.w, [3.0, 4.0])
    assert abs(t2 - 25.0) < 1e-12
    assert not signal


def test_zero_scores_never_signal():
    state = sm.init_state(_config(h=1e-9))
    for _ in range(20):
        state, t2, signal = sm.update(state, np.zeros(2))
        assert t2 == 0.0
        assert not signal
    assert np.all(state.w == 0.0)


def test_t2_nonnegative_and_zero_iff_w_zero():
    rng = np.random.default_rng(0)
    state = sm.init_state(_config(r=0.2, h=1e9))
    for _ in range(50):
        state, t2, _ = sm.update(state, rng.normal(size=2))
        assert t2 >= 0.0
        assert (t2 == 0.0) == bool(np.all(state.w == 0.0))


def test_closed_form_special_cases():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(sm.sigma_w_closed_form(5, 1.0, sigma), sigma)
    np.testing.assert_allclose(sm.sigma_w_closed_form(1, 0.25, sigma), 0.0625 * sigma)
    # geometric limit r / (2 - r)
    np.testing.assert_allclose(sm.sigma_w_closed_form(10_000, 0.3, sigma), (0.3 / 1.7) * sigma, rtol=1e-12)
    with pytest.raises(ModelConfigError):
        sm.sigma_w_closed_form(3, np.array([0.1, 0.2]), sigma)


@pytest.mark.parametrize("r", [0.05, 0.1, 0.3, 1.0])
def test_recursion_matches_closed_form(r):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    sigma = a @ a.T + 3 * np.eye(3)
    config = sm.ChartConfig(sigma_s=sigma, r=r, h=1e12)
    state = sm.init_state(config)
    for t in range(1, 301):
        state, _, _ = sm.update(state, rng.normal(size=3))
        closed = sm.sigma_w_closed_form(t, r, sigma)
        err = np.max(np.abs(state.sigma_w - closed)) / np.max(np.abs(closed))
        assert err < 1e-12


def test_update_linearity():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(30, 2))
    alpha = 3.7

    def run(scale):
        state = sm.init_state(_config(r=0.1, h=1e9))
        t2s = []
        for s in scores:
            state, t2, _ = sm.update(state, scale * s)
            t2s.append(t2)
        return state.w, np.array(t2s)

    w1, t1 = run(1.0)
    w2, t2 = run(alpha)
    np.testing.assert_allclose(w2, alpha * w1, rtol=1e-12)
    np.testing.assert_allclose(t2, alpha**2 * t1, rtol=1e-10)


def test_t2_invariant_under_reparameterization():
    rng = np.random.default_rng(7)
    p = 4
    base = rng.normal(size=(p, p))
    sigma = base @ base.T + p * np.eye(p)
    scores = rng.normal(size=(40, p))
    amat = rng.normal(size=(p, p)) + 2 * np.eye(p)

    def run(sig, transform):
        config = sm.ChartConfig(sigma_s=sig, r=0.1, h=1e9)
        state = sm.init_state(config)
        out = []
        for s in scores:
            state, t2, _ = sm.update(state, transform @ s)
            out.append(t2)
        return np.array(out)

    plain = run(sigma, np.eye(p))
    mapped = run(amat @ sigma @ amat.T, amat)
    np.testing.assert_allclose(mapped, plain, rtol=1e-8)


def test_r_one_reduces_to_hotelling():
    rng = np.random.default_rng(9)
    base = rng.normal(size=(3, 3))
    sigma = base @ base.T + 3 * np.eye(3)
    inv = np.linalg.inv(sigma)
    config = sm.ChartConfig(sigma_s=sigma, r=1.0, h=1e9)
    state = sm.init_state(config)
    for _ in range(10):
        s = rng.normal(size=3)
        state, t2, _ = sm.update(state, s)
        assert abs(t2 - s @ inv @ s) < 1e-10


def test_asymptotic_mode_constant_covariance():
    sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
    config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=1e9, covariance_mode=ASYMPTOTIC)
    state = sm.init_state(config)
    expected = (0.1 / 1.9) * sigma
    for _ in range(5):
        state, _, _ = sm.update(state, np.array([0.3, -0.2]))
        np.testing.assert_allclose(state.sigma_w, expected, rtol=1e-12)


# two uncorrelated blocks of two coordinates, as Sigma_S is block-diagonal by node
_BLOCK_SIGMA = np.array([[1.0, 0.5, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0], [0.0, 0.0, 1.5, -0.3], [0.0, 0.0, -0.3, 1.0]])


def _asymptotic_oracle(r, sigma):
    """The stationary covariance of the recursion: r_i r_j / (r_i + r_j - r_i r_j) Sigma_ij."""
    rr = np.outer(r, r)
    return rr / (r[:, None] + r[None, :] - rr) * sigma


@pytest.mark.parametrize("r", [0.1, (0.1, 0.1, 0.4, 0.4)])
@pytest.mark.parametrize("mode", [EXACT_RECURSIVE, ASYMPTOTIC])
def test_state_sigma_w_matches_covariance_recursion(r, mode):
    """Sigma_W,t = R Sigma_S R + (I - R) Sigma_W,t-1 (I - R), at one r and at
    one r per block, and T2 is w' Sigma_W,t^{-1} w under that covariance."""
    sigma = _BLOCK_SIGMA
    config = sm.ChartConfig(sigma_s=sigma, r=r, h=1e9, covariance_mode=mode)
    rv = config.r_vec
    rr, qq = np.outer(rv, rv), np.outer(1.0 - rv, 1.0 - rv)
    state = sm.init_state(config)
    assert np.all(state.sigma_w == 0.0)
    expected = np.zeros((4, 4))
    scores = np.random.default_rng(2).standard_normal((10_000, 4))
    for s in scores:
        state, t2, _ = sm.update(state, s)
        expected = rr * sigma + qq * expected if mode == EXACT_RECURSIVE else _asymptotic_oracle(rv, sigma)
        err = np.max(np.abs(state.sigma_w - expected)) / np.max(np.abs(expected))
        assert err < 1e-12, (state.t, err)
        assert abs(t2 - state.w @ np.linalg.solve(expected, state.w)) <= 1e-9 * t2, state.t


def test_unequal_r_asymptotic_matrix():
    r = np.array([0.1, 0.1, 0.4, 0.4])
    config = sm.ChartConfig(sigma_s=_BLOCK_SIGMA, r=tuple(r), h=1.0, covariance_mode=ASYMPTOTIC)
    for t in (1, 50):
        inf = config.t2_evaluator.sigma_w(t)
        for i in range(4):
            for j in range(4):
                expect = r[i] * r[j] / (r[i] + r[j] - r[i] * r[j]) * _BLOCK_SIGMA[i, j]
                assert abs(inf[i, j] - expect) < 1e-12


def test_different_r_on_correlated_coordinates_is_rejected():
    """r may differ between uncorrelated blocks only; the error names the first such pair."""
    sigma = _BLOCK_SIGMA
    names = ("a1", "a2", "b1", "b2")
    for r, pair in (((0.1, 0.2, 0.2, 0.2), "a1 and a2"), ((0.1, 0.1, 0.1, 0.4), "b1 and b2")):
        with pytest.raises(ModelConfigError, match=f"coordinates {pair} are correlated"):
            sm.ChartConfig(sigma_s=sigma, r=r, coord_names=names)
    with pytest.raises(ModelConfigError, match="coordinates 2 and 3 are correlated"):
        sm.ChartConfig(sigma_s=sigma, r=(0.1, 0.1, 0.2, 0.3))
    sm.ChartConfig(sigma_s=sigma, r=(0.1, 0.1, 0.4, 0.4))
    sm.ChartConfig(sigma_s=np.eye(4), r=(0.1, 0.2, 0.3, 0.4))


def test_warmup_suppresses_signal():
    config = _config(r=1.0, h=1.0, warmup=3)
    state = sm.init_state(config)
    big = np.array([10.0, 10.0])
    state, t2, signal = sm.update(state, big)
    assert t2 > 1.0 and not signal
    state, _, signal = sm.update(state, big)
    assert not signal
    state, _, signal = sm.update(state, big)
    assert signal


def test_singularity_error_names_coordinates():
    config = sm.ChartConfig(
        sigma_s=np.diag([1.0, 1e-13]), r=0.5, h=1.0, coord_names=("good", "bad")
    )
    state = sm.init_state(config)
    with pytest.raises(SingularMatrixError, match="bad"):
        sm.update(state, np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "r, mode", [(0.5, EXACT_RECURSIVE), (0.5, ASYMPTOTIC), ((0.5, 0.2), EXACT_RECURSIVE), ((0.5, 0.2), ASYMPTOTIC)]
)
def test_update_and_kernel_raise_the_same_singularity_error(r, mode):
    model = sm.model_from_dict(
        {
            "covariates": [{"id": "X1", "kind": "process", "prevalence": 0.4}],
            "nodes": [
                {
                    "id": "Y1",
                    "intercept": {"coef_name": "good", "value": -0.5},
                    "process_parents": [{"var": "X1", "coef_name": "bad", "value": 0.8}],
                }
            ],
        }
    )
    config = sm.ChartConfig(
        sigma_s=np.diag([1.0, 1e-13]), r=r, h=1.0, covariance_mode=mode, coord_names=("good", "bad")
    )
    with pytest.raises(SingularMatrixError) as by_update:
        sm.update(sm.init_state(config), np.array([1.0, 1.0]))
    gen = sm.in_control_generator(model)
    with pytest.raises(SingularMatrixError) as by_kernel:
        sm.estimate_arl(gen, model.params, config, reps=4, max_rl=20, seed=0)
    assert str(by_update.value) == str(by_kernel.value)
    assert str(by_update.value).endswith("offending coordinates: bad, good")


def test_config_validation():
    with pytest.raises(ModelConfigError):
        sm.ChartConfig(sigma_s=np.eye(2), r=0.0)
    with pytest.raises(ModelConfigError):
        sm.ChartConfig(sigma_s=np.eye(2), r=1.2)
    with pytest.raises(ModelConfigError):
        sm.ChartConfig(sigma_s=np.eye(2), r=0.1, h=-2.0)
    with pytest.raises(ModelConfigError):
        sm.ChartConfig(sigma_s=np.array([[1.0, 0.9], [0.2, 1.0]]), r=0.1)
    with pytest.raises(ModelConfigError):
        sm.ChartConfig(sigma_s=np.array([[1.0, 2.0], [2.0, 1.0]]), r=0.1)
    with pytest.raises(ModelConfigError):
        sm.ChartConfig(sigma_s=np.eye(2), r=0.1, covariance_mode="other")
    with pytest.raises(ModelConfigError, match="coord_names"):
        sm.ChartConfig(sigma_s=np.eye(2), r=0.1, coord_names=("a",))


def test_run_stream_empty_and_stop(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=1e-12)
    assert list(sm.run_stream(delivery.spec, delivery.params, config, [])) == []
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 50, 3)
    trace = list(sm.run_stream(delivery.spec, delivery.params, config, data, stop_at_signal=True))
    assert len(trace) == 1 and trace[0][2]


def test_run_stream_matches_manual_updates(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=50.0)
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 20, 8)
    state = sm.init_state(config)
    expected = []
    for record in data.records():
        s = sm.per_record_scores(delivery.spec, delivery.params, [record])[0]
        state, t2, signal = sm.update(state, s)
        expected.append((state.t, t2, signal))
    assert list(sm.run_stream(delivery.spec, delivery.params, config, data)) == expected


@pytest.mark.parametrize("nx", [1, 3])
def test_run_stream_rejects_rows_laid_out_for_another_model(delivery, nx):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=50.0)
    record = sm.PatientRecord(x=np.zeros(nx), z=np.zeros(2), y=np.zeros(4))
    with pytest.raises(ModelConfigError, match=rf"\({nx}, 2, 4\).*\(2, 2, 4\)"):
        list(sm.run_stream(delivery.spec, delivery.params, config, [record]))


def _one_row_scores(delivery, bits):
    """The score row of one bit row by ``score_rows``, as run_stream scores a memo miss."""
    designs = node_designs(delivery.spec)
    row = np.asarray(bits, dtype=float)[None, :]
    means = [expit(node_eta(d, delivery.params.values[d.param_indices], row)) for d in designs]
    return score_rows(designs, row, means)[0]


def _streamed_scores(monkeypatch, delivery, config, records):
    """The score rows run_stream hands to ``update``, and its trace."""
    seen = []

    def recording_update(state, s_t):
        seen.append(s_t)
        return sm.update(state, s_t)

    monkeypatch.setattr(chart, "update", recording_update)
    trace = list(sm.run_stream(delivery.spec, delivery.params, config, records))
    return seen, trace


def _delivery_config(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    return sm.ChartConfig(sigma_s=sigma, r=0.1, h=50.0)


def test_run_stream_memo_rows_equal_one_row_scores_for_every_type(delivery, monkeypatch):
    types = type_bits(sum(delivery.spec.widths))
    records = [sm.PatientRecord.from_bits(delivery.spec, b) for b in np.concatenate([types, types[::-1]])]
    seen, _ = _streamed_scores(monkeypatch, delivery, _delivery_config(delivery), records)
    assert len(seen) == 2 * len(types) == 512
    for record, s in zip(records, seen):  # the second pass reads every row from the memo
        assert s.tobytes() == _one_row_scores(delivery, record.bits).tobytes()


def test_run_stream_scores_fractional_and_negative_zero_bits_as_one_rows(delivery, monkeypatch):
    zero = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    fractional, negative_zero = zero.copy(), zero.copy()
    fractional[0] = 0.5
    negative_zero[0] = -0.0
    rows = [zero, fractional, negative_zero, zero, negative_zero, fractional]
    records = [sm.PatientRecord.from_bits(delivery.spec, b) for b in rows]
    config = _delivery_config(delivery)
    seen, trace = _streamed_scores(monkeypatch, delivery, config, records)
    # -0.0 flips the sign of the zero score entries of its column, so it is not the 0.0 row
    assert seen[2].tobytes() != seen[0].tobytes()
    state, expected = sm.init_state(config), []
    for row, s in zip(rows, seen):
        one = _one_row_scores(delivery, row)
        assert s.tobytes() == one.tobytes()
        state, t2, signal = sm.update(state, one)
        expected.append((state.t, t2, signal))
    assert trace == expected


def test_run_stream_past_the_memo_bound_gives_the_same_trace(delivery, monkeypatch):
    config = _delivery_config(delivery)
    data = sm.sample_patients(sm.in_control_generator(delivery), 400, 11)
    full = list(sm.run_stream(delivery.spec, delivery.params, config, data))
    monkeypatch.setattr(sm.model, "ENUM_LIMIT", 1)  # a memo of 2 rows
    assert list(sm.run_stream(delivery.spec, delivery.params, config, data)) == full


def test_run_stream_rejects_a_missing_outcome_after_memo_hits(delivery):
    complete = np.zeros(8)
    missing = complete.copy()
    missing[-1] = MISSING
    records = [sm.PatientRecord.from_bits(delivery.spec, b) for b in (complete, complete, missing)]
    stream = sm.run_stream(delivery.spec, delivery.params, _delivery_config(delivery), records)
    assert len([next(stream), next(stream)]) == 2
    with pytest.raises(ModelConfigError, match="missing outcomes"):
        next(stream)
