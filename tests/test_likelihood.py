import math

import numpy as np
import pytest
from scipy.special import expit

import score_mewma as sm
from score_mewma.errors import DataFormatError, FitError, ModelConfigError, SeparationError, SingularMatrixError
from score_mewma.likelihood import node_design_matrix

from conftest import (
    delivery_with_risk_factors,
    fd_gradient,
    fd_hessian,
    intercept_only_data,
    intercept_only_model,
    two_node_model,
)


def _loglik_fun(spec, template, data):
    return lambda theta: sm.log_likelihood(spec, template.with_values(theta), data)


def test_loglik_intercept_only_zero_theta():
    m = intercept_only_model(0.0)
    data = intercept_only_data([1])
    assert abs(sm.log_likelihood(m.spec, m.params, data) - (-math.log(2))) < 1e-12
    data = intercept_only_data([0, 1, 1, 0, 1])
    assert abs(sm.log_likelihood(m.spec, m.params, data) - (-5 * math.log(2))) < 1e-12


def test_loglik_matches_factorization_oracle(delivery):
    from conftest import oracle_record_loglik

    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 1000, 123)
    direct = sum(oracle_record_loglik(delivery.spec, delivery.params, data.record(i)) for i in range(len(data)))
    ll = sm.log_likelihood(delivery.spec, delivery.params, data)
    assert abs(ll - direct) / abs(direct) < 1e-10
    # per record as well
    for i in range(0, 1000, 197):
        one = sm.PatientData(x=data.x[i : i + 1], z=data.z[i : i + 1], y=data.y[i : i + 1])
        assert abs(
            sm.log_likelihood(delivery.spec, delivery.params, one)
            - oracle_record_loglik(delivery.spec, delivery.params, data.record(i))
        ) < 1e-10


def test_loglik_stable_for_large_eta():
    m = intercept_only_model(800.0)
    val = sm.log_likelihood(m.spec, m.params, intercept_only_data([0]))
    assert val == -800.0  # log(1 + exp(800)) == 800 to machine precision


def test_score_intercept_only():
    m = intercept_only_model(0.0)
    s = sm.score(m.spec, m.params, intercept_only_data([1]))
    assert abs(s[0] - 0.5) < 1e-12


def test_score_matches_fd_gradient(delivery):
    gen = sm.in_control_generator(delivery)
    rng = np.random.default_rng(5)
    for trial in range(3):
        data = sm.sample_patients(gen, 60, 100 + trial)
        theta = delivery.params.values + rng.normal(0, 0.4, len(delivery.params))
        params = delivery.params.with_values(theta)
        s = sm.score(delivery.spec, params, data)
        g = fd_gradient(_loglik_fun(delivery.spec, delivery.params, data), theta)
        assert np.max(np.abs(s - g)) / np.max(np.abs(g)) < 1e-5


def test_information_matches_fd_hessian(delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 50, 7)
    rng = np.random.default_rng(8)
    theta = delivery.params.values + rng.normal(0, 0.3, len(delivery.params))
    params = delivery.params.with_values(theta)
    info = sm.fisher_information(delivery.spec, params, data)
    hess = fd_hessian(_loglik_fun(delivery.spec, delivery.params, data), theta)
    assert np.max(np.abs(info + hess)) / np.max(np.abs(info)) < 1e-5


def test_information_block_structure(delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 200, 3)
    info = sm.fisher_information(delivery.spec, delivery.params, data)
    blocks = delivery.params.block_map
    for a in delivery.spec.node_ids:
        for b in delivery.spec.node_ids:
            if a == b:
                continue
            sa, ea = blocks[a]
            sb, eb = blocks[b]
            assert np.all(info[sa:ea, sb:eb] == 0.0)
    np.testing.assert_array_equal(info, info.T)


def test_information_intercept_only_quarter_n():
    m = intercept_only_model(0.0)
    info = sm.fisher_information(m.spec, m.params, intercept_only_data([0, 1] * 10))
    assert abs(info[0, 0] - 20 / 4) < 1e-12


def test_expected_score_covariance_intercept_only():
    m = intercept_only_model(-1.0)
    mu = sm.mean_response(-1.0)
    cov = sm.expected_score_covariance(m.spec, m.params, m.covariates)
    assert cov.mode == "exact"
    assert abs(cov.values[0, 0] - mu * (1 - mu)) < 1e-14


def test_expected_score_covariance_exact_vs_mc(delivery, monkeypatch):
    exact = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates)
    monkeypatch.setattr(sm.model, "ENUM_LIMIT", 0)
    mc = sm.expected_score_covariance(
        delivery.spec, delivery.params, delivery.covariates, mc_samples=100_000, seed=4
    )
    assert mc.mode == "monte-carlo"
    gap = np.abs(exact.values - mc.values)
    assert np.all(gap <= 3.0 * mc.mc_se + 1e-12)


def test_expected_score_covariance_above_the_limit_is_monte_carlo():
    big = delivery_with_risk_factors(9)  # 17 binary variables
    cov = sm.expected_score_covariance(big.spec, big.params, big.covariates)
    assert cov.mode == "monte-carlo" and cov.mc_samples == 100_000


def test_score_sample_covariance_matches_sigma_s(delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 50_000, 12)
    scores = sm.per_record_scores(delivery.spec, delivery.params, data)
    sample_cov = np.cov(scores, rowvar=False)
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    prod = scores[:, :, None] * scores[:, None, :]
    se = prod.std(axis=0, ddof=1) / math.sqrt(len(data))
    assert np.all(np.abs(sample_cov - sigma) <= 3.5 * se + 1e-12)
    # scores have mean zero in control
    mean_se = scores.std(axis=0, ddof=1) / math.sqrt(len(data))
    assert np.all(np.abs(scores.mean(axis=0)) <= 4.0 * mean_se)


def test_fit_mle_intercept_only_closed_form():
    m = intercept_only_model(0.0)
    data = intercept_only_data([1] * 7 + [0] * 13)
    fit = sm.fit_mle(m.spec, data)
    assert abs(fit.params["a1"] - math.log(7 / 13)) < 1e-8
    assert fit.converged


def test_fit_mle_score_zero_at_optimum(delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 3000, 9)
    fit = sm.fit_mle(delivery.spec, data)
    s = sm.score(delivery.spec, fit.params, data)
    assert np.max(np.abs(s)) < 1e-8
    assert np.all(np.isfinite(fit.std_errors))


def test_fit_mle_separation_detected():
    m = two_node_model()
    rng = np.random.default_rng(2)
    n = 200
    x = rng.integers(0, 2, (n, 1)).astype(np.int8)
    z = rng.integers(0, 2, (n, 1)).astype(np.int8)
    y1 = x[:, 0]  # X1 predicts Y1 perfectly
    y2 = rng.integers(0, 2, n).astype(np.int8)
    data = sm.PatientData(x=x, z=z, y=np.column_stack([y1, y2]))
    with pytest.raises(SeparationError, match="Y1"):
        sm.fit_mle(m.spec, data)


@pytest.mark.parametrize("seed", [50_003, 50_017])
def test_fit_mle_restart_from_converged_fit(delivery, seed):
    # acceptance criterion 9's data: near the optimum a Newton step raises the
    # log-likelihood by less than the roundoff of its sum, and a line search
    # that demands a strict rise stalls short of the score tolerance
    data = sm.sample_patients(sm.in_control_generator(delivery), 5000, seed)
    fit = sm.fit_mle(delivery.spec, data, params_init=delivery.params)
    again = sm.fit_mle(delivery.spec, data, params_init=fit.params)
    assert again.converged
    np.testing.assert_allclose(again.params.values, fit.params.values, rtol=0, atol=1e-10)
    for start, result in ((delivery.params, fit), (fit.params, again)):
        assert result.log_likelihood >= sm.log_likelihood(delivery.spec, start, data)
    assert all(r.estimator == "mle" and r.separation == "none" for r in fit.node_reports)


def _two_node_cells(cells, seed):
    """Y1 from (x1, z1, y1, count) cells of the two-node model; Y2 is noise."""
    rows = [(x1, z1, y1) for x1, z1, y1, count in cells for _ in range(count)]
    x1, z1, y1 = (np.array(col, dtype=np.int8).reshape(-1, 1) for col in zip(*rows))
    y2 = np.random.default_rng(seed).integers(0, 2, (len(rows), 1)).astype(np.int8)
    return sm.PatientData(x=x1, z=z1, y=np.hstack([y1, y2]))


def test_fit_mle_quasi_separation_gives_firth():
    m = two_node_model()
    # Y1 is all 0 at X1 = 1 but mixed at X1 = 0: the MLE of b11 is -infinity
    data = _two_node_cells(
        [(0, 0, 0, 30), (0, 0, 1, 20), (0, 1, 0, 25), (0, 1, 1, 15), (1, 0, 0, 40), (1, 1, 0, 30)], 3
    )
    fit = sm.fit_mle(m.spec, data)
    y1, y2 = fit.node_reports
    assert (y1.separation, y1.estimator) == ("quasi-complete", "firth")
    assert (y2.separation, y2.estimator) == ("none", "mle")
    assert np.all(np.isfinite(fit.params.values)) and np.all(np.isfinite(fit.std_errors))
    assert fit.params["b11"] < -2.0
    # Firth's modified score, U'(y - mu + h (1/2 - mu)), vanishes row by row
    u, y = node_design_matrix(m.spec, data, 0)
    mu = expit(u @ fit.params.block("Y1"))
    w = mu * (1.0 - mu)
    hat = w * np.einsum("ij,jk,ik->i", u, np.linalg.inv(u.T @ (u * w[:, None])), u)
    assert np.max(np.abs(u.T @ (y - mu + hat * (0.5 - mu)))) < 1e-8


def test_fit_mle_unseparated_without_spanning_mixed_patterns():
    m = two_node_model()
    # only (X1, Z1) = (0, 0) and (1, 1) see both outcomes, so the quick rank
    # test is inconclusive; the linear programs find no separating direction
    data = _two_node_cells(
        [(0, 0, 0, 30), (0, 0, 1, 20), (1, 1, 0, 25), (1, 1, 1, 25), (0, 1, 1, 30), (1, 0, 1, 30)], 4
    )
    fit = sm.fit_mle(m.spec, data)
    assert (fit.node_reports[0].separation, fit.node_reports[0].estimator) == ("none", "mle")
    assert np.max(np.abs(sm.score(m.spec, fit.params, data))) < 1e-8


def test_fit_mle_rejects_non_binary_data():
    m = two_node_model()
    data = _two_node_cells([(0, 0, 0, 10), (1, 1, 1, 10), (0, 1, 1, 10), (1, 0, 0, 10)], 5)
    bad = sm.PatientData(x=data.x * 2, z=data.z, y=data.y)
    with pytest.raises(DataFormatError):
        sm.fit_mle(m.spec, bad)


def test_per_record_scores_rejects_missing_outcome():
    m = two_node_model()
    x, z = np.array([1], dtype=np.int8), np.array([0], dtype=np.int8)
    good = sm.PatientRecord(x=x, z=z, y=np.array([1, 0], dtype=np.int8))
    missing = sm.PatientRecord(x=x, z=z, y=np.array([1, sm.model.MISSING], dtype=np.int8))
    assert sm.per_record_scores(m.spec, m.params, [good]).shape == (1, len(m.params.names))
    with pytest.raises(ModelConfigError, match="missing outcomes"):
        sm.per_record_scores(m.spec, m.params, [good, missing])


def _wide_spec(n_parents):
    ids = tuple(f"X{j}" for j in range(n_parents))
    node = sm.NodeSpec(id="Y1", intercept_name="a1", process_parents=tuple((x, f"b{j}") for j, x in enumerate(ids)))
    return sm.DagModelSpec(nodes=(node,), process_ids=ids, risk_ids=())


def _wide_data(x, y):
    return sm.PatientData(x=x, z=np.zeros((len(x), 0), dtype=np.int8), y=y.reshape(-1, 1))


def test_fit_mle_parent_limit():
    # design rows are keyed by their bits as one int64: the intercept and 62
    # parents use bits 0 to 62, the most that fit
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, (1000, 62)).astype(np.int8)
    y = (rng.random(1000) < expit(0.3 * x[:, 61] - 0.3 * x[:, 0])).astype(np.int8)
    spec, data = _wide_spec(62), _wide_data(x, y)
    fit = sm.fit_mle(spec, data)
    assert fit.converged
    assert np.max(np.abs(sm.score(spec, fit.params, data))) < 1e-8
    with pytest.raises(ModelConfigError, match="at most 62 parents"):
        sm.fit_mle(_wide_spec(63), _wide_data(np.zeros((5, 63), dtype=np.int8), np.zeros(5, dtype=np.int8)))


def test_fit_block_independence():
    m = two_node_model()
    gen = sm.in_control_generator(m)
    data = sm.sample_patients(gen, 800, 31)
    fit = sm.fit_mle(m.spec, data)
    # permuting the later node's outcomes cannot change the Y1 block
    y = data.y.copy()
    y[:, 1] = np.random.default_rng(1).permutation(y[:, 1])
    fit2 = sm.fit_mle(m.spec, sm.PatientData(x=data.x, z=data.z, y=y))
    np.testing.assert_array_equal(fit.params.block("Y1"), fit2.params.block("Y1"))


def test_inverse_sqrt_psd():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    mat = a @ a.T + 6 * np.eye(6)
    root = sm.inverse_sqrt_psd(mat)
    np.testing.assert_allclose(root @ mat @ root, np.eye(6), atol=1e-10)
    with pytest.raises(SingularMatrixError):
        sm.inverse_sqrt_psd(np.diag([1.0, 1e-14]))


def test_cumulative_score_zero_cases(delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 40, 2)
    path0 = sm.standardized_cumulative_score(delivery.spec, delivery.params, data, t=0)
    assert np.all(path0 == 0.0)
    # mirrored pairs cancel: duplicate each record with flipped response of a
    # symmetric intercept-only model
    m = intercept_only_model(0.0)
    pairs = intercept_only_data([1, 0, 1, 0])
    path = sm.standardized_cumulative_score(m.spec, m.params, pairs)
    assert abs(path[1, 0]) < 1e-12 and abs(path[3, 0]) < 1e-12


def test_cumulative_score_variance_scaling(delivery):
    gen = sm.in_control_generator(delivery)
    info = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    reps, n = 400, 300
    at_half, at_full = [], []
    for rep in range(reps):
        data = sm.sample_patients(gen, n, sm.replication_rng(2024, rep))
        path = sm.standardized_cumulative_score(delivery.spec, delivery.params, data, info=info)
        at_half.append(path[n // 2 - 1])
        at_full.append(path[-1])
    for block, target in ((np.array(at_half), 0.5), (np.array(at_full), 1.0)):
        var = block.var(axis=0, ddof=1)
        se = target * math.sqrt(2.0 / (reps - 1))
        assert np.all(np.abs(var - target) < 4.0 * se)


def test_cumulative_score_singular_info(delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 30, 3)
    bad = np.zeros((17, 17))
    with pytest.raises(SingularMatrixError):
        sm.standardized_cumulative_score(delivery.spec, delivery.params, data, info=bad)


def test_expected_score_covariance_rejects_few_mc_samples(delivery):
    with pytest.raises(sm.ModelConfigError, match="at least 100000"):
        sm.expected_score_covariance(
            delivery.spec, delivery.params, delivery.covariates, mc_samples=10
        )


def test_expected_score_covariance_rejects_too_many_mc_samples(delivery):
    """The bound holds at any model size, as the minimum does, and is checked
    before any patient is drawn."""
    with pytest.raises(sm.ModelConfigError, match="at most 10000000, got 10000001"):
        sm.expected_score_covariance(
            delivery.spec, delivery.params, delivery.covariates, mc_samples=sm.likelihood.MAX_MC_SAMPLES + 1
        )


def test_fit_mle_reports_log_likelihood_bit_equal(delivery):
    data = sm.sample_patients(sm.in_control_generator(delivery), 2000, 8)
    fit = sm.fit_mle(delivery.spec, data, params_init=delivery.params)
    assert fit.log_likelihood == sm.log_likelihood(delivery.spec, fit.params, data)
    bad = sm.PatientData(x=data.x * 2, z=data.z, y=data.y)
    with pytest.raises(DataFormatError):
        sm.log_likelihood(delivery.spec, delivery.params, bad)


@pytest.mark.parametrize("nx", [1, 3])
def test_rows_laid_out_for_another_model_are_rejected(delivery, nx):
    # at width 3 the third x column would otherwise be read as Z1
    record = sm.PatientRecord(x=np.zeros(nx), z=np.zeros(2), y=np.zeros(4))
    data = sm.PatientData.from_records([record] * 3)
    widths = rf"\({nx}, 2, 4\).*\(2, 2, 4\)"
    with pytest.raises(ModelConfigError, match=widths):
        sm.per_record_scores(delivery.spec, delivery.params, [record])
    with pytest.raises(ModelConfigError, match=widths):
        sm.log_likelihood(delivery.spec, delivery.params, data)
    with pytest.raises(ModelConfigError, match=widths):
        sm.fit_mle(delivery.spec, data)


def test_fit_mle_rejects_params_init_of_another_layout(delivery):
    data = sm.sample_patients(sm.in_control_generator(delivery), 50, 0)
    with pytest.raises(ModelConfigError, match="params_init does not match the model's coefficient layout"):
        sm.fit_mle(delivery.spec, data, params_init=two_node_model().params)


def _in_control_sample(n):
    model = sm.default_delivery_model()
    return model.spec, sm.sample_patients(sm.in_control_generator(model), n, 60 + n), model.params


def _two_node_sample(cells, seed):
    return two_node_model().spec, _two_node_cells(cells, seed), None


def _sparse_sample():
    # 300 patients of a 16-bit model: at most 300 of its 65,536 types are seen,
    # and its first node has 1,024 parent keys, more than the records
    model = delivery_with_risk_factors(8)
    return model.spec, sm.sample_patients(sm.in_control_generator(model), 300, 5), model.params


_CELL_PATH_SAMPLES = {
    **{f"in-control-{n}": (lambda n=n: _in_control_sample(n)) for n in (1, 5, 300, 2000)},
    # the samples of test_fit_mle_quasi_separation_gives_firth and of
    # test_fit_mle_unseparated_without_spanning_mixed_patterns
    "firth": lambda: _two_node_sample(
        [(0, 0, 0, 30), (0, 0, 1, 20), (0, 1, 0, 25), (0, 1, 1, 15), (1, 0, 0, 40), (1, 1, 0, 30)], 3
    ),
    "unseparated": lambda: _two_node_sample(
        [(0, 0, 0, 30), (0, 0, 1, 20), (1, 1, 0, 25), (1, 1, 1, 25), (0, 1, 1, 30), (1, 0, 1, 30)], 4
    ),
    "most-types-empty": _sparse_sample,
}


def _fit_bytes(spec, data, params_init):
    """Every output of fit_mle and log_likelihood as bytes, or the error's type and text."""
    try:
        fit = sm.fit_mle(spec, data, params_init=params_init)
        fitted = (fit.params.values.tobytes(), fit.info.tobytes(), fit.std_errors.tobytes(),
                  repr(fit.node_reports), repr(fit.log_likelihood))
    except (FitError, SeparationError) as exc:
        fitted = (type(exc).__name__, str(exc))
    at = params_init if params_init is not None else two_node_model().params
    return fitted, repr(sm.log_likelihood(spec, at, data))


@pytest.mark.parametrize("case", list(_CELL_PATH_SAMPLES))
def test_counted_and_sorted_cells_give_the_same_bytes(case, monkeypatch):
    """A node's cells come from a bincount over its 2^q parent keys while
    they are at most one a record, and from the records' sorted keys
    otherwise. Sorting every node, counting every node, and the default
    give the same bytes, or the same error."""
    spec, data, params_init = _CELL_PATH_SAMPLES[case]()
    default = _fit_bytes(spec, data, params_init)
    for bins_per_record in (0, 1 << 20):
        monkeypatch.setattr(sm.likelihood, "_DENSE_BINS_PER_RECORD", bins_per_record)
        assert _fit_bytes(spec, data, params_init) == default


def test_a_model_above_the_enumeration_limit_fits_on_both_cell_paths(monkeypatch):
    monkeypatch.setattr(sm.likelihood, "_DENSE_BINS_PER_RECORD", 0)
    big = delivery_with_risk_factors(9)  # 17 binary variables
    data = sm.sample_patients(sm.in_control_generator(big), 2000, 9)
    fit = sm.fit_mle(big.spec, data, params_init=big.params)
    assert fit.converged
    assert np.max(np.abs(sm.score(big.spec, fit.params, data))) < 1e-8
    assert fit.log_likelihood == sm.log_likelihood(big.spec, fit.params, data)
    monkeypatch.setattr(sm.likelihood, "_DENSE_BINS_PER_RECORD", 1)
    assert sm.fit_mle(big.spec, data, params_init=big.params).params.values.tobytes() == fit.params.values.tobytes()
