import numpy as np
import pytest

import score_mewma as sm
from score_mewma import shifts
from score_mewma.errors import ShiftError
from score_mewma.mc import apply_mean_shift
from score_mewma.model import node_designs, node_means

from conftest import delivery_with_risk_factors


@pytest.fixture(scope="module")
def chart(delivery):
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    return sm.ChartConfig(sigma_s=sigma, r=0.1, h=40.0)


def test_mean_shift_maps():
    assert abs(apply_mean_shift("odds", 2.0, np.array([0.5]))[0] - 2.0 / 3.0) < 1e-12
    assert abs(apply_mean_shift("additive", 1.0, np.array([0.3]))[0] - 0.6) < 1e-12
    assert abs(apply_mean_shift("odds", 1.0, np.array([0.37]))[0] - 0.37) < 1e-12


def test_identity_shifts_reproduce_generator(delivery):
    gen = sm.in_control_generator(delivery)
    for spec_ in (
        sm.ShiftSpec("coefficient", ("beta24",), 0.0),
        sm.ShiftSpec("mean-additive", ("Y3",), 0.0),
    ):
        shifted = sm.apply_shift(gen, spec_)
        a = sm.sample_patients(shifted, 500, 7)
        b = sm.sample_patients(gen, 500, 7)
        np.testing.assert_array_equal(a.y, b.y)
    # odds ratio of 1 is also the identity
    shifted = sm.apply_shift(gen, sm.ShiftSpec("mean-odds", ("Y3",), 1.0))
    a = sm.sample_patients(shifted, 500, 8)
    np.testing.assert_array_equal(a.y, sm.sample_patients(gen, 500, 8).y)


def test_coefficient_shift_scales_generation_only(delivery):
    gen = sm.in_control_generator(delivery)
    shifted = sm.apply_shift(gen, sm.ShiftSpec("coefficient", ("beta24",), 2.0))
    assert shifted.params["beta24"] == 3.0 * delivery.params["beta24"]
    assert shifted.params["beta23"] == delivery.params["beta23"]
    assert gen.params["beta24"] == delivery.params["beta24"]


def test_pair_shift_symmetric_in_order(delivery):
    gen = sm.in_control_generator(delivery)
    ab = sm.apply_shift(gen, sm.ShiftSpec("coefficient-pair", ("beta23", "beta24"), 1.5))
    ba = sm.apply_shift(gen, sm.ShiftSpec("coefficient-pair", ("beta24", "beta23"), 1.5))
    np.testing.assert_array_equal(ab.params.values, ba.params.values)
    np.testing.assert_array_equal(
        sm.sample_patients(ab, 400, 3).y, sm.sample_patients(ba, 400, 3).y
    )


def test_shift_validation_errors(delivery):
    gen = sm.in_control_generator(delivery)
    with pytest.raises(ShiftError, match="unknown shift kind"):
        sm.ShiftSpec("scale", ("beta24",), 1.0)
    with pytest.raises(ShiftError, match="exactly 2"):
        sm.ShiftSpec("coefficient-pair", ("beta23", "beta24", "gamma99"), 1.0)
    with pytest.raises(ShiftError, match="exactly 1"):
        sm.ShiftSpec("coefficient", ("beta23", "beta24"), 1.0)
    with pytest.raises(ShiftError, match="c > 0"):
        sm.ShiftSpec("mean-odds", ("Y3",), 0.0)
    with pytest.raises(ShiftError, match="unknown coefficient"):
        sm.apply_shift(gen, sm.ShiftSpec("coefficient", ("gamma99",), 1.0))
    with pytest.raises(ShiftError, match="unknown outcome"):
        sm.apply_shift(gen, sm.ShiftSpec("mean-odds", ("beta23",), 2.0))


def test_mean_additive_validity_enumerated(delivery):
    gen = sm.in_control_generator(delivery)
    # c = 4 keeps the worst reachable mean below 1 for the bundled model
    sm.apply_shift(gen, sm.ShiftSpec("mean-additive", ("Y3",), 4.0))
    with pytest.raises(ShiftError, match="reachable"):
        sm.apply_shift(gen, sm.ShiftSpec("mean-additive", ("Y3",), 7.0))
    with pytest.raises(ShiftError, match="reachable"):
        sm.apply_shift(gen, sm.ShiftSpec("mean-additive", ("Y3",), -1.0))


def test_mean_range_equals_the_enumerated_extremes(delivery):
    """The two rows give, bit for bit, the least and greatest node mean over
    the enumerated configurations of positive probability, also where a
    covariate of prevalence 0 or 1 fixes a parent bit."""
    rng = np.random.default_rng(21)
    spec, designs = delivery.spec, node_designs(delivery.spec)
    covariate_ids = spec.process_ids + spec.risk_ids
    for _ in range(200):
        params = delivery.params.replace(dict(zip(delivery.params.names, rng.normal(0.0, 2.0, len(delivery.params)))))
        kinds = rng.choice(3, size=len(covariate_ids), p=[0.15, 0.15, 0.7])
        prevalence = [float(k) if k < 2 else rng.uniform(0.01, 0.99) for k in kinds]
        covariates = sm.CovariateModel(dict(zip(covariate_ids, prevalence)))
        gen = sm.PatientGenerator(spec=spec, params=params, covariates=covariates)
        data, probs = sm.enumerate_patients(spec, params, covariates)
        for node_id, mu in zip(spec.node_ids, node_means(designs, params.values, data.bits)):
            reachable = mu[probs > 0.0]
            low, high = shifts._mean_range(gen, node_id)
            assert (low, high) == (reachable.min(), reachable.max())


def test_mean_additive_check_needs_no_enumeration():
    big = delivery_with_risk_factors(13)  # 21 binary variables, above the enumeration limit
    gen = sm.in_control_generator(big)
    sm.apply_shift(gen, sm.ShiftSpec("mean-additive", ("Y3",), 0.5))
    with pytest.raises(ShiftError, match="reachable"):
        sm.apply_shift(gen, sm.ShiftSpec("mean-additive", ("Y1",), 7.0))


def test_coefficient_shift_on_a_mean_additive_shift_is_checked(delivery):
    gen = sm.apply_shift(sm.in_control_generator(delivery), sm.ShiftSpec("mean-additive", ("Y3",), 4.0))
    sm.apply_shift(gen, sm.ShiftSpec("coefficient", ("alpha3",), 0.5))  # a lower intercept keeps it valid
    with pytest.raises(ShiftError, match="reachable"):
        sm.apply_shift(gen, sm.ShiftSpec("coefficient", ("alpha3",), -0.5))


def test_shift_kinds_differ_on_same_target(delivery):
    # a coefficient shift and the two mean shifts give different means at a
    # concrete configuration
    record = sm.PatientRecord(
        x=np.array([0, 1], dtype=np.int8),
        z=np.array([0, 0], dtype=np.int8),
        y=np.array([0, 0, 0, 0], dtype=np.int8),
    )
    spec, params = delivery.spec, delivery.params
    eta = sm.linear_predictor(spec, params, "Y3", record)
    mu0 = sm.mean_response(eta)
    c = 1.0
    shifted_params = params.replace({"beta23": (1 + c) * params["beta23"]})
    mu_coef = sm.mean_response(sm.linear_predictor(spec, shifted_params, "Y3", record))
    mu_add = float(apply_mean_shift("additive", c, np.array([mu0]))[0])
    mu_odds = float(apply_mean_shift("odds", 1 + c, np.array([mu0]))[0])
    assert abs(mu_coef - mu_add) > 1e-6
    assert abs(mu_coef - mu_odds) > 1e-6
    assert abs(mu_add - mu_odds) > 1e-6


def test_mean_shift_changes_sampling(delivery):
    gen = sm.in_control_generator(delivery)
    shifted = sm.apply_shift(gen, sm.ShiftSpec("mean-odds", ("Y3",), 4.0))
    n = 30_000
    base_rate = sm.sample_patients(gen, n, 5).y[:, 2].mean()
    new_rate = sm.sample_patients(shifted, n, 5).y[:, 2].mean()
    assert new_rate > 2.0 * base_rate


def test_detectability_of_large_shift(delivery):
    gen = sm.in_control_generator(delivery)
    shifted = sm.apply_shift(gen, sm.ShiftSpec("coefficient", ("beta24",), 4.0))
    n = 100_000
    data = sm.sample_patients(shifted, n, 17)
    scores = sm.per_record_scores(delivery.spec, delivery.params, data)
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.max(np.abs(mean) / se) > 5.0


def test_null_shift_matches_in_control_arl(delivery, chart):
    gen = sm.in_control_generator(delivery)
    null = sm.apply_shift(gen, sm.ShiftSpec("coefficient", ("beta24",), 0.0))
    a = sm.estimate_arl(null, delivery.params, chart, reps=300, max_rl=300, seed=4)
    b = sm.estimate_arl(gen, delivery.params, chart, reps=300, max_rl=300, seed=4)
    assert a.mean_rl == b.mean_rl


def test_run_arl_study_rows(delivery, chart):
    gen = sm.in_control_generator(delivery)
    grid = sm.StudyGrid(
        shift=sm.ShiftSpec("coefficient", ("beta24",), 0.0),
        c_values=(0.0, 2.0),
        reps=200,
        chart=chart,
        max_rl=300,
    )
    rows = sm.run_arl_study(gen, delivery.params, grid, seed=6)
    assert [r.c for r in rows] == [0.0, 2.0]
    assert rows[1].arl.mean_rl < rows[0].arl.mean_rl
    assert rows[0].shift_kind == "coefficient" and rows[0].targets == ("beta24",)


def test_run_pair_study_includes_marginals(delivery, chart):
    gen = sm.in_control_generator(delivery)
    rows = sm.run_pair_study(
        gen, delivery.params, [("beta23", "beta24")], (2.0,), reps=150, chart=chart, max_rl=250, seed=8
    )
    kinds = [(r.shift_kind, r.targets) for r in rows]
    assert ("coefficient-pair", ("beta23", "beta24")) in kinds
    assert ("coefficient", ("beta23",)) in kinds
    assert ("coefficient", ("beta24",)) in kinds


def test_stacking_mean_shifts_rejected(delivery):
    gen = sm.in_control_generator(delivery)
    shifted = sm.apply_shift(gen, sm.ShiftSpec("mean-odds", ("Y3",), 2.0))
    with pytest.raises(ShiftError, match="already carries"):
        sm.apply_shift(shifted, sm.ShiftSpec("mean-additive", ("Y4",), 0.5))
