import math

import numpy as np
import pytest

import score_mewma as sm
from score_mewma import calibrate
from score_mewma.errors import CalibrationError


@pytest.fixture(scope="module")
def setup(delivery):
    gen = sm.in_control_generator(delivery)
    sigma = sm.expected_score_covariance(delivery.spec, delivery.params, delivery.covariates).values
    return gen, sm.ChartConfig(sigma_s=sigma, r=0.1)


def test_h_zero_gives_run_length_one(delivery, setup):
    gen, config = setup
    res = sm.estimate_arl(gen, delivery.params, config.with_h(1e-300), reps=200, max_rl=50, seed=0)
    assert res.mean_rl == 1.0
    assert res.censored == 0


def test_huge_h_censors_everything(delivery, setup):
    gen, config = setup
    res = sm.estimate_arl(gen, delivery.params, config.with_h(1e9), reps=100, max_rl=40, seed=0)
    assert res.censored == res.reps == 100
    assert res.mean_rl == 40.0
    assert res.censored_warning
    assert res.as_dict()["censored_warning"] is True


def test_estimate_arl_deterministic(delivery, setup):
    gen, config = setup
    a = sm.estimate_arl(gen, delivery.params, config.with_h(40.0), reps=400, max_rl=300, seed=3)
    b = sm.estimate_arl(gen, delivery.params, config.with_h(40.0), reps=400, max_rl=300, seed=3)
    assert a.mean_rl == b.mean_rl and a.std_error == b.std_error


def test_std_error_definition_and_scaling(delivery, setup):
    gen, config = setup
    small = sm.estimate_arl(gen, delivery.params, config.with_h(40.0), reps=500, max_rl=400, seed=5)
    assert small.run_lengths is not None
    expect = small.run_lengths.std(ddof=1) / math.sqrt(small.reps)
    assert abs(small.std_error - expect) < 1e-12
    big = sm.estimate_arl(gen, delivery.params, config.with_h(40.0), reps=1000, max_rl=400, seed=6)
    ratio = big.std_error / small.std_error
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.3 / math.sqrt(2.0)


def test_arl_monotone_in_h(delivery, setup):
    gen, config = setup
    means = []
    for h in (10.0, 20.0, 40.0, 60.0):
        means.append(
            sm.estimate_arl(gen, delivery.params, config.with_h(h), reps=400, max_rl=600, seed=9).mean_rl
        )
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_calibrate_reaches_target_and_is_deterministic(delivery, setup):
    gen, config = setup
    kw = dict(target_arl=25.0, reps_schedule=(500, 25_000), seed=12, max_rl=500)
    res = sm.calibrate_h(gen, delivery.params, config, **kw)
    res2 = sm.calibrate_h(gen, delivery.params, config, **kw)
    assert res.h == res2.h
    assert res.bracket[0] < res.h <= res.bracket[1]
    assert abs(res.achieved_arl.mean_rl - 25.0) / 25.0 < 0.02
    # independent re-estimate close to the target. Run lengths here have a
    # coefficient of variation near 1.25, so the re-estimate's relative
    # deviation has SD about 1.25 * sqrt(1/25000 + 1/25000) = 1.1%, from h's
    # error and its own, and the 5% band spans over 4 SD
    check = sm.estimate_arl(gen, delivery.params, config.with_h(res.h), reps=25_000, max_rl=500, seed=999)
    assert abs(check.mean_rl - 25.0) / 25.0 < 0.05


def test_each_stage_resimulates_only_while_its_cap_is_short(delivery, setup, monkeypatch):
    # a stage simulates again only when the mean run length at its cap has
    # not passed the target; a sample that passes it brackets the target
    gen, config = setup
    passes = []
    simulate = calibrate.simulate_run_lengths

    def record(*args, **kwargs):
        sample = simulate(*args, **kwargs)
        passes.append((kwargs["seed"], float(sample.run_lengths.mean())))
        return sample

    monkeypatch.setattr(calibrate, "simulate_run_lengths", record)
    sm.calibrate_h(gen, delivery.params, config, target_arl=25.0, reps_schedule=(500, 2000), seed=12, max_rl=500)
    stages = [seed for seed, _ in passes]
    assert stages == sorted(stages) and len(set(stages)) == 2
    for (stage, mean), (next_stage, _) in zip(passes, passes[1:] + [(None, None)]):
        if next_stage == stage:
            assert mean <= 25.0
        else:
            assert mean > 25.0


def test_warmup_beyond_target_has_no_limit(delivery, setup):
    # no replication can signal before patient 30, so every h gives ARL >= 30
    gen, config = setup
    config = sm.ChartConfig(sigma_s=config.sigma_s, r=0.1, warmup=30)
    with pytest.raises(CalibrationError, match="ARL above target for arbitrarily small h"):
        sm.calibrate_h(gen, delivery.params, config, 25.0, reps_schedule=(200,), seed=3, max_rl=500)


@pytest.mark.parametrize("max_rl", [40, 50])
def test_max_rl_not_above_target_rejected_before_simulating(delivery, setup, monkeypatch, max_rl):
    # an ARL censored at max_rl never exceeds max_rl, so no cap could reach the target
    gen, config = setup

    def no_pass(*args, **kwargs):
        raise AssertionError("simulated a pass")

    monkeypatch.setattr(calibrate, "simulate_run_lengths", no_pass)
    with pytest.raises(CalibrationError, match=f"max_rl {max_rl} must exceed the target ARL 50"):
        sm.calibrate_h(gen, delivery.params, config, target_arl=50.0, max_rl=max_rl, reps_schedule=(1000,))


@pytest.mark.parametrize("target", [math.inf, math.nan])
def test_target_must_be_finite(delivery, setup, target):
    gen, config = setup
    with pytest.raises(CalibrationError, match="finite"):
        sm.calibrate_h(gen, delivery.params, config, target_arl=target)


def test_smaller_target_needs_smaller_h(delivery, setup):
    gen, config = setup
    h25 = sm.calibrate_h(gen, delivery.params, config, 25.0, reps_schedule=(500, 1500), seed=1, max_rl=500).h
    h8 = sm.calibrate_h(gen, delivery.params, config, 8.0, reps_schedule=(500, 1500), seed=1, max_rl=200).h
    assert h8 < h25


def test_target_must_exceed_one(delivery, setup):
    gen, config = setup
    with pytest.raises(CalibrationError):
        sm.calibrate_h(gen, delivery.params, config, target_arl=1.0)


def test_arl_result_invariants():
    with pytest.raises(sm.ModelConfigError):
        sm.ArlResult(mean_rl=0.5, std_error=0.0, reps=10, censored=0, max_rl=100)
    with pytest.raises(sm.ModelConfigError):
        sm.ArlResult(mean_rl=5.0, std_error=0.0, reps=10, censored=11, max_rl=100)


def test_arl_result_rejects_a_nan_mean_and_no_replications():
    with pytest.raises(sm.ModelConfigError):
        sm.ArlResult(mean_rl=math.nan, std_error=0.0, reps=10, censored=0, max_rl=100)
    with pytest.raises(sm.ModelConfigError):
        sm.ArlResult(mean_rl=5.0, std_error=0.0, reps=0, censored=0, max_rl=100)


@pytest.mark.parametrize("phase1_size", [None, 500], ids=["plain", "phase1"])
@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(reps=0, max_rl=50), "reps must be at least 1"),
        (dict(reps=-3, max_rl=50), "reps must be at least 1"),
        (dict(reps=2**32 + 1, max_rl=50), r"reps must be at most 2\*\*32"),
        (dict(reps=5, max_rl=0), "max_rl must be at least 1"),
    ],
    ids=["reps-0", "reps-negative", "reps-too-many", "max-rl-0"],
)
def test_plain_and_phase1_runs_check_reps_and_max_rl_alike(delivery, setup, phase1_size, kw, message):
    """Both paths reject a run size before any work, with one message."""
    gen, config = setup
    with pytest.raises(sm.ModelConfigError, match=message):
        sm.estimate_arl(gen, delivery.params, config.with_h(30.0), seed=0, phase1_size=phase1_size, **kw)


@pytest.mark.parametrize("phase1_size", [None, 2000], ids=["plain", "phase1"])
def test_params0_of_another_layout_is_rejected_on_both_paths(setup, phase1_size):
    from conftest import two_node_model

    gen, config = setup
    with pytest.raises(sm.ModelConfigError, match="params0 does not match the model's coefficient layout"):
        sm.estimate_arl(
            gen, two_node_model().params, config.with_h(30.0), reps=2, max_rl=50, seed=0, phase1_size=phase1_size
        )


def test_phase1_above_the_enumeration_limit_is_rejected_before_any_refit(monkeypatch):
    # a Phase-I refit needs the exact score covariance of the refitted model
    from conftest import delivery_with_risk_factors

    model = delivery_with_risk_factors(9)
    config = sm.ChartConfig(sigma_s=np.eye(len(model.params)), r=0.1, h=30.0)
    monkeypatch.setattr(sm.likelihood, "fit_mle", lambda *args, **kwargs: pytest.fail("refitted"))
    with pytest.raises(sm.ModelConfigError, match=r"Phase-I refits need the exact score covariance.* 16 binary"):
        sm.estimate_arl(
            sm.in_control_generator(model), model.params, config, reps=2, max_rl=50, seed=0, phase1_size=500
        )


def test_each_generator_builds_its_type_law_once(delivery, setup, monkeypatch):
    """A generator builds its type law on first use and keeps it: once for
    a whole calibration, once for an in-control Phase-I run, whose refit
    samples come from the monitored generator, and twice under a shift."""
    from score_mewma import mc

    builds = []
    guide = mc._type_guide
    monkeypatch.setattr(mc, "_type_guide", lambda cdf: builds.append(cdf.size) or guide(cdf))
    _, config = setup
    kw = dict(reps=2, max_rl=50, seed=0, phase1_size=500)
    sm.calibrate_h(
        sm.in_control_generator(delivery), delivery.params, config, 25.0, reps_schedule=(100, 500, 600), seed=12,
        max_rl=500,
    )
    assert len(builds) == 1
    gen = sm.in_control_generator(delivery)
    sm.estimate_arl(gen, delivery.params, config.with_h(30.0), **kw)
    assert len(builds) == 2
    sm.estimate_arl(gen, delivery.params, config.with_h(30.0), **kw)
    sm.estimate_arl(gen, delivery.params, config.with_h(30.0), reps=2, max_rl=50, seed=0)
    assert len(builds) == 2
    shifted = sm.apply_shift(sm.in_control_generator(delivery), sm.ShiftSpec("mean-odds", ("Y3",), 0.5))
    sm.estimate_arl(shifted, delivery.params, config.with_h(30.0), **kw)
    assert len(builds) == 4


def test_phase1_refit_mode_runs():
    from conftest import two_node_model

    model = two_node_model()
    gen = sm.in_control_generator(model)
    sigma = sm.expected_score_covariance(model.spec, model.params, model.covariates).values
    config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=25.0)
    kw = dict(reps=8, max_rl=120, seed=21, phase1_size=400)
    res = sm.estimate_arl(gen, model.params, config, **kw)
    res2 = sm.estimate_arl(gen, model.params, config, **kw)
    assert res.mean_rl == res2.mean_rl
    assert res.reps == 8


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_phase1_run_lengths_match_reference_stream(delivery, setup, seed):
    # reference: refit on the replication's Phase-I sample, then run_stream
    # over patients drawn after it from the same generator
    gen, config = setup
    # at h = 80 these seeds give run lengths from 1 to censored at max_rl,
    # some past the first 256-patient block
    config = config.with_h(80.0)
    reps, max_rl, phase1_size = 3, 300, 1000
    res = sm.estimate_arl(gen, delivery.params, config, reps=reps, max_rl=max_rl, seed=seed, phase1_size=phase1_size)
    expected = []
    for rep in range(reps):
        rng = sm.replication_rng(seed, rep)
        phase1 = sm.sample_patients(gen, phase1_size, rng)
        fit = sm.fit_mle(delivery.spec, phase1, params_init=delivery.params)
        sigma = sm.expected_score_covariance(delivery.spec, fit.params, delivery.covariates).values
        rep_config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=80.0)
        patients = sm.sample_patients(gen, max_rl, rng)
        trace = sm.run_stream(delivery.spec, fit.params, rep_config, patients, stop_at_signal=True)
        expected.append(next((t for t, _, signal in trace if signal), max_rl))
    np.testing.assert_array_equal(res.run_lengths, expected)


@pytest.mark.parametrize(
    "shift", [sm.ShiftSpec("mean-odds", ("Y3",), 2.0), sm.ShiftSpec("coefficient", ("beta24",), 0.5)],
    ids=["mean-odds", "coefficient"],
)
@pytest.mark.parametrize("seed", [2, 5])
def test_shifted_phase1_run_lengths_match_reference_stream(delivery, setup, shift, seed):
    # the Phase-I sample follows the in-control law and the monitored
    # patients after it, on the same stream, the shifted one; at h = 80
    # these seeds give run lengths from 5 to censored at max_rl
    gen, config = setup
    shifted = sm.apply_shift(gen, shift)
    reps, max_rl, phase1_size = 3, 300, 1000
    res = sm.estimate_arl(
        shifted, delivery.params, config.with_h(80.0), reps=reps, max_rl=max_rl, seed=seed, phase1_size=phase1_size
    )
    expected = []
    for rep in range(reps):
        rng = sm.replication_rng(seed, rep)
        phase1 = sm.sample_patients(gen, phase1_size, rng)
        fit = sm.fit_mle(delivery.spec, phase1, params_init=delivery.params)
        sigma = sm.expected_score_covariance(delivery.spec, fit.params, delivery.covariates).values
        rep_config = sm.ChartConfig(sigma_s=sigma, r=0.1, h=80.0)
        patients = sm.sample_patients(shifted, max_rl, rng)
        trace = sm.run_stream(delivery.spec, fit.params, rep_config, patients, stop_at_signal=True)
        expected.append(next((t for t, _, signal in trace if signal), max_rl))
    np.testing.assert_array_equal(res.run_lengths, expected)


def test_signal_fraction_consistent_with_target(delivery, setup):
    # roughly geometric run lengths: P(RL <= target) near 1 - (1 - 1/ARL)^ARL
    gen, config = setup
    target = 30.0
    cal = sm.calibrate_h(gen, delivery.params, config, target, reps_schedule=(500, 2000), seed=14, max_rl=600)
    res = sm.estimate_arl(gen, delivery.params, config.with_h(cal.h), reps=3000, max_rl=int(target), seed=15)
    frac = 1.0 - res.censored / res.reps
    assert 0.40 < frac < 0.85


def test_a_default_max_rl_beyond_the_bound_names_the_option(setup, delivery, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an invalid max_rl")

    monkeypatch.setattr(sm.mc, "_CompiledSim", forbidden)
    gen, config = setup
    with pytest.raises(sm.ModelConfigError, match=r"20 times the target ARL, is 10000020.*--max-rl"):
        sm.calibrate_h(gen, delivery.params, config, target_arl=500_001.0)
