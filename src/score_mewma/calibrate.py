"""In-control ARL estimation and control-limit calibration.

calibrate_h simulates each stage of its replication schedule with the T2
record highs (prefix maxima) of every replication, so one sample gives the
run lengths at any limit up to its cap and its ARL is exactly nondecreasing
in the limit: a stage whose ARL at the cap exceeds the target brackets the
target by itself, and bisection needs no further pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import chi2

from . import model
from .chart import ChartConfig, run_stream  # noqa: F401  bench/tracing.py patches calibrate.run_stream
from .errors import CalibrationError, ModelConfigError
from .mc import (
    MAX_RL,
    PatientGenerator,
    _check_run_size,
    _CompiledSim,
    _seed_parts,
    _simulate_chunk,
    replication_rng,
    sample_patients,
    simulate_run_lengths,
)

H_MAX = 1e6


@dataclass(frozen=True)
class ArlResult:
    """Monte Carlo run-length summary.

    Replications that never signal are censored at max_rl and still counted
    in the mean, so with censored > 0 the mean is a lower bound on the ARL.
    """

    mean_rl: float
    std_error: float
    reps: int
    censored: int
    max_rl: int
    run_lengths: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.mean_rl >= 1.0 or self.reps < 1 or self.std_error < 0.0 or self.censored > self.reps:
            raise ModelConfigError("inconsistent run-length summary")

    @property
    def censored_warning(self) -> bool:
        return self.censored > 0

    def as_dict(self) -> dict:
        out = {
            "mean_rl": float(self.mean_rl),
            "std_error": float(self.std_error),
            "reps": int(self.reps),
            "censored": int(self.censored),
            "max_rl": int(self.max_rl),
        }
        if self.censored_warning:
            out["censored_warning"] = True
        return out


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated limit h with the final stage's ARL at h.

    ``bracket`` is the final stage's last bisection interval (lo, hi], with
    ARL(lo) < target <= ARL(hi) on that stage's streams and h its midpoint;
    ``iterations`` counts bisection steps over all stages.
    """

    h: float
    achieved_arl: ArlResult
    iterations: int
    bracket: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo < self.h <= hi:
            raise ModelConfigError("calibrated limit must lie inside its bracket")


def _summarize(run_lengths: np.ndarray, resolved: np.ndarray, max_rl: int) -> ArlResult:
    reps = run_lengths.shape[0]
    mean = float(run_lengths.mean())
    se = float(run_lengths.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return ArlResult(
        mean_rl=mean,
        std_error=se,
        reps=reps,
        censored=int((~resolved).sum()),
        max_rl=max_rl,
        run_lengths=run_lengths,
    )


def estimate_arl(
    generator: PatientGenerator,
    params0,
    config: ChartConfig,
    reps: int,
    max_rl: int,
    seed,
    threads: int | None = None,
    phase1_size: int | None = None,
) -> ArlResult:
    """Zero-state ARL of the chart under the given generator.

    Replication ``rep`` draws its patients from its own counter-based
    stream, ``replication_rng(seed, rep)``, and runs until the first signal
    or max_rl (censored). With ``phase1_size`` set, every replication first
    refits the reference coefficients on a fresh in-control sample of that
    size and monitors at the refitted values, propagating estimation
    uncertainty into the run lengths. The Phase-I sample takes the first
    outputs of the replication's stream, and its monitored patients the
    outputs after them, and it runs on the same Monte Carlo kernel as the
    plain estimate, one replication at a time, so ``threads`` has no effect.
    """
    if config.h is None:
        raise ModelConfigError("config.h must be set to estimate an ARL")
    _check_run_size(reps, max_rl)
    if phase1_size is not None:
        return _estimate_arl_phase1(generator, params0, config, reps, max_rl, seed, phase1_size)
    sample = simulate_run_lengths(
        generator, params0, config, reps=reps, max_rl=max_rl, seed=seed, threads=threads
    )
    return _summarize(sample.run_lengths, sample.resolved, max_rl)


def _estimate_arl_phase1(generator, params0, config, reps, max_rl, seed, phase1_size) -> ArlResult:
    """Per-replication Phase-I refit, then the replication's run on the kernel."""
    from .likelihood import expected_score_covariance, fit_mle

    if phase1_size < 1:
        raise ModelConfigError("phase1_size must be at least 1")
    spec = generator.spec
    if len(params0) != spec.n_params:
        raise ModelConfigError("params0 does not match the model's coefficient layout")
    if sum(spec.widths) > model.ENUM_LIMIT:
        raise ModelConfigError(
            f"Phase-I refits need the exact score covariance, so at most {model.ENUM_LIMIT} binary "
            f"variables; the model has {sum(spec.widths)}"
        )
    in_control = generator
    if generator.mu_shift is not None or not np.array_equal(generator.params.values, params0.values):
        in_control = replace(generator, params=params0, mu_shift=None)
    run_lengths = np.full(reps, max_rl, dtype=np.int64)
    resolved = np.zeros(reps, dtype=bool)
    for rep in range(reps):
        stream = replication_rng(seed, rep)
        phase1 = sample_patients(in_control, phase1_size, stream)
        fit = fit_mle(spec, phase1, params_init=params0)
        sigma = expected_score_covariance(spec, fit.params, generator.covariates).values
        sim = _CompiledSim(generator, fit.params, replace(config, sigma_s=sigma), max_rl)
        key = np.array([stream.key], dtype=np.uint64)
        rl, res, _ = _simulate_chunk(sim, key, stream.position, config.h, max_rl, track_records=False)
        run_lengths[rep], resolved[rep] = rl[0], res[0]
    return _summarize(run_lengths, resolved, max_rl)


def calibrate_h(
    generator: PatientGenerator,
    params0,
    config: ChartConfig,
    target_arl: float,
    rel_tolerance: float = 0.02,
    reps_schedule: tuple[int, ...] = (1000, 5000, 10000),
    seed=0,
    max_rl: int | None = None,
    threads: int | None = None,
) -> CalibrationResult:
    """Find the control limit whose in-control ARL matches the target.

    Each stage of the schedule simulates its streams up to a cap 10% above
    the previous stage's limit (the chi-square guess for stage 0), raising
    the cap by half and simulating again while the ARL at the cap is at or
    below the target, then bisects on [0, cap]. Deterministic for a fixed
    seed. ``max_rl`` defaults to 20 times the target ARL; a default above
    ``mc.MAX_RL`` raises ModelConfigError.
    """
    if not (target_arl > 1.0 and math.isfinite(target_arl)):
        raise CalibrationError(f"target ARL must be finite and exceed 1, got {target_arl}")
    if not reps_schedule:
        raise CalibrationError("reps_schedule must not be empty")
    if max_rl is None:
        max_rl = int(round(20 * target_arl))
        if max_rl > MAX_RL:
            raise ModelConfigError(
                f"the default max_rl, 20 times the target ARL, is {max_rl}, above the limit of {MAX_RL}; "
                "give a smaller max_rl (--max-rl)"
            )
    if max_rl <= target_arl:
        raise CalibrationError(f"max_rl {max_rl} must exceed the target ARL {target_arl:g}")
    h = max(1.0, float(chi2.ppf(1.0 - 1.0 / target_arl, df=config.p)))
    base = _seed_parts(seed)

    iterations = 0
    for stage, reps in enumerate(reps_schedule):
        # keep the cap tight: resolving a replication costs about ARL(cap)
        # patients, so a generous cap multiplies the work
        cap = 1.1 * h
        while True:
            sample = simulate_run_lengths(
                generator, params0, config, reps=reps, max_rl=max_rl,
                seed=base + (stage,), cap=cap, threads=threads, track_records=True,
            )
            if sample.run_lengths.mean() > target_arl:
                break
            cap *= 1.5
            if cap > H_MAX:
                raise CalibrationError(f"bracketing failed: no h below {H_MAX:g} reaches ARL {target_arl}")
        if sample.at_limit(0.0)[0].mean() >= target_arl:
            raise CalibrationError("bracketing failed: ARL above target for arbitrarily small h")
        # ARL(lo) < target <= ARL(hi), both read from this stage's record highs
        lo, hi = 0.0, cap
        while hi - lo > 5e-4 * hi:
            mid = 0.5 * (lo + hi)
            iterations += 1
            if sample.at_limit(mid)[0].mean() < target_arl:
                lo = mid
            else:
                hi = mid
        h = 0.5 * (lo + hi)

    achieved = _summarize(*sample.at_limit(h), max_rl)
    if abs(achieved.mean_rl - target_arl) / target_arl >= rel_tolerance:
        raise CalibrationError(
            f"calibration did not reach the target within {100 * rel_tolerance:g}%: "
            f"achieved {achieved.mean_rl:.2f} for target {target_arl:g}; increase the final-stage reps"
        )
    return CalibrationResult(h=h, achieved_arl=achieved, iterations=iterations, bracket=(lo, hi))
