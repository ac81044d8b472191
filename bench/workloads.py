"""The benchmark's workloads: inputs, the timed operation and output checks.

Every workload uses the bundled delivery model with smoothing r = 0.02,
exact-recursive chart covariance and warmup 1. An operation is one unit of
user-visible work; operation ``i`` of a run draws its randomness from
``(workload seed, i)``, so a seed fixes every input.
"""

from __future__ import annotations

import io
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

R = 0.02
WARMUP = 1
TARGET_ARL = 200.0
MAX_RL = 4000
# Fixed limit for the workloads that do not calibrate, so they do not depend
# on calibration; near the calibrated h for target ARL 200.
H_FIXED = 35.7
# calibrate_h with reps (1000, 5000, 20000), max_rl 4000, gave 35.686 at
# seed 2024 and 35.691 at seed 1.
H_REFERENCE = 35.69


class OperationError(Exception):
    """An operation that reported failure without raising a package error."""


@dataclass
class Env:
    """What set-up builds: the package and its CLI module, the model, Sigma_S
    and the chart without a limit."""

    sm: object
    cli: object
    model: object
    sigma_s: np.ndarray
    chart: object

    def generator(self):
        return self.sm.in_control_generator(self.model)


def build_env(sm, cli) -> tuple[Env, float]:
    """Model, exact Sigma_S and ChartConfig; returns the env and Sigma_S seconds."""
    model = sm.default_delivery_model()
    t0 = time.perf_counter()
    sigma = sm.expected_score_covariance(model.spec, model.params, model.covariates)
    sigma_s = time.perf_counter() - t0
    chart = sm.ChartConfig(
        sigma_s=sigma.values,
        r=R,
        covariance_mode="exact-recursive",
        warmup=WARMUP,
        coord_names=model.params.names,
    )
    return Env(sm, cli, model, sigma.values, chart), sigma_s


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


@dataclass
class CalibrateOutput:
    calibration: object  # CalibrationResult
    confirmed: object  # ArlResult at the calibrated h on fresh streams


class Calibrate:
    """Staged-bisection calibration of h for in-control ARL 200, then a
    confirmation of the in-control ARL at that h, as a user would run it."""

    name = "calibrate"
    rejections = ()
    trace_ops = 2
    # Small stages keep the work per calibration, which is bimodal, from
    # swamping a run's mean. Each stage fits in one of the kernel's
    # 2048-replication chunks, so calibrate_h itself runs on one thread.
    REPS = (50, 150, 500)
    # One run length moves a 500-rep mean by less than max_rl / 500 = 8,
    # which is 4% of 200, and bisection on common streams ends about one such
    # step from the target, so 5% leaves room for it. The package default,
    # 2%, fails on some seeds at this size.
    REL_TOLERANCE = 0.05
    # six standard deviations of h across seeds at this schedule (0.50,
    # measured over 16 seeds)
    H_TOLERANCE = 3.0
    # Two chunks of replications: the confirmation is the operation's part
    # that runs on the threaded path of simulate_run_lengths. Its streams,
    # seed (workload seed, i, CONFIRM_STREAM), are apart from calibrate_h's
    # stages, which use (workload seed, i, stage).
    CONFIRM_REPS = 4096
    CONFIRM_STREAM = 100
    # In control the run length has a tail far heavier than a geometric
    # one: at seed 19, operation 1 (h = 35.46, ARL 206), 122 of 4096
    # chains ran past 1000, 5 past 2000 and one to max_rl. A censored chain
    # or two is the package working as specified; more than 0.1% would
    # mean h is far too high.
    CONFIRM_MAX_CENSORED = 4
    # Standard deviation of the confirmed ARL that comes from the error in h:
    # the confirmed ARL had a standard deviation of 11.8 over 20 seeds, of
    # which 4.6 was the confirmation's own standard error.
    H_ARL_SD = 10.9

    def prepare(self, env, seed, workdir):
        return None

    def run(self, env, inputs, seed, i, threads):
        calibration = env.sm.calibrate_h(
            env.generator(),
            env.model.params,
            env.chart,
            target_arl=TARGET_ARL,
            rel_tolerance=self.REL_TOLERANCE,
            reps_schedule=self.REPS,
            seed=(seed, i),
            max_rl=MAX_RL,
            threads=threads,
        )
        confirmed = env.sm.estimate_arl(
            env.generator(), env.model.params, env.chart.with_h(calibration.h), reps=self.CONFIRM_REPS,
            max_rl=MAX_RL, seed=(seed, i, self.CONFIRM_STREAM), threads=threads,
        )
        return CalibrateOutput(calibration, confirmed)

    def check(self, env, inputs, out) -> list[str]:
        problems = []
        cal, confirmed = out.calibration, out.confirmed
        achieved = cal.achieved_arl.mean_rl
        if not abs(achieved - TARGET_ARL) / TARGET_ARL < self.REL_TOLERANCE:
            problems.append(f"achieved ARL {achieved:.2f} outside {self.REL_TOLERANCE:.0%} of {TARGET_ARL:g}")
        if not abs(cal.h - H_REFERENCE) <= self.H_TOLERANCE:
            problems.append(f"h = {cal.h:.4f} is more than {self.H_TOLERANCE} from {H_REFERENCE}")
        if confirmed.reps != self.CONFIRM_REPS or confirmed.censored > self.CONFIRM_MAX_CENSORED:
            problems.append(f"confirmation: {confirmed.censored} of {confirmed.reps} replications censored")
        slack = 6.0 * math.hypot(confirmed.std_error, self.H_ARL_SD)
        if not abs(confirmed.mean_rl - TARGET_ARL) <= slack:
            problems.append(f"confirmed ARL {confirmed.mean_rl:.2f} at h = {cal.h:.4f} is more than "
                            f"{slack:.1f} from {TARGET_ARL:g}")
        return problems


# ---------------------------------------------------------------------------
# shift-study
# ---------------------------------------------------------------------------

# (kind, targets, c values): the paper's grid without its null rows, 25 rows
# in all; the pair study also emits each coefficient's solo row.
STUDIES = (
    ("coefficient", ("beta23",), (1.0, 2.0, 3.0, 4.0)),
    ("coefficient", ("beta24",), (1.0, 2.0, 3.0, 4.0)),
    ("coefficient-pair", ("beta23", "beta24"), (1.0, 2.0, 3.0)),
    ("mean-additive", ("Y3",), (0.4, 1.0, 2.0, 4.0)),
    ("mean-odds", ("Y3",), (1.4, 2.0, 3.0, 5.0)),
)


class ShiftStudy:
    """Out-of-control ARL for every row of the shift grid at fixed h."""

    name = "shift-study"
    rejections = ()
    trace_ops = 1
    REPS = 1000

    def prepare(self, env, seed, workdir):
        return env.chart.with_h(H_FIXED)

    def run(self, env, chart, seed, i, threads):
        """Rows of each study of STUDIES, one list per study."""
        sm = env.sm
        studies = []
        for k, (kind, targets, c_values) in enumerate(STUDIES):
            study_seed = (seed, i, k)
            if kind == "coefficient-pair":
                rows = sm.run_pair_study(
                    env.generator(), env.model.params, [targets], c_values, reps=self.REPS,
                    chart=chart, seed=study_seed, max_rl=MAX_RL, threads=threads,
                )
            else:
                placeholder = 1.0 if kind == "mean-odds" else 0.0
                grid = sm.StudyGrid(
                    shift=sm.ShiftSpec(kind, targets, placeholder), c_values=c_values,
                    reps=self.REPS, chart=chart, max_rl=MAX_RL,
                )
                rows = sm.run_arl_study(env.generator(), env.model.params, grid, seed=study_seed, threads=threads)
            studies.append(rows)
        return studies

    def check(self, env, chart, studies) -> list[str]:
        problems = []
        n_rows = sum(len(rows) for rows in studies)
        if n_rows != 25:
            problems.append(f"expected 25 rows, got {n_rows}")
        for rows in studies:
            # a pair study holds three series: the pair and each solo shift
            series: dict[tuple, list] = {}
            for row in rows:
                series.setdefault((row.shift_kind, row.targets), []).append(row)
                label = f"{row.shift_kind} {','.join(row.targets)} c={row.c:g}"
                if row.arl.censored:
                    problems.append(f"{label}: {row.arl.censored} censored replications")
                if not row.arl.mean_rl < TARGET_ARL:
                    problems.append(f"{label}: ARL {row.arl.mean_rl:.1f} not below {TARGET_ARL:g}")
            for (kind, targets), rs in series.items():
                rs = sorted(rs, key=lambda r: r.c)
                for a, b in zip(rs, rs[1:]):
                    slack = 3.0 * math.hypot(a.arl.std_error, b.arl.std_error)
                    if b.arl.mean_rl > a.arl.mean_rl + slack:
                        problems.append(f"{kind} {','.join(targets)}: ARL rose from c={a.c:g} to c={b.c:g}")
        return problems


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


class FlushClock(io.TextIOWrapper):
    """A text file that records the time of every flush, as a consumer would see rows arrive."""

    def __init__(self, path):
        super().__init__(open(path, "wb"), encoding="utf-8", newline="\n")
        self.flush_ns: list[int] = []

    def flush(self):
        super().flush()
        self.flush_ns.append(time.perf_counter_ns())


@dataclass
class MonitorOutput:
    path: str
    flush_ns: list[int]

    def record_gaps_us(self) -> np.ndarray:
        """Gap before each trace row; the first flush is the header's."""
        return np.diff(np.asarray(self.flush_ns, dtype=np.int64)) / 1e3


def _csv_lines(path: str) -> list[str]:
    """Header and data lines of a CSV written by the package, manifest dropped."""
    with open(path, encoding="utf-8") as f:
        return [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]


def read_patient_columns(path: str) -> dict[str, np.ndarray]:
    """Patient CSV columns by name, read with numpy alone."""
    lines = _csv_lines(path)
    header = lines[0].split(",")
    values = np.array([ln.split(",") for ln in lines[1:]], dtype=np.int64)
    return {name: values[:, j] for j, name in enumerate(header)}


def oracle_t2(model, sigma_s: np.ndarray, columns: dict[str, np.ndarray], r: float) -> np.ndarray:
    """T2 path from the model's coefficients, independent of the package's code.

    Scores are u_v (y_v - mu_v) per node; w_t = r s_t + (1 - r) w_{t-1};
    T2_t = w' Sigma_S^{-1} w / (r (1 - (1 - r)^(2t)) / (2 - r)).
    """
    params = model.params
    n = len(next(iter(columns.values())))
    scores = np.zeros((n, len(params)))
    for node in model.spec.nodes:
        parents = node.process_parents + node.outcome_parents + node.risk_parents
        u = np.column_stack([np.ones(n)] + [columns[var].astype(float) for var, _ in parents])
        theta = np.array([params[name] for name in node.coef_names()])
        mu = 1.0 / (1.0 + np.exp(-(u @ theta)))
        resid = columns[node.id] - mu
        for k, name in enumerate(node.coef_names()):
            scores[:, params.index_map[name]] = u[:, k] * resid
    t2 = np.empty(n)
    w = np.zeros(len(params))
    for t in range(1, n + 1):
        w = r * scores[t - 1] + (1.0 - r) * w
        factor = r * (1.0 - (1.0 - r) ** (2 * t)) / (2.0 - r)
        t2[t - 1] = w @ np.linalg.solve(sigma_s, w) / factor
    return t2


def read_trace(path: str) -> tuple[list[str], np.ndarray]:
    """Header and (t, t2, signal, post_signal) rows of a monitor trace."""
    lines = _csv_lines(path)
    rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float).reshape(-1, 4)
    return lines[0].split(","), rows


def check_trace(header, rows, expected_t2, h) -> list[str]:
    """Monitor output against the oracle: row count, t, t2 within 1e-9 relative, signal = t2 > h."""
    problems = []
    if header != ["t", "t2", "signal", "post_signal"]:
        problems.append(f"unexpected trace header {header}")
    if rows.shape[0] != expected_t2.shape[0]:
        return problems + [f"{rows.shape[0]} trace rows for {expected_t2.shape[0]} input rows"]
    if not np.array_equal(rows[:, 0], np.arange(1, rows.shape[0] + 1)):
        problems.append("t column is not 1..n")
    rel = np.abs(rows[:, 1] - expected_t2) / np.abs(expected_t2)
    if not rel.max() <= 1e-9:
        worst = int(np.argmax(rel))
        problems.append(f"t2 at t={worst + 1} is {rows[worst, 1]!r}, oracle {expected_t2[worst]!r}")
    if not np.array_equal(rows[:, 2] == 1, rows[:, 1] > h):
        problems.append("signal differs from t2 > h")
    return problems


class Monitor:
    """CLI monitor over a patient CSV written by the CLI simulate command."""

    name = "monitor"
    rejections = ()
    trace_ops = 2
    ROWS = 5000

    def prepare(self, env, seed, workdir):
        model_path = os.path.join(workdir, "model.json")
        csv_path = os.path.join(workdir, "patients.csv")
        with open(model_path, "w", encoding="utf-8") as f:
            f.write(env.sm.serialize_model_spec(env.model))
        code = env.cli.main(
            ["simulate", model_path, model_path, "--n", str(self.ROWS), "--seed", str(seed), "-o", csv_path]
        )
        if code != 0:
            raise OperationError(f"simulate exited with {code}")
        expected = oracle_t2(env.model, env.sigma_s, read_patient_columns(csv_path), R)
        return {"model": model_path, "csv": csv_path, "out": os.path.join(workdir, "trace.csv"), "t2": expected}

    def run(self, env, inputs, seed, i, threads):
        argv = [
            "monitor", inputs["model"], inputs["model"], inputs["csv"], "--h", repr(H_FIXED),
            "--r", repr(R), "--warmup", str(WARMUP), "--covariance-mode", "exact-recursive",
            "--threads", str(threads), "-o", "-",
        ]
        sink = FlushClock(inputs["out"])
        saved, sys.stdout = sys.stdout, sink
        try:
            code = env.cli.main(argv)
        finally:
            sys.stdout = saved
            flush_ns = list(sink.flush_ns)  # closing flushes once more
            sink.close()
        if code != 0:
            raise OperationError(f"monitor exited with {code}")
        return MonitorOutput(inputs["out"], flush_ns)

    def check(self, env, inputs, out) -> list[str]:
        header, rows = read_trace(out.path)
        return check_trace(header, rows, inputs["t2"], H_FIXED)


# ---------------------------------------------------------------------------
# phase1-arl
# ---------------------------------------------------------------------------


class Phase1Arl:
    """One in-control replication with a Phase-I refit on 2000 patients."""

    name = "phase1-arl"
    trace_ops = 40
    # The Phase-I refit raises FitError on some seeds (a Newton roundoff
    # defect of fit_mle). Such an operation is rejected: it reaches no
    # solution and counts in ops_failed_frac and likelihood.fit_failures,
    # but it is not a wrong output, and it is not reseeded.
    rejections = ("FitError",)
    PHASE1_SIZE = 2000

    def prepare(self, env, seed, workdir):
        return env.chart.with_h(H_FIXED)

    def run(self, env, chart, seed, i, threads):
        return env.sm.estimate_arl(
            env.generator(), env.model.params, chart, reps=1, max_rl=MAX_RL,
            seed=(seed, i), threads=threads, phase1_size=self.PHASE1_SIZE,
        )

    def check(self, env, chart, out) -> list[str]:
        rl = out.run_lengths
        if out.reps != 1 or rl is None or rl.shape != (1,):
            return [f"expected one run length, got {rl!r}"]
        if not 1 <= int(rl[0]) <= MAX_RL:
            return [f"run length {int(rl[0])} outside [1, {MAX_RL}]"]
        return []


WORKLOADS = {w.name: w for w in (Calibrate(), ShiftStudy(), Monitor(), Phase1Arl())}
