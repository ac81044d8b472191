"""Benchmark of the score_mewma package: four workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's operations for ``--seconds`` and prints
the end-to-end metrics, with operation time given in units of a fixed
reference computation timed between the operations. ``--trace 1`` runs
each of a fixed number of operations, whatever ``--seconds`` says, three
times (untraced, traced, traced at one thread), prints the per-layer
metrics, and fails the run if a count metric differs between the two
thread counts. ``--workload all``
runs every workload in turn, each in a child process. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Records and spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
# the package's third-party imports, loaded before the measured set-up
import scipy.special  # noqa: F401
import scipy.stats  # noqa: F401

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREADS = 2  # worker threads passed to every call; fixed so machines compare
GLIBC_SYSCONF = {"SC_LEVEL2_CACHE_SIZE": 191, "SC_LEVEL3_CACHE_SIZE": 194}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "score_mewma" or k.startswith("score_mewma.")}


class SetupClock:
    """Times set-up: a fresh import of score_mewma and its CLI, the model,
    exact Sigma_S and ChartConfig.

    Set-up is sampled before the first operation and again after the last,
    each time from a collected heap, because a shared machine's speed
    drifts over seconds and one burst of samples sees one moment of it.
    The first sample compiles bytecode and is not counted.
    """

    SAMPLES = 8  # at each end of a run

    def __init__(self):
        self.seconds: list[float] = []
        self.sigma_seconds: list[float] = []

    def sample(self):
        """Sample SAMPLES times and return the env built by the last sample.

        The package is imported afresh, so an env built before no longer
        shares its modules with sys.modules.
        """
        for _ in range(self.SAMPLES):
            env = self._sample()
        return env

    def _sample(self):
        for name in _package_modules():
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        sm = importlib.import_module("score_mewma")
        cli = importlib.import_module("score_mewma.cli")
        env, sigma_s = workloads.build_env(sm, cli)
        self.seconds.append(time.perf_counter() - t0)
        self.sigma_seconds.append(sigma_s)
        if Path(sm.__file__).resolve().parent != (SRC / "score_mewma").resolve():
            raise ImportError(f"score_mewma was imported from {sm.__file__}, not from {SRC}")
        return env

    def median_s(self) -> float:
        return statistics.median(self.seconds[1:])

    def median_sigma_s(self) -> float:
        return statistics.median(self.sigma_seconds[1:])


class SpeedGauge:
    """Times a fixed reference computation between operations.

    On a shared host the same work takes up to twice as long from one
    minute to the next, and the operations slow down with everything else
    on the core. An operation's time over the reference's, both taken in the
    same stretch of the run, cancels that drift. The reference does the
    kinds of work the package does, on fixed inputs, and calls no code of
    the package.
    """

    GAP_S = 0.25  # one sample per this much run time, about 8% of it
    MAX_BATCH = 8

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((6, 6))
        self._sym = a @ a.T + 6.0 * np.eye(6)
        self._theta = rng.standard_normal(6)
        self._x = np.column_stack([np.ones(2000), rng.integers(0, 2, (2000, 7))]).astype(float)
        self._beta = 0.3 * rng.standard_normal(8)
        self._rng = np.random.Generator(np.random.PCG64(12345))
        self._reference()  # first calls into numpy's linear algebra are slower
        self.seconds: list[float] = []
        self._last = time.perf_counter() - self.GAP_S  # the first catch_up samples once

    def _reference(self):
        """About 20 ms in four parts of about equal time: an interpreter
        loop, 6x6 eigvalsh and solve, Newton steps of a 2000-row logistic
        fit, and uniform draws on 2000x8 arrays."""
        total = 0.0
        for i in range(64000):
            total += i * 0.5
        for _ in range(300):
            total += float(np.linalg.eigvalsh(self._sym)[0])
            total += float(np.linalg.solve(self._sym, self._theta)[0])
        x = self._x
        for _ in range(64):
            p = 1.0 / (1.0 + np.exp(-(x @ self._beta)))
            hessian = x.T @ (x * (p * (1.0 - p))[:, None])
            total += float(np.linalg.solve(hessian, x.T @ (p - 0.5))[0])
        for _ in range(72):
            total += float((self._rng.random((2000, 8)) < 0.3).sum())
        return total

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            self._reference()
            self._last = time.perf_counter()
            self.seconds.append(self._last - t0)

    def catch_up(self):
        """One sample for each GAP_S seconds since the last, at most MAX_BATCH.

        Samples can only be taken between operations; batching them keeps
        the sampling even over run time when operations are long.
        """
        self.sample(min(self.MAX_BATCH, int((time.perf_counter() - self._last) / self.GAP_S)))

    def mean_s(self) -> float:
        return statistics.fmean(self.seconds)


@dataclass
class Op:
    """One timed operation: seconds, the package error it raised, check problems.

    A rejected operation raised one of its workload's ``rejections``: a
    typed error the package is known to raise on some inputs. It reached no
    solution and counts in ``ops_failed_frac``, but not in ``failed``, which
    holds wrong outputs and unexpected errors.
    """

    index: int
    seconds: float
    output: object
    error: str | None
    problems: list[str]
    rejected: bool = False

    @property
    def failed(self) -> bool:
        return (self.error is not None and not self.rejected) or bool(self.problems)

    @property
    def solved(self) -> bool:
        return self.error is None and not self.problems


@dataclass
class Result:
    """What a run reports: the counted operations, metrics and check failures."""

    ops: list[Op]
    metrics: dict[str, tuple[float, str]]
    details: dict
    problems: list[str]
    failed: int


def run_op(workload, env, inputs, seed, i, threads, tracer=None) -> Op:
    """Operation i, timed; its output check runs outside the timed region."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(env, inputs, seed, i, threads)
        else:
            out = tracer.call("op", workload.run, env, inputs, seed, i, threads)
        error = None
    except (env.sm.ScoreMewmaError, workloads.OperationError) as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
        rejected = isinstance(exc, tuple(getattr(env.sm, name) for name in workload.rejections))
    seconds = time.perf_counter() - t0
    if error is None:
        return Op(i, seconds, out, None, workload.check(env, inputs, out))
    return Op(i, seconds, out, error, [], rejected)


def run_ops(workload, env, inputs, seed, threads, budget, gauge):
    """Run operations 0, 1, ... for ``budget`` seconds.

    The run stops before an operation that would end past the budget at the
    mean operation time so far; it always runs at least one. The gauge
    catches up before each operation and after the last, within the budget.
    """
    ops = []
    start = time.perf_counter()
    while True:
        gauge.catch_up()
        ops.append(run_op(workload, env, inputs, seed, len(ops), threads))
        mean = sum(op.seconds for op in ops) / len(ops)
        if time.perf_counter() - start + mean > budget:
            gauge.catch_up()
            return ops


def record_latencies(ops):
    """p50 and p99 of the monitor's record gaps in us, with the gap count."""
    gaps = [op.output.record_gaps_us() for op in ops if isinstance(op.output, workloads.MonitorOutput)]
    if not gaps:
        return None
    gaps = np.concatenate(gaps)
    return float(np.percentile(gaps, 50)), float(np.percentile(gaps, 99)), len(gaps)


def environment(seed, workload, trace):
    def cache(glibc_name):
        # Python does not export these sysconf names; the numbers are glibc's
        if platform.libc_ver()[0] != "glibc":
            return None
        try:
            value = os.sysconf(GLIBC_SYSCONF[glibc_name])
        except (ValueError, OSError):
            return None
        return value if value > 0 else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "score_mewma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_cache_bytes": cache("SC_LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": cache("SC_LEVEL3_CACHE_SIZE"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def failure_summary(ops):
    classes: dict[str, int] = {}
    for op in ops:
        if op.error is not None:
            key = op.error.split(":")[0]
            classes[key] = classes.get(key, 0) + 1
    return classes


def check_problems(ops):
    return [f"op {op.index}: {p}" for op in ops for p in op.problems]


def end_to_end(workload, env, inputs, seed, seconds, setup) -> Result:
    gauge = SpeedGauge()
    ops = run_ops(workload, env, inputs, seed, THREADS, seconds, gauge)
    setup.sample()
    done = [op for op in ops if op.solved] or ops
    # mean over the operations that reached a solution; a median would jump
    # between modes where the work per operation is bimodal, as a
    # calibration's is
    wall_s = sum(op.seconds for op in done) / len(done)
    metrics = {
        "setup_s": (setup.median_s(), "s"),
        "wall_ref": (wall_s / gauge.mean_s(), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "wall_s": wall_s,
        "reference_s": gauge.mean_s(),
        "reference_samples": len(gauge.seconds),
        "ops": len(ops),
        "ops_failed_frac": sum(not op.solved for op in ops) / len(ops),
        "ops_rejected": sum(op.rejected for op in ops),
        "failures": failure_summary(ops),
        "op_seconds": [op.seconds for op in ops],
        "setup_samples": len(setup.seconds) - 1,
    }
    latencies = record_latencies(done)
    if latencies is not None:
        details["record_latency_p50_us"], details["record_latency_p99_us"], details["records"] = latencies
    return Result(ops, metrics, details, check_problems(ops), sum(op.failed for op in ops))


def traced(workload, env, inputs, seed, setup) -> Result:
    """Untraced, traced, and traced at one thread, over the same operations."""
    n = workload.trace_ops
    tracers = {THREADS: tracing.Tracer(), 1: tracing.Tracer()}
    plain, passes = [], {THREADS: [], 1: []}
    # the three runs of an operation follow each other, so that drift in
    # machine speed cancels from the tracing overhead
    for i in range(n):
        plain.append(run_op(workload, env, inputs, seed, i, THREADS))
        for threads, tracer in tracers.items():
            tracer.install(env.sm)
            try:
                passes[threads].append(run_op(workload, env, inputs, seed, i, threads, tracer))
            finally:
                tracer.uninstall()
    counts = {}
    for threads, tracer in tracers.items():
        table = tracing.SpanTable(tracer.spans)
        counts[threads] = {**tracing.count_metrics(table), "ops_failed": sum(op.failed for op in passes[threads]),
                           "ops_rejected": sum(op.rejected for op in passes[threads])}
    metrics = tracing.layer_metrics(tracing.SpanTable(tracers[THREADS].spans))
    OUT.mkdir(exist_ok=True)
    tracers[THREADS].dump(str(OUT / f"spans_{workload.name}_seed{seed}.jsonl"))
    ops = passes[THREADS]
    mismatched = sorted(k for k in counts[THREADS] if counts[THREADS][k] != counts[1][k])
    latencies = record_latencies(plain) or (0.0, 0.0, 0)
    metrics["likelihood.sigma_exact_ms"] = (setup.median_sigma_s() * 1e3, "ms")
    metrics["cli.record_latency_p50_us"] = (latencies[0], "us")
    metrics["cli.record_latency_p99_us"] = (latencies[1], "us")
    metrics["ops_failed_frac"] = (sum(not op.solved for op in ops) / len(ops), "ratio")
    metrics["determinism_mismatches"] = (float(len(mismatched)), "count")
    overhead = sum(op.seconds for op in ops) / sum(op.seconds for op in plain) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    details = {
        "ops": n,
        "ops_rejected": sum(op.rejected for op in ops),
        "failures": failure_summary(ops),
        "count_metrics": {f"threads_{t}": c for t, c in counts.items()},
        "op_seconds": {"untraced": [op.seconds for op in plain], "traced": [op.seconds for op in ops],
                       "traced_1_thread": [op.seconds for op in passes[1]]},
    }
    problems = check_problems(plain + ops + passes[1])
    if mismatched:
        problems.append(f"count metrics differ between {THREADS} threads and 1: {', '.join(mismatched)}")
    return Result(ops, metrics, details, problems, sum(op.failed for op in ops) + bool(mismatched))


def run_workload(name, seed, seconds, trace, env, setup) -> dict:
    workload = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        inputs = workload.prepare(env, seed, workdir)
        if trace:
            result = traced(workload, env, inputs, seed, setup)
        else:
            result = end_to_end(workload, env, inputs, seed, seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}
    record = {
        "environment": environment(seed, name, trace),
        "metrics": metrics,
        "details": result.details,
        "problems": result.problems,
    }
    with open(OUT / f"BENCH_{name}_seed{seed}_trace{trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for p in result.problems:
        print(f"[{name}] CHECK FAILED {p}")
    for key, (value, unit) in result.metrics.items():
        print(f"[{name}] {key} = {value:.6g} {unit}")
    for key in ("wall_s", "reference_s", "ops", "ops_failed_frac", "ops_rejected", "record_latency_p50_us", "record_latency_p99_us",
                "records"):
        if key in result.details:
            print(f"[{name}] {key} = {result.details[key]:.6g}")
    if result.details["failures"]:
        print(f"[{name}] operations that raised, by class: {result.details['failures']}")
    return {
        "correct": not result.problems,
        "attempted": len(result.ops),
        "failed": result.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in a child process of its own, so that each reports its own peak memory."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "score_mewma" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'score_mewma'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = SetupClock()
    env = setup.sample()
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace, env, setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
