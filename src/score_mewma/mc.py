"""Monte Carlo engine: patient generation and vectorized run-length simulation.

Every replication owns an independent RNG stream derived from
(seed, replication index), so results do not depend on execution order,
batching or thread count. Replications are processed in fixed-size chunks
that a thread pool may pick up in any order; the per-replication numbers are
identical either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .chart import ChartConfig
from .errors import ModelConfigError, ShiftError
from .likelihood import score_rows
from .model import CovariateModel, DagModelSpec, ParamVector, PatientData, node_designs, node_eta

CHUNK = 2048  # replications per work unit; fixed so thread count cannot matter
BUF = 256  # patients drawn per RNG call, amortizes generator overhead

ENV_THREADS = "SCORE_MEWMA_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else SCORE_MEWMA_THREADS, else auto (0).

    A negative count, or an environment value that is not an integer,
    raises ModelConfigError.
    """
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "").strip() or "0"
        if not raw.isdecimal():
            raise ModelConfigError(f"{ENV_THREADS} must be a non-negative integer, got {raw!r}")
        threads = int(raw)
    if threads < 0:
        raise ModelConfigError(f"threads must be non-negative, got {threads}")
    if threads == 0:
        threads = min(os.cpu_count() or 1, 4)
    return int(threads)


def _seed_parts(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def replication_rng(seed, rep: int) -> np.random.Generator:
    """Independent stream for one replication of one experiment."""
    ss = np.random.SeedSequence(entropy=list(_seed_parts(seed)), spawn_key=(int(rep),))
    return np.random.Generator(np.random.PCG64(ss))


def apply_mean_shift(kind: str, c: float, mu: np.ndarray) -> np.ndarray:
    """Post-transform a node's mean response under a mean-level shift."""
    if kind == "additive":
        return mu * (1.0 + c)
    if kind == "odds":
        return c * mu / (1.0 - mu + c * mu)
    raise ShiftError(f"unknown mean shift kind {kind!r}")


@dataclass(frozen=True)
class PatientGenerator:
    """A data-generating rule: model structure, generation coefficients,
    covariate marginals, and an optional mean-level shift on one node."""

    spec: DagModelSpec
    params: ParamVector
    covariates: CovariateModel
    mu_shift: tuple[str, str, float] | None = None  # (node id, kind, c)


class _AncestralPass:
    """Ancestral sampling under a generator, with each node's mean at params0.

    Called with an (n, k) block of uniforms, one row per patient laid out
    like the ``[x | z | y]`` bit row, it returns the (n, k) float bit matrix
    and, per node, the mean response at params0 of every patient. A node
    whose params0 block equals the generator's reuses the generating mean
    before any mean shift.
    """

    def __init__(self, generator: PatientGenerator, params0: ParamVector):
        spec = generator.spec
        if len(params0) != spec.n_params:
            raise ModelConfigError("params0 does not match the model's coefficient layout")
        self.designs = node_designs(spec)
        self.p_cov = generator.covariates.prevalences(spec)
        self.theta_gen = [generator.params.values[d.param_indices] for d in self.designs]
        self.theta0 = [params0.values[d.param_indices] for d in self.designs]
        self.same = [np.array_equal(a, b) for a, b in zip(self.theta_gen, self.theta0)]
        self.shift_node, self.shift = -1, None
        if generator.mu_shift is not None:
            node_id, kind, c = generator.mu_shift
            self.shift_node, self.shift = spec.node_index(node_id), (kind, c)

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        n_cov = self.p_cov.shape[0]
        bits = np.empty(u.shape)
        bits[:, :n_cov] = u[:, :n_cov] < self.p_cov
        means = []
        for vi, design in enumerate(self.designs):
            mu = expit(node_eta(design, self.theta_gen[vi], bits))
            means.append(mu if self.same[vi] else expit(node_eta(design, self.theta0[vi], bits)))
            if vi == self.shift_node:
                mu = apply_mean_shift(*self.shift, mu)
            bits[:, design.out_col] = u[:, design.out_col] < mu
        return bits, means


def sample_patients(generator: PatientGenerator, n: int, rng) -> PatientData:
    """Draw n patients by ancestral sampling; rng may be a Generator or seed.

    Each patient consumes one row of k uniforms from ``rng``, laid out
    ``[x | z | y]``; a covariate or outcome is 1 when its uniform is below
    its probability (its mean response for an outcome, after any mean shift).
    """
    if n < 1:
        raise ModelConfigError("n must be at least 1")
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    spec = generator.spec
    bits, _ = _AncestralPass(generator, generator.params)(rng.random((n, sum(spec.widths))))
    return PatientData.from_bits(spec, bits)


# ---------------------------------------------------------------------------
# Vectorized run-length simulation
# ---------------------------------------------------------------------------


class _CompiledSim:
    """Arrays and index plans shared by every chunk of one simulation."""

    def __init__(self, generator: PatientGenerator, params0: ParamVector, config: ChartConfig, max_rl: int):
        self.sample = _AncestralPass(generator, params0)
        self.k = sum(generator.spec.widths)
        self.r_vec = config.r_vec
        self.warmup = config.warmup
        self.evaluator = config.t2_evaluator
        # every Sigma_W a run can reach is checked and inverted before any thread starts
        self.evaluator.inverse(max_rl)
        self.factors = self.evaluator.factor(np.arange(1, max_rl + 1, dtype=float))


@dataclass
class RunLengthSample:
    """Outcome of one batch of replications.

    run_lengths holds first signal times at the simulated cap; unresolved
    replications are censored at max_rl. When record tracking was on,
    staircases[i] is the (times, values) prefix-maximum path of T2 for
    replication i, valid for evaluating run lengths at any limit <= cap.
    """

    run_lengths: np.ndarray
    resolved: np.ndarray
    cap: float
    max_rl: int
    staircases: list[tuple[np.ndarray, np.ndarray]] | None = None

    def at_limit(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Run lengths and resolution flags for a limit h <= cap."""
        if self.staircases is None:
            raise ModelConfigError("record tracking was disabled for this sample")
        if h > self.cap:
            raise ModelConfigError(f"limit {h} exceeds the simulated cap {self.cap}")
        n = len(self.staircases)
        rl = np.full(n, self.max_rl, dtype=np.int64)
        resolved = np.zeros(n, dtype=bool)
        for i, (times, values) in enumerate(self.staircases):
            j = int(np.searchsorted(values, h, side="right"))
            if j < len(values):
                rl[i] = times[j]
                resolved[i] = True
        return rl, resolved


def _simulate_chunk(
    sim: _CompiledSim,
    gens: list[np.random.Generator],
    cap: float,
    max_rl: int,
    track_records: bool,
):
    """Run one replication per generator to its first T2 above cap or max_rl.

    Each replication draws its patients BUF at a time from its own generator.
    """
    n_reps = len(gens)
    active = np.arange(n_reps)
    w = np.zeros((n_reps, sim.r_vec.shape[0]))
    rec = np.full(n_reps, -np.inf)
    resolved_t = np.zeros(n_reps, dtype=np.int64)
    st_t = [[] for _ in range(n_reps)] if track_records else None
    st_v = [[] for _ in range(n_reps)] if track_records else None
    buf = None

    for t in range(1, max_rl + 1):
        off = (t - 1) % BUF
        if off == 0:
            buf = np.empty((active.size, BUF, sim.k))
            for i, a in enumerate(active):
                buf[i] = gens[a].random((BUF, sim.k))
        bits, means = sim.sample(buf[:, off, :])
        s = score_rows(sim.sample.designs, bits, means)
        w = sim.r_vec * s + (1.0 - sim.r_vec) * w
        t2 = sim.evaluator.t2(w, t, sim.factors[t - 1])
        if t < sim.warmup:
            continue
        if track_records:
            hit = t2 > rec
            if hit.any():
                for i, val in zip(active[hit], t2[hit]):
                    st_t[i].append(t)
                    st_v[i].append(val)
                rec[hit] = t2[hit]
        done = t2 > cap
        if done.any():
            resolved_t[active[done]] = t
            keep = ~done
            active = active[keep]
            w = w[keep]
            rec = rec[keep]
            buf = buf[keep]
            if active.size == 0:
                break

    run_lengths = np.where(resolved_t > 0, resolved_t, max_rl)
    resolved = resolved_t > 0
    stairs = None
    if track_records:
        stairs = [
            (np.asarray(ts, dtype=np.int64), np.asarray(vs, dtype=float))
            for ts, vs in zip(st_t, st_v)
        ]
    return run_lengths, resolved, stairs


def simulate_run_lengths(
    generator: PatientGenerator,
    params0: ParamVector,
    config: ChartConfig,
    reps: int,
    max_rl: int,
    seed,
    cap: float | None = None,
    threads: int | None = None,
    track_records: bool = False,
) -> RunLengthSample:
    """Simulate fresh patient streams and record first crossing times of T2.

    ``cap`` defaults to the config's control limit. Identical seeds give
    identical results for any thread count.
    """
    if reps < 1:
        raise ModelConfigError("reps must be at least 1")
    if max_rl < 1:
        raise ModelConfigError("max_rl must be at least 1")
    if cap is None:
        cap = config.h
    if cap is None:
        raise ModelConfigError("either config.h or an explicit cap is required")
    parts = _seed_parts(seed)
    sim = _CompiledSim(generator, params0, config, max_rl)
    chunks = [(lo, min(lo + CHUNK, reps) - lo) for lo in range(0, reps, CHUNK)]
    workers = min(resolve_threads(threads), len(chunks))

    def job(chunk):
        lo, n = chunk
        gens = [replication_rng(parts, rep) for rep in range(lo, lo + n)]
        return _simulate_chunk(sim, gens, cap, max_rl, track_records)

    if workers <= 1:
        results = [job(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, chunks))

    run_lengths = np.concatenate([r[0] for r in results])
    resolved = np.concatenate([r[1] for r in results])
    stairs = None
    if track_records:
        stairs = [pair for r in results for pair in r[2]]
    return RunLengthSample(
        run_lengths=run_lengths, resolved=resolved, cap=float(cap), max_rl=max_rl, staircases=stairs
    )
