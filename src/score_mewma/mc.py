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
from .model import CovariateModel, DagModelSpec, ParamVector, PatientData, node_designs

CHUNK = 2048  # replications per work unit; fixed so thread count cannot matter
BUF = 256  # patients drawn per RNG call, amortizes generator overhead

ENV_THREADS = "SCORE_MEWMA_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else SCORE_MEWMA_THREADS, else auto."""
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "").strip()
        threads = int(raw) if raw else 0
    if threads == 0:
        threads = min(os.cpu_count() or 1, 4)
    return max(1, int(threads))


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

    def mu_transform(self, node_id: str, mu: np.ndarray) -> np.ndarray:
        if self.mu_shift is None or self.mu_shift[0] != node_id:
            return mu
        _, kind, c = self.mu_shift
        return apply_mean_shift(kind, c, mu)


def _generate_batch(generator: PatientGenerator, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ancestral sampling driven by pre-drawn uniforms, one row per patient."""
    spec = generator.spec
    nx, nz = len(spec.process_ids), len(spec.risk_ids)
    px, pz = generator.covariates.arrays(spec)
    n = u.shape[0]
    xf = (u[:, :nx] < px).astype(float)
    zf = (u[:, nx : nx + nz] < pz).astype(float)
    yf = np.empty((n, spec.n_nodes))
    designs = node_designs(spec)
    for vi, node in enumerate(spec.nodes):
        design = designs[vi]
        theta = generator.params.values[design.param_indices]
        eta = np.full(n, theta[0])
        k = 1
        for c in design.x_cols:
            eta += theta[k] * xf[:, c]
            k += 1
        for c in design.y_cols:
            eta += theta[k] * yf[:, c]
            k += 1
        for c in design.z_cols:
            eta += theta[k] * zf[:, c]
            k += 1
        mu = generator.mu_transform(node.id, expit(eta))
        yf[:, vi] = u[:, nx + nz + vi] < mu
    return xf, zf, yf


def sample_patients(generator: PatientGenerator, n: int, rng) -> PatientData:
    """Draw n patients by ancestral sampling; rng may be a Generator or seed."""
    if n < 1:
        raise ModelConfigError("n must be at least 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    spec = generator.spec
    k = len(spec.covariate_names) + spec.n_nodes
    xf, zf, yf = _generate_batch(generator, rng.random((n, k)))
    return PatientData(x=xf.astype(np.int8), z=zf.astype(np.int8), y=yf.astype(np.int8))


# ---------------------------------------------------------------------------
# Vectorized run-length simulation
# ---------------------------------------------------------------------------


class _CompiledSim:
    """Arrays and index plans shared by every chunk of one simulation."""

    def __init__(self, generator: PatientGenerator, params0: ParamVector, config: ChartConfig, max_rl: int):
        spec = generator.spec
        if len(params0) != spec.n_params:
            raise ModelConfigError("params0 does not match the model's coefficient layout")
        self.spec = spec
        self.nx = len(spec.process_ids)
        self.nz = len(spec.risk_ids)
        self.nv = spec.n_nodes
        self.k = self.nx + self.nz + self.nv
        self.px, self.pz = generator.covariates.arrays(spec)
        self.designs = node_designs(spec)
        self.theta_gen = [generator.params.values[d.param_indices] for d in self.designs]
        self.theta0 = [params0.values[d.param_indices] for d in self.designs]
        self.same = [np.array_equal(a, b) for a, b in zip(self.theta_gen, self.theta0)]
        if generator.mu_shift is None:
            self.shift_node = -1
            self.shift_kind = self.shift_c = None
        else:
            node_id, self.shift_kind, self.shift_c = generator.mu_shift
            self.shift_node = spec.node_index(node_id)
        self.p_full = spec.n_params
        self.r_vec = config.r_vec
        self.warmup = config.warmup
        self.evaluator = config.t2_evaluator
        # every Sigma_W a run can reach is checked and inverted before any thread starts
        self.evaluator.inverse(max_rl)
        self.factors = self.evaluator.factor(np.arange(1, max_rl + 1, dtype=float))

    def step_scores(self, u: np.ndarray) -> np.ndarray:
        """Sample one patient per row from the uniforms and score at params0."""
        n = u.shape[0]
        xf = (u[:, : self.nx] < self.px).astype(float)
        zf = (u[:, self.nx : self.nx + self.nz] < self.pz).astype(float)
        yf = np.empty((n, self.nv))
        s = np.empty((n, self.p_full))
        blocks = (xf, yf, zf)
        for vi in range(self.nv):
            design = self.designs[vi]
            cols = [xf[:, c] for c in design.x_cols]
            cols += [yf[:, c] for c in design.y_cols]
            cols += [zf[:, c] for c in design.z_cols]
            th_g = self.theta_gen[vi]
            eta_g = np.full(n, th_g[0])
            for k, col in enumerate(cols, start=1):
                eta_g = eta_g + th_g[k] * col
            mu_g = expit(eta_g)
            if vi == self.shift_node:
                mu_g = apply_mean_shift(self.shift_kind, self.shift_c, mu_g)
            yv = (u[:, self.nx + self.nz + vi] < mu_g).astype(float)
            yf[:, vi] = yv
            if self.same[vi]:
                eta0 = eta_g
            else:
                th0 = self.theta0[vi]
                eta0 = np.full(n, th0[0])
                for k, col in enumerate(cols, start=1):
                    eta0 = eta0 + th0[k] * col
            resid = yv - expit(eta0)
            idx = design.param_indices
            s[:, idx[0]] = resid
            for k, col in enumerate(cols, start=1):
                s[:, idx[k]] = col * resid
        return s


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
        s = sim.step_scores(buf[:, off, :])
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
        else:
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
