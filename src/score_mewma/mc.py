"""Monte Carlo engine: patient generation and vectorized run-length simulation.

Replication ``rep`` of seed s reads SplitMix64 from a 64-bit key K(s, rep):
output t is mix64(K + t * GAMMA mod 2^64), whose top 53 bits give a
uniform, so patient t is a function of (s, rep, t) alone. Results do not
depend on execution order, chunking, lane mates, max_rl or worker count.
Replications run in fixed-size chunks, in process at one worker or when
a batch holds one chunk, and otherwise on a persistent pool of forked
worker processes.

Inside a chunk every active replication is one lane, and each loop
iteration advances every lane a block of patients (``_simulate_chunk``):
the block's uniforms come from one vectorized call, and scoring, the EWMA
and T2 each take the whole block. Block length changes no lane's
arithmetic, so results do not depend on it. With at most
``model.ENUM_LIMIT`` bits a patient reads one output, whose uniform picks
its type from the cumulative type probabilities, and its row from a table
over the 2^k types; above it a patient reads k uniforms, from which
``_generate``, the one ancestral sampler, draws it, and it is scored on its
own. A type's table row is the float its patient would get on its own. Node
means come from ``model.node_means``. The type is found by a guide table
over the top ``_GUIDE_BITS`` bits of the output, which gives the type the
binary search over the cumulative probabilities gives for every output;
only an output whose bucket holds a cumulative probability goes on to that
search.

The EWMA runs in whitened coordinates. The evaluator's factor W (W W' =
Sigma_S^{-1}) mixes only coordinates of one smoothing weight, and on each
run of coordinates of weight r Sigma_W,t = f_t(r) Sigma_S, so the state
z_t = w_t W has T2_t = sum over runs of ||z_t,run||^2 / f_t(r). A type's
row is then s (W R), summed over the columns of s in a fixed order, z_t =
row_t + (I - R) z_{t-1}, and T2 is a sum of squares with no matrix product
per step. Sigma_S is block-diagonal by node, so each node's columns of z
hold its share of T2.

Per coordinate that EWMA is a first-order recursive filter. A wide block
runs it a step at a time, two numpy calls a step; a narrow one, of fewer
state columns (lanes x p) than steps, as in a small calibration stage or
a chunk's last long runs, is one ``scipy.signal.lfilter`` call per run of
equal r, which rounds as the step does, fl(row + fl(q z)), bit for bit.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
import os
import pickle
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import lfilter
from scipy.special import expit

from . import model
from .chart import ChartConfig
from .errors import ModelConfigError, ShiftError
from .likelihood import MAX_MC_SAMPLES, score_rows
from .model import CovariateModel, DagModelSpec, ParamVector, PatientData, joint_probs, node_designs, node_eta
from .model import node_means, type_bits

CHUNK = 2048  # replications per work unit; fixed so worker count cannot matter
IN_FLIGHT = 2  # most chunks per worker a batch keeps queued or running on the pool
BUF = 256  # most patients a lane advances per kernel iteration
STEP = 16  # fewest patients a lane advances per kernel iteration
LANE_STEPS = 8192  # a block of more than STEP steps stays within this many lane-steps
_GUIDE_BITS = 12  # a type guide table has 2^12 buckets, read at an output's top 12 bits
MAX_THREADS = 64  # most worker processes; not the machine's count, so a manifest replays anywhere
MAX_RL = 10**7  # the longest run a simulation follows

ENV_THREADS = "SCORE_MEWMA_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else SCORE_MEWMA_THREADS, else auto (0).

    Auto is the number of CPUs this process may run on, at most 4. A count
    outside [0, MAX_THREADS], from the argument or the environment, and an
    environment value that is not an integer, raise ModelConfigError.
    """
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "").strip() or "0"
        if not raw.isdecimal() or int(raw) > MAX_THREADS:
            raise ModelConfigError(f"{ENV_THREADS} must be an integer from 0 to {MAX_THREADS}, got {raw!r}")
        threads = int(raw)
    if threads < 0:
        raise ModelConfigError(f"threads must be non-negative, got {threads}")
    if threads > MAX_THREADS:
        raise ModelConfigError(f"threads must be at most {MAX_THREADS}, got {threads}")
    if threads == 0:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        threads = min(cpus or 1, 4)
    return int(threads)


_pool = None  # (owner pid, worker count, executor, worker processes) of the running pool
_pool_lock = threading.RLock()


def _worker_init(parent: int) -> None:
    """Workers leave Ctrl-C to the parent, which cancels their queued work,
    and end soon after the parent, also when it was killed before it could
    stop them."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    threading.Thread(target=_exit_after, args=(parent,), daemon=True).start()


def _exit_after(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def worker_pool(workers: int) -> ProcessPoolExecutor | None:
    """The persistent pool of ``workers`` forked processes, started on first use.

    None, and runs stay in process, at one worker or where ``fork`` is not
    the platform's default start method. The pool is forked again when a
    call asks for another worker count or one of its workers has died.
    """
    global _pool
    if workers <= 1 or multiprocessing.get_all_start_methods()[0] != "fork":
        return None
    with _pool_lock:
        if _pool is not None:
            owner, count, executor, procs = _pool
            if owner == os.getpid() and count == workers and all(p.is_alive() for p in procs):
                return executor
            shutdown_pool()
        before = set(multiprocessing.active_children())
        context = multiprocessing.get_context("fork")
        executor = ProcessPoolExecutor(workers, mp_context=context, initializer=_worker_init, initargs=(os.getpid(),))
        # a Ctrl-C between a fork and the worker's initializer stays pending
        # in the child, where the initializer discards it
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns about any fork in a process with more
                # than one OS thread. The package starts no thread in this
                # process, so the pool forks while the only other threads are
                # OpenBLAS's idle pool (numpy starts one, scipy another),
                # which re-initialises in the child through its
                # pthread_atfork handler.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)", DeprecationWarning
                )
                # one task per worker forks all of them now, where processes
                # start on demand as well as where they start together
                for future in [executor.submit(int) for _ in range(workers)]:
                    future.result()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        procs = [p for p in multiprocessing.active_children() if p not in before]
        _pool = (os.getpid(), workers, executor, procs)
        return executor


def shutdown_pool(executor: ProcessPoolExecutor | None = None) -> None:
    """Stop the worker pool's workers, and with them its running chunks, and
    cancel its queued chunks; the next call that needs workers forks new
    ones. Given an ``executor`` that is no longer the pool, do nothing."""
    global _pool
    with _pool_lock:
        if _pool is None or executor not in (None, _pool[2]):
            return
        owner, _, running, procs = _pool
        _pool = None
        if owner == os.getpid():  # a forked child leaves its parent's pool alone
            # terminated first, as CPython's broken-pool path does: after a worker's
            # death an idle survivor may hold the call queue's lock and never be joined
            for proc in procs:
                proc.terminate()
            running.shutdown(wait=True, cancel_futures=True)


def _seed_parts(seed) -> tuple[int, ...]:
    """The seed as a tuple of non-negative ints; a seed that is not a
    non-negative integer, or a tuple or list of them, raises ModelConfigError."""
    try:
        parts = tuple(map(operator.index, seed if isinstance(seed, (tuple, list)) else (seed,)))
    except TypeError:
        parts = None
    if parts is None or any(s < 0 for s in parts):
        raise ModelConfigError(
            f"seed must be a non-negative integer or a tuple or list of them, got {seed!r}"
        )
    return parts


GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: the odd integer nearest 2^64 / golden ratio
_MULT_A, _MULT_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # SplitMix64's finalizer
_M64 = 2**64 - 1


def _mix64_int(z: int) -> int:
    """SplitMix64's finalizer of a Python int below 2^64."""
    z = (z ^ z >> 30) * _MULT_A & _M64
    z = (z ^ z >> 27) * _MULT_B & _M64
    return z ^ z >> 31


def _mix64(z: np.ndarray) -> np.ndarray:
    """``_mix64_int`` of every element of a uint64 array, in place; returns the array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MULT_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MULT_B)
    z ^= z >> np.uint64(31)
    return z


def _seed_key(seed) -> int:
    """The seed's 64-bit key H(s): starting from GAMMA, each part's count of
    64-bit words and then its words, low first, are xored in and mixed."""
    h = GAMMA
    for part in _seed_parts(seed):
        words = [part & _M64]
        while part >> 64 * len(words):
            words.append(part >> 64 * len(words) & _M64)
        for word in [len(words), *words]:
            h = _mix64_int(h ^ word)
    return h


def _replication_keys(seed_key: int, lo: int, n: int) -> np.ndarray:
    """Keys of replications lo .. lo+n-1: K(s, rep) = mix64(H(s) + rep * GAMMA mod 2^64)."""
    return _mix64(np.arange(lo, lo + n, dtype=np.uint64) * np.uint64(GAMMA) + np.uint64(seed_key))


def _outputs(keys: np.ndarray, after: int, n: int) -> np.ndarray:
    """(n, len(keys)) stream outputs: row i holds output after + i + 1 of
    every key's stream."""
    counters = np.arange(after + 1, after + n + 1, dtype=np.uint64) * np.uint64(GAMMA)
    return _mix64(counters[:, None] + keys)


def _to_uniforms(x: np.ndarray) -> np.ndarray:
    """The uniform in [0, 1) of each stream output: its top 53 bits over 2^53."""
    return (x >> np.uint64(11)) * 2.0**-53


def _uniforms(keys: np.ndarray, after: int, n: int) -> np.ndarray:
    """``_outputs`` as uniforms."""
    return _to_uniforms(_outputs(keys, after, n))


@dataclass
class ReplicationStream:
    """One replication's counter-based stream (SplitMix64 from state
    ``key``): output t = 1, 2, ... is mix64(key + t * GAMMA mod 2^64), so
    any output is read without the ones before it. ``position`` counts the
    outputs read so far."""

    key: int
    position: int = 0

    def _next(self, n: int) -> np.ndarray:
        """The stream's next n outputs."""
        x = _outputs(np.array([self.key], dtype=np.uint64), self.position, n)[:, 0]
        self.position += n
        return x

    def random(self, n: int) -> np.ndarray:
        """The stream's next n uniforms."""
        return _to_uniforms(self._next(n))


def replication_rng(seed, rep: int) -> ReplicationStream:
    """The stream of replication ``rep`` of ``seed``, at its start; the
    kernel draws that replication's patients from the same outputs."""
    rep = operator.index(rep)
    if not 0 <= rep < 2**64:
        raise ModelConfigError(f"rep must lie in [0, 2**64), got {rep}")
    return ReplicationStream(int(_replication_keys(_seed_key(seed), rep, 1)[0]))


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

    def __post_init__(self):
        if len(self.params) != self.spec.n_params:
            raise ModelConfigError("params do not match the model's coefficient layout")

    @cached_property
    def _type_law(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The cumulative type probabilities under the generator, multiplied out
        as in ``enumerate_patients`` with the mean shift on its node and divided
        by the last so that it is exactly 1 (see ``_pick_types``), and their
        guide table; None above ``model.ENUM_LIMIT`` bits. Built on first use
        and kept; ``dataclasses.replace`` gives a generator that builds its own."""
        k = sum(self.spec.widths)
        if k > model.ENUM_LIMIT:
            return None
        types = type_bits(k)
        means = node_means(node_designs(self.spec), self.params.values, types)
        means = [_mean_shifted(self, vi, mu) for vi, mu in enumerate(means)]
        cdf = np.cumsum(joint_probs(self.spec, self.covariates, types, means))
        cdf = cdf / cdf[-1]
        return cdf, _type_guide(cdf)


def _mean_shifted(generator: PatientGenerator, vi: int, mu: np.ndarray) -> np.ndarray:
    """Node vi's mean response mu, after the generator's mean shift if that acts on node vi."""
    if generator.mu_shift is None:
        return mu
    node_id, kind, c = generator.mu_shift
    return apply_mean_shift(kind, c, mu) if generator.spec.node_index(node_id) == vi else mu


def _generate(generator: PatientGenerator, u: np.ndarray) -> np.ndarray:
    """The (n, k) bit rows drawn node by node from the rows of u, k uniforms laid
    out ``[x | z | y]``: a covariate or outcome is 1 when its uniform is below its
    prevalence, or its node's mean response after any mean shift."""
    spec, values = generator.spec, generator.params.values
    p_cov = generator.covariates.prevalences(spec)
    bits = np.empty(u.shape)
    bits[:, : p_cov.size] = u[:, : p_cov.size] < p_cov
    for vi, design in enumerate(node_designs(spec)):
        mu = _mean_shifted(generator, vi, expit(node_eta(design, values[design.param_indices], bits)))
        bits[:, design.out_col] = u[:, design.out_col] < mu
    return bits


def _pick_types(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The type each uniform u < 1 picks: i with cdf[i-1] <= u < cdf[i], so
    never a type of probability 0."""
    return np.searchsorted(cdf, u, side="right")


def _type_guide(cdf: np.ndarray) -> np.ndarray:
    """The guide table of ``cdf`` (Chen's cutpoint method), int32.

    Bucket b holds the uniforms in [b, b + 1) / 2^_GUIDE_BITS. Its entry is
    the type that ``_pick_types`` gives every one of them, the count of
    cdf entries at or below b / 2^_GUIDE_BITS, or -1 where a cdf entry lies
    strictly inside the bucket. Scaling by a power of two is exact, so an
    entry whose scaled value is not an integer lies inside the bucket below
    its ceiling.
    """
    size = 1 << _GUIDE_BITS
    scaled = cdf * size
    cut = np.ceil(scaled).astype(np.intp)
    guide = np.cumsum(np.bincount(cut, minlength=size + 1)[:size]).astype(np.int32)
    guide[cut[cut != scaled] - 1] = -1
    return guide


def _guided_types(cdf: np.ndarray, guide: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The type each stream output x picks, equal to ``_pick_types`` of its
    uniform: the guide entry of its top ``_GUIDE_BITS`` bits, which give
    the uniform's bucket, and the binary search where that entry is -1."""
    types = guide.take((x >> np.uint64(64 - _GUIDE_BITS)).view(np.int64))
    split = np.flatnonzero(types < 0)
    if split.size:
        types.reshape(-1)[split] = _pick_types(cdf, _to_uniforms(x.reshape(-1)[split]))
    return types


def sample_patients(generator: PatientGenerator, n: int, rng) -> PatientData:
    """Draw n patients; rng is a ``ReplicationStream``, a Generator or a seed.

    From a stream they are the patients the kernel draws from it, and the
    stream advances past them: with at most ``model.ENUM_LIMIT`` bits a patient
    reads one output, which picks its type from the cumulative type
    probabilities through their guide table (``_guided_types``), the type
    the binary search would pick from the output's uniform. Above the
    limit, and from a Generator or a seed, a patient reads k uniforms laid
    out ``[x | z | y]``, from which ``_generate`` samples it. An n outside
    [1, ``likelihood.MAX_MC_SAMPLES``] raises ModelConfigError.
    """
    if n < 1:
        raise ModelConfigError("n must be at least 1")
    if n > MAX_MC_SAMPLES:
        raise ModelConfigError(f"n must be at most {MAX_MC_SAMPLES}, got {n}")
    spec = generator.spec
    k = sum(spec.widths)
    if not isinstance(rng, ReplicationStream):
        u = np.random.default_rng(rng).random((n, k))  # a Generator is returned unaltered
    else:
        if generator._type_law is not None:
            return PatientData.from_bits(spec, type_bits(k)[_guided_types(*generator._type_law, rng._next(n))])
        u = rng.random(n * k).reshape(n, k)
    return PatientData.from_bits(spec, _generate(generator, u))


# ---------------------------------------------------------------------------
# Vectorized run-length simulation
# ---------------------------------------------------------------------------


class _CompiledSim:
    """Arrays and index plans shared by every chunk of one simulation.

    Patients are scored as in ``per_record_scores``, at the coefficients
    ``values0`` of params0, which must have the model's layout. ``whiten``
    is W R for the evaluator's factor W and the smoothing weights R on its
    columns, which equals R W as W mixes only coordinates of one weight;
    the kernel's input rows are the whitened s W R, and ``q`` is 1 - r, a
    scalar when r is equal, and ``runs`` pairs the columns of each run of
    equal r with its q. With k <= model.ENUM_LIMIT bits per patient
    ``cdf`` and ``guide`` are the generator's ``_type_law``: the cumulative
    probabilities of the 2^k patient types under the generator and their
    guide table (``_type_guide``), through which a patient's output finds
    the type the binary search over ``cdf`` would pick. ``table`` then
    holds the (2^k, p) rows of the types at params0; type i has bit j of i
    in column j of the ``[x | z | y]`` row. ``draws`` is the number of
    stream outputs a patient reads: 1 with the tables, else k, which
    ``_generate`` turns into the patient's bits. The table depends on the
    generator and params0 alone, so it is built once per simulation, not
    per chunk. Taking the config's evaluator builds it, which checks and
    factors Sigma_S in the calling process; workers get the whole object
    pickled with each chunk, the generator's law once, and only read it.
    """

    def __init__(self, generator: PatientGenerator, params0: ParamVector, config: ChartConfig):
        if len(params0) != generator.spec.n_params:
            raise ModelConfigError("params0 does not match the model's coefficient layout")
        self.generator = generator
        self.designs = node_designs(generator.spec)
        self.values0 = params0.values
        self.k = sum(generator.spec.widths)
        self.q = float(config.q_vec[0]) if config.equal_r else config.q_vec
        self.warmup = config.warmup
        self.evaluator = config.t2_evaluator
        self.runs = tuple((cols, 1.0 - r) for cols, r in self.evaluator.runs)
        whitener = self.evaluator.whitener()
        self.whiten = whitener * config.r_vec
        # each row's first nonzero column; W is lower triangular, so row j ends at column j
        self.starts = (whitener != 0).argmax(axis=1).tolist()
        self.table = self.cdf = self.guide = None
        self.draws = self.k  # stream outputs each patient reads
        if generator._type_law is not None:
            self.cdf, self.guide = generator._type_law
            self.table = self._scores(type_bits(self.k))
            self.draws = 1

    def _scores(self, bits: np.ndarray) -> np.ndarray:
        """Input rows of an (n, k) bit matrix, scored at params0."""
        return self._from_scores(score_rows(self.designs, bits, node_means(self.designs, self.values0, bits)))

    def _from_scores(self, s: np.ndarray) -> np.ndarray:
        """Input rows of an (n, p) score matrix: s @ whiten summed over the
        columns of s in a fixed order, not by BLAS, so a row's floats do not
        depend on the rows beside it. A term of an exact zero of whiten is
        skipped, as it adds nothing."""
        out = np.zeros(s.shape[::-1])  # transposed, so each step runs along n
        for j, lo in enumerate(self.starts):
            out[lo : j + 1] += self.whiten[j, lo : j + 1, None] * s[:, j]
        return out.T.copy()

    def inputs(self, keys: np.ndarray, after: int, n: int) -> np.ndarray:
        """(n, lanes, p) input rows of the next n patients of each key's
        stream, of which ``after`` outputs are read."""
        if self.table is not None:
            return self.table.take(_guided_types(self.cdf, self.guide, _outputs(keys, after, n)), axis=0)
        u = _uniforms(keys, after, n * self.k).reshape(n, self.k, -1).transpose(0, 2, 1)
        return self._scores(_generate(self.generator, u.reshape(-1, self.k))).reshape(n, keys.size, -1)

    def t2(self, z: np.ndarray, t0: int) -> np.ndarray:
        """T2 of a (steps, lanes, p) block of whitened states at steps t0 + 1,
        t0 + 2, ...: per run of equal r, the sum of squares of its columns
        over that run's f_t of those steps. The columns are copied into one
        contiguous array first, so the order of the sum does not follow the
        block's shape."""
        steps = np.arange(t0 + 1, t0 + z.shape[0] + 1, dtype=float)
        t2 = None
        for cols, r in self.evaluator.runs:
            zr = np.ascontiguousarray(z[..., cols])
            term = np.einsum("ijk,ijk->ij", zr, zr) / self.evaluator.factor(r, steps)[:, None]
            t2 = term if t2 is None else t2 + term
        return t2


@dataclass
class RunLengthSample:
    """Outcome of one batch of replications.

    run_lengths holds first signal times at the simulated cap; unresolved
    replications are censored at max_rl. When record tracking was on,
    ``records`` holds the (replication, time, value) arrays of every record
    high (prefix maximum) of T2, sorted by replication and, within one, by
    time; they give the run lengths at any limit <= cap.
    """

    run_lengths: np.ndarray
    resolved: np.ndarray
    cap: float
    max_rl: int
    records: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def staircases(self) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Per replication, the (times, values) of its record highs."""
        if self.records is None:
            return None
        rep, times, values = self.records
        cuts = np.cumsum(np.bincount(rep, minlength=self.run_lengths.size))[:-1]
        return list(zip(np.split(times, cuts), np.split(values, cuts)))

    def at_limit(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Run lengths and resolution flags for a limit h <= cap."""
        if self.records is None:
            raise ModelConfigError("record tracking was disabled for this sample")
        if math.isnan(h):
            raise ModelConfigError("the limit must be a number, got nan")
        if not h <= self.cap:
            raise ModelConfigError(f"limit {h} exceeds the simulated cap {self.cap}")
        rep, times, values = self.records
        # a replication's records rise strictly, so its first above h is
        # the one above h that starts its rows or follows one at or below h
        above = values > h
        first = above.copy()
        first[1:] &= ~above[:-1] | (rep[1:] != rep[:-1])
        crossing = np.flatnonzero(first)
        rl = np.full(self.run_lengths.size, self.max_rl, dtype=np.int64)
        rl[rep[crossing]] = times[crossing]
        resolved = np.zeros(self.run_lengths.size, dtype=bool)
        resolved[rep[crossing]] = True
        return rl, resolved


def _filters(z: np.ndarray, n: int) -> bool:
    """Whether a block of n steps from the states z takes ``lfilter``, whose
    cost follows the state columns, over the step loop, whose cost follows
    the steps."""
    return z.size < n


def _simulate_chunk(
    sim: _CompiledSim,
    keys: np.ndarray,
    start: int,
    cap: float,
    max_rl: int,
    track_records: bool,
):
    """Run one replication per stream key to its first T2 above cap or max_rl.

    Each stream is read from output ``start`` + 1 on. Every active
    replication is a lane, and each loop iteration advances every lane n
    patients: ``sim.inputs`` draws the block's n x lanes patients and gives
    their input rows in one call, the EWMA z_t = row_t + q z_{t-1} runs
    through the block into that (n, lanes, p) block, one step at a time
    with one preallocated temporary or, in a narrow block (``_filters``),
    as one ``lfilter`` call per run of equal r, and ``sim.t2`` takes the
    block's T2 in one call, as sums of squares of the whitened states. A
    lane ends at its first T2 above cap in the block, and the steps
    computed past it are discarded; under ``track_records`` its record
    highs in the block come from a running maximum cut off there, and a
    stable sort by replication keeps each replication's in time order.

    n starts at STEP and doubles while the doubled block holds at most
    LANE_STEPS lane-steps, up to BUF: 16 steps above 256 lanes, 256 at 32
    lanes or fewer. So the few long runs left at the end of a chunk pay few
    loop iterations, and no block holds more lane-steps than STEP steps of
    a full CHUNK. n is then cut to the patients done, if more than STEP, so
    a short run computes few steps past its end, and at max_rl.
    """
    n_reps = keys.size
    active = np.arange(n_reps)
    z = np.zeros((n_reps, sim.whiten.shape[0]))
    qz = np.empty_like(z)  # q * z of one step, in its first len(active) rows
    rec = np.full(n_reps, -np.inf)
    resolved_t = np.zeros(n_reps, dtype=np.int64)
    highs = []  # per block, the (replication, time, value) arrays of its record highs
    t0 = 0  # patients done

    while t0 < max_rl:
        n = STEP
        while n < BUF and 2 * n * active.size <= LANE_STEPS:
            n *= 2
        n = min(n, max(t0, STEP), max_rl - t0)
        zs = sim.inputs(keys[active], start + t0 * sim.draws, n)
        if _filters(z, n):
            for cols, q in sim.runs:
                zs[..., cols] = lfilter((1.0,), (1.0, -q), zs[..., cols], axis=0, zi=q * z[None, :, cols])[0]
            z = zs[-1]
        else:
            qz_lanes = qz[: active.size]
            for j in range(n):
                zj = zs[j]
                zj += np.multiply(sim.q, z, out=qz_lanes)
                z = zj
        t2 = sim.t2(zs, t0)
        t2[: max(sim.warmup - 1 - t0, 0)] = -np.inf  # no record or signal before the warmup
        over = t2 > cap
        done = over.any(axis=0)
        first = np.where(done, over.argmax(axis=0), n)
        if track_records:
            t2[np.arange(n)[:, None] > first] = -np.inf
            best = np.maximum.accumulate(np.concatenate([rec[None], t2]), axis=0)
            j, lane = np.nonzero(t2 > best[:-1])
            highs.append((active[lane], t0 + 1 + j, t2[j, lane]))
            rec = best[-1]
        if done.any():
            resolved_t[active[done]] = t0 + 1 + first[done]
            keep = ~done
            active = active[keep]
            z = z[keep]
            rec = rec[keep]
            if active.size == 0:
                break
        t0 += n

    records = None
    if track_records:
        rep, times, values = map(np.concatenate, zip(*highs))
        order = np.argsort(rep, kind="stable")
        records = (rep[order], times[order], values[order])
    return np.where(resolved_t > 0, resolved_t, max_rl), resolved_t > 0, records


def _run_chunk(sim: _CompiledSim, seed_key: int, chunk: tuple[int, int], cap, max_rl, track_records):
    """``_simulate_chunk`` over the streams of the (lo, n) chunk's replications."""
    return _simulate_chunk(sim, _replication_keys(seed_key, *chunk), 0, cap, max_rl, track_records)


def _run_pickled_chunk(blob: bytes, *args):
    """``_run_chunk`` in a worker, on the pickled simulation its task carries."""
    return _run_chunk(pickle.loads(blob), *args)


def _check_run_size(reps: int, max_rl: int) -> None:
    """ModelConfigError unless 1 <= reps <= 2**32 and 1 <= max_rl <= MAX_RL."""
    if reps < 1:
        raise ModelConfigError("reps must be at least 1")
    if reps > 2**32:
        raise ModelConfigError(f"reps must be at most 2**32, got {reps}")
    if max_rl < 1:
        raise ModelConfigError("max_rl must be at least 1")
    if max_rl > MAX_RL:
        raise ModelConfigError(f"max_rl must be at most {MAX_RL}, got {max_rl}")


def _simulate_passes(passes, threads: int | None) -> list[RunLengthSample]:
    """``simulate_run_lengths`` of each pass, a tuple (generator, params0,
    config, reps, max_rl, seed, cap, track_records). All passes are checked
    before any chunk is queued. A batch of one chunk runs in process, as a
    worker would add only its round trip. Otherwise a pass's ``_CompiledSim``
    is built and pickled here while the pool runs earlier chunks, and at
    most ``IN_FLIGHT`` chunks per worker are queued or running: the oldest
    is waited for first."""
    checked = []
    for generator, params0, config, reps, max_rl, seed, cap, track_records in passes:
        _check_run_size(reps, max_rl)
        cap = config.h if cap is None else cap
        if cap is None:
            raise ModelConfigError("either config.h or an explicit cap is required")
        if math.isnan(cap):
            raise ModelConfigError("cap must be a number, got nan")
        chunks = [(lo, min(lo + CHUNK, reps) - lo) for lo in range(0, reps, CHUNK)]
        checked.append((generator, params0, config, max_rl, _seed_key(seed), float(cap), track_records, chunks))
    workers = resolve_threads(threads)
    pool = worker_pool(workers)
    if sum(len(chunks) for *_, chunks in checked) == 1:
        pool = None
    results = [[] for _ in checked]
    queued = deque()  # (pass index, future) of the chunks on the pool, oldest first
    try:
        for i, (generator, params0, config, max_rl, seed_key, cap, track_records, chunks) in enumerate(checked):
            sim = _CompiledSim(generator, params0, config)
            if pool is None:
                results[i] = [_run_chunk(sim, seed_key, chunk, cap, max_rl, track_records) for chunk in chunks]
                continue
            blob = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
            for chunk in chunks:
                if len(queued) == IN_FLIGHT * workers:
                    j, future = queued.popleft()
                    results[j].append(future.result())
                queued.append((i, pool.submit(_run_pickled_chunk, blob, seed_key, chunk, cap, max_rl, track_records)))
        while queued:
            j, future = queued.popleft()
            results[j].append(future.result())
    except BrokenProcessPool:
        shutdown_pool(pool)  # the next call forks a fresh pool
        raise
    finally:
        for _, future in queued:  # after an error or an interrupt, queued chunks need not run
            future.cancel()

    samples = []
    for (_, _, _, max_rl, _, cap, track_records, chunks), chunk_results in zip(checked, results):
        run_lengths, resolved, chunk_records = zip(*chunk_results)
        records = None
        if track_records:  # a chunk numbers its replications from 0
            parts = [(rep + lo, times, values) for (lo, _), (rep, times, values) in zip(chunks, chunk_records)]
            records = tuple(map(np.concatenate, zip(*parts)))
        samples.append(RunLengthSample(np.concatenate(run_lengths), np.concatenate(resolved), cap, max_rl, records))
    return samples


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
    """The first time T2 exceeds ``cap`` (by default the config's limit) on each of ``reps`` fresh
    patient streams, as a batch of one pass; a seed gives the same results at any worker count."""
    return _simulate_passes([(generator, params0, config, reps, max_rl, seed, cap, track_records)], threads)[0]
