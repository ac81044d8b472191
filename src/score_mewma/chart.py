"""Score-based multivariate EWMA chart.

The chart smooths per-patient score vectors with W_t = R S_t + (I - R) W_{t-1}
and monitors the quadratic form T2_t = W_t' Sigma_W_t^{-1} W_t against a
control limit h. Sigma_W_t evolves deterministically from the score
covariance, either by the exact recursion or by its asymptotic limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from . import model
from .errors import ModelConfigError, SingularMatrixError
from .likelihood import per_record_scores  # noqa: F401  bench/tracing.py patches chart.per_record_scores
from .likelihood import score_rows
from .model import DagModelSpec, ParamVector, PatientData, PatientRecord, node_designs, node_means

EXACT_RECURSIVE = "exact-recursive"
ASYMPTOTIC = "asymptotic"

COND_LIMIT = 1e12


@dataclass(frozen=True)
class ChartConfig:
    """Immutable chart parameters.

    ``r`` is the smoothing weight, a scalar broadcast to every score
    coordinate or one value per coordinate; ``sigma_s`` is the covariance of
    the full score vector. ``coord_names`` label the coordinates in error
    messages.
    """

    sigma_s: np.ndarray
    r: float | tuple[float, ...] = 0.1
    h: float | None = None
    covariance_mode: str = EXACT_RECURSIVE
    warmup: int = 1
    coord_names: tuple[str, ...] | None = None
    r_vec: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sigma = np.array(self.sigma_s, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ModelConfigError("sigma_s must be a square matrix")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12):
            raise ModelConfigError("sigma_s must be symmetric")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ModelConfigError("sigma_s must be positive definite") from None
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma_s", sigma)

        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        if r.size == 1:
            r = np.full(sigma.shape[0], float(r[0]))
        if r.shape != (sigma.shape[0],):
            raise ModelConfigError("r must be a scalar or one value per monitored coordinate")
        if not ((r > 0.0) & (r <= 1.0)).all():
            raise ModelConfigError("smoothing values must lie in (0, 1]")
        r.flags.writeable = False
        object.__setattr__(self, "r_vec", r)

        if self.h is not None and not self.h > 0.0:
            raise ModelConfigError("control limit h must be positive")
        if self.covariance_mode not in (EXACT_RECURSIVE, ASYMPTOTIC):
            raise ModelConfigError(f"unknown covariance_mode {self.covariance_mode!r}")
        if self.warmup < 1:
            raise ModelConfigError("warmup must be at least 1")

    @property
    def p(self) -> int:
        return self.sigma_s.shape[0]

    @property
    def equal_r(self) -> bool:
        return bool(np.all(self.r_vec == self.r_vec[0]))

    def with_h(self, h: float) -> "ChartConfig":
        return replace(self, h=h)

    @cached_property
    def t2_evaluator(self) -> "T2Evaluator":
        """The chart's T2 evaluator, built on first use; building it checks
        and inverts every Sigma_W,t the chart can use."""
        return T2Evaluator(self)

    def sigma_w_asymptotic(self) -> np.ndarray:
        r = self.r_vec
        denom = r[:, None] + r[None, :] - r[:, None] * r[None, :]
        return (r[:, None] * r[None, :] / denom) * self.sigma_s


def _ewma_factor(r: float, t):
    """f_t = r[1-(1-r)^{2t}]/(2-r), with Sigma_W,t = f_t Sigma_S for equal smoothing r."""
    return r * (1.0 - (1.0 - r) ** (2 * t)) / (2.0 - r)


def sigma_w_closed_form(t: int, r: float, sigma_s: np.ndarray) -> np.ndarray:
    """Covariance of W_t for equal smoothing: r[1-(1-r)^{2t}]/(2-r) Sigma_S."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(r_arr == r_arr[0]):
        raise ModelConfigError("closed form requires equal smoothing across coordinates")
    r = float(r_arr[0])
    if not 0.0 < r <= 1.0:
        raise ModelConfigError("smoothing value must lie in (0, 1]")
    if t < 1:
        raise ModelConfigError("t must be at least 1")
    return _ewma_factor(r, t) * np.asarray(sigma_s, dtype=float)


@dataclass(frozen=True)
class MewmaState:
    """Chart state after t patients; fresh states have w = 0 and t = 0.
    ``sigma_w``, the covariance of w, comes from the config's T2 evaluator."""

    config: ChartConfig
    w: np.ndarray
    t: int

    @property
    def sigma_w(self) -> np.ndarray:
        return self.config.t2_evaluator.sigma_w(self.t)


def init_state(config: ChartConfig) -> MewmaState:
    return MewmaState(config=config, w=np.zeros(config.p), t=0)


def _check_conditioning(mats: np.ndarray, coord_names) -> None:
    """Raise SingularMatrixError for the first numerically singular matrix
    of a (n, p, p) stack."""
    evals = np.linalg.eigvalsh(mats)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (evals[:, 0] <= 0.0) | (evals[:, -1] / evals[:, 0] > COND_LIMIT)
    if bad.any():
        _, evecs = np.linalg.eigh(mats[bad.argmax()])
        worst = np.argsort(np.abs(evecs[:, 0]))[::-1][:3]
        labels = [coord_names[i] if coord_names else str(i) for i in worst]
        raise SingularMatrixError(
            "chart covariance is numerically singular "
            f"(condition number above {COND_LIMIT:.0e}); offending coordinates: {', '.join(labels)}"
        )


class T2Evaluator:
    """Owner of Sigma_W,t = f_t M_t for one chart configuration, and of T2_t =
    W_t' Sigma_W,t^{-1} W_t.

    Every M_t the chart can use is built, checked and inverted here, once,
    and never changes after. With equal smoothing M_t = Sigma_S, one matrix
    for every t, since cond(f_t Sigma_S) = cond(Sigma_S); the asymptotic
    mode has only its limit. With unequal smoothing f_t = 1 and M_t = R
    Sigma_S R + (I - R) M_{t-1} (I - R) from M_0 = 0, up to the cap beyond
    which it is stationary. SingularMatrixError names the coordinates that
    load most on the smallest eigenvalue of the first failing matrix.

    ``t2`` evaluates ``((w @ inverse(t)) * w).sum(-1) / factor(t)`` for a
    state w, a matrix of them or a block of them over consecutive steps.
    With equal smoothing ``whitener`` gives the factor W with W W' =
    Sigma_S^{-1}, so T2_t = ||w W||^2 / f_t in whitened coordinates z = w W;
    the Monte Carlo kernel runs the EWMA there, and takes ``t2`` only with
    unequal smoothing.
    """

    def __init__(self, config: ChartConfig):
        self._mode = config.covariance_mode
        self._r0 = float(config.r_vec[0]) if config.equal_r else None
        if config.equal_r or config.covariance_mode == ASYMPTOTIC:
            mats = (config.sigma_s if config.equal_r else config.sigma_w_asymptotic())[None]
        else:
            r = config.r_vec
            rr, qq = np.outer(r, r), np.outer(1.0 - r, 1.0 - r)
            # (1 - r_min)^(2t) < e^-41.5 beyond the cap
            cap = int(np.ceil(-41.5 / (2.0 * np.log1p(-float(r.min())))) + 1)
            mats = np.zeros((cap + 1, config.p, config.p))  # M_0, M_1, ..., M_cap
            for t in range(1, cap + 1):
                mats[t] = rr * config.sigma_s + qq * mats[t - 1]
            mats = mats[1:]
        _check_conditioning(mats, config.coord_names)
        self._matrices = mats  # M_1, ..., M_cap
        self._inverses = np.linalg.inv(mats)
        self._matrices.flags.writeable = self._inverses.flags.writeable = False

    def _index(self, t: int) -> int:
        """Position of M_t; M_t = M_cap beyond the cap."""
        return min(t, len(self._inverses)) - 1

    def factor(self, t):
        """f_t at t = 1, 2, ... (an int or a float array); 1 with unequal smoothing."""
        r = self._r0
        if r is None:
            return np.ones_like(t, dtype=float)
        if self._mode == ASYMPTOTIC:
            return np.full_like(t, r / (2.0 - r), dtype=float)
        return _ewma_factor(r, t)

    def inverse(self, t: int) -> np.ndarray:
        """The matrix A_t = M_t^{-1}, with T2_t = w' A_t w / f_t."""
        return self._inverses[self._index(t)]

    def whitener(self) -> np.ndarray | None:
        """With equal smoothing, the lower Cholesky factor W of Sigma_S^{-1},
        taken after the conditioning check; None with unequal smoothing.
        Sigma_S is block-diagonal by node, so W is too, and the columns of
        z = w W of one node carry that node's share of T2."""
        if self._r0 is None:
            return None
        return np.linalg.cholesky(self.inverse(1))

    def sigma_w(self, t: int) -> np.ndarray:
        """Sigma_W,t = f_t M_t; zero at t = 0."""
        if t == 0:
            return np.zeros_like(self._matrices[0])
        return self.factor(t) * self._matrices[self._index(t)]

    def t2(self, w: np.ndarray, t: int, factor) -> np.ndarray:
        """T2 of a state or a (lanes, p) matrix of states at step t, or of a
        (steps, lanes, p) block of them at steps t, t + 1, ..., with factor
        shaped (steps, 1); each step's product is one (lanes, p) @ (p, p).
        The kernel's block path serves unequal smoothing only."""
        cap = len(self._inverses)
        if t >= cap or w.ndim < 3:
            a = self.inverse(t)
        else:
            a = self._inverses[np.minimum(np.arange(t, t + w.shape[0]), cap) - 1]
        return ((w @ a) * w).sum(axis=-1) / factor


def update(state: MewmaState, s_t: np.ndarray) -> tuple[MewmaState, float, bool]:
    """Advance the chart one patient; returns (new state, t2, signal).

    ``s_t`` is the patient's full score vector. The step smooths it into w,
    takes T2 from the config's ``t2_evaluator``, so no matrix is built per
    patient, and signals once t reaches the warmup and T2 exceeds h.
    """
    cfg = state.config
    s = np.asarray(s_t, dtype=float).reshape(-1)
    if s.shape != (cfg.p,):
        raise ModelConfigError(f"score vector must have length {cfg.p}, got {s.shape[0]}")
    w = cfg.r_vec * s + (1.0 - cfg.r_vec) * state.w
    t = state.t + 1
    evaluator = cfg.t2_evaluator
    t2 = float(evaluator.t2(w, t, evaluator.factor(t)))
    signal = t >= cfg.warmup and cfg.h is not None and t2 > cfg.h
    return MewmaState(config=cfg, w=w, t=t), t2, bool(signal)


def run_stream(
    spec: DagModelSpec,
    params0: ParamVector,
    config: ChartConfig,
    records: Iterable[PatientRecord] | PatientData,
    stop_at_signal: bool = False,
) -> Iterator[tuple[int, float, bool]]:
    """Score each record at params0, feed the chart, yield (t, t2, signal).

    Records are consumed lazily so the stream can sit on a live feed. A
    score row depends on the bit row alone, so each stream keeps a memo from
    a row's bytes to its score row: the first record with those bytes is
    scored by ``score_rows`` at params0 blocks looked up once, and later
    ones reuse the row, so the floats are the same either way. The memo
    holds at most ``2 ** model.ENUM_LIMIT`` rows; once it is full, new rows
    are scored but not kept. A record laid out for another model raises
    ModelConfigError, and so does one with a missing outcome; that check
    runs on memo misses only, as a hit has the bytes of a row that passed.
    """
    designs = node_designs(spec)
    if isinstance(records, PatientData):
        records = records.records()
    memo: dict[bytes, np.ndarray] = {}
    limit = 2**model.ENUM_LIMIT
    state = init_state(config)
    for record in records:
        key = record.bits_for(spec).tobytes()
        s = memo.get(key)
        if s is None:
            bits = record.complete_bits(spec)[None, :]
            s = score_rows(designs, bits, node_means(designs, params0.values, bits))[0]
            if len(memo) < limit:
                memo[key] = s
        state, t2, signal = update(state, s)
        yield state.t, t2, signal
        if signal and stop_at_signal:
            return
