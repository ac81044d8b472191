"""Score-based multivariate EWMA chart.

The chart smooths per-patient score vectors with W_t = R S_t + (I - R) W_{t-1}
and monitors the quadratic form T2_t = W_t' Sigma_W_t^{-1} W_t against a
control limit h. Sigma_W_t evolves deterministically from the score
covariance, either by the exact recursion or by its asymptotic limit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
from scipy.special import expit

from .errors import ModelConfigError, SingularMatrixError
from .likelihood import per_record_scores  # noqa: F401  bench/tracing.py patches chart.per_record_scores
from .likelihood import score_rows
from .model import DagModelSpec, ParamVector, PatientData, PatientRecord, node_designs, node_eta

EXACT_RECURSIVE = "exact-recursive"
ASYMPTOTIC = "asymptotic"

COND_LIMIT = 1e12
_GROW_LOCK = threading.Lock()  # guards T2Evaluator._index's lazy growth


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
        """The chart's T2 evaluator, built on first use."""
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


def _check_conditioning(mat: np.ndarray, coord_names) -> None:
    evals = np.linalg.eigvalsh(mat)
    if evals[0] <= 0.0 or evals[-1] / evals[0] > COND_LIMIT:
        _, evecs = np.linalg.eigh(mat)
        worst = np.argsort(np.abs(evecs[:, 0]))[::-1][:3]
        labels = [coord_names[i] if coord_names else str(i) for i in worst]
        raise SingularMatrixError(
            "chart covariance is numerically singular "
            f"(condition number above {COND_LIMIT:.0e}); offending coordinates: {', '.join(labels)}"
        )


class T2Evaluator:
    """Owner of Sigma_W,t = f_t M_t for one chart configuration, and of T2_t =
    W_t' Sigma_W,t^{-1} W_t, evaluated as ``((w @ inverse(t)) * w).sum(-1) / factor(t)``
    for a state w or a matrix of them.

    With equal smoothing M_t = Sigma_S, and one conditioning check covers
    every t, since cond(f_t Sigma_S) = cond(Sigma_S). With unequal smoothing
    f_t = 1 and M_t = R Sigma_S R + (I - R) M_{t-1} (I - R), each checked when
    first needed, up to the cap beyond which it is stationary; the asymptotic
    mode has only its limit. SingularMatrixError names the coordinates that
    load most on the smallest eigenvalue of the failing matrix.
    """

    def __init__(self, config: ChartConfig):
        self._names = config.coord_names
        self._mode = config.covariance_mode
        self._r0 = float(config.r_vec[0]) if config.equal_r else None
        self._sigma_s = config.sigma_s
        self._matrices: list[np.ndarray] = []  # M_1, M_2, ...
        self._inverses: list[np.ndarray] = []
        if config.equal_r or config.covariance_mode == ASYMPTOTIC:
            self._append(config.sigma_s if config.equal_r else config.sigma_w_asymptotic())
            self._cap = 1
        else:
            r = config.r_vec
            self._rr = np.outer(r, r)
            self._qq = np.outer(1.0 - r, 1.0 - r)
            # (1 - r_min)^(2t) < e^-41.5 beyond the cap
            self._cap = int(np.ceil(-41.5 / (2.0 * np.log1p(-float(r.min())))) + 1)

    def _append(self, mat: np.ndarray) -> None:
        _check_conditioning(mat, self._names)
        self._matrices.append(mat)  # before its inverse: readers test len(_inverses)
        self._inverses.append(np.linalg.inv(mat))

    def _index(self, t: int) -> int:
        """Position of M_t, growing the recursion up to it."""
        t = min(t, self._cap)
        if t > len(self._inverses):
            with _GROW_LOCK:
                while len(self._inverses) < t:
                    prev = self._matrices[-1] if self._matrices else np.zeros_like(self._sigma_s)
                    self._append(self._rr * self._sigma_s + self._qq * prev)
        return t - 1

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

    def sigma_w(self, t: int) -> np.ndarray:
        """Sigma_W,t = f_t M_t; zero at t = 0."""
        if t == 0:
            return np.zeros_like(self._sigma_s)
        return self.factor(t) * self._matrices[self._index(t)]

    def t2(self, w: np.ndarray, t: int, factor) -> np.ndarray:
        return ((w @ self.inverse(t)) * w).sum(axis=-1) / factor


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

    Records are consumed lazily so the stream can sit on a live feed. Each
    record's bit row is scored by ``score_rows`` at params0 blocks looked up
    once; a record laid out for another model, or with a missing outcome,
    raises ModelConfigError.
    """
    designs = node_designs(spec)
    thetas = [params0.values[d.param_indices] for d in designs]
    if isinstance(records, PatientData):
        records = records.records()
    state = init_state(config)
    for record in records:
        bits = record.complete_bits(spec)[None, :]
        means = [expit(node_eta(d, theta, bits)) for d, theta in zip(designs, thetas)]
        state, t2, signal = update(state, score_rows(designs, bits, means)[0])
        yield state.t, t2, signal
        if signal and stop_at_signal:
            return
