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
from .likelihood import per_record_scores
from .model import DagModelSpec, ParamVector, PatientData, PatientRecord

EXACT_RECURSIVE = "exact-recursive"
ASYMPTOTIC = "asymptotic"

COND_LIMIT = 1e12
R_MIN = 1e-6  # least smoothing weight: below it f_t = r(1 - (1 - r)^2t)/(2 - r) loses its digits


@dataclass(frozen=True)
class ChartConfig:
    """Immutable chart parameters.

    ``r`` is the smoothing weight, a scalar broadcast to every score
    coordinate or one value per coordinate, each in [R_MIN, 1], kept as the
    read-only ``r_vec`` and ``q_vec`` = 1 - r; ``sigma_s`` is the covariance of
    the full score vector. Two coordinates may have different r only where
    their ``sigma_s`` entry is 0, so r is constant on every correlated
    block: one r per node, since Sigma_S is block-diagonal by node, but not
    per coordinate within a node; Sigma_W,t is then Sigma_S with each
    block scaled by its own f_t. ``coord_names`` label the coordinates in
    error messages.
    """

    sigma_s: np.ndarray
    r: float | tuple[float, ...] = 0.1
    h: float | None = None
    covariance_mode: str = EXACT_RECURSIVE
    warmup: int = 1
    coord_names: tuple[str, ...] | None = None
    r_vec: np.ndarray = field(init=False, repr=False)
    q_vec: np.ndarray = field(init=False, repr=False)

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
        if not ((r >= R_MIN) & (r <= 1.0)).all():
            raise ModelConfigError(f"smoothing values must lie in [{R_MIN:g}, 1]; below it f_t loses its digits")
        if self.coord_names is not None and len(self.coord_names) != sigma.shape[0]:
            raise ModelConfigError("coord_names must name every monitored coordinate")
        mixed = (r[:, None] != r[None, :]) & (sigma != 0.0)
        if mixed.any():
            i, j = (self.coord_names[k] if self.coord_names else str(k) for k in np.argwhere(mixed)[0])
            raise ModelConfigError(
                f"coordinates {i} and {j} are correlated under sigma_s but have different smoothing values; "
                "r may differ only between uncorrelated blocks, such as nodes"
            )
        q = 1.0 - r
        r.flags.writeable = q.flags.writeable = False
        object.__setattr__(self, "r_vec", r)
        object.__setattr__(self, "q_vec", q)

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
        """The chart's T2 evaluator, built on first use; building it checks,
        inverts and factors Sigma_S."""
        return T2Evaluator(self)


def _ewma_factor(r: float, t):
    """f_t = r[1-(1-r)^{2t}]/(2-r), with Sigma_W,t = f_t Sigma_S on a block of smoothing r."""
    return r * (1.0 - (1.0 - r) ** (2 * t)) / (2.0 - r)


def sigma_w_closed_form(t: int, r: float, sigma_s: np.ndarray) -> np.ndarray:
    """Covariance of W_t for equal smoothing: r[1-(1-r)^{2t}]/(2-r) Sigma_S."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(r_arr == r_arr[0]):
        raise ModelConfigError("closed form requires equal smoothing across coordinates")
    r = float(r_arr[0])
    if not R_MIN <= r <= 1.0:
        raise ModelConfigError(f"smoothing value must lie in [{R_MIN:g}, 1]")
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


def _check_conditioning(sigma: np.ndarray, coord_names) -> None:
    """Raise SingularMatrixError if Sigma_S is numerically singular, naming
    the coordinates that load most on its smallest eigenvalue."""
    evals, evecs = np.linalg.eigh(sigma)
    if evals[0] <= 0.0 or evals[-1] / evals[0] > COND_LIMIT:
        worst = np.argsort(np.abs(evecs[:, 0]))[::-1][:3]
        labels = [coord_names[i] if coord_names else str(i) for i in worst]
        raise SingularMatrixError(
            "chart covariance is numerically singular "
            f"(condition number above {COND_LIMIT:.0e}); offending coordinates: {', '.join(labels)}"
        )


class T2Evaluator:
    """Owner of Sigma_W,t and of T2_t = W_t' Sigma_W,t^{-1} W_t for one chart
    configuration.

    r is constant on each run of consecutive coordinates, ``runs``, and
    Sigma_S is 0 between coordinates of different r, so Sigma_W,t is
    Sigma_S with the rows of each run scaled by that run's f_t, and T2_t =
    sum over runs of (w A w')_run / f_t(r_run) with A = Sigma_S^{-1}.
    Sigma_S is checked, inverted and factored here, once, and never changes
    after; cond(Sigma_S) is what the inverse needs, as the f_t scale the
    result exactly. SingularMatrixError names the coordinates that load
    most on the smallest eigenvalue of Sigma_S.

    ``whitener`` gives the factor W with W W' = A, which mixes only
    coordinates of one r, so T2_t = sum over runs of ||z_run||^2 / f_t(r_run)
    in whitened coordinates z = w W; the Monte Carlo kernel runs the EWMA
    there.
    """

    def __init__(self, config: ChartConfig):
        self._mode = config.covariance_mode
        _check_conditioning(config.sigma_s, config.coord_names)
        self._sigma = config.sigma_s
        self._inverse = np.linalg.inv(config.sigma_s)
        self._whitener = np.linalg.cholesky(self._inverse)
        self._inverse.flags.writeable = self._whitener.flags.writeable = False
        r = config.r_vec
        bounds = [0, *(np.flatnonzero(np.diff(r)) + 1).tolist(), len(r)]
        self.runs = tuple((slice(lo, hi), float(r[lo])) for lo, hi in zip(bounds[:-1], bounds[1:]))

    def factor(self, r: float, t):
        """f_t of smoothing weight r at t = 1, 2, ... (an int or a float array)."""
        if self._mode == ASYMPTOTIC:
            return np.full_like(t, r / (2.0 - r), dtype=float)
        return _ewma_factor(r, t)

    def whitener(self) -> np.ndarray:
        """The lower Cholesky factor W of Sigma_S^{-1}, taken once after the
        conditioning check and read-only. Sigma_S is block-diagonal by node,
        so W is too, and the columns of z = w W of one node carry that
        node's share of T2."""
        return self._whitener

    def sigma_w(self, t: int) -> np.ndarray:
        """Sigma_W,t, the rows of each run of Sigma_S times its f_t; zero at t = 0."""
        out = np.zeros_like(self._sigma)
        if t > 0:
            for cols, r in self.runs:
                out[cols] = self.factor(r, t) * self._sigma[cols]
        return out

    def t2(self, w: np.ndarray, t: int) -> np.ndarray:
        """T2 of a state or a (lanes, p) matrix of states at step t."""
        wa = (w @ self._inverse) * w
        t2 = None
        for cols, r in self.runs:
            term = wa[..., cols].sum(axis=-1) / self.factor(r, t)
            t2 = term if t2 is None else t2 + term
        return t2


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
    w = cfg.r_vec * s + cfg.q_vec * state.w
    t = state.t + 1
    t2 = float(cfg.t2_evaluator.t2(w, t))
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
    scored by ``per_record_scores`` at params0, and later ones reuse the
    row, so the floats are the same either way. The memo holds at most
    ``2 ** model.ENUM_LIMIT`` rows; once it is full, new rows are scored but
    not kept. A record laid out for another model raises ModelConfigError,
    and so does one with a missing outcome; that check runs on memo misses
    only, as a hit has the bytes of a row that passed.
    """
    if isinstance(records, PatientData):
        records = records.records()
    memo: dict[bytes, np.ndarray] = {}
    limit = 2**model.ENUM_LIMIT
    state = init_state(config)
    for record in records:
        key = record.bits_for(spec).tobytes()
        s = memo.get(key)
        if s is None:
            s = per_record_scores(spec, params0, [record])[0]
            if len(memo) < limit:
                memo[key] = s
        state, t2, signal = update(state, s)
        yield state.t, t2, signal
        if signal and stop_at_signal:
            return
