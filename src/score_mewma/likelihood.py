"""Log-likelihood, score vector, Fisher information and MLE fitting.

The likelihood separates over nodes, so the score and information are
assembled block by block and the information matrix is exactly zero outside
the diagonal blocks. All functions accept either a PatientData batch or an
iterable of PatientRecord.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.special import expit

from . import model
from .errors import DataFormatError, FitError, ModelConfigError, SeparationError, SingularMatrixError
from .model import (
    CovariateModel,
    DagModelSpec,
    NodeDesign,
    PatientData,
    ParamVector,
    as_patient_data,
    enumerate_patients,
    node_designs,
    node_eta,
    node_means,
)


def _binary_bits(spec: DagModelSpec, records) -> np.ndarray:
    """Complete records whose every covariate and outcome is 0 or 1."""
    bits = as_patient_data(records).complete_bits(spec)
    if ((bits != 0.0) & (bits != 1.0)).any():
        raise DataFormatError("the likelihood needs every covariate and outcome to be 0 or 1")
    return bits


def _design_rows(design: NodeDesign, bits: np.ndarray) -> np.ndarray:
    # stacked from 1-D columns, so C-ordered: BLAS rounds u.T @ (u * w) of an
    # F-ordered u differently (exact Sigma_S moved by 5e-16 relative)
    return np.column_stack([np.ones(bits.shape[0])] + [bits[:, col] for col in design.cols])


def node_design_matrix(spec: DagModelSpec, data: PatientData, node_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix U_v and response column for one node."""
    design = node_designs(spec)[node_index]
    bits = data.bits_for(spec)
    return _design_rows(design, bits), bits[:, design.out_col]


def score_rows(designs, bits: np.ndarray, means: list[np.ndarray]) -> np.ndarray:
    """(n, p) per-patient score vectors from (n, k) bit rows and each node's
    mean response: node v's block is u_v (y_v - mu_v) with u_v = [1, parent bits]."""
    s = np.empty((bits.shape[0], designs[-1].param_indices[-1] + 1))
    for design, mu in zip(designs, means):
        resid = bits[:, design.out_col] - mu
        first = int(design.param_indices[0])
        s[:, first] = resid
        for k, col in enumerate(design.cols, start=first + 1):
            s[:, k] = bits[:, col] * resid
    return s


def log_likelihood(spec: DagModelSpec, params: ParamVector, records) -> float:
    """Joint log-likelihood over all nodes and records, overflow safe.

    Each node's term is summed over its distinct parent patterns, as
    ``fit_mle`` reports it, so the data must be 0/1 (DataFormatError) and a
    node may have at most 62 parents (ModelConfigError). Records laid out
    for another model raise ModelConfigError.
    """
    bits = _binary_bits(spec, records)
    total = 0.0
    for node, design in zip(spec.nodes, node_designs(spec)):
        total += _node_objective(_node_cells(node.id, design, bits), params.values[design.param_indices], False)
    return total


def per_record_scores(spec: DagModelSpec, params: ParamVector, records) -> np.ndarray:
    """Matrix of per-patient score vectors, one row per record; records laid
    out for another model, or with a missing outcome, raise ModelConfigError."""
    bits = as_patient_data(records).complete_bits(spec)
    designs = node_designs(spec)
    return score_rows(designs, bits, node_means(designs, params.values, bits))


def score(spec: DagModelSpec, params: ParamVector, records) -> np.ndarray:
    """Score vector: sum over records of u_v (y_v - mu_v), per coefficient."""
    return per_record_scores(spec, params, records).sum(axis=0)


def _weighted_information(
    spec: DagModelSpec, params: ParamVector, bits: np.ndarray, weights: np.ndarray | None
) -> np.ndarray:
    p = len(params)
    out = np.zeros((p, p))
    designs = node_designs(spec)
    for design, mu in zip(designs, node_means(designs, params.values, bits)):
        u = _design_rows(design, bits)
        w = mu * (1.0 - mu)
        if weights is not None:
            w = w * weights
        block = u.T @ (u * w[:, None])
        out[np.ix_(design.param_indices, design.param_indices)] = block
    return out


def fisher_information(spec: DagModelSpec, params: ParamVector, records) -> np.ndarray:
    """Observed information: block diagonal sum of u u' mu (1 - mu)."""
    return _weighted_information(spec, params, as_patient_data(records).complete_bits(spec), None)


@dataclass(frozen=True)
class ScoreCovariance:
    """Per-patient score covariance with how it was obtained."""

    values: np.ndarray
    mc_se: np.ndarray | None = None
    mc_samples: int = 0  # 0 when exact

    @property
    def mode(self) -> str:
        """How the values were obtained: "exact" or "monte-carlo"."""
        return "monte-carlo" if self.mc_samples else "exact"


# the fewest patients the Monte Carlo score covariance may average over
MIN_MC_SAMPLES = 100_000


def expected_score_covariance(
    spec: DagModelSpec,
    params: ParamVector,
    covariates: CovariateModel,
    mc_samples: int = MIN_MC_SAMPLES,
    seed: int = 0,
) -> ScoreCovariance:
    """Expected per-patient information over the joint law of (x, z, y).

    Up to ``model.ENUM_LIMIT`` binary variables the patient types are
    enumerated exactly; above it, it is a Monte Carlo average over
    ``mc_samples`` patients sampled from ``seed``, with an entrywise
    standard error estimate. Fewer than 100,000 samples raise
    ModelConfigError at any model size.
    """
    if mc_samples < MIN_MC_SAMPLES:
        raise ModelConfigError(f"mc_samples must be at least {MIN_MC_SAMPLES}, got {mc_samples}")
    if sum(spec.widths) <= model.ENUM_LIMIT:
        data, probs = enumerate_patients(spec, params, covariates)
        return ScoreCovariance(values=_weighted_information(spec, params, data.bits, probs))
    from .mc import PatientGenerator, sample_patients

    gen = PatientGenerator(spec=spec, params=params, covariates=covariates)
    bits = sample_patients(gen, mc_samples, seed).bits
    mean = _weighted_information(spec, params, bits, None) / mc_samples
    second = np.zeros_like(mean)
    designs = node_designs(spec)
    for design, mu in zip(designs, node_means(designs, params.values, bits)):
        u = _design_rows(design, bits)
        w = mu * (1.0 - mu)
        idx = np.ix_(design.param_indices, design.param_indices)
        second[idx] = u.T @ (u * (w * w)[:, None]) / mc_samples  # u is 0/1, so u * u = u
    se = np.sqrt(np.maximum(second - mean * mean, 0.0) / mc_samples)
    return ScoreCovariance(values=mean, mc_se=se, mc_samples=mc_samples)


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------

# A Newton step is accepted when it lowers the objective by at most this
# much relative to 1 + |objective|. Near the optimum the true rise of a step
# is below the rounding error of the objective, and a strict test rejects
# every halving: acceptance criterion 9's sample then stalls short of the
# score tolerance. The slack is chosen well above that rounding error, not
# derived from it; convergence is judged by the score, not the objective.
_ROUNDOFF = 1e-12
_HALVINGS = 30
# A separation LP optimum above this is positive; HiGHS solves to 1e-7.
_LP_EPS = 1e-6
# The most parents a node may have: its parent patterns are keyed as int64.
_MAX_PARENTS = 62


@dataclass(frozen=True)
class NodeFitReport:
    """How one node's block was fitted.

    ``separation`` is "none" or "quasi-complete". Under quasi-complete
    separation the MLE does not exist, and ``estimator`` is "firth" for
    Firth's bias-reduced estimate instead of "mle". ``score_max`` is the
    max-norm of the score the estimator zeroes (Firth's modified score).
    """

    node_id: str
    iterations: int
    converged: bool
    score_max: float
    estimator: str
    separation: str


@dataclass(frozen=True)
class FitResult:
    params: ParamVector
    info: np.ndarray
    std_errors: np.ndarray
    node_reports: tuple[NodeFitReport, ...]
    log_likelihood: float

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.node_reports)

    def std_error(self, name: str) -> float:
        return float(self.std_errors[self.params.index_map[name]])


class _Cells(NamedTuple):
    """One node's distinct parent patterns: a bit row holding each pattern
    (zero outside the parent columns), its design row, and the numbers of
    records and of y = 1 at it."""

    design: NodeDesign
    bits: np.ndarray
    rows: np.ndarray
    total: np.ndarray
    ones: np.ndarray


def _node_cells(node_id: str, design: NodeDesign, bits: np.ndarray) -> _Cells:
    """Group 0/1 bit rows by the node's parent pattern.

    Each pattern is keyed by its bits as one int64, so the node may have at
    most _MAX_PARENTS parents. np.unique on the rows has no such limit, but
    sorting float rows makes fit_mle about four times slower at n = 2000.
    """
    q = len(design.cols)
    if q > _MAX_PARENTS:
        raise ModelConfigError(
            f"node {node_id}: the likelihood supports at most {_MAX_PARENTS} parents "
            f"per node, got {q}"
        )
    keys, inv = np.unique((bits[:, design.cols] > 0.5) @ (1 << np.arange(q)), return_inverse=True)
    cell_bits = np.zeros((len(keys), bits.shape[1]))
    cell_bits[:, design.cols] = (keys[:, None] >> np.arange(q)) & 1
    ones = np.bincount(inv, weights=bits[:, design.out_col], minlength=len(keys))
    total = np.bincount(inv, minlength=len(keys)).astype(float)
    return _Cells(design, cell_bits, _design_rows(design, cell_bits), total, ones)


def _lp_max(objective: np.ndarray, a_ub: np.ndarray, bounds: list) -> float:
    """max objective'v subject to a_ub v <= 0 and bounds, for a feasible bounded LP."""
    res = linprog(-objective, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), bounds=bounds, method="highs")
    if res.status != 0:
        raise FitError(f"separation check: linear program failed ({res.message})")
    return -float(res.fun)


def _separation(rows: np.ndarray, zeros: np.ndarray, ones: np.ndarray) -> str:
    """Classify one node's data as "none", "quasi-complete" or "complete".

    With s = +1 for y = 1 and -1 for y = 0, the data are separated when some
    b != 0 has s u'b >= 0 on every distinct (u, y) pattern: completely when
    every inequality can be strict, quasi-completely otherwise (Konis 2007).
    A pattern seen with both outcomes forces u'b = 0, so when such patterns
    span R^p there is no separation and no linear program is solved.
    """
    p = rows.shape[1]
    mixed = rows[(zeros > 0) & (ones > 0)]
    if len(mixed) >= p and np.linalg.matrix_rank(mixed) == p:
        return "none"
    a = np.vstack([rows[ones > 0], -rows[zeros > 0]])
    box = [(-1.0, 1.0)] * p
    # the largest margin t with a b >= t, |b| <= 1
    margin = _lp_max(np.r_[np.zeros(p), 1.0], np.hstack([-a, np.ones((len(a), 1))]), box + [(0.0, 1.0)])
    if margin > _LP_EPS:
        return "complete"
    # a b >= 0 with some row strict: a margin LP alone cannot see it
    if _lp_max(a.sum(axis=0), -a, box) > _LP_EPS:
        return "quasi-complete"
    return "none"


def _node_objective(cells: _Cells, theta: np.ndarray, firth: bool) -> float:
    """Log-likelihood of one node's cells, plus 1/2 log det I for Firth."""
    eta = node_eta(cells.design, theta, cells.bits)
    value = float(cells.ones @ eta - cells.total @ np.logaddexp(0.0, eta))
    if not firth:
        return value
    mu = expit(eta)
    rows = cells.rows
    sign, logdet = np.linalg.slogdet(rows.T @ (rows * (cells.total * mu * (1.0 - mu))[:, None]))
    return value + 0.5 * logdet if sign > 0 else -np.inf


def _fit_node(node_id: str, cells: _Cells, theta0: np.ndarray, tol: float, max_iter: int):
    """Newton iterations with step halving for one node's block.

    The iteration runs on the node's cells. It fits the MLE, or Firth's
    estimate when the data are quasi-completely separated. Returns the
    estimate, its report, and the node's information block at the estimate.
    """
    rows, total, ones = cells.rows, cells.total, cells.ones
    separation = _separation(rows, total - ones, ones)
    if separation == "complete":
        raise SeparationError(
            f"node {node_id}: the outcome is completely separated by the node's parents; "
            "no finite estimate exists"
        )
    firth = separation == "quasi-complete"
    theta = theta0.copy()
    objective = _node_objective(cells, theta, firth)
    for it in range(max_iter + 1):
        mu = expit(node_eta(cells.design, theta, cells.bits))
        w = total * mu * (1.0 - mu)
        info = rows.T @ (rows * w[:, None])
        resid = ones - total * mu
        try:
            if firth:
                # modified score U'(y - mu + h (1/2 - mu)), h the hat values
                resid = resid + w * np.sum(rows.T * np.linalg.solve(info, rows.T), axis=0) * (0.5 - mu)
            grad = rows.T @ resid
            gmax = float(np.max(np.abs(grad)))
            if gmax < tol:
                report = NodeFitReport(node_id, it, True, gmax, "firth" if firth else "mle", separation)
                return theta, report, info
            if it == max_iter:
                break
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise FitError(f"node {node_id}: singular information matrix during fitting") from None
        for _ in range(_HALVINGS):
            trial = theta + step
            trial_objective = _node_objective(cells, trial, firth)
            if trial_objective >= objective - _ROUNDOFF * (1.0 + abs(objective)):
                break
            step = step / 2.0
        else:
            raise FitError(
                f"node {node_id}: no step increases the objective after {_HALVINGS} halvings "
                f"(score {gmax:.3g})"
            )
        theta, objective = trial, trial_objective
    raise FitError(f"node {node_id}: no convergence in {max_iter} Newton iterations (score {gmax:.3g})")


def fit_mle(
    spec: DagModelSpec,
    records,
    params_init: ParamVector | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> FitResult:
    """Fit all node blocks independently by Newton's method.

    Each node's data are first classified for separation by linear
    programming. Without separation the block is the MLE. Under
    quasi-complete separation the MLE does not exist, and the block is
    Firth's (1993) bias-reduced estimate, which is finite; the node's
    report says so. A block has converged when the max-norm of its score
    (Firth's modified score) is below ``tol``.

    Raises SeparationError under complete separation, and FitError when a
    block does not converge or its information matrix is singular, naming
    the node in both cases. Raises DataFormatError unless every covariate
    and outcome is 0 or 1, and ModelConfigError for a node with more than
    62 parents, for records laid out for another model or for
    ``params_init`` of another coefficient layout.
    """
    bits = _binary_bits(spec, records)
    if len(bits) < 1:
        raise FitError("at least one record is required")
    if params_init is None:
        template = ParamVector.for_spec(spec, {n: 0.0 for node in spec.nodes for n in node.coef_names()})
    elif len(params_init) != spec.n_params:
        raise ModelConfigError("params_init does not match the model's coefficient layout")
    else:
        template = params_init
    values = template.values.copy()
    info = np.zeros((len(values), len(values)))
    reports = []
    loglik = 0.0
    for node, design in zip(spec.nodes, node_designs(spec)):
        idx = design.param_indices
        cells = _node_cells(node.id, design, bits)
        theta, report, block = _fit_node(node.id, cells, values[idx], tol, max_iter)
        values[idx] = theta
        info[np.ix_(idx, idx)] = block
        reports.append(report)
        # the plain log-likelihood also for Firth nodes, summed as log_likelihood sums it
        loglik += _node_objective(cells, theta, False)
    params = template.with_values(values)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise FitError("information matrix at the MLE is singular") from None
    return FitResult(
        params=params,
        info=info,
        std_errors=np.sqrt(np.diag(cov)),
        node_reports=tuple(reports),
        log_likelihood=loglik,
    )


# ---------------------------------------------------------------------------
# Standardized cumulative scores
# ---------------------------------------------------------------------------


def inverse_sqrt_psd(mat: np.ndarray, rel_eps: float = 1e-10) -> np.ndarray:
    """Symmetric inverse square root via eigendecomposition.

    Eigenvalues below rel_eps times the largest raise SingularMatrixError
    rather than being pseudo-inverted.
    """
    mat = np.asarray(mat, dtype=float)
    evals, evecs = np.linalg.eigh(mat)
    cutoff = rel_eps * float(evals[-1])
    if evals[0] <= cutoff:
        raise SingularMatrixError(
            f"matrix is numerically singular (min eigenvalue {evals[0]:.3g}, max {evals[-1]:.3g})"
        )
    return (evecs / np.sqrt(evals)) @ evecs.T


def standardized_cumulative_score(
    spec: DagModelSpec,
    params0: ParamVector,
    records,
    t: int | None = None,
    info: np.ndarray | None = None,
) -> np.ndarray:
    """Cumulative standardized score path, an offline baseline diagnostic.

    Returns I^{-1/2} n^{-1/2} sum_{i<=t} S_i. With ``t=None`` the whole
    (n, p) path is returned. ``info`` defaults to the average observed
    per-patient information over the supplied records.
    """
    data = as_patient_data(records)
    n = len(data)
    scores = per_record_scores(spec, params0, data)
    if info is None:
        info = fisher_information(spec, params0, data) / n
    root = inverse_sqrt_psd(info)
    path = np.cumsum(scores, axis=0) @ root.T / np.sqrt(n)
    if t is None:
        return path
    if not 0 <= t <= n:
        raise ModelConfigError(f"t must lie in [0, {n}], got {t}")
    if t == 0:
        return np.zeros(scores.shape[1])
    return path[t - 1]
