"""Shift injection and out-of-control ARL studies.

Four shift kinds act on the data-generating process while the chart keeps
scoring at the in-control coefficients: scaling one coefficient or a pair of
coefficients by (1 + c), or post-transforming one node's mean response
additively or on the odds-ratio scale. Shifts are active from the first
monitored patient (zero-state studies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .calibrate import ArlResult, estimate_arl
from .chart import ChartConfig
from .errors import ShiftError
from .mc import PatientGenerator, _seed_parts
from .model import DagModelSpec, Model, ParamVector, enumerate_patients, node_designs, node_eta

COEFFICIENT = "coefficient"
COEFFICIENT_PAIR = "coefficient-pair"
MEAN_ADDITIVE = "mean-additive"
MEAN_ODDS = "mean-odds"
SHIFT_KINDS = (COEFFICIENT, COEFFICIENT_PAIR, MEAN_ADDITIVE, MEAN_ODDS)

_ENUM_LIMIT = 20  # mean-additive validity is checked by exact enumeration


@dataclass(frozen=True)
class ShiftSpec:
    """One hypothesised shift: kind, targets and shift factor c."""

    kind: str
    targets: tuple[str, ...]
    c: float

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.kind not in SHIFT_KINDS:
            raise ShiftError(f"unknown shift kind {self.kind!r}; expected one of {SHIFT_KINDS}")
        want = 2 if self.kind == COEFFICIENT_PAIR else 1
        if len(self.targets) != want:
            raise ShiftError(f"shift kind {self.kind!r} takes exactly {want} target(s), got {len(self.targets)}")
        if len(set(self.targets)) != len(self.targets):
            raise ShiftError("shift targets must be distinct")
        if not np.isfinite(self.c):
            raise ShiftError("shift factor c must be finite")
        if self.kind == MEAN_ODDS and not self.c > 0.0:
            raise ShiftError("odds-ratio shifts require c > 0")

    def with_c(self, c: float) -> "ShiftSpec":
        return ShiftSpec(kind=self.kind, targets=self.targets, c=float(c))


def in_control_generator(model: Model) -> PatientGenerator:
    return PatientGenerator(spec=model.spec, params=model.params, covariates=model.covariates)


def validate_shift_targets(spec: DagModelSpec, params: ParamVector, kind: str, targets) -> None:
    """Check target names against the model before building a ShiftSpec."""
    if kind in (COEFFICIENT, COEFFICIENT_PAIR):
        for name in targets:
            if name not in params.index_map:
                raise ShiftError(f"unknown coefficient {name!r}")
    elif kind in (MEAN_ADDITIVE, MEAN_ODDS):
        for name in targets:
            if name not in spec.node_ids:
                raise ShiftError(f"unknown outcome {name!r}")
    else:
        raise ShiftError(f"unknown shift kind {kind!r}; expected one of {SHIFT_KINDS}")


def _check_mean_additive(generator: PatientGenerator, node_id: str, c: float) -> None:
    spec = generator.spec
    n_binary = sum(spec.widths)
    if n_binary > _ENUM_LIMIT:
        raise ShiftError(
            "mean-additive validity check needs exact enumeration, but the model has "
            f"{n_binary} binary variables (limit {_ENUM_LIMIT})"
        )
    data, probs = enumerate_patients(spec, generator.params, generator.covariates, limit=_ENUM_LIMIT)
    design = node_designs(spec)[spec.node_index(node_id)]
    mu = expit(node_eta(design, generator.params.values[design.param_indices], data.bits))
    reachable = probs > 0.0
    shifted = mu[reachable] * (1.0 + c)
    if shifted.size and (shifted.max() >= 1.0 or shifted.min() <= 0.0):
        raise ShiftError(
            f"mean-additive shift c={c:g} on {node_id} pushes the mean response to "
            f"{shifted.max():.4f} at some reachable configuration; it must stay inside (0, 1)"
        )


def apply_shift(generator: PatientGenerator, shift: ShiftSpec) -> PatientGenerator:
    """Return the shifted data-generating rule; raises ShiftError when invalid.

    Coefficient shifts replace each target theta by (1 + c) theta in the
    generator only. Mean shifts post-transform the target node's mean
    response; downstream nodes see the shifted realizations, so the shift
    propagates through the DAG.
    """
    spec, params = generator.spec, generator.params
    validate_shift_targets(spec, params, shift.kind, shift.targets)
    if shift.kind in (COEFFICIENT, COEFFICIENT_PAIR):
        scaled = {name: (1.0 + shift.c) * params[name] for name in shift.targets}
        return PatientGenerator(
            spec=spec,
            params=params.replace(scaled),
            covariates=generator.covariates,
            mu_shift=generator.mu_shift,
        )
    if generator.mu_shift is not None:
        raise ShiftError("generator already carries a mean-level shift")
    node_id = shift.targets[0]
    if shift.kind == MEAN_ADDITIVE:
        _check_mean_additive(generator, node_id, shift.c)
        kind = "additive"
    else:
        kind = "odds"
    return PatientGenerator(
        spec=spec,
        params=params,
        covariates=generator.covariates,
        mu_shift=(node_id, kind, float(shift.c)),
    )


# ---------------------------------------------------------------------------
# ARL studies over shift grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyGrid:
    """A shift template swept over c values under one chart configuration."""

    shift: ShiftSpec
    c_values: tuple[float, ...]
    reps: int
    chart: ChartConfig
    max_rl: int = 4000

    def __post_init__(self):
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not self.c_values:
            raise ShiftError("c_values must not be empty")


@dataclass(frozen=True)
class StudyRow:
    shift_kind: str
    targets: tuple[str, ...]
    c: float
    arl: ArlResult


def run_arl_study(
    generator: PatientGenerator,
    params0: ParamVector,
    grid: StudyGrid,
    seed=0,
    threads: int | None = None,
) -> list[StudyRow]:
    """Estimate the out-of-control ARL for every c in the grid.

    Each row draws independent replications seeded by (seed, row index); the
    shift is active from patient 1.
    """
    rows = []
    base = _seed_parts(seed)
    for i, c in enumerate(grid.c_values):
        shifted = apply_shift(generator, grid.shift.with_c(c))
        arl = estimate_arl(
            shifted,
            params0,
            grid.chart,
            reps=grid.reps,
            max_rl=grid.max_rl,
            seed=base + (i,),
            threads=threads,
        )
        rows.append(StudyRow(shift_kind=grid.shift.kind, targets=grid.shift.targets, c=float(c), arl=arl))
    return rows


def run_pair_study(
    generator: PatientGenerator,
    params0: ParamVector,
    pairs: list[tuple[str, str]],
    c_values,
    reps: int,
    chart: ChartConfig,
    seed=0,
    max_rl: int = 4000,
    threads: int | None = None,
) -> list[StudyRow]:
    """Simultaneous pair shifts next to each coefficient's solo shift.

    For every pair (a, b) and every c the study emits the pair row plus the
    two single-coefficient rows, the comparison lines of a pair-shift plot.
    """
    rows = []
    base = _seed_parts(seed)
    idx = 0
    for a, b in pairs:
        for template in (
            ShiftSpec(kind=COEFFICIENT_PAIR, targets=(a, b), c=0.0),
            ShiftSpec(kind=COEFFICIENT, targets=(a,), c=0.0),
            ShiftSpec(kind=COEFFICIENT, targets=(b,), c=0.0),
        ):
            for c in c_values:
                shifted = apply_shift(generator, template.with_c(c))
                arl = estimate_arl(
                    shifted, params0, chart, reps=reps, max_rl=max_rl, seed=base + (idx,), threads=threads
                )
                rows.append(
                    StudyRow(shift_kind=template.kind, targets=template.targets, c=float(c), arl=arl)
                )
                idx += 1
    return rows
