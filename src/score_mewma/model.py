"""DAG model of a multistage procedure with binary outcomes.

A procedure is a temporally ordered list of binary outcome nodes. Each node
follows a logistic regression on process variables (x), risk factors (z) and
earlier outcomes (y), so the joint law of the outcome vector factorizes over
the DAG. This module defines the model structure, the flat coefficient
vector, patient records, the config file format and the bundled
delivery-process example model.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np
from scipy.special import expit

from .errors import ModelConfigError

LOGIT = "logit"

#: Sentinel for an outcome that has not been observed / generated yet.
MISSING = -1

ENUM_LIMIT = 16  # most binary variables per patient whose 2^k types are enumerated


def mean_response(eta):
    """Inverse logit link, overflow safe for any finite linear predictor.

    Accepts scalars or arrays; returns a float for scalar input.
    """
    out = expit(np.asarray(eta, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NodeSpec:
    """One outcome node: its parents and the names of its coefficients.

    Parent lists are (variable id, coefficient name) pairs. The design row
    order for the node is fixed as intercept, process parents, outcome
    parents, risk parents, in declaration order.
    """

    id: str
    intercept_name: str
    process_parents: tuple[tuple[str, str], ...] = ()
    outcome_parents: tuple[tuple[str, str], ...] = ()
    risk_parents: tuple[tuple[str, str], ...] = ()
    link: str = LOGIT

    def coef_names(self) -> tuple[str, ...]:
        slopes = self.process_parents + self.outcome_parents + self.risk_parents
        return (self.intercept_name,) + tuple(name for _, name in slopes)

    @property
    def n_coefs(self) -> int:
        return 1 + len(self.process_parents) + len(self.outcome_parents) + len(self.risk_parents)


@dataclass(frozen=True)
class DagModelSpec:
    """Validated node structure of the multistage model.

    ``nodes`` is in temporal order; outcome parents may only reference
    earlier nodes, which makes the listed order a topological order and the
    graph acyclic by construction.
    """

    nodes: tuple[NodeSpec, ...]
    process_ids: tuple[str, ...]
    risk_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "process_ids", tuple(self.process_ids))
        object.__setattr__(self, "risk_ids", tuple(self.risk_ids))
        self._validate()

    def _validate(self):
        if not self.nodes:
            raise ModelConfigError("model must declare at least one outcome node")
        cov_ids = self.process_ids + self.risk_ids
        if len(set(cov_ids)) != len(cov_ids):
            raise ModelConfigError("duplicate covariate id")
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise ModelConfigError("duplicate outcome id")
        if set(node_ids) & set(cov_ids):
            raise ModelConfigError("outcome ids and covariate ids must be disjoint")

        seen_coefs: set[str] = set()
        earlier: set[str] = set()
        for node in self.nodes:
            if node.link != LOGIT:
                raise ModelConfigError(
                    f"node {node.id}: unsupported link {node.link!r} (only {LOGIT!r} is implemented)"
                )
            for var, _ in node.process_parents:
                if var not in self.process_ids:
                    raise ModelConfigError(f"node {node.id}: undeclared process variable {var!r}")
            for var, _ in node.risk_parents:
                if var not in self.risk_ids:
                    raise ModelConfigError(f"node {node.id}: undeclared risk factor {var!r}")
            for var, _ in node.outcome_parents:
                if var == node.id or var not in earlier:
                    where = "itself" if var == node.id else "a later or undeclared node"
                    raise ModelConfigError(
                        f"node {node.id}: outcome parent {var!r} references {where}; "
                        "nodes must be listed in temporal order"
                    )
            names = node.coef_names()
            if len(set(names)) != len(names):
                raise ModelConfigError(f"node {node.id}: duplicate coefficient name within node")
            dup = seen_coefs & set(names)
            if dup:
                raise ModelConfigError(f"duplicate coefficient name {sorted(dup)[0]!r}")
            seen_coefs |= set(names)
            earlier.add(node.id)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of a patient's bit row, laid out ``[x | z | y]``: process
        variables, risk factors, then outcomes in node order."""
        return self.process_ids + self.risk_ids + self.node_ids

    @property
    def widths(self) -> tuple[int, int, int]:
        """Widths of the x, z and y blocks of a patient's bit row."""
        return len(self.process_ids), len(self.risk_ids), len(self.nodes)

    @property
    def n_params(self) -> int:
        return sum(n.n_coefs for n in self.nodes)

    def node(self, node_id: str) -> NodeSpec:
        return self.nodes[self.node_index(node_id)]

    def node_index(self, node_id: str) -> int:
        for i, n in enumerate(self.nodes):
            if n.id == node_id:
                return i
        raise KeyError(node_id)


@dataclass(frozen=True)
class NodeDesign:
    """Index bookkeeping for one node's design row.

    ``cols`` lists the node's parent columns of a patient's bit row
    (``DagModelSpec.columns``) in design-row order, after the intercept, and
    ``out_col`` is the node's own outcome column. ``param_indices`` locates
    the node's coefficients in the flat vector, in design-row order.
    """

    node_index: int
    param_indices: np.ndarray
    cols: tuple[int, ...]
    out_col: int


@functools.lru_cache(maxsize=64)
def node_designs(spec: DagModelSpec) -> tuple[NodeDesign, ...]:
    """Per-node design indexing, cached per spec."""
    pos = {v: i for i, v in enumerate(spec.columns)}
    designs = []
    offset = 0
    for vi, node in enumerate(spec.nodes):
        p_v = node.n_coefs
        parents = node.process_parents + node.outcome_parents + node.risk_parents
        designs.append(
            NodeDesign(
                node_index=vi,
                param_indices=np.arange(offset, offset + p_v),
                cols=tuple(pos[v] for v, _ in parents),
                out_col=pos[node.id],
            )
        )
        offset += p_v
    return tuple(designs)


def node_eta(design: NodeDesign, theta: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Linear predictor of one node for every row of an (n, k) bit matrix.

    Accumulates theta_0 + sum_k theta_k bits[:, cols[k-1]] in design-row
    order; every sampling, scoring and likelihood path takes its eta here.
    """
    cols = design.cols
    if not cols:
        return np.full(bits.shape[0], theta[0])
    # the same sum as filling theta_0 and adding theta_1 b, one array call fewer
    eta = theta[0] + theta[1] * bits[:, cols[0]]
    for k in range(2, len(cols) + 1):
        eta += theta[k] * bits[:, cols[k - 1]]
    return eta


def node_means(designs, values: np.ndarray, bits: np.ndarray) -> list[np.ndarray]:
    """Each node's mean response at the flat coefficients ``values`` for
    every row of an (n, k) bit matrix."""
    return [expit(node_eta(d, values[d.param_indices], bits)) for d in designs]


@dataclass(frozen=True)
class ParamVector:
    """Flat coefficient vector with name and per-node block lookup."""

    values: np.ndarray
    names: tuple[str, ...]
    index_map: Mapping[str, int]
    block_map: Mapping[str, tuple[int, int]]

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.names):
            raise ModelConfigError("parameter values and names differ in length")

    @classmethod
    def for_spec(cls, spec: DagModelSpec, values_by_name: Mapping[str, float]) -> "ParamVector":
        names: list[str] = []
        blocks: dict[str, tuple[int, int]] = {}
        for node in spec.nodes:
            start = len(names)
            names.extend(node.coef_names())
            blocks[node.id] = (start, len(names))
        missing = [n for n in names if n not in values_by_name]
        if missing:
            raise ModelConfigError(f"missing value for coefficient {missing[0]!r}")
        extra = set(values_by_name) - set(names)
        if extra:
            raise ModelConfigError(f"unknown coefficient {sorted(extra)[0]!r}")
        values = np.array([float(values_by_name[n]) for n in names])
        index_map = {n: i for i, n in enumerate(names)}
        return cls(values=values, names=tuple(names), index_map=index_map, block_map=blocks)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.index_map[name]])

    def block(self, node_id: str) -> np.ndarray:
        start, stop = self.block_map[node_id]
        return self.values[start:stop]

    def with_values(self, values: np.ndarray) -> "ParamVector":
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ModelConfigError("replacement values have wrong length")
        return ParamVector(values=values, names=self.names, index_map=self.index_map, block_map=self.block_map)

    def replace(self, values_by_name: Mapping[str, float]) -> "ParamVector":
        new = self.values.copy()
        for name, value in values_by_name.items():
            if name not in self.index_map:
                raise ModelConfigError(f"unknown coefficient {name!r}")
            new[self.index_map[name]] = float(value)
        return self.with_values(new)

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}


@dataclass(frozen=True)
class CovariateModel:
    """Independent Bernoulli marginals for the process and risk variables."""

    prevalence: Mapping[str, float]

    def __post_init__(self):
        for var, p in self.prevalence.items():
            if not 0.0 <= float(p) <= 1.0:
                raise ModelConfigError(f"prevalence of {var!r} must lie in [0, 1], got {p}")
        object.__setattr__(self, "prevalence", dict(self.prevalence))

    def prevalences(self, spec: DagModelSpec) -> np.ndarray:
        """Prevalence of each covariate column of the bit row, x then z."""
        try:
            return np.array([self.prevalence[v] for v in spec.process_ids + spec.risk_ids], dtype=float)
        except KeyError as exc:
            raise ModelConfigError(f"no prevalence declared for covariate {exc.args[0]!r}") from None


@dataclass(frozen=True, init=False, eq=False)
class _BitRows:
    """Patient bits laid out ``[x | z | y]`` along the last axis: process
    variables, risk factors, then outcomes in node order, the row that
    ``NodeDesign`` columns index. ``bits`` is a read-only float array;
    ``x``, ``z`` and ``y`` are views into it.
    """

    bits: np.ndarray
    nx: int
    nz: int

    def __init__(self, x, z, y):
        blocks = [np.asarray(b, dtype=float) for b in (x, z, y)]
        if len({b.shape[:-1] for b in blocks}) != 1:
            raise ModelConfigError("patient data blocks must share the row count")
        self._set(np.concatenate(blocks, axis=-1), blocks[0].shape[-1], blocks[1].shape[-1])

    def _set(self, bits: np.ndarray, nx: int, nz: int):
        bits = bits.view()  # read-only without a copy, and without freezing the caller's array
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nz", nz)
        return self

    @classmethod
    def from_bits(cls, spec: DagModelSpec, bits: np.ndarray):
        """Wrap bits laid out for ``spec``, without copying float input."""
        return cls.__new__(cls)._set(np.asarray(bits, dtype=float), *spec.widths[:2])

    @property
    def x(self) -> np.ndarray:
        return self.bits[..., : self.nx]

    @property
    def z(self) -> np.ndarray:
        return self.bits[..., self.nx : self.nx + self.nz]

    @property
    def y(self) -> np.ndarray:
        return self.bits[..., self.nx + self.nz :]

    @property
    def widths(self) -> tuple[int, int, int]:
        return self.nx, self.nz, self.bits.shape[-1] - self.nx - self.nz

    def bits_for(self, spec: DagModelSpec) -> np.ndarray:
        """``bits``; ModelConfigError unless its (x, z, y) widths are ``spec``'s."""
        if self.widths != spec.widths:
            raise ModelConfigError(
                f"patient rows have (x, z, y) widths {self.widths}; the model expects {spec.widths}"
            )
        return self.bits

    def complete_bits(self, spec: DagModelSpec) -> np.ndarray:
        """``bits_for(spec)``; ModelConfigError if an outcome is ``MISSING``."""
        bits = self.bits_for(spec)
        if (self.y < 0).any():
            raise ModelConfigError("records must be complete (no missing outcomes)")
        return bits


class PatientRecord(_BitRows):
    """One patient: the (k,) row ``bits``, built as ``PatientRecord(x=, z=, y=)``
    from 1-D blocks or by ``from_bits``. An outcome equal to ``MISSING`` (-1)
    is missing; scoring, fitting and ``outcome`` reject such a record.
    """

    def outcome(self, spec: DagModelSpec, node_id: str) -> int:
        val = int(self.y[spec.node_index(node_id)])
        if val == MISSING:
            raise ModelConfigError(f"outcome {node_id} is missing from the record")
        return val


class PatientData(_BitRows):
    """A batch of patients: the (n, k) matrix ``bits``, one patient per row,
    built as ``PatientData(x=, z=, y=)`` from 2-D blocks, by ``from_bits``
    around a bit matrix without a copy, or by ``from_records``.
    """

    def __len__(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def from_records(cls, records: Iterable[PatientRecord]) -> "PatientData":
        records = list(records)
        if not records:
            raise ModelConfigError("no patient records supplied")
        if len({r.widths for r in records}) != 1:
            raise ModelConfigError("patient records differ in their (x, z, y) widths")
        return cls.__new__(cls)._set(np.stack([r.bits for r in records]), records[0].nx, records[0].nz)

    def record(self, i: int) -> PatientRecord:
        return PatientRecord.__new__(PatientRecord)._set(self.bits[i], self.nx, self.nz)

    def records(self) -> list[PatientRecord]:
        return [self.record(i) for i in range(len(self))]


def as_patient_data(records) -> PatientData:
    """Accept a PatientData or any iterable of PatientRecord."""
    if isinstance(records, PatientData):
        return records
    return PatientData.from_records(records)


def linear_predictor(spec: DagModelSpec, params: ParamVector, node_id: str, record: PatientRecord) -> float:
    """Linear predictor of one node for one patient, a scalar reference for node_eta.

    Raises ModelConfigError if a parent outcome is missing from the record.
    """
    design = node_designs(spec)[spec.node_index(node_id)]
    theta = params.values[design.param_indices]
    row = record.bits_for(spec)
    n_cov = record.nx + record.nz
    eta = theta[0]
    for k, col in enumerate(design.cols, start=1):
        if col >= n_cov and row[col] == MISSING:
            raise ModelConfigError(
                f"node {node_id}: parent outcome {spec.columns[col]!r} is missing from the record"
            )
        eta += theta[k] * float(row[col])
    return float(eta)


def type_bits(k: int) -> np.ndarray:
    """The (2^k, k) float matrix of every bit row: row i has bit j of i in column j."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(float)


def enumerate_patients(
    spec: DagModelSpec,
    params: ParamVector,
    covariates: CovariateModel,
) -> tuple[PatientData, np.ndarray]:
    """Every (x, z, y) configuration with its exact joint probability under
    ``params`` and ``covariates`` (no mean shift). Configuration i has bit j
    of i in column j of the ``[x | z | y]`` row. The number of binary
    variables must not exceed ``ENUM_LIMIT``.
    """
    total = sum(spec.widths)
    if total > ENUM_LIMIT:
        raise ModelConfigError(
            f"exact enumeration over {total} binary variables exceeds the limit of {ENUM_LIMIT}"
        )
    bits = type_bits(total)
    probs = joint_probs(spec, covariates, bits, node_means(node_designs(spec), params.values, bits))
    return PatientData.from_bits(spec, bits), probs


def joint_probs(spec: DagModelSpec, covariates: CovariateModel, bits: np.ndarray, means) -> np.ndarray:
    """Each bit row's probability: the covariate factors, then each node's from its means on the rows."""
    probs = np.ones(bits.shape[0])
    for j, p in enumerate(covariates.prevalences(spec)):
        probs *= np.where(bits[:, j] == 1.0, p, 1.0 - p)
    for design, mu in zip(node_designs(spec), means):
        probs *= np.where(bits[:, design.out_col] == 1.0, mu, 1.0 - mu)
    return probs


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

_NODE_FIELDS = {"id", "link", "intercept", "process_parents", "outcome_parents", "risk_parents"}
_TOP_FIELDS = {"nodes", "covariates", "metadata"}


@dataclass(frozen=True)
class Model:
    """A parsed model: structure, coefficient values and covariate marginals."""

    spec: DagModelSpec
    params: ParamVector
    covariates: CovariateModel
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "metadata", dict(self.metadata))


def _number(value: Any, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ModelConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ModelConfigError(f"{what} must be finite, got {value!r}")
    return number


def _entries(value: Any, what: str) -> list:
    if not isinstance(value, (list, tuple)) or not all(isinstance(e, dict) for e in value):
        raise ModelConfigError(f"{what} must be a list of objects")
    return value


def _parse_parent(node_id: str, kind: str, entry: dict) -> tuple[str, str, float]:
    unknown = set(entry) - {"var", "coef_name", "value"}
    if unknown:
        raise ModelConfigError(f"node {node_id}: unknown field {sorted(unknown)[0]!r} in {kind}")
    try:
        var, name, value = entry["var"], entry["coef_name"], entry["value"]
    except KeyError as exc:
        raise ModelConfigError(f"node {node_id}: {kind} entry missing field {exc.args[0]!r}") from None
    return str(var), str(name), _number(value, f"node {node_id}: {kind} value of {name!r}")


def model_from_dict(doc: Mapping[str, Any]) -> Model:
    """Build and validate a Model from the parsed config document."""
    if not isinstance(doc, Mapping):
        raise ModelConfigError("config root must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ModelConfigError(f"unknown top-level field {sorted(unknown)[0]!r}")
    for key in ("nodes", "covariates"):
        if key not in doc:
            raise ModelConfigError(f"config is missing the {key!r} list")
    if not isinstance(doc.get("metadata", {}), Mapping):
        raise ModelConfigError("metadata must be an object")

    process_ids, risk_ids, prevalence = [], [], {}
    for cov in _entries(doc["covariates"], "covariates"):
        unknown = set(cov) - {"id", "kind", "prevalence"}
        if unknown:
            raise ModelConfigError(f"unknown covariate field {sorted(unknown)[0]!r}")
        cid, kind = str(cov.get("id")), cov.get("kind")
        if kind == "process":
            process_ids.append(cid)
        elif kind == "risk":
            risk_ids.append(cid)
        else:
            raise ModelConfigError(f"covariate {cid!r}: kind must be 'process' or 'risk', got {kind!r}")
        prevalence[cid] = _number(cov.get("prevalence", 0.5), f"covariate {cid!r}: prevalence")

    nodes, values = [], {}
    for nd in _entries(doc["nodes"], "nodes"):
        unknown = set(nd) - _NODE_FIELDS
        if unknown:
            raise ModelConfigError(f"unknown node field {sorted(unknown)[0]!r}")
        node_id = str(nd.get("id"))
        intercept = nd.get("intercept")
        if not isinstance(intercept, dict) or "coef_name" not in intercept:
            raise ModelConfigError(f"node {node_id}: intercept must be an object with coef_name and value")
        parents = {}
        for kind in ("process_parents", "outcome_parents", "risk_parents"):
            entries = _entries(nd.get(kind, []), f"node {node_id}: {kind}")
            parsed = [_parse_parent(node_id, kind, e) for e in entries]
            parents[kind] = tuple((var, name) for var, name, _ in parsed)
            values.update({name: val for _, name, val in parsed})
        values[str(intercept["coef_name"])] = _number(intercept.get("value", 0.0), f"node {node_id}: intercept value")
        nodes.append(
            NodeSpec(
                id=node_id,
                intercept_name=str(intercept["coef_name"]),
                process_parents=parents["process_parents"],
                outcome_parents=parents["outcome_parents"],
                risk_parents=parents["risk_parents"],
                link=str(nd.get("link", LOGIT)),
            )
        )

    spec = DagModelSpec(nodes=tuple(nodes), process_ids=tuple(process_ids), risk_ids=tuple(risk_ids))
    params = ParamVector.for_spec(spec, values)
    covs = CovariateModel(prevalence=prevalence)
    return Model(spec=spec, params=params, covariates=covs, metadata=doc.get("metadata", {}))


def model_to_dict(model: Model) -> dict[str, Any]:
    """Invert model_from_dict; field order is stable for round-trips."""
    spec, params = model.spec, model.params

    def parent_list(pairs):
        return [{"var": var, "coef_name": name, "value": params[name]} for var, name in pairs]

    doc: dict[str, Any] = {
        "covariates": [
            {"id": v, "kind": kind, "prevalence": float(model.covariates.prevalence[v])}
            for kind, ids in (("process", spec.process_ids), ("risk", spec.risk_ids))
            for v in ids
        ],
        "nodes": [
            {
                "id": n.id,
                "link": n.link,
                "intercept": {"coef_name": n.intercept_name, "value": params[n.intercept_name]},
                "process_parents": parent_list(n.process_parents),
                "outcome_parents": parent_list(n.outcome_parents),
                "risk_parents": parent_list(n.risk_parents),
            }
            for n in spec.nodes
        ],
    }
    if model.metadata:
        doc["metadata"] = dict(model.metadata)
    return doc


def parse_model_spec(config_text: str) -> Model:
    """Parse the JSON model config; syntax errors report line and column."""
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ModelConfigError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return model_from_dict(doc)


def serialize_model_spec(model: Model) -> str:
    """Serialize a Model to config text; parse(serialize(m)) round-trips."""
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def model_hash(model: Model) -> str:
    """Stable identity hash over structure, coefficients and prevalences."""
    return hashlib.sha256(serialize_model_spec(model).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Bundled delivery-process model
# ---------------------------------------------------------------------------

# Slope values are the reference estimates for the delivery process; the
# intercepts and covariate prevalences are package defaults chosen to give
# plausible in-control adverse-event rates (see metadata flags).
_DELIVERY_CONFIG: dict[str, Any] = {
    "covariates": [
        {"id": "X1", "kind": "process", "prevalence": 0.25},
        {"id": "X2", "kind": "process", "prevalence": 0.15},
        {"id": "Z1", "kind": "risk", "prevalence": 0.05},
        {"id": "Z2", "kind": "risk", "prevalence": 0.40},
    ],
    "nodes": [
        {
            "id": "Y1",
            "link": "logit",
            "intercept": {"coef_name": "alpha1", "value": -1.8},
            "process_parents": [{"var": "X1", "coef_name": "beta11", "value": -1.724}],
            "outcome_parents": [],
            "risk_parents": [{"var": "Z1", "coef_name": "delta11", "value": 0.730}],
        },
        {
            "id": "Y2",
            "link": "logit",
            "intercept": {"coef_name": "alpha2", "value": -2.6},
            "process_parents": [],
            "outcome_parents": [],
            "risk_parents": [
                {"var": "Z1", "coef_name": "delta12", "value": 1.682},
                {"var": "Z2", "coef_name": "delta22", "value": 1.262},
            ],
        },
        {
            "id": "Y3",
            "link": "logit",
            "intercept": {"coef_name": "alpha3", "value": -3.6},
            "process_parents": [{"var": "X2", "coef_name": "beta23", "value": 0.597}],
            "outcome_parents": [{"var": "Y2", "coef_name": "gamma23", "value": 0.342}],
            "risk_parents": [
                {"var": "Z1", "coef_name": "delta13", "value": 0.467},
                {"var": "Z2", "coef_name": "delta23", "value": 0.758},
            ],
        },
        {
            "id": "Y4",
            "link": "logit",
            "intercept": {"coef_name": "alpha4", "value": -2.9},
            "process_parents": [
                {"var": "X1", "coef_name": "beta14", "value": 0.316},
                {"var": "X2", "coef_name": "beta24", "value": 1.140},
            ],
            "outcome_parents": [
                {"var": "Y2", "coef_name": "gamma24", "value": 0.482},
                {"var": "Y3", "coef_name": "gamma34", "value": 1.267},
            ],
            "risk_parents": [{"var": "Z2", "coef_name": "delta24", "value": 0.374}],
        },
    ],
    "metadata": {
        "name": "delivery-process",
        "description": (
            "Four-stage infant delivery model: Y1 prolonged first-stage labour, "
            "Y2 prolonged second-stage labour, Y3 severe perineal tear, "
            "Y4 post-partum haemorrhage; X1 induction of labour, X2 instrumental "
            "delivery, Z1 posterior/transverse presentation, Z2 first birth."
        ),
        "value_sources": {
            "slopes": "reference estimates for the delivery process",
            "intercepts": "package defaults, not estimated from data",
            "prevalences": "package defaults, not estimated from data",
        },
    },
}


def default_delivery_model() -> Model:
    """The bundled four-outcome delivery-process model (17 coefficients)."""
    return model_from_dict(_DELIVERY_CONFIG)
