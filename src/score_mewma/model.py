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
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np
from scipy.special import expit

from .errors import ModelConfigError

LOGIT = "logit"

#: Sentinel for an outcome that has not been observed / generated yet.
MISSING = -1


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
    def covariate_names(self) -> tuple[str, ...]:
        return self.process_ids + self.risk_ids

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_params(self) -> int:
        return sum(n.n_coefs for n in self.nodes)

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def node_index(self, node_id: str) -> int:
        for i, n in enumerate(self.nodes):
            if n.id == node_id:
                return i
        raise KeyError(node_id)


@dataclass(frozen=True)
class NodeDesign:
    """Index bookkeeping for one node's design row.

    ``param_indices`` locates the node's coefficients in the flat vector, in
    design-row order. Column index arrays point into the x, y and z blocks of
    a patient record.
    """

    node_index: int
    param_indices: np.ndarray
    x_cols: np.ndarray
    y_cols: np.ndarray
    z_cols: np.ndarray


@functools.lru_cache(maxsize=64)
def node_designs(spec: DagModelSpec) -> tuple[NodeDesign, ...]:
    """Per-node design indexing, cached per spec."""
    x_pos = {v: i for i, v in enumerate(spec.process_ids)}
    z_pos = {v: i for i, v in enumerate(spec.risk_ids)}
    y_pos = {v: i for i, v in enumerate(spec.node_ids)}
    designs = []
    offset = 0
    for vi, node in enumerate(spec.nodes):
        p_v = node.n_coefs
        designs.append(
            NodeDesign(
                node_index=vi,
                param_indices=np.arange(offset, offset + p_v),
                x_cols=np.array([x_pos[v] for v, _ in node.process_parents], dtype=int),
                y_cols=np.array([y_pos[v] for v, _ in node.outcome_parents], dtype=int),
                z_cols=np.array([z_pos[v] for v, _ in node.risk_parents], dtype=int),
            )
        )
        offset += p_v
    return tuple(designs)


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

    def arrays(self, spec: DagModelSpec) -> tuple[np.ndarray, np.ndarray]:
        try:
            px = np.array([self.prevalence[v] for v in spec.process_ids], dtype=float)
            pz = np.array([self.prevalence[v] for v in spec.risk_ids], dtype=float)
        except KeyError as exc:
            raise ModelConfigError(f"no prevalence declared for covariate {exc.args[0]!r}") from None
        return px, pz


def _binary_array(values, width: int, what: str, allow_missing: bool = False) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int8).reshape(-1)
    if arr.shape != (width,):
        raise ModelConfigError(f"{what} must have length {width}, got {arr.shape[0]}")
    allowed = (arr == 0) | (arr == 1) | (allow_missing & (arr == MISSING))
    if not allowed.all():
        raise ModelConfigError(f"{what} entries must be 0 or 1")
    return arr


@dataclass(frozen=True)
class PatientRecord:
    """One patient: binary covariates and (possibly partial) outcomes.

    Outcome entries equal to ``MISSING`` (-1) are treated as not yet
    observed, which happens mid-way through sequential generation.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def outcome(self, spec: DagModelSpec, node_id: str) -> int:
        val = int(self.y[spec.node_index(node_id)])
        if val == MISSING:
            raise ModelConfigError(f"outcome {node_id} is missing from the record")
        return val


@dataclass(frozen=True)
class PatientData:
    """Column-oriented batch of complete patient records."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.int8)
        z = np.asarray(self.z, dtype=np.int8)
        y = np.asarray(self.y, dtype=np.int8)
        n = x.shape[0]
        if z.shape[0] != n or y.shape[0] != n:
            raise ModelConfigError("patient data blocks must share the row count")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_records(cls, records: Iterable[PatientRecord]) -> "PatientData":
        records = list(records)
        if not records:
            raise ModelConfigError("no patient records supplied")
        return cls(
            x=np.stack([r.x for r in records]),
            z=np.stack([r.z for r in records]),
            y=np.stack([r.y for r in records]),
        )

    def record(self, i: int) -> PatientRecord:
        return PatientRecord(x=self.x[i], z=self.z[i], y=self.y[i])

    def records(self) -> list[PatientRecord]:
        return [self.record(i) for i in range(len(self))]


def as_patient_data(records) -> PatientData:
    """Accept a PatientData or any iterable of PatientRecord."""
    if isinstance(records, PatientData):
        return records
    return PatientData.from_records(records)


def linear_predictor(spec: DagModelSpec, params: ParamVector, node_id: str, record: PatientRecord) -> float:
    """Linear predictor of one node for one patient.

    Raises ModelConfigError if a parent outcome is missing from the record.
    """
    node = spec.node(node_id)
    design = node_designs(spec)[spec.node_index(node_id)]
    theta = params.values[design.param_indices]
    eta = theta[0]
    k = 1
    for col in design.x_cols:
        eta += theta[k] * float(record.x[col])
        k += 1
    for col in design.y_cols:
        yv = int(record.y[col])
        if yv == MISSING:
            raise ModelConfigError(
                f"node {node.id}: parent outcome {spec.node_ids[col]!r} is missing from the record"
            )
        eta += theta[k] * float(yv)
        k += 1
    for col in design.z_cols:
        eta += theta[k] * float(record.z[col])
        k += 1
    return float(eta)


def node_means(
    spec: DagModelSpec,
    params: ParamVector,
    x: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    node_index: int,
) -> np.ndarray:
    """Vector of mean responses for one node over a batch (columns as float)."""
    design = node_designs(spec)[node_index]
    theta = params.values[design.param_indices]
    eta = np.full(x.shape[0], theta[0])
    k = 1
    for col in design.x_cols:
        eta += theta[k] * x[:, col]
        k += 1
    for col in design.y_cols:
        eta += theta[k] * y[:, col]
        k += 1
    for col in design.z_cols:
        eta += theta[k] * z[:, col]
        k += 1
    return expit(eta)


def enumerate_patients(
    spec: DagModelSpec,
    params: ParamVector,
    covariates: CovariateModel,
    mu_transform: Callable[[str, np.ndarray], np.ndarray] | None = None,
    limit: int = 24,
) -> tuple[PatientData, np.ndarray]:
    """Every (x, z, y) configuration with its exact joint probability.

    ``mu_transform(node_id, mu)`` lets callers post-transform a node's mean
    response, which is how mean-level shifts enter the generating law. The
    number of binary variables must not exceed ``limit``.
    """
    nx, nz, nv = len(spec.process_ids), len(spec.risk_ids), spec.n_nodes
    total = nx + nz + nv
    if total > limit:
        raise ModelConfigError(
            f"exact enumeration over {total} binary variables exceeds the limit of {limit}"
        )
    n = 1 << total
    bits = (np.arange(n)[:, None] >> np.arange(total)[None, :]) & 1
    x = bits[:, :nx].astype(np.int8)
    z = bits[:, nx : nx + nz].astype(np.int8)
    y = bits[:, nx + nz :].astype(np.int8)

    px, pz = covariates.arrays(spec)
    xf, zf, yf = x.astype(float), z.astype(float), y.astype(float)
    probs = np.ones(n)
    for j in range(nx):
        probs *= np.where(xf[:, j] == 1.0, px[j], 1.0 - px[j])
    for j in range(nz):
        probs *= np.where(zf[:, j] == 1.0, pz[j], 1.0 - pz[j])
    for vi, node in enumerate(spec.nodes):
        mu = node_means(spec, params, xf, zf, yf, vi)
        if mu_transform is not None:
            mu = mu_transform(node.id, mu)
        probs *= np.where(yf[:, vi] == 1.0, mu, 1.0 - mu)
    return PatientData(x=x, z=z, y=y), probs


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


def _parse_parent(node_id: str, kind: str, entry: Any) -> tuple[str, str, float]:
    if not isinstance(entry, dict):
        raise ModelConfigError(f"node {node_id}: {kind} entries must be objects")
    unknown = set(entry) - {"var", "coef_name", "value"}
    if unknown:
        raise ModelConfigError(f"node {node_id}: unknown field {sorted(unknown)[0]!r} in {kind}")
    try:
        return str(entry["var"]), str(entry["coef_name"]), float(entry["value"])
    except KeyError as exc:
        raise ModelConfigError(f"node {node_id}: {kind} entry missing field {exc.args[0]!r}") from None


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

    process_ids, risk_ids, prevalence = [], [], {}
    for cov in doc["covariates"]:
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
        prevalence[cid] = float(cov.get("prevalence", 0.5))

    nodes, values = [], {}
    for nd in doc["nodes"]:
        unknown = set(nd) - _NODE_FIELDS
        if unknown:
            raise ModelConfigError(f"unknown node field {sorted(unknown)[0]!r}")
        node_id = str(nd.get("id"))
        intercept = nd.get("intercept")
        if not isinstance(intercept, dict) or "coef_name" not in intercept:
            raise ModelConfigError(f"node {node_id}: intercept must be an object with coef_name and value")
        parents = {}
        for kind in ("process_parents", "outcome_parents", "risk_parents"):
            parsed = [_parse_parent(node_id, kind, e) for e in nd.get(kind, [])]
            parents[kind] = tuple((var, name) for var, name, _ in parsed)
            values.update({name: val for _, name, val in parsed})
        values[str(intercept["coef_name"])] = float(intercept.get("value", 0.0))
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
