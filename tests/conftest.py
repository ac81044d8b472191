"""Shared fixtures and independent oracle helpers.

Oracles here deliberately avoid the vectorized library paths they are used
to check: probabilities are built record by record from linear_predictor and
mean_response, and joint enumeration uses explicit python loops.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

import score_mewma as sm

# CLI tests start `python -m score_mewma` in a subprocess; give it the src/
# that pyproject's pytest `pythonpath` gives this process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def delivery():
    return sm.default_delivery_model()


def intercept_only_model(alpha=0.0):
    spec = sm.DagModelSpec(nodes=(sm.NodeSpec(id="Y1", intercept_name="a1"),), process_ids=(), risk_ids=())
    params = sm.ParamVector.for_spec(spec, {"a1": alpha})
    return sm.Model(spec=spec, params=params, covariates=sm.CovariateModel({}))


def intercept_only_data(y_values):
    y = np.asarray(y_values, dtype=np.int8).reshape(-1, 1)
    n = y.shape[0]
    return sm.PatientData(x=np.zeros((n, 0), dtype=np.int8), z=np.zeros((n, 0), dtype=np.int8), y=y)


def two_node_model():
    """A small model: Y1 on (X1, Z1); Y2 on (X1, Y1, Z1)."""
    doc = {
        "covariates": [
            {"id": "X1", "kind": "process", "prevalence": 0.4},
            {"id": "Z1", "kind": "risk", "prevalence": 0.3},
        ],
        "nodes": [
            {
                "id": "Y1",
                "intercept": {"coef_name": "a1", "value": -0.5},
                "process_parents": [{"var": "X1", "coef_name": "b11", "value": 0.8}],
                "risk_parents": [{"var": "Z1", "coef_name": "d11", "value": -0.6}],
            },
            {
                "id": "Y2",
                "intercept": {"coef_name": "a2", "value": -1.0},
                "process_parents": [{"var": "X1", "coef_name": "b12", "value": 0.5}],
                "outcome_parents": [{"var": "Y1", "coef_name": "g12", "value": 1.1}],
                "risk_parents": [{"var": "Z1", "coef_name": "d12", "value": 0.9}],
            },
        ],
    }
    return sm.model_from_dict(doc)


def delivery_with_risk_factors(n):
    """The delivery model with n more risk factors on Y1: 8 + n binary variables."""
    doc = sm.model_to_dict(sm.default_delivery_model())
    for i in range(n):
        doc["covariates"].append({"id": f"R{i}", "kind": "risk", "prevalence": 0.3})
        doc["nodes"][0]["risk_parents"].append({"var": f"R{i}", "coef_name": f"rho{i}", "value": 0.1})
    return sm.model_from_dict(doc)


def oracle_record_loglik(spec, params, record):
    """Log of the joint outcome probability, one conditional factor at a time."""
    total = 0.0
    for node in spec.nodes:
        mu = sm.mean_response(sm.linear_predictor(spec, params, node.id, record))
        y = record.outcome(spec, node.id)
        total += math.log(mu if y == 1 else 1.0 - mu)
    return total


def oracle_enumerate(spec, params, covariates, mu_transform=None):
    """All configurations and probabilities via plain python loops."""
    nx, nz, nv = len(spec.process_ids), len(spec.risk_ids), spec.n_nodes
    rows, probs = [], []
    for bits in itertools.product((0, 1), repeat=nx + nz + nv):
        x = np.array(bits[:nx], dtype=np.int8)
        z = np.array(bits[nx : nx + nz], dtype=np.int8)
        y = np.array(bits[nx + nz :], dtype=np.int8)
        record = sm.PatientRecord(x=x, z=z, y=y)
        p = 1.0
        for j, var in enumerate(spec.process_ids):
            q = covariates.prevalence[var]
            p *= q if x[j] == 1 else 1.0 - q
        for j, var in enumerate(spec.risk_ids):
            q = covariates.prevalence[var]
            p *= q if z[j] == 1 else 1.0 - q
        for vi, node in enumerate(spec.nodes):
            mu = sm.mean_response(sm.linear_predictor(spec, params, node.id, record))
            if mu_transform is not None:
                mu = float(mu_transform(node.id, np.asarray([mu]))[0])
            p *= mu if y[vi] == 1 else 1.0 - mu
        rows.append(record)
        probs.append(p)
    return rows, np.asarray(probs)


def fd_gradient(fun, theta, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += step
        dn[j] -= step
        out[j] = (fun(up) - fun(dn)) / (2.0 * step)
    return out


def fd_hessian(fun, theta, step=1e-4):
    """Central second differences of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    out = np.zeros((p, p))
    for j in range(p):
        for k in range(j, p):
            tpp, tpm, tmp, tmm = (theta.copy() for _ in range(4))
            tpp[j] += step
            tpp[k] += step
            tpm[j] += step
            tpm[k] -= step
            tmp[j] -= step
            tmp[k] += step
            tmm[j] -= step
            tmm[k] -= step
            val = (fun(tpp) - fun(tpm) - fun(tmp) + fun(tmm)) / (4.0 * step * step)
            out[j, k] = out[k, j] = val
    return out
