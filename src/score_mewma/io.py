"""File formats: patient CSV, JSON reports, study/trace CSV, run manifests.

Every output file embeds a run manifest. JSON reports carry it under the
"manifest" key; CSV files carry it in a leading "# manifest: ..." comment
line. The payload (everything else) is reproduced byte-identically when the
manifest's command line is re-run, which is what payload_bytes extracts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Iterator, Mapping, TextIO

import numpy as np

from .errors import DataFormatError, ModelConfigError
from .model import (
    DagModelSpec,
    Model,
    ParamVector,
    PatientData,
    PatientRecord,
    model_from_dict,
)
from .version import __version__

ID_COLUMNS = ("patient_id", "id")

MANIFEST_PREFIX = "# manifest: "


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to re-run a command bit-identically."""

    command: str
    argv: tuple[str, ...]
    model_hash: str
    seed: int | None
    config: Mapping[str, Any]
    tool_version: str
    created_utc: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "model_hash": self.model_hash,
            "seed": self.seed,
            "config": dict(self.config),
            "tool_version": self.tool_version,
            "created_utc": self.created_utc,
        }


def make_manifest(command: str, argv, model_hash: str, seed: int | None, config: Mapping[str, Any]) -> RunManifest:
    return RunManifest(
        command=command,
        argv=tuple(argv),
        model_hash=model_hash,
        seed=seed,
        config=dict(config),
        tool_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def write_json_report(path: str, manifest: RunManifest, payload: Mapping[str, Any]) -> None:
    doc = {"manifest": manifest.to_dict(), "payload": payload}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json_report(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def read_manifest(path: str) -> dict[str, Any] | None:
    """Manifest of any output file written by this package, or None."""
    with open(path, "r", encoding="utf-8") as f:
        head = f.readline()
        if head.startswith(MANIFEST_PREFIX):
            return json.loads(head[len(MANIFEST_PREFIX):])
    try:
        doc = read_json_report(path)
    except json.JSONDecodeError:
        return None
    return doc.get("manifest")


def payload_bytes(path: str) -> bytes:
    """Canonical bytes of a file's payload, excluding its manifest."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw.startswith(b"{"):
        doc = json.loads(raw.decode("utf-8"))
        return _canonical_json(doc.get("payload", doc)).encode()
    lines = raw.split(b"\n")
    body = [ln for ln in lines if not ln.startswith(b"#")]
    return b"\n".join(body)


# ---------------------------------------------------------------------------
# CSV outputs
# ---------------------------------------------------------------------------


def _write_manifest_line(f: TextIO, manifest: RunManifest | None) -> None:
    if manifest is not None:
        f.write(MANIFEST_PREFIX + _canonical_json(manifest.to_dict()) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_study_csv(path: str, manifest: RunManifest | None, rows) -> None:
    """Study table: one row per (shift, c) with its run-length summary."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        _write_manifest_line(f, manifest)
        f.write("shift_kind,targets,c,mean_rl,std_error,reps,censored\n")
        for row in rows:
            arl = row.arl
            f.write(
                ",".join(
                    [
                        row.shift_kind,
                        "+".join(row.targets),
                        _fmt(row.c),
                        _fmt(arl.mean_rl),
                        _fmt(arl.std_error),
                        str(arl.reps),
                        str(arl.censored),
                    ]
                )
                + "\n"
            )


def write_plot_csv(path: str, manifest: RunManifest | None, rows) -> None:
    """Per-c plotting data with a normal-approximation 95 percent band."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        _write_manifest_line(f, manifest)
        f.write("c,mean_rl,ci_low,ci_high\n")
        for row in rows:
            arl = row.arl
            half = 1.96 * arl.std_error
            f.write(
                ",".join([_fmt(row.c), _fmt(arl.mean_rl), _fmt(arl.mean_rl - half), _fmt(arl.mean_rl + half)])
                + "\n"
            )


# ---------------------------------------------------------------------------
# Patient CSV
# ---------------------------------------------------------------------------


def patient_columns(spec: DagModelSpec) -> list[str]:
    return list(spec.columns)


def write_patient_csv(path: str, spec: DagModelSpec, data: PatientData, manifest: RunManifest | None = None) -> None:
    bits = data.bits_for(spec)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        _write_manifest_line(f, manifest)
        f.write(",".join(patient_columns(spec)) + "\n")
        for row in bits:
            f.write(",".join(str(int(v)) for v in row) + "\n")


def iter_patient_rows(f: TextIO, spec: DagModelSpec) -> Iterator[PatientRecord]:
    """Stream the records of an open patient CSV, each holding its parsed
    bit row in ``patient_columns`` order.

    Raises DataFormatError naming the offending column or row; iteration
    stops at the first malformed row.
    """
    cols = patient_columns(spec)
    lines = ((lineno, line.rstrip("\r\n")) for lineno, line in enumerate(f, 1))
    lines = ((lineno, line) for lineno, line in lines if line and not line.startswith("#"))
    _, header = next(lines, (0, None))
    if header is None:
        raise DataFormatError("empty patient CSV: no header row")
    header = header.split(",")
    missing = [c for c in cols if c not in header]
    if missing:
        raise DataFormatError(f"patient CSV is missing required column {missing[0]!r}")
    unknown = [c for c in header if c not in cols and c not in ID_COLUMNS]
    if unknown:
        raise DataFormatError(f"patient CSV has unknown column {unknown[0]!r}")
    positions = [header.index(c) for c in cols]

    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != len(header):
            raise DataFormatError(f"row {lineno}: expected {len(header)} fields, got {len(parts)}")
        cells = [parts[pos].strip() for pos in positions]
        for col, cell in zip(cols, cells):
            if cell not in ("0", "1"):
                raise DataFormatError(f"row {lineno}: column {col} must be 0 or 1, got {cell!r}")
        yield PatientRecord.from_bits(spec, [cell == "1" for cell in cells])


def read_patient_csv(source, spec: DagModelSpec) -> PatientData:
    """Load a whole patient CSV from a path or open file."""
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as f:
            records = list(iter_patient_rows(f, spec))
    else:
        records = list(iter_patient_rows(source, spec))
    if not records:
        raise DataFormatError("patient CSV has no data rows")
    return PatientData.from_records(records)


# ---------------------------------------------------------------------------
# Small parsers
# ---------------------------------------------------------------------------


def parse_c_grid(text: str) -> list[float]:
    """Grid syntax: explicit list "a,b,c" or inclusive range "start:stop:step".

    Range endpoints are included when they land on the grid within 1e-9.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DataFormatError(f"bad c grid {text!r}: ranges are start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise DataFormatError(f"bad c grid {text!r}: non-numeric range bounds") from None
        if step <= 0 or stop < start:
            raise DataFormatError(f"bad c grid {text!r}: need step > 0 and stop >= start")
        n_exact = (stop - start) / step
        count = int(round(n_exact))
        if abs(start + count * step - stop) > 1e-9:
            count = int(math.floor(n_exact + 1e-12))
        return [round(start + i * step, 12) for i in range(count + 1)]
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise DataFormatError(f"bad c grid {text!r}: non-numeric entry") from None


def load_model_config(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    from .model import parse_model_spec

    return parse_model_spec(text)


def load_params_file(path: str, spec: DagModelSpec) -> ParamVector:
    """Coefficient values from a params map, fit report or model config."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno})") from None
    if isinstance(doc, dict) and "payload" in doc and isinstance(doc["payload"], dict):
        doc = doc["payload"]
    if isinstance(doc, dict) and "params" in doc and isinstance(doc["params"], dict):
        values = doc["params"]
    elif isinstance(doc, dict) and "nodes" in doc:
        values = model_from_dict(doc).params.as_dict()
    elif isinstance(doc, dict) and all(isinstance(v, (int, float)) for v in doc.values()):
        values = doc
    else:
        raise DataFormatError(f"{path}: cannot find coefficient values in this file")
    try:
        return ParamVector.for_spec(spec, {str(k): float(v) for k, v in values.items()})
    except ModelConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
