import io as _io
import json

import numpy as np
import pytest

import score_mewma as sm
from score_mewma import io as fio
from score_mewma.errors import DataFormatError


def test_parse_c_grid_range_inclusive():
    grid = fio.parse_c_grid("0.2:4.0:0.2")
    assert len(grid) == 20
    assert grid[0] == 0.2 and grid[-1] == 4.0
    assert fio.parse_c_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]


def test_parse_c_grid_list_and_errors():
    assert fio.parse_c_grid("0.2,1.0,4.0") == [0.2, 1.0, 4.0]
    assert fio.parse_c_grid("2") == [2.0]
    with pytest.raises(DataFormatError):
        fio.parse_c_grid("1:2")
    with pytest.raises(DataFormatError):
        fio.parse_c_grid("1:2:-0.5")
    with pytest.raises(DataFormatError):
        fio.parse_c_grid("a,b")


def test_parse_c_grid_caps_the_range_size():
    assert len(fio.parse_c_grid(f"1:{fio.MAX_C_GRID}:1")) == fio.MAX_C_GRID
    with pytest.raises(DataFormatError, match=f"{fio.MAX_C_GRID + 1} points, more than {fio.MAX_C_GRID}"):
        fio.parse_c_grid(f"0:{fio.MAX_C_GRID}:1")


def test_parse_c_grid_caps_the_list_size():
    assert len(fio.parse_c_grid(",".join(["1.5"] * fio.MAX_C_GRID))) == fio.MAX_C_GRID
    with pytest.raises(DataFormatError, match=f"a list of {fio.MAX_C_GRID + 1} points, more than {fio.MAX_C_GRID}"):
        fio.parse_c_grid(",".join(["1.5"] * (fio.MAX_C_GRID + 1)))


def test_patient_csv_roundtrip(tmp_path, delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 40, 3)
    path = tmp_path / "patients.csv"
    manifest = fio.make_manifest("simulate", ("simulate",), "abc", 3, {"n": 40})
    fio.write_patient_csv(str(path), delivery.spec, data, manifest)
    again = fio.read_patient_csv(str(path), delivery.spec)
    np.testing.assert_array_equal(again.x, data.x)
    np.testing.assert_array_equal(again.z, data.z)
    np.testing.assert_array_equal(again.y, data.y)
    assert fio.read_manifest(str(path))["command"] == "simulate"


def test_patient_csv_accepts_id_column(delivery):
    text = "patient_id," + ",".join(fio.patient_columns(delivery.spec)) + "\n"
    text += "7," + ",".join(["0"] * 8) + "\n"
    data = fio.read_patient_csv(_io.StringIO(text), delivery.spec)
    assert len(data) == 1


def test_patient_csv_missing_column_named(delivery):
    cols = [c for c in fio.patient_columns(delivery.spec) if c != "Y3"]
    text = ",".join(cols) + "\n" + ",".join(["0"] * len(cols)) + "\n"
    with pytest.raises(DataFormatError, match="'Y3'"):
        fio.read_patient_csv(_io.StringIO(text), delivery.spec)


def test_patient_csv_unknown_column(delivery):
    cols = fio.patient_columns(delivery.spec) + ["weird"]
    text = ",".join(cols) + "\n" + ",".join(["0"] * len(cols)) + "\n"
    with pytest.raises(DataFormatError, match="weird"):
        fio.read_patient_csv(_io.StringIO(text), delivery.spec)


def test_patient_csv_repeated_column_named(delivery):
    cols = fio.patient_columns(delivery.spec) + ["Y1"]
    text = ",".join(cols) + "\n" + ",".join(["0"] * (len(cols) - 1) + ["1"]) + "\n"
    with pytest.raises(DataFormatError, match="repeats column 'Y1'"):
        fio.read_patient_csv(_io.StringIO(text), delivery.spec)


def test_patient_csv_bad_value_reports_row(delivery):
    cols = fio.patient_columns(delivery.spec)
    text = ",".join(cols) + "\n" + ",".join(["0"] * 8) + "\n" + "0,1,0,1,0,2,0,1\n"
    with pytest.raises(DataFormatError, match="row 3"):
        fio.read_patient_csv(_io.StringIO(text), delivery.spec)
    short = ",".join(cols) + "\n" + ",".join(["0"] * 8) + "\n" + "0,1,0,1,0,0,0\n"
    with pytest.raises(DataFormatError, match="row 3: expected 8 fields, got 7"):
        fio.read_patient_csv(_io.StringIO(short), delivery.spec)


def test_patient_csv_empty(delivery):
    with pytest.raises(DataFormatError, match="empty"):
        fio.read_patient_csv(_io.StringIO(""), delivery.spec)
    header_only = ",".join(fio.patient_columns(delivery.spec)) + "\n"
    with pytest.raises(DataFormatError, match="no data rows"):
        fio.read_patient_csv(_io.StringIO(header_only), delivery.spec)


def test_json_report_and_payload_bytes(tmp_path):
    manifest = fio.make_manifest("fit", ("fit", "m.json"), "hash", None, {})
    payload = {"b": 2, "a": [1.5, "x"]}
    path = tmp_path / "report.json"
    fio.write_json_report(str(path), manifest, payload)
    doc = fio.read_json_report(str(path))
    assert doc["payload"] == payload
    assert doc["manifest"]["command"] == "fit"
    assert fio.payload_bytes(str(path)) == b'{"a":[1.5,"x"],"b":2}'


def test_csv_payload_bytes_excludes_manifest(tmp_path, delivery):
    gen = sm.in_control_generator(delivery)
    data = sm.sample_patients(gen, 5, 1)
    with_m = tmp_path / "a.csv"
    without = tmp_path / "b.csv"
    fio.write_patient_csv(str(with_m), delivery.spec, data, fio.make_manifest("simulate", (), "h", 1, {}))
    fio.write_patient_csv(str(without), delivery.spec, data, None)
    assert fio.payload_bytes(str(with_m)) == fio.payload_bytes(str(without))


def test_load_params_file_variants(tmp_path, delivery):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(delivery.params.as_dict()))
    p1 = fio.load_params_file(str(flat), delivery.spec)
    np.testing.assert_array_equal(p1.values, delivery.params.values)

    config = tmp_path / "model.json"
    config.write_text(sm.serialize_model_spec(delivery))
    p2 = fio.load_params_file(str(config), delivery.spec)
    np.testing.assert_array_equal(p2.values, delivery.params.values)

    report = tmp_path / "fit.json"
    report.write_text(json.dumps({"manifest": {}, "payload": {"params": delivery.params.as_dict()}}))
    p3 = fio.load_params_file(str(report), delivery.spec)
    np.testing.assert_array_equal(p3.values, delivery.params.values)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"params": {"nope": 1.0}}))
    with pytest.raises(DataFormatError):
        fio.load_params_file(str(bad), delivery.spec)
