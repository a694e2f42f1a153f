import json

import numpy as np
import pytest

from ssbc import DataError, ParameterError
from ssbc.formats import (CSV_HEADER, FORMAT_VERSION, dataset_meta,
                          read_codes, report_payload, to_builtin, write_codes,
                          write_json, write_reports_csv)
from ssbc.data import synth_uniform
from ssbc.evaluation import EvalReport

CODES = np.array([[1, 1, -1, 1], [-1, -1, -1, -1], [1, -1, 1, 1]], dtype=np.int8)


def test_to_builtin():
    out = to_builtin({
        "a": np.int64(3),
        "b": np.float64(0.5),
        "c": np.array([1, 2]),
        "d": (np.bool_(True), [np.float32(1.0)]),
    })
    assert out == {"a": 3, "b": 0.5, "c": [1, 2], "d": [True, [1.0]]}
    assert type(out["a"]) is int
    assert type(out["b"]) is float
    assert type(out["d"][0]) is bool


def test_write_json_deterministic_and_sorted(tmp_path):
    payload = {"zeta": 1, "alpha": np.float64(0.25), "nested": {"y": 2, "x": 1}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, payload)
    write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"nested"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": 0.25,
                                "nested": {"y": 2, "x": 1}}


def test_codes_roundtrip_signs(tmp_path):
    path = tmp_path / "c.codes"
    write_codes(path, CODES, "lsh", config={"seed": 4})
    lines = path.read_text().splitlines()
    assert lines[0] == "# ssbc-codes format=1 method=lsh k=4 count=3 encoding=signs"
    assert lines[1] == '# config {"seed": 4}'
    assert lines[2:] == ["++-+", "----", "+-++"]
    back, meta = read_codes(path)
    assert np.array_equal(back, CODES)
    assert back.dtype == np.int8
    assert meta["method"] == "lsh"
    assert (meta["k"], meta["count"], meta["format"]) == (4, 3, FORMAT_VERSION)
    assert meta["config"] == {"seed": 4}


def test_codes_roundtrip_hex(tmp_path):
    path = tmp_path / "c.codes"
    write_codes(path, CODES, "ssbc_streaming", packed=True)
    lines = path.read_text().splitlines()
    assert "encoding=hex" in lines[0]
    assert lines[2] == "d0"  # bits 1101 padded to 11010000
    assert lines[3] == "00"
    assert lines[4] == "b0"
    back, meta = read_codes(path)
    assert np.array_equal(back, CODES)
    assert meta["encoding"] == "hex"


def test_codes_hex_wide_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    codes = np.where(rng.random((6, 37)) < 0.5, -1, 1).astype(np.int8)
    path = tmp_path / "w.codes"
    write_codes(path, codes, "lsh", packed=True)
    back, _ = read_codes(path)
    assert np.array_equal(back, codes)


def test_write_codes_validation(tmp_path):
    with pytest.raises(ParameterError):
        write_codes(tmp_path / "x", np.zeros(3), "lsh")
    with pytest.raises(ParameterError):
        write_codes(tmp_path / "x", np.array([[1, 0]]), "lsh")
    with pytest.raises(DataError):
        write_codes(tmp_path / "nodir" / "x", CODES, "lsh")


def test_read_codes_error_paths(tmp_path):
    path = tmp_path / "bad"
    path.write_text("hello\nworld\n")
    with pytest.raises(DataError):
        read_codes(path)
    path.write_text("# ssbc-codes format=1 method=m k=2 count=1 encoding=signs\n++\n")
    with pytest.raises(DataError):
        read_codes(path)  # missing config line
    path.write_text("# ssbc-codes format=9 method=m k=2 count=1 encoding=signs\n"
                    "# config {}\n++\n")
    with pytest.raises(DataError):
        read_codes(path)  # unsupported version
    path.write_text("# ssbc-codes format=1 method=m k=2 count=2 encoding=signs\n"
                    "# config {}\n++\n")
    with pytest.raises(DataError):
        read_codes(path)  # count mismatch
    path.write_text("# ssbc-codes format=1 method=m k=2 count=1 encoding=signs\n"
                    "# config {}\n+x\n")
    with pytest.raises(DataError):
        read_codes(path)  # bad sign character
    path.write_text("# ssbc-codes format=1 method=m k=9 count=1 encoding=hex\n"
                    "# config {}\nff\n")
    with pytest.raises(DataError):
        read_codes(path)  # 8 bits cannot carry k=9
    path.write_text("# ssbc-codes format=1 method=m k=2 count=1 encoding=hex\n"
                    "# config {}\nzz\n")
    with pytest.raises(DataError):
        read_codes(path)  # invalid hex
    path.write_text("# ssbc-codes format=1 method=m k=2 count=1 encoding=raw\n"
                    "# config {}\n++\n")
    with pytest.raises(DataError):
        read_codes(path)  # unknown encoding
    with pytest.raises(DataError):
        read_codes(tmp_path / "missing")


def test_read_codes_rejects_negative_header_sizes(tmp_path):
    path = tmp_path / "neg"
    for header in ("k=-1 count=1", "k=2 count=-1"):
        path.write_text("# ssbc-codes format=1 method=m %s encoding=signs\n"
                        "# config {}\n++\n" % header)
        with pytest.raises(DataError, match="negative"):
            read_codes(path)


def test_read_codes_rejects_hex_lines_of_the_wrong_byte_length(tmp_path):
    path = tmp_path / "long"
    for k, line in ((4, "f0ff"), (9, "ff"), (9, "ff80ff"), (8, "")):
        path.write_text("# ssbc-codes format=1 method=m k=%d count=1 encoding=hex\n"
                        "# config {}\n%s\n" % (k, line))
        with pytest.raises(DataError, match="bytes"):
            read_codes(path)


def sample_report():
    return EvalReport("lsh", 3, {"radius": 1, "seed": 0}, 0.5, 0.25, 0.75,
                      [(1.0, 0.0), (0.5, 0.25), (0.25, 0.5), (0.125, 1.0)])


def test_report_payload():
    payload = report_payload([sample_report()], {"k": 3})
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["config"] == {"k": 3}
    assert payload["reports"][0]["method"] == "lsh"
    assert payload["reports"][0]["pr_curve"][1] == [0.5, 0.25]


def test_write_reports_csv(tmp_path):
    path = tmp_path / "r.csv"
    write_reports_csv(path, [sample_report()], {"seed": 0},
                      failures=[("exact_d", 3, "guard")])
    lines = path.read_text().splitlines()
    assert lines[0] == '# config {"seed": 0}'
    assert lines[1] == CSV_HEADER
    assert lines[2] == "lsh,3,summary,1,0.5,0.25,0.75,ok"
    assert lines[3] == "lsh,3,pr,0,1.0,0.0,,ok"
    assert lines[6] == "lsh,3,pr,3,0.125,1.0,,ok"
    assert lines[7] == "exact_d,3,summary,,,,,failed:guard"
    assert len(lines) == 8


def test_dataset_meta():
    ds = synth_uniform(10, 3, 5, name="demo")
    meta = dataset_meta(ds, {"n": 10}, seed=5)
    assert meta == {
        "format_version": FORMAT_VERSION,
        "name": "demo",
        "n": 10,
        "d": 3,
        "provenance": "synthetic",
        "seed": 5,
        "config": {"n": 10},
    }
