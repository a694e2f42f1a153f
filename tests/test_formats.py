import json

import numpy as np
import pytest

from ssbc import DataError, ParameterError
from ssbc.affinity import _row_blocks
from ssbc.cli import main
from ssbc.formats import (CSV_HEADER, FORMAT_VERSION, read_codes, report_payload,
                          write_codes, write_json, write_reports_csv)
from ssbc.evaluation import EvalReport

CODES = np.array([[1, 1, -1, 1], [-1, -1, -1, -1], [1, -1, 1, 1]], dtype=np.int8)


def test_write_json_writes_numpy_values_as_python_values(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {
        "a": np.int64(3),
        "b": np.float64(0.5),
        "c": np.array([1, 2]),
        "d": (np.bool_(True), [np.float32(1.0)]),
        "e": np.array(1.5),
    })
    out = json.loads(path.read_text())
    assert out == {"a": 3, "b": 0.5, "c": [1, 2], "d": [True, [1.0]], "e": 1.5}
    assert type(out["a"]) is int
    assert type(out["b"]) is float
    assert type(out["d"][0]) is bool
    with pytest.raises(TypeError):
        write_json(path, {"f": object()})


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


def test_write_codes_matches_a_per_element_oracle_over_several_blocks(tmp_path):
    # k = 9 pads the second hex byte; 300 rows span three 128-row blocks
    rng = np.random.default_rng(17)
    k = 9
    for count in (300, 0):
        codes = np.where(rng.random((count, k)) < 0.5, -1, 1).astype(np.int8)
        assert count == 0 or len(_row_blocks(count, k + 1)) > 1
        for packed in (False, True):
            path = tmp_path / ("c%d%d.codes" % (count, packed))
            write_codes(path, codes, "lsh", packed=packed)
            body = path.read_text().split("\n")[2:]
            assert body.pop() == ""
            expected = []
            for row in codes.tolist():
                if packed:
                    value = 0
                    for b in row + [-1] * 7:
                        value = 2 * value + (b > 0)
                    expected.append("%04x" % value)
                else:
                    expected.append("".join("+" if b > 0 else "-" for b in row))
            assert body == expected


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
    path.write_text("# ssbc-codes format=1 method=m k=x count=1 encoding=signs\n"
                    "# config {}\n++\n")
    with pytest.raises(DataError, match="malformed header"):
        read_codes(path)
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


def test_read_codes_rejects_set_padding_bits(tmp_path):
    path = tmp_path / "pad"
    for k, line in ((4, "ff"), (4, "f1"), (9, "ff40"), (1, "c0")):
        path.write_text("# ssbc-codes format=1 method=m k=%d count=1 encoding=hex\n"
                        "# config {}\n%s\n" % (k, line))
        with pytest.raises(DataError, match="padding"):
            read_codes(path)
    # the same lines with zero padding read back
    for k, line, want in ((4, "f0", [1] * 4), (9, "ff80", [1] * 9), (1, "80", [1])):
        path.write_text("# ssbc-codes format=1 method=m k=%d count=1 encoding=hex\n"
                        "# config {}\n%s\n" % (k, line))
        assert read_codes(path)[0].tolist() == [want]


def _long_codes_file(path, k, encoding, lines):
    path.write_text("# ssbc-codes format=1 method=m k=%d count=%d encoding=%s\n"
                    "# config {}\n%s\n" % (k, len(lines), encoding, "\n".join(lines)))


@pytest.mark.parametrize("encoding, bad, message", [
    ("signs", "+-+", "bad code line 5002"),
    ("signs", "+-+-+", "bad code line 5002"),
    ("signs", "+-x-", "bad code line 5002"),
    ("signs", "+-\x00-", "bad code line 5002"),
    ("hex", "a", "bad hex line 5002"),
    ("hex", "ag", "bad hex line 5002"),
    ("hex", "a\u0660", "bad hex line 5002"),
    ("hex", "a0ff", "hex line 5002 has 2 bytes, k=4 needs 1"),
    ("hex", "", "hex line 5002 has 0 bytes, k=4 needs 1"),
    ("hex", "a1", "hex line 5002 sets padding bits past k=4"),
])
def test_read_codes_names_the_first_bad_line_of_a_long_file(tmp_path, encoding, bad,
                                                             message):
    # a later line bad in another way must not be the one reported
    lines = ["+-+-" if encoding == "signs" else "a0"] * 8000
    lines[4999] = bad
    lines[6999] = "--" if encoding == "signs" else "zz"
    path = tmp_path / "long.codes"
    _long_codes_file(path, 4, encoding, lines)
    with pytest.raises(DataError) as info:
        read_codes(path)
    assert str(info.value) == "%s: %s" % (path, message)


def test_read_codes_takes_hex_lines_as_bytes_fromhex_does(tmp_path):
    # upper-case digits and spaces around whole bytes decode as written
    lines = ["a0"] * 8000
    lines[4999], lines[6999], lines[7999] = "A0", " a0", "a 0"
    path = tmp_path / "hex.codes"
    _long_codes_file(path, 4, "hex", lines[:7999])
    back, meta = read_codes(path)
    assert np.array_equal(back, np.tile(np.int8([1, -1, 1, -1]), (7999, 1)))
    assert (meta["k"], meta["count"]) == (4, 7999)
    _long_codes_file(path, 4, "hex", lines)
    with pytest.raises(DataError, match="bad hex line 8002"):
        read_codes(path)


def test_read_codes_refuses_an_unknown_encoding_of_an_empty_body(tmp_path):
    path = tmp_path / "empty.codes"
    path.write_text("# ssbc-codes format=1 method=m k=2 count=0 encoding=raw\n"
                    "# config {}\n")
    with pytest.raises(DataError, match="unknown encoding 'raw'"):
        read_codes(path)


def test_read_codes_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "binary.codes"
    path.write_bytes(b"# ssbc-codes format=1 method=m k=2 count=1 encoding=signs\n"
                     b"# config {}\n+\xff\n")
    with pytest.raises(DataError) as err:
        read_codes(path)
    assert str(err.value).startswith("cannot read %s: " % path)


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


def test_dataset_meta(tmp_path):
    out = tmp_path / "demo.csv"
    assert main(["synth", "--n", "10", "--d", "3", "--seed", "5", "--name", "demo",
                 "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "demo.csv.meta.json").read_text())
    assert meta == {
        "format_version": FORMAT_VERSION,
        "name": "demo",
        "n": 10,
        "d": 3,
        "provenance": "synthetic",
        "seed": 5,
        "config": {"command": "synth", "n": 10, "d": 3, "seed": 5, "name": "demo",
                   "out": str(out)},
    }
