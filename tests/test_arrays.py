import json
import math
import re
import struct

import numpy as np
import pytest

from psdo import GridSpec
from psdo.arrays import read_array, write_array
from psdo.cli import main
from psdo.errors import ValidationError
from psdo.validation import validate, load_schema


def _bin_file(path, header, payload=b""):
    """A .bin file built by hand: magic, header length, header, payload."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path.write_bytes(b"PSDO" + struct.pack("<I", len(blob)) + blob + payload)
    return path


def test_bin_roundtrip_bit_exact(tmp_path, rng):
    g = GridSpec(1, 9, "mod")
    data = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    path = tmp_path / "a.bin"
    write_array(path, data, g)
    back, grid = read_array(path)
    assert grid == g
    assert np.array_equal(back, data)


def test_csv_roundtrip(tmp_path, rng):
    g = GridSpec(2, 5)
    data = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    path = tmp_path / "f.csv"
    write_array(path, data, g)
    back, grid = read_array(path)
    assert grid == g and back.shape == (25,)
    assert np.abs(back - data).max() <= 1e-15 * np.abs(data).max()


def test_bad_extension(tmp_path):
    with pytest.raises(ValidationError):
        write_array(tmp_path / "a.npy", np.zeros(3), GridSpec(1, 3))
    with pytest.raises(ValidationError):
        read_array(tmp_path / "missing.npy")


def test_corrupt_files(tmp_path):
    bad = tmp_path / "x.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValidationError):
        read_array(bad)

    csv = tmp_path / "x.csv"
    csv.write_text("1.0,2.0\n")
    with pytest.raises(ValidationError):
        read_array(csv)


def test_payload_length_mismatch(tmp_path):
    g = GridSpec(1, 3)
    path = tmp_path / "a.bin"
    write_array(path, np.zeros(3), g)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # drop half an entry
    with pytest.raises(ValidationError):
        read_array(path)


def test_bin_bytes_are_the_documented_format(tmp_path, rng):
    g = GridSpec(1, 9, "mod")
    data = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    path = tmp_path / "a.bin"
    write_array(path, data, g)
    header = {"shape": [9, 9], "dtype": "complex128", "layout": "row-major",
              "grid": {"d": 1, "n": 9, "mode": "mod"}}
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    assert path.read_bytes() == (b"PSDO" + struct.pack("<I", len(blob)) + blob
                                 + data.astype("<c16").tobytes())
    # a transposed (non-contiguous) view is written in row-major order
    write_array(path, data.T, g)
    assert path.read_bytes().endswith(np.ascontiguousarray(data.T).astype("<c16").tobytes())


_GRID3 = {"d": 1, "n": 3, "mode": "real"}
_HEADER3 = {"shape": [3, 3], "dtype": "complex128", "layout": "row-major", "grid": _GRID3}


def test_bin_header_larger_than_file_is_rejected_before_allocating(tmp_path):
    # 10**12 entries would need 16 TB; the size check must fire first
    path = _bin_file(tmp_path / "huge.bin", {**_HEADER3, "shape": [10**6, 10**6]})
    with pytest.raises(ValidationError, match="payload"):
        read_array(path)


def test_bin_trailing_byte_is_rejected(tmp_path):
    path = tmp_path / "a.bin"
    write_array(path, np.ones((3, 3)), GridSpec(1, 3))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValidationError, match="payload"):
        read_array(path)


def test_bin_truncated_header_is_rejected(tmp_path):
    path = _bin_file(tmp_path / "a.bin", _HEADER3)
    blob = path.read_bytes()
    for cut in (6, len(blob) - 2):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValidationError):
            read_array(path)


MALFORMED_HEADERS = {
    "no_shape": {"dtype": "complex128", "layout": "row-major", "grid": _GRID3},
    "not_utf8": b'{"shape": [3, 3], "grid": {"d": 1, "n": 3}, "note": "\xff"}',
    "negative_shape": {**_HEADER3, "shape": [-3, -3]},
    "not_an_object": [3, 3],
    "float_shape": {**_HEADER3, "shape": [3.0, 3]},
    "bool_shape": {**_HEADER3, "shape": [True, 3]},
    "dtype": {**_HEADER3, "dtype": "float32"},
    "layout": {**_HEADER3, "layout": "column-major"},
    "no_grid": {k: v for k, v in _HEADER3.items() if k != "grid"},
    "even_n": {**_HEADER3, "grid": {"d": 1, "n": 4, "mode": "real"}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_bin_header_is_validation_error(tmp_path, case):
    path = _bin_file(tmp_path / "a.bin", MALFORMED_HEADERS[case], bytes(144))
    with pytest.raises(ValidationError):
        read_array(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_bin_header_cli_exits_3(tmp_path, capsys, case):
    path = _bin_file(tmp_path / "a.bin", MALFORMED_HEADERS[case], bytes(144))
    code = main(["transfer", "--d", "1", "--n", "3", "-i", f"a={path}",
                 "--out", str(tmp_path / "out.bin")])
    assert code == 3
    assert "validation error" in capsys.readouterr().err


def test_schema_validation():
    manifest = {
        "grid": {"d": 1, "n": 9, "mode": "real"},
        "inputs": {"a": "a.bin"},
        "operation": "quantize",
        "params": {"A": [0.5]},
        "seed": 0,
        "output": "out.bin",
    }
    validate(manifest, "manifest")
    with pytest.raises(ValidationError):
        validate({**manifest, "operation": "explode"}, "manifest")
    with pytest.raises(ValidationError):
        validate({k: v for k, v in manifest.items() if k != "grid"}, "manifest")
    with pytest.raises(ValidationError):
        validate({**manifest, "grid": {"d": 0, "n": 9}}, "manifest")


def test_validate_ignores_mutated_schema_copies():
    manifest = {"grid": {"d": 1, "n": 9}, "inputs": {}, "operation": "quantize", "params": {},
                "output": "out.bin"}
    validate(manifest, "manifest")
    schema = load_schema("manifest")
    schema["required"].append("bogus")
    schema["properties"]["operation"]["enum"] = ["nothing"]
    validate(manifest, "manifest")
    assert load_schema("manifest") != schema


def test_all_schemas_load():
    for name in ("manifest", "arrayfile_header", "weight", "scheme", "verify_report"):
        schema = load_schema(name)
        assert schema["type"] == "object"
    with pytest.raises(ValidationError):
        load_schema("nope")


def test_repo_schemas_match_package():
    # the schemas shipped at the repository root must equal the packaged ones
    import pathlib
    from importlib import resources

    repo = pathlib.Path(__file__).resolve().parents[1] / "schemas"
    for name in ("manifest", "arrayfile_header", "weight", "scheme", "verify_report"):
        packaged = resources.files("psdo").joinpath(f"schemas/{name}.schema.json").read_text()
        assert (repo / f"{name}.schema.json").read_text() == packaged


@pytest.mark.parametrize("ext", [".csv", ".bin"])
@pytest.mark.parametrize("shape", [(0,), (3, 0, 2), ()])
def test_zero_size_and_0d_roundtrip(tmp_path, ext, shape):
    # an empty CSV body is 0 rows, not shape (0, 1); a 0-d array keeps
    # shape () instead of being promoted to (1,)
    g = GridSpec(1, 3)
    data = np.arange(math.prod(shape)).reshape(shape) * (1 - 2j)
    path = tmp_path / f"a{ext}"
    write_array(path, data, g)
    back, grid = read_array(path)
    assert grid == g and back.shape == shape
    assert np.array_equal(back, data)


def test_csv_zero_rows_with_payload_rejected(tmp_path):
    path = tmp_path / "a.csv"
    write_array(path, np.zeros((2, 0)), GridSpec(1, 3))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("1.0,2.0\n")
    with pytest.raises(ValidationError):
        read_array(path)


@pytest.mark.parametrize("ext", [".csv", ".bin"])
@pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2), (9,), (9, 9)])
def test_written_headers_match_published_schema(tmp_path, ext, shape):
    # the header of every file write_array writes is a valid
    # arrayfile_header, zero-size shapes included
    path = tmp_path / f"a{ext}"
    write_array(path, np.ones(shape), GridSpec(1, 9, "mod"))
    if ext == ".csv":
        header = json.loads(path.read_text().splitlines()[0][1:])
    else:
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 4)
        header = json.loads(blob[8:8 + hlen])
    assert header["shape"] == list(shape)
    validate(header, "arrayfile_header")


def _csv_file(path, header, body=b"0,0\n" * 9):
    """A .csv file built by hand: '#' and the header, 're,im', then body."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path.write_bytes(b"# " + blob + b"\nre,im\n" + body)
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_names_the_file(tmp_path, case):
    for path in (_bin_file(tmp_path / "a.bin", MALFORMED_HEADERS[case], bytes(144)),
                 _csv_file(tmp_path / "a.csv", MALFORMED_HEADERS[case])):
        with pytest.raises(ValidationError, match=re.escape(str(path))):
            read_array(path)


@pytest.mark.parametrize("body", [b"0,\xff\n", b"0,x\n"], ids=["not_utf8", "not_a_number"])
def test_csv_unreadable_payload_cli_exits_3(tmp_path, capsys, body):
    path = _csv_file(tmp_path / "a.csv", {**_HEADER3, "shape": [1]}, body)
    code = main(["transfer", "--d", "1", "--n", "3", "-i", f"a={path}",
                 "--out", str(tmp_path / "out.bin")])
    assert code == 3
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()
