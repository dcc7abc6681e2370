"""Array file formats: self-describing complex arrays as CSV or raw binary.

Both formats carry the same JSON header {shape, dtype, layout, grid}.
CSV (.csv): first line is the header behind a '#', then a 're,im' column
header, then one row per entry printed with 17 significant digits (exact
for float64 roundtrips).  Binary (.bin): magic 'PSDO', a little-endian
uint32 header length, the header JSON, then raw little-endian complex128
payload, row-major.  Binary roundtrips are bit-exact.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import PsdoError, ValidationError
from .grid import GridSpec
from .validation import validate

__all__ = ["write_array", "read_array"]

_MAGIC = b"PSDO"


def _header(data: np.ndarray, grid: GridSpec) -> dict:
    return {
        "shape": list(data.shape),
        "dtype": "complex128",
        "layout": "row-major",
        "grid": {"d": grid.d, "n": grid.n, "mode": grid.mode},
    }


def _parse_header(text, path) -> tuple:
    """(grid, shape) from a header's JSON text (str, or UTF-8 bytes),
    checked against the published ``arrayfile_header`` schema."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        header = json.loads(text)
        validate(header, "arrayfile_header")
        g = header["grid"]
        grid = GridSpec(g["d"], g["n"], g.get("mode", "real"))
    except (ValueError, PsdoError) as exc:  # UnicodeDecodeError, JSONDecodeError, schema, grid
        raise ValidationError(f"{path}: malformed array header: {exc}") from exc
    return grid, tuple(header["shape"])


def write_array(path, data, grid: GridSpec) -> None:
    """Write a complex array to .csv or .bin, selected by extension."""
    path = str(path)
    data = np.asarray(data, dtype="<c16", order="C")  # keeps a 0-d shape, unlike ascontiguousarray
    header = _header(data, grid)
    if path.endswith(".csv"):
        flat = data.ravel()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(header, separators=(",", ":")) + "\n")
            fh.write("re,im\n")
            for z in flat:
                fh.write(f"{z.real:.17g},{z.imag:.17g}\n")
    elif path.endswith(".bin"):
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<I", len(blob)) + blob)
            fh.write(data)  # the array's own buffer: no copy
    else:
        raise ValidationError(f"unsupported array extension (want .csv or .bin): {path}")


def _read_bin(path):
    """(data, grid) of a .bin file.  The header's payload size is checked
    against the file size before anything is allocated, and the payload is
    read straight into the returned array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        if size < 8:
            raise ValidationError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<I", fh.read(4))
        if 8 + hlen > size:
            raise ValidationError(f"{path}: header length {hlen} runs past the end of the file")
        grid, shape = _parse_header(fh.read(hlen), path)
        nbytes = 16 * math.prod(shape)
        if size - 8 - hlen != nbytes:
            raise ValidationError(f"{path}: payload has {size - 8 - hlen} bytes, header says {nbytes}")
        data = np.empty(nbytes // 16, dtype="<c16")
        if fh.readinto(data) != nbytes or fh.read(1):
            raise ValidationError(f"{path}: file changed size while it was read")
    return data.reshape(shape), grid


def read_array(path):
    """Read an array file; returns (data, grid)."""
    path = str(path)
    if path.endswith(".bin"):
        return _read_bin(path)
    if not path.endswith(".csv"):
        raise ValidationError(f"unsupported array extension (want .csv or .bin): {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first.startswith("#"):
                raise ValidationError(f"{path}: missing header line")
            grid, shape = _parse_header(first[1:], path)
            second = fh.readline().strip()
            if second != "re,im":
                raise ValidationError(f"{path}: expected 're,im' column line, got {second!r}")
            count = math.prod(shape)
            if count:
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            elif fh.read().strip():  # np.loadtxt would read an empty body as shape (0, 1)
                raise ValidationError(f"{path}: header says 0 rows, payload is not empty")
            else:
                rows = np.empty((0, 2))
    except ValueError as exc:  # not UTF-8, or an entry that is not a number
        raise ValidationError(f"{path}: unreadable array file: {exc}") from exc
    if rows.shape != (count, 2):
        raise ValidationError(f"{path}: payload has shape {rows.shape}, header says {count} rows")
    data = (rows[:, 0] + 1j * rows[:, 1]).reshape(shape)
    return data, grid
