"""Serialization helpers (BSEG matrices, CSV, PGM, JSON, text), `write_in_place` and its `check_output_dir`.

The BSEG format is a minimal binary matrix container: the magic bytes
``BSEG``, two little-endian u32 giving rows and cols, then row-major
little-endian float64 data.
"""

import contextlib
import json
import os
import struct

import numpy as np

BSEG_MAGIC = b"BSEG"


def write_in_place(*writes):
    """write(tmp, value) to a temporary name beside each path, then move every
    temporary onto its path in the order of the (path, write, value) writes.

    A path holds either its old content or all of the new. If a write fails,
    every temporary is removed and no path is replaced, so files that must
    agree are replaced together. The pipeline and the CLI write every output
    file through here, and nothing else makes an output directory.
    """
    try:
        for path, write, value in writes:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            write(path + ".tmp", value)
        for path, _, _ in writes:
            os.replace(path + ".tmp", path)
    except BaseException:
        for path, _, _ in writes:
            with contextlib.suppress(OSError):
                os.remove(path + ".tmp")
        raise


def check_output_dir(directory):
    """Fail unless `write_in_place` could write into `directory`: it must be a
    directory, or its first existing ancestor a writable one. Makes nothing."""
    target = path = os.path.abspath(directory)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"output directory {directory!r}: {path!r} is not a directory")
    if path != target and not os.access(path, os.W_OK | os.X_OK):
        raise ValueError(f"output directory {directory!r}: cannot make it in {path!r}, which is not writable")


def write_bseg(path, matrix):
    """Write a 2-D array to `path` in the BSEG binary format."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"BSEG stores 2-D matrices, got shape {m.shape}")
    with open(path, "wb") as fh:
        fh.write(BSEG_MAGIC)
        fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
        fh.write(m.astype("<f8", copy=False))  # through its buffer: no copy on a little-endian host


def read_bseg(path):
    """Read a BSEG file back into a float64 matrix."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BSEG_MAGIC:
            raise ValueError(f"{path}: not a BSEG file (magic {magic!r})")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated BSEG header")
        rows, cols = struct.unpack("<II", header)
        # Checked against the bytes left before any read, so a corrupt header cannot ask for gigabytes.
        size = rows * cols * 8
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated BSEG payload")
        data = fh.read(size)
        if len(data) != size:
            raise ValueError(f"{path}: truncated BSEG payload")
    return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()


def write_csv_matrix(path, matrix):
    """Write a matrix as plain CSV, one row per line."""
    np.savetxt(path, np.asarray(matrix, dtype=np.float64), fmt="%.17g", delimiter=",")


def write_pgm(path, matrix):
    """Write a matrix of values in [-1, 1] as an 8-bit binary PGM (P5).

    Value v maps to round(255 * (v + 1) / 2), clipped to [0, 255].
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"PGM export needs a 2-D matrix, got shape {m.shape}")
    pixels = np.clip(np.rint(255.0 * (m + 1.0) / 2.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path):
    """Read a binary P5 PGM written by `write_pgm` (maxval 255)."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or len(parts) != 4:
        raise ValueError(f"{path}: not a binary PGM")
    width, height = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(parts[3]) < width * height:
        raise ValueError(f"{path}: truncated PGM payload")
    pixels = np.frombuffer(parts[3][: width * height], dtype=np.uint8)
    return pixels.reshape(height, width).copy()


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r} to JSON")


def dumps_json(obj):
    """Serialize to indented JSON with shortest round-trip float reprs.

    `repr` floats parse back to the same values, so result files stay
    byte-identical across runs of the same pipeline configuration.
    NaN and infinities raise ValueError rather than writing invalid JSON.
    """
    return json.dumps(obj, indent=2, allow_nan=False, default=_json_default) + "\n"


def write_json(path, obj):
    """Write `obj` as JSON; a value that cannot be serialized writes no file."""
    write_text(path, dumps_json(obj))


def write_text(path, text):
    """Write a str to `path`."""
    with open(path, "w") as fh:
        fh.write(text)
