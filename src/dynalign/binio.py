"""Common binary envelope for datasets, checkpoints, and lifting tables.

Layout: 4-byte magic, u32 version, length-prefixed JSON metadata, then a
count of named float64 arrays stored as (name, ndim, dims..., raw LE data).
Everything little-endian; round-trips are bit-exact.
"""

import contextlib
import json
import os
import struct

import numpy as np

from .errors import FormatError

VERSION = 1


def write_envelope(path, magic, meta, arrays):
    """Write `meta` (JSON-serializable dict) and `arrays` (name -> ndarray).

    The bytes go to a temporary file beside `path`, which then replaces it
    in one step: a write that fails or is killed leaves no partial artifact,
    and an existing one stays as it was."""
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(meta_blob)))
            fh.write(meta_blob)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr, dtype=np.float64)
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<I", arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<Q", dim))
                fh.write(arr.tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class _Fields(dict):
    """A decoded metadata or array block: looking up an entry the file does
    not hold is a FormatError, so every reader rejects an incomplete file
    the way it rejects a truncated one."""

    def __init__(self, items, what):
        super().__init__(items)
        self.what = what

    def __missing__(self, key):
        raise FormatError(f"missing {self.what} {key!r}")


def checked_shape(array, shape, what):
    """`array` if its shape is `shape`, else FormatError naming `what`: an
    array that disagrees with the metadata or data it was stored for."""
    if array.shape != tuple(shape):
        raise FormatError(f"{what} of shape {array.shape}, expected {tuple(shape)}")
    return array


def stored(arrays):
    """A model's parameters from a read envelope's `arrays`, as numcore.Mlp's
    `stored` takes them: (key, shape) -> that array, its shape checked."""
    return lambda key, shape: checked_shape(arrays[key], shape, f"array {key!r}")


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated file while reading {what}", offset=self.pos)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]


def read_envelope(path, magic):
    """Read an envelope written by write_envelope; returns (meta, arrays),
    mappings in which a missing entry raises FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    rd = _Reader(data)
    got = rd.take(4, "magic header")
    if got != magic:
        raise FormatError(
            f"bad magic header {got!r}, expected {magic!r}", offset=0
        )
    version = rd.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)
    meta_len = rd.u64("metadata length")
    try:
        meta = json.loads(rd.take(meta_len, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt metadata block: {exc}", offset=16) from exc
    if not isinstance(meta, dict):
        raise FormatError("metadata block is not a JSON object", offset=16)
    arrays = {}
    n_arrays = rd.u32("array count")
    for _ in range(n_arrays):
        name_len = rd.u32("array name length")
        start = rd.pos
        try:
            name = rd.take(name_len, "array name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"corrupt array name: {exc}", offset=start) from exc
        ndim = rd.u32("array rank")
        if ndim > 8:
            raise FormatError(f"implausible array rank {ndim}", offset=rd.pos - 4)
        shape = tuple(rd.u64("array dim") for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        raw = rd.take(8 * count, f"array {name!r} data")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if rd.pos != len(data):
        raise FormatError("trailing bytes after last array", offset=rd.pos)
    return _Fields(meta, "metadata field"), _Fields(arrays, "array")
