"""Binary weight container.

Layout: magic b"DCTM1", then a u64 record count, then per record:
u64 name length, UTF-8 name, u64 rank, rank x u64 dims, and the payload
as little-endian float32. All integers little-endian. Round-trips are
bit-exact for float32 weights.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .files import atomic_write

MAGIC = b"DCTM1"


def save_checkpoint(path, named_arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write the records through `atomic_write`: a save that fails or is
    killed never leaves ``path`` truncated."""
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(named_arrays)))
        for name, arr in named_arrays:
            payload = np.ascontiguousarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", payload.ndim))
            for d in payload.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(payload.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Records by name, as read-only little-endian float32 views of the
    file's bytes: nothing is copied here. ``restore_into`` makes the one
    copy; copy an array before writing to it."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic, not a DCTM1 checkpoint")
    off = len(MAGIC)
    view = memoryview(blob)

    def take(n: int, what: str) -> memoryview:
        nonlocal off
        if n > len(blob) - off:
            raise DataError(f"{path}: truncated in {what}: needs {n} bytes at offset "
                            f"{off}, {len(blob) - off} left")
        off += n
        return view[off - n:off]

    def read_u64(what: str) -> int:
        return struct.unpack("<Q", take(8, what))[0]

    count = read_u64("the record count")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        record = f"record {i}"
        try:
            name = str(take(read_u64(f"{record} name length"), f"{record} name"), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: {record} name is not UTF-8") from None
        record = f"record {i} ('{name}')"
        rank = read_u64(f"{record} rank")
        dims = tuple(read_u64(f"{record} shape") for _ in range(rank))
        n = math.prod(dims)
        payload = take(4 * n, f"{record} payload")
        out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes after last record")
    return out


def restore_into(params: list[tuple[str, "object"]], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into model parameters, matching by name and shape.
    Each parameter gets a fresh writeable array in its own dtype."""
    param_names = {name for name, _ in params}
    missing = param_names - set(loaded)
    extra = set(loaded) - param_names
    if missing or extra:
        raise DataError(
            f"checkpoint/model mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, p in params:
        arr = loaded[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise DataError(
                f"checkpoint tensor '{name}' has shape {tuple(arr.shape)}, "
                f"model expects {tuple(p.data.shape)}")
        p.data = arr.astype(p.data.dtype)
