"""Binary weight container.

Layout: magic b"DCTM1", then a u64 record count, then per record:
u64 name length, UTF-8 name, u64 rank, rank x u64 dims, and the payload
as little-endian float32. All integers little-endian. Round-trips are
bit-exact for float32 weights.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .files import atomic_write

MAGIC = b"DCTM1"
RECORD_DTYPE = np.dtype("<f4")


def save_checkpoint(path, named_arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write the records through `atomic_write`: a save that fails or is
    killed never leaves ``path`` truncated."""
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(named_arrays)))
        for name, arr in named_arrays:
            payload = np.ascontiguousarray(arr, dtype=RECORD_DTYPE)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", payload.ndim))
            for d in payload.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(payload.tobytes())


def _read_table(fh, path: Path) -> dict[str, tuple[int, tuple[int, ...], int]]:
    """{name: (record index, shape, payload offset)} in file order, seeking
    past every payload. A malformed or truncated file raises `DataError`."""
    size = os.fstat(fh.fileno()).st_size
    if fh.read(len(MAGIC)) != MAGIC:
        raise DataError(f"{path}: bad magic, not a DCTM1 checkpoint")
    off = len(MAGIC)

    def skip(n: int, what: str) -> int:
        """Move past ``n`` bytes of ``what``; their offset."""
        nonlocal off
        if n > size - off:
            raise DataError(f"{path}: truncated in {what}: needs {n} bytes at offset "
                            f"{off}, {size - off} left")
        off += n
        return off - n

    def take(n: int, what: str) -> bytes:
        skip(n, what)
        return fh.read(n)

    def read_u64(what: str) -> int:
        return struct.unpack("<Q", take(8, what))[0]

    table = {}
    for i in range(read_u64("the record count")):
        record = f"record {i}"
        try:
            name = str(take(read_u64(f"{record} name length"), f"{record} name"), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: {record} name is not UTF-8") from None
        record = f"record {i} ('{name}')"
        rank = read_u64(f"{record} rank")
        dims = tuple(read_u64(f"{record} shape") for _ in range(rank))
        table[name] = i, dims, skip(RECORD_DTYPE.itemsize * math.prod(dims),
                                    f"{record} payload")
        fh.seek(off)
    if off != size:
        raise DataError(f"{path}: {size - off} trailing bytes after last record")
    return table


def load_checkpoint(path, params) -> None:
    """Read the checkpoint at ``path`` into ``params``, (name, Tensor) pairs
    such as ``model.named_parameters()``, matching records by name.

    A malformed file, or a missing, unexpected or mis-shaped record, raises
    `DataError` before any parameter is written. Each payload is then read
    into its parameter's array, which stays bound to ``.data``: straight
    from the file where the array is contiguous little-endian float32, else
    through a one-record scratch cast to the array's dtype. A record holding
    NaN or ±inf raises `NumericalError` once it is read, naming the first
    such value."""
    path = Path(path)
    params = list(params)
    with open(path, "rb") as fh:
        table = _read_table(fh, path)
        names = {name for name, _ in params}
        missing, extra = names - set(table), set(table) - names
        if missing or extra:
            raise DataError(f"checkpoint/model mismatch: missing {sorted(missing)}, "
                            f"unexpected {sorted(extra)}")
        for name, p in params:
            if table[name][1] != p.data.shape:
                raise DataError(f"checkpoint tensor '{name}' has shape {table[name][1]}, "
                                f"model expects {tuple(p.data.shape)}")
        for name, p in params:
            i, dims, offset = table[name]
            direct = (p.data.dtype == RECORD_DTYPE and p.data.flags.c_contiguous
                      and p.data.flags.writeable)
            record = p.data if direct else np.empty(dims, RECORD_DTYPE)
            fh.seek(offset)
            got = fh.readinto(record.reshape(-1).view(np.uint8))
            if got != record.nbytes:
                raise DataError(f"{path}: truncated in record {i} ('{name}') payload: needs "
                                f"{record.nbytes} bytes at offset {offset}, {got} left")
            finite = np.isfinite(record)
            if not finite.all():
                at = np.unravel_index(int(np.argmin(finite)), dims)
                raise NumericalError(f"checkpoint tensor '{name}' holds {record[at]} at index "
                                     f"{tuple(map(int, at))}")
            if not direct:
                p.data[...] = record
