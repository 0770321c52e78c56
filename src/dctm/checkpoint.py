"""Binary weight container: a parameter arena's bytes behind its layout.

Layout (DCTM2): magic b"DCTM2", a little-endian u64 header length, a
UTF-8 JSON header ``{"dtype": "<f4" | "<f8", "records": [[name, [dims...]],
...]}`` naming every parameter and its shape in arena
(``named_parameters()``) order, then the arena's flat buffer in that
dtype. This is the safetensors layout (https://github.com/huggingface/safetensors)
for one buffer. A round trip is bit-exact at either precision.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .files import atomic_write

MAGIC = b"DCTM2"
DTYPES = ("<f4", "<f8")


def _records(arena) -> list:
    return [[name, list(p.data.shape)] for name, p in arena.params]


def save_checkpoint(path, arena, flat: np.ndarray) -> None:
    """Write ``flat``, a buffer in ``arena``'s layout (``arena.flat`` or a
    copy of it), behind ``arena``'s header, through `atomic_write`: a save
    that fails or is killed never leaves ``path`` truncated."""
    if flat.dtype != arena.flat.dtype or flat.shape != arena.flat.shape:
        raise ValueError(f"a {flat.dtype} buffer of shape {flat.shape} is not in the "
                         f"arena's layout ({arena.flat.dtype}, {arena.flat.shape})")
    header = json.dumps({"dtype": flat.dtype.str, "records": _records(arena)}).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(header)) + header)
        fh.write(memoryview(flat))


def _layout_error(got: list, want: list) -> str:
    """How the file's records differ from the arena's."""
    got_names, want_names = [r[0] for r in got], [r[0] for r in want]
    missing, extra = set(want_names) - set(got_names), set(got_names) - set(want_names)
    if missing or extra:
        return (f"checkpoint/model mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}")
    for i, ((name, dims), (want_name, want_dims)) in enumerate(zip(got, want)):
        if name != want_name:
            return f"record {i} is '{name}' where the model has '{want_name}': out of order"
        if dims != want_dims:
            return (f"checkpoint tensor '{name}' has shape {tuple(dims)}, "
                    f"model expects {tuple(want_dims)}")
    return f"{len(got)} records where the model has {len(want)}"


def _is_record(r) -> bool:
    return (isinstance(r, list) and len(r) == 2 and isinstance(r[0], str)
            and isinstance(r[1], list) and all(type(d) is int and d >= 0 for d in r[1]))


def load_checkpoint(path, arena) -> None:
    """Read the checkpoint at ``path`` into ``arena``, a `layers.Arena` such
    as ``model.arena``.

    A bad magic (a DCTM1 file is named as such), a truncated or malformed
    header, an unsupported dtype, records that differ from the arena's in
    name, order or shape, a truncated payload and trailing bytes raise
    `DataError` before anything is written. The payload is then read with
    one `readinto` straight into ``arena.flat``; only a file of another
    dtype than the arena's goes through one scratch of its dtype and one
    cast. A NaN or ±inf then raises `NumericalError` naming its parameter
    and index."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            what = ("a DCTM1 file, a format this version no longer reads"
                    if magic == b"DCTM1" else "not a DCTM2 checkpoint")
            raise DataError(f"{path}: bad magic, {what}")

        def need(n: int, what: str) -> None:
            left = size - fh.tell()
            if n > left:
                raise DataError(f"{path}: truncated in {what}: needs {n} bytes at offset "
                                f"{fh.tell()}, {left} left")

        need(8, "the header length")
        (n,) = struct.unpack("<Q", fh.read(8))
        need(n, "the header")
        try:
            header = json.loads(str(fh.read(n), "utf-8"))
        except ValueError as e:
            raise DataError(f"{path}: malformed header: {e}") from None
        if not (isinstance(header, dict) and header.keys() == {"dtype", "records"}
                and isinstance(header["records"], list)
                and all(map(_is_record, header["records"]))):
            raise DataError(f"{path}: malformed header: want {{'dtype': ..., 'records': "
                            f"[[name, [dims...]], ...]}}")
        if header["dtype"] not in DTYPES:
            raise DataError(f"{path}: unsupported dtype {header['dtype']!r}, "
                            f"not one of {', '.join(DTYPES)}")
        want = _records(arena)
        if header["records"] != want:
            raise DataError(f"{path}: {_layout_error(header['records'], want)}")
        dtype = np.dtype(header["dtype"])
        nbytes, left = arena.flat.size * dtype.itemsize, size - fh.tell()
        if left < nbytes:
            where, _ = arena.locate(left // dtype.itemsize)
            need(nbytes, f"the payload (record '{where}')")
        if left > nbytes:
            raise DataError(f"{path}: {left - nbytes} trailing bytes after the payload")
        into = arena.flat if arena.flat.dtype == dtype else np.empty(arena.flat.size, dtype)
        fh.readinto(into.view(np.uint8))
    if into is not arena.flat:
        arena.flat[...] = into
    # NaN and +-inf show in the extremes, found without a mask the arena's size
    if not (np.isfinite(arena.flat.min(initial=0)) and np.isfinite(arena.flat.max(initial=0))):
        k = int(np.argmin(np.isfinite(arena.flat)))
        name, at = arena.locate(k)
        raise NumericalError(f"checkpoint tensor '{name}' holds {arena.flat[k]} at index {at}")
