"""Atomic writes. Run-directory files, reports, checkpoints, score CSVs
and ablation results are all written through `atomic_write`; only the
synthetic dataset writers write in place."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Yields a file open on ``<path>.tmp``. When the block ends without an
    error the file is renamed over ``path``, so a write that fails or is
    killed never leaves ``path`` truncated; on an error the temporary file
    is removed. Nothing is fsynced: the rename guards against a failed or
    killed process, not against power loss."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
