"""Spans recorded from outside the package.

A span is opened around a call into a layer and closed when it returns:
name, start, end and the span that was open when it began (its parent).
The benchmark opens spans around its own calls into the package's entry
points; ``installed`` additionally replaces public functions and module
``__call__``s with wrappers that open a span per call, and puts the
originals back on exit. Spans stay in memory and are summarised after
the pass. Nothing here edits the package's source.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "counts")

    def __init__(self, name, start, parent, counts):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None
        self.counts = counts      # (tensors, tensor bytes) at open; close appends both again

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list. ``tensors``/``tensor_bytes`` count Tensor
    constructions while the traced wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.tensors = 0
        self.tensor_bytes = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), parent, (self.tensors, self.tensor_bytes))
        self._stack.append(len(self.spans))
        self.spans.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        s.counts = s.counts + (self.tensors, self.tensor_bytes)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def wrap(fn, name: str, rec: Recorder, info=None):
    """``fn`` with every call recorded as span ``name``; ``info(args,
    kwargs, result)`` is stored on the span after it closes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        s = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(s)
        if info is not None:
            s.info = info(args, kwargs, out)
        return out
    return wrapper


def counting_init(init, rec: Recorder):
    """Tensor.__init__ that also counts constructions and their bytes."""
    @functools.wraps(init)
    def __init__(self, data, *args, **kwargs):
        init(self, data, *args, **kwargs)
        rec.tensors += 1
        rec.tensor_bytes += self.data.nbytes
    return __init__


@contextmanager
def installed(patches):
    """Set each ``(owner, attr, replacement)`` for the duration of the
    block, then restore the original attribute even if the block raised."""
    originals = []
    try:
        for owner, attr, replacement in patches:
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]
