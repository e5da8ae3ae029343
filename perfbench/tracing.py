"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, run id, attrs).  The benchmark opens
the root span of each operation itself; `installed` replaces public qbaker
functions in the module namespaces that call them with wrappers that record
one span per call, and puts the originals back on exit.  Nothing here is
active in an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# (namespace, attribute): the namespace is the module whose code looks the
# name up, so each entry catches the calls made from that module only.
TRACE_POINTS = (
    ("qbaker.bakermap", "apply_partial_transform"),
    ("qbaker.bakermap", "apply_baker_fast"),
    ("qbaker.bakermap", "label_shift"),
    ("qbaker.cli", "apply_baker_fast"),
    ("qbaker.cli", "dot_state_transform"),
    ("qbaker.cli", "label_shift"),
    ("qbaker.cli", "max_contiguous_cut_entropy"),
    ("qbaker.cli", "position_support"),
    ("qbaker.analysis", "schmidt_entropy"),
    ("qbaker.analysis", "apply_baker_fast"),
    ("qbaker.analysis", "label_shift"),
    ("qbaker.verify", "apply_baker_fast"),
    ("qbaker.verify", "baker_composed"),
    ("qbaker.verify", "baker_from_basis_map"),
    ("qbaker.verify", "emit_circuit"),
    ("qbaker.verify", "circuit_to_matrix"),
    ("qbaker.verify", "check_strict_localization"),
    ("qbaker.verify", "decode"),
    ("qbaker.verify", "shift"),
    ("qbaker.verify", "geometric_baker"),
    ("qbaker.verify", "label_shift"),
)

# Spans of these functions also record the length of their result: an exact
# count made at the layer boundary.
_COUNTED = {"emit_circuit"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `run_id` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, fn):
        """Wrap `fn` so each call records a span named <module>.<function>,
        with the qubit count of its first argument and its scalar arguments."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counted = fn.__name__ in _COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {"args": [a for a in args[1:] if isinstance(a, (int, str))]}
            if args and hasattr(args[0], "N"):
                attrs["N"] = args[0].N
            idx = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counted:
                attrs["count"] = len(result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Children of one span never overlap: the run is single-threaded."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every trace point for a recording wrapper; restore on exit."""
    saved = []
    try:
        for modname, attr in TRACE_POINTS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
