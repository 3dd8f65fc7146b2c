"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id). Spans are recorded from the
benchmark's side of each module boundary: ``patched`` replaces, for the
duration of a ``with`` block, the names that the dsmseq modules import from
each other (and the public functions the benchmark calls) with wrappers
that time every call, then restores the originals. Nothing in the package
itself changes.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Spans kept in flat arrays; a name may carry a tag such as ``@n400``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, name: str, fn, tag=None):
        """Wrap fn so that each call records a span named name[@tag(*args)]."""
        plain = self._intern(name)
        intern = self._intern
        clock = time.perf_counter
        stack = self._stack
        spans_name, spans_start, spans_end = self.name, self.start, self.end
        spans_parent, spans_run = self.parent, self.run

        def traced(*args, **kwargs):
            if tag is None:
                name_id = plain
            else:
                name_id = intern(f"{name}@{tag(*args, **kwargs)}")
            index = len(spans_start)
            spans_name.append(name_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_run.append(self.run_id)
            spans_end.append(0.0)
            stack.append(index)
            spans_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans_end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        """Write every span to an .npz file plus the name table as JSON."""
        np.savez(path, **self.arrays())
        path.with_suffix(".names.json").write_text(json.dumps(self.names), encoding="utf-8")


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Calls are sequential in one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


@contextlib.contextmanager
def patched(replacements):
    """Temporarily replace attributes: each item is (owner, attribute, wrap).

    owner is a module, a class or a dict; the attribute becomes
    wrap(original), and the original is restored on exit, also when the
    block raises. Later items wrap the result of earlier ones.
    """
    saved = []
    try:
        for owner, attribute, wrap in replacements:
            if isinstance(owner, dict):
                original = owner[attribute]
                owner[attribute] = wrap(original)
            else:
                original = owner.__dict__[attribute]
                setattr(owner, attribute, wrap(original))
            saved.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
