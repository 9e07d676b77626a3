"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: while a recorder is
installed, every public function the benchmark traces is replaced, in
every ``sosid`` module namespace that binds it, by a wrapper that opens a
span around the call. A name imported with ``from .gaussian import
factorize`` is a separate binding in the importing module, so each binding
is patched, or calls made through it would escape the count.

A span is (name, start, end, parent, request id); spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _frames(result):
    return len(result)


def _cells(result):
    return result.size


def _loading(result):
    return 1 if result.loading > 0.0 else 0


# (module, attribute, method-of class or None, per-call counter, counter name).
# Counters measure work where it happens: frames produced, CSV rows read,
# score cells computed, frames selected, diagonal-loading events.
TARGETS = (
    ("frontend", "load_wav", None, None, None),
    ("frontend", "extract_features", None, _frames, "frames"),
    ("frontend", "load_features_csv", None, _frames, "rows"),
    ("frontend", "save_features_csv", None, None, None),
    ("gaussian", "from_frames", "GaussianModel", None, None),
    ("gaussian", "factorize", None, _loading, "loading_events"),
    ("gaussian", "save_model_store", None, None, None),
    ("gaussian", "load_model_store", None, None, None),
    ("measures", "evaluate", None, None, None),
    ("identify", "register", "SpeakerRegistry", None, None),
    ("identify", "identify", None, None, None),
    ("identify", "score_matrix", None, _cells, "cells"),
    ("phonetic", "parse_alignment", None, None, None),
    ("phonetic", "expand_kernels", None, None, None),
    ("phonetic", "select_frames", None, _frames, "selected_frames"),
    ("phonetic", "assemble_tests", None, None, None),
    ("experiment", "load_corpus", None, None, None),
    ("experiment", "run_duration_experiment", None, None, None),
    ("experiment", "run_phonetic_experiment", None, None, None),
    ("experiment", "emit_report", None, None, None),
    ("synthetic", "make_corpus", None, None, None),
    ("synthetic", "write_corpus", None, None, None),
    ("cli", "main", None, None, None),
)


class Recorder:
    """In-memory span store plus the patching that feeds it.

    Span fields live in parallel lists of plain numbers and strings, so the
    cyclic garbage collector has no per-span objects to walk and recording
    cost stays flat as spans accumulate.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # -1 for a root span
        self.requests: list[str] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._request = ""
        self._origin = time.perf_counter()

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    @contextmanager
    def request(self, request_id: str):
        """Root span of one request; every span opened inside shares its id.

        Yields the root's index; read its duration after the block.
        """
        self._request = request_id
        index = self._open("request")
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, name, fn, counter, counter_name):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts[self._request][counter_name] += counter(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        undo = []
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "sosid" or name.startswith("sosid."))
        ]
        try:
            for module_name, attr, owner, counter, counter_name in TARGETS:
                module = sys.modules[f"sosid.{module_name}"]
                span_name = f"{module_name}.{attr}"
                if owner is not None:
                    cls = getattr(module, owner)
                    original = cls.__dict__[attr]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(
                            self._wrap(span_name, original.__func__, counter, counter_name)
                        )
                    else:
                        wrapped = self._wrap(span_name, original, counter, counter_name)
                    setattr(cls, attr, wrapped)
                    undo.append((cls, attr, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(span_name, original, counter, counter_name)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapped)
                            undo.append((namespace, key, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover.

        The program is single-threaded, so children of one span never
        overlap and their durations add up.
        """
        child_time = [0.0] * len(self)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.duration(index)
        return [self.duration(i) - child_time[i] for i in range(len(self))]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self)):
                record = {
                    "name": self.names[i],
                    "start": self.starts[i] - self._origin,
                    "end": self.ends[i] - self._origin,
                    "parent": self.parents[i] if self.parents[i] >= 0 else None,
                    "request": self.requests[i],
                }
                out.write(json.dumps(record) + "\n")
