"""Spans around the public calls of each trajindex layer, taken from outside.

The program is not edited: `Tracer.installed` replaces public methods and
functions with timing wrappers for the duration of a `with` block and puts
the originals back afterwards.  A span is (name, start, end, parent, query
id, result size), kept in flat arrays and written out once at the end.
Generator methods get one span for the call and one per resumption, so
the work done while a caller iterates is charged to the generator's layer.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np


def public_methods(cls) -> list[str]:
    """Names of the public functions, classmethods and staticmethods that
    `cls` defines itself; properties and dunders are left alone."""
    out = []
    for name, raw in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
            out.append(name)
    return out


def _result_size(result) -> int:
    if isinstance(result, list):
        return len(result)
    return 0 if result is None else 1


class Tracer:
    """Span recorder for one process and one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.size = array("i")
        self.start = array("q")
        self.end = array("q")
        self.query_id = -1
        self._stack = [-1]

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.size.append(-1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start[i] = time.perf_counter_ns()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        nid = self.name_id(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.size[i] = _result_size(result)
            return result

        if not inspect.isgeneratorfunction(fn):
            return wrapper
        resume = self.name_id(name + ":next", layer)

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            return self._resumptions(wrapper(*args, **kwargs), resume)

        return generator_wrapper

    def _resumptions(self, gen, nid: int):
        while True:
            i = self._open(nid)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                self._close(i)
            yield value

    @contextmanager
    def installed(self, classes=(), functions=()):
        """Wrap every public method of `classes` and each (module, name) in
        `functions` while the block runs."""
        saved = []
        try:
            for cls in classes:
                layer = cls.__module__.rsplit(".", 1)[-1]
                for attr in public_methods(cls):
                    raw = vars(cls)[attr]
                    saved.append((cls, attr, raw))
                    label = f"{cls.__name__}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        setattr(cls, attr,
                                type(raw)(self.wrap(raw.__func__, label, layer)))
                    else:
                        setattr(cls, attr, self.wrap(raw, label, layer))
            for module, attr in functions:
                raw = getattr(module, attr)
                saved.append((module, attr, raw))
                layer = module.__name__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(raw, attr, layer))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self) -> "Spans":
        return Spans(self.names, self.layers,
                     np.array(self.name, dtype=np.int32),
                     np.array(self.parent, dtype=np.int32),
                     np.array(self.query, dtype=np.int32),
                     np.array(self.size, dtype=np.int32),
                     np.array(self.start, dtype=np.int64),
                     np.array(self.end, dtype=np.int64))


class Spans:
    """Read-only column view of recorded spans, with the derived timings."""

    def __init__(self, names, layers, name, parent, query, size, start, end):
        self.names = list(names)
        self.layers = list(layers)
        self.name = np.asarray(name)
        self.parent = np.asarray(parent)
        self.query = np.asarray(query)
        self.size = np.asarray(size)
        self.start = np.asarray(start)
        self.end = np.asarray(end)
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names],
                        dtype=np.int32)

    def named(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names))

    def in_layer(self, layer: str) -> np.ndarray:
        wanted = [i for i, lay in enumerate(self.layers) if lay == layer]
        return np.isin(self.name, np.array(wanted, dtype=np.int32))

    def under(self, *names: str) -> np.ndarray:
        """True for spans with an ancestor of one of the given names."""
        targets = self.ids(*names)
        found = np.zeros(len(self.name), dtype=bool)
        cur = self.parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return found
            found[live] |= np.isin(self.name[cur[live]], targets)
            cur[live] = self.parent[cur[live]]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 name=self.name, parent=self.parent, query=self.query,
                 size=self.size, start=self.start, end=self.end)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span are disjoint and
    lie inside it; the covered time is the sum of their durations.
    """
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered.astype(np.int64)
