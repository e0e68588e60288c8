"""In-memory span and counter recorder for the traced benchmark run.

A span is (name, start, end, parent). Spans come from wrappers that the
benchmark installs around the package's public functions; the package itself
is not modified. A module that did ``from .tensorops import nms`` holds its
own binding of ``nms``, so a wrapper replaces every module-level binding of
the function object in every ``retentive`` module, and ``uninstall`` puts the
originals back.

Self time of a span is its duration minus the durations of its direct
children. The benchmark runs single-threaded while tracing, so one stack of
open spans gives every span its parent.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Recorder:
    """Spans as parallel arrays plus named float counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(counters, args, kwargs, out)``
        adds work counters after each successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(self.counters, args, kwargs, out)
            return out

        return traced

    def install(self, targets) -> None:
        """Wrap each (module, function name, span name, counter) target at every
        module-level binding of that function inside the ``retentive`` package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "retentive" or n.startswith("retentive."))]
        for module, fname, span_name, count in targets:
            orig = getattr(module, fname)
            wrapped = self.wrap(span_name, orig, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self)
        out: dict[str, dict[str, float]] = {}
        if n == 0:
            return out
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                         "self_s": float(self_s[i])}
        return out

    def total_under(self, name: str, parents: tuple[str, ...]) -> float:
        """Inclusive seconds of ``name`` spans whose direct parent is one of ``parents``."""
        ids = [self._name_ids[p] for p in parents if p in self._name_ids]
        want = self._name_ids.get(name)
        if want is None or not ids:
            return 0.0
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        mask = (nid == want) & (parent >= 0)
        mask[mask] = np.isin(nid[parent[mask]], ids)
        return float(dur[mask].sum())

    def write_tsv(self, path) -> None:
        """Write every span as ``index name start end parent``, times relative to the first."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")

