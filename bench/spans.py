"""Span tracer for the benchmark's traced run.

The tracer measures the cboost layers only from outside: it wraps public
functions and methods for the duration of a traced pass and restores the
originals afterwards.  A module-level function is replaced in every loaded
module that binds it, so ``from .dist import log_linear_mix`` inside
``cboost.boosting`` is traced as well as ``cboost.dist.log_linear_mix``.

Each call becomes a span: name, start, end, parent span and op id.  Spans
are kept in flat typed arrays (about 32 bytes each) so a sweep pass with
more than a million calls fits in memory, and are written out at the end.
A span's self time is its duration minus the part of its interval that its
child spans cover.  Only calls on the thread that made the tracer are
recorded, so an in-process server's calls never mix into the caller's
layers.
"""

from __future__ import annotations

import array
import functools
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner.attr`` becomes span ``name``.

    ``owner`` is a module (the function is then patched in every module
    binding it) or a class (the method is patched on that class only).
    ``before(args)`` runs before the call and its value is handed to
    ``after(tracer, span_index, args, result, before_value)``.
    """

    owner: object
    attr: str
    name: str
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.counters: Counter = Counter()
        self.op_id = -1
        self.enabled = True
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key, n: int = 1) -> None:
        self.counters[key] += n

    def wrap(self, fn: Callable, target: Target) -> Callable:
        nid = self.name_id(target.name)
        before, after = target.before, target.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # calls on other threads (the in-process server) are not the
            # caller's layers; the server's model time is timed on its own
            if not self.enabled or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            pre = before(args) if before is not None else None
            stack = self._stack
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.start.append(perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, idx, args, result, pre)
            return result

        return traced

    @contextmanager
    def patched(self, targets: list[Target]):
        """Install wrappers for ``targets``; restore every binding on exit."""
        saved: list[tuple[object, str, object]] = []
        module_wrappers: dict[int, tuple[object, Callable]] = {}
        try:
            for t in targets:
                if isinstance(t.owner, type):
                    original = t.owner.__dict__[t.attr]
                    saved.append((t.owner, t.attr, original))
                    setattr(t.owner, t.attr, self.wrap(original, t))
                else:
                    original = getattr(t.owner, t.attr)
                    module_wrappers[id(original)] = (original, self.wrap(original, t))
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    hit = module_wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        saved.append((module, key, value))
                        setattr(module, key, hit[1])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls made inside this block (correctness checks) record nothing."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent's interval."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    children = np.flatnonzero(parent >= 0)
    if children.size == 0:
        return duration.copy()
    order = children[np.lexsort((start[children], parent[children]))]
    par = parent[order]
    lo = np.maximum(start[order], start[par])
    hi = np.maximum(np.minimum(end[order], end[par]), lo)
    covered = np.bincount(par, weights=hi - lo, minlength=len(start))
    # Children recorded on one thread never overlap.  Where two do (hand-built
    # spans), redo that parent's coverage as an exact interval union.
    same_parent = par[1:] == par[:-1]
    overlapping = np.unique(par[1:][same_parent & (lo[1:] < hi[:-1])])
    for p in overlapping:
        sel = par == p
        union = 0.0
        reach = -np.inf
        for a, b in zip(lo[sel], hi[sel]):
            a = max(a, reach)
            if b > a:
                union += b - a
                reach = b
        covered[p] = union
    return duration - covered
