"""Span tracing of the softlogic package from outside it.

:func:`install` replaces every public function of the traced modules, and
a few hot methods, with a wrapper that records one span per call: name,
start, end, parent span, op id and up to two counts (rows, elements,
bytes, leaves).  Every module binding of a function is replaced, so
``softlogic.network.squash`` and ``softlogic.operators.squash`` record
the same span.  Spans live in compact arrays while the run lasts and are
written out by :meth:`Tracer.save` when it ends.

A function that calls itself (``render``, ``leaf_count``) records only
its outermost call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("operators", "network", "training", "extraction",
                  "expressions", "data", "cli")

# Span names that differ from ``module.function``.
RENAMED = {
    "extraction.trace_expression": "extraction.trace",
    "extraction.leaf_labels": "extraction.labels",
    "extraction.first_gate_importance": "extraction.ablation",
    "network.serialize_model": "network.serialize",
    "cli.cmd_train": "cli.train",
    "cli.cmd_eval": "cli.eval",
}

# (module, class, method, span name); load is a classmethod.
METHODS = (
    ("network", "LogicNetwork", "forward", "network.forward"),
    ("network", "LogicNetwork", "normalize", "network.normalize"),
    ("network", "LogicNetwork", "backward", "network.backward"),
    ("network", "LogicNetwork", "load", "network.load"),
    ("network", "PairingTable", "operands", "network.operands"),
    ("network", "PairingTable", "scatter", "network.scatter"),
)


def _rows(arr) -> int:
    arr = np.asarray(arr)
    return 1 if arr.ndim < 2 else arr.shape[0]


def _forward_counts(args, kwargs, result):
    net, features = args[0], args[1]
    rows = _rows(features)
    slots = sum(table.width_out for table in net.pairing_tables)
    return rows, rows * slots


def _elements(args, kwargs, result):
    return np.size(args[0]), 0


def _count_fns(originals):
    """Per-span count callbacks; ``originals`` gives untraced helpers so
    counting records no spans of its own."""
    leaf_count = originals["expressions.leaf_count"]
    gate_depth = originals["expressions.gate_depth"]
    return {
        "network.forward": _forward_counts,
        "operators.squash": _elements,
        "operators.squash_grad": _elements,
        "training.evaluate": lambda a, k, r: (r.count, 0),
        "data.load_csv": lambda a, k, r: (r.row_count, 0),
        "network.serialize": lambda a, k, r: (len(r.encode()), 0),
        "extraction.trace": lambda a, k, r: (leaf_count(r), gate_depth(r)),
    }


class Tracer:
    """In-memory span store plus the op currently running."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.aux = array("d")
        self.op_kinds: list[str] = []
        self._stack = [-1]
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0.0)
        self.aux.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, counts=None):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1] >= 0 and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counts is not None:
                self.count[idx], self.aux[idx] = counts(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op_span(self, kind: str):
        """Root span of one timed op; every span inside carries its id."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        idx = self._open(self._name_id(f"op.{kind}"))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.shape[0])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "self": dur - child,
            "count": np.frombuffer(self.count, dtype=float).copy(),
            "aux": np.frombuffer(self.aux, dtype=float).copy(),
        }

    def save(self, path_stem) -> None:
        """Spans to ``<stem>.npz``; names and op kinds to ``<stem>.json``."""
        spans = self.arrays()
        np.savez_compressed(f"{path_stem}.npz", **spans)
        with open(f"{path_stem}.json", "w") as handle:
            json.dump({"names": self.names, "op_kinds": self.op_kinds,
                       "fields": sorted(spans)}, handle)


def install(package) -> Tracer:
    """Wrap the traced modules of an imported ``softlogic`` package."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"{package.__name__}.{name}")
               for name in TRACED_MODULES}
    prefix = package.__name__ + "."
    every_module = [module for key, module in list(sys.modules.items())
                    if key == package.__name__ or key.startswith(prefix)]
    targets = []
    for short, module in modules.items():
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                name = f"{short}.{attr}"
                targets.append((RENAMED.get(name, name), value))
    originals = {name: fn for name, fn in targets}
    counts = _count_fns(originals)
    for name, fn in targets:
        traced = tracer.wrap(name, fn, counts.get(name))
        for module in every_module:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
    for short, cls_name, method, name in METHODS:
        cls = getattr(modules[short], cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__, counts.get(name))))
        else:
            setattr(cls, method, tracer.wrap(name, raw, counts.get(name)))
    return tracer
