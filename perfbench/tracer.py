"""Span tracer that wraps horocomb's public functions from outside the package.

`Tracer.install` replaces every public function and public method of the
given modules with a wrapper that records one span per call: name, start,
end, parent span and op id.  A name bound elsewhere by ``from .x import f``
is rebound in every module that holds it, so calls through any alias are
traced.  Spans stay in compact in-memory arrays until `aggregate` turns them
into per-name call counts, self times (span minus its child spans) and
inclusive times, and `save` writes them out.

A few wrapped names get a hook that records what a count needs (arguments or
result sizes).  Hooks run after the span closes, so their small cost lands in
the caller's self time; it is part of the tracing overhead the benchmark
reports.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# Operator methods are public API even though their names start with "_".
PUBLIC_DUNDERS = frozenset({"__mul__", "__matmul__", "__add__", "__sub__", "__rmul__"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.depth: list[int] = []  # open spans per name id
        self._stack: list[int] = [-1]
        self.name_id = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self.op_labels: dict[int, str] = {}
        self.hooks: dict[str, object] = {}  # span name -> hook(args, result)
        self._arrays: dict | None = None

    # -- recording ---------------------------------------------------------

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return nid

    def begin_op(self, op: int, label: str) -> None:
        self.op = op
        self.op_labels[op] = label

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        nid = self.name_index(name)
        hook = self.hooks.get(name)
        stack, depth = self._stack, self.depth
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        outer, start, end = self.outer, self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            outer.append(depth[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                start[idx] = t0
                end[idx] = t1
                depth[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, modules: dict) -> None:
        """Wrap the public functions and methods of ``modules`` ({short name:
        module}) and rebind every alias of them in those modules."""
        wrapped: dict = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _install_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in PUBLIC_DUNDERS:
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays; call once recording has ended."""
        if self._arrays is None:
            self._arrays = {
                "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
                "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            }
        return self._arrays

    def aggregate(self) -> dict:
        """Per span name: calls, self_s, total_s (outermost spans only)."""
        a = self.arrays()
        n, k = len(a["start"]), len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=self_t, minlength=k)
        outer = a["outer"]
        total_s = np.bincount(a["name_id"][outer], weights=dur[outer], minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }

    def ancestors_of(self, name: str) -> set[str]:
        """Names of every span that ever encloses a span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return set()
        found: set[int] = set()
        parent, name_id = self.parent, self.name_id
        for idx in np.flatnonzero(self.arrays()["name_id"] == nid):
            p = parent[int(idx)]
            while p >= 0:
                found.add(name_id[p])
                p = parent[p]
        return {self.names[i] for i in found}

    def label_totals(self, name: str) -> dict[str, tuple[int, float]]:
        """(calls, total_s) of outermost ``name`` spans, grouped by op label."""
        nid = self._ids.get(name)
        out: dict[str, tuple[int, float]] = {}
        if nid is None:
            return out
        a = self.arrays()
        for idx in np.flatnonzero((a["name_id"] == nid) & a["outer"]):
            label = self.op_labels[int(a["op_id"][idx])]
            calls, total = out.get(label, (0, 0.0))
            out[label] = (calls + 1, total + float(a["end"][idx] - a["start"][idx]))
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
