"""Span recorder for the traced run.

`install()` wraps every public function of each chaconlab module, and every
public method of the classes those modules define, from outside the package:
nothing under src/ changes.  Each wrapped call records a span (name, start,
end, parent) in flat in-memory arrays; the spans are written out once, when
the traced process ends, and self times are computed from them.  A function
that is already on the stack (compute_dl, locate and phi_repr recurse) counts
the inner call but records only the outermost span, so its self time is the
whole recursion.  Garbage collection is recorded as a `python.gc` span under
whichever span was open when it ran; those spans go to arrays of their own,
because a collection can start while a wrapper is half way through
appending a span.

All of chaconlab runs on one thread, so a layer never waits on another: the
spans nest strictly and self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import time
from array import array

MODULES = ("triadic", "tower", "correlation", "exceptional", "oracle", "constants", "cli")

# Hot constructors whose calls are counted but not timed on their own; their
# time stays in the caller's span.
COUNT_ONLY = {
    "exceptional.IntegerIntervalSet.__init__",
}


class Recorder:
    """Spans in flat arrays plus per-name call counts and observers."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.active: list[int] = []
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack: list[int] = []
        self.gc_parent = array("i")
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.dl_seen: set = set()
        self.dl_mass_cells = 0
        self.support_ks: set = set()
        self.gc_collections = 0
        self._gc_start = 0.0
        self._gc_parent = -1
        self.gc_id = self.name_id("python.gc")

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.active.append(0)
        return len(self.names) - 1

    # -- garbage collector ------------------------------------------------
    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_parent = self.stack[-1] if self.stack else -1
            self._gc_start = time.perf_counter()
            return
        end = time.perf_counter()
        self.gc_collections += 1
        self.calls[self.gc_id] += 1
        self.gc_parent.append(self._gc_parent)
        self.gc_start.append(self._gc_start)
        self.gc_end.append(end)

    # -- observers for counts that need the arguments or the result --------
    # They must never break the traced program: a changed signature or
    # result type leaves the count at what it has seen.
    def observe_dl(self, args, kwargs, result) -> None:
        try:
            key = (args[0] if args else kwargs["k"], args[1] if len(args) > 1 else kwargs["l"])
            if key not in self.dl_seen:
                self.dl_mass_cells += len(result.masses)
                self.dl_seen.add(key)
        except (IndexError, KeyError, AttributeError, TypeError):
            pass

    def observe_support(self, args, kwargs, result) -> None:
        try:
            self.support_ks.add(args[0] if args else kwargs["k"])
        except (IndexError, KeyError, TypeError):
            pass

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, name: str, observer=None):
        nid = self.name_id(name)
        calls, active, stack = self.calls, self.active, self.stack
        s_name, s_parent, s_start, s_end = self.s_name, self.s_parent, self.s_start, self.s_end
        clock = time.perf_counter

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counted, fn)

        def traced(*args, **kwargs):
            calls[nid] += 1
            if active[nid]:
                result = fn(*args, **kwargs)
                if observer is not None:
                    observer(args, kwargs, result)
                return result
            active[nid] = 1
            sid = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            stack.append(sid)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[sid] = clock()
                stack.pop()
                active[nid] = 0
            if observer is not None:
                observer(args, kwargs, result)
            return result
        return functools.update_wrapper(traced, fn)

    # -- results --------------------------------------------------------------
    def summary(self, support_entries: int) -> dict:
        """Per-name calls and self times, from the recorded spans."""
        n = len(self.s_start)
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        child = [0.0] * n
        root_s = 0.0
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root_s += dur[i]
        self_s = [0.0] * len(self.names)
        for p, start, end in zip(self.gc_parent, self.gc_start, self.gc_end):
            self_s[self.gc_id] += end - start
            if p >= 0:
                child[p] += end - start
            else:
                root_s += end - start
        for i in range(n):
            self_s[self.s_name[i]] += dur[i] - child[i]
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self_s)),
            "spans": n + len(self.gc_start),
            "root_s": root_s,
            "dl_built": len(self.dl_seen),
            "dl_mass_cells": self.dl_mass_cells,
            "support_entries": support_entries,
            "gc_collections": self.gc_collections,
        }

    def write_spans(self, path: str) -> None:
        """Spans to PATH (JSON: name table and count) and PATH.bin (int32
        name ids, int32 parent span ids, float64 starts, float64 ends)."""
        n_gc = len(self.gc_start)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.s_start) + n_gc}, fh)
        with open(path + ".bin", "wb") as fh:
            for column in (self.s_name + array("i", [self.gc_id] * n_gc),
                           self.s_parent + self.gc_parent,
                           self.s_start + self.gc_start, self.s_end + self.gc_end):
                column.tofile(fh)


def _targets(module):
    """(qualified name, owner, attribute, function) for the public callables
    a module defines: module-level functions and methods of its classes."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{prefix}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for mattr, raw in sorted(vars(obj).items()):
                if mattr.startswith("_") and f"{prefix}.{attr}.{mattr}" not in COUNT_ONLY:
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield f"{prefix}.{attr}.{mattr}", obj, mattr, raw


def install() -> Recorder:
    """Wrap the package's public callables and start recording."""
    rec = Recorder()
    modules = [importlib.import_module(f"chaconlab.{m}") for m in MODULES]
    observers = {"correlation.compute_dl": rec.observe_dl,
                 "correlation.support_index": rec.observe_support}
    for module in modules:
        for name, owner, attr, raw in list(_targets(module)):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(rec.wrap(raw.__func__, name)))
                continue
            wrapped = rec.wrap(raw, name, observers.get(name))
            if owner is module:
                # every namespace that imported the function by name
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, key, wrapped)
            else:
                setattr(owner, attr, wrapped)
    gc.callbacks.append(rec.on_gc)
    return rec


def support_entries(rec: Recorder) -> int:
    """Total length of the support-endpoint tables of the stages touched
    (0 when the package no longer has them in this form)."""
    from chaconlab import correlation
    index = getattr(correlation, "support_index", None)
    fn = getattr(index, "__wrapped__", index)
    try:
        return sum(len(fn(k).s) for k in rec.support_ks)
    except (TypeError, AttributeError):
        return 0
