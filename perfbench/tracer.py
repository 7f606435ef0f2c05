"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps public functions of the ``hyperoct`` modules from the
outside: coarse functions get a span (name, layer, job id, parent, start,
end, attributes), hot small functions get a plain call counter.  Every
module or class attribute that is bound to a wrapped function, including
names brought in with ``from ... import``, is rebound to the wrapper, so
calls through those names are traced too.  ``uninstall`` restores the
original bindings.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Spans are kept in memory and written out when the pass
ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("rings", "matrices", "croscat", "invalg", "barfun", "complexes",
          "slominska", "homology", "cli")


class Tracer:
    """Span store for one process.  ``job`` tags every span opened while it
    is set; ``clock`` is injectable so tests can build exact span trees.
    The default clock is the thread's CPU time, the clock of the pass's
    ``solve_s``."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.spans = []      # finished spans, see open()
        self.counts = {}     # counter name -> calls
        self.job = None
        self._stack = []
        self._patches = []   # (owner, attribute, original) for uninstall

    def open(self, name, layer, attrs=None):
        span = {"id": len(self.spans), "parent": self._stack[-1]["id"]
                if self._stack else None, "job": self.job, "name": name,
                "layer": layer, "start": self.clock(), "end": None,
                "attrs": attrs or {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    # -- wrappers --------------------------------------------------------------

    def span_wrapper(self, name, layer, fn, before=None, after=None):
        """``before(args, kwargs)`` returns the span's first attributes;
        ``after(result, args, attrs)`` may add to them."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer,
                               before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, args, span["attrs"])
            return result
        return wrapper

    def count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, targets):
        """Wrap each target and rebind every alias of it in ``hyperoct``.

        ``targets`` holds (owner, attribute, kind, name, layer, before,
        after) with ``kind`` either "span" or "count"."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key.split(".")[0] == "hyperoct" and m is not None]
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            for value in list(vars(mod).values()):
                if inspect.isclass(value) and \
                        value.__module__.split(".")[0] == "hyperoct":
                    namespaces.append(value)
        for owner, attr, kind, name, layer, before, after in targets:
            original = vars(owner)[attr]
            if kind == "span":
                wrapped = self.span_wrapper(name, layer, original, before,
                                            after)
            else:
                wrapped = self.count_wrapper(name, original)
            rebound = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        self._patches.append((ns, key, original))
                        rebound += 1
            if rebound == 0:
                raise RuntimeError(f"{name}: no binding found")

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the union of its children's intervals."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children.get(s["id"], ()),
                            key=lambda c: c["start"]):
                lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def outermost_time(self, names):
        """Summed duration of spans named in ``names`` that have no ancestor
        named in ``names`` (so recursion and nesting count once)."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                total += s["end"] - s["start"]
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            fh.write(json.dumps({"counts": self.counts}, sort_keys=True) + "\n")
