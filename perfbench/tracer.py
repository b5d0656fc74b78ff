"""In-memory span tracer installed from outside the program.

Wrapping a function replaces it under every name that refers to it: the
defining module, each ``octqft`` module that imported it with ``from ...
import``, and the class attribute for a method.  Only the outermost entry
of a function opens a span; a recursive re-entry is counted but not timed,
so a 2M-call recursion costs a counter increment per call and one span.

Spans are (name, start, end, parent) in ``process_time_ns`` units (CPU
time, like the end-to-end metrics), kept in flat arrays until ``write``
dumps them.  Self time of a span is its length minus the lengths of its
direct child spans.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names = []             # span name by name id
        self.name_of = array("i")   # per span: name id
        self.parent = array("q")    # per span: parent span index or -1
        self.start = array("q")
        self.end = array("q")
        self.calls = Counter()      # every entry, re-entries included
        self.counts = Counter()     # counters fed by the hooks
        self.open = Counter()       # name -> 1 + index of its open outermost span
        self._stack = []            # open span indices, innermost last
        self._patches = []          # (owner, attribute, original, wrapper)

    def wrap(self, owner, attr, name, on_return=None):
        """Trace ``owner.attr`` (a module function or a class method) as
        ``name``; ``on_return(tracer, result)`` runs after each outermost
        call."""
        calls, open_, stack = self.calls, self.open, self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.process_time_ns
        name_id = len(self.names)
        self.names.append(name)
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            calls[name] += 1
            if open_[name]:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            open_[name] = idx + 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_[name] = 0
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result
        self._patch(owner, attr, traced)

    def count(self, owner, attr, name, on_call):
        """Count calls of ``owner.attr`` as ``name`` without a span;
        ``on_call(tracer)`` runs on every call."""
        calls = self.calls
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            on_call(self)
            return fn(*args, **kwargs)
        self._patch(owner, attr, counted)

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod in list(sys.modules.values()):
                if mod is owner or not getattr(mod, "__name__", "").startswith("octqft"):
                    continue
                targets += [(mod, key) for key, value in vars(mod).items() if value is original]
        for target, key in targets:
            self._patches.append((target, key, original, wrapper))
            setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original, _ in self._patches:
            setattr(target, key, original)

    def reinstall(self):
        for target, key, _, wrapper in self._patches:
            setattr(target, key, wrapper)

    def self_seconds(self):
        """Self time per span name, in seconds."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        totals = Counter()
        for idx, ns in enumerate(own):
            totals[self.names[self.name_of[idx]]] += ns
        return {name: ns / 1e9 for name, ns in totals.items()}

    def write(self, path):
        """Dump every span as a ``name start_ns end_ns parent`` line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for idx, name_id in enumerate(self.name_of):
                fh.write(f"{self.names[name_id]}\t{self.start[idx]}\t"
                         f"{self.end[idx]}\t{self.parent[idx]}\n")
