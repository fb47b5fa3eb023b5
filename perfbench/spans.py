"""Spans and counters recorded from outside the package.

A `Tracer` replaces public callables of `mamba_hawkes` (module functions and
class methods) with wrappers that record a span around each call and,
optionally, a count derived from the call's arguments or result. The package
itself is not edited: `restore()` puts every original back, and the
benchmark checks that it did.

A span is (name, start, end, parent, op). `op` is the benchmark operation the
span belongs to ("setup" or "round-<i>"), so spans of one operation share an
identifier. A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "mamba_hawkes"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}      # op -> Counter
        self.op = ""
        self._open = []       # indices of spans not yet ended, innermost last
        self._patches = []    # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        self.spans[index].end = self.clock()
        self._open.pop()

    def count(self, name, amount):
        self.counts.setdefault(self.op, Counter())[name] += amount

    def wrap(self, fn, name, count=None):
        """Wrapper that records a span named `name` around each call.

        `name` is a string, a callable taking the call's arguments and
        returning the span name, or None for no span. `count(tracer, result,
        *args, **kwargs)` runs after the call returns.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = self.begin(label) if label else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    self.end(index)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, count=None):
        """Replace one binding: a class's method or a module's attribute."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def patch_function(self, fn, name, count=None):
        """Replace `fn` in every loaded module of the package that binds it.

        Modules call each other through module attributes or names imported
        with `from ... import`, so every binding has to be replaced for every
        call site to be seen.
        """
        wrapper = self.wrap(fn, name, count)
        found = False
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn.__qualname__} is not bound in any {PACKAGE} module")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def children(self):
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_time(self, index, kids=None):
        kids = self.children() if kids is None else kids
        s = self.spans[index]
        covered = union_length([(self.spans[c].start, self.spans[c].end) for c in kids[index]])
        return (s.end - s.start) - covered

    def _outermost(self, index):
        """False when an ancestor span has the same name (recursion or a
        wrapped function calling another binding of itself)."""
        name, parent = self.spans[index].name, self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return False
            parent = self.spans[parent].parent
        return True

    def totals(self, op):
        """Per span name: (inclusive seconds, self seconds) over one op."""
        kids = self.children()
        incl, own = Counter(), Counter()
        for i, s in enumerate(self.spans):
            if s.op != op:
                continue
            own[s.name] += self.self_time(i, kids)
            if self._outermost(i):
                incl[s.name] += s.end - s.start
        return incl, own
