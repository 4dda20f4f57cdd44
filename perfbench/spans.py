"""Spans around calls into gptensor's modules, recorded from outside.

A wrapper replaces a module attribute (or a class attribute) that the
pipeline looks up at call time.  Each wrapped call records one span: name,
start, end, the index of the enclosing span (-1 for none) and the id of the
solve it belongs to.  Spans stay in memory until the run ends.

A target that no longer exists is skipped; its span name is then not in
``Tracer.installed`` and every metric built from it reads as absent.  So do
the values of a span whose result no longer has the expected shape
(``Tracer.unmeasured``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "value")

    def __init__(self, name, start, end, parent, solve, value=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.solve = solve
        self.value = value  # a quantity the wrapper measured: bytes, iterations


@dataclass(frozen=True)
class Target:
    """Where to put a wrapper, and what its span is called.

    ``module`` is relative to the ``gptensor`` package; ``attr`` may be a dotted
    path such as ``SymTensor.__init__``.  ``measure(args, result)`` gives the
    span's value; ``transform(tracer, result)`` may wrap callables the call
    returns, whose span names are listed in ``also``.
    """

    module: str
    attr: str
    name: str
    measure: object = None
    transform: object = None
    also: tuple = ()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self.unmeasured: set[str] = set()
        self.enabled = False
        self.solve = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name, measure=None, transform=None, also=()):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.solve)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            # A result whose shape changed in a refactor must not fail the
            # solve: the values it fed read as absent instead.
            if measure is not None:
                try:
                    span.value = measure(args, out)
                except Exception:
                    self.unmeasured.add(name)
            if transform is not None:
                try:
                    return transform(self, out)
                except Exception:
                    self.installed.difference_update(also)
            return out

        return wrapper

    def install(self, targets) -> None:
        """Put a wrapper on every target that exists; skip the others."""
        for t in targets:
            try:
                owner = importlib.import_module(f"gptensor.{t.module}")
                *path, attr = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self.wrap(original, t.name, t.measure, t.transform, t.also))
            self._undo.append((owner, attr, original, own))
            self.installed.update((t.name, *t.also))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, solve, value]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "solve", "value"],
                    "spans": [[s.name, s.start, s.end, s.parent, s.solve, s.value] for s in self.spans],
                },
                fh,
            )


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [
        s.end - s.start - covered(s.start, s.end, [(spans[c].start, spans[c].end) for c in kids])
        for s, kids in zip(spans, children)
    ]


@dataclass
class Totals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    value: float = 0.0


def totals(spans) -> dict[str, Totals]:
    """Calls, inclusive seconds, self seconds and summed values per span name."""
    out: dict[str, Totals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, Totals())
        t.calls += 1
        t.s += s.end - s.start
        t.self_s += own
        t.value += s.value
    return out


def child_counts(spans, parent_name: str, child_name: str) -> list[int]:
    """For each span called ``parent_name``, how many direct children are ``child_name``."""
    counts = {i: 0 for i, s in enumerate(spans) if s.name == parent_name}
    for s in spans:
        if s.name == child_name and s.parent in counts:
            counts[s.parent] += 1
    return list(counts.values())
