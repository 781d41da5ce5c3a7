"""Layer spans and counters for the traced run, attached from outside ``wnc``.

Each public layer function is wrapped and the wrapper is rebound under every
module that holds the original name (for example ``build`` in
``wnc.construct``, ``wnc.theorems`` and the package), so calls between layers
and recursive calls both pass through it.  A span records (name, start, end,
parent); a layer's self time is its span's duration minus the time its child
spans cover.  Per-element helpers such as ``find_decomp`` are not wrapped, so
their time is self time of the layer that calls them.

Memo hits are counted from outside: a call is a hit when its ring, or its
(ring, kind, S) key, is already in this tracer's own weak set.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import tracemalloc
import weakref
from collections import Counter, defaultdict
from typing import Callable, Iterable

_CONSTRUCTORS = {
    "Zn": "zn", "Prod": "prod", "Mat": "mat", "Tri": "tri", "EqDiag": "eqdiag",
    "Idealize": "idealize", "Corner": "corner", "Quot": "quot", "SkewPolyQuot": "skew",
}


def _rebind(attr: str, defining: str, make: Callable, skip: Iterable[str] = ()) -> None:
    """Replace ``defining.attr`` by ``make(original)`` in every wnc module holding it."""
    original = getattr(sys.modules[defining], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if (name == "wnc" or name.startswith("wnc.")) and name not in skip:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._structure_seen: weakref.WeakSet = weakref.WeakSet()
        self._ideals_seen: weakref.WeakSet = weakref.WeakSet()
        self._verdicts_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def traced(self, fn: Callable, hook: Callable) -> Callable:
        """Wrap ``fn`` in a span; ``hook`` takes fn's arguments and returns the
        span name and a callback for the result (or None)."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            name, after = hook(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def span(self, name: str, counter: str = "") -> Callable:
        """A hook for a plain span, optionally counting calls."""
        def hook(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            return name, None
        return hook

    # --- hooks with memo accounting -------------------------------------------

    def _build(self, expr, budget=None):
        self.counts["build_calls"] += 1
        return "construct.build." + _CONSTRUCTORS[type(expr).__name__], None

    def _structure(self, ring):
        self.counts["structure_calls"] += 1
        if ring in self._structure_seen:
            self.counts["structure_hits"] += 1
            return "structure.structure", None
        return "structure.structure", lambda _: self._structure_seen.add(ring)

    def _all_ideals(self, ring):
        if ring in self._ideals_seen:
            return "structure.all_ideals", None

        def after(ideals):
            self._ideals_seen.add(ring)
            self.counts["ideals_found"] += len(ideals)
        return "structure.all_ideals", after

    def _ring_verdict(self, ring, kind, s=None):
        key = None
        if sys.modules["wnc.decomp"].kind_takes_subset(kind) and s is not None:
            members = s.members if hasattr(s, "members") else s
            key = tuple(sorted(int(x) for x in members))
            self.counts["s_verdict_calls"] += 1
        self.counts["ring_verdict_calls"] += 1
        seen = self._verdicts_seen.setdefault(ring, set())
        if (kind, key) in seen:
            self.counts["verdict_hits"] += 1
            return "decomp.ring_verdict", None

        def after(_):
            seen.add((kind, key))
            self.counts["elements_decided"] += ring.order
        return "decomp.ring_verdict", after

    def _run_suite(self, *args, **kwargs):
        return "theorems.runner", lambda cells: self.counts.update(cells=len(cells))

    # --- installation -----------------------------------------------------------

    def install(self) -> Callable:
        """Wrap every layer of the imported ``wnc``; returns the traced ``cli.main``."""
        theorems = sys.modules["wnc.theorems"]
        wrap = lambda hook: (lambda fn: self.traced(fn, hook))  # noqa: E731
        _rebind("parse_ring_expr", "wnc.construct", wrap(self.span("construct.parse")))
        _rebind("build", "wnc.construct", wrap(self._build))
        # corner and quotient count only when a check or decider calls them;
        # inside build they are part of the constructor's self time.
        _rebind("corner", "wnc.construct", wrap(self.span("construct.corner")),
                skip=("wnc.construct",))
        _rebind("quotient", "wnc.construct", wrap(self.span("construct.quotient")),
                skip=("wnc.construct",))
        _rebind("verify_ring_axioms", "wnc.table",
                wrap(self.span("table.axioms", "axioms_calls")))
        _rebind("structure", "wnc.structure", wrap(self._structure))
        _rebind("all_ideals", "wnc.structure", wrap(self._all_ideals))
        _rebind("subset", "wnc.structure", wrap(self.span("structure.subset", "subset_calls")))
        _rebind("ideal_generated_by", "wnc.structure",
                wrap(self.span("structure.ideal_generated_by")))
        _rebind("ring_verdict", "wnc.decomp", wrap(self._ring_verdict))
        _rebind("is_exchange", "wnc.decomp", wrap(self.span("decomp.exchange")))
        _rebind("is_strongly_pi_regular", "wnc.decomp", wrap(self.span("decomp.pi_regular")))
        _rebind("lifts_idempotents", "wnc.decomp", wrap(self.span("decomp.lift")))
        _rebind("lifts_idempotents_weakly", "wnc.decomp", wrap(self.span("decomp.lift")))
        _rebind("default_corpus", "wnc.theorems", wrap(self.span("theorems.default_corpus")))
        _rebind("run_suite", "wnc.theorems", wrap(self._run_suite))
        theorems.REGISTRY = tuple(
            dataclasses.replace(
                check,
                applicable=self.traced(check.applicable, self.span("theorems.applicable")),
                run=self.traced(check.run, self.span(f"theorems.check.{check.check_id}")),
            )
            for check in theorems.REGISTRY
        )
        return self.traced(sys.modules["wnc.cli"].main, self.span("cli.main"))

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)


class BuildPeak:
    """tracemalloc peak of each top-level ``build``; nested builds share it."""

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._depth = 0

    def install(self) -> None:
        _rebind("build", "wnc.construct", self._wrap)

    def _wrap(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            top = self._depth == 0
            if top:
                tracemalloc.start()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if top:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
        return wrapper
