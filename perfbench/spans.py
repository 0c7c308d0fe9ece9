"""Spans around calls into the library, and counting proxies for oracles.

A span is ``[name, start, end, parent]`` with `parent` the index of the
enclosing span (-1 at top level).  Spans live in one list in memory and are
written out once, when the run ends; call counts are span counts.  The
proxies forward every call unchanged, so a workload's outputs do not depend
on whether they are in place; when a tracer records, they add a span per
call.
"""

from __future__ import annotations

from time import perf_counter

from omegaword.oracles import LanguageOracle
from omegaword.trio import FiniteLanguageOracle
from omegaword.words import UPWord


class Tracer:
    """Records one span per `call`.  With ``enabled=False`` it only calls."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


def _covered(intervals: list) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_times(spans: list) -> dict:
    """Per span name: ``{"s": busy, "self_s": busy minus the part of each
    span's interval that its child spans cover, "calls": count}``."""
    children: dict = {}
    for name, s, e, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    out: dict = {}
    for i, (name, s, e, _) in enumerate(spans):
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += e - s
        row["self_s"] += (e - s) - _covered(children.get(i, []))
        row["calls"] += 1
    return out


def presentation_size(w) -> int:
    """Letters of a lasso's prefix and period; for a block word its two
    letters plus the numbers in its run-length schedule."""
    if isinstance(w, UPWord):
        return len(w.prefix) + len(w.period)
    return 2 + sum(len(v) if isinstance(v, tuple) else 1
                   for v in vars(w.lengths).values())


class CountingOracle(LanguageOracle):
    """Transparent proxy for a `LanguageOracle`: counts `member` calls, sums
    the presentation size of the words asked about, spans `member` as
    ``oracles.member`` and `find_condition2_violation` as
    ``oracles.violation``."""

    def __init__(self, inner: LanguageOracle, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.alphabet = inner.alphabet
        self.neutral_letter = inner.neutral_letter
        self.calls = 0
        self.letters = 0

    def member(self, w) -> bool:
        self.calls += 1
        self.letters += presentation_size(w)
        return self._tracer.call("oracles.member", self._inner.member, w)

    def find_condition2_violation(self, c):
        return self._tracer.call("oracles.violation",
                                 self._inner.find_condition2_violation, c)

    @property
    def has_violation_finder(self) -> bool:
        return self._inner.has_violation_finder


class CountingLanguage(FiniteLanguageOracle):
    """Transparent proxy for a finite-word language oracle: `member` and
    `same_class` are spanned as ``trio.language``."""

    def __init__(self, inner: FiniteLanguageOracle, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.alphabet = inner.alphabet

    def member(self, w) -> bool:
        return self._tracer.call("trio.language", self._inner.member, w)

    def same_class(self, u, v):
        return self._tracer.call("trio.language", self._inner.same_class, u, v)
