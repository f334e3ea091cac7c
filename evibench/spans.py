"""Spans and counts around evinet's layer functions, installed from outside.

:class:`Tracer` replaces a layer function by a wrapper in every ``evinet``
module that binds it, so calls made through ``from .x import f`` names and
through module attributes are both seen, and puts the originals back on
:meth:`Tracer.uninstall`. Nothing under ``src/`` changes.

A span is (id, name, start, end, parent id, operation id), times from
``time.perf_counter``; the spans of one operation (a stream line or a pass of
commands) share its id and hang under its ``op`` root span. Totals are kept as
spans end, per name: calls, inclusive time and self time (inclusive minus the
time its child spans cover), once over all spans and once over the spans
inside operations. Raw spans are kept in memory up to ``keep`` of them and
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")


class Totals:
    def __init__(self):
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.own: defaultdict = defaultdict(float)

    def add(self, name: str, duration: float, own: float) -> None:
        self.calls[name] += 1
        self.incl[name] += duration
        self.own[name] += own


class Tracer:
    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.spans: list[tuple] = []
        self.all = Totals()
        self.in_op = Totals()
        self.counts: Counter = Counter()  # counted inside operations only
        self.facts: dict = {}  # last observed sizes, e.g. table rows
        self.variant = ""  # suffix of render span names, "_min" under --minimize
        self._stack: list[list] = []  # [id, name, start, child time, parent id]
        self._next_id = 0
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, perf_counter(), 0.0, parent])

    def end(self) -> None:
        end = perf_counter()
        span_id, name, start, child, parent = self._stack.pop()
        duration = end - start
        self.all.add(name, duration, duration - child)
        if self._op is not None:
            self.in_op.add(name, duration, duration - child)
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent, self._op))

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation; its children share ``op_id``."""
        self._op = op_id
        self.begin("op")

    def end_op(self) -> None:
        self.end()
        self._op = None

    def abandon(self) -> None:
        """Drop spans left open by a command that exited early."""
        self._stack.clear()
        self._op = None

    @property
    def active(self) -> bool:
        return self._op is not None

    def top_is(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == name

    # --- wrapping ------------------------------------------------------------

    def wrap(self, func, name, after=None):
        """``func`` in a span; ``name`` may be a function of the call's kwargs.

        ``after(result)`` runs outside the span, for counts taken from results.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.begin(name(kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None and tracer.active:
                after(result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def count(self, func, key: str):
        """``func`` with a call counter and no span, for calls too cheap to time."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def patch(self, original, replacement) -> None:
        """Bind ``replacement`` wherever an evinet module binds ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.partition(".")[0] != "evinet":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
