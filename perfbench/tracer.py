"""Layer tracer: spans around the program's public layer functions.

The tracer never edits the program.  It replaces, from outside, every
module attribute that is bound to a layer's entry function (the
experiments import them by name, e.g. ``from ..ilp import
measure_ilp_many``) with a wrapper that records a span, and wraps a few
methods on their classes (``TraceStore.batches``, ``ServiceClient``
calls).  Spans (name, start, end, parent, busy time) stay in memory and
are written once, at exit, as Chrome trace-event JSON.

A span's *self time* is its busy time minus the busy time of the spans
it caused.  Functions that return iterators (``trace_program``,
``TraceStore.batches``) get an iterator span whose busy time is the sum
of its ``next()`` calls, so the consumer's work between two records
stays with the consumer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

now = time.perf_counter


class Span:
    """One timed call (or one whole iteration) of a layer function."""

    __slots__ = ("name", "parent", "start", "end", "busy", "child", "items", "thread")

    def __init__(self, name: str, parent: Optional["Span"], start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.items = 0
        self.thread = threading.get_ident()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Tracer:
    """Collects spans from wrapped functions, one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ilp_results: List[object] = []
        self.origin = now()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # -- wrappers ------------------------------------------------------------

    def function(
        self,
        name: str,
        fn: Callable,
        iterate: Optional[str] = None,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``iterate`` names the span of the
        iterator it returns (``"machine.trace"`` picks capture/replay)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent, now())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = now()
                span.busy = span.end - span.start
                if parent is not None:
                    parent.child += span.busy
                tracer._record(span)
            if on_result is not None:
                on_result(result)
            if iterate is not None:
                return TracedIterator(tracer, iterate, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def patch_functions(self, targets: Iterable[tuple]) -> None:
        """Rebind every ``repro`` module attribute bound to a target.

        ``targets`` holds ``(module, attribute, span name, iterate,
        on_result)`` tuples; the function is looked up in ``module`` and
        replaced wherever any loaded ``repro`` module imported it.
        """
        wrappers: Dict[int, tuple] = {}
        for module_name, attribute, span_name, iterate, on_result in targets:
            original = getattr(importlib.import_module(module_name), attribute)
            wrappers[id(original)] = (
                original,
                self.function(span_name, original, iterate, on_result),
            )
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attribute, hit[1])

    def patch_method(self, owner: type, attribute: str, span_name: str,
                     iterate: Optional[str] = None) -> None:
        setattr(owner, attribute,
                self.function(span_name, getattr(owner, attribute), iterate))

    # -- reporting -----------------------------------------------------------

    def write_chrome_trace(self, path: str, metadata: Optional[dict] = None) -> None:
        """All spans as Chrome trace-event JSON (Perfetto opens it offline)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        events = []
        for position, span in enumerate(self.spans):
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": round((span.start - self.origin) * 1e6, 3),
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": span.thread,
                    "args": {
                        "id": position,
                        "parent": index.get(id(span.parent)),
                        "busy_s": span.busy,
                        "self_s": span.self_time,
                        "items": span.items,
                    },
                }
            )
        payload = {"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metadata or {}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class TracedIterator:
    """Times each ``next()`` of a layer's iterator as one iteration span.

    An iteration of ``TraceStore.batches`` is named ``machine.capture`` or
    ``machine.replay`` after the generator the store returned (its capture
    or its replay generator), which stays right when threads interleave.
    """

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        if name == "machine.trace":
            code = getattr(inner, "gi_code", None)
            capturing = code is not None and "capture" in code.co_name
            name = "machine.capture" if capturing else "machine.replay"
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)
        self._span: Optional[Span] = None
        self._done = False

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        stack = self._tracer._stack()
        parent = stack[-1] if stack else None
        span = self._span
        if span is None:
            span = self._span = Span(self._name, parent, now())
        stack.append(span)
        started = now()
        try:
            item = next(self._inner)
        except BaseException:
            self._account(span, parent, started)
            self._finish()
            raise
        self._account(span, parent, started)
        try:
            span.items += len(item)
        except TypeError:
            span.items += 1
        return item

    def _account(self, span: Span, parent: Optional[Span], started: float) -> None:
        self._tracer._stack().pop()
        span.end = now()
        elapsed = span.end - started
        span.busy += elapsed
        if parent is not None:
            parent.child += elapsed

    def _finish(self) -> None:
        if self._done or self._span is None:
            return
        self._done = True
        self._tracer._record(self._span)

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()
        self._finish()

    def __del__(self) -> None:
        self._finish()
