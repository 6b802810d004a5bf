"""In-memory span recorder that wraps mrkit's functions from the outside.

:class:`Tracer` replaces a function at the name its caller looks it up by
(a module global, a class attribute or a dict entry) with a wrapper that
records one span per call: name, parent span, operation id, wall and CPU
start/end, and optional attributes taken from the arguments or the result.
:meth:`Tracer.installed` puts the wrappers in place for the duration of a
``with`` block and restores the originals afterwards, so untraced operations
run the program exactly as shipped. Spans stay in memory until written out.

Wrapped calls may run on any thread. A span's parent is the innermost open
span of its own thread. A span opened on a thread with no open span (a pool
worker, say) is parented to the innermost open span of the thread that
started the current operation (:meth:`Tracer.operation`): that span is the
one waiting on the pool, or else the operation's root span.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

AttrFn = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records spans for calls made through wrapped names."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._targets: list[tuple[Any, str, str, AttrFn | None]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._op_stack: list[Span] | None = None  # the operation's thread

    def target(self, owner, key: str, name: str,
               attrs: AttrFn | None = None) -> None:
        """Register ``owner.key`` (or ``owner[key]``) to be traced as ``name``."""
        self._targets.append((owner, key, name, attrs))

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def operation(self, name: str = "bench.op"):
        """Start a new operation id and open its root span."""
        self.op += 1
        with self.span(name) as root:
            self._op_stack = self._stack()
            try:
                yield root
            finally:
                self._op_stack = None

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1].span_id
        elif self._op_stack:
            with contextlib.suppress(IndexError):  # it may pop meanwhile
                parent = self._op_stack[-1].span_id
        with self._lock:
            record = Span(span_id=next(self._ids), parent=parent, name=name,
                          op=self.op, start=0.0)
            self.spans.append(record)
        stack.append(record)
        record.cpu_start = time.process_time()
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            record.cpu_end = time.process_time()
            stack.pop()

    def _wrap(self, original: Callable, name: str,
              attrs: AttrFn | None) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if attrs is not None:
                    record.attrs.update(attrs(args, kwargs, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every registered target for its wrapper, then restore it."""
        originals = []
        try:
            for owner, key, name, attrs in self._targets:
                original = _get(owner, key)
                originals.append((owner, key, original))
                _set(owner, key, self._wrap(original, name, attrs))
            yield self
        finally:
            for owner, key, original in reversed(originals):
                _set(owner, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the wall time its direct children cover.

    Children on other threads may overlap one another, so the covered time
    is the union of the children's intervals, clipped to the parent's.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            children.setdefault(parent.span_id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    own = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        own[span.span_id] = span.duration - covered
    return own
