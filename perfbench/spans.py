"""In-memory spans around calls into coordmp's layers.

A :class:`Tracer` replaces a module attribute (the name a caller looks up
at call time) with a wrapper that opens a span, calls the original and
closes the span.  Spans stay in memory with a parent id and the id of the
benchmark instance they belong to; :func:`self_times`, the aggregation
helpers and :func:`write_spans` run once, after the measured passes.

Wrappers live in the benchmark, not in the package: nothing in ``src/``
knows it is being traced.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call into a layer: [start, end) on the perf_counter clock."""

    id: int
    parent: int | None
    name: str
    instance: int | None
    start: float
    end: float = 0.0
    outcome: str = "ok"
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from the wrappers it installs.

    ``hooks`` maps a span name to ``hook(result, span)``, which may add
    counts read from the layer's return value (for example the oracle's
    expanded-state count).
    """

    def __init__(self, hooks=None):
        self.spans: list[Span] = []
        self.hooks = hooks or {}
        self.instance: int | None = None
        self.enabled = False
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span around a block of benchmark code, when enabled."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.outcome = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.instance, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span stack out of order")

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a span-recording wrapper."""
        original = getattr(module, attr)
        hook = self.hooks.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                raise
            finally:
                self._close(span)
            if hook is not None:
                hook(result, span)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def covered(interval, parts) -> float:
    """Length of the part of ``interval`` that the union of ``parts`` covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered((s.start, s.end), children.get(s.id, ()))
        for s in spans
    }


def ancestors(span: Span, by_id) -> list[Span]:
    """The chain of enclosing spans, nearest first."""
    out = []
    while span.parent is not None:
        span = by_id[span.parent]
        out.append(span)
    return out


def write_spans(spans, path) -> None:
    """Write spans as JSON lines, once, after the measured passes."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
