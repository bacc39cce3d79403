"""In-memory span tracer that wraps layer functions at module attributes.

A wrap point is ``(module, attribute)``: the name through which a caller
reaches a layer, for example ``fblab.fbiter.solve_phase`` for the phase
solves that ``fbiter.step`` makes.  The tracer replaces the attribute with a
wrapper that records one span per call and restores the original on
:meth:`Tracer.uninstall`.  A wrap point that no longer exists is listed in
:attr:`Tracer.absent` instead of raising, so the benchmark keeps running
when a refactor removes a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call.  ``parent`` is the index of the enclosing span in the
    tracer's list; ``attrs`` holds counts the wrap point records."""

    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        except BaseException:
            self._close(idx, error=True)
            raise
        self._close(idx)

    def wrap(self, target: str, name: str, on_result=None) -> bool:
        """Wrap ``module.attr`` so that each call records a span ``name``.

        ``on_result(args, kwargs, result)`` may return a dict of counts to
        store on the span; it runs after the span has ended.  Returns False
        when the target does not exist.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if on_result is not None:
                span.attrs.update(on_result(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))
        return True

    def install(self, wraps) -> None:
        """Wrap every ``(target, name, on_result)`` of ``wraps`` and list
        the targets that do not exist in :attr:`absent`."""
        self.absent = [target for target, name, on_result in wraps
                       if not self.wrap(target, name, on_result)]

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


@dataclass
class LayerStats:
    """Totals of one span name within one run id."""

    calls: int = 0
    errors: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.calls - self.errors


def aggregate(spans: list[Span], run_id: int) -> dict[str, LayerStats]:
    """Per-name totals of the spans of one run id."""
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for s, own in zip(spans, selfs):
        if s.run_id != run_id:
            continue
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.errors += int(s.error)
        st.seconds += s.duration
        st.self_seconds += own
        for key, value in s.attrs.items():
            st.attrs[key] = st.attrs.get(key, 0) + value
    return stats
