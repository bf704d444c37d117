"""Spans recorded by the benchmark's own code around calls into each layer.

A :class:`Tracer` keeps every span in memory — name, start, end, parent
span, thread, request id and catalog app — and writes them out when the
run ends.  :meth:`Tracer.patch` wraps a public function of the program
so that calls the program makes internally (``compile_lowered`` calling
``select_instructions``, say) become child spans; the wrappers are
removed again by :meth:`Tracer.unpatch`.  A disabled tracer records
nothing, so one process can time the same work traced and untraced.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    rid: Optional[int]
    app: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        return [
            self.id,
            self.name,
            self.start,
            self.end,
            self.parent,
            self.thread,
            self.rid,
            self.app,
        ]


class Tracer:
    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, app: Optional[str] = None, rid: Optional[int] = None
    ) -> Iterator[Optional[Span]]:
        """Record one span; ``app`` and ``rid`` default to the parent's."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            app = parent.app if app is None else app
            rid = parent.rid if rid is None else rid
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            0.0,
            parent.id if parent is not None else None,
            threading.get_ident(),
            rid,
            app,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def record(
        self,
        name: str,
        start: float,
        end: float,
        rid: Optional[int] = None,
        app: Optional[str] = None,
    ) -> None:
        """Add a span timed elsewhere (a request from due to done)."""
        if self.enabled:
            self.spans.append(
                Span(next(self._ids), name, start, end, None, 0, rid, app)
            )

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a module function or a method) in a span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(
        self,
        name: str,
        app: Optional[str] = None,
        under: Optional[str] = None,
    ) -> List[float]:
        """Seconds of every span called ``name``, for ``app`` and below an
        ancestor span called ``under`` when those are given."""
        by_id = {s.id: s for s in self.spans}

        def below(span: Span) -> bool:
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name == under:
                    return True
                parent = by_id.get(parent.parent)
            return False

        return [
            s.seconds
            for s in self.spans
            if s.name == name
            and (app is None or s.app == app)
            and (under is None or below(s))
        ]

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it its child spans cover."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            kids = sorted(children.get(span.id, ()), key=lambda c: c.start)
            for child in kids:
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            totals[span.name] += span.seconds - covered
        return dict(totals)
