"""In-memory span recorder that wraps layer entry points from outside.

`Tracer.wrap` replaces a method on a class, or a function on a module, with
a wrapper that records one span per call while the tracer is recording.
`Tracer.restore` puts every original back, so an untraced run executes the
unmodified program. A span keeps its name, start, end, parent span and
request id. Arguments and results are never stored: a `request_id` hook may
derive the join key from the arguments, and an `after` hook may add to a
counter, but neither keeps what it read.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int          # 0 for a root span
    request_id: str | None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._phases: dict[str, list[Span]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording windows -----------------------------------------------------

    def start(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.recording = True

    def stop(self, phase: str) -> list[Span]:
        """End the window; its spans are added to `phase` for `write`."""
        self.recording = False
        self._phases.setdefault(phase, []).extend(self.spans)
        return self.spans

    def count(self, name: str, n: int = 1) -> None:
        if self.recording:
            with self._count_lock:
                self.counts[name] += n

    # -- patching ----------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        request_id: Callable[..., str | None] | None = None,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `request_id(*args)` names the request a root span belongs to; nested
        spans inherit it from their parent. `before(*args)` returns a value
        handed to `after(value, args, result)` once the call has returned.
        """
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        tracer = self
        local = self._local
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, inherited = stack[-1] if stack else (0, None)
            rid = request_id(*args) if request_id is not None else inherited
            sid = next(ids)
            token = before(*args) if before is not None else None
            stack.append((sid, rid))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, rid))
            if after is not None:
                after(token, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, owned))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON array per span, after a header naming the fields. A child
        span's request id is written as null: it is its parent's."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["phase", *Span._fields]}) + "\n")
            for phase, spans in self._phases.items():
                for s in spans:
                    rid = s.request_id if s.parent == 0 else None
                    fh.write(json.dumps([phase, *s[:5], rid], separators=(",", ":")) + "\n")
