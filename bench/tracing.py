"""In-memory span recorder for the traced benchmark run.

Module functions are wrapped where their callers look them up (the module
attribute a caller reads at call time), so no file under ``src/`` changes.
Each wrapped call records one span: name, start, end, parent span and the
operation it belongs to. Spans stay in memory and are written out once,
when the run ends. All work runs in one thread, so spans nest strictly and
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

# span record fields: [name, start_ns, end_ns, parent_index, op_id]
NAME, START, END, PARENT, OP = range(5)


def _kind(op_id) -> str:
    """``"setup"``, ``"warmup"`` or ``"op"`` (a timed operation)."""
    return op_id if op_id in ("setup", "warmup") else "op"


class Tracer:
    """Records nested spans and per-span-name counters for one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (op kind, counter name) -> total
        self.op_id: int | str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, owner: object, attr: str, name: str, extra: tuple[str, Callable] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        Every call, returning or raising, adds one to the counter
        ``<name>.calls``. ``extra`` is an
        optional ``(counter, measure)`` pair: after a successful call,
        ``measure(args, kwargs, result)`` is added to that counter.
        Counters are kept apart per op kind: set-up, warm-up and timed
        operations.
        """
        fn = getattr(owner, attr)
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind = _kind(self.op_id)
            self.counts[(kind, calls)] += 1
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if extra is not None:
                self.counts[(kind, extra[0])] += extra[1](args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- analysis ----------------------------------------------------------

    def self_times_ns(self) -> dict[tuple[str, object], int]:
        """Self time per (span name, op kind), in ns."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        out: dict[tuple[str, object], int] = defaultdict(int)
        for i, rec in enumerate(self.spans):
            out[(rec[NAME], _kind(rec[OP]))] += rec[END] - rec[START] - child_ns[i]
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as one CSV line: index,name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{op}\n")
