"""Spans around the calls into ksbcfd's public functions, recorded from outside.

A span is (name, start, end, parent).  ``Tracer.wrap`` returns a wrapper
that opens a span, calls the original function and closes the span, even
when the call raises (``BlowUpDetected`` ends every blow-up run that way).
``install`` rebinds a function in every ``ksbcfd`` module that holds it, so
``from .fields import grad`` inside ``scheme`` is wrapped as well as
``fields.grad``; ``ExitStack`` undoes every rebinding.

Spans stay in memory and are written once, by ``write``.  A layer's self time
is its span's duration less the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(result, args)`` may attach counts to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._open.pop()
            if attrs is not None:
                self.attrs[idx] = attrs(result, args)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        own = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def outermost(self, name: str) -> list[int]:
        """Spans called ``name`` with no ancestor of the same name."""
        found = []
        for idx, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[idx]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                found.append(idx)
        return found

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, **self.attrs.get(i, {})}
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]
        path.write_text(json.dumps({"spans": spans}) + "\n", encoding="utf-8")


def install(stack: contextlib.ExitStack, owner, attr: str, wrapper) -> None:
    """Rebind ``owner.attr`` and every ksbcfd module global bound to the same object."""
    original = getattr(owner, attr)
    targets = [owner] + [
        mod for name, mod in list(sys.modules.items())
        if name.startswith("ksbcfd.") and mod is not owner
        and any(v is original for v in vars(mod).values())
    ]
    for target in targets:
        for key, value in list(vars(target).items()):
            if value is original:
                setattr(target, key, wrapper)
                stack.callback(setattr, target, key, value)


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain call, measured here."""
    noop = lambda: None
    wrapped = Tracer().wrap("calibration", noop)
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
