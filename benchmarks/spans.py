"""Span tracing from outside the program: wrappers, spans and self time.

A :class:`Tracer` replaces a function at the name its caller looks it up
under (``stochsim.sas.window_coefficients``, ``SimulationSetup.build_net``,
...) with a wrapper that records one span per call: name, start, end and the
span that was open when the call began.  Spans stay in memory until the
tracer is read.  A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    Children of one span may arrive in any order and may overlap; the
    covered part is the union of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def totals_by_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(call count, summed self time) per span name."""
    agg: dict[str, tuple[int, float]] = {}
    for sp, st in zip(spans, self_times(spans)):
        n, s = agg.get(sp.name, (0, 0.0))
        agg[sp.name] = (n + 1, s + st)
    return agg


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit.

    ``targets`` is a list of ``(owner, attribute, span_name)``: the wrapper
    is set as ``owner.attribute``, so it must name the object the caller
    resolves at call time (the caller's module, or the class for a method).
    A target that does not exist is skipped and listed in ``missing``.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []  # [name, start, end, parent], filled in place
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (used for the root span)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self.targets:
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def finished(self) -> list[Span]:
        return [Span(n, s, e, p) for n, s, e, p in self.spans]
