"""In-memory spans, attribute wrappers and self-time accounting.

The traced run installs wrappers at the attributes the program looks up
(``module:function`` or ``module:Class.method``), records one span per
call — name, start, end, parent and attributes — and restores every
attribute on exit.  Spans stay in memory until the run writes them out;
``chrome_trace`` turns them into a Chrome-trace document Perfetto opens.

Parents follow a context variable, so spans opened in different asyncio
tasks or threads never adopt each other.  Timestamps are
``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable between the client and server processes of one host.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_current = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Collects spans; ``spans`` is a list of plain dicts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": _current.get(),
            "tid": threading.get_native_id(),
            "attrs": attrs,
        }
        token = _current.set(record["id"])
        try:
            yield record
        finally:
            _current.reset(token)
            record["end"] = time.perf_counter()
            self.spans.append(record)


def _make_wrapper(recorder: Recorder, name: str, fn, on_result):
    if inspect.iscoroutinefunction(fn):

        async def wrapper(*args, **kwargs):
            with recorder.span(name) as record:
                result = await fn(*args, **kwargs)
            if on_result is not None:
                on_result(record["attrs"], result)
            return result

    else:

        def wrapper(*args, **kwargs):
            with recorder.span(name) as record:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(record["attrs"], result)
            return result

    functools.update_wrapper(wrapper, fn)
    return wrapper


def resolve_owner(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patcher:
    """Install span wrappers; ``restore`` (or leaving the ``with``
    block) puts every original attribute back, in reverse order."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple] = []

    def wrap(self, target, name: str, on_result=None) -> None:
        """Wrap ``target`` — a ``"module:attr"`` string or an
        ``(object, attr)`` pair — so each call records span ``name``.
        ``on_result(attrs, result)`` may add attributes to the span."""
        owner, attr = resolve_owner(target) if isinstance(target, str) else target
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr,
                _make_wrapper(self.recorder, name, original, on_result))
        self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> self seconds: the span's duration minus the part of it
    its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def ancestors(spans) -> dict:
    """Span id -> tuple of ancestor names, nearest first."""
    by_id = {s["id"]: s for s in spans}
    out = {}
    for s in spans:
        names = []
        parent = s["parent"]
        while parent is not None and parent in by_id:
            names.append(by_id[parent]["name"])
            parent = by_id[parent]["parent"]
        out[s["id"]] = tuple(names)
    return out


def chrome_trace(processes) -> dict:
    """Chrome-trace JSON for ``[(pid, label, spans), ...]``: complete
    ("X") events in microseconds from the earliest span."""
    starts = [s["start"] for _, _, spans in processes for s in spans]
    t0 = min(starts) if starts else 0.0
    events = []
    for pid, label, spans in processes:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        for s in spans:
            events.append({
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": (s["start"] - t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": pid,
                "tid": s["tid"],
                "args": {"id": s["id"], "parent": s["parent"], **s["attrs"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
