"""Spans around the program's public functions, recorded from outside.

The benchmark does not rely on the program's own telemetry: it replaces
public functions and methods with thin wrappers that record one span
``(id, parent, name, start, end)`` per call, or bump a counter.  Spans are
kept in memory in a flat ``array`` (40 bytes each, so a cohort run's
hundreds of thousands of spans stay small) and written out when the
benchmark ends.  A layer's self time is its spans' duration minus the
part covered by their child spans.

Each target names every binding it replaces: ``from x import f`` copies
``f`` into the importing module, so :func:`install` rebinds the function
in every loaded ``repro`` module that holds it.  A target that rebinds
nothing raises, so a renamed function cannot silently leave a layer
unmeasured; a target that records no call on a workload that should
exercise it is reported by :func:`zero_call_targets`.
"""

from __future__ import annotations

import array
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    *path* is ``module:attr`` for a function or ``module:Class.method``
    for a method.  A ``span`` target records a span named *name*; a
    ``count`` target only adds ``amount(result, args)`` to counter
    *name* (used on calls too hot or too fine-grained to be spans).
    """

    path: str
    name: str
    kind: str = "span"
    amount: Callable[[Any, tuple], float] | None = None
    #: Added to the counter as its growth across the call, e.g. the nodes
    #: a compile adds to a circuit pool: ``grows(args)`` after - before.
    grows: Callable[[tuple], float] | None = None


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    _FIELDS = 5  # id, parent, name code, start ns, end ns

    def __init__(self) -> None:
        self.spans = array.array("q")
        self._names: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Calls and counters are per thread (a shared ``+=`` would lose
        # updates between server worker threads) and summed on read.
        self._threads: list[tuple[dict[str, int], dict[str, float]]] = []
        self._threads_lock = threading.Lock()

    def _state(self) -> "_ThreadState":
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._threads_lock:
                self._threads.append((state.calls, state.counters))
        return state

    @property
    def calls(self) -> dict[str, int]:
        """Calls recorded per span or counter name, over all threads."""
        return self._merge(0)

    @property
    def counters(self) -> dict[str, float]:
        """Counter totals per name, over all threads."""
        return self._merge(1)

    def _merge(self, field: int) -> dict:
        merged: dict = defaultdict(int)
        with self._threads_lock:
            for pair in self._threads:
                for name, value in list(pair[field].items()):
                    merged[name] += value
        return merged

    def code(self, name: str) -> int:
        code = self._names.get(name)
        if code is None:
            code = self._names.setdefault(name, len(self._names))
        return code

    def names(self) -> list[str]:
        ordered = [""] * len(self._names)
        for name, code in self._names.items():
            ordered[code] = name
        return ordered

    def span_wrapper(self, fn: Callable, target: Target) -> Callable:
        code = self.code(target.name)
        amount = target.amount
        grows = target.grows
        state_of = self._state
        ids = self._ids
        spans = self.spans
        name = target.name
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            before = grows(args) if grows is not None else 0
            state = state_of()
            stack = state.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # One C-level extend: a span's five fields land together
                # even with server worker threads recording concurrently.
                spans.extend((sid, parent, code, start, end))
                state.calls[name] += 1
            if amount is not None:
                state.counters[name] += amount(result, args)
            if grows is not None:
                state.counters[name] += grows(args) - before
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def count_wrapper(self, fn: Callable, target: Target) -> Callable:
        amount = target.amount
        state_of = self._state
        name = target.name

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            state = state_of()
            state.calls[name] += 1
            state.counters[name] += 1 if amount is None else amount(result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def root_span(self, name: str) -> "_RootSpan":
        """A span opened by the benchmark itself, e.g. around one ask."""
        return _RootSpan(self, name)

    # -- reading -----------------------------------------------------------

    def rows(self) -> list[tuple[int, int, str, int, int]]:
        names = self.names()
        data = self.spans
        return [
            (data[i], data[i + 1], names[data[i + 2]], data[i + 3], data[i + 4])
            for i in range(0, len(data), self._FIELDS)
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end in self.rows():
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


class _ThreadState:
    __slots__ = ("stack", "calls", "counters")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)


class _RootSpan:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._code = recorder.code(name)
        self._name = name

    def __enter__(self) -> "_RootSpan":
        recorder = self._recorder
        stack = recorder._state().stack
        self._sid = next(recorder._ids)
        self._parent = stack[-1] if stack else 0
        stack.append(self._sid)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        recorder = self._recorder
        state = recorder._state()
        state.stack.pop()
        recorder.spans.extend(
            (self._sid, self._parent, self._code, self._start, end)
        )
        state.calls[self._name] += 1


def _resolve(path: str) -> tuple[Any, str, Any]:
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, parts[-1], owner


def install(recorder: Recorder, targets: list[Target]) -> None:
    """Replace every target with its recording wrapper."""
    for target in targets:
        _module, attr, owner = _resolve(target.path)
        factory = (
            recorder.span_wrapper if target.kind == "span" else recorder.count_wrapper
        )
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise LookupError(f"{target.path}: no such method")
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(factory(raw.__func__, target)))
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(factory(raw.__func__, target)))
            else:
                setattr(owner, attr, factory(raw, target))
            continue
        original = getattr(owner, attr)
        wrapped = factory(original, target)
        rebound = 0
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    rebound += 1
        if rebound == 0:
            raise LookupError(f"{target.path}: no module binds it")


def zero_call_targets(calls: dict[str, int], expected: list[str]) -> list[str]:
    """Expected span/counter names that recorded no call."""
    return [name for name in expected if not calls.get(name)]


# -- aggregation -------------------------------------------------------------


def layer_times(
    recorder: Recorder,
) -> tuple[dict[tuple[str, str], float], dict[str, list[float]]]:
    """Self time per ``(root name, span name)`` and durations per root.

    Times are in milliseconds.  The root of a span is its outermost
    ancestor; a root's own self time is the work no wrapped layer claims.
    """
    rows = recorder.rows()
    parent_of = {sid: parent for sid, parent, _n, _s, _e in rows}
    name_of = {sid: name for sid, _p, name, _s, _e in rows}
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, end in rows:
        if parent:
            child_ns[parent] += end - start
    root_cache: dict[int, int] = {}

    def root_of(sid: int) -> int:
        trail = []
        while True:
            if sid in root_cache:
                found = root_cache[sid]
                break
            parent = parent_of.get(sid, 0)
            if not parent or parent not in parent_of:
                found = sid
                break
            trail.append(sid)
            sid = parent
        for visited in trail:
            root_cache[visited] = found
        root_cache[sid] = found
        return found

    self_ms: dict[tuple[str, str], float] = defaultdict(float)
    root_durations: dict[str, list[float]] = defaultdict(list)
    for sid, parent, name, start, end in rows:
        root = name_of[root_of(sid)]
        self_ms[(root, name)] += (end - start - child_ns[sid]) / 1e6
        if not parent:
            root_durations[name].append((end - start) / 1e6)
    return self_ms, root_durations
