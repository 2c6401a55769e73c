"""In-memory span tracer that wraps the program's functions from outside.

A span is one call of a wrapped function: its name, its duration and the
span that was open on the same thread when it started (its parent).
Spans are folded as they close into per-thread totals, so the hot path
takes no lock and keeps no per-call record, except for the few names
whose latency distribution is reported (``sampled``).

Self time is a span's duration minus the durations of its direct child
spans, so per thread the self times of all spans add up to the time
covered by that thread's outermost spans.  When a span nests inside one
of the same name (a recursive call, or ``mac_over_fields`` calling
``compute_mac`` under one name), only the outermost counts as a call;
the inner one still contributes its self time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: after(state, args, result, token, outer, parent_name): count work
#: from a finished call.  ``token`` is what ``before(args)`` returned.
AfterHook = Callable[..., None]


class ThreadState:
    """Everything one thread recorded."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Open frames: [span name, summed duration of direct children].
        self.stack: List[list] = []
        #: name -> [outermost calls, outermost total ns, self ns]
        self.spans: Dict[str, List[int]] = {}
        #: name -> inclusive ns of each outermost call (sampled names).
        self.samples: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        #: ns covered by this thread's outermost spans.
        self.root_ns = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


class Tracer:
    """Wraps callables so each call records a span."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[ThreadState] = []

    def _state(self) -> ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        sampled: bool = False,
        before: Optional[Callable] = None,
        after: Optional[AfterHook] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        clock = time.perf_counter_ns
        local = self._local
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [name, 0]
            token = before(args) if before is not None else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is None:
                    state.root_ns += elapsed
                else:
                    parent[1] += elapsed
                outer = parent is None or parent[0] != name
                record = state.spans.get(name)
                if record is None:
                    record = state.spans[name] = [0, 0, 0]
                if outer:
                    record[0] += 1
                    record[1] += elapsed
                    if sampled:
                        state.samples.setdefault(name, []).append(elapsed)
                record[2] += elapsed - frame[1]
            if after is not None:
                after(state, args, result, token, outer,
                      parent[0] if parent else None)
            return result

        return traced

    def snapshot(self) -> dict:
        """Plain-JSON copy of everything recorded so far, per thread."""
        with self._lock:
            threads = list(self._threads)
        return {
            "threads": [
                {
                    "name": state.name,
                    "spans": {k: list(v) for k, v in state.spans.items()},
                    "samples": {k: list(v) for k, v in state.samples.items()},
                    "counters": dict(state.counters),
                    "root_ns": state.root_ns,
                }
                for state in threads
            ]
        }


def replace_everywhere(original: Callable, replacement: Callable,
                       prefix: str = "repro") -> int:
    """Rebind every loaded ``prefix`` module attribute that is ``original``.

    Modules imported later that do ``from module import name`` pick up
    the replacement from the defining module, which is rebound too.
    Returns the number of bindings replaced.
    """
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == prefix or module_name.startswith(prefix + ".")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def merge(snapshots: List[dict]) -> dict:
    """Fold many snapshots into one view keyed by span name."""
    spans: Dict[str, List[int]] = {}
    samples: Dict[str, List[int]] = {}
    counters: Dict[str, float] = {}
    for snapshot in snapshots:
        for thread in snapshot["threads"]:
            for name, (calls, total, own) in thread["spans"].items():
                record = spans.setdefault(name, [0, 0, 0])
                record[0] += calls
                record[1] += total
                record[2] += own
            for name, values in thread["samples"].items():
                samples.setdefault(name, []).extend(values)
            for name, value in thread["counters"].items():
                counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "samples": samples, "counters": counters}
