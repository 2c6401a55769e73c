"""The simulation kernel.

:class:`Simulator` owns the event queue and the notion of *now*.  All
hardware models in the reproduction (caches, WPQ, security units, NVM)
schedule their work through a shared ``Simulator`` instance as plain
callbacks; a multi-step hardware pipeline is a chain of callback stages,
each scheduling the next.  :class:`Signal` is the one-shot completion
handle a stage hands back to whoever waits on it (a persist, a read).

There is one drain loop (:meth:`Simulator.run`).  It pops *all* events
stamped with the earliest cycle in one heap sweep and dispatches them
from a flat list: ``now`` is written once per cycle, and cancelled
entries are dropped in the same pass (the queue additionally compacts
lazily when corpses dominate — see :mod:`repro.engine.events`).  Events
a callback schedules at the current cycle land in the next sweep of the
same cycle; their sequence numbers exceed every queued event, so the
firing order is exactly that of a one-event-at-a-time heap drain.
"""

from __future__ import annotations

import heapq
import sys
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from repro.engine.events import Event, EventQueue

#: "No limit" for the drain loop's cycle horizon and event budget.
_UNBOUNDED = sys.maxsize


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulator measuring time in integer cycles.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(10, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [10]
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue = EventQueue()
        self._stop_requested = False
        self.events_fired: int = 0
        #: Reused scratch list for the per-cycle sweep (allocated once).
        self._batch: List[Tuple] = []
        #: True while the drain still holds *undelivered* events for the
        #: current cycle in its batch list (they are out of the heap, so
        #: callers cannot see them by peeking).  Consulted by
        #: :meth:`call_now`.
        self._batch_pending = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], Any],
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        Args:
            delay: non-negative number of cycles in the future.
            callback: zero-argument callable.
            label: optional debugging label.

        Returns:
            The :class:`Event`, which may be cancelled before it fires.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        return self._queue.push(self.now + int(delay), callback, label)

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], Any],
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at an absolute cycle ``time >= now``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, already at {self.now}"
            )
        return self._queue.push(int(time), callback, label)

    def call_after(self, delay: int, callback: Callable[[], Any]) -> None:
        """Schedule a *non-cancellable* callback ``delay`` cycles from now.

        The lightweight sibling of :meth:`schedule`: no :class:`Event`
        object is allocated and no handle is returned, which makes it
        markedly cheaper for the stage callbacks that dominate the hot
        loop.  The heap push is inlined here — one C call, no
        queue-method hop.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        queue = self._queue
        heapq.heappush(
            queue._heap, (self.now + int(delay), queue._seq, callback)
        )
        queue._seq += 1

    def call_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule a non-cancellable callback at absolute ``time >= now``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, already at {self.now}"
            )
        queue = self._queue
        heapq.heappush(queue._heap, (int(time), queue._seq, callback))
        queue._seq += 1

    def call_now(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` at the current cycle.

        When nothing else is pending at this cycle the call runs
        synchronously — equivalent to scheduling it (anything queued
        later lands behind it in sequence order anyway) and one event
        cheaper.  With same-cycle events pending it is queued behind
        them, preserving exact FIFO interleaving.  Every request the
        controller accepts and every background loop starts through
        here.
        """
        heap = self._queue._heap
        if self._batch_pending or (heap and heap[0][0] == self.now):
            self.call_after(0, partial(callback, *args) if args else callback)
        else:
            callback(*args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Fire events in timestamp order until the queue is empty.

        Args:
            until: stop once the clock would pass this cycle (events at
                exactly ``until`` still fire) and leave the clock there.
            max_events: safety valve against runaway simulations.

        Raises:
            SimulationError: if ``until`` lies before the current cycle,
                or once ``max_events`` events fired in this call.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}, already at {self.now}"
            )
        self._stop_requested = False
        self._drain(
            _UNBOUNDED if until is None else until,
            _UNBOUNDED if max_events is None else max_events,
        )

    def _drain(self, horizon: int, budget: int) -> None:
        """The drain loop: one heap sweep per *cycle*.

        A cycle holding a single event (the common case in sparse
        regions of the schedule) skips the batch list entirely.  A
        stop request or an exhausted budget puts the undelivered rest
        of the cycle back on the heap, so a later run()/step() resumes
        exactly there.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        batch = self._batch
        fired = 0
        try:
            while heap:
                entry = heap[0]
                if len(entry) == 4 and entry[3].cancelled:
                    heappop(heap)
                    queue._discard_dead(1)
                    continue
                now = entry[0]
                if now > horizon:
                    self.now = horizon
                    return
                heappop(heap)
                self.now = now
                if not heap or heap[0][0] != now:
                    entry[2]()
                    fired += 1
                else:
                    batch.append(entry)
                    while heap and heap[0][0] == now:
                        entry = heappop(heap)
                        if len(entry) == 4 and entry[3].cancelled:
                            queue._discard_dead(1)
                            continue
                        batch.append(entry)
                    last = len(batch) - 1
                    self._batch_pending = True
                    for i, entry in enumerate(batch):
                        if i == last:
                            self._batch_pending = False
                        # Re-check: an earlier same-cycle event may have
                        # cancelled a later one after the sweep.
                        if len(entry) == 4 and entry[3].cancelled:
                            queue._discard_dead(1)
                            continue
                        entry[2]()
                        fired += 1
                        if fired >= budget or self._stop_requested:
                            queue.requeue(batch[i + 1:])
                            break
                    del batch[:]
                if fired >= budget:
                    raise SimulationError(
                        f"exceeded max_events={budget} (runaway simulation?)"
                    )
                if self._stop_requested:
                    return
        finally:
            self.events_fired += fired
            self._batch_pending = False
            del batch[:]

    def step(self) -> bool:
        """Fire the single earliest live event.  Returns ``False`` when idle."""
        entry = self._queue.pop_live()
        if entry is None:
            return False
        self.now = entry[0]
        entry[2]()
        self.events_fired += 1
        return True

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"


class Signal:
    """A broadcast one-shot rendezvous: the completion handle of a stage.

    Waiters subscribe a ``callback(value)``; any number of them are
    called, synchronously and in subscription order, by one
    :meth:`fire`.  A waiter that subscribes during a fire waits for the
    next one.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run on the next fire."""
        self._waiters.append(callback)

    def fire(self, value: Any = None) -> None:
        """Call all current waiters with ``value`` (immediately)."""
        self.fire_count += 1
        waiters = self._waiters
        if not waiters:
            return
        if len(waiters) == 1:
            # Detach before calling (a waiter may re-subscribe) but
            # reuse the list — no allocation on the hot one-waiter fire.
            waiter = waiters[0]
            waiters.clear()
            waiter(value)
            return
        self._waiters = []
        for waiter in waiters:
            waiter(value)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={self.waiter_count})"
