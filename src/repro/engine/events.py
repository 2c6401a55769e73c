"""Event primitives for the simulation kernel.

An :class:`Event` is a callback scheduled at an absolute cycle.  Events
with equal timestamps fire in scheduling order (FIFO), which keeps the
simulation deterministic regardless of heap internals.

Internally the queue stores plain tuples, not :class:`Event` objects:
``(time, seq, callback)`` for the non-cancellable callbacks the
simulator's hot loop schedules (``Simulator.call_after``) and
``(time, seq, callback, event)`` for cancellable events.  Tuple
comparison resolves entirely on ``(time, seq)`` (sequence numbers are
unique), so every heap operation runs on C-level comparisons.

Cancelled entries stay in the heap (removing an arbitrary heap element
is O(n)) but are *accounted*: every :meth:`Event.cancel` bumps a dead
counter, and once dead entries outnumber live ones the queue compacts
in one O(n) pass.  This bounds the heap at twice the live-event count
no matter how many events a workload schedules and abandons, where the
old design retained every corpse until it happened to reach the top.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute cycle at which the event fires.
        seq: tie-breaking sequence number (scheduling order).
        callback: zero-argument callable invoked when the event fires.
        cancelled: set via :meth:`cancel`; cancelled events are skipped.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "_queue")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], Any],
        label: Optional[str] = None,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel drops it instead of firing it.

        Idempotent.  The owning queue is notified so it can compact its
        heap once dead entries dominate (see :class:`EventQueue`).
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue.note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.callback, "__name__", "<fn>")
        return f"Event(t={self.time}, seq={self.seq}, {name}, {state})"


class EventQueue:
    """A deterministic min-heap of scheduled callbacks."""

    __slots__ = ("_heap", "_seq", "_dead")

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        self._seq = 0
        #: Cancelled-but-still-heaped entries (drives lazy compaction).
        self._dead = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def live_count(self) -> int:
        """Scheduled events that have not been cancelled."""
        return len(self._heap) - self._dead

    def push(
        self,
        time: int,
        callback: Callable[[], Any],
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (cancellable)."""
        event = Event(time, self._seq, callback, label, self)
        heapq.heappush(self._heap, (time, self._seq, callback, event))
        self._seq += 1
        return event

    # ------------------------------------------------------------------
    # Cancellation accounting / compaction
    # ------------------------------------------------------------------
    def note_cancelled(self) -> None:
        """Record one cancellation; compact once corpses dominate.

        Compaction is amortised O(1) per cancel: a pass over ``n``
        entries is only paid after at least ``n/2`` cancellations.
        """
        self._dead += 1
        if self._dead * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry and re-heapify (one O(n) pass).

        Rebuilds *in place* (slice assignment): the kernel's drain loop
        binds the heap list locally, so the list object's identity must
        survive a compaction triggered by a mid-run ``cancel()``.
        """
        heap = self._heap
        heap[:] = [
            entry
            for entry in heap
            if len(entry) != 4 or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self._dead = 0

    def _discard_dead(self, count: int) -> None:
        """Adjust the dead counter for entries dropped by a pop."""
        if count:
            self._dead -= count
            if self._dead < 0:  # pragma: no cover - defensive
                self._dead = 0

    # ------------------------------------------------------------------
    def pop_live(self) -> Optional[Tuple]:
        """Pop the earliest *live* entry, discarding cancelled ones.

        Returns the raw heap entry ``(time, seq, callback[, event])`` or
        ``None`` when the queue is empty (``Simulator.step``'s accessor).
        """
        heap = self._heap
        pop = heapq.heappop
        dead = 0
        while heap:
            entry = pop(heap)
            if len(entry) == 4 and entry[3].cancelled:
                dead += 1
                continue
            self._discard_dead(dead)
            return entry
        self._discard_dead(dead)
        return None

    def peek_time(self) -> Optional[int]:
        """Return the timestamp of the earliest live event, or ``None``.

        Cancelled events at the head of the heap are discarded as a side
        effect, so the returned time always belongs to a live event.
        """
        heap = self._heap
        dead = 0
        while heap:
            entry = heap[0]
            if len(entry) == 4 and entry[3].cancelled:
                heapq.heappop(heap)
                dead += 1
                continue
            self._discard_dead(dead)
            return entry[0]
        self._discard_dead(dead)
        return None

    def requeue(self, entries: List[Tuple]) -> None:
        """Push raw entries back (undelivered cycle remainder on stop)."""
        heap = self._heap
        push = heapq.heappush
        for entry in entries:
            push(heap, entry)

    def clear(self) -> None:
        self._heap.clear()
        self._dead = 0
