"""Shared resources for callback stages: counting resources and lanes."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple

from repro.engine.kernel import SimulationError, Simulator


class Resource:
    """A counting resource (semaphore) with FIFO granting.

    A stage acquires with ``resource.acquire(then)``: ``then()`` runs
    once a unit is claimed — synchronously when one is free, otherwise
    when a release hands it over.  Every acquisition must be released
    exactly once.  Used to model single-ported structures such as the
    Mi-SU insertion port.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.name = name
        #: Blocked acquirers: (continuation, cycle it started waiting).
        self._wait_queue: Deque[Tuple[Callable[[], None], int]] = deque()
        self.total_acquisitions = 0
        self.total_wait_cycles = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self, then: Callable[[], None]) -> None:
        """Claim a unit, then call ``then()``; waits FIFO when none is free."""
        if self.in_use < self.capacity and not self._wait_queue:
            self.in_use += 1
            self.total_acquisitions += 1
            then()
            return
        self._wait_queue.append((then, self._sim.now))

    def try_acquire(self) -> bool:
        """Claim a unit without waiting.  Returns ``False`` if none free."""
        if self.in_use < self.capacity and not self._wait_queue:
            self.in_use += 1
            self.total_acquisitions += 1
            return True
        return False

    def release(self) -> None:
        """Return a unit; wakes the longest-waiting acquirer, if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self.in_use -= 1
        if self._wait_queue:
            then, started = self._wait_queue.popleft()
            self.total_wait_cycles += self._sim.now - started
            self.in_use += 1
            self.total_acquisitions += 1
            then()


class PipelineLane:
    """Booking calendar for a pipelined hardware unit.

    The unit accepts a new operation every ``interval`` cycles
    (initiation interval) while each operation's own latency may be much
    larger — the classic latency/throughput split of a pipelined MAC or
    metadata-update engine.  ``book`` never blocks; callers schedule
    their next stage at the returned completion time.
    """

    def __init__(self, interval: int, name: str = "") -> None:
        if interval < 1:
            raise SimulationError(f"pipeline interval must be >= 1, got {interval}")
        self.interval = interval
        self.name = name
        self._next_start = 0
        self.operations = 0
        self.busy_cycles = 0

    def book(self, now: int, latency: int) -> "tuple[int, int]":
        """Reserve the next issue slot at/after ``now``.

        Returns ``(start, done)`` where ``done = start + latency``.
        """
        next_start = self._next_start
        start = now if now > next_start else next_start
        interval = self.interval
        self._next_start = start + interval
        self.operations += 1
        self.busy_cycles += interval
        return start, start + latency

    def next_free(self, now: int) -> int:
        """Earliest cycle a new operation could start."""
        next_start = self._next_start
        return now if now > next_start else next_start
