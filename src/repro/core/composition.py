"""Controller composition: strategy objects declared per design.

A :class:`~repro.config.SimConfig` no longer selects a monolithic
controller class — it selects a :class:`ControllerSpec`, which declares
the design as a composition of three strategy seams:

* a **WPQ-protection strategy** (the write path): direct insertion
  (non-secure ideal, Fig 5-c, eADR), the full pre-WPQ security front
  (Fig 5-b baseline, Triad-NVM, SuperMem write-through), or the Dolos
  Mi-SU engine (full/partial/post WPQ protection, Section 4.3);
* a **Ma-SU update strategy** (the drain side): a plain device-timing
  drain for already-secured entries, or the Figure 11 Ma-SU back-end
  that re-secures entries as they leave the queue (serial eager, lazy
  ToC, or Freij-style pipelined tree updates — picked by
  ``SecurityConfig.tree_update``);
* a **persistence-domain policy** (what a power failure means): secured
  pre-WPQ (nothing to drain), ADR + Mi-SU (the Dolos drain), an
  infeasible unprotected queue (Fig 5-c), or a battery-backed eADR
  domain.

:class:`~repro.core.controller.MemoryController` assembles the declared
strategies; the per-design classes are thin ``kind`` tags.  Every path
is a chain of callback stages on the simulation kernel, and every
configuration is pinned bit-identically by ``tests/test_composition.py``
and the golden suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.config import ControllerKind
from repro.core.requests import WriteRequest
from repro.engine import Signal
from repro.engine.resources import PipelineLane, Resource

#: Cycles between WPQ drain command issues (scheduler bandwidth);
#: NVM bank busy-times provide the real throughput limit.
DRAIN_ISSUE_INTERVAL = 4


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative composition of one memory-controller organisation."""

    kind: ControllerKind
    #: Build a Major Security Unit (full-memory security pipeline).
    has_masu: bool = True
    #: Build a Minor Security Unit + its ADR drain (WPQ protection).
    has_misu: bool = False
    #: WPQ-protection strategy (write path): a key into
    #: :data:`WRITE_STRATEGIES`.
    protection: str = "direct"
    #: Ma-SU update strategy (drain side): a key into
    #: :data:`DRAIN_STRATEGIES`.
    update: str = "plain"
    #: Persistence-domain policy: a key into :data:`DOMAINS`.
    domain: str = "presecured"
    #: Whether the plain drain writes the request's raw bytes to the
    #: device.  True when the WPQ holds the final plaintext; False when
    #: a pre-WPQ security front already wrote the ciphertext at submit
    #: time (draining the plaintext over it would corrupt the image).
    drain_writes_data: bool = True
    #: Direct insertion marks entries protected on commit (the entry is
    #: inside a battery-backed persistence domain).
    marks_protected: bool = False
    #: WPQ capacity policy: "budget" (full ADR budget), "misu" (sized by
    #: the Mi-SU design's ADR split), or "eadr" (cache-scale buffer).
    wpq_sizing: str = "budget"
    #: Buffered dirty lines for the "eadr" sizing policy.
    eadr_buffer_entries: int = 512


#: One spec per Figure 5 organisation plus the designs grown on top of
#: the strategy seams (ROADMAP item 3).  Triad-NVM and SuperMem
#: write-through share the pre-WPQ composition — their models live in
#: ``SecurityConfig`` (``triad_persist_levels``/``counter_write_through``),
#: exactly as the eager/lazy split always has.
CONTROLLER_SPECS = {
    ControllerKind.NON_SECURE_IDEAL: ControllerSpec(
        kind=ControllerKind.NON_SECURE_IDEAL,
        has_masu=False,
        protection="direct",
        update="plain",
        domain="volatile",
        drain_writes_data=True,
    ),
    ControllerKind.PRE_WPQ_SECURE: ControllerSpec(
        kind=ControllerKind.PRE_WPQ_SECURE,
        protection="masu-front",
        update="plain",
        domain="presecured",
        drain_writes_data=False,
    ),
    ControllerKind.TRIAD_NVM: ControllerSpec(
        kind=ControllerKind.TRIAD_NVM,
        protection="masu-front",
        update="plain",
        domain="presecured",
        drain_writes_data=False,
    ),
    ControllerKind.WRITE_THROUGH: ControllerSpec(
        kind=ControllerKind.WRITE_THROUGH,
        protection="masu-front",
        update="plain",
        domain="presecured",
        drain_writes_data=False,
    ),
    ControllerKind.DOLOS: ControllerSpec(
        kind=ControllerKind.DOLOS,
        has_misu=True,
        protection="misu",
        update="masu-backend",
        domain="adr-misu",
        wpq_sizing="misu",
    ),
    ControllerKind.POST_WPQ_HYPOTHETICAL: ControllerSpec(
        kind=ControllerKind.POST_WPQ_HYPOTHETICAL,
        has_misu=True,
        protection="direct",
        update="masu-backend",
        domain="unprotected",
    ),
    ControllerKind.EADR_SECURE: ControllerSpec(
        kind=ControllerKind.EADR_SECURE,
        has_misu=True,
        protection="direct",
        update="masu-backend",
        domain="eadr-battery",
        marks_protected=True,
        wpq_sizing="eadr",
    ),
}


def controller_spec(kind: ControllerKind) -> ControllerSpec:
    """The composition spec for ``kind``."""
    return CONTROLLER_SPECS[kind]


# ======================================================================
# WPQ-protection strategies (the write path)
# ======================================================================
# The controller stamps a write and starts it at the current cycle; the
# strategy's ``submit_write(request, done)`` is the entry stage.  Every
# strategy then reaches the controller's shared allocation stage, which
# calls back the strategy's ``allocated(entry, request, done)``, and
# ends in the controller's ``_write_done``.
class DirectInsertWrite:
    """Commit on WPQ arrival; no security on the insertion path.

    Serves the non-secure ideal, Fig 5-c (whose security runs strictly
    after the queue) and secure eADR (whose entries are protected by the
    battery-backed domain the moment they commit).
    """

    def __init__(self, controller) -> None:
        self.c = controller
        self.marks_protected = controller.spec.marks_protected

    def submit_write(self, request: WriteRequest, done: Optional[Signal]) -> None:
        self.c._allocate(request, done)

    def allocated(self, entry, request: WriteRequest, done: Optional[Signal]) -> None:
        # Queue insertion takes one cycle.
        self.c.sim.call_after(1, partial(self._inserted, entry, done))

    def _inserted(self, entry, done: Optional[Signal]) -> None:
        if self.marks_protected:
            entry.protected = True  # inside the (battery-backed) domain
        self.c._write_done(entry, done)


class MaSUFrontWrite(DirectInsertWrite):
    """The full security pipeline *before* WPQ insertion (Fig 5-b).

    The Ma-SU is a single serialized pipeline; persists queue behind
    each other's counter fetches, AES, and tree-update MAC chains
    before they are considered persisted.  Triad-NVM and SuperMem
    write-through use the same front with relaxed critical-path models
    (``SecurityConfig.masu_critical_hash_latency``).  Once secured, a
    write is inserted exactly like a direct one.
    """

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.lane = PipelineLane(
            controller.config.security.masu_issue_interval, "security-unit"
        )

    def submit_write(self, request: WriteRequest, done: Optional[Signal]) -> None:
        c = self.c
        now = c.sim.now
        # Security first (the persist critical path of the baseline).
        # The unit is pipelined: it accepts a new write every issue
        # interval, but each write's full metadata/MAC latency must
        # elapse before the write may enter the persistence domain.
        latency = c.masu.write_pipeline_latency(
            now, request.address, critical_path=True
        )
        _start, finish = self.lane.book(now, latency)
        if request.data is not None:
            c.masu.secure_write(request.address, request.data)
        c.sim.call_after(finish - now, partial(self._secured, request, done))

    def _secured(self, request: WriteRequest, done: Optional[Signal]) -> None:
        self.c.stats.add("security.pre_wpq_ops")
        # Then persist: WPQ insertion.
        self.c._allocate(request, done)


class MiSUWriteEngine:
    """Dolos Mi-SU protection (Section 4.3).

    A write holds the Mi-SU port from its busy check through slot
    allocation, then runs XOR + MAC(s) on the pipelined Mi-SU MAC engine
    before it commits (Full/Partial), or commits at once and protects
    afterwards on the deferred engine (Post).
    """

    def __init__(self, controller) -> None:
        self.c = controller
        #: Serializes slot allocation so coalescing/allocation stay FIFO.
        self.port = Resource(controller.sim, 1, "misu")
        #: Mi-SU's pipelined MAC engine.
        self.lane = PipelineLane(
            controller.config.security.misu_issue_interval, "misu-mac"
        )
        #: The Mi-SU flavour is fixed per run; resolve the per-write
        #: branches once.
        self.deferred = controller.misu.deferred

    # -- write ----------------------------------------------------------
    def submit_write(self, request: WriteRequest, done: Optional[Signal]) -> None:
        self.port.acquire(partial(self._port_held, request, done))

    def _port_held(self, request: WriteRequest, done: Optional[Signal]) -> None:
        # Post-WPQ-MiSU: a previous deferred secure op may still be
        # running; only one may be outstanding (Section 4.3).
        c = self.c
        if self.deferred and c.misu.is_busy(c.sim.now):
            wait = c.misu.busy_until - c.sim.now
            c.stats.add("misu.busy_stalls")
            c.stats.add("misu.busy_wait_cycles", wait)
            c.sim.call_after(wait, partial(c._allocate, request, done))
            return
        c._allocate(request, done)

    def allocated(self, entry, request: WriteRequest, done: Optional[Signal]) -> None:
        c = self.c
        sim = c.sim
        misu = c.misu
        if self.deferred:
            # Commit immediately; the secure op runs post-commit on the
            # (reservable-by-ADR) deferred engine.  The port is held
            # through commit so the "at most one outstanding deferred
            # op" invariant (Section 4.3) cannot be raced.
            sim.call_after(
                misu.insertion_latency(),
                partial(self._deferred_commit, entry, done),
            )
            return
        # Full/Partial: XOR + MAC(s) before commit, on the pipelined
        # Mi-SU MAC engine (the port is released as soon as the op is
        # booked, so inserts pipeline at the engine's initiation
        # interval).
        _start, finish = self.lane.book(sim.now, misu.insertion_latency())
        self.port.release()
        sim.call_after(
            finish - sim.now, partial(self._protect, entry, request, done)
        )

    def _deferred_commit(self, entry, done: Optional[Signal]) -> None:
        c = self.c
        entry.mac_pending = True
        entry.protected = True  # committed; ADR covers the MAC
        deferred_done = c.misu.start_deferred(c.sim.now)
        c.sim.call_after(
            deferred_done - c.sim.now, partial(self._finish_deferred, entry)
        )
        self.port.release()
        c._write_done(entry, done)

    def _protect(self, entry, request: WriteRequest, done: Optional[Signal]) -> None:
        c = self.c
        if request.data is not None:
            c.misu.protect(entry)
        entry.protected = True
        c.stats.add("misu.protected")
        if c.timeline is not None:
            c.timeline.event(
                c.sim.now, "misu.protect", f"{entry.index}:{request.seq}"
            )
        c._write_done(entry, done)

    def _finish_deferred(self, entry) -> None:
        """Complete a Post-WPQ deferred protection."""
        c = self.c
        if entry.occupied and entry.request is not None:
            if entry.request.data is not None:
                c.misu.protect(entry)
            entry.mac_pending = False
            c.stats.add("misu.protected")
            if c.timeline is not None:
                c.timeline.event(
                    c.sim.now,
                    "misu.protect",
                    f"{entry.index}:{entry.request.seq}",
                )

    # -- read -----------------------------------------------------------
    def read(self, address: int) -> Signal:
        # The read stages are the controller's; this stays a named entry
        # point for the ``core.controller`` span of perfbench/layers.py.
        return self.c.read(address)


# ======================================================================
# Ma-SU update strategies (the drain side)
# ======================================================================
# A drain is a re-arming issue callback: ``issue`` sends the oldest
# pending entry toward NVM and schedules itself for the next issue slot,
# or waits for the next insertion when the queue is empty.
class PlainDrain:
    """Drain already-secured entries: pipelined NVM writes.

    Used by controllers whose entries need no post-WPQ security (direct
    non-secure persistence and the pre-WPQ security fronts).  The loop
    issues one write per interval; completions free slots when the bank
    write finishes, so independent banks overlap.
    """

    def __init__(self, controller) -> None:
        self.c = controller
        self.writes_data = controller.spec.drain_writes_data

    def issue(self, _value=None) -> None:
        c = self.c
        sim = c.sim
        entry = c.wpq.oldest_pending()
        if entry is None:
            c.entry_added.subscribe(self.issue)
            return
        c.wpq.begin_fetch(entry)
        assert entry.request is not None
        accepted, _done = c.nvm.timed_write_accept(sim.now, entry.request.address)
        sim.call_after(
            accepted - sim.now, partial(self._complete, entry, entry.request)
        )
        # The next command can issue once this one is accepted (the
        # command bus is serial) or after the issue interval.
        sim.call_after(max(DRAIN_ISSUE_INTERVAL, accepted - sim.now), self.issue)

    def _complete(self, entry, request: WriteRequest) -> None:
        c = self.c
        if request.data is not None and self.writes_data:
            c.nvm.write_line(request.address, request.data)
        c.wpq.mark_cleared(entry)
        c.stats.add("wpq.drained")
        c.slot_freed.fire(entry)


class MaSUBackendDrain:
    """Ma-SU's Figure 11 loop: fetch, re-secure, write back, clear.

    The back-end is pipelined: a new entry issues every Ma-SU initiation
    interval while each entry's full metadata latency elapses before its
    redo log is ready (and hence before the WPQ slot can be reclaimed).
    The initiation interval itself comes from the configured tree-update
    scheme (serial eager, lazy ToC, or Freij-style pipelined updates).
    """

    def __init__(self, controller) -> None:
        self.c = controller
        #: Ma-SU's pipelined back-end (drain side).
        self.lane = PipelineLane(
            controller.config.security.masu_issue_interval, "masu"
        )

    def issue(self, _value=None) -> None:
        c = self.c
        sim = c.sim
        entry = c.wpq.oldest_pending()
        if entry is None:
            c.entry_added.subscribe(self.issue)
            return
        if entry.mac_pending:
            # Let the deferred Mi-SU op finish before consuming.
            sim.call_after(c.config.security.mac_latency, self.issue)
            return
        c.wpq.begin_fetch(entry)
        assert entry.request is not None
        request = entry.request
        # Step 1 (XOR decrypt, 1 cycle) + step 2 (full security
        # processing into the redo log) on the pipelined back-end.
        latency = 1 + c.masu.write_pipeline_latency(sim.now, request.address)
        _start, finish = self.lane.book(sim.now, latency)
        sim.call_at(finish, partial(self._complete, entry, request))
        # Next issue no earlier than the lane's next free slot.
        wait = self.lane._next_start - sim.now
        sim.call_after(wait if wait > 1 else 1, self.issue)

    def _complete(self, entry, request: WriteRequest) -> None:
        c = self.c
        address = request.address
        if request.data is not None:
            c.masu.secure_write(address, request.data)
        elif c.timeline is not None:
            # Timing-only runs never reach the wrapped masu.stage/apply
            # (no data bytes), so emit the Fig 11 step-2/3 instants here
            # for span assembly.  Functional (oracle) runs keep their
            # event stream unchanged — the wrappers already cover them.
            c.timeline.event(c.sim.now, "masu.stage", str(entry.index))
            c.timeline.event(c.sim.now, "masu.commit", str(entry.index))
        # Step 3 (background): the ciphertext write to NVM; bank time is
        # booked but nothing waits on it.  Metadata and shadow updates
        # land in the metadata caches / the small sequential shadow
        # region (row-buffer hits) and do not occupy data banks.
        c.nvm.timed_access(c.sim.now, address, True)
        # Step 4: clear the entry, freeing the slot, and reseal its MAC
        # (the cleared flag is in the MAC domain).
        c.wpq.mark_cleared(entry)
        c.misu.reseal_cleared(entry)
        c.stats.add("masu.writes")
        c.slot_freed.fire(entry)


# ======================================================================
# Persistence-domain policies (what a power failure means)
# ======================================================================
class VolatileDomain:
    """No secured persistence story: the non-secure ideal reference."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        raise RuntimeError(
            "the non-secure ideal has no secured crash-drain path; it "
            "exists as the overhead reference, not as a recoverable design"
        )


class PreSecuredDomain:
    """Security completed before WPQ insertion; ADR has nothing to do."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        """Power failure with a pre-WPQ security front.

        Every queued write already went through the full security
        pipeline *before* WPQ insertion — its ciphertext, counters,
        MACs and tree update are in NVM/persistent registers.  ADR has
        nothing to re-secure; the queue contents are redundant copies
        and are simply dropped (there is no drained image to replay).
        """
        return []


class ADRMiSUDomain:
    """Dolos: ADR drains the Mi-SU-protected WPQ image (recovery pkg)."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        """Power failure: drain the WPQ on ADR energy."""
        c = self.c
        misu = c.misu
        pending = 0
        if misu.deferred:
            # ADR reserves energy to finish at most one deferred MAC.
            for entry in c.wpq.occupied_entries():
                if entry.mac_pending and entry.request is not None:
                    if entry.request.data is not None:
                        misu.protect(entry)
                    entry.mac_pending = False
                    pending += 1
        return c.adr_drain.drain(c.wpq, pending_macs=pending)


class UnprotectedDomain:
    """Fig 5-c: the queue is unprotected; ADR cannot drain it securely."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):  # pragma: no cover - exercised via recovery tests
        raise RuntimeError(
            "Fig 5-c cannot drain within the ADR budget: entries are "
            "unprotected and the security pipeline needs external power"
        )


class EADRBatteryDomain:
    """Secure eADR: a non-standard battery must drain the cache domain."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        """Quantify why this needs a non-standard battery."""
        c = self.c
        pending = c.wpq.occupancy
        energy = pending * (1 + c.config.security.masu_hash_latency // 100)
        raise RuntimeError(
            f"eADR drain needs the full security pipeline over {pending} "
            f"buffered lines (~{energy} ADR-entry-equivalents of energy) — "
            "beyond the standard ADR budget; use Dolos instead"
        )

    def battery_drain(self):
        """Power failure *with* the non-standard battery fitted.

        The battery runs the full Ma-SU pipeline over every buffered
        line in FIFO order (exactly what the lazy drain loop would have
        done), leaving nothing for ADR to flush — the drained WPQ image
        is empty.  The Ma-SU's volatile in-flight bookkeeping is lost,
        but an in-flight entry whose completion callback had not run is
        still occupied and is re-processed here; a completed entry was
        cleared atomically with its ``secure_write`` and is skipped.
        """
        c = self.c
        for entry in c.wpq.entries:
            entry.in_flight = False
        flushed = 0
        while True:
            entry = c.wpq.oldest_pending()
            if entry is None:
                break
            request = entry.request
            if request is not None and request.data is not None:
                c.masu.secure_write(request.address, request.data)
            c.wpq.mark_cleared(entry)
            c.misu.reseal_cleared(entry)
            flushed += 1
        c.stats.add("eadr.battery_flushes", flushed)
        return c.adr_drain.drain(c.wpq)


# ======================================================================
# Strategy registries (spec keys -> classes)
# ======================================================================
WRITE_STRATEGIES = {
    "direct": DirectInsertWrite,
    "masu-front": MaSUFrontWrite,
    "misu": MiSUWriteEngine,
}

DRAIN_STRATEGIES = {
    "plain": PlainDrain,
    "masu-backend": MaSUBackendDrain,
}

DOMAINS = {
    "volatile": VolatileDomain,
    "presecured": PreSecuredDomain,
    "adr-misu": ADRMiSUDomain,
    "unprotected": UnprotectedDomain,
    "eadr-battery": EADRBatteryDomain,
}
