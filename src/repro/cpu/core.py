"""The trace-driven core.

The core replays a trace's resolved, memory-facing stream
(:mod:`repro.cpu.resolve`): the cache hierarchy, the work/IPC
arithmetic and which ops miss, evict or flush dirty do not depend on
the memory controller design, so a :class:`~repro.cpu.trace_io.PackedTrace`
resolves them once per hierarchy and every design replays the result.
What is left for the core is the part that does depend on the design:
handing fills, evictions and persists to the controller at the right
cycle, waiting on demand reads, and stalling on fences.

Persist semantics (the crux of the paper):

* ``clwb`` of a dirty line launches a writeback that reaches the memory
  controller after the hierarchy traversal latency; the controller's
  persist-completion signal decrements the outstanding count.
* ``sfence`` stalls the core until the outstanding count reaches zero —
  so every cycle of pre-WPQ security latency (baseline) or Mi-SU
  latency (Dolos) shows up in the fence stall, exactly the effect
  Figures 6 and 12 measure.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.config import SimConfig
from repro.core.controller import MemoryController
from repro.core.requests import WriteKind, WriteRequest
from repro.cpu.resolve import DELAY, DEMAND, EVICT, FILL, PERSIST
from repro.cpu.trace import (
    ARRIVAL_CYCLE_MASK,
    ARRIVAL_TENANT_SHIFT,
    OP_FENCE,
    OP_TXBEGIN,
    OP_TXEND,
)
from repro.cpu.trace_io import PackedTrace
from repro.engine import Signal, Simulator
from repro.stats import StatsRegistry


class TraceCore:
    """Replays one trace's resolved stream against a memory controller.

    Replay is a plain loop over the resolved ops (:meth:`_replay`).
    Fills and evictions go to the controller inline.  The loop parks,
    handing the kernel a bound-method continuation, only when simulated
    time must pass or the core must wait: a ``DELAY``, a demand read, a
    fence (or a strict-mode persist) while persists are outstanding,
    and a future arrival stamp.  Only the transaction/arrival/stall
    state and the pending demand's writebacks outlive a park, as
    attributes.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SimConfig,
        controller: MemoryController,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.controller = controller
        self.stats = stats if stats is not None else StatsRegistry()
        self.instructions = 0
        self.cycles = 0
        self.finished = False
        self._outstanding_persists = 0
        self._fence_signal = Signal(sim, "core.fence")
        self._strict = config.core.persist_model == "strict"
        #: Optional instrumentation (span tracing): when attached, the
        #: core logs one ``core.fence_stall`` event per fence wake-up.
        #: The hot path pays a single ``None`` check otherwise.
        self.timeline = None
        # -- the resolved trace (set by run) ------------------------------
        self._ops: Optional[Iterator[Tuple[int, int]]] = None
        self._demands: list = []
        self._flush_latency = 0
        self._trace_instructions = 0
        # -- replay state that outlives a park ----------------------------
        #: Dirty victims of a demand miss, written back once it returns.
        self._writebacks: Tuple = ()
        self._tx_start = 0
        # Open-loop bookkeeping (scenario traces only): the arrival stamp
        # preceding the current transaction, or -1 when the trace is
        # classic closed-loop.  Sojourn and queueing delay are recorded
        # at OP_TXEND, overall and per tenant.
        self._pending_arrival = -1
        self._pending_tenant = 0
        self._stall_start = 0
        #: Whether the current stall is an OP_FENCE (counted once it ends).
        #: A flag rather than a stored continuation: a bound method kept
        #: on the core is a reference cycle, which would keep every
        #: finished core alive until the cyclic collector happens to run.
        self._stall_is_fence = False

    # ------------------------------------------------------------------
    def run(self, trace: PackedTrace) -> None:
        """Start replaying ``trace`` at the current cycle."""
        if self._ops is not None:
            raise RuntimeError("core already running a trace")
        if not isinstance(trace, PackedTrace):
            raise TypeError(
                "TraceCore.run takes a PackedTrace "
                "(pack op lists with PackedTrace.from_trace)"
            )
        resolved = trace.resolved(self.config)
        self._ops = zip(resolved.codes, resolved.operands)
        self._demands = resolved.demands
        self._flush_latency = resolved.flush_latency
        self._trace_instructions = resolved.instructions
        self.sim.call_now(self._replay)

    def _replay(self) -> None:
        """Run ops inline until one must wait; every wake-up re-enters."""
        fill = self.controller.fill
        stats_add = self.stats.add
        for code, operand in self._ops:
            if code == DELAY:
                self.sim.call_after(operand, self._replay)
                return
            if code == FILL:
                # Write-allocate fill: the store retires through the
                # store buffer; the fill proceeds in the background
                # (OoO cores hide store misses).
                fill(operand)
                stats_add("core.store_miss_fills")
            elif code == EVICT:
                self._submit_eviction(operand)
            elif code == DEMAND:
                # Demand load: the core (its dependent work) waits for
                # the memory + verification round trip.
                address, self._writebacks = self._demands[operand]
                self.controller.read(address).subscribe(self._read_returned)
                return
            elif self._finish_op(code, operand):
                return
        self._finish()

    def _finish_op(self, code: int, operand: int) -> bool:
        """Run a persist, fence, transaction or arrival op; True if it parked."""
        sim = self.sim
        if code == PERSIST:
            self._launch_persist(operand)
            if self._strict and self._outstanding_persists > 0:
                # Strict persistency: the flush itself blocks until the
                # write is in the persistence domain.
                self._stall(False)
                return True
        elif code == OP_FENCE:
            if self._outstanding_persists > 0:
                self._stall(True)
                return True
            self.stats.add("core.fences")
        elif code == OP_TXBEGIN:
            self._tx_start = sim.now
        elif code == OP_TXEND:
            self._end_transaction()
        else:  # OP_ARRIVAL
            # The next transaction was offered at the packed cycle.  If
            # the core is ahead of the arrival clock it idles (open-loop
            # underload); if behind, the transaction has queued and its
            # wait shows up in the sojourn.
            self._pending_tenant = operand >> ARRIVAL_TENANT_SHIFT
            self._pending_arrival = arrival = operand & ARRIVAL_CYCLE_MASK
            self.stats.add("core.arrivals")
            if arrival > sim.now:
                sim.call_after(arrival - sim.now, self._replay)
                return True
            self.stats.add("core.arrivals_queued")
        return False

    def _read_returned(self, _latency: object) -> None:
        self.stats.add("core.memory_reads")
        for victim in self._writebacks:
            self._submit_eviction(victim)
        self._replay()

    def _stall(self, is_fence: bool) -> None:
        """Wait for the outstanding persists to land, then resume."""
        self._stall_start = self.sim.now
        self._stall_is_fence = is_fence
        self._fence_signal.subscribe(self._stall_woken)

    def _stall_woken(self, _value: object) -> None:
        sim = self.sim
        stall = sim.now - self._stall_start
        self.stats.add("core.fence_stall_cycles", stall)
        if self.timeline is not None:
            self.timeline.event(sim.now, "core.fence_stall", str(stall))
        if self._outstanding_persists > 0:
            self._stall(self._stall_is_fence)
            return
        if self._stall_is_fence:
            self.stats.add("core.fences")
        self._replay()

    def _end_transaction(self) -> None:
        sim = self.sim
        record = self.stats.record
        record("core.tx_cycles", sim.now - self._tx_start)
        self.stats.add("core.transactions")
        arrival = self._pending_arrival
        if arrival >= 0:
            sojourn = sim.now - arrival
            queue_delay = self._tx_start - arrival
            tenant = self._pending_tenant
            record("core.sojourn_cycles", sojourn)
            record("core.queue_delay_cycles", queue_delay)
            tenant_scope = f"core.tenant.{tenant}"
            record(tenant_scope + ".sojourn_cycles", sojourn)
            record(tenant_scope + ".queue_delay_cycles", queue_delay)
            if self.timeline is not None:
                self.timeline.event(
                    sim.now, "core.tx_sojourn", f"{tenant}:{sojourn}"
                )
            self._pending_arrival = -1

    def _finish(self, _value: object = None) -> None:
        """Implicit final fence so all persists land before we report."""
        if self._outstanding_persists > 0:
            self._fence_signal.subscribe(self._finish)
            return
        self.cycles = self.sim.now
        self.instructions = self._trace_instructions
        self.finished = True
        self.stats.set("core.cycles", self.cycles)
        self.stats.set("core.instructions", self.instructions)

    # ------------------------------------------------------------------
    def _launch_persist(self, address: int) -> None:
        """Issue a clwb writeback toward the controller (pipelined)."""
        self._outstanding_persists += 1
        self.stats.add("core.persists_issued")
        # Built at issue time so the request carries the cycle the span
        # tracer treats as the start of the persist critical path.
        request = WriteRequest(address, WriteKind.PERSIST)
        request.issue_cycle = self.sim.now

        def submit() -> None:
            done = self.controller.submit_write(request)
            assert done is not None
            done.subscribe(self._persist_complete)

        self.sim.call_after(self._flush_latency, submit)

    def _persist_complete(self, _value: object = None) -> None:
        self._outstanding_persists -= 1
        if self._outstanding_persists == 0:
            self._fence_signal.fire(None)

    def _submit_eviction(self, address: int) -> None:
        """Dirty LLC victim: background write, core never waits."""
        self.stats.add("core.evictions")
        self.controller.submit_write(WriteRequest(address, WriteKind.EVICTION))

    # ------------------------------------------------------------------
    @property
    def cpi(self) -> float:
        """Cycles per instruction of the completed run."""
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions

    @property
    def done(self) -> bool:
        return self.finished
