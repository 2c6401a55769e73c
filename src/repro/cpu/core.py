"""The trace-driven core.

The core walks a trace in a plain loop, batching pure-latency work
(compute, cache hits) into one delay and interacting with the event
queue only where concurrency matters: LLC-miss reads, persist
submissions, and fences.

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

from typing import Iterable, Iterator, Optional, Tuple

from repro.config import SimConfig
from repro.core.controller import MemoryController
from repro.core.requests import WriteKind, WriteRequest
from repro.cpu.trace import (
    ARRIVAL_CYCLE_MASK,
    ARRIVAL_TENANT_SHIFT,
    OP_ARRIVAL,
    OP_CLWB,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXBEGIN,
    OP_TXEND,
    OP_WORK,
)
from repro.engine import Signal, Simulator
from repro.mem.hierarchy import CacheHierarchy
from repro.stats import StatsRegistry


class TraceCore:
    """Replays one trace against a memory controller.

    Replay is a plain loop over the op iterator (:meth:`_replay`).
    Non-blocking ops run inline and their latency accumulates in one
    batched delay.  The loop parks, handing the kernel a bound-method
    continuation, only when simulated time must pass or the core must
    wait: a nonzero batched delay before an op that interacts with the
    rest of the system, a demand miss, a fence (or a strict-mode clwb)
    while persists are outstanding, and a future arrival stamp.  The
    batched delay is always flushed before the loop parks, so only the
    op being finished and the transaction/arrival/fence-stall state
    outlive a park, as attributes.
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
        self.hierarchy = CacheHierarchy(config)
        self.instructions = 0
        self.cycles = 0
        self.finished = False
        self._outstanding_persists = 0
        self._fence_signal = Signal(sim, "core.fence")
        self._work_carry = 0.0
        self._strict = config.core.persist_model == "strict"
        #: Optional instrumentation (span tracing): when attached, the
        #: core logs one ``core.fence_stall`` event per fence wake-up.
        #: The hot path pays a single ``None`` check otherwise.
        self.timeline = None
        # -- replay state that outlives a park ----------------------------
        self._ops: Optional[Iterator[Tuple]] = None
        #: The op whose post-delay half runs when the loop resumes.
        self._op: Tuple = ()
        #: Operand of that op: the missed address, or the flushed line.
        self._operand = 0
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
        #: finished core and its cache hierarchy alive until the cyclic
        #: collector happens to run.
        self._stall_is_fence = False

    # ------------------------------------------------------------------
    def run(self, trace: Iterable[Tuple]) -> None:
        """Start replaying ``trace`` at the current cycle."""
        if self._ops is not None:
            raise RuntimeError("core already running a trace")
        self._ops = iter(trace)
        self.sim.call_now(self._replay)

    def _replay(self) -> None:
        """Run ops inline until one must wait; every wake-up re-enters."""
        hierarchy_access = self.hierarchy.access
        stats_add = self.stats.add
        ipc = self.config.core.ipc
        acc = 0  # batched latency not yet handed to the kernel
        for op in self._ops:
            code = op[0]
            if code == OP_WORK:
                n = op[1]
                self.instructions += n
                cost = n / ipc + self._work_carry
                whole = int(cost)
                self._work_carry = cost - whole
                acc += whole
                continue
            if code == OP_LOAD or code == OP_STORE:
                self.instructions += 1
                result = hierarchy_access(op[1], code == OP_STORE)
                acc += result.latency
                if result.needs_memory:
                    if code == OP_STORE:
                        # Write-allocate fill: the store retires through
                        # the store buffer; the fill proceeds in the
                        # background (OoO cores hide store misses).
                        self.controller.read(op[1])
                        stats_add("core.store_miss_fills")
                    else:
                        # Demand load: the core (its dependent work)
                        # waits for the memory + verification round trip.
                        self._operand = op[1]
                        self._writebacks = result.writebacks
                        if acc:
                            self._park(acc, op)
                        else:
                            self._demand_read()
                        return
                for victim in result.writebacks:
                    self._submit_eviction(victim)
                continue
            if code == OP_CLWB:
                self.instructions += 1
                acc += 1  # issue slot
                line = self.hierarchy.clwb(op[1])
                if line is None:
                    continue
                self._operand = line
            elif code == OP_FENCE:
                self.instructions += 1
            elif code not in (OP_TXBEGIN, OP_TXEND, OP_ARRIVAL):
                raise ValueError(f"unknown trace op {op!r}")
            # Every remaining op first hands the batched delay over.
            if acc:
                self._park(acc, op)
                return
            if self._finish_op(op):
                return
        if acc:
            self.sim.call_after(acc, self._finish)
            return
        self._finish()

    def _park(self, delay: int, op: Tuple) -> None:
        """Let ``delay`` cycles pass, then finish ``op`` and resume."""
        self._op = op
        self.sim.call_after(delay, self._resume)

    def _resume(self) -> None:
        op = self._op
        if op[0] == OP_LOAD:
            self._demand_read()
        elif not self._finish_op(op):
            self._replay()

    def _finish_op(self, op: Tuple) -> bool:
        """The part of ``op`` after its batched delay; True if it parked."""
        sim = self.sim
        code = op[0]
        if code == OP_CLWB:
            self._launch_persist(self._operand)
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
            operand = op[1]
            self._pending_tenant = operand >> ARRIVAL_TENANT_SHIFT
            self._pending_arrival = arrival = operand & ARRIVAL_CYCLE_MASK
            self.stats.add("core.arrivals")
            if arrival > sim.now:
                sim.call_after(arrival - sim.now, self._replay)
                return True
            self.stats.add("core.arrivals_queued")
        return False

    def _demand_read(self) -> None:
        self.controller.read(self._operand).subscribe(self._read_returned)

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
        traversal = self.hierarchy.flush_latency()

        def submit() -> None:
            done = self.controller.submit_write(request)
            assert done is not None
            done.subscribe(self._persist_complete)

        self.sim.call_after(traversal, submit)

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
