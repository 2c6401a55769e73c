"""Deterministic log-structured KV driver for the crash oracle.

The driver turns an :class:`~repro.oracle.ops.Op` stream into controller
traffic with a crash-recoverable on-NVM layout (a write-ahead commit log
plus out-of-place value lines, :mod:`repro.persistence.commitlog`):

for each op::

    1. write the value payload to fresh 64 B lines at VALUE_BASE
       (PUTs only; 1-2 lines);
    2. **fence**: wait until every value line's persist signal fired;
    3. write one 64 B commit record at ``record_address(seq)``;
    4. wait for the commit record's persist signal.

Because the fence orders values before their commit record and records
are written strictly in sequence, a crash at *any* instant leaves a
prefix of the op stream durable: the recovered heap must match the
golden model after ``ops[:n]`` for the unique ``n`` read back from the
log.  ``commits_fired`` counts commit persists the driver observed
before the crash — recovery may never lose one of those
(``commits_fired <= n``), and may never invent commits (``n <= len(ops)``).

The whole execution is deterministic: replaying the same (config, ops)
pair and crashing at cycle ``c`` reproduces the reference run's machine
state at ``c`` exactly.  That is what lets the site enumerator hash
boundary states once and re-execute per site.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.config import CACHELINE_BYTES, SimConfig
from repro.core.controller import MemoryController, make_controller
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Signal, Simulator
from repro.oracle.ops import Op
from repro.persistence.commitlog import (
    OP_DEL,
    OP_PUT,
    VALUE_BASE,
    CommitRecord,
    record_address,
    value_checksum,
    value_lines,
)


class OracleExecution:
    """One deterministic run of an op stream against one controller."""

    def __init__(
        self,
        config: SimConfig,
        ops: List[Op],
        probe=None,
    ) -> None:
        self.config = config
        self.ops = ops
        self.sim = Simulator()
        self.controller: MemoryController = make_controller(self.sim, config)
        if probe is not None:
            self.controller.attach_timeline(probe)
        #: Commit-record persist completions observed so far.  Monotone
        #: lower bound on the recoverable prefix length.
        self.commits_fired = 0
        #: Next free value line (bump allocator; out-of-place writes).
        self._value_cursor = VALUE_BASE
        #: Index of the op being driven; ``len(ops)`` once all committed.
        self._index = 0
        self.sim.call_now(self._next_op)

    # -- lifecycle -----------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once every op's commit record persisted."""
        return self._index == len(self.ops)

    def run(self, until: Optional[int] = None) -> None:
        """Advance the simulation (to quiescence if ``until`` is None)."""
        self.sim.run(until=until)

    # -- op stream -----------------------------------------------------
    def _submit_line(self, address: int, payload: bytes) -> Signal:
        if len(payload) < CACHELINE_BYTES:
            payload = payload + b"\x00" * (CACHELINE_BYTES - len(payload))
        done = self.controller.submit_write(
            WriteRequest(address, WriteKind.PERSIST, data=payload)
        )
        assert done is not None
        return done

    def _fence(self, signals: List[Signal], then: Callable[[], None]) -> None:
        """Call ``then()`` once every signal in the batch fired.

        :class:`~repro.engine.kernel.Signal` has no memory, so each
        member gets a counting subscriber *at submit time* (persist
        signals always fire at least one cycle after submission, so no
        fire can precede the subscription) and the last completion
        continues the chain.
        """
        remaining = len(signals)

        def arrived(_value) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                then()

        for signal in signals:
            signal.subscribe(arrived)

    def _next_op(self) -> None:
        """Write the op's value lines, fenced before its commit record."""
        if self.finished:
            return
        op = self.ops[self._index]
        if op.kind != OP_PUT:
            self._commit()
            return
        value = op.value
        lines = value_lines(len(value))
        value_address = self._value_cursor
        self._value_cursor += lines * CACHELINE_BYTES
        pending = [
            self._submit_line(
                value_address + i * CACHELINE_BYTES,
                value[i * CACHELINE_BYTES:(i + 1) * CACHELINE_BYTES],
            )
            for i in range(lines)
        ]
        self._fence(pending, partial(self._commit, value_address))

    def _commit(self, value_address: int = 0) -> None:
        """Write the op's commit record; the next op waits for it."""
        op = self.ops[self._index]
        if op.kind == OP_PUT:
            record = CommitRecord(
                seq=op.seq,
                op=OP_PUT,
                key=op.key,
                value_address=value_address,
                value_length=len(op.value),
                checksum=value_checksum(op.value),
            )
        else:
            record = CommitRecord(
                seq=op.seq,
                op=OP_DEL,
                key=op.key,
                value_address=0,
                value_length=0,
                checksum=value_checksum(b""),
            )
        commit_done = self._submit_line(record_address(op.seq), record.encode())

        def committed(_value) -> None:
            self.commits_fired += 1

        commit_done.subscribe(committed)
        # Commit records are strictly ordered: the next op's value lines
        # may not even be submitted until this record's persist
        # completion fires.
        self._fence([commit_done], self._committed)

    def _committed(self) -> None:
        self._index += 1
        self._next_op()
