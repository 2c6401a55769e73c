"""The design-independent core side of a trace, resolved once.

Everything the core does between two interactions with the rest of the
system depends only on the trace, the L1/L2/LLC geometry and latencies,
and the IPC: the work arithmetic, every cache hit and miss, which
stores miss and need a fill, which fills push dirty victims out of the
LLC, and which ``clwb`` finds its line dirty.  None of it depends on
the memory controller design.  :func:`resolve` runs that part once, with
a private :class:`~repro.mem.hierarchy.CacheHierarchy`, and reduces the
trace to the memory-facing stream the core replays against any design:

* ``DELAY n`` — work cost, cache-hit latencies and clean-``clwb`` issue
  slots of one segment, folded together (the fractional work carry is
  reproduced exactly);
* ``FILL addr`` — a store-miss fill;
* ``EVICT addr`` — a dirty LLC victim;
* ``DEMAND i`` — a demand load: ``demands[i]`` holds its address and
  the victims it writes back once it returns;
* ``PERSIST line`` — a ``clwb`` of a dirty line;
* ``OP_FENCE``, ``OP_TXBEGIN``, ``OP_TXEND``, ``OP_ARRIVAL`` — passed
  through unchanged.

Fills and evictions stay where the trace put them relative to the
delays: they leave at the start of their segment, before its ``DELAY``,
exactly when the unresolved core issued them.  What remains for run
time is what depends on the design: fence and strict-``clwb`` stalls,
arrival waits and demand-read round trips.

A :class:`~repro.cpu.trace_io.PackedTrace` memoizes its resolved
streams under :func:`resolve_key`, so the units of an experiment that
replay one trace against several designs resolve it once.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.config import SimConfig
from repro.cpu.trace import (
    OP_ARRIVAL,
    OP_CLWB,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXBEGIN,
    OP_TXEND,
    OP_WORK,
)
from repro.mem.hierarchy import CacheHierarchy

# Resolved op codes; the pass-through ops keep their trace codes.
DELAY = 8
FILL = 9
EVICT = 10
DEMAND = 11
PERSIST = 12


class ResolvedTrace:
    """The memory-facing op stream of one trace under one hierarchy.

    Plain ints and tuples only: nothing here refers back to a
    simulator, a controller or a core, so a memoized stream never keeps
    a finished run alive.
    """

    __slots__ = ("codes", "operands", "demands", "instructions", "flush_latency")

    def __init__(
        self,
        codes: List[int],
        operands: List[int],
        demands: List[Tuple[int, Tuple[int, ...]]],
        instructions: int,
        flush_latency: int,
    ) -> None:
        self.codes = codes
        self.operands = operands
        #: ``(address, writebacks)`` of each demand load, by DEMAND operand.
        self.demands = demands
        #: Instructions the whole trace retires.
        self.instructions = instructions
        #: Cycles a persist takes to traverse the hierarchy.
        self.flush_latency = flush_latency


def resolve_key(config: SimConfig) -> Hashable:
    """Everything :func:`resolve` reads from ``config``."""
    return (config.l1, config.l2, config.llc, config.core.ipc)


def resolve(
    columns: Tuple[List[int], List[int]], config: SimConfig
) -> ResolvedTrace:
    """Resolve the ``(codes, operands)`` columns of a trace under ``config``."""
    hierarchy = CacheHierarchy(config)
    access = hierarchy.access
    clwb = hierarchy.clwb
    ipc = config.core.ipc
    codes: List[int] = []
    operands: List[int] = []
    demands: List[Tuple[int, Tuple[int, ...]]] = []
    emit_code = codes.append
    emit_operand = operands.append
    instructions = 0
    carry = 0.0
    acc = 0  # latency of the open segment
    for code, operand in zip(*columns):
        if code == OP_WORK:
            instructions += operand
            cost = operand / ipc + carry
            whole = int(cost)
            carry = cost - whole
            acc += whole
            continue
        if code == OP_LOAD or code == OP_STORE:
            instructions += 1
            result = access(operand, code == OP_STORE)
            acc += result.latency
            if result.needs_memory:
                if code == OP_LOAD:
                    if acc:
                        emit_code(DELAY)
                        emit_operand(acc)
                        acc = 0
                    emit_code(DEMAND)
                    emit_operand(len(demands))
                    demands.append((operand, tuple(result.writebacks)))
                    continue
                emit_code(FILL)
                emit_operand(operand)
            for victim in result.writebacks:
                emit_code(EVICT)
                emit_operand(victim)
            continue
        if code == OP_CLWB:
            instructions += 1
            acc += 1  # issue slot
            line = clwb(operand)
            if line is None:
                continue
            code, operand = PERSIST, line
        elif code == OP_FENCE:
            instructions += 1
        elif code != OP_TXBEGIN and code != OP_TXEND and code != OP_ARRIVAL:
            raise ValueError(f"unknown trace op {(code, operand)!r}")
        if acc:
            emit_code(DELAY)
            emit_operand(acc)
            acc = 0
        emit_code(code)
        emit_operand(operand)
    if acc:
        emit_code(DELAY)
        emit_operand(acc)
    return ResolvedTrace(
        codes, operands, demands, instructions, hierarchy.flush_latency()
    )
