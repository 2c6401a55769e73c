"""Execution-time breakdown: where do the cycles go?

Decomposes a run's total cycles into the components papers plot as
stacked bars:

* **fence stalls** — cycles the core spent blocked on persist
  completion (the component Dolos attacks);
* **read stalls** — cycles blocked on demand-miss memory reads;
* **compute + cache** — everything else (instruction work, hits,
  hierarchy latency).

The split comes from the stats the core already records, so a
breakdown costs one ordinary simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import SimConfig
from repro.harness.runner import RunResult, run_trace
from repro.harness.tables import render_table


@dataclass(frozen=True)
class CycleBreakdown:
    """One run's cycle decomposition."""

    total: int
    fence_stall: int
    read_stall: int

    @property
    def other(self) -> int:
        """Compute, cache hits, hierarchy latency, overlap slack."""
        return max(0, self.total - self.fence_stall - self.read_stall)

    def fraction(self, component: str) -> float:
        value = getattr(self, component)
        return value / self.total if self.total else 0.0

    def as_row(self, label: str) -> List:
        return [
            label,
            self.total,
            f"{100 * self.fraction('fence_stall'):.0f}%",
            f"{100 * self.fraction('read_stall'):.0f}%",
            f"{100 * self.fraction('other'):.0f}%",
        ]


def breakdown_of(result: RunResult, read_stall_cycles: int) -> CycleBreakdown:
    return CycleBreakdown(
        total=result.cycles,
        fence_stall=result.stats.get("core.fence_stall_cycles", 0),
        read_stall=read_stall_cycles,
    )


def run_with_breakdown(
    config: SimConfig,
    trace,
    workload: str = "trace",
    transactions: int = 0,
    timeline=None,
) -> Tuple[RunResult, CycleBreakdown]:
    """Run one trace and return (result, cycle breakdown).

    ``trace`` is a :class:`~repro.cpu.trace_io.PackedTrace` or a list of
    op tuples.  Read-stall cycles are the summed round trips of the
    demand reads, the only reads the core waits on (store-miss fills
    go through ``controller.fill`` and are not timed).
    An optional ``timeline`` (e.g. :class:`repro.tracing.SpanTracer`)
    is attached to both the controller and the core, so span tracing
    and the breakdown come from the same run.
    """
    from repro.core.controller import make_controller
    from repro.cpu.core import TraceCore
    from repro.cpu.trace_io import PackedTrace
    from repro.engine import Simulator
    from repro.stats import StatsRegistry

    sim = Simulator()
    stats = StatsRegistry()
    controller = make_controller(sim, config, stats)
    core = TraceCore(sim, config, controller, stats)
    if timeline is not None:
        controller.attach_timeline(timeline)
        core.timeline = timeline

    # A demand read's signal fires with its round trip, the cycles the
    # core waited on it.
    read_stall = [0]
    original_read = controller.read

    def add_stall(latency: int) -> None:
        read_stall[0] += latency

    def timed_read(address: int):
        signal = original_read(address)
        signal.subscribe(add_stall)
        return signal

    controller.read = timed_read
    core.run(PackedTrace.from_trace(trace))
    sim.run()
    if not core.finished:
        raise RuntimeError("simulation deadlocked")
    merged = dict(stats.as_dict())
    merged.update(controller.stats_snapshot())
    result = RunResult(
        workload=workload,
        controller=config.controller,
        misu_design=config.misu_design,
        transactions=transactions,
        payload_bytes=config.transaction_size,
        cycles=core.cycles,
        instructions=core.instructions,
        stats=merged,
    )
    return result, breakdown_of(result, read_stall[0])


def render_breakdowns(rows: List[Tuple[str, CycleBreakdown]], title: str) -> str:
    """Render labelled breakdowns as a table."""
    return render_table(
        ["configuration", "cycles", "fence", "read", "compute+cache"],
        [b.as_row(label) for label, b in rows],
        title=title,
    )
