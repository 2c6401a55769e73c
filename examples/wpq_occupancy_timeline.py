#!/usr/bin/env python3
"""WPQ dynamics under the microscope.

Attaches a :class:`~repro.instrumentation.Timeline` to three controller
configurations running the same hashmap trace, then renders the WPQ
occupancy over time as ASCII sparklines.  The pictures tell the paper's
story at a glance:

* the baseline's queue stays nearly empty — the pre-WPQ security unit
  throttles arrivals, so ADR's fast persistence buffer sits idle;
* Dolos keeps the queue busy (that's the point) and occasionally full
  (those are the Table 2 retries);
* a double-size ADR budget keeps it busy but never full (Figure 15's
  saturation).
"""

from repro import ControllerKind, SimConfig
from repro.config import ADRConfig
from repro.core.controller import make_controller
from repro.cpu.core import TraceCore
from repro.cpu.trace_io import PackedTrace
from repro.engine import Simulator
from repro.instrumentation import Timeline
from repro.workloads import generate_trace

TRANSACTIONS = 150


def run_with_timeline(config, trace):
    sim = Simulator()
    controller = make_controller(sim, config)
    timeline = Timeline()
    controller.attach_timeline(timeline)
    core = TraceCore(sim, config, controller, controller.stats)
    core.run(trace)
    sim.run()
    return controller, timeline


def main() -> None:
    trace = PackedTrace.from_trace(
        generate_trace("hashmap", TRANSACTIONS, 1024, seed=1)
    )
    configs = {
        "Pre-WPQ-Secure baseline (16 entries)": SimConfig().with_(
            controller=ControllerKind.PRE_WPQ_SECURE
        ),
        "Dolos Partial-WPQ (13 entries)": SimConfig(),
        "Dolos Partial-WPQ, 2x ADR budget (28 entries)": SimConfig().with_(
            adr=ADRConfig(budget_entries=32)
        ),
    }
    for label, config in configs.items():
        controller, timeline = run_with_timeline(config, trace)
        summary = timeline.summarize("wpq.occupancy")
        retries = controller.wpq.retry_events
        print(f"{label}")
        print(
            f"  capacity={controller.wpq.capacity} "
            f"mean occupancy={summary.mean:.1f} "
            f"peak={summary.maximum:.0f} retries={retries}"
        )
        print(f"  [{timeline.sparkline('wpq.occupancy')}]")
        print()


if __name__ == "__main__":
    main()
