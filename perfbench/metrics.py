"""Metric definitions and the statistics every workload shares.

The end-to-end table is what a user of the reproduction sees (host time
unless the unit says otherwise); the per-layer table is filled from the
traced run.  ``BENCHMARK.json`` mirrors both tables and a test keeps
them in step.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

# (name, unit, better, bound).  Every end-to-end metric is defined, and
# never zero, on every workload: a "unit" is the workload's smallest
# result (a fig12 run unit, a fleet unit, a crash site), so
# ``units_per_s`` is crash sites checked per second on crash-oracle.
# Host-time bounds are the widest allowed: on a shared 2-vCPU box the
# host's speed drifts by 10-20% over minutes, which no run length hides.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_tx_per_s", "1/s", "higher", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("unit_p50_ms", "ms", "lower", 0.25),
    ("unit_p90_ms", "ms", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better).  Time metrics ending in ``.s``/``_s`` are self
# time (the span minus its traced children); ``p50_ms``/``p90_ms`` are
# inclusive per-call latencies.  Units starting ``sim-`` or naming
# cycles are simulated and repeat exactly for a fixed seed.
PER_LAYER = [
    ("harness.trace_store.get_s", "s", "lower"),
    ("harness.trace_store.hit_ratio", "ratio", "higher"),
    ("harness.memo.s", "s", "lower"),
    ("harness.memo.hits", "count", "higher"),
    ("harness.memo.misses", "count", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("workloads.ops", "count", "lower"),
    ("cpu.trace_io.pack_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.events", "sim-count", "lower"),
    ("engine.ns_per_event", "ns", "lower"),
    ("mem.hierarchy.s", "s", "lower"),
    ("mem.hierarchy.calls", "count", "lower"),
    ("mem.nvm.reads", "sim-count", "lower"),
    ("mem.nvm.writes", "sim-count", "lower"),
    ("core.controller.s", "s", "lower"),
    ("core.controller.calls", "count", "lower"),
    ("core.cycles", "sim-cycles", "lower"),
    ("core.cpi", "sim-cyc/instr", "lower"),
    ("core.fence_stall_share", "sim-ratio", "lower"),
    ("wpq.inserts", "sim-count", "lower"),
    ("wpq.retries_per_kwr", "sim-1/kwr", "lower"),
    ("security.meta.s", "s", "lower"),
    ("security.meta.hit_ratio", "sim-ratio", "higher"),
    ("security.merkle.s", "s", "lower"),
    ("crypto.mac.s", "s", "lower"),
    ("crypto.mac.calls", "count", "lower"),
    ("crypto.pad.s", "s", "lower"),
    ("crypto.pad.calls", "count", "lower"),
    ("recovery.crash.s", "s", "lower"),
    ("recovery.recover.s", "s", "lower"),
    ("recovery.calls", "count", "lower"),
    ("oracle.enumerate.s", "s", "lower"),
    ("oracle.sites", "count", "higher"),
    ("oracle.check_site.p50_ms", "ms", "lower"),
    ("oracle.reconstruct.s", "s", "lower"),
    ("scenarios.build.s", "s", "lower"),
    ("attacks.scan.s", "s", "lower"),
    ("fleet.worker_start.s", "s", "lower"),
    ("fleet.expand.s", "s", "lower"),
    ("service.submit.p50_ms", "ms", "lower"),
    ("service.submit.p90_ms", "ms", "lower"),
    ("fleet.db_record.p50_ms", "ms", "lower"),
    ("fleet.report.s", "s", "lower"),
    ("fleet.steals", "count", "lower"),
    ("fleet.redispatches", "count", "lower"),
    ("fleet.duplicates", "count", "lower"),
    ("fleet.orchestration_share", "ratio", "lower"),
    ("paper_err_pct", "sim-%", "lower"),
    ("error_rate", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def check_names(names: Sequence[str]) -> None:
    """Raise ValueError on a malformed or repeated metric name."""
    seen = set()
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(values: Sequence[float], q: float) -> float:
    """``percentile`` that refuses a tail with too few samples beyond it."""
    if beyond(len(values), q) < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(values)} samples has only "
            f"{beyond(len(values), q)} beyond it; need {MIN_BEYOND}"
        )
    return percentile(values, q)


@dataclass
class Tally:
    """Work attempted and failed, plus the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def attempt(self, units: int) -> None:
        self.attempted += units

    def fail(self, reason: str, units: int = 1) -> None:
        """Count ``units`` of the attempted work as failed."""
        self.failed += units
        self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def result_line(correct: bool, tally: Tally, metrics: Dict[str, float]) -> dict:
    """The final JSON object: every metric with its unit."""
    check_names(list(metrics))
    return {
        "correct": bool(correct),
        "attempted": max(1, int(tally.attempted)),
        "failed": int(tally.failed),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }
