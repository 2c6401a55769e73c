"""Latency vs offered load: the ``harness loadcurve`` experiment.

For each controller configuration the experiment replays the *same*
workload under a sweep of open-loop Poisson arrival rates and reports
sojourn-time percentiles (arrival → commit).  Because each arrival
stream is the same seeded sequence scaled by 1/rate, the sweep is a
controlled compression of one arrival pattern — p99 sojourn is
monotone in offered load by construction, and the *saturation knee*
(first rate whose p99 exceeds ``knee_factor`` × the lightest-load p99)
cleanly separates the designs: eADR saturates last, Pre-WPQ first,
Dolos in between.

The experiment also quantifies the open-vs-closed-loop divergence the
paper's closed-loop methodology hides: at matched throughput (90% of a
config's closed-loop completion rate) the open-loop p99 sojourn is a
multiple of the closed-loop p99 transaction latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.traffic import scan_tenants
from repro.cpu.trace import OP_ARRIVAL, pack_arrival
from repro.cpu.trace_io import PackedTrace
from repro.harness.runner import RunResult, run_trace
from repro.scenarios.tenants import (
    TenantSpec,
    build_scenario_trace,
    build_tenant_stream,
    merge_tenant_streams,
    split_transactions,
)

#: Offered-load sweep in tx/kcycle.  Spans the service rates of the
#: whole matrix: Pre-WPQ-eager completes ~0.07 tx/kcycle closed-loop,
#: Dolos-full ~0.12, battery-backed eADR ~0.17 — so the grid's light
#: end is unsaturated for everyone and its heavy end saturates everyone.
DEFAULT_RATES: Tuple[float, ...] = (0.02, 0.04, 0.06, 0.09, 0.13, 0.18, 0.24)

#: A config's knee is the first rate whose p99 sojourn exceeds this
#: multiple of its lightest-load p99.
DEFAULT_KNEE_FACTOR = 2.0


def knee_rate(
    rates: Sequence[float],
    p99s: Sequence[int],
    factor: float = DEFAULT_KNEE_FACTOR,
) -> float:
    """First rate whose p99 exceeds ``factor`` × the lightest-load p99.

    Returns the heaviest swept rate when the curve never crosses (the
    config rides out the whole grid — battery-backed eADR at small
    payloads can).
    """
    if not rates or len(rates) != len(p99s):
        raise ValueError("need matching non-empty rate/p99 sequences")
    base = p99s[0]
    for rate, p99 in zip(rates, p99s):
        if p99 > factor * base:
            return rate
    return rates[-1]


def scenario_tenants(
    workload: str, scenario: Dict[str, object]
) -> List[TenantSpec]:
    """Tenant list for a wire-form scenario descriptor.

    Tenant 0 is the benign workload under the described arrival
    process; an optional ``adversary`` key adds a second tenant running
    the named :mod:`repro.scenarios.adversarial` generator at
    ``adversary_rate`` (defaulting to the benign rate).
    """
    rate = float(scenario["rate"])
    tenants = [
        TenantSpec(
            workload,
            rate,
            skew=float(scenario.get("skew", 0.0)),
            arrivals=str(scenario.get("arrivals", "poisson")),
            burst=float(scenario.get("burst", 1.6)),
            dwell=int(scenario.get("dwell", 12)),
        )
    ]
    adversary = scenario.get("adversary")
    if adversary:
        tenants.append(
            TenantSpec(
                str(adversary),
                float(scenario.get("adversary_rate", rate)),
            )
        )
    return tenants


def run_scenario(
    config,
    tenants: List[TenantSpec],
    transactions: int,
    seed: int = 0,
    workload_name: str = "scenario",
) -> Dict[str, object]:
    """One open-loop run: build the stamped trace, replay, score it.

    This is the unit the fleet's ``scenario`` mode executes; the
    payload is JSON-shaped (plain dicts/lists/ints) so it round-trips
    through the results database and the service protocol unchanged.
    """
    trace = build_scenario_trace(
        tenants, transactions, config.transaction_size, seed
    )
    result = run_trace(config, trace, workload_name, transactions)
    verdicts = scan_tenants(trace)
    stats = result.stats
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "sojourn_p50": stats.get("core.sojourn_cycles.p50", 0),
        "sojourn_p95": stats.get("core.sojourn_cycles.p95", 0),
        "sojourn_p99": stats.get("core.sojourn_cycles.p99", 0),
        "queue_delay_p99": stats.get("core.queue_delay_cycles.p99", 0),
        "arrivals": stats.get("core.arrivals", 0),
        "arrivals_queued": stats.get("core.arrivals_queued", 0),
        "tenants": {
            str(tenant): {
                "flagged": verdict.flagged,
                "kinds": list(verdict.kinds),
                "sojourn_p99": stats.get(
                    f"core.tenant.{tenant}.sojourn_cycles.p99", 0
                ),
            }
            for tenant, verdict in verdicts.items()
        },
    }


# ----------------------------------------------------------------------
# The loadcurve sweep
# ----------------------------------------------------------------------
def _stamped_trace(
    blocks: List[List[Tuple]], arrivals: List[int]
) -> List[Tuple]:
    """Stamp pre-split single-tenant blocks with the given arrivals."""
    trace: List[Tuple] = []
    for ops, arrival in zip(blocks, arrivals):
        trace.append((OP_ARRIVAL, pack_arrival(0, arrival)))
        trace.extend(ops)
    return trace


def sweep_config(
    config,
    traces: Sequence[PackedTrace],
    rates: Sequence[float],
    workload_name: str,
    transactions: int,
) -> List[Dict[str, object]]:
    """Replay one config across the rate grid, one stamped trace per rate."""
    points: List[Dict[str, object]] = []
    for rate, trace in zip(rates, traces):
        result = run_trace(config, trace, workload_name, transactions)
        stats = result.stats
        completed_per_kcycle = (
            1000.0 * transactions / result.cycles if result.cycles else 0.0
        )
        points.append(
            {
                "rate": rate,
                "p50": stats.get("core.sojourn_cycles.p50", 0),
                "p95": stats.get("core.sojourn_cycles.p95", 0),
                "p99": stats.get("core.sojourn_cycles.p99", 0),
                "queue_delay_p99": stats.get(
                    "core.queue_delay_cycles.p99", 0
                ),
                "completed_per_kcycle": completed_per_kcycle,
            }
        )
    return points


def loadcurve_report(
    workload: str = "hashmap",
    transactions: int = 60,
    seed: int = 1,
    rates: Sequence[float] = DEFAULT_RATES,
    configs: Optional[Sequence[str]] = None,
    skew: float = 0.8,
    knee_factor: float = DEFAULT_KNEE_FACTOR,
) -> Dict[str, object]:
    """Full latency-vs-offered-load report across the config matrix.

    Per config: the sweep points, the saturation knee, the closed-loop
    reference run of the identical instruction stream, and the
    open/closed p99 ratio at matched throughput (open-loop arrivals at
    90% of the closed-loop completion rate).  Deterministic per
    ``(workload, transactions, seed, rates, skew)``.
    """
    # Imported here: repro.matrix imports the harness, which must be
    # importable without the scenario layer (and vice versa).
    from repro.matrix import controller_matrix

    matrix = controller_matrix()
    labels = list(configs) if configs else list(matrix)
    unknown = [label for label in labels if label not in matrix]
    if unknown:
        raise KeyError(f"unknown configs {unknown}; choose from {list(matrix)}")

    spec = TenantSpec(workload, rate=rates[0], skew=skew)
    # One tenant-0 stream build (workload trace + chunking) shared by
    # every rate and every config: the sweep varies only the arrival
    # stamps, so all comparisons see an identical instruction stream.
    base_blocks = [
        block.ops[1:]  # strip the rate-specific arrival stamp
        for block in build_tenant_stream(
            spec, 0, transactions, seed=seed
        )
    ]
    # Packed once and shared by every config, so each trace's core side
    # is resolved once.
    closed_trace = PackedTrace.from_trace(
        [op for block in base_blocks for op in block]
    )
    sweep_traces = [
        PackedTrace.from_trace(_stamped_trace(
            base_blocks,
            TenantSpec(workload, rate, skew=skew).process().sample(
                len(base_blocks), seed
            ),
        ))
        for rate in rates
    ]

    report: Dict[str, object] = {
        "workload": workload,
        "transactions": transactions,
        "seed": seed,
        "skew": skew,
        "rates": list(rates),
        "knee_factor": knee_factor,
        "configs": {},
    }
    for label in labels:
        config = matrix[label]
        points = sweep_config(
            config, sweep_traces, rates, workload, transactions
        )
        p99s = [point["p99"] for point in points]
        knee = knee_rate(rates, p99s, knee_factor)

        closed = run_trace(config, closed_trace, workload, transactions)
        closed_p99 = closed.stats.get("core.tx_cycles.p99", 0)
        closed_rate = (
            1000.0 * transactions / closed.cycles if closed.cycles else 0.0
        )
        matched_rate = 0.9 * closed_rate
        matched_arrivals = TenantSpec(
            workload, matched_rate, skew=skew
        ).process().sample(len(base_blocks), seed)
        matched = run_trace(
            config,
            _stamped_trace(base_blocks, matched_arrivals),
            workload,
            transactions,
        )
        matched_p99 = matched.stats.get("core.sojourn_cycles.p99", 0)
        ratio = matched_p99 / closed_p99 if closed_p99 else 0.0
        report["configs"][label] = {
            "points": points,
            "knee_rate": knee,
            "closed_loop": {
                "cycles": closed.cycles,
                "tx_p99": closed_p99,
                "completed_per_kcycle": closed_rate,
            },
            "matched_load": {
                "rate": matched_rate,
                "sojourn_p99": matched_p99,
                "open_closed_p99_ratio": ratio,
            },
        }
    return report


# ----------------------------------------------------------------------
# Campaign recipes
# ----------------------------------------------------------------------
def soak_campaign(
    name: str = "soak",
    workloads: Sequence[str] = ("hashmap",),
    designs: Sequence[str] = ("dolos-full", "prewpq-eager"),
    seeds: Sequence[int] = (1, 2),
    transactions: int = 400,
    rate: float = 0.06,
    burst: float = 1.6,
    skew: float = 0.8,
    fault_sites: int = 2,
):
    """Long-horizon soak spec for :mod:`repro.fleet`.

    Bursty MMPP arrivals over every (workload, design, seed) cell for a
    long horizon, with periodic fault injection riding the campaign's
    existing fault units (``fault_sites`` interior crash sites per
    cell).  Returns a :class:`repro.fleet.dispatcher.CampaignSpec`.
    """
    from repro.fleet.dispatcher import CampaignSpec

    return CampaignSpec(
        name=name,
        workloads=tuple(workloads),
        designs=tuple(designs),
        seeds=tuple(seeds),
        transactions=transactions,
        fault_sites=fault_sites,
        scenario=tuple(
            sorted(
                {
                    "arrivals": "mmpp",
                    "rate": rate,
                    "burst": burst,
                    "skew": skew,
                }.items()
            )
        ),
    ).validate()
