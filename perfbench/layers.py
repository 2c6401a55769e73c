"""Which program functions are traced, and the per-layer metrics.

Every span wraps a public function or method of one ``repro`` layer;
nothing under ``src/`` is edited.  The spans are installed in the
benchmark's child process and, for fleet campaigns, in each ``harness
serve`` worker through ``perfbench/worker_hook/sitecustomize.py``.
"""

from __future__ import annotations

import importlib
import json
import statistics
from pathlib import Path
from typing import Dict, List

from perfbench.metrics import PER_LAYER, percentile, tail_percentile
from perfbench.spans import ThreadState, Tracer, merge, replace_everywhere


def _memo_load(state: ThreadState, args, result, token, outer, parent):
    state.count("harness.memo.misses" if result is None else "harness.memo.hits")


def _generated(state: ThreadState, args, result, token, outer, parent):
    state.count("workloads.ops", len(result))
    if parent == "harness.trace_store.get":
        state.count("harness.trace_store.misses")


#: RunResult stats summed into the simulated per-layer metrics.
SIM_STATS = (
    "core.fence_stall_cycles", "nvm.reads", "nvm.writes", "wpq.inserts",
    "wpq.retry_events", "controller.writes",
)


def _sim_stats(state: ThreadState, args, result, token, outer, parent):
    state.count("sim.cycles", result.cycles)
    state.count("sim.instructions", result.instructions)
    for key in SIM_STATS:
        state.count("sim." + key, result.stats.get(key, 0))


def _events_before(args):
    return args[0].events_fired


def _events_after(state: ThreadState, args, result, token, outer, parent):
    fired = args[0].events_fired - token
    state.count("engine.events", fired)
    if parent == "harness.run_trace":
        state.count("engine.events_in_run_trace", fired)


def _meta_access(state: ThreadState, args, result, token, outer, parent):
    if outer:
        state.count("meta.accesses")
        state.count("meta.misses", 0 if result else 1)


def _meta_path(state: ThreadState, args, result, token, outer, parent):
    if outer:
        state.count("meta.accesses", len(args[1]))
        state.count("meta.misses", result)


# (span name, module, attribute path, options)
SPANS = [
    ("harness.trace_store.get", "repro.harness.trace_store", "TraceCache.get", {}),
    ("harness.trace_store.get", "repro.harness.trace_store", "TraceCache.get_packed", {}),
    ("harness.memo", "repro.harness.memo", "UnitMemo.run", {}),
    ("harness.memo", "repro.harness.memo", "UnitMemo.load", {"after": _memo_load}),
    ("harness.run_trace", "repro.harness.runner", "run_trace", {"after": _sim_stats}),
    ("workloads.generate", "repro.workloads", "generate_trace", {"after": _generated}),
    ("cpu.trace_io.pack", "repro.cpu.trace_io", "PackedTrace.from_trace", {}),
    ("engine.run", "repro.engine.kernel", "Simulator.run",
     {"before": _events_before, "after": _events_after}),
    ("mem.hierarchy", "repro.mem.hierarchy", "CacheHierarchy.access", {}),
    ("mem.hierarchy", "repro.mem.hierarchy", "CacheHierarchy.clwb", {}),
    ("core.controller", "repro.core.controller", "MemoryController.submit_write", {}),
    ("core.controller", "repro.core.controller", "MemoryController.read", {}),
    ("core.controller", "repro.core.composition", "MiSUWriteEngine.submit_write", {}),
    ("core.controller", "repro.core.composition", "MiSUWriteEngine.read", {}),
    ("security.meta", "repro.security.metadata_cache", "MetadataCache.access",
     {"after": _meta_access}),
    ("security.meta", "repro.security.metadata_cache", "MetadataCache.access_path",
     {"after": _meta_path}),
    ("security.merkle", "repro.security.merkle", "MerkleTree.update_leaf", {}),
    ("security.merkle", "repro.security.merkle", "MerkleTree.verify_leaf", {}),
    ("security.merkle", "repro.security.merkle", "MerkleTree.rebuild_from_leaves", {}),
    ("crypto.mac", "repro.crypto.mac", "compute_mac", {}),
    ("crypto.mac", "repro.crypto.mac", "mac_over_fields", {}),
    ("crypto.pad", "repro.crypto.prf", "ctr_pad", {}),
    ("crypto.pad", "repro.crypto.prf", "keyed_prf", {}),
    ("recovery.crash", "repro.recovery.crash", "crash_system", {}),
    ("recovery.recover", "repro.recovery.recover", "recover_system", {}),
    ("oracle.enumerate", "repro.oracle.sites", "enumerate_sites", {}),
    ("oracle.check_site", "repro.oracle.check", "check_site", {"sampled": True}),
    ("oracle.reconstruct", "repro.oracle.reconstruct", "reconstruct_state", {}),
    ("scenarios.build", "repro.scenarios.tenants", "build_scenario_trace", {}),
    ("attacks.scan", "repro.attacks.traffic", "scan_tenants", {}),
    ("fleet.worker_start", "repro.fleet.dispatcher", "ServiceWorker.start", {}),
    ("fleet.expand", "repro.fleet.dispatcher", "expand_units", {}),
    ("service.submit", "repro.service.client", "ServiceClient.submit", {"sampled": True}),
    ("fleet.db_record", "repro.fleet.db", "FleetDB.record_unit", {"sampled": True}),
    ("fleet.report", "repro.fleet.report", "write_report", {}),
    # Worker side: the whole unit as a fleet worker executes it.
    ("service.execute", "repro.harness.parallel", "execute_unit", {}),
]


def group(span: str) -> str:
    """Layer group of a span: its first name part, two for ``security``."""
    parts = span.split(".")
    return ".".join(parts[:2]) if parts[0] == "security" else parts[0]


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`SPANS` with a span of ``tracer``."""
    for name, module_name, path, options in SPANS:
        module = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, **options)))
            continue
        wrapped = tracer.wrap(name, raw, **options)
        setattr(owner, attr, wrapped)
        if owner is module:
            replace_everywhere(raw, wrapped)


def load_snapshots(directory: Path) -> Dict[str, dict]:
    """Span snapshots by process: ``main`` and ``worker-<pid>``."""
    return {path.stem: json.loads(path.read_text())
            for path in sorted(Path(directory).glob("*.json"))}


def layer_metrics(snapshots: List[dict], extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from one traced iteration's snapshots."""
    view = merge(snapshots)
    spans, samples, counters = view["spans"], view["samples"], view["counters"]

    def own_s(*names: str) -> float:
        return sum(spans.get(n, [0, 0, 0])[2] for n in names) / 1e9

    def calls(*names: str) -> int:
        return sum(spans.get(n, [0, 0, 0])[0] for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms(name: str, q: float) -> float:
        values = samples.get(name)
        if not values:
            return 0.0
        pick = percentile if q <= 0.5 else tail_percentile
        return pick(values, q) / 1e6

    count = counters.get
    lookups = calls("harness.trace_store.get")
    values = {
        "harness.trace_store.get_s": own_s("harness.trace_store.get"),
        "harness.trace_store.hit_ratio": ratio(
            lookups - count("harness.trace_store.misses", 0), lookups),
        "harness.memo.s": own_s("harness.memo"),
        "harness.memo.hits": count("harness.memo.hits", 0),
        "harness.memo.misses": count("harness.memo.misses", 0),
        "workloads.generate_s": own_s("workloads.generate"),
        "workloads.ops": count("workloads.ops", 0),
        "cpu.trace_io.pack_s": own_s("cpu.trace_io.pack"),
        "engine.run_s": own_s("engine.run"),
        "engine.events": count("engine.events", 0),
        "engine.ns_per_event": ratio(
            spans.get("harness.run_trace", [0, 0, 0])[1],
            count("engine.events_in_run_trace", 0)),
        "mem.hierarchy.s": own_s("mem.hierarchy"),
        "mem.hierarchy.calls": calls("mem.hierarchy"),
        "mem.nvm.reads": count("sim.nvm.reads", 0),
        "mem.nvm.writes": count("sim.nvm.writes", 0),
        "core.controller.s": own_s("core.controller"),
        "core.controller.calls": calls("core.controller"),
        "core.cycles": count("sim.cycles", 0),
        "core.cpi": ratio(count("sim.cycles", 0), count("sim.instructions", 0)),
        "core.fence_stall_share": ratio(
            count("sim.core.fence_stall_cycles", 0), count("sim.cycles", 0)),
        "wpq.inserts": count("sim.wpq.inserts", 0),
        "wpq.retries_per_kwr": 1000 * ratio(
            count("sim.wpq.retry_events", 0), count("sim.controller.writes", 0)),
        "security.meta.s": own_s("security.meta"),
        "security.meta.hit_ratio": ratio(
            count("meta.accesses", 0) - count("meta.misses", 0),
            count("meta.accesses", 0)),
        "security.merkle.s": own_s("security.merkle"),
        "crypto.mac.s": own_s("crypto.mac"),
        "crypto.mac.calls": calls("crypto.mac"),
        "crypto.pad.s": own_s("crypto.pad"),
        "crypto.pad.calls": calls("crypto.pad"),
        "recovery.crash.s": own_s("recovery.crash"),
        "recovery.recover.s": own_s("recovery.recover"),
        "recovery.calls": calls("recovery.crash", "recovery.recover"),
        "oracle.enumerate.s": own_s("oracle.enumerate"),
        "oracle.sites": calls("oracle.check_site"),
        "oracle.check_site.p50_ms": ms("oracle.check_site", 0.5),
        "oracle.reconstruct.s": own_s("oracle.reconstruct"),
        "scenarios.build.s": own_s("scenarios.build"),
        "attacks.scan.s": own_s("attacks.scan"),
        "fleet.worker_start.s": own_s("fleet.worker_start"),
        "fleet.expand.s": own_s("fleet.expand"),
        "service.submit.p50_ms": ms("service.submit", 0.5),
        "service.submit.p90_ms": ms("service.submit", 0.9),
        "fleet.db_record.p50_ms": ms("fleet.db_record", 0.5),
        "fleet.report.s": own_s("fleet.report"),
        "fleet.steals": 0,
        "fleet.redispatches": 0,
        "fleet.duplicates": 0,
        "fleet.orchestration_share": 0.0,
        "paper_err_pct": 0.0,
    }
    dispatched = extra.pop("dispatcher_unit_s", 0.0)
    if dispatched:
        executed = spans.get("service.execute", [0, 0, 0])[1] / 1e9
        values["fleet.orchestration_share"] = 1.0 - executed / dispatched
    values.update(extra)
    return values


def self_time_table(snapshots: List[dict]) -> List[tuple]:
    """(group, self seconds) by descending self time."""
    view = merge(snapshots)
    groups: Dict[str, float] = {}
    for name, (_calls, _total, own) in view["spans"].items():
        groups[group(name)] = groups.get(group(name), 0.0) + own / 1e9
    return sorted(groups.items(), key=lambda item: -item[1])


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        name: statistics.median(run[name] for run in runs)
        for name, *_ in PER_LAYER
        if name in runs[0]
    }
