"""The benchmark's three workloads.

Each is a closed-loop batch job that a user of the reproduction runs,
sized so that one layer group does most of the work:

* ``paper-fig12`` — the paper's headline experiment, serial, cold
  caches: the simulator layers (engine, mem, core, security.meta).
  No crypto, no orchestration.
* ``fleet-matrix`` — a 2-worker fleet campaign over the whole 8-design
  matrix with an open-loop scenario unit per cell: the service, the
  wire, sqlite and the dispatcher, plus the scenario/attack-scan layers.
* ``crash-oracle`` — crash, recover and reconstruct at every crash site:
  the functional crypto, Merkle, recovery and oracle layers.

A workload has two halves.  ``params(seed)`` builds its inputs and runs
in the benchmark process; ``run_*`` executes one iteration inside a
fresh child process (``perfbench.iteration``) with cold, private cache
directories, and returns plain JSON.  ``check`` and ``end_to_end`` fold
the iterations back together in the benchmark process.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from perfbench.metrics import Tally, percentile, tail_percentile

#: The paper's Figure 12 mean speedups (Full / Partial / Post-WPQ Mi-SU).
PAPER_FIG12 = (1.66, 1.66, 1.59)


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(value) -> str:
    material = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


def paper_err_pct(means: List[float]) -> float:
    """Mean absolute relative error of fig12 mean speedups vs the paper."""
    return 100.0 * statistics.fmean(
        abs(mean - ref) / ref for mean, ref in zip(means, PAPER_FIG12)
    )


class UnitClock:
    """Times each call of one function: the per-unit latency samples."""

    def __init__(self) -> None:
        self.ms: List[float] = []
        self.results: list = []

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ms.append((time.perf_counter_ns() - start) / 1e6)
            self.results.append(result)
            return result

        return timed


def json_files(directory: "str | Path") -> int:
    path = Path(directory)
    return len(list(path.glob("*.json"))) if path.is_dir() else 0


# ======================================================================
# paper-fig12
# ======================================================================
FIG12_TRANSACTIONS = 100
#: Distinct seeds per run; later iterations repeat them, so every run
#: checks that one seed reproduces its digest and that seeds differ.
FIG12_SEEDS = 4


def fig12_params(seed: int) -> List[dict]:
    # 1000 * seed + 2 never yields the experiments' default seed (1),
    # so every fig12 run here is on held-out seeds.
    return [
        {"transactions": FIG12_TRANSACTIONS, "seed": 1000 * seed + 2 + j}
        for j in range(FIG12_SEEDS)
    ]


def run_fig12(params: dict, workdir: Path, on_done: Callable[[], None]) -> dict:
    from repro.harness import memo
    from repro.harness.experiments import run_experiment

    clock = UnitClock()
    memo.UnitMemo.run = clock.wrap(memo.UnitMemo.run)
    ready = now()
    result = run_experiment(
        "fig12", jobs=1, transactions=params["transactions"],
        seed=params["seed"],
    )
    (workdir / "fig12.txt").write_text(result.render())
    done = now()
    on_done()
    sim = [
        [r.workload, r.controller.value, r.misu_design.value, r.cycles,
         r.instructions, r.stats]
        for r in clock.results
    ]
    return {
        "ready": ready,
        "done": done,
        "units": len(clock.results),
        "unit_ms": clock.ms,
        "sim_tx": params["transactions"] * len(clock.results),
        "means": list(result.summary.values()),
        "sim_digest": digest(sim),
        "memo_entries": json_files(os.environ["REPRO_UNIT_MEMO"]),
    }


def by_seed(iterations: List[dict]) -> Dict[int, List[dict]]:
    groups: Dict[int, List[dict]] = {}
    for it in iterations:
        groups.setdefault(it["params"]["seed"], []).append(it)
    return groups


def check_fig12(iterations: List[dict], tally: Tally, out: Callable) -> Dict[str, float]:
    seeds = by_seed(iterations)
    digests = {}
    for seed, its in sorted(seeds.items()):
        first = its[0]["result"]
        digests[seed] = first["sim_digest"]
        for it in its[1:]:
            if it["result"]["sim_digest"] != first["sim_digest"]:
                tally.fail(f"fig12 seed {seed}: sim_digest differs between "
                           "two runs of one seed", it["result"]["units"])
        for it in its:
            res = it["result"]
            if res["memo_entries"] != res["units"]:
                tally.fail(f"fig12 seed {seed}: unit memo replayed "
                           f"{res['units'] - res['memo_entries']} units "
                           "(caches must be cold)", res["units"])
        means = first["means"]
        if not all(mean > 1.0 for mean in means):
            tally.fail(f"fig12 seed {seed}: a Mi-SU design is not above "
                       f"Pre-WPQ (means {means})", first["units"])
        out(f"fig12 seed {seed}: sim_digest {first['sim_digest']} "
            f"(x{len(its)}), mean speedups "
            + " / ".join(f"{m:.4f}" for m in means)
            + f" vs paper 1.66 / 1.66 / 1.59, paper_err_pct "
            f"{paper_err_pct(means):.3f}")
    if len(set(digests.values())) != len(digests):
        tally.fail("fig12: two seeds gave the same sim_digest", 1)
    pooled = [
        statistics.fmean(its[0]["result"]["means"][d] for its in seeds.values())
        for d in range(3)
    ]
    err = paper_err_pct(pooled)
    out(f"fig12 held-out seeds {sorted(seeds)} (default seed is 1): "
        "ordering Full/Partial/Post-WPQ Mi-SU > Pre-WPQ "
        + ("holds" if all(m > 1.0 for m in pooled) else "FAILS")
        + f"; pooled paper_err_pct {err:.3f} (sim)")
    return {"paper_err_pct": paper_err_pct(iterations[0]["result"]["means"])}


# ======================================================================
# fleet-matrix
# ======================================================================
FLEET_WORKLOADS = ("hashmap", "btree", "rbtree")
FLEET_SEEDS = 3
FLEET_TRANSACTIONS = 20
FLEET_WORKERS = 2
FLEET_SCENARIO = {
    "arrivals": "mmpp", "rate": 0.06, "burst": 1.6, "skew": 0.8,
    "adversary": "wpq-hammer",
}
#: Units re-executed in-process to compare payload digests.
FLEET_SAMPLES = 4


def fleet_params(seed: int) -> List[dict]:
    return [{
        "seeds": [FLEET_SEEDS * seed + 1 + j for j in range(FLEET_SEEDS)],
        "sample_seed": seed,
    }]


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_fleet(params: dict, workdir: Path, on_done: Callable[[], None]) -> dict:
    from repro.fleet import dispatcher as fleet
    from repro.fleet.db import FleetDB
    from repro.fleet.report import write_report
    from repro.harness.parallel import execute_unit
    from repro.harness.trace_store import TraceCache
    from repro.matrix import matrix_labels
    from repro.service.protocol import JobSpec, result_digest, result_payload

    worker_hwm_kb: List[int] = []
    stop = fleet.ServiceWorker.stop

    def stop_and_measure(worker):
        if worker.process is not None:
            worker_hwm_kb.append(_vm_hwm_kb(worker.process.pid))
        stop(worker)

    fleet.ServiceWorker.stop = stop_and_measure

    campaign = fleet.CampaignSpec(
        name="perfbench",
        workloads=FLEET_WORKLOADS,
        designs=tuple(matrix_labels("all")),
        seeds=tuple(params["seeds"]),
        transactions=FLEET_TRANSACTIONS,
        scenario=tuple(sorted(FLEET_SCENARIO.items())),
    )
    db = FleetDB(os.environ["REPRO_FLEET_DB"])
    ready: List[float] = []
    dispatcher = fleet.FleetDispatcher(
        campaign,
        db,
        workers=FLEET_WORKERS,
        runtime_dir=workdir / "rt",
        worker_env=dict(os.environ),
        on_worker_start=lambda _worker: ready.append(now()),
    )
    summary = dispatcher.run()
    write_report(db, campaign.name, workdir / "report")
    done = now()
    on_done()

    status = db.status(campaign.name)
    rows = db.unit_rows(campaign.name)
    failures = []
    if db.integrity_check() != "ok":
        failures.append("FleetDB integrity_check is not ok")
    # Re-execute a seeded sample in-process, with no cache of any kind,
    # and compare payload digests with what the workers recorded.
    os.environ["REPRO_UNIT_MEMO"] = "off"
    rng = random.Random(params["sample_seed"])
    sample = rng.sample(rows, FLEET_SAMPLES)
    if not any(row.mode == "scenario" for row in sample):
        sample[-1] = rng.choice([row for row in rows if row.mode == "scenario"])
    cache = TraceCache(cache_dir=None)
    for row in sample:
        unit = fleet.spec_to_run_unit(JobSpec.from_wire(row.spec))
        local = result_digest(result_payload(execute_unit(unit, cache)))
        if local != result_digest(row.payload):
            failures.append(f"unit {row.unit_key} ({row.mode}, {row.design}):"
                            " worker payload differs from in-process run")
    run_units = sum(1 for row in rows if row.mode == "run")
    return {
        "ready": ready[FLEET_WORKERS - 1],
        "done": done,
        "units": summary.units_total,
        "recorded": status["units"],
        "quarantined": status["quarantined"],
        "duplicates": summary.duplicates,
        "redispatches": summary.redispatches,
        "steals": summary.steals,
        "worker_deaths": summary.worker_deaths,
        "unit_ms": [row.elapsed_s * 1e3 for row in rows],
        # Submit-to-result time the dispatcher saw, summed over units.
        "dispatched_s": sum(row.elapsed_s for row in rows),
        "sim_tx": sum(row.transactions for row in rows),
        "payload_digest": digest(sorted((r.unit_key, r.payload_digest)
                                        for r in rows)),
        "run_units": run_units,
        "memo_entries": json_files(workdir / "units"),
        "result_entries": json_files(workdir / "results"),
        "failures": failures,
        "worker_rss_kb": sum(worker_hwm_kb),
    }


def check_fleet(iterations: List[dict], tally: Tally, out: Callable) -> Dict[str, float]:
    first = iterations[0]["result"]
    for it in iterations:
        res = it["result"]
        units = res["units"]
        for reason in res["failures"]:
            tally.fail(f"fleet: {reason}")
        if res["recorded"] != units:
            tally.fail(f"fleet: {res['recorded']} of {units} units recorded",
                       abs(units - res["recorded"]) or 1)
        for key in ("duplicates", "redispatches", "quarantined",
                    "worker_deaths"):
            if res[key]:
                tally.fail(f"fleet: {res[key]} {key}", res[key])
        if res["memo_entries"] != res["run_units"]:
            tally.fail("fleet: unit memo replayed "
                       f"{res['run_units'] - res['memo_entries']} units "
                       "(caches must be cold)", 1)
        if res["result_entries"] != units:
            tally.fail("fleet: result cache replayed "
                       f"{units - res['result_entries']} units", 1)
        if res["payload_digest"] != first["payload_digest"]:
            tally.fail("fleet: two runs of one campaign recorded different "
                       "payloads", units)
    out(f"fleet: {first['units']} units x {len(iterations)} campaigns, "
        f"payload digest {first['payload_digest']}, steals "
        f"{first['steals']}, {FLEET_SAMPLES} sampled units re-executed "
        "in-process")
    return {
        "fleet.steals": statistics.median(
            it["result"]["steals"] for it in iterations),
        "fleet.redispatches": statistics.median(
            it["result"]["redispatches"] for it in iterations),
        "fleet.duplicates": statistics.median(
            it["result"]["duplicates"] for it in iterations),
    }


# ======================================================================
# crash-oracle
# ======================================================================
ORACLE_WORKLOADS = ("hashmap", "btree")
ORACLE_DESIGNS = ("dolos-post", "prewpq-lazy", "writethrough")
ORACLE_TRANSACTIONS = 16
#: Distinct seeds per run, repeated like fig12's: the work per site
#: grows with the crash cycle, which varies by about 10% between seeds.
ORACLE_SEEDS = 4
#: Crash sites checked per (workload, design), spread evenly over the
#: run, so every seed checks the same number (units have 50 or more).
ORACLE_SITE_BUDGET = 48


def oracle_params(seed: int) -> List[dict]:
    return [
        {"transactions": ORACLE_TRANSACTIONS, "seed": ORACLE_SEEDS * seed + j}
        for j in range(ORACLE_SEEDS)
    ]


def run_crash_oracle(params: dict, workdir: Path, on_done: Callable[[], None]) -> dict:
    from repro.oracle import check as oracle

    clock = UnitClock()
    oracle.check_site = clock.wrap(oracle.check_site)
    ready = now()
    report = oracle.run_oracle(
        list(ORACLE_WORKLOADS), list(ORACLE_DESIGNS),
        transactions=params["transactions"], seed=params["seed"], jobs=1,
        site_budget=ORACLE_SITE_BUDGET,
    )
    (workdir / "oracle.json").write_text(report.to_json())
    done = now()
    on_done()
    return {
        "ready": ready,
        "done": done,
        # Every site check, failed ones included.
        "units": len(clock.ms),
        "unit_ms": clock.ms,
        "sim_tx": params["transactions"] * len(report.units),
        "passed": report.passed,
        "failures": [f for u in report.units for f in u.failures]
        + list(report.mismatches),
        "attacks": [sum(u.attacks_run for u in report.units),
                    sum(u.attacks_detected for u in report.units)],
        "digests": {f"{u.workload}/{u.controller}": u.final_digest
                    for u in report.units},
    }


def check_oracle(iterations: List[dict], tally: Tally, out: Callable) -> Dict[str, float]:
    for seed, its in sorted(by_seed(iterations).items()):
        first = its[0]["result"]
        for it in its:
            res = it["result"]
            for reason in res["failures"]:
                tally.fail(f"oracle seed {seed}: {reason}")
            if not res["passed"] and not res["failures"]:
                tally.fail(f"oracle seed {seed}: OracleReport.passed is false")
            if (res["digests"], res["units"]) != (first["digests"], first["units"]):
                tally.fail(f"oracle seed {seed}: two runs of one seed disagree",
                           res["units"])
        run, detected = first["attacks"]
        out(f"oracle seed {seed}: {first['units']} sites x {len(its)} runs, "
            f"attacks detected {detected}/{run}, passed "
            f"{all(it['result']['passed'] for it in its)}")
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> the input of each distinct iteration, run in turn.
    params: Callable[[int], List[dict]]
    #: (params, iteration dir, on_done) -> result, in the child process.
    run: Callable[..., dict]
    #: (iterations, tally, log) -> per-layer values the check measured.
    check: Callable[..., Dict[str, float]]
    #: Enough iterations to repeat one input, so determinism is checked.
    min_iterations: int
    #: Layer groups this workload is built to load, whose share of all
    #: self time the traced run prints.
    focus: Tuple[str, ...]
    #: Worker processes an iteration starts (each writes spans).
    processes: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-fig12",
            "the paper's headline experiment, serial and cold: simulator "
            "layers only, no crypto, no orchestration",
            fig12_params, run_fig12, check_fig12, FIG12_SEEDS + 1,
            ("engine", "mem", "core", "security.meta"),
        ),
        Workload(
            "fleet-matrix",
            "a 2-worker fleet campaign over all 8 designs with open-loop "
            "scenario units: orchestration, wire, sqlite",
            fleet_params, run_fleet, check_fleet, 2,
            # Its layers run concurrently in three processes, so the
            # separation shows as fleet.orchestration_share instead.
            (), FLEET_WORKERS,
        ),
        Workload(
            "crash-oracle",
            "crash, recover and reconstruct at every crash site: crypto, "
            "Merkle, recovery and oracle layers",
            oracle_params, run_crash_oracle, check_oracle, ORACLE_SEEDS + 1,
            ("crypto", "security.merkle", "recovery", "oracle"),
        ),
    )
}


def end_to_end(iterations: List[dict]) -> Dict[str, float]:
    """Median over iterations; unit latency over the pooled units."""
    walls = [it["result"]["done"] - it["result"]["ready"] for it in iterations]
    samples = [ms for it in iterations for ms in it["result"]["unit_ms"]]
    return {
        "setup_s": statistics.median(
            it["result"]["ready"] - it["spawned"] for it in iterations),
        "wall_s": statistics.median(walls),
        "sim_tx_per_s": statistics.median(
            it["result"]["sim_tx"] / wall for it, wall in zip(iterations, walls)),
        "units_per_s": statistics.median(
            it["result"]["units"] / wall for it, wall in zip(iterations, walls)),
        "unit_p50_ms": percentile(samples, 0.5),
        "unit_p90_ms": tail_percentile(samples, 0.9),
        "cpu_s": statistics.median(it["result"]["cpu_s"] for it in iterations),
        "peak_rss_mb": statistics.median(it["rss_mb"] for it in iterations),
    }
