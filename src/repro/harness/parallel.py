"""Parallel experiment engine: fan independent run units over processes.

Every paper experiment is a pure function of its *run units* — one
simulation per (workload, controller config, transactions, seed).  The
units are independent, so they can execute in any order on any worker;
only the surrounding arithmetic (speedup ratios, means, table rows)
cares about which result belongs to which unit.

The engine exploits that with a record/replay scheme that needs no
per-experiment orchestration code:

1. **Record** — run the experiment function once with a
   :class:`RecordingExecutor` installed.  Each ``_run`` call yields a
   cheap placeholder result while its :class:`RunUnit` is recorded (in
   first-request order, deduplicated).  No simulation happens.
2. **Execute** — run the recorded units over a process pool
   (:func:`run_units`); workers share the persistent disk trace cache,
   so each trace is generated at most once across the whole sweep.
3. **Replay** — run the experiment function again with a
   :class:`ReplayExecutor` that returns the real result for each unit.
   The replay performs the exact arithmetic of a serial run, in the
   same order, on the same values — so tables, summaries and exports
   are **bit-identical** to ``jobs=1`` output.

The scheme assumes an experiment requests the same units on both
passes — true for the paper's sweeps, whose unit set is a static
(workload × config) product.  If control flow ever diverges, the replay
executor falls back to simulating the missing unit serially, trading
speed for correctness.

:func:`fan_out` is the one pool path behind every ``--jobs`` sweep
(experiments, ``check``, ``faults``, inline fleet campaigns), and
:func:`unit_pool` builds the same pool for ``serve --jobs N``.  Both
share one failure policy: a failed pool call — a dead worker included
— runs once more in-process and is recorded as degraded.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.harness.breakdown import CycleBreakdown, run_with_breakdown
from repro.harness.runner import RunResult, run_trace
from repro.harness.trace_store import TraceCache, cache_location

#: Fork keeps worker start cheap and inherits the warm interpreter; it
#: is the default on Linux.  Platforms without fork fall back to spawn.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class RunUnit:
    """One independent simulation: the unit of parallel work.

    Hashable (every field is frozen/immutable), so units key result
    maps directly.
    """

    workload: str
    config: SimConfig
    transactions: int
    seed: int
    #: ``"run"`` → :func:`repro.harness.runner.run_trace` →
    #: :class:`RunResult`; ``"breakdown"`` →
    #: :func:`repro.harness.breakdown.run_with_breakdown` →
    #: ``(RunResult, CycleBreakdown)``; ``"faults"`` →
    #: :func:`repro.faults.campaign.run_fault_unit` → payload dict;
    #: ``"scenario"`` → :func:`repro.scenarios.loadcurve.run_scenario`
    #: → open-loop sojourn/queueing payload dict.
    mode: str = "run"
    #: Interior crash sites per fault unit (``"faults"`` mode only).
    fault_sites: int = 0
    #: Arrival-process descriptor as sorted key/value pairs
    #: (``"scenario"`` mode only; tuple form keeps the unit hashable).
    scenario: Tuple = ()

    def __str__(self) -> str:
        return f"{self.workload} x{self.transactions} {self.mode}"


#: Per-process unit memo (lazily constructed; see repro.harness.memo).
_UNIT_MEMO = None


def _unit_memo():
    global _UNIT_MEMO
    if _UNIT_MEMO is None:
        from repro.harness.memo import UnitMemo

        _UNIT_MEMO = UnitMemo()
    return _UNIT_MEMO


def execute_unit(unit: RunUnit, cache: TraceCache):
    """Simulate one unit, resolving its trace through ``cache``.

    Plain runs replay the cached packed trace, whose resolved core side
    every design shares, through the content-addressed unit memo — a
    unit whose op stream, config and simulator sources all match an
    earlier run is not resimulated.  Breakdown runs replay the same
    packed trace but bypass the memo: their instrumented results carry
    per-span state the memo does not capture.
    """
    if unit.mode == "breakdown":
        trace = cache.get_packed(
            unit.workload, unit.transactions, unit.config.transaction_size,
            unit.seed,
        )
        return run_with_breakdown(
            unit.config, trace, unit.workload, unit.transactions
        )
    if unit.mode == "faults":
        # Fault units run the seeded injection campaign (crash sites +
        # recovery classification) instead of a plain simulation; their
        # result is the stable payload dict the fleet db records.
        from repro.faults.campaign import fault_unit_payload, run_fault_unit
        from repro.oracle.check import controller_matrix

        label = next(
            (
                name
                for name, config in controller_matrix().items()
                if config == unit.config
            ),
            getattr(unit.config.controller, "value", str(unit.config.controller)),
        )
        report = run_fault_unit(
            unit.workload,
            label,
            unit.config,
            unit.transactions,
            seed=unit.seed,
            sites=unit.fault_sites or 2,
        )
        return fault_unit_payload(report)
    if unit.mode == "scenario":
        # Scenario units replay an arrival-stamped open-loop trace and
        # return the JSON-shaped sojourn/queueing payload.  They bypass
        # the trace cache and unit memo: the stamped trace is built
        # fresh (it is cheap relative to simulation and keyed by more
        # knobs than the cache folds today).
        from repro.scenarios.loadcurve import run_scenario, scenario_tenants

        tenants = scenario_tenants(unit.workload, dict(unit.scenario))
        payload = run_scenario(
            unit.config,
            tenants,
            unit.transactions,
            seed=unit.seed,
            workload_name=unit.workload,
        )
        payload["kind"] = "scenario"
        return payload
    packed = cache.get_packed(
        unit.workload, unit.transactions, unit.config.transaction_size, unit.seed
    )
    return _unit_memo().run(
        unit.config, packed, unit.workload, unit.transactions
    )


# ----------------------------------------------------------------------
# Executors (installed via executor_scope; consulted by experiments._run)
# ----------------------------------------------------------------------
class RecordingExecutor:
    """Discovery pass: record every requested unit, return placeholders."""

    def __init__(self) -> None:
        self._units: Dict[RunUnit, None] = {}

    @property
    def units(self) -> List[RunUnit]:
        """Recorded units, deduplicated, in first-request order."""
        return list(self._units)

    def run(self, unit: RunUnit):
        self._units[unit] = None
        placeholder = RunResult(
            workload=unit.workload,
            controller=unit.config.controller,
            misu_design=unit.config.misu_design,
            transactions=unit.transactions,
            payload_bytes=unit.config.transaction_size,
            cycles=1,
            instructions=1,
        )
        if unit.mode == "breakdown":
            return placeholder, CycleBreakdown(
                total=1, fence_stall=0, read_stall=0
            )
        return placeholder


class ReplayExecutor:
    """Replay pass: serve precomputed results keyed by unit."""

    def __init__(self, results: Dict[RunUnit, object], cache_dir=None) -> None:
        self._results = dict(results)
        self._cache_dir = cache_dir
        self._fallback_cache: Optional[TraceCache] = None
        #: Units the discovery pass missed (control-flow divergence).
        self.fallback_units: List[RunUnit] = []

    def run(self, unit: RunUnit):
        try:
            return self._results[unit]
        except KeyError:
            if self._fallback_cache is None:
                self._fallback_cache = TraceCache(self._cache_dir)
            self.fallback_units.append(unit)
            result = execute_unit(unit, self._fallback_cache)
            self._results[unit] = result
            return result


_ACTIVE = None


def active_executor():
    """The executor installed for the current record/replay pass, if any."""
    return _ACTIVE


@contextmanager
def executor_scope(executor):
    """Install ``executor`` for the duration of one experiment pass.

    Not thread-safe: the engine parallelises across *processes*; the
    coordinating process runs one pass at a time.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = executor
    try:
        yield executor
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# Process-pool execution: one pool type, one failure policy
# ----------------------------------------------------------------------
_POOL_FN: Optional[Callable] = None


def _init_pool_worker(fn) -> None:
    global _POOL_FN
    _POOL_FN = fn


def _execute_pooled(item):
    """Worker-side entry for every pool submission: the installed ``fn``."""
    return _POOL_FN(item)


def _process_pool(jobs: int, fn: Callable):
    """A ``jobs``-worker ``ProcessPoolExecutor`` whose workers run ``fn``.

    Submit :func:`_execute_pooled` with each item.  The initializer
    installs ``fn`` in every worker, so under fork ``fn`` is inherited,
    never pickled.
    """
    # Imported here: concurrent.futures.process loads logging and
    # subprocess, which the serial experiment path never needs.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context(_START_METHOD),
        initializer=_init_pool_worker,
        initargs=(fn,),
    )


class _UnitRunner:
    """:func:`execute_unit` over one lazily built :class:`TraceCache`.

    Installed in a pool, each worker process builds its own cache on
    its first unit; called in-process, the cache lives as long as the
    runner.
    """

    def __init__(self, cache_dir) -> None:
        self.cache_dir = cache_dir
        self.cache: Optional[TraceCache] = None

    def __call__(self, unit: RunUnit):
        if self.cache is None:
            self.cache = TraceCache(self.cache_dir)
        return execute_unit(unit, self.cache)


def unit_pool(jobs: int):
    """A long-lived ``jobs``-worker pool that runs :class:`RunUnit`
    submissions of :func:`_execute_pooled`, as :func:`run_units` does.

    Failure handling is the caller's: a worker death surfaces as
    ``BrokenProcessPool`` on every pending call, and the broken pool
    accepts no more work.
    """
    return _process_pool(jobs, _UnitRunner(cache_location("traces")))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a ``--jobs`` request.

    ``None`` reads ``REPRO_JOBS`` (default 1); 0 or negative means
    "all cores".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


@dataclass
class WorkerFailure:
    """One item whose pool call failed."""

    index: int
    label: str
    #: The pool call's error (``BrokenProcessPool`` for a dead worker).
    error: str
    #: ``"degraded"`` (the in-process rerun succeeded) or ``"failed"``.
    resolution: str


class ParallelExecutionError(RuntimeError):
    """An item failed in the pool and again in-process."""


def report_failures(failures: List[WorkerFailure]) -> None:
    """Print a per-unit failure summary to stderr (empty list: silent)."""
    for failure in failures:
        print(
            f"[parallel] unit {failure.index} ({failure.label}): "
            f"{failure.resolution} after pool error: {failure.error}",
            file=sys.stderr,
        )


def _settle(future, fn, index: int, item, failures: List[WorkerFailure]):
    """``future``'s result; a failed pool call runs once in-process."""
    try:
        return future.result()
    except Exception as exc:
        pool_error = f"{type(exc).__name__}: {exc}"
    label = str(item)[:80]
    try:
        result = fn(item)
    except Exception as exc:
        failures.append(WorkerFailure(index, label, pool_error, "failed"))
        raise ParallelExecutionError(
            f"unit {index} ({label}) failed in the pool ({pool_error}) "
            f"and again in-process: {type(exc).__name__}: {exc}"
        ) from exc
    failures.append(WorkerFailure(index, label, pool_error, "degraded"))
    return result


def fan_out(
    fn,
    items: Sequence,
    jobs: int,
    failures: Optional[List[WorkerFailure]] = None,
    on_result: Optional[Callable[[int, object, object], None]] = None,
) -> List:
    """Map ``fn`` over ``items`` on ``jobs`` worker processes.

    Results line up index-for-index with ``items``, and
    ``on_result(index, item, result)`` fires exactly once per item, in
    index order, as each result lands.  ``jobs <= 1`` (or a single
    item) runs serially in-process, where an error propagates as is.

    The pool path has the service scheduler's failure policy: an item
    whose pool call raises — a dead worker's ``BrokenProcessPool``
    included — runs once more in-process and is recorded as a
    ``"degraded"`` :class:`WorkerFailure`, so results stay
    bit-identical to a serial run.  :class:`ParallelExecutionError` is
    raised only when the in-process run fails too.  Pass ``failures``
    to collect the records; otherwise they are printed to stderr.
    There is no timeout: a hung worker holds the sweep.  Items (and,
    without fork, ``fn``) must be picklable.
    """
    items = list(items)
    own_failures: List[WorkerFailure] = [] if failures is None else failures
    pool = None
    if jobs > 1 and len(items) > 1:
        pool = _process_pool(min(jobs, len(items)), fn)
    try:
        futures = (
            [pool.submit(_execute_pooled, item) for item in items]
            if pool is not None
            else []
        )
        results = []
        for index, item in enumerate(items):
            if pool is None:
                result = fn(item)
            else:
                result = _settle(futures[index], fn, index, item, own_failures)
            results.append(result)
            if on_result is not None:
                on_result(index, item, result)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if failures is None and own_failures:
        report_failures(own_failures)
    return results


def run_units(
    units: Sequence[RunUnit],
    jobs: int,
    cache_dir=TraceCache.AUTO,
    failures: Optional[List[WorkerFailure]] = None,
    on_result: Optional[Callable[[int, RunUnit, object], None]] = None,
) -> List:
    """:func:`fan_out` of :func:`execute_unit` over ``units``.

    Each process resolves traces through its own :class:`TraceCache`
    on ``cache_dir``, which every worker shares on disk.
    """
    if cache_dir is TraceCache.AUTO:
        cache_dir = cache_location("traces")
    return fan_out(_UnitRunner(cache_dir), units, jobs, failures, on_result)


def run_experiment_parallel(
    name: str,
    jobs: int,
    cache_dir=TraceCache.AUTO,
    **kwargs,
):
    """Record/execute/replay one registered experiment on ``jobs`` workers.

    Returns the same :class:`~repro.harness.experiments.ExperimentResult`
    a serial ``run_experiment(name, **kwargs)`` would, bit-identically.
    """
    # Imported here: experiments.py imports this module at load time.
    from repro.harness.experiments import EXPERIMENTS

    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None

    recorder = RecordingExecutor()
    with executor_scope(recorder):
        discovery_result = fn(**kwargs)
    units = recorder.units
    if not units:
        # Static experiment (tab03, sec55): no run units were requested,
        # so the discovery pass already computed the real result.
        return discovery_result

    results = run_units(units, jobs, cache_dir)
    replay = ReplayExecutor(dict(zip(units, results)), cache_dir)
    with executor_scope(replay):
        return fn(**kwargs)
