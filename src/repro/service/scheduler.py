"""Job admission: dedup, dispatch, and drain.

The scheduler is the single-writer owner of all job state; it runs on
the server's asyncio loop, so no locks are needed.

Admission pipeline for one ``submit``:

1. **Key** the spec (:func:`repro.service.protocol.job_key`).
2. **Dedup** — an identical job already admitted gains a waiter
   (``dedup="inflight"``); a key present in the persistent
   :class:`~repro.harness.trace_store.ResultStore` replays from disk
   with its payload digest re-verified (``dedup="cached"``); otherwise
   the job is new.
3. **Dispatch** — a new job starts in the ``submit`` call that admits
   it, as one :meth:`ExperimentScheduler._execute` task.  That
   coroutine awaits :func:`repro.harness.parallel.execute_unit` on a
   thread (``jobs <= 1``) or on a process pool (``jobs >= 2``; built by
   :func:`repro.harness.parallel.unit_pool`, the pool every ``--jobs``
   sweep uses).  Results are identical either way.  The pool path has
   the sweeps' failure policy (:func:`repro.harness.parallel.fan_out`):
   a pool call that raises — a worker death included — is run once
   more in-process and the job is marked ``degraded``.  A broken pool
   is dropped and the next job builds a fresh one.  On the thread path
   an error fails the job.
4. **Complete** — the result payload is digest-stamped, written to the
   result store, and every waiter's future resolves.

``drain()`` implements graceful shutdown: new submissions are refused,
but every *accepted* job completes and reaches its waiters before
drain returns.
"""

from __future__ import annotations

import asyncio
import enum
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.harness.parallel import (
    RunUnit,
    _execute_pooled,
    execute_unit,
    unit_pool,
)
from repro.harness.trace_store import ResultStore, TraceCache, cache_location
from repro.service.protocol import (
    JobSpec,
    job_key,
    result_digest,
    result_payload,
    spec_to_run_unit,
)
from repro.tracing.progress import JobEventLog


class DrainingError(RuntimeError):
    """Submission refused: the scheduler is draining for shutdown."""


class JobStatus(enum.Enum):
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One deduplicated unit of work and everyone waiting on it."""

    key: str
    spec: JobSpec
    unit: RunUnit
    status: JobStatus = JobStatus.RUNNING
    payload: Optional[dict] = None
    digest: Optional[str] = None
    error: Optional[str] = None
    #: Replayed from the persistent result store (no simulation ran).
    cached: bool = False
    #: Completed in-process after its pool call failed.
    degraded: bool = False
    #: Resolved (with this Job) when the job reaches a terminal state.
    done: asyncio.Future = field(default_factory=asyncio.Future)

    @property
    def finished(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.FAILED)


class ExperimentScheduler:
    """Dedup front of the simulation executor (single-loop)."""

    def __init__(
        self,
        jobs: int = 1,
        result_cache_dir=TraceCache.AUTO,
        events: Optional[JobEventLog] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        if result_cache_dir is TraceCache.AUTO:
            result_cache_dir = cache_location("results")
        self.results = (
            ResultStore(result_cache_dir)
            if result_cache_dir is not None
            else None
        )
        self.events = events if events is not None else JobEventLog()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._thread_cache: Optional[TraceCache] = None
        self._jobs: Dict[str, Job] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # -- counters (the ``stats`` wire reply) --
        self.submitted = 0
        self.dedup_inflight = 0
        self.dedup_cached = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------
    def _emit(self, kind: str, detail: str) -> None:
        loop = self._loop or asyncio.get_event_loop()
        self.events.event(int(loop.time() * 1e6), kind, detail)

    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec) -> Job:
        """Admit one job; returns its (possibly shared) :class:`Job`.

        The returned job may already be finished (cache replay / dedup
        against a completed job); otherwise await ``job.done``.
        """
        self._loop = asyncio.get_running_loop()
        if self._draining:
            raise DrainingError("server is draining; job refused")
        key = job_key(spec)
        self.submitted += 1
        self._emit("job.submitted", f"{key}:{spec.experiment_id or '-'}")

        existing = self._jobs.get(key)
        if existing is not None:
            self.dedup_inflight += 1
            self._emit("job.dedup", f"{key}:inflight")
            return existing

        job = Job(key=key, spec=spec, unit=spec_to_run_unit(spec))
        self._jobs[key] = job

        if self.results is not None:
            payload = self.results.load(key)
            if payload is not None:
                self.dedup_cached += 1
                job.cached = True
                self._emit("job.dedup", f"{key}:cached")
                self._finish(job, payload=payload)
                return job

        self._idle.clear()
        self._emit("job.started", key)
        task = self._loop.create_task(self._execute(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    # -- execution -------------------------------------------------------
    async def _execute(self, job: Job) -> None:
        """Run ``job`` to a terminal state: the one execution path."""
        try:
            if self.jobs >= 2:
                result = await self._run_pooled(job)
            else:
                result = await self._run_inline(job)
        except Exception as exc:
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return
        self._finish(job, result=result)

    async def _run_inline(self, job: Job):
        if self._thread_cache is None:
            self._thread_cache = TraceCache()
        return await asyncio.to_thread(
            execute_unit, job.unit, self._thread_cache
        )

    async def _run_pooled(self, job: Job):
        if self._pool is None:
            self._pool = unit_pool(self.jobs)
        pool = self._pool
        try:
            return await self._loop.run_in_executor(
                pool, _execute_pooled, job.unit
            )
        except Exception as exc:
            # A dead worker breaks the whole pool: replace it lazily.
            if isinstance(exc, BrokenProcessPool) and self._pool is pool:
                self._pool = None
                pool.shutdown(wait=False)
        # Any failed pool call gets one in-process run.
        job.degraded = True
        return await self._run_inline(job)

    def _finish(
        self,
        job: Job,
        result=None,
        payload: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> None:
        if error is not None:
            job.status = JobStatus.FAILED
            job.error = error
            self.failed += 1
            outcome = "error"
        else:
            if payload is None:
                payload = result_payload(result)
                if self.results is not None:
                    self.results.store(job.key, payload)
            job.payload = payload
            job.digest = result_digest(payload)
            job.status = JobStatus.DONE
            self.completed += 1
            outcome = "degraded" if job.degraded else "ok"
        self._emit("job.completed", f"{job.key}:{outcome}")
        if not job.done.done():
            job.done.set_result(job)
        if not any(not j.finished for j in self._jobs.values()):
            self._idle.set()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters for the wire ``stats`` reply and the smoke test."""
        in_flight = sum(1 for j in self._jobs.values() if not j.finished)
        dedup_hits = self.dedup_inflight + self.dedup_cached
        return {
            "submitted": self.submitted,
            "unique_jobs": len(self._jobs),
            "in_flight": in_flight,
            "completed": self.completed,
            "failed": self.failed,
            "dedup_inflight": self.dedup_inflight,
            "dedup_cached": self.dedup_cached,
            "dedup_hits": dedup_hits,
            "dedup_hit_rate": (
                dedup_hits / self.submitted if self.submitted else 0.0
            ),
            "result_store_hits": self.results.hits if self.results else 0,
            "events": self.events.snapshot(),
            "draining": self._draining,
            "jobs": self.jobs,
        }

    # -- shutdown --------------------------------------------------------
    async def drain(self) -> None:
        """Refuse new work, then wait until every accepted job finishes."""
        self._draining = True
        await self._idle.wait()

    async def close(self) -> None:
        """Drain, then release the worker pool."""
        await self.drain()
        if self._pool is not None:
            await asyncio.to_thread(self._pool.shutdown, True)
            self._pool = None
