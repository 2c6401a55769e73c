"""Content-addressed memoization of whole run units.

Sweeps and fleet campaigns resimulate the same (trace, config) pairs
constantly — across processes, sessions and seeds.  This module gives
each run unit a *content* identity and caches its end-state metrics on
disk, so a unit whose op stream, configuration and simulator sources
are all byte-identical to an earlier run is simulated once **ever**
and replayed as a dictionary lookup afterwards.

The unit key digests :data:`MEMO_VERSION` and three fingerprints:

* **trace** — :meth:`repro.harness.trace_store.TraceStore.payload_digest`
  of the op stream, the digest the trace store already checks every
  entry against.  Identical streams share a key whatever seeds
  produced them.
* **config fingerprint** — canonical JSON of the full
  :class:`repro.config.SimConfig`.
* **model fingerprint** — a digest over the ``repro`` package sources,
  so *any* code change invalidates every cached result (metrics are
  pinned bit-exactly; a stale hit would be a silent wrong answer).

Entries are :func:`repro.harness.runner.result_payload` dicts in a
:class:`repro.harness.trace_store.ResultStore` — the same codec,
digest and store as the service's result cache — so a corrupt or
undecodable entry is quarantined and counts as a miss, never as a
wrong result.

Location: ``REPRO_UNIT_MEMO=<dir>``; ``off`` (or
``0``/``none``/``disabled``/empty) disables the memo; unset — the
``units`` sibling of the trace cache, so ``REPRO_TRACE_CACHE=off``
with ``REPRO_UNIT_MEMO`` unset disables both layers together (see
:func:`repro.harness.trace_store.cache_location`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from enum import Enum
from pathlib import Path
from typing import Optional

from repro.config import SimConfig
from repro.harness.runner import (
    RunResult,
    payload_to_result,
    result_payload,
    run_trace,
)
from repro.harness.trace_store import ResultStore, TraceStore, cache_location

#: Bump to invalidate every cached unit result (format or key changes).
MEMO_VERSION = 2

_MODEL_FINGERPRINT: Optional[str] = None


def model_fingerprint() -> str:
    """Digest of every ``repro`` package source file (cached per process)."""
    global _MODEL_FINGERPRINT
    if _MODEL_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _MODEL_FINGERPRINT = digest.hexdigest()[:24]
    return _MODEL_FINGERPRINT


def config_fingerprint(config: SimConfig) -> str:
    """Digest of the canonical JSON encoding of ``config``."""

    def _encode(obj):
        if isinstance(obj, Enum):
            return obj.value
        raise TypeError(f"unexpected config field type {type(obj)!r}")

    material = json.dumps(asdict(config), sort_keys=True, default=_encode)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


class UnitMemo:
    """Disk memo of completed run units, keyed by content."""

    #: Sentinel meaning "resolve the directory from the environment".
    AUTO = object()

    def __init__(self, cache_dir=AUTO) -> None:
        if cache_dir is UnitMemo.AUTO:
            cache_dir = cache_location("units")
        self._store = ResultStore(cache_dir) if cache_dir is not None else None

    @property
    def enabled(self) -> bool:
        return self._store is not None

    @property
    def hits(self) -> int:
        return self._store.hits if self._store is not None else 0

    @property
    def misses(self) -> int:
        return self._store.misses if self._store is not None else 0

    @property
    def quarantined_entries(self) -> int:
        """Corrupt entries moved aside by the backing store."""
        return self._store.quarantined if self._store is not None else 0

    # ------------------------------------------------------------------
    def key_for(self, config: SimConfig, trace) -> str:
        """The unit's content key (trace digest + fingerprints)."""
        material = json.dumps(
            {
                "memo_version": MEMO_VERSION,
                "trace": TraceStore.payload_digest(trace),
                "config": config_fingerprint(config),
                "model": model_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[RunResult]:
        if self._store is None:
            return None
        return self._store.load(key, payload_to_result)

    def store(self, key: str, result: RunResult) -> None:
        if self._store is None:
            return
        self._store.store(key, result_payload(result))

    # ------------------------------------------------------------------
    def run(
        self,
        config: SimConfig,
        trace,
        workload_name: str = "trace",
        transactions: int = 0,
    ) -> RunResult:
        """Memoized :func:`repro.harness.runner.run_trace`.

        A content hit replays the cached end-state metrics without
        simulating; a miss simulates and populates the memo.
        """
        if self._store is None:
            return run_trace(config, trace, workload_name, transactions)
        key = self.key_for(config, trace)
        cached = self.load(key)
        if cached is not None:
            return cached
        result = run_trace(config, trace, workload_name, transactions)
        self.store(key, result)
        return result
