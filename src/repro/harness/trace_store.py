"""Persistent, content-addressed stores behind every on-disk cache.

Generating a WHISPER trace is pure-Python work that dominates short
experiment runs; :class:`TraceStore` gives every (workload,
transactions, payload, seed) trace a stable on-disk identity so sweeps
— serial or fanned out over a process pool — generate each trace once
*ever* and replay it from disk afterwards.  :class:`ResultStore` keeps
result payloads (the unit memo's and the service's) the same way.

Both are one implementation, :class:`_EntryStore`: one top-level file
per entry (``<name>.npz`` for traces, ``<key>.json`` for results), each
carrying a digest of its payload bytes that is re-checked on every
load.  A trace's filename embeds both the human-readable key and a
SHA-256 digest of the full cache key, which includes
:data:`repro.workloads.GENERATOR_VERSION` and the trace-format version
— bumping either invalidates old entries without any cleanup pass.

Concurrency: writers serialise an entry to a temporary file in the
store directory and ``os.replace`` it into place.  The rename is atomic
on POSIX, so pool workers racing to fill the same key each write a
complete file and the last one wins with identical content; readers
never observe a torn entry.  An entry that fails to read, verify or
decode is moved into ``quarantine/`` and counts as a miss.

Locations (:func:`cache_location`, the one resolver):

* ``REPRO_TRACE_CACHE=<dir>`` — trace cache directory (created on
  demand); unset — ``~/.cache/dolos-repro/traces`` (respects
  ``XDG_CACHE_HOME``).
* ``REPRO_UNIT_MEMO`` / ``REPRO_RESULT_CACHE`` — unit-memo and service
  result-cache directories; unset — the ``units`` / ``results``
  sibling of the trace cache, so ``REPRO_TRACE_CACHE=off`` disables
  them too.
* ``off`` (or ``0``/``none``/``disabled``/empty) disables any of the
  three.
* ``REPRO_FLEET_DB=<path>`` — the fleet database file (no off value;
  unset or empty — ``~/.cache/dolos-repro/fleet.sqlite``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.cpu import trace_io
from repro.harness.runner import result_digest
from repro.workloads import GENERATOR_VERSION, generate_trace

#: Cache key type: (workload, transactions, payload_bytes, seed).
TraceKey = Tuple[str, int, int, int]

_DISABLED_VALUES = {"", "off", "0", "none", "disabled"}

#: Each cache's environment variable, by its default name under
#: ``dolos-repro/``.
_CACHE_ENV = {
    "traces": "REPRO_TRACE_CACHE",
    "units": "REPRO_UNIT_MEMO",
    "results": "REPRO_RESULT_CACHE",
    "fleet.sqlite": "REPRO_FLEET_DB",
}

_T = TypeVar("_T")


def cache_location(name: str) -> Optional[Path]:
    """Resolve one cache's location from the environment.

    ``name`` is ``traces``, ``units``, ``results`` or ``fleet.sqlite``;
    returns ``None`` when that cache is disabled.
    """
    env = os.environ.get(_CACHE_ENV[name])
    if name == "fleet.sqlite":
        if env and env.strip():
            return Path(env.strip()).expanduser()
    elif env is not None:
        if env.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(env).expanduser()
    elif name != "traces":
        traces = cache_location("traces")
        return traces.parent / name if traces is not None else None
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "dolos-repro" / name


class _EntryStore:
    """A directory of digest-checked entries, one file each."""

    #: Subdirectory corrupt entries are moved into (kept for forensics).
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Corrupt, truncated or undecodable entries moved aside.
        self.quarantined = 0

    def _read(self, path: Path, read: Callable[[Path], _T]) -> Optional[_T]:
        """``read(path)``, or ``None`` on a miss.

        Any exception from ``read`` — a torn file, a digest mismatch, a
        payload that does not decode — quarantines the entry and counts
        as a miss, never as an error or a wrong result.
        """
        if not path.exists():
            self.misses += 1
            return None
        try:
            value = read(path)
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _write(self, path: Path, write: Callable[[str], None]) -> Path:
        """Atomically place the file ``write(tmp_name)`` produces at ``path``."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=path.suffix
        )
        os.close(fd)
        try:
            write(tmp_name)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside (fall back to deletion if that fails)."""
        target_dir = self.root / self.QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1


class TraceStore(_EntryStore):
    """Content-addressed on-disk store of generated traces."""

    @staticmethod
    def payload_digest(trace) -> str:
        """Content digest of the trace *payload* (the arrays themselves).

        Stored in the entry's metadata and re-checked on load: the key
        digest authenticates *which* trace the file claims to be, this
        one authenticates its *bytes* — a truncated or bit-rotted file
        fails here even when its header survived intact.  Accepts the
        tuple-list form or a :class:`repro.cpu.trace_io.PackedTrace`
        (both digest identically for the same op stream); the unit memo
        keys runs by it too.
        """
        codes, operands = trace_io.trace_to_arrays(trace)
        material = codes.tobytes() + b"|" + operands.tobytes()
        return hashlib.sha256(material).hexdigest()[:24]

    @staticmethod
    def digest(key: TraceKey) -> str:
        """Stable digest of the full cache identity of ``key``."""
        workload, transactions, payload, seed = key
        material = json.dumps(
            {
                "workload": workload,
                "transactions": transactions,
                "payload": payload,
                "seed": seed,
                "generator_version": GENERATOR_VERSION,
                "format_version": trace_io.FORMAT_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]

    def path_for(self, key: TraceKey) -> Path:
        workload, transactions, payload, seed = key
        name = (
            f"{workload}-t{transactions}-p{payload}-s{seed}-"
            f"{self.digest(key)}.npz"
        )
        return self.root / name

    # ------------------------------------------------------------------
    def load(self, key: TraceKey) -> Optional[List[Tuple]]:
        """Return the cached trace for ``key``, or ``None`` on a miss.

        A corrupt, truncated or mismatched entry counts as a miss: the
        file is quarantined (never surfaced as an unpickling error) and
        the caller regenerates.  Entries written before payload digests
        existed are treated as corrupt — there is no way to vouch for
        their bytes.
        """
        packed = self.load_packed(key)
        return packed.to_trace() if packed is not None else None

    def load_packed(self, key: TraceKey) -> Optional[trace_io.PackedTrace]:
        """Return the cached trace for ``key`` in packed (column) form.

        Same contract as :meth:`load` — corrupt entries quarantine and
        count as misses — but the stored columns are handed back
        directly, skipping the per-op tuple rebuild the replay path no
        longer needs.
        """

        def read(path: Path) -> trace_io.PackedTrace:
            packed, header = trace_io.load_trace_packed(path)
            if header.get("cache_digest") != self.digest(key):
                raise ValueError("cache key mismatch")
            if header.get("payload_digest") != self.payload_digest(packed):
                raise ValueError("payload digest mismatch")
            return packed

        return self._read(self.path_for(key), read)

    def store(self, key: TraceKey, trace) -> Path:
        """Persist ``trace`` under ``key`` (atomic rename, race-safe).

        Accepts the tuple-list form or a packed trace — both serialise
        to the same column format.
        """
        workload, transactions, payload, seed = key
        metadata = {
            "workload": workload,
            "transactions": transactions,
            "payload": payload,
            "seed": seed,
            "generator_version": GENERATOR_VERSION,
            "cache_digest": self.digest(key),
            "payload_digest": self.payload_digest(trace),
        }
        return self._write(
            self.path_for(key),
            lambda tmp: trace_io.save_trace(
                tmp, trace, metadata, compress=False
            ),
        )


class ResultStore(_EntryStore):
    """Content-addressed on-disk cache of completed result payloads.

    The unit memo keys entries by run-unit content, the
    :mod:`repro.service` scheduler by job key; both store the
    :func:`repro.harness.runner.result_payload` dict, stamped with its
    :func:`~repro.harness.runner.result_digest`, which is re-verified
    on load — a corrupt, truncated or undecodable entry is quarantined
    and treated as a miss, never surfaced as a JSON error or, worse, a
    wrong result.
    """

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str, decode: Optional[Callable[[dict], _T]] = None):
        """Return the cached payload for ``key``, or ``None`` on a miss.

        With ``decode``, return ``decode(payload)`` instead; a payload
        that passes the digest check but that ``decode`` rejects is
        quarantined like any other corrupt entry.
        """

        def read(path: Path):
            entry = json.loads(path.read_text())
            payload = entry["payload"]
            if entry.get("key") != key:
                raise ValueError("result cache key mismatch")
            if entry.get("payload_digest") != result_digest(payload):
                raise ValueError("result payload digest mismatch")
            return payload if decode is None else decode(payload)

        return self._read(self.path_for(key), read)

    def store(self, key: str, payload: dict) -> Path:
        """Persist ``payload`` under ``key`` (atomic rename, race-safe)."""
        entry = {
            "key": key,
            "payload": payload,
            "payload_digest": result_digest(payload),
        }
        return self._write(
            self.path_for(key),
            lambda tmp: Path(tmp).write_text(json.dumps(entry, sort_keys=True)),
        )


class TraceCache:
    """Two-level trace cache: per-process memory over a shared disk store.

    Drop-in successor of the old in-memory ``TraceCache`` in
    :mod:`repro.harness.experiments`; pass ``cache_dir=None`` to opt out
    of the disk layer (pure in-memory, the old behaviour).
    """

    #: Sentinel meaning "resolve the directory from the environment".
    AUTO = object()

    def __init__(self, cache_dir=AUTO) -> None:
        self._cache: Dict[TraceKey, List[Tuple]] = {}
        self._packed: Dict[TraceKey, trace_io.PackedTrace] = {}
        if cache_dir is TraceCache.AUTO:
            cache_dir = cache_location("traces")
        self._store = TraceStore(cache_dir) if cache_dir is not None else None

    @property
    def store(self) -> Optional[TraceStore]:
        return self._store

    def get(
        self, workload: str, transactions: int, payload: int, seed: int
    ) -> List[Tuple]:
        key = (workload, transactions, payload, seed)
        trace = self._cache.get(key)
        if trace is not None:
            return trace
        if self._store is not None:
            trace = self._store.load(key)
        if trace is None:
            trace = generate_trace(workload, transactions, payload, seed)
            if self._store is not None:
                self._store.store(key, trace)
        self._cache[key] = trace
        return trace

    def get_packed(
        self, workload: str, transactions: int, payload: int, seed: int
    ) -> trace_io.PackedTrace:
        """Like :meth:`get`, but in packed column form (replay-ready).

        The packed and tuple layers share the disk store; whichever is
        populated first feeds the other without regeneration.
        """
        key = (workload, transactions, payload, seed)
        packed = self._packed.get(key)
        if packed is not None:
            return packed
        trace = self._cache.get(key)
        if trace is not None:
            packed = trace_io.PackedTrace.from_trace(trace)
        elif self._store is not None:
            packed = self._store.load_packed(key)
        if packed is None:
            trace = generate_trace(workload, transactions, payload, seed)
            packed = trace_io.PackedTrace.from_trace(trace)
            if self._store is not None:
                self._store.store(key, packed)
        self._packed[key] = packed
        return packed
