"""Tier-1 tests for the result layer: one codec, one digest, one store.

The trace cache, the unit memo and the service result cache share one
store implementation and one location resolver; the memo and the
service store the same payload for the same run unit.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import eager_config
from repro.cpu import trace_io
from repro.fleet.db import FleetDB
from repro.fleet.dispatcher import CampaignSpec, FleetDispatcher
from repro.harness import parallel
from repro.harness.memo import UnitMemo
from repro.harness.runner import (
    payload_to_result,
    result_digest,
    result_payload,
    run_trace,
)
from repro.harness.trace_store import (
    ResultStore,
    TraceCache,
    TraceStore,
    cache_location,
)
from repro.matrix import matrix_labels
from repro.service import protocol as proto
from repro.service.scheduler import ExperimentScheduler

_TRACE_KEY = ("hashmap", 12, 1024, 7)


# ======================================================================
# One codec, one digest
# ======================================================================
class TestOneCodec:
    def test_protocol_reexports_the_harness_codec(self):
        assert proto.result_payload is result_payload
        assert proto.payload_to_result is payload_to_result
        assert proto.result_digest is result_digest

    def test_memo_and_result_store_entries_are_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """Every matrix design: the memo entry and the service's
        result-store entry of one run unit hold the same payload."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        monkeypatch.setattr(parallel, "_UNIT_MEMO", UnitMemo(tmp_path / "units"))
        specs = [
            proto.JobSpec(
                workload="hashmap", design=label, transactions=6, seed=3
            ).validate()
            for label in matrix_labels("all")
        ]

        async def scenario():
            scheduler = ExperimentScheduler(
                jobs=1, result_cache_dir=tmp_path / "results"
            )
            jobs = [await scheduler.submit(spec) for spec in specs]
            await asyncio.gather(*(job.done for job in jobs))
            await scheduler.close()
            return jobs

        jobs = asyncio.run(asyncio.wait_for(scenario(), 120))
        assert len(specs) == 8

        def entries(directory: Path) -> dict:
            out = {}
            for path in directory.glob("*.json"):
                entry = json.loads(path.read_text())
                canonical = json.dumps(
                    entry["payload"], sort_keys=True, separators=(",", ":")
                ).encode()
                out[entry["payload_digest"]] = canonical
            return out

        memo = entries(tmp_path / "units")
        results = entries(tmp_path / "results")
        assert len(memo) == len(results) == len(specs)
        assert memo == results
        assert sorted(memo) == sorted(job.digest for job in jobs)


# ======================================================================
# One store: a corrupt entry is a quarantined miss, never a wrong result
# ======================================================================
def _unit():
    config = eager_config()
    packed = TraceCache(None).get_packed("hashmap", 12, config.transaction_size, 7)
    return config, packed


class _Traces:
    """The trace store behind :class:`TraceCache`."""

    def populate(self, root):
        expected = TraceCache(root).get_packed(*_TRACE_KEY)
        return TraceStore(root).path_for(_TRACE_KEY), expected

    def flip_at(self, raw: bytes, expected) -> int:
        return raw.index(expected.operands.tobytes()[:64]) + 8

    def write_undecodable(self, root, path, expected):
        # Both digests check out, but the format version is unknown.
        store = TraceStore(root)
        header = {
            "version": trace_io.FORMAT_VERSION + 1,
            "cache_digest": store.digest(_TRACE_KEY),
            "payload_digest": store.payload_digest(expected),
        }
        with open(path, "wb") as handle:
            np.savez(
                handle,
                codes=expected.codes,
                operands=expected.operands,
                header=np.frombuffer(json.dumps(header).encode(), np.uint8),
            )

    def load(self, root):
        store = TraceStore(root)
        return store, store.load_packed(_TRACE_KEY)

    def regenerate(self, root):
        return TraceCache(root).get_packed(*_TRACE_KEY)

    def same(self, a, b) -> bool:
        return a.to_trace() == b.to_trace()


class _Memo:
    """The unit memo's result store."""

    def populate(self, root):
        config, packed = _unit()
        memo = UnitMemo(root)
        expected = memo.run(config, packed, "hashmap", 12)
        return memo._store.path_for(memo.key_for(config, packed)), expected

    def flip_at(self, raw: bytes, expected) -> int:
        return raw.index(b'"cycles": ') + len(b'"cycles": ')

    def write_undecodable(self, root, path, expected):
        ResultStore(root).store(path.stem, {"controller": "no-such-design"})

    def load(self, root):
        config, packed = _unit()
        memo = UnitMemo(root)
        return memo._store, memo.load(memo.key_for(config, packed))

    def regenerate(self, root):
        config, packed = _unit()
        return UnitMemo(root).run(config, packed, "hashmap", 12)

    def same(self, a, b) -> bool:
        return result_payload(a) == result_payload(b)


class _Results:
    """The service's result store (payloads decoded by the caller)."""

    KEY = "c" * 24

    def populate(self, root):
        config, packed = _unit()
        payload = result_payload(run_trace(config, packed, "hashmap", 12))
        return ResultStore(root).store(self.KEY, payload), payload

    flip_at = _Memo.flip_at
    write_undecodable = _Memo.write_undecodable

    def load(self, root):
        store = ResultStore(root)
        return store, store.load(self.KEY, payload_to_result)

    def regenerate(self, root):
        # The service has no generator: the caller sees a plain miss.
        return ResultStore(root).load(self.KEY)

    def same(self, again, expected) -> bool:
        return again is None


def _truncate(store, root, path, expected):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _flip(store, root, path, expected):
    raw = bytearray(path.read_bytes())
    raw[store.flip_at(bytes(raw), expected)] ^= 0x01
    path.write_bytes(bytes(raw))


def _undecodable(store, root, path, expected):
    store.write_undecodable(root, path, expected)


@pytest.mark.parametrize(
    "corrupt", [_truncate, _flip, _undecodable],
    ids=["truncated", "flipped-byte", "digest-valid-undecodable"],
)
@pytest.mark.parametrize(
    "kind", [_Traces, _Memo, _Results], ids=["traces", "memo", "results"]
)
def test_corrupt_entry_is_a_quarantined_miss(tmp_path, kind, corrupt):
    store = kind()
    path, expected = store.populate(tmp_path)
    assert path.exists()
    corrupt(store, tmp_path, path, expected)

    backing, loaded = store.load(tmp_path)
    assert loaded is None
    assert (backing.hits, backing.misses, backing.quarantined) == (0, 1, 1)
    assert not path.exists()
    quarantine = tmp_path / backing.QUARANTINE_DIR
    assert [p.name for p in quarantine.iterdir()] == [path.name]
    # Nothing wrong is ever served: the trace cache and the memo
    # regenerate the original, the service store keeps missing.
    assert store.same(store.regenerate(tmp_path), expected)


# ======================================================================
# One location resolver
# ======================================================================
class TestCacheLocation:
    NAMES = ("REPRO_TRACE_CACHE", "REPRO_UNIT_MEMO", "REPRO_RESULT_CACHE",
             "REPRO_FLEET_DB", "XDG_CACHE_HOME")

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in self.NAMES:
            monkeypatch.delenv(name, raising=False)

    def test_defaults_follow_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        base = tmp_path / "dolos-repro"
        assert cache_location("traces") == base / "traces"
        assert cache_location("units") == base / "units"
        assert cache_location("results") == base / "results"
        assert cache_location("fleet.sqlite") == base / "fleet.sqlite"

    def test_units_and_results_are_trace_cache_siblings(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "a" / "t"))
        assert cache_location("units") == tmp_path / "a" / "units"
        assert cache_location("results") == tmp_path / "a" / "results"
        # The fleet database does not follow the trace cache.
        assert cache_location("fleet.sqlite").name == "fleet.sqlite"
        assert cache_location("fleet.sqlite").parent.name == "dolos-repro"

    @pytest.mark.parametrize("value", ["off", "0", "none", "disabled", "",
                                       " OFF "])
    def test_disable_values(self, monkeypatch, value):
        for name in ("REPRO_TRACE_CACHE", "REPRO_UNIT_MEMO",
                     "REPRO_RESULT_CACHE"):
            monkeypatch.setenv(name, value)
        assert cache_location("traces") is None
        assert cache_location("units") is None
        assert cache_location("results") is None

    def test_trace_cache_off_disables_the_siblings(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert cache_location("units") is None
        assert cache_location("results") is None
        monkeypatch.setenv("REPRO_UNIT_MEMO", "/tmp/memo")
        assert cache_location("units") == Path("/tmp/memo")

    def test_fleet_db_has_no_off_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_FLEET_DB", "off")
        assert cache_location("fleet.sqlite") == Path("off")
        monkeypatch.setenv("REPRO_FLEET_DB", "  ")
        assert cache_location("fleet.sqlite") == (
            tmp_path / "dolos-repro" / "fleet.sqlite"
        )
        monkeypatch.setenv("REPRO_FLEET_DB", "~/x.sqlite")
        assert cache_location("fleet.sqlite") == Path("~/x.sqlite").expanduser()


# ======================================================================
# The inline fleet records each unit's own execution time
# ======================================================================
def test_inline_fleet_unit_times_sum_within_the_campaign(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(parallel, "_UNIT_MEMO", UnitMemo(None))
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    campaign = CampaignSpec(
        name="timed",
        workloads=("hashmap",),
        designs=("dolos-partial", "prewpq-eager", "eadr", "triad"),
        seeds=(1, 2),
        transactions=8,
    ).validate()
    db = FleetDB(tmp_path / "fleet.sqlite")
    summary = FleetDispatcher(campaign, db, workers=0, worker_jobs=1).run()
    rows = db.unit_rows(summary.experiment_id)
    assert len(rows) == 8
    assert all(row.elapsed_s > 0 for row in rows)
    assert sum(row.elapsed_s for row in rows) <= summary.elapsed_s


# ======================================================================
# The serial experiment path loads no orchestration code
# ======================================================================
def test_serial_fig12_imports_no_orchestration(tmp_path):
    script = (
        "import sys\n"
        "from repro.harness.experiments import run_experiment\n"
        "run_experiment('fig12', jobs=1, transactions=10)\n"
        "banned = ('repro.service', 'repro.fleet', 'repro.chaos',\n"
        "          'concurrent.futures.process', 'sqlite3', 'asyncio')\n"
        "print(' '.join(m for m in banned if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    for name in ("REPRO_UNIT_MEMO", "REPRO_JOBS"):
        env.pop(name, None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", (
        f"serial fig12 loaded {proc.stdout.strip()} "
        f"({time.monotonic() - started:.1f}s)"
    )
    # The memo path ran (and stored through the shared result store).
    assert list((tmp_path / "units").glob("*.json"))
