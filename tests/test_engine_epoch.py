"""Batched-core tests: drain-loop equivalence with a reference heap
drain, cancellation leak bounds, packed trace replay, and unit
memoization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import eager_config
from repro.cpu.trace_io import PackedTrace, trace_to_arrays
from repro.engine import EventQueue, SimulationError, Simulator
from repro.harness.memo import UnitMemo, config_fingerprint
from repro.harness.runner import run_trace
from repro.harness.trace_store import cache_location
from repro.workloads import generate_trace

# ----------------------------------------------------------------------
# Satellite: cancelled-event heap leak stays bounded
# ----------------------------------------------------------------------
class TestCancelledEventLeak:
    def test_queue_compacts_10k_cancelled_events(self):
        queue = EventQueue()
        queue.push(10**9, lambda: None)  # one live survivor
        for i in range(10_000):
            queue.push(1000 + i, lambda: None).cancel()
        # Compaction keeps the heap at <= 2x the live count (plus the
        # not-yet-compacted remainder); 10k corpses must not pile up.
        assert len(queue) <= 16
        assert queue.live_count == 1

    def test_simulator_schedule_cancel_storm_still_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(20_000, lambda: fired.append(sim.now))
        for i in range(10_000):
            sim.schedule(1 + i, lambda: fired.append("dead")).cancel()
        assert len(sim._queue) <= 16
        sim.run()
        assert fired == [20_000]
        assert sim.events_fired == 1


# ----------------------------------------------------------------------
# The kernel's one drain loop is event-for-event equivalent to a
# one-event-at-a-time heap drain
# ----------------------------------------------------------------------
#: One scheduled event: (time, cancellable, action, param).  Action 0
#: just logs; 1 spawns a nested call_after(param) from inside the
#: callback; 2 cancels the param-th cancellable handle *at fire time*
#: (covering cancellations that land mid-epoch, after the batch was
#: drained from the heap); 3 requests a stop.
_EVENT_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=30,
)
_PRE_CANCELS = st.sets(st.integers(min_value=0, max_value=29), max_size=8)
#: Bounded run() calls before the final unbounded one: (until, max_events).
_RUNS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    ),
    max_size=4,
)


def _reference_run(sim, until=None, max_events=None):
    """The reference semantics: pop, fire and check one event at a time."""
    if until is not None and until < sim.now:
        raise SimulationError("until in the past")
    sim._stop_requested = False
    queue = sim._queue
    fired = 0
    try:
        while True:
            next_time = queue.peek_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                sim.now = until
                return
            entry = queue.pop_live()
            sim.now = entry[0]
            entry[2]()
            fired += 1
            if max_events is not None and fired >= max_events:
                raise SimulationError("max_events")
            if sim._stop_requested:
                return
    finally:
        sim.events_fired += fired


def _kernel_run(sim, until=None, max_events=None):
    sim.run(until=until, max_events=max_events)


def _drive(drain, spec, pre_cancels, runs=()):
    sim = Simulator()
    log = []
    handles = []

    def make_callback(index, action, param):
        def callback():
            log.append((sim.now, index))
            if action == 1:
                sim.call_after(
                    param, lambda: log.append((sim.now, index + 1000))
                )
            elif action == 2 and handles:
                handles[param % len(handles)].cancel()
            elif action == 3:
                sim.stop()
        return callback

    for index, (time, cancellable, action, param) in enumerate(spec):
        callback = make_callback(index, action, param)
        if cancellable:
            handles.append(sim.schedule(time, callback))
        else:
            sim.call_at(time, callback)
    for j in pre_cancels:
        if handles:
            handles[j % len(handles)].cancel()
    for until, max_events in list(runs) + [(None, None)]:
        try:
            drain(sim, until, max_events)
        except SimulationError:
            log.append(("raised", sim.now))
    queued = sorted(
        entry[:2] for entry in sim._queue._heap
        if len(entry) == 3 or not entry[3].cancelled
    )
    return log, sim.now, sim.events_fired, queued


class TestEpochEquivalence:
    @given(_EVENT_SPECS, _PRE_CANCELS, _RUNS)
    @settings(max_examples=200, deadline=None)
    def test_epoch_matches_heap_kernel(self, spec, pre_cancels, runs):
        """Unbounded runs, ``until``, ``stop()`` and ``max_events`` all
        agree with the reference: firing order, clock, fired count and
        what is left queued."""
        kernel = _drive(_kernel_run, spec, pre_cancels, runs)
        reference = _drive(_reference_run, spec, pre_cancels, runs)
        assert kernel == reference

    def test_same_cycle_ties_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.call_at(5, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))
        assert sim.events_fired == 10


# ----------------------------------------------------------------------
# Tentpole: packed trace replay
# ----------------------------------------------------------------------
class TestPackedTrace:
    def _trace(self):
        return generate_trace("hashmap", 8, 128, 3)

    def test_roundtrip_preserves_ops(self):
        trace = self._trace()
        packed = PackedTrace.from_trace(trace)
        assert len(packed) == len(trace)
        assert packed.to_trace() == trace
        assert list(packed) == trace

    def test_from_trace_idempotent_and_columns_cached(self):
        packed = PackedTrace.from_trace(self._trace())
        assert PackedTrace.from_trace(packed) is packed
        assert packed.columns() is packed.columns()

    def test_trace_to_arrays_passthrough(self):
        packed = PackedTrace.from_trace(self._trace())
        codes, operands = trace_to_arrays(packed)
        assert codes is packed.codes and operands is packed.operands

    def test_column_length_mismatch_rejected(self):
        import numpy as np

        with pytest.raises(ValueError):
            PackedTrace(np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64))

    def test_replay_matches_tuple_trace_bit_for_bit(self):
        config = eager_config()
        trace = generate_trace("hashmap", 20, config.transaction_size, 1)
        classic = run_trace(config, trace, "hashmap", 20)
        packed = run_trace(
            config, PackedTrace.from_trace(trace), "hashmap", 20
        )
        assert classic.cycles == packed.cycles
        assert classic.instructions == packed.instructions
        assert classic.stats == packed.stats


# ----------------------------------------------------------------------
# Tentpole: sub-unit memoization
# ----------------------------------------------------------------------
class TestUnitMemo:
    def _unit(self):
        config = eager_config()
        trace = generate_trace("hashmap", 20, config.transaction_size, 1)
        return config, PackedTrace.from_trace(trace)

    def test_miss_then_hit_bit_identical(self, tmp_path):
        config, packed = self._unit()
        memo = UnitMemo(tmp_path)
        first = memo.run(config, packed, "hashmap", 20)
        assert (memo.hits, memo.misses) == (0, 1)
        second = memo.run(config, packed, "hashmap", 20)
        assert (memo.hits, memo.misses) == (1, 1)
        assert first.stats == second.stats
        assert first.cycles == second.cycles
        assert first.controller is second.controller
        assert first.misu_design is second.misu_design

    def test_disabled_memo_always_simulates(self):
        config, packed = self._unit()
        memo = UnitMemo(None)
        assert not memo.enabled
        result = memo.run(config, packed, "hashmap", 20)
        assert result.cycles > 0
        assert (memo.hits, memo.misses) == (0, 0)

    def test_key_sensitive_to_trace_config_not_provenance(self):
        config, packed = self._unit()
        memo = UnitMemo(None)
        key = memo.key_for(config, packed)
        # Same stream, different container: identical key (cross-seed
        # collisions are *content* collisions by design).
        assert memo.key_for(config, packed.to_trace()) == key
        other_trace = generate_trace(
            "hashmap", 20, config.transaction_size, 2
        )
        assert memo.key_for(config, other_trace) != key
        from repro.config import lazy_config

        assert memo.key_for(lazy_config(), packed) != key

    def test_corrupt_entry_is_a_miss_not_a_wrong_result(self, tmp_path):
        config, packed = self._unit()
        memo = UnitMemo(tmp_path)
        memo.run(config, packed, "hashmap", 20)
        for entry in tmp_path.glob("*.json"):
            entry.write_text(entry.read_text().replace('"cycles":', '"cycl":'))
        fresh = UnitMemo(tmp_path)
        result = fresh.run(config, packed, "hashmap", 20)
        assert result.cycles > 0
        assert fresh.hits == 0

    def test_undecodable_payload_is_quarantined_and_regenerated(
        self, tmp_path
    ):
        """A payload whose byte digest is valid but that does not decode
        to a RunResult must be quarantined — not left in the store to
        poison every future load of the key."""
        config, packed = self._unit()
        memo = UnitMemo(tmp_path)
        key = memo.key_for(config, packed)
        # Digest-valid (the store recomputes it) but decode-invalid.
        memo._store.store(key, {"controller": "no-such-design"})
        assert memo.load(key) is None
        assert memo.misses == 1
        # The poisoned entry moved to quarantine and is gone from the
        # store, so the next load is a plain path miss.
        assert not memo._store.path_for(key).exists()
        assert memo._store.quarantined == 1
        quarantine = tmp_path / memo._store.QUARANTINE_DIR
        assert [p.name for p in quarantine.iterdir()] == [f"{key}.json"]
        # Regeneration round-trip: run repopulates the key, and a fresh
        # memo now hits on a decodable payload.
        result = memo.run(config, packed, "hashmap", 20)
        assert result.cycles > 0
        fresh = UnitMemo(tmp_path)
        again = fresh.load(key)
        assert again is not None
        assert again.cycles == result.cycles
        assert (fresh.hits, fresh.quarantined_entries) == (1, 0)

    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_UNIT_MEMO", "off")
        assert cache_location("units") is None
        monkeypatch.setenv("REPRO_UNIT_MEMO", "/tmp/somewhere")
        assert str(cache_location("units")) == "/tmp/somewhere"
        monkeypatch.delenv("REPRO_UNIT_MEMO")
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert cache_location("units") is None

    def test_config_fingerprint_stable(self):
        assert config_fingerprint(eager_config()) == config_fingerprint(
            eager_config()
        )
