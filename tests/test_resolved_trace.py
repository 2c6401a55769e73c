"""Tests for the resolved core side of a trace (:mod:`repro.cpu.resolve`).

A :class:`PackedTrace` resolves its design-independent core side once
per cache hierarchy and IPC and shares the stream with every design it
is replayed against; these tests pin that sharing to the results of a
private, unshared replay.
"""

import pytest

from repro.config import (
    CacheConfig,
    ControllerKind,
    CoreConfig,
    MiSUDesign,
    NVMConfig,
    SimConfig,
    lazy_config,
)
from repro.core.controller import make_controller
from repro.core.requests import WriteKind, WriteRequest
from repro.cpu import trace_io
from repro.cpu.core import TraceCore
from repro.cpu.resolve import DEMAND, FILL, PERSIST, resolve_key
from repro.cpu.trace import OP_ARRIVAL
from repro.cpu.trace_io import PackedTrace
from repro.engine import Simulator
from repro.harness import parallel
from repro.harness.experiments import run_experiment
from repro.harness.memo import UnitMemo
from repro.harness.runner import run_trace
from repro.matrix import controller_matrix
from repro.scenarios.loadcurve import scenario_tenants
from repro.scenarios.tenants import build_scenario_trace
from repro.stats import StatsRegistry
from repro.workloads import WHISPER_WORKLOADS, generate_trace

TXNS = 10
HEAP = 0x1_0000_0000


def _configs():
    """Every matrix design, the non-secure ideal and strict persistency."""
    configs = dict(controller_matrix())
    configs["ideal"] = SimConfig().with_(
        controller=ControllerKind.NON_SECURE_IDEAL
    )
    strict = CoreConfig(persist_model="strict")
    configs["dolos-strict"] = SimConfig().with_(core=strict)
    configs["prewpq-strict"] = SimConfig().with_(
        controller=ControllerKind.PRE_WPQ_SECURE, core=strict
    )
    return configs


def _scenario_trace():
    tenants = scenario_tenants(
        "hashmap", {"arrivals": "mmpp", "rate": 0.06, "burst": 1.6, "skew": 0.8}
    )
    return build_scenario_trace(tenants, TXNS, 1024, seed=2)


TRACES = {
    "hashmap": lambda: generate_trace("hashmap", TXNS, 1024, 1),
    "redis": lambda: generate_trace("redis", TXNS, 1024, 1),
    "scenario": _scenario_trace,
}


def _outcome(result):
    return result.cycles, result.instructions, result.stats


class TestSharedStream:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_one_trace_replays_every_design_in_any_order(self, name):
        trace = TRACES[name]()
        configs = _configs()
        fresh = {
            label: _outcome(
                run_trace(config, PackedTrace.from_trace(trace), name, TXNS)
            )
            for label, config in configs.items()
        }
        for order in (list(configs), list(reversed(configs))):
            shared = PackedTrace.from_trace(trace)
            for label in order:
                result = run_trace(configs[label], shared, name, TXNS)
                assert _outcome(result) == fresh[label], label
            assert len(shared._resolved) == 1
        # The cases the shared stream must carry are really exercised.
        assert fresh["dolos-strict"][2]["core.fence_stall_cycles"] > 0
        assert fresh["prewpq-strict"][0] > fresh["dolos-strict"][0]
        if name == "scenario":
            assert any(code == OP_ARRIVAL for code, _ in trace)
            assert fresh["dolos-partial"][2]["core.arrivals"] > 0

    @pytest.mark.parametrize("name", sorted(TRACES))
    @pytest.mark.parametrize("label", ["dolos-partial", "ideal", "dolos-strict"])
    def test_tuple_list_and_packed_form_agree(self, name, label):
        trace = TRACES[name]()
        config = _configs()[label]
        classic = run_trace(config, trace, name, TXNS)
        packed = run_trace(config, PackedTrace.from_trace(trace), name, TXNS)
        assert _outcome(classic) == _outcome(packed)

    def test_stream_holds_every_memory_facing_kind(self):
        stream = PackedTrace.from_trace(TRACES["redis"]()).resolved(SimConfig())
        kinds = set(stream.codes)
        assert {FILL, DEMAND, PERSIST} <= kinds
        assert stream.flush_latency == 2 + 20 + 32


class TestMemoKey:
    def test_design_only_changes_reuse_the_stream(self):
        packed = PackedTrace.from_trace(TRACES["hashmap"]())
        base = SimConfig()
        stream = packed.resolved(base)
        variants = list(_configs().values()) + [
            lazy_config(misu_design=MiSUDesign.FULL_WPQ),
            base.with_(nvm=NVMConfig(read_latency=1200)),
            base.with_(wpq_coalescing=False, seed=7, transaction_size=256),
            base.with_(core=CoreConfig(mlp=2, frequency_ghz=3.0)),
        ]
        for config in variants:
            assert packed.resolved(config) is stream
        assert len(packed._resolved) == 1

    @pytest.mark.parametrize(
        "changes",
        [
            {"l1": CacheConfig("L1", 32 << 10, 2, 3)},
            {"l1": CacheConfig("L1", 16 << 10, 2, 2)},
            {"l1": CacheConfig("L1", 32 << 10, 4, 2)},
            {"l2": CacheConfig("L2", 512 << 10, 8, 21)},
            {"l2": CacheConfig("L2", 256 << 10, 8, 20)},
            {"llc": CacheConfig("LLC", 8 << 20, 16, 40)},
            {"llc": CacheConfig("LLC", 8 << 20, 8, 32)},
            {"llc": CacheConfig("LLC", 8 << 20, 16, 32, line_bytes=128)},
            {"core": CoreConfig(ipc=3.0)},
        ],
        ids=[
            "l1-latency", "l1-size", "l1-assoc", "l2-latency", "l2-size",
            "llc-latency", "llc-assoc", "llc-line", "ipc",
        ],
    )
    def test_hierarchy_or_ipc_change_builds_a_new_stream(self, changes):
        packed = PackedTrace.from_trace(TRACES["hashmap"]())
        base = SimConfig()
        changed = base.with_(**changes)
        assert resolve_key(changed) != resolve_key(base)
        stream = packed.resolved(base)
        other = packed.resolved(changed)
        assert other is not stream
        assert packed.resolved(changed) is other
        assert len(packed._resolved) == 2
        # The memoized stream is the one a private replay resolves.
        fresh = PackedTrace.from_trace(TRACES["hashmap"]())
        assert _outcome(run_trace(changed, packed, "hashmap", TXNS)) == (
            _outcome(run_trace(changed, fresh, "hashmap", TXNS))
        )

    def test_fig12_resolves_each_trace_once(self, monkeypatch):
        """24 units over 6 traces and one hierarchy: 6 resolves."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        monkeypatch.setattr(parallel, "_UNIT_MEMO", UnitMemo(None))
        calls = []
        real = trace_io.resolve

        def counting(columns, config):
            calls.append(resolve_key(config))
            return real(columns, config)

        monkeypatch.setattr(trace_io, "resolve", counting)
        result = run_experiment("fig12", jobs=1, transactions=3, seed=5)
        assert len(result.rows) == len(WHISPER_WORKLOADS)
        assert len(calls) == len(WHISPER_WORKLOADS)
        assert len(set(calls)) == 1


class TestFill:
    @pytest.mark.parametrize(
        "kind",
        [
            ControllerKind.DOLOS,
            ControllerKind.PRE_WPQ_SECURE,
            ControllerKind.NON_SECURE_IDEAL,
        ],
    )
    def test_fill_books_a_read_without_a_completion_event(self, kind):
        """Device reads, Ma-SU reads and a WPQ hit: one event fewer each."""
        buffered = HEAP + 0x1000
        addresses = [HEAP + 0x40 * i for i in range(6)] + [HEAP + 0x13]
        addresses.append(buffered)
        outcomes = {}
        for path in ("read", "fill"):
            sim = Simulator()
            controller = make_controller(sim, SimConfig().with_(controller=kind))
            controller.submit_write(WriteRequest(buffered, WriteKind.PERSIST))
            while controller.wpq.lookup(buffered) is None:
                assert sim.step()
            for address in addresses:
                getattr(controller, path)(address)
            sim.run()
            masu = controller.masu
            outcomes[path] = (
                controller.stats_snapshot(),
                controller.wpq.read_hits,
                masu and (masu.counter_cache.accesses, masu.counter_cache.misses),
                sim.events_fired,
            )
        read_snapshot, read_hits, read_meta, read_events = outcomes["read"]
        fill_snapshot, fill_hits, fill_meta, fill_events = outcomes["fill"]
        assert fill_snapshot == read_snapshot
        assert fill_snapshot["nvm.reads"] == len(addresses) - 1
        assert fill_hits == read_hits == 1
        assert fill_meta == read_meta
        if kind is not ControllerKind.NON_SECURE_IDEAL:
            assert fill_meta[0] > 0
        assert read_events - fill_events == len(addresses)

    @pytest.mark.parametrize("label", ["dolos-partial", "prewpq-eager", "ideal"])
    def test_replay_events_drop_by_the_fill_count(self, label):
        config = _configs()[label]
        packed = PackedTrace.from_trace(TRACES["redis"]())

        def replay(fill_through_read):
            sim = Simulator()
            stats = StatsRegistry()
            controller = make_controller(sim, config, stats)
            if fill_through_read:
                controller.fill = controller.read
            core = TraceCore(sim, config, controller, stats)
            core.run(packed)
            sim.run()
            assert core.finished
            return (
                core.cycles,
                controller.stats_snapshot(),
                controller.wpq.read_hits,
                sim.events_fired,
            )

        cycles, snapshot, read_hits, events = replay(False)
        read_cycles, read_snapshot, read_read_hits, read_events = replay(True)
        assert (cycles, snapshot, read_hits) == (
            read_cycles, read_snapshot, read_read_hits
        )
        fills = snapshot["core.store_miss_fills"]
        assert fills > 0
        assert read_events - events == fills
