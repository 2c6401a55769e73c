"""Tests for the trace-driven core and trace utilities."""

import gc
import weakref

import pytest

from repro.config import ControllerKind, CoreConfig, SimConfig
from repro.core.controller import make_controller
from repro.cpu.core import TraceCore
from repro.cpu.trace import (
    OP_CLWB,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXBEGIN,
    OP_TXEND,
    OP_WORK,
    summarize,
)
from repro.engine import Simulator

HEAP = 0x1_0000_0000


def run_core(trace, kind=ControllerKind.NON_SECURE_IDEAL, **changes):
    config = SimConfig().with_(controller=kind, **changes)
    sim = Simulator()
    controller = make_controller(sim, config)
    core = TraceCore(sim, config, controller, controller.stats)
    core.run(trace)
    sim.run()
    assert core.finished
    return core, controller


class TestSummarize:
    def test_counts(self):
        trace = [
            (OP_TXBEGIN, 0), (OP_WORK, 100), (OP_LOAD, HEAP),
            (OP_STORE, HEAP), (OP_CLWB, HEAP), (OP_FENCE,), (OP_TXEND, 0),
        ]
        summary = summarize(trace)
        assert summary.work_instructions == 100
        assert summary.loads == 1
        assert summary.stores == 1
        assert summary.clwbs == 1
        assert summary.fences == 1
        assert summary.transactions == 1
        assert summary.instructions == 104
        assert summary.flushes_per_tx == 1.0


class TestWorkTiming:
    def test_work_charged_at_ipc(self):
        core, _ = run_core([(OP_WORK, 1000)])
        assert core.cycles == int(1000 / core.config.core.ipc)
        assert core.instructions == 1000

    def test_work_carry_accumulates_fractions(self):
        # 3 instructions at IPC 2 = 1.5 cycles; two batches = 3 cycles.
        core, _ = run_core([(OP_WORK, 3), (OP_WORK, 3)])
        assert core.cycles == 3

    def test_cpi_property(self):
        core, _ = run_core([(OP_WORK, 100)])
        assert core.cpi == pytest.approx(core.cycles / 100)


class TestMemoryOps:
    def test_cache_hit_load_is_cheap(self):
        core, _ = run_core([(OP_LOAD, HEAP), (OP_LOAD, HEAP)])
        # Second load hits L1 (2 cycles); total far below one NVM trip.
        assert core.cycles < 1000

    def test_cold_load_blocks_on_memory(self):
        core, _ = run_core([(OP_LOAD, HEAP)])
        assert core.cycles >= core.config.nvm.read_latency

    def test_store_miss_does_not_block(self):
        core, controller = run_core([(OP_STORE, HEAP)])
        assert core.cycles < core.config.nvm.read_latency
        assert controller.stats.get("core.store_miss_fills") == 1


class TestPersistSemantics:
    def test_clwb_clean_line_is_free(self):
        core, controller = run_core([(OP_LOAD, HEAP), (OP_CLWB, HEAP), (OP_FENCE,)])
        assert controller.stats.get("core.persists_issued") == 0

    def test_clwb_dirty_line_issues_persist(self):
        core, controller = run_core([(OP_STORE, HEAP), (OP_CLWB, HEAP), (OP_FENCE,)])
        assert controller.stats.get("core.persists_issued") == 1
        assert controller.stats.get("persist.completed") == 1

    def test_fence_waits_for_persist(self):
        trace = [(OP_STORE, HEAP), (OP_CLWB, HEAP), (OP_FENCE,)]
        baseline_core, _ = run_core(trace, ControllerKind.PRE_WPQ_SECURE)
        ideal_core, _ = run_core(trace, ControllerKind.NON_SECURE_IDEAL)
        assert baseline_core.cycles > ideal_core.cycles

    def test_fence_without_outstanding_is_cheap(self):
        core, _ = run_core([(OP_FENCE,)])
        assert core.cycles <= 2

    def test_trailing_persists_complete_before_finish(self):
        # No explicit fence: the core still waits for outstanding persists.
        core, controller = run_core([(OP_STORE, HEAP), (OP_CLWB, HEAP)])
        assert controller.stats.get("persist.completed") == 1

    def test_multiple_flushes_pipeline(self):
        stores = [(OP_STORE, HEAP + i * 64) for i in range(8)]
        flushes = [(OP_CLWB, HEAP + i * 64) for i in range(8)]
        core, controller = run_core(stores + flushes + [(OP_FENCE,)])
        assert controller.stats.get("persist.completed") == 8


class TestTransactions:
    def test_tx_stats_recorded(self):
        trace = [
            (OP_TXBEGIN, 0), (OP_WORK, 100), (OP_TXEND, 0),
            (OP_TXBEGIN, 1), (OP_WORK, 100), (OP_TXEND, 1),
        ]
        core, controller = run_core(trace)
        assert controller.stats.get("core.transactions") == 2

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            run_core([(99, 0)])

    def test_double_run_rejected(self):
        config = SimConfig()
        sim = Simulator()
        controller = make_controller(sim, config)
        core = TraceCore(sim, config, controller)
        core.run([(OP_WORK, 1)])
        with pytest.raises(RuntimeError):
            core.run([(OP_WORK, 1)])


class TestLifetime:
    @pytest.mark.parametrize("persist_model", ["epoch", "strict"])
    def test_finished_core_is_freed_without_the_cycle_collector(
        self, persist_model
    ):
        """A finished replay leaves no reference cycle through the core,
        so its cache hierarchy is released as soon as the caller drops
        it — sweeps run many units back to back."""
        trace = [
            (OP_TXBEGIN, 0), (OP_LOAD, HEAP), (OP_STORE, HEAP),
            (OP_CLWB, HEAP), (OP_FENCE,), (OP_TXEND, 0),
        ]
        gc.disable()
        try:
            core, controller = run_core(
                trace, ControllerKind.DOLOS,
                core=CoreConfig(persist_model=persist_model),
            )
            assert controller.stats.get("core.fence_stall_cycles") > 0
            hierarchy = weakref.ref(core.hierarchy)
            del core
            assert hierarchy() is None
        finally:
            gc.enable()


class TestDeterminism:
    def test_same_trace_same_cycles(self):
        trace = [(OP_STORE, HEAP + i * 64) for i in range(20)]
        trace += [(OP_CLWB, HEAP + i * 64) for i in range(20)]
        trace += [(OP_FENCE,)]
        first, _ = run_core(list(trace), ControllerKind.DOLOS)
        second, _ = run_core(list(trace), ControllerKind.DOLOS)
        assert first.cycles == second.cycles
