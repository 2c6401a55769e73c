"""Tests for breakdown analysis, wear tracking and trace serialisation."""

import pytest

from repro.config import ControllerKind, SimConfig
from repro.core.controller import MemoryController
from repro.cpu.trace import OP_CLWB, OP_FENCE, OP_LOAD, OP_STORE, OP_WORK
from repro.cpu.trace_io import load_trace, save_trace, trace_to_arrays
from repro.harness.breakdown import (
    CycleBreakdown,
    render_breakdowns,
    run_with_breakdown,
)
from repro.mem.nvm import NVMDevice
from repro.workloads import generate_trace

HEAP = 0x1_0000_0000


class TestCycleBreakdown:
    def test_components_sum_to_total(self):
        breakdown = CycleBreakdown(total=100, fence_stall=40, read_stall=10)
        assert breakdown.other == 50
        assert breakdown.fraction("fence_stall") == 0.4

    def test_other_never_negative(self):
        breakdown = CycleBreakdown(total=10, fence_stall=8, read_stall=8)
        assert breakdown.other == 0

    def test_zero_total(self):
        assert CycleBreakdown(0, 0, 0).fraction("fence_stall") == 0.0

    def test_run_with_breakdown_end_to_end(self):
        trace = generate_trace("ctree", 20, 512, seed=1)
        result, breakdown = run_with_breakdown(SimConfig(), trace, "ctree", 20)
        assert breakdown.total == result.cycles
        assert 0 < breakdown.fence_stall < breakdown.total
        assert breakdown.other > 0

    def test_dolos_has_smaller_fence_share_than_baseline(self):
        trace = generate_trace("ctree", 25, 1024, seed=1)
        _, base = run_with_breakdown(
            SimConfig().with_(controller=ControllerKind.PRE_WPQ_SECURE),
            trace, "ctree", 25,
        )
        _, dolos = run_with_breakdown(SimConfig(), trace, "ctree", 25)
        assert dolos.fraction("fence_stall") < base.fraction("fence_stall")

    @pytest.mark.parametrize(
        "kind", [ControllerKind.DOLOS, ControllerKind.NON_SECURE_IDEAL]
    )
    def test_read_stall_is_the_summed_demand_round_trips(self, kind, monkeypatch):
        """Exact, not scaled: store-miss fills never enter the stall."""
        trips = []
        original = MemoryController.read

        def observed_read(self, address):
            signal = original(self, address)
            signal.subscribe(trips.append)
            return signal

        monkeypatch.setattr(MemoryController, "read", observed_read)
        trace = [(OP_STORE, HEAP + 0x40 * i) for i in range(12)]
        trace += [(OP_WORK, 40), (OP_LOAD, HEAP + 0x100000)]
        trace += [(OP_CLWB, HEAP), (OP_FENCE,), (OP_LOAD, HEAP + 0x40)]
        trace += [(OP_LOAD, HEAP + 0x200000), (OP_STORE, HEAP + 0x300000)]
        result, breakdown = run_with_breakdown(
            SimConfig().with_(controller=kind), trace, "t", 1
        )
        assert result.stats["core.store_miss_fills"] == 13
        assert result.stats["controller.reads"] == 15
        assert len(trips) == result.stats["core.memory_reads"] == 2
        assert breakdown.read_stall == sum(trips) > 0

    def test_render(self):
        breakdown = CycleBreakdown(100, 40, 10)
        text = render_breakdowns([("x", breakdown)], "T")
        assert "40%" in text and "x" in text


class TestWearTracking:
    def test_wear_counts_media_writes(self, line_factory):
        nvm = NVMDevice()
        for i in range(3):
            nvm.write_line(0x1000, line_factory(str(i)))
        nvm.write_line(0x2000, line_factory("x"))
        assert nvm.wear_of(0x1000) == 3
        assert nvm.wear_of(0x2000) == 1
        assert nvm.wear_of(0x3000) == 0

    def test_wear_summary(self, line_factory):
        nvm = NVMDevice()
        for i in range(4):
            nvm.write_line(0x1000, line_factory(str(i)))
        nvm.write_line(0x2000, line_factory("y"))
        summary = nvm.wear_summary()
        assert summary["lines"] == 2
        assert summary["total"] == 5
        assert summary["max"] == 4
        assert summary["imbalance"] == pytest.approx(4 / 2.5)

    def test_empty_summary(self):
        assert NVMDevice().wear_summary()["lines"] == 0

    def test_unaligned_addresses_share_wear(self, line_factory):
        nvm = NVMDevice()
        nvm.write_line(0x1000, line_factory("a"))
        nvm.write_line(0x1020, line_factory("b"))
        assert nvm.wear_of(0x1000) == 2


class TestTraceIO:
    SAMPLE = [
        (OP_WORK, 100),
        (OP_LOAD, HEAP),
        (OP_STORE, HEAP + 64),
        (OP_CLWB, HEAP + 64),
        (OP_FENCE,),
    ]

    def test_roundtrip(self, tmp_path):
        path = save_trace(tmp_path / "t.npz", self.SAMPLE, {"workload": "x"})
        trace, header = load_trace(path)
        assert trace == self.SAMPLE
        assert header["workload"] == "x"
        assert header["version"] == 1

    def test_real_workload_roundtrip(self, tmp_path):
        original = generate_trace("hashmap", 10, 256, seed=1)
        path = save_trace(tmp_path / "hashmap.npz", original)
        loaded, _header = load_trace(path)
        assert loaded == original

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.harness.runner import run_trace

        original = generate_trace("ctree", 15, 256, seed=2)
        path = save_trace(tmp_path / "c.npz", original)
        loaded, _ = load_trace(path)
        a = run_trace(SimConfig(), original, "c", 15)
        b = run_trace(SimConfig(), loaded, "c", 15)
        assert a.cycles == b.cycles

    def test_version_check(self, tmp_path):
        import json

        import numpy as np

        bad = tmp_path / "bad.npz"
        np.savez(
            bad,
            codes=np.zeros(1, dtype=np.int64),
            operands=np.zeros(1, dtype=np.int64),
            header=np.frombuffer(json.dumps({"version": 99}).encode(), np.uint8),
        )
        with pytest.raises(ValueError):
            load_trace(bad)

    def test_arrays_shape(self):
        codes, operands = trace_to_arrays(self.SAMPLE)
        assert len(codes) == len(self.SAMPLE)
        assert operands[-1] == 0  # fence has no operand
