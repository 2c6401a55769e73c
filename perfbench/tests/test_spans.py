"""The span tracer: self time, nesting, and the per-layer metric set."""

import sys
import threading
import types

from perfbench import layers
from perfbench.metrics import PER_LAYER
from perfbench.spans import Tracer, merge, replace_everywhere


def _busy(ns):
    import time

    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def test_self_times_add_up_to_the_outermost_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: _busy(2_000_000))

    def outer_body():
        _busy(1_000_000)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    view = merge([tracer.snapshot()])
    calls_o, total_o, self_o = view["spans"]["outer"]
    calls_i, total_i, self_i = view["spans"]["inner"]
    assert (calls_o, calls_i) == (1, 2)
    assert self_o + self_i == total_o
    assert total_i == self_i
    assert self_o < total_i
    [thread] = tracer.snapshot()["threads"]
    assert thread["root_ns"] == total_o


def test_same_name_nesting_counts_one_call_and_keeps_self_time():
    tracer = Tracer()

    def recurse(n):
        _busy(100_000)
        return recurse_traced(n - 1) if n else 0

    recurse_traced = tracer.wrap("r", recurse)
    recurse_traced(3)
    calls, total, own = merge([tracer.snapshot()])["spans"]["r"]
    assert calls == 1
    assert own == total


def test_threads_fold_separately_and_samples_are_kept():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: _busy(100_000), sampled=True)
    threads = [threading.Thread(target=work) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    snapshot = tracer.snapshot()
    assert len(snapshot["threads"]) == 3
    view = merge([snapshot])
    assert view["spans"]["work"][0] == 3
    assert len(view["samples"]["work"]) == 3


def test_after_hook_sees_result_and_parent():
    tracer = Tracer()
    seen = []
    leaf = tracer.wrap("leaf", lambda: 5,
                       after=lambda state, args, result, token, outer, parent:
                       seen.append((result, outer, parent)))
    tracer.wrap("root", leaf)()
    assert seen == [(5, True, "root")]


def test_replace_everywhere_rebinds_imported_names():
    def original():
        return "original"

    module = types.ModuleType("repro._perfbench_probe")
    module.alias = original
    sys.modules[module.__name__] = module
    try:
        assert replace_everywhere(original, lambda: "wrapped") == 1
        assert module.alias() == "wrapped"
    finally:
        del sys.modules[module.__name__]


def test_layer_metrics_cover_every_per_layer_name_without_spans():
    values = layers.layer_metrics([], {})
    values.update({"trace.wall_s": 1.0, "trace.overhead_s": 0.0,
                   "error_rate": 0.0})
    assert set(values) == {name for name, *_ in PER_LAYER}
    assert values["crypto.mac.calls"] == 0
    assert values["fleet.orchestration_share"] == 0.0


def test_orchestration_share_uses_worker_execute_time():
    snapshot = {"threads": [{
        "name": "MainThread", "root_ns": 3_000_000_000, "counters": {},
        "samples": {}, "spans": {"service.execute": [4, 3_000_000_000,
                                                      1_000_000_000]},
    }]}
    values = layers.layer_metrics([snapshot], {"dispatcher_unit_s": 4.0})
    assert values["fleet.orchestration_share"] == 0.25
