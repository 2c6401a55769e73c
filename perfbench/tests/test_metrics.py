"""The benchmark's own logic: metric names, tail percentiles, failure counts."""

import json
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.metrics import (
    END_TO_END, MIN_BEYOND, PER_LAYER, Tally, beyond, check_names,
    percentile, result_line, tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


def test_metric_names_and_units_match_the_contract_patterns():
    names = [name for name, *_ in END_TO_END + PER_LAYER]
    check_names(names)
    for name, unit, *_ in END_TO_END + PER_LAYER:
        assert metrics.UNIT_RE.match(unit), (name, unit)


@pytest.mark.parametrize("bad", ["", "_x", "a b", "x" * 65, "é"])
def test_malformed_names_are_refused(bad):
    with pytest.raises(ValueError):
        check_names([bad])


def test_repeated_name_is_refused():
    with pytest.raises(ValueError):
        check_names(["wall_s", "wall_s"])


def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [tuple(m) for m in PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([7.0], 0.9) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    assert beyond(100, 0.9) == MIN_BEYOND
    assert beyond(99, 0.9) == MIN_BEYOND - 1
    assert tail_percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError, match="beyond"):
        tail_percentile(list(range(99)), 0.9)


def test_failures_count_against_attempts():
    tally = Tally()
    tally.attempt(24)
    tally.fail("one unit diverged")
    assert (tally.attempted, tally.failed) == (24, 1)
    assert tally.error_rate == pytest.approx(1 / 24)
    tally.attempt(24)
    assert tally.error_rate == pytest.approx(1 / 48)
    assert tally.reasons == ["one unit diverged"]


def test_nothing_attempted_is_all_error():
    assert Tally().error_rate == 1.0


def test_result_line_shape():
    tally = Tally()
    line = result_line(True, tally, {"wall_s": 1.5})
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 1
    assert line["metrics"] == {"wall_s": {"value": 1.5, "unit": "s"}}
