"""CI perf-regression gate for the run-unit path (cold + batched).

Re-measures the run-unit benchmarks (best of three each, to shave
scheduler noise) and compares them against the committed baseline in
``BENCH_kernel.json``.  Exits non-zero when a fresh measurement
regresses by more than the threshold (default 15%, overridable via
``PERF_GATE_THRESHOLD`` — a fraction, e.g. ``0.15``).

Two paths gate independently:

* ``run_unit_seconds`` — one cold run unit end to end: trace
  generation, then packing the trace, resolving its design-independent
  core side and replaying it (no trace cache, no unit memo);
* ``run_unit_seconds_batched`` — the same unit with trace generation
  and packing outside the timed region: resolve plus replay, the share
  of a sweep that runs once the trace cache is warm.

A baseline written before a key existed skips that gate with a notice
instead of failing — old baselines stay valid across bench additions.
The events/sec microbenches are reported for context (including the
epoch-path delta against the baseline when it recorded one) but are
too machine-sensitive to gate on.

Usage::

    python benchmarks/check_perf_gate.py          # or: make perf-gate
"""

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from test_perf_kernel import (  # noqa: E402
    RUN_TRANSACTIONS,
    bench_events_per_sec,
    bench_events_per_sec_epoch,
    bench_run_unit_seconds,
    bench_run_unit_seconds_batched,
)

BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_THRESHOLD = 0.15
BEST_OF = 3

#: (baseline key, human label, measurement callable) per gated path.
GATED_PATHS = (
    ("run_unit_seconds", "run unit", bench_run_unit_seconds),
    (
        "run_unit_seconds_batched",
        "run unit batched",
        bench_run_unit_seconds_batched,
    ),
)


def _gate_path(key, label, bench, baseline, threshold) -> bool:
    """Measure one path against its baseline; return True when it passes."""
    reference = baseline.get(key)
    if not reference:
        print(f"{label}: no `{key}` in baseline — gate skipped "
              "(re-run `make bench-perf` to record it)")
        return True
    samples = [bench() for _ in range(BEST_OF)]
    measured = min(samples)
    ratio = measured / reference
    print(f"{label} ({RUN_TRANSACTIONS} txns): best-of-{BEST_OF} "
          f"{measured:.3f}s (samples: "
          f"{', '.join(f'{s:.3f}' for s in samples)})")
    print(f"  baseline: {reference:.3f}s  ratio: {ratio:.3f}  "
          f"threshold: {1 + threshold:.2f}")
    if ratio > 1 + threshold:
        print(f"perf gate: FAIL — {label} regressed "
              f"{100 * (ratio - 1):.1f}% past the "
              f"{100 * threshold:.0f}% threshold", file=sys.stderr)
        return False
    return True


def main() -> int:
    threshold = float(os.environ.get("PERF_GATE_THRESHOLD", DEFAULT_THRESHOLD))
    if not BASELINE_PATH.exists():
        print(f"perf gate: no baseline at {BASELINE_PATH}; "
              "run `make bench-perf` and commit it", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    if not any(baseline.get(key) for key, _, _ in GATED_PATHS):
        print("perf gate: baseline has no gated run-unit keys",
              file=sys.stderr)
        return 2

    ok = True
    for key, label, bench in GATED_PATHS:
        ok = _gate_path(key, label, bench, baseline, threshold) and ok

    rate = bench_events_per_sec()
    epoch_rate = bench_events_per_sec_epoch()
    print(f"events/sec (context, not gated): fast {rate:,.0f}  "
          f"epoch {epoch_rate:,.0f}")
    epoch_baseline = baseline.get("events_per_sec_epoch")
    if epoch_baseline:
        delta = 100 * (epoch_rate / epoch_baseline - 1)
        print(f"epoch events/sec vs baseline {epoch_baseline:,.0f}: "
              f"{delta:+.1f}%")

    if not ok:
        return 1
    print(f"perf gate: ok (python {baseline.get('python', '?')} baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
