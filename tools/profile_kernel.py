"""Profile one run unit under cProfile and emit a JSON hotspot artifact.

Runs the same quantum the perf bench times (hashmap,
``RUN_TRANSACTIONS`` transactions, Dolos eager config) with the trace
generated and packed *outside* the profiled region.  The packed trace
is fresh, so the profile covers resolving its core side as well as the
replay.  Prints the top-20
functions by cumulative time, and writes the full ranking to a JSON
artifact so CI can archive per-commit hotspot snapshots next to
``BENCH_kernel.json``.

Usage::

    python tools/profile_kernel.py [--out results/profile_kernel.json]
    make profile-kernel
"""

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from test_perf_kernel import RUN_TRANSACTIONS  # noqa: E402

from repro.config import eager_config  # noqa: E402
from repro.cpu.trace_io import PackedTrace  # noqa: E402
from repro.harness.runner import run_trace  # noqa: E402
from repro.workloads import generate_trace  # noqa: E402

TOP_N = 20


def profile_run_unit() -> pstats.Stats:
    config = eager_config()
    packed = PackedTrace.from_trace(
        generate_trace("hashmap", RUN_TRANSACTIONS, config.transaction_size, 1)
    )
    profiler = cProfile.Profile()
    profiler.enable()
    run_trace(config, packed, "hashmap", RUN_TRANSACTIONS)
    profiler.disable()
    return pstats.Stats(profiler)


def stats_rows(stats: pstats.Stats) -> list:
    """Flatten the profile into JSON-able rows, sorted by cumulative."""
    rows = []
    for (filename, line, name), entry in stats.stats.items():
        calls, primitive, total, cumulative, _callers = entry
        try:
            location = str(Path(filename).resolve().relative_to(REPO_ROOT))
        except ValueError:
            location = filename
        rows.append(
            {
                "function": name,
                "location": f"{location}:{line}",
                "calls": calls,
                "primitive_calls": primitive,
                "total_seconds": round(total, 6),
                "cumulative_seconds": round(cumulative, 6),
            }
        )
    rows.sort(key=lambda row: row["cumulative_seconds"], reverse=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "results" / "profile_kernel.json"),
        help="JSON artifact path (default: results/profile_kernel.json)",
    )
    args = parser.parse_args()

    stats = profile_run_unit()
    rows = stats_rows(stats)
    total_calls = int(stats.total_calls)
    total_time = round(stats.total_tt, 4)

    print(f"run unit ({RUN_TRANSACTIONS} txns): {total_calls:,} calls, "
          f"{total_time:.3f}s profiled")
    print(f"\ntop {TOP_N} by cumulative time:")
    stats.sort_stats("cumulative").print_stats(TOP_N)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "bench": "profile_kernel",
                "transactions": RUN_TRANSACTIONS,
                "total_calls": total_calls,
                "total_seconds": total_time,
                "python": sys.version.split()[0],
                "hotspots": rows[:100],
            },
            indent=2,
        )
        + "\n"
    )
    print(f"[wrote {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
