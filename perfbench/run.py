"""The Dolos reproduction's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-fig12 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each iteration of the workload runs in
a fresh child process with cold caches in a private directory under
``.perfbench-runs/``, which is removed at the end.  Iterations repeat
until ``--seconds`` have passed (and at least the workload's minimum
count, so that every run checks determinism).

``--trace 0`` prints every end-to-end metric: the median over
iterations, except unit latency, which is taken over all units pooled.
``--trace 1`` alternates untraced and traced iterations of the first
input, prints the per-layer self-time accounting and the tracing
overhead, and reports every per-layer metric (median over traced
iterations).  Both check the outputs and count failed units against
attempted ones.  The last line of standard output is the JSON result;
the exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, Tally, result_line  # noqa: E402
from perfbench.workloads import WORKLOADS, end_to_end, now  # noqa: E402

#: A child that has not finished by then is killed with its workers.
ITERATION_TIMEOUT = 120.0
RUNS_DIR = ".perfbench-runs"


def log(line: str) -> None:
    print(line, flush=True)


def _stop_group(proc: subprocess.Popen) -> None:
    """SIGKILL what is left of a child's process group and wait it out."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    def __init__(self, workload, run_dir: Path) -> None:
        self.workload = workload
        self.run_dir = run_dir
        self.count = 0

    def iteration(self, params: dict, trace: bool) -> dict:
        """Run one child iteration; returns its record (``result`` None on failure)."""
        workdir = self.run_dir / f"iter-{self.count}"
        self.count += 1
        workdir.mkdir(parents=True)
        (workdir / "tmp").mkdir()
        # Relative paths keep the fleet's Unix socket paths short.
        rel = workdir.relative_to(ROOT)
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            "REPRO_TRACE_CACHE": str(rel / "traces"),
            "REPRO_UNIT_MEMO": str(rel / "units"),
            "REPRO_RESULT_CACHE": str(rel / "results"),
            "REPRO_FLEET_DB": str(rel / "fleet.sqlite"),
            "REPRO_JOBS": "1",
            "XDG_CACHE_HOME": str(rel / "xdg"),
            "TMPDIR": str(workdir / "tmp"),
        })
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({
            "workload": self.workload.name, "params": params,
            "trace": trace, "dir": str(rel),
        }))
        spawned = now()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.iteration", str(rel / "spec.json")],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=ITERATION_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            _stop_group(proc)
        record = {"params": params, "spawned": spawned, "trace": trace,
                  "dir": workdir, "returncode": proc.returncode,
                  "result": None}
        result_path = workdir / "result.json"
        if proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
            record["result"] = result
            record["rss_mb"] = (result["self_rss_kb"]
                                + result.get("worker_rss_kb", 0)) / 1024
        return record


def repeat(runner: Runner, schedule, seconds: float, minimum: int,
           tally: Tally) -> list:
    """Run ``schedule(i) -> [(params, trace), ...]`` rounds until time is up."""
    records = []
    start = now()
    rounds = 0
    while rounds < minimum or now() - start < seconds:
        for params, trace in schedule(rounds):
            record = runner.iteration(params, trace)
            if record["result"] is None:
                tally.attempt(1)
                tally.fail(f"iteration {runner.count - 1} exited "
                           f"{record['returncode']} without a result")
                return records
            records.append(record)
        rounds += 1
    return records


def count_units(records: list, tally: Tally) -> None:
    for record in records:
        tally.attempt(record["result"]["units"])


def provenance(args, records: list) -> dict:
    git_hash = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if git.returncode == 0:
                git_hash = git.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git": git_hash,
        "model_fingerprint": records[0]["result"]["model_fingerprint"]
        if records else "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "cache_dirs": f"{RUNS_DIR}/<run>/iter-<n>/{{traces,units,results,"
                      "fleet.sqlite}} (fresh per iteration, removed after)",
    }


def untraced(args, workload, runner: Runner, tally: Tally):
    params = workload.params(args.seed)
    records = repeat(
        runner, lambda i: [(params[i % len(params)], False)],
        args.seconds, workload.min_iterations, tally,
    )
    if not records:
        return None, records
    count_units(records, tally)
    workload.check(records, tally, log)
    walls = " ".join(f"{r['result']['done'] - r['result']['ready']:.3f}"
                     for r in records)
    log(f"{len(records)} iterations, wall_s each: {walls}; unit latency "
        f"over {sum(len(r['result']['unit_ms']) for r in records)} units")
    return end_to_end(records), records


def traced(args, workload, runner: Runner, tally: Tally):
    first = workload.params(args.seed)[0]
    records = repeat(
        runner, lambda i: [(first, False), (first, True)], args.seconds, 1,
        tally,
    )
    if len(records) < 2:
        return None, records
    count_units(records, tally)
    extra = workload.check(records, tally, log)
    runs = []
    plain = [r for r in records if not r["trace"]]
    for record in (r for r in records if r["trace"]):
        snapshots = layers.load_snapshots(record["dir"] / "spans")
        res = record["result"]
        if len(snapshots) != 1 + workload.processes:
            tally.fail(f"traced iteration wrote {len(snapshots)} span files, "
                       f"expected {1 + workload.processes}")
        values = layers.layer_metrics(
            list(snapshots.values()),
            dict(extra, dispatcher_unit_s=res.get("dispatched_s", 0.0)),
        )
        if values["harness.memo.hits"]:
            tally.fail(f"{values['harness.memo.hits']} unit memo hits in a "
                       "cold run")
        values["trace.wall_s"] = res["done"] - res["ready"]
        runs.append((values, snapshots, record))
    metrics = layers.median_metrics([values for values, *_ in runs])
    untraced_wall = statistics.median(
        r["result"]["done"] - r["result"]["ready"] for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["error_rate"] = tally.error_rate
    account(workload, runs[0], untraced_wall)
    return metrics, records


def account(workload, run, untraced_wall: float) -> None:
    """Print self time per layer beside the traced wall, and reconcile.

    Per thread, the self times of its spans add up to the time its
    outermost spans cover, which cannot exceed the thread's life; the
    benchmark process's main thread is reconciled against its whole
    life, from spawn to result.
    """
    values, snapshots, record = run
    res = record["result"]
    wall = res["done"] - res["ready"]
    life = res["done"] - record["spawned"]
    log(f"traced wall {wall:.3f} s vs untraced {untraced_wall:.3f} s: "
        f"tracing overhead {wall - untraced_wall:.3f} s")
    for label, snapshot in snapshots.items():
        table = layers.self_time_table([snapshot])
        total = sum(own for _, own in table)
        log(f"self time by layer, {label} process "
            f"({len(snapshot['threads'])} threads):")
        for group, own in table:
            log(f"  {group:<16} {own:9.3f} s  {100 * own / total:5.1f}% of "
                f"spans  {100 * own / wall:6.1f}% of traced wall")
        for thread in snapshot["threads"]:
            log(f"  reconcile {thread['name']}: sum of its self times = its "
                f"outermost spans {thread['root_ns'] / 1e9:.3f} s, within "
                f"{life:.3f} s from spawn to result")
    main = sum(t["root_ns"] for t in snapshots["main"]["threads"]
               if t["name"] == "MainThread") / 1e9
    log(f"reconcile main thread: spans {main:.3f} s + outside spans "
        f"{life - main:.3f} s = {life:.3f} s from spawn to result "
        f"(setup {life - wall:.3f} s + traced wall {wall:.3f} s)")
    if workload.focus:
        table = dict(layers.self_time_table(list(snapshots.values())))
        focus = sum(table.get(group, 0.0) for group in workload.focus)
        log(f"layer separation: {' + '.join(workload.focus)} take "
            f"{100 * focus / sum(table.values()):.1f}% of all self time; "
            f"crypto calls mac {values['crypto.mac.calls']} pad "
            f"{values['crypto.pad.calls']}; fleet spans "
            f"{'present' if table.get('fleet') else 'none'}")
    if values["fleet.orchestration_share"]:
        log(f"fleet.orchestration_share {values['fleet.orchestration_share']:.3f}"
            f" = 1 - worker execute_unit time / {res['dispatched_s']:.3f} s "
            f"dispatcher-observed unit time over {len(res['unit_ms'])} units")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2

    # Unwind on SIGTERM too, so the child and its workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / RUNS_DIR / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        runner = Runner(workload, run_dir)
        log(f"workload {workload.name}: {workload.why}")
        measure = traced if args.trace else untraced
        metrics, records = measure(args, workload, runner, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / RUNS_DIR).rmdir()
        except OSError:
            pass

    log("provenance: " + json.dumps(provenance(args, records), sort_keys=True))
    for reason in tally.reasons:
        log(f"FAILED: {reason}")
    correct = metrics is not None and tally.failed == 0
    if metrics is None:
        metrics = {}
    elif set(metrics) != {name for name, *_ in (PER_LAYER if args.trace else END_TO_END)}:
        raise RuntimeError("metric set does not match perfbench.metrics")
    elif not args.trace:
        for name, unit, *_ in END_TO_END:
            log(f"{name} = {metrics[name]:.6g} {unit}")
    log(f"attempted {tally.attempted} units, failed {tally.failed}, "
        f"error_rate {tally.error_rate:.6g}")
    print(json.dumps(result_line(correct, tally, metrics)), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
