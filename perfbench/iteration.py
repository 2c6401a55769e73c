"""One benchmark iteration, run in a fresh child process.

``python -m perfbench.iteration SPEC.json`` runs one iteration of a
workload and writes ``result.json`` into the iteration directory named
by the spec.  The benchmark process points every ``REPRO_*`` cache at
that directory before starting the child, so each iteration starts from
an empty interpreter and cold caches.  With ``"trace": true`` the
layer spans are installed first, and fleet workers inherit a hook that
installs them too; every process writes its spans under ``spans/``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

from perfbench import layers
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS

HOOK_DIR = Path(__file__).resolve().parent / "worker_hook"


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    workdir = Path(spec["dir"])
    span_dir = workdir / "spans"
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        layers.install(tracer)
        span_dir.mkdir(parents=True, exist_ok=True)
        # Only processes started from here on (fleet workers) load the
        # hook; this process traced itself above.
        os.environ["PERFBENCH_SPAN_DIR"] = str(span_dir)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(HOOK_DIR), os.environ.get("PYTHONPATH", "")]
        )

    usage = {}

    def on_done() -> None:
        """Called when the result is written: before any output check."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        # Fleet workers have been stopped and reaped by now.
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        usage["cpu_s"] = (own.ru_utime + own.ru_stime
                          + reaped.ru_utime + reaped.ru_stime)
        usage["self_rss_kb"] = own.ru_maxrss
        if tracer is not None:
            (span_dir / "main.json").write_text(json.dumps(tracer.snapshot()))

    result = WORKLOADS[spec["workload"]].run(spec["params"], workdir, on_done)

    from repro.harness.memo import model_fingerprint

    result.update(usage)
    result["model_fingerprint"] = model_fingerprint()
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
