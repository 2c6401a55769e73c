"""Installs the benchmark's layer spans in a fleet worker process.

A traced fleet-matrix iteration puts this directory first on the
``PYTHONPATH`` of the ``harness serve`` workers it starts and names a
span directory in ``PERFBENCH_SPAN_DIR``.  Python imports
``sitecustomize`` at start-up, so the worker wraps the same functions
the benchmark process does and writes its spans when it exits.
"""

import os

if os.environ.get("PERFBENCH_SPAN_DIR"):
    import atexit
    import json
    from pathlib import Path

    from perfbench import layers
    from perfbench.spans import Tracer

    _tracer = Tracer()
    layers.install(_tracer)
    _out = Path(os.environ["PERFBENCH_SPAN_DIR"]) / f"worker-{os.getpid()}.json"
    atexit.register(lambda: _out.write_text(json.dumps(_tracer.snapshot())))
