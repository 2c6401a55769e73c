"""Regenerate ``tests/data/legacy_matrix_fixture.json``.

The fixture pins every controller path bit-for-bit: the eight
``CONTROLLER_MATRIX`` designs plus two paths the matrix lacks, the
non-secure ideal reference (reads without Ma-SU verification) and
``dolos-full`` under strict persistency (every clwb waits).  Each entry
holds timing metrics and a stats digest from :func:`run_workload`, plus
the crash-site enumeration (count, final cycle, state-hash digest) from
the differential oracle.  Rebuild it whenever trace generation
legitimately changes (``GENERATOR_VERSION`` bump) — never to paper over
an unexplained diff.

Usage::

    PYTHONPATH=src python tools/make_legacy_fixture.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

WORKLOAD = "hashmap"
TRANSACTIONS = 40
SEED = 3
ORACLE_TRANSACTIONS = 12


def _digest(material: str) -> str:
    return hashlib.sha256(material.encode()).hexdigest()[:24]


def fixture_configs():
    """Label -> config for every pinned path (shared with the test)."""
    from repro.config import ControllerKind, SimConfig
    from repro.matrix import controller_matrix

    configs = controller_matrix()
    configs["nonsecure-ideal"] = SimConfig().with_(
        controller=ControllerKind.NON_SECURE_IDEAL
    )
    full = configs["dolos-full"]
    configs["dolos-full-strict"] = full.with_(
        core=dataclasses.replace(full.core, persist_model="strict")
    )
    return configs


def main() -> int:
    # The fixture captures raw simulation output, not cache behaviour.
    os.environ["REPRO_TRACE_CACHE"] = "off"
    os.environ["REPRO_UNIT_MEMO"] = "off"

    from repro.harness.runner import run_workload
    from repro.oracle.check import enumerate_sites
    from repro.oracle.ops import generate_ops

    configs = {}
    for label, config in sorted(fixture_configs().items()):
        res = run_workload(
            config, WORKLOAD, transactions=TRANSACTIONS, seed=SEED
        )
        stats_material = json.dumps(sorted(res.stats.items()), sort_keys=True)
        ops = generate_ops(WORKLOAD, ORACLE_TRANSACTIONS, 0)
        enum = enumerate_sites(config, ops)
        site_material = json.dumps(
            [[s.cycle, s.kind, s.state_hash] for s in enum.sites]
        )
        configs[label] = {
            "cycles": res.cycles,
            "instructions": res.instructions,
            "stats_digest": _digest(stats_material),
            "sites": len(enum.sites),
            "final_cycle": enum.final_cycle,
            "site_digest": _digest(site_material),
        }
        print(f"{label}: cycles={res.cycles} sites={len(enum.sites)}")

    fixture = {
        "workload": WORKLOAD,
        "transactions": TRANSACTIONS,
        "seed": SEED,
        "oracle_transactions": ORACLE_TRANSACTIONS,
        "configs": configs,
    }
    out = Path(__file__).resolve().parent.parent / "tests" / "data"
    path = out / "legacy_matrix_fixture.json"
    path.write_text(json.dumps(fixture, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
