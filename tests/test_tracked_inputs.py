"""Every file the tests and gates read must be committed.

A snapshot or fixture that exists only in a working tree makes a gate
pass locally and fail (or silently skip its check) on a clean clone:
``results/golden.json`` sat under an ignored directory for several
changes before anyone noticed.  This test compares the inputs against
``git ls-files`` and names each one that is missing or untracked.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Inputs read by the tier-1 suite and the CI gates, relative to ROOT.
#: Every file under ``tests/data`` is added on top of these.
GATE_INPUTS = (
    "results/golden.json",  # golden-result suite and `harness golden`
    "BENCH_kernel.json",  # perf gate baseline (benchmarks/check_perf_gate.py)
    "tools/make_legacy_fixture.py",  # fixture label resolution (test_composition)
)


def _tracked_files() -> set:
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    toplevel = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
        capture_output=True, text=True,
    )
    if (
        toplevel.returncode != 0
        or Path(toplevel.stdout.strip()).resolve() != ROOT
    ):
        pytest.skip("not running in a git checkout of this repository")
    listing = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z"],
        capture_output=True, text=True, check=True,
    )
    return set(listing.stdout.split("\0"))


def test_gate_inputs_are_tracked_by_git():
    tracked = _tracked_files()
    inputs = set(GATE_INPUTS) | {
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "tests" / "data").iterdir()
        if path.is_file()
    }
    missing = sorted(name for name in inputs if not (ROOT / name).is_file())
    untracked = sorted(name for name in inputs - set(missing) if name not in tracked)
    assert not missing, f"gate inputs missing from the checkout: {missing}"
    assert not untracked, (
        f"gate inputs present but not tracked by git: {untracked} — a clean "
        "clone would not have them; `git add` them (check .gitignore)"
    )
