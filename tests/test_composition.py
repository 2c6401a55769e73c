"""Tests for the strategy-composed controller matrix (PR 8).

Three obligations:

1. **Bit identity** — every controller path (the eight matrix designs,
   the non-secure ideal and strict persistency) must produce exactly
   the metrics and crash-site hashes captured in
   ``tests/data/legacy_matrix_fixture.json``.
2. **New designs** — the Triad-NVM and SuperMem write-through
   controllers must survive the differential oracle and the fault
   campaign with zero silent outcomes.
3. **Composition** — every controller is a declared
   :class:`~repro.core.composition.ControllerSpec` over shared strategy
   objects; the per-design classes stay thin kind tags with no design
   ``if`` ladders.
"""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from repro.config import ControllerKind, SimConfig, TreeUpdateScheme
from repro.core.composition import (
    CONTROLLER_SPECS,
    DOMAINS,
    DRAIN_STRATEGIES,
    WRITE_STRATEGIES,
    controller_spec,
)
from repro.core.controller import _CONTROLLERS, MemoryController, make_controller
from repro.engine import Simulator
from repro.faults.campaign import SILENT, run_fault_unit
from repro.harness.runner import run_workload
from repro.matrix import (
    CONTROLLER_MATRIX,
    LEGACY_MATRIX,
    MATRIX_GROUPS,
    NEW_MATRIX,
    controller_matrix,
    matrix_labels,
)
from repro.oracle.check import check_unit, enumerate_sites
from repro.oracle.driver import OracleExecution
from repro.oracle.ops import generate_ops

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "legacy_matrix_fixture.json").read_text()
)

# The fixture tool owns the label -> config resolution, so the test and
# the regeneration script can never pin different configurations.
_TOOL_SPEC = importlib.util.spec_from_file_location(
    "make_legacy_fixture",
    Path(__file__).parent.parent / "tools" / "make_legacy_fixture.py",
)
_TOOL = importlib.util.module_from_spec(_TOOL_SPEC)
_TOOL_SPEC.loader.exec_module(_TOOL)


def _digest(material: str) -> str:
    return hashlib.sha256(material.encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# 1. Bit identity against the pre-refactor capture
# ----------------------------------------------------------------------
class TestLegacyBitIdentity:
    @pytest.mark.parametrize("label", sorted(FIXTURE["configs"]))
    def test_metrics_and_crash_sites_match_fixture(self, label, monkeypatch):
        """Timing metrics, stats digests and crash-site state hashes are
        bit-identical to the captured fixture."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        monkeypatch.setenv("REPRO_UNIT_MEMO", "off")
        expect = FIXTURE["configs"][label]
        config = _TOOL.fixture_configs()[label]
        res = run_workload(
            config, FIXTURE["workload"],
            transactions=FIXTURE["transactions"], seed=FIXTURE["seed"],
        )
        assert res.cycles == expect["cycles"]
        assert res.instructions == expect["instructions"]
        stats_material = json.dumps(sorted(res.stats.items()), sort_keys=True)
        assert _digest(stats_material) == expect["stats_digest"]
        ops = generate_ops(
            FIXTURE["workload"], FIXTURE["oracle_transactions"], 0
        )
        enum = enumerate_sites(config, ops)
        site_material = json.dumps(
            [[s.cycle, s.kind, s.state_hash] for s in enum.sites]
        )
        assert len(enum.sites) == expect["sites"]
        assert enum.final_cycle == expect["final_cycle"]
        assert _digest(site_material) == expect["site_digest"]

    def test_fixture_covers_every_pinned_path(self):
        assert sorted(FIXTURE["configs"]) == sorted(_TOOL.fixture_configs())
        assert set(CONTROLLER_MATRIX) < set(FIXTURE["configs"])


# ----------------------------------------------------------------------
# 2. The two new designs: oracle + fault smoke
# ----------------------------------------------------------------------
class TestNewDesigns:
    @pytest.mark.parametrize("label", NEW_MATRIX)
    def test_oracle_smoke_no_divergence_full_detection(self, label):
        unit = check_unit(
            "hashmap", label, controller_matrix()[label], transactions=8,
        )
        assert unit.passed, unit.failures[:5]
        assert unit.sites_checked == unit.sites_enumerated > 0
        assert unit.attacks_detected == unit.attacks_run > 0

    @pytest.mark.parametrize("label", NEW_MATRIX)
    def test_fault_smoke_zero_silent(self, label):
        unit = run_fault_unit(
            "hashmap", label, controller_matrix()[label], 10, seed=0, sites=1,
        )
        assert unit.failures == []
        assert unit.count(SILENT) == 0
        assert unit.outcomes, "campaign injected nothing"

    def test_triad_caps_critical_tree_levels(self):
        triad = controller_matrix()["triad"].security
        eager = SimConfig().with_(
            controller=ControllerKind.PRE_WPQ_SECURE
        ).security
        assert triad.tree_update is TreeUpdateScheme.EAGER
        assert triad.triad_persist_levels == 2
        assert (
            triad.masu_critical_hash_latency < eager.masu_critical_hash_latency
        )

    def test_writethrough_charges_counter_persists(self):
        config = controller_matrix()["writethrough"]
        assert config.security.counter_write_through
        execution = OracleExecution(
            config, generate_ops("hashmap", 6, 1)
        )
        execution.run()
        masu = execution.controller.masu
        assert masu.counter_writes_through > 0
        assert "counter_writes_through" in masu.stats()
        assert "counter_writes_coalesced" in masu.stats()

    def test_legacy_stats_have_no_writethrough_keys(self):
        """The new stats keys must not leak into legacy digests."""
        execution = OracleExecution(
            controller_matrix()["prewpq-eager"], generate_ops("hashmap", 4, 1)
        )
        execution.run()
        stats = execution.controller.masu.stats()
        assert "counter_writes_through" not in stats
        assert "counter_writes_coalesced" not in stats


# ----------------------------------------------------------------------
# 3. Declarative composition
# ----------------------------------------------------------------------
class TestComposition:
    def test_every_kind_has_a_spec_and_a_class(self):
        assert set(CONTROLLER_SPECS) == set(_CONTROLLERS) == set(ControllerKind)

    @pytest.mark.parametrize("kind", sorted(ControllerKind, key=lambda k: k.value))
    def test_controller_wiring_matches_spec(self, kind):
        spec = controller_spec(kind)
        config = SimConfig().with_(controller=kind)
        controller = make_controller(Simulator(), config)
        assert controller.spec is spec
        assert type(controller._write) is WRITE_STRATEGIES[spec.protection]
        assert type(controller._drain) is DRAIN_STRATEGIES[spec.update]
        assert type(controller._domain) is DOMAINS[spec.domain]
        assert (controller.masu is not None) == spec.has_masu
        assert (controller.misu is not None) == spec.has_misu
        adr_drain = getattr(controller, "adr_drain", None)
        assert (adr_drain is not None) == spec.has_misu
        # ``battery_drain`` is bound as an instance attribute only on
        # the battery-backed domain (crash_system probes via getattr).
        battery = getattr(controller, "battery_drain", None)
        assert (battery is not None) == (spec.domain == "eadr-battery")

    def test_wpq_sizing_follows_spec(self):
        for kind in ControllerKind:
            spec = controller_spec(kind)
            config = SimConfig().with_(controller=kind)
            controller = make_controller(Simulator(), config)
            if spec.wpq_sizing == "misu":
                expected = config.adr.usable_entries(config.misu_design)
            elif spec.wpq_sizing == "eadr":
                expected = spec.eadr_buffer_entries
            else:
                expected = config.adr.budget_entries
            assert controller.wpq.capacity == expected, kind

    def test_design_classes_are_thin_tags_without_if_ladders(self):
        """No per-design branching: subclasses declare only their kind
        (plus docstrings/compat constants) and override no methods."""
        for cls in _CONTROLLERS.values():
            members = {
                name for name in vars(cls)
                if not name.startswith("__")
            }
            assert members <= {"kind", "EADR_BUFFER_ENTRIES"}, cls
            source = inspect.getsource(cls)
            assert "if " not in source, f"{cls.__name__} branches on design"
            assert "isinstance" not in source

    def test_base_controller_never_branches_on_kind(self):
        source = inspect.getsource(MemoryController)
        assert "ControllerKind." not in source
        assert "self.kind ==" not in source and "self.kind is" not in source

    def test_matrix_groups_are_consistent(self):
        assert CONTROLLER_MATRIX == LEGACY_MATRIX + NEW_MATRIX
        assert matrix_labels("all") == list(CONTROLLER_MATRIX)
        for group, labels in MATRIX_GROUPS.items():
            assert set(labels) <= set(CONTROLLER_MATRIX), group
        with pytest.raises(KeyError):
            matrix_labels("no-such-group")
