"""Unit tests for the Section 5 enhancement (pass-gate insertion)."""

import hashlib

import pytest

from repro.boolexpr import parse
from repro.core import (
    check_constant_evaluation_depth,
    check_no_early_propagation,
    enhance_fc_dpdn,
    enhance_fc_dpdn_with_insertions,
    synthesize_fc_dpdn,
    verify_gate,
)
from repro.network import evaluation_depths, is_fully_connected, path_variables, structural_paths
from repro.flow import DesignFlow, FlowConfig, SynthesisConfig
from repro.scenarios import make_scenario


class TestAndNandFig6:
    def test_two_dummy_devices_added(self, and2_fc):
        result = enhance_fc_dpdn_with_insertions(and2_fc)
        assert result.dummy_device_count == 2
        assert result.dpdn.device_count() == and2_fc.device_count() + 2

    def test_pass_gate_is_on_the_missing_input(self, and2_fc):
        result = enhance_fc_dpdn_with_insertions(and2_fc)
        assert [insertion.variable for insertion in result.insertions] == ["A"]

    def test_constant_depth_of_two(self, and2, and2_fc):
        enhanced = enhance_fc_dpdn(and2_fc)
        depths = set(evaluation_depths(enhanced).values())
        assert depths == {2}

    def test_dummy_devices_are_marked(self, and2_fc):
        enhanced = enhance_fc_dpdn(and2_fc)
        roles = [t.role for t in enhanced.transistors]
        assert roles.count("dummy") == 2
        assert roles.count("logic") == 4

    def test_function_and_connectivity_preserved(self, and2, and2_fc):
        enhanced = enhance_fc_dpdn(and2_fc)
        report = verify_gate(
            enhanced, and2, require_constant_depth=True, require_no_early_propagation=True
        )
        assert report.passed, report.describe()


class TestEnhancementProperties:
    def test_every_discharge_path_sees_every_input(self, representative_function):
        name, function = representative_function
        enhanced = enhance_fc_dpdn(synthesize_fc_dpdn(function, name=name))
        variables = set(enhanced.variables())
        for output in (enhanced.x, enhanced.y):
            for path in structural_paths(enhanced, output, enhanced.z):
                gate_variables = {t.gate.variable for t in path}
                rails = {}
                for device in path:
                    rails.setdefault(device.gate.variable, set()).add(device.gate.positive)
                contradictory = any(len(p) > 1 for p in rails.values())
                if not contradictory:
                    assert path_variables(path) == variables, (name, output)

    def test_constant_depth_and_no_early_propagation(self, representative_function):
        name, function = representative_function
        enhanced = enhance_fc_dpdn(synthesize_fc_dpdn(function, name=name))
        assert check_constant_evaluation_depth(enhanced).passed, name
        assert check_no_early_propagation(enhanced).passed, name

    def test_enhancement_keeps_full_connectivity(self, representative_function):
        name, function = representative_function
        enhanced = enhance_fc_dpdn(synthesize_fc_dpdn(function, name=name))
        assert is_fully_connected(enhanced), name

    def test_unenhanced_fc_gate_shows_early_propagation(self, and2_fc):
        # The plain FC AND-NAND evaluates as soon as B arrives with B=0
        # (the ~B device alone discharges Y); the enhancement removes this.
        assert not check_no_early_propagation(and2_fc).passed

    def test_buffer_gate_needs_no_enhancement(self):
        fc = synthesize_fc_dpdn(parse("A"))
        result = enhance_fc_dpdn_with_insertions(fc)
        assert result.insertions == []

    def test_enhancement_is_idempotent_for_already_enhanced_networks(self, and2_fc):
        once = enhance_fc_dpdn(and2_fc)
        twice = enhance_fc_dpdn_with_insertions(once)
        assert twice.insertions == []

    def test_genuine_network_can_also_be_enhanced(self, and2_genuine, and2):
        # The algorithm only uses the path structure, so a genuine network
        # is accepted; it gains constant depth but stays non-FC.
        enhanced = enhance_fc_dpdn(and2_genuine)
        assert check_constant_evaluation_depth(enhanced).passed
        assert verify_gate(enhanced, and2, require_fully_connected=False).passed

    def test_insertion_records_are_descriptive(self, and2_fc):
        result = enhance_fc_dpdn_with_insertions(and2_fc)
        text = result.describe()
        assert "pass-gate" in text and "dummy" in text


# --------------------------------------------------------------------------- the keyed S-box
#
# Golden pins for key 5, recorded with the enumerate-then-filter path
# search that realizable_paths replaced: device count, sha256 of the
# insertion record (EnhancementResult.describe()) and sha256 of the
# enhanced netlist (DifferentialPullDownNetwork.describe()).
SBOX_KEY = 5
SBOX_ENHANCEMENT_PINS = {
    "y0": (
        152,
        "e27d9ce6c3bc529d1ec3641e29c414cce07c89192f393dea93dff9e1e6419740",
        "a639c709bbe57b4e1a6d53e84f9edd07c67c30737a666b3d217876eeee4580a6",
    ),
    "y1": (
        198,
        "5d2a34caa35b4397ecd793a7750b9289accd3fed55935f576a7e0e6987babb37",
        "da1da828bd85b5674e884e062c7bec9b0fb1d7d6dc9a920092adb5735adfedab",
    ),
    "y2": (
        178,
        "54d42122ff738f8f4489ca436bec205818c9f7a79e1dd28810c6f6b7a8b1ffa7",
        "7bc22a1a4cda3d5b2de41f86d40a88d1230ee32e243a8e17f992f040be54dfac",
    ),
    "y3": (
        206,
        "78beb68520825fecb58352d9cb8aca19c56173bf7f0cb4593262ccae82c7d223",
        "2563c5365d91820a77847139eed4874d9517ea86aeed9d95ff801d2946bc52a9",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestSboxEnhancement:
    @pytest.mark.parametrize("output", sorted(SBOX_ENHANCEMENT_PINS))
    def test_enhanced_sbox_output_matches_golden_pin(self, output):
        function = make_scenario("sbox", key=SBOX_KEY).expressions()[output]
        result = enhance_fc_dpdn_with_insertions(synthesize_fc_dpdn(function, name=output))
        devices, record_sha, netlist_sha = SBOX_ENHANCEMENT_PINS[output]
        assert result.dpdn.device_count() == devices
        assert _sha256(result.describe()) == record_sha
        assert _sha256(result.dpdn.describe()) == netlist_sha

    def test_enhanced_sbox_flow_passes_verification(self):
        flow = DesignFlow.sbox(
            key=SBOX_KEY, config=FlowConfig(synthesis=SynthesisConfig(enhance=True))
        )
        reports = flow.verification()
        assert sorted(reports) == ["y0", "y1", "y2", "y3"]
        for output, report in reports.items():
            assert report.passed, report.describe()
            assert report.check("constant_evaluation_depth").passed, output
            assert report.check("no_early_propagation").passed, output
