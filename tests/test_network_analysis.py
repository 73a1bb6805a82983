"""Unit tests for connectivity / floating-node / depth analysis."""

import pytest

from repro.boolexpr import is_contradiction, is_tautology, parse
from repro.core import enhance_fc_dpdn, synthesize_fc_dpdn, transform_to_fc
from repro.core.transform import NotDualError
from repro.network import (
    NotSeriesParallelError,
    branch_conducts,
    complementary_assignments,
    conducting_components,
    conducting_paths,
    discharged_nodes,
    evaluation_depth,
    evaluation_depths,
    floating_internal_nodes,
    full_connectivity_report,
    is_fully_connected,
    build_genuine_dpdn,
    path_variables,
    realizable_paths,
    structural_paths,
)

from strategies import HAVE_HYPOTHESIS, expression_strategy

if HAVE_HYPOTHESIS:
    from hypothesis import HealthCheck, assume, given, settings


class TestComplementaryAssignments:
    def test_count(self):
        assert len(list(complementary_assignments(["A", "B", "C"]))) == 8

    def test_single_variable(self):
        assert list(complementary_assignments(["A"])) == [{"A": False}, {"A": True}]


class TestFloatingNodes:
    def test_genuine_and2_floats_node_w_for_00(self, and2_genuine):
        # The paper's Fig. 2 discussion: with A=B=0 the internal node W is
        # disconnected from both X and Z and keeps its charge.
        floating = floating_internal_nodes(and2_genuine, {"A": False, "B": False})
        assert len(floating) == 1

    def test_genuine_and2_discharges_node_w_for_11(self, and2_genuine):
        assert floating_internal_nodes(and2_genuine, {"A": True, "B": True}) == set()

    def test_fc_and2_never_floats(self, and2_fc):
        for assignment in complementary_assignments(["A", "B"]):
            assert floating_internal_nodes(and2_fc, assignment) == set()

    def test_discharged_nodes_always_contain_externals(self, and2_genuine):
        for assignment in complementary_assignments(["A", "B"]):
            discharged = discharged_nodes(and2_genuine, assignment)
            assert {"X", "Y", "Z"} <= discharged


class TestFullConnectivity:
    def test_genuine_is_not_fully_connected(self, and2_genuine):
        assert not is_fully_connected(and2_genuine)

    def test_fc_is_fully_connected(self, and2_fc):
        assert is_fully_connected(and2_fc)

    def test_network_without_internal_nodes_is_trivially_fc(self):
        dpdn = build_genuine_dpdn(parse("A"))
        assert is_fully_connected(dpdn)

    def test_report_covers_every_event(self, and2_genuine):
        report = full_connectivity_report(and2_genuine)
        assert len(report) == 4
        floating_events = [record for record in report if record.floating]
        assert len(floating_events) == 1
        assert not floating_events[0].is_fully_connected


class TestBranchConduction:
    def test_exactly_one_branch_conducts(self, and2_fc):
        for assignment in complementary_assignments(["A", "B"]):
            x_on = branch_conducts(and2_fc, assignment, and2_fc.x)
            y_on = branch_conducts(and2_fc, assignment, and2_fc.y)
            assert x_on != y_on

    def test_components_partition_nodes(self, and2_genuine):
        components = conducting_components(and2_genuine, {"A": True, "B": False})
        all_nodes = sorted(node for component in components for node in component)
        assert all_nodes == sorted(and2_genuine.nodes())


class TestPathsAndDepth:
    def test_conducting_path_of_and2_11(self, and2_fc):
        paths = conducting_paths(and2_fc, {"A": True, "B": True}, "X", "Z")
        assert any(path_variables(path) == {"A", "B"} for path in paths)

    def test_structural_paths_superset_of_conducting(self, and2_fc):
        structural = structural_paths(and2_fc, "X", "Z")
        conducting = conducting_paths(and2_fc, {"A": True, "B": True}, "X", "Z")
        assert len(structural) >= len(conducting)

    def test_evaluation_depth_of_genuine_and2_varies(self, and2_genuine):
        depths = set(evaluation_depths(and2_genuine).values())
        assert depths == {1, 2}

    def test_evaluation_depth_of_fc_and2(self, and2_fc):
        depths = evaluation_depths(and2_fc)
        assert depths[(("A", False), ("B", False))] == 1
        assert depths[(("A", True), ("B", True))] == 2

    def test_depth_none_for_non_conducting_network(self):
        # A deliberately broken single-branch network: Y never conducts.
        from repro.network import DifferentialPullDownNetwork, Literal

        dpdn = DifferentialPullDownNetwork("broken")
        dpdn.add_transistor(Literal("A", True), "X", "n1")
        assert evaluation_depth(dpdn, {"A": False}) is None

    def test_fc_synthesis_of_three_input_gate_depths(self):
        dpdn = synthesize_fc_dpdn(parse("A & B & C"))
        depths = [depth for depth in evaluation_depths(dpdn).values()]
        assert all(depth is not None for depth in depths)
        assert max(depth for depth in depths) == 3


# --------------------------------------------------------------------------- path-search equivalence
#
# realizable_paths and conducting_paths prune or restrict the search while
# it runs; the oracle is the plain structural listing filtered afterwards.


def _holds_both_rails(path):
    rails = {}
    for device in path:
        rails.setdefault(device.gate.variable, set()).add(device.gate.positive)
    return any(len(polarities) > 1 for polarities in rails.values())


def _assert_searches_match_filtered_structural_paths(dpdn):
    for output in (dpdn.x, dpdn.y):
        structural = structural_paths(dpdn, output, dpdn.z)
        expected = [path for path in structural if not _holds_both_rails(path)]
        assert realizable_paths(dpdn, output, dpdn.z) == expected, (dpdn.name, output)
        for assignment in complementary_assignments(dpdn.variables()):
            expected = [
                path
                for path in structural
                if all(device.conducts(assignment) for device in path)
            ]
            assert conducting_paths(dpdn, assignment, output, dpdn.z) == expected, (
                dpdn.name,
                output,
                assignment,
            )


def _representative_networks(name, function):
    """The synthesize and (where the method applies) transform forms."""
    networks = [synthesize_fc_dpdn(function, name=f"{name}_synth")]
    try:
        networks.append(transform_to_fc(build_genuine_dpdn(function), name=f"{name}_transform"))
    except (NotDualError, NotSeriesParallelError):
        pass
    return networks


class TestPathSearchEquivalence:
    def test_representative_networks_before_and_after_enhancement(self, representative_function):
        name, function = representative_function
        for network in _representative_networks(name, function):
            _assert_searches_match_filtered_structural_paths(network)
            _assert_searches_match_filtered_structural_paths(enhance_fc_dpdn(network))

    def test_genuine_network(self, and2_genuine):
        _assert_searches_match_filtered_structural_paths(and2_genuine)

    def test_source_equal_to_target_has_no_paths(self, and2_fc):
        assert realizable_paths(and2_fc, "Z", "Z") == []
        assert structural_paths(and2_fc, "Z", "Z") == []

    def test_both_rail_paths_are_pruned(self):
        # X -A- n1 -~A- Z can never conduct; X -B- Z can.
        from repro.network import DifferentialPullDownNetwork, Literal

        dpdn = DifferentialPullDownNetwork("rails")
        dpdn.add_transistor(Literal("A", True), "X", "n1")
        dpdn.add_transistor(Literal("A", False), "n1", "Z")
        dpdn.add_transistor(Literal("B", True), "X", "Z")
        assert len(structural_paths(dpdn, "X", "Z")) == 2
        assert [[device.name for device in path] for path in realizable_paths(dpdn, "X", "Z")] == [
            ["M3"]
        ]

    if HAVE_HYPOTHESIS:

        @given(expression_strategy(max_leaves=5))
        @settings(
            max_examples=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        )
        def test_drawn_expressions_before_and_after_enhancement(self, expr):
            assume(not (is_tautology(expr) or is_contradiction(expr)))
            network = synthesize_fc_dpdn(expr)
            _assert_searches_match_filtered_structural_paths(network)
            _assert_searches_match_filtered_structural_paths(enhance_fc_dpdn(network))
