"""Verification of differential pull-down networks.

Every property the paper claims for its networks is checkable on the
switch-level model, and this module is where those checks live:

* **differential correctness** -- for every complementary input event the
  X branch conducts to Z exactly when the gate function is 1, the Y
  branch exactly when it is 0, and never both
  (:func:`check_differential_function`);
* **full connectivity** (Section 3) -- no internal node ever floats
  (:func:`check_fully_connected`), equivalently the gate is free of the
  memory effect;
* **constant evaluation depth** (Section 5) -- the number of devices in
  series on the discharge path is the same for every input event
  (:func:`check_constant_evaluation_depth`);
* **no early propagation** (Section 5) -- no discharge path conducts
  while any differential input pair is still in its precharge (0, 0)
  state (:func:`check_no_early_propagation`);
* **device-count preservation** -- the Section 4.1/4.2 constructions use
  exactly as many transistors as the genuine network
  (:func:`check_device_count_preserved`).

:func:`verify_gate` bundles the checks into a single report used by the
cell-library generator and the benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..boolexpr.ast import Expr
from ..boolexpr.truthtable import assignments
from ..network.analysis import (
    branch_conducts,
    complementary_assignments,
    discharged_nodes,
    evaluation_depth,
    floating_internal_nodes,
)
from ..network.netlist import DifferentialPullDownNetwork

__all__ = [
    "VerificationError",
    "CheckResult",
    "GateReport",
    "check_differential_function",
    "check_fully_connected",
    "check_memory_effect_free",
    "check_constant_evaluation_depth",
    "check_no_early_propagation",
    "check_device_count_preserved",
    "verify_gate",
    "assert_valid_fc_gate",
]


class VerificationError(AssertionError):
    """Raised by the ``assert_*`` helpers when a check fails."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single check."""

    name: str
    passed: bool
    details: str = ""
    counterexamples: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class GateReport:
    """Aggregate verification report for one DPDN."""

    dpdn_name: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(self, name: str) -> CheckResult:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(f"no check named {name!r}")

    def describe(self) -> str:
        lines = [f"Verification report for {self.dpdn_name}"]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{status}] {check.name}: {check.details}")
            for counterexample in check.counterexamples:
                lines.append(f"          counterexample: {counterexample}")
        return "\n".join(lines)


def _format_assignment(assignment: Mapping[str, bool]) -> str:
    return ", ".join(f"{name}={int(value)}" for name, value in sorted(assignment.items()))


# --------------------------------------------------------------------------- checks


def check_differential_function(
    dpdn: DifferentialPullDownNetwork, expected: Optional[Expr] = None
) -> CheckResult:
    """Check the branch functions against the intended gate function.

    ``expected`` defaults to ``dpdn.function``.  With no expected function
    available the check only verifies differential consistency (exactly
    one branch conducts for every event).
    """
    expected = expected if expected is not None else dpdn.function
    counterexamples: List[str] = []
    for assignment in complementary_assignments(dpdn.variables()):
        x_on = branch_conducts(dpdn, assignment, dpdn.x)
        y_on = branch_conducts(dpdn, assignment, dpdn.y)
        if x_on == y_on:
            kind = "both branches conduct" if x_on else "neither branch conducts"
            counterexamples.append(f"{_format_assignment(assignment)}: {kind}")
            continue
        if expected is not None and x_on != bool(expected.evaluate(assignment)):
            counterexamples.append(
                f"{_format_assignment(assignment)}: X branch conducts={x_on}, "
                f"function value={int(expected.evaluate(assignment))}"
            )
    passed = not counterexamples
    details = (
        "branch conduction matches the gate function for every complementary input"
        if passed
        else f"{len(counterexamples)} input event(s) disagree with the gate function"
    )
    return CheckResult(
        name="differential_function",
        passed=passed,
        details=details,
        counterexamples=tuple(counterexamples[:8]),
    )


def check_fully_connected(dpdn: DifferentialPullDownNetwork) -> CheckResult:
    """The paper's Section 3 property: no internal node ever floats."""
    counterexamples: List[str] = []
    for assignment in complementary_assignments(dpdn.variables()):
        floating = floating_internal_nodes(dpdn, assignment)
        if floating:
            counterexamples.append(
                f"{_format_assignment(assignment)}: floating node(s) {sorted(floating)}"
            )
    passed = not counterexamples
    details = (
        "every internal node connects to an external node for every input event"
        if passed
        else f"{len(counterexamples)} input event(s) leave internal nodes floating"
    )
    return CheckResult(
        name="fully_connected",
        passed=passed,
        details=details,
        counterexamples=tuple(counterexamples[:8]),
    )


def check_memory_effect_free(dpdn: DifferentialPullDownNetwork) -> CheckResult:
    """Absence of the memory effect.

    The memory effect of Section 2 is precisely the existence of an
    internal node whose discharge depends on the input event, so the
    check reuses the full-connectivity analysis but reports it in terms
    of per-node behaviour: a node that discharges for some events and
    floats for others carries state between cycles.
    """
    # One conducting-graph search per event, shared by every node.
    discharged_by_event = [
        (_format_assignment(assignment), discharged_nodes(dpdn, assignment))
        for assignment in complementary_assignments(dpdn.variables())
    ]
    stateful: List[str] = []
    for node in dpdn.internal_nodes():
        behaviour = {event: node in discharged for event, discharged in discharged_by_event}
        values = set(behaviour.values())
        if len(values) > 1:
            keeps = [event for event, discharged in behaviour.items() if not discharged]
            stateful.append(f"node {node} keeps its charge for: {keeps}")
    passed = not stateful
    details = (
        "every internal node discharges in every evaluation phase"
        if passed
        else f"{len(stateful)} internal node(s) behave differently across input events"
    )
    return CheckResult(
        name="memory_effect_free",
        passed=passed,
        details=details,
        counterexamples=tuple(stateful[:8]),
    )


def check_constant_evaluation_depth(dpdn: DifferentialPullDownNetwork) -> CheckResult:
    """Section 5 property: the discharge path length is input independent."""
    depths: Dict[str, Optional[int]] = {}
    for assignment in complementary_assignments(dpdn.variables()):
        depths[_format_assignment(assignment)] = evaluation_depth(dpdn, assignment)
    observed = set(depths.values())
    passed = len(observed) == 1 and None not in observed
    if passed:
        details = f"evaluation depth is {observed.pop()} for every input event"
        counterexamples: Tuple[str, ...] = ()
    else:
        details = f"evaluation depth varies across input events: {sorted(str(d) for d in observed)}"
        counterexamples = tuple(
            f"{event}: depth={depth}" for event, depth in sorted(depths.items())
        )[:8]
    return CheckResult(
        name="constant_evaluation_depth",
        passed=passed,
        details=details,
        counterexamples=counterexamples,
    )


def check_no_early_propagation(dpdn: DifferentialPullDownNetwork) -> CheckResult:
    """Section 5 property: no branch conducts before all inputs arrived.

    During the precharge-to-evaluation transition the differential input
    pairs arrive one after another; a pair that has not switched yet is
    still in its (0, 0) precharge state.  The check enumerates every
    partial arrival pattern (each input either still at (0, 0) or already
    complementary with either polarity) and flags any pattern with an
    incomplete set of arrived inputs in which X or Y already has a
    conducting path to Z -- that is exactly the early ("anticipated")
    evaluation the enhanced network of Section 5 eliminates.
    """
    variables = dpdn.variables()
    counterexamples: List[str] = []
    for pattern in itertools.product((None, False, True), repeat=len(variables)):
        arrived = {
            name: value for name, value in zip(variables, pattern) if value is not None
        }
        if len(arrived) == len(variables):
            continue  # complete input: conduction is expected, not early
        if _conducts_with_partial_inputs(dpdn, arrived):
            missing = [name for name in variables if name not in arrived]
            counterexamples.append(
                f"arrived inputs {{{_format_assignment(arrived) or ''}}} already discharge "
                f"the gate while {missing} are still precharged"
            )
    passed = not counterexamples
    details = (
        "no discharge path conducts until every differential input pair has arrived"
        if passed
        else f"{len(counterexamples)} partial-input pattern(s) evaluate early"
    )
    return CheckResult(
        name="no_early_propagation",
        passed=passed,
        details=details,
        counterexamples=tuple(counterexamples[:8]),
    )


def _conducts_with_partial_inputs(
    dpdn: DifferentialPullDownNetwork, arrived: Mapping[str, bool]
) -> bool:
    """True when X or Y reaches Z with only ``arrived`` inputs complementary."""
    adjacency: Dict[str, List[str]] = {node: [] for node in dpdn.nodes()}
    for transistor in dpdn.transistors:
        variable = transistor.gate.variable
        if variable not in arrived:
            continue  # both rails still 0 -> device off
        if transistor.gate.evaluate(arrived):
            adjacency[transistor.drain].append(transistor.source)
            adjacency[transistor.source].append(transistor.drain)
    for start in (dpdn.x, dpdn.y):
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == dpdn.z:
                return True
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
    return False


def check_device_count_preserved(
    reference: DifferentialPullDownNetwork, candidate: DifferentialPullDownNetwork
) -> CheckResult:
    """Check the Section 4.2 claim that the transformation keeps the device count."""
    passed = reference.device_count() == candidate.device_count()
    details = (
        f"both networks use {reference.device_count()} transistors"
        if passed
        else f"{reference.name} uses {reference.device_count()} devices but "
        f"{candidate.name} uses {candidate.device_count()}"
    )
    return CheckResult(name="device_count_preserved", passed=passed, details=details)


# --------------------------------------------------------------------------- aggregate


def verify_gate(
    dpdn: DifferentialPullDownNetwork,
    expected: Optional[Expr] = None,
    require_fully_connected: bool = True,
    require_constant_depth: bool = False,
    require_no_early_propagation: bool = False,
) -> GateReport:
    """Run the standard battery of checks on a DPDN.

    The functional check always runs; the structural requirements depend
    on what the network claims to be (a genuine network is expected to
    fail the full-connectivity check, an enhanced network is expected to
    also pass the depth and early-propagation checks).
    """
    report = GateReport(dpdn_name=dpdn.name)
    report.checks.append(check_differential_function(dpdn, expected))
    if require_fully_connected:
        report.checks.append(check_fully_connected(dpdn))
        report.checks.append(check_memory_effect_free(dpdn))
    if require_constant_depth:
        report.checks.append(check_constant_evaluation_depth(dpdn))
    if require_no_early_propagation:
        report.checks.append(check_no_early_propagation(dpdn))
    return report


def assert_valid_fc_gate(
    dpdn: DifferentialPullDownNetwork, expected: Optional[Expr] = None
) -> None:
    """Raise :class:`VerificationError` unless the network is a correct FC gate."""
    report = verify_gate(dpdn, expected, require_fully_connected=True)
    if not report.passed:
        raise VerificationError(report.describe())
