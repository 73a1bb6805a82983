"""Enhanced fully connected DPDNs: pass-gate insertion (Section 5).

A fully connected network guarantees constant *capacitance*, but the
*resistance* of the discharge path -- the evaluation depth, i.e. the
number of devices in series between X or Y and the common node Z -- can
still depend on the input event, and a path that is complete before all
inputs have arrived evaluates early.  Section 5 removes both effects by
inserting a *pass-gate* (a parallel pair of transistors driven by an
input and its complement, always conducting once that input pair has
arrived) into every discharge path for every input signal that does not
already control a device on that path.

The insertion is implemented in two phases:

1. **Variable completion** (the paper's literal rule): as long as some
   discharge path from X or Y to Z misses an input variable, a chain of
   pass-gates for the missing variables is spliced into that path.  The
   splice point is chosen so that paths which already contain the
   variable are not lengthened unnecessarily
   (see :func:`_choose_split_edge`).  Only *realizable* paths count as
   discharge paths: a structural path that holds both rails of some
   input never conducts, so lengthening it would only cost area.  The
   paths are listed by :func:`repro.network.analysis.realizable_paths`,
   which prunes a prefix the moment it holds both rails of a variable
   instead of listing every structural path and filtering afterwards;
   for an S-box output that is the difference between at most sixteen
   paths and about a million.
2. **Depth equalisation**: the sharing performed by the Section 4
   constructions can leave discharge paths of *different lengths even
   though each path sees every input* (the fully connected XOR network is
   the canonical example: one input event discharges through two devices,
   the other three events through three).  To deliver the paper's
   "constant resistance in the discharge path" promise in those cases,
   additional pass-gates are inserted into the short conducting paths
   until the evaluation depth is identical for every input event.  This
   phase is an extension of the paper's procedure and is called out as
   such in DESIGN.md; for gates like the AND-NAND of Fig. 6 it inserts
   nothing.

The result is validated against the paper's three promises -- unchanged
logic function, constant evaluation depth, and no early propagation -- by
:func:`repro.core.verify.verify_gate`; the enhancement benchmarks report
the area / capacitance cost the paper describes as the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..network.analysis import (
    complementary_assignments,
    graph_paths,
    path_variables,
    realizable_paths,
)
from ..network.netlist import DifferentialPullDownNetwork, Literal, Transistor

__all__ = ["EnhancementError", "PassGateInsertion", "EnhancementResult", "enhance_fc_dpdn", "enhance_fc_dpdn_with_insertions"]


class EnhancementError(RuntimeError):
    """Raised when pass-gate insertion fails to reach a complete-path network."""


@dataclass(frozen=True)
class PassGateInsertion:
    """One inserted pass-gate (two dummy devices)."""

    variable: str
    between: Tuple[str, str]
    devices: Tuple[str, str]
    path_output: str

    def describe(self) -> str:
        return (
            f"pass-gate on {self.variable} between {self.between[0]} and {self.between[1]} "
            f"(devices {self.devices[0]}/{self.devices[1]}, repairing a {self.path_output}->Z path)"
        )


@dataclass
class EnhancementResult:
    """Enhanced network plus the record of inserted pass-gates."""

    dpdn: DifferentialPullDownNetwork
    insertions: List[PassGateInsertion]

    @property
    def dummy_device_count(self) -> int:
        return 2 * len(self.insertions)

    def describe(self) -> str:
        lines = [
            f"Enhancement of {self.dpdn.name}: {len(self.insertions)} pass-gate(s), "
            f"{self.dummy_device_count} dummy device(s)"
        ]
        lines.extend(insertion.describe() for insertion in self.insertions)
        return "\n".join(lines)


def enhance_fc_dpdn(
    dpdn: DifferentialPullDownNetwork,
    name: Optional[str] = None,
    max_iterations: int = 256,
) -> DifferentialPullDownNetwork:
    """Insert pass-gates until every discharge path sees every input (Section 5)."""
    return enhance_fc_dpdn_with_insertions(dpdn, name=name, max_iterations=max_iterations).dpdn


def enhance_fc_dpdn_with_insertions(
    dpdn: DifferentialPullDownNetwork,
    name: Optional[str] = None,
    max_iterations: int = 256,
) -> EnhancementResult:
    """Like :func:`enhance_fc_dpdn` but also returns the insertion record.

    The input is normally a fully connected network (the enhancement is
    described by the paper as an addition on top of Section 4), but the
    algorithm itself only relies on the path structure and also accepts a
    genuine network.
    """
    working = dpdn.copy(name=name or f"{dpdn.name}_enhanced")
    all_variables = set(working.variables())
    insertions: List[PassGateInsertion] = []

    # Phase 1: every discharge path must contain every input variable.
    completed = False
    for _ in range(max_iterations):
        offending = _find_incomplete_path(working, all_variables)
        if offending is None:
            completed = True
            break
        output, path, missing = offending
        insertions.extend(_insert_pass_gates(working, output, path, sorted(missing)))
    if not completed:
        raise EnhancementError(
            f"pass-gate insertion did not converge within {max_iterations} iterations "
            f"for network {dpdn.name!r}"
        )

    # Phase 2: equalise the evaluation depth across input events.
    if not _equalize_depths(working, sorted(all_variables), insertions, max_iterations):
        raise EnhancementError(
            f"evaluation-depth equalisation did not converge within {max_iterations} "
            f"iterations for network {dpdn.name!r}"
        )
    return EnhancementResult(dpdn=working, insertions=insertions)


# --------------------------------------------------------------------------- internals


def _find_incomplete_path(
    dpdn: DifferentialPullDownNetwork, all_variables: Set[str]
) -> Optional[Tuple[str, List[Transistor], Set[str]]]:
    """Find a discharge path that does not contain every input variable.

    Returns ``(output_node, path, missing_variables)`` for the shortest
    offending path, or ``None`` when every path is complete.  Only
    realizable paths are considered: paths that can never conduct (they
    contain both rails of some input) are not discharge paths.
    """
    candidates: List[Tuple[int, str, List[Transistor], Set[str]]] = []
    for output in (dpdn.x, dpdn.y):
        for path in realizable_paths(dpdn, output, dpdn.z):
            missing = all_variables - path_variables(path)
            if missing:
                candidates.append((len(path), output, path, missing))
    if not candidates:
        return None
    candidates.sort(key=lambda item: item[0])
    _, output, path, missing = candidates[0]
    return output, path, missing


def _event_minimal_paths(
    dpdn: DifferentialPullDownNetwork,
) -> List[Tuple[int, str, List[Tuple[str, List[Transistor]]]]]:
    """Per-event minimal conducting discharge paths.

    Returns one entry per complementary input event:
    ``(min_depth, event_label, [(output, path), ...])`` where the list
    contains every conducting path of minimal length for that event.
    The conducting graph of each event is built once and searched from
    both outputs.
    """
    result: List[Tuple[int, str, List[Tuple[str, List[Transistor]]]]] = []
    for assignment in complementary_assignments(dpdn.variables()):
        label = ", ".join(f"{k}={int(v)}" for k, v in sorted(assignment.items()))
        best_depth: Optional[int] = None
        minimal: List[Tuple[str, List[Transistor]]] = []
        adjacency = dpdn.adjacency(assignment)
        for output in (dpdn.x, dpdn.y):
            for path in graph_paths(adjacency, output, dpdn.z):
                if best_depth is None or len(path) < best_depth:
                    best_depth = len(path)
                    minimal = [(output, path)]
                elif len(path) == best_depth:
                    minimal.append((output, path))
        if best_depth is not None:
            result.append((best_depth, label, minimal))
    return result


def _equalize_depths(
    dpdn: DifferentialPullDownNetwork,
    variables: Sequence[str],
    insertions: List[PassGateInsertion],
    max_iterations: int,
) -> bool:
    """Phase 2: pad short discharge paths until the evaluation depth is constant.

    The target depth is the largest per-event minimum.  One pass-gate is
    inserted per iteration, into an edge of a minimal path of the
    shallowest event; the edge is chosen to avoid (or minimise) pushing
    events that already sit at the target depth above it, which keeps the
    procedure from chasing its own tail.  Returns True when the depth is
    constant, False when the iteration budget runs out.
    """
    for _ in range(max_iterations):
        per_event = _event_minimal_paths(dpdn)
        if not per_event:
            return True
        target = max(depth for depth, _, _ in per_event)
        deficient = [entry for entry in per_event if entry[0] < target]
        if not deficient:
            return True
        deficient.sort(key=lambda entry: entry[0])
        depth, _, minimal_paths = deficient[0]

        at_target = [entry for entry in per_event if entry[0] == target]
        best: Optional[Tuple[int, int, str, List[Transistor], Transistor]] = None
        for output, path in minimal_paths:
            for position, device in enumerate(path):
                harmed = 0
                for _, _, other_minimal in at_target:
                    if all(
                        any(item.name == device.name for item in other_path)
                        for _, other_path in other_minimal
                    ):
                        harmed += 1
                candidate = (harmed, position, output, path, device)
                if best is None or (candidate[0], candidate[1]) < (best[0], best[1]):
                    best = candidate
        if best is None:  # pragma: no cover - defensive
            return False
        _, _, output, path, device = best
        variable = _padding_variable(path, variables)
        insertions.extend(
            _insert_pass_gates(dpdn, output, path, [variable], split_device=device)
        )
    return False


def _padding_variable(path: Sequence[Transistor], variables: Sequence[str]) -> str:
    """Input variable driving a padding pass-gate (least represented on the path)."""
    counts = {variable: 0 for variable in variables}
    for device in path:
        if device.gate.variable in counts:
            counts[device.gate.variable] += 1
    return min(variables, key=lambda variable: (counts[variable], variable))


def _choose_split_edge(
    dpdn: DifferentialPullDownNetwork,
    output: str,
    path: Sequence[Transistor],
    missing: Sequence[str],
) -> Transistor:
    """Pick the device on ``path`` whose edge the pass-gate chain is spliced into.

    Preference order:

    1. an edge whose other conducting paths (if any) also miss the same
       variables -- splicing there never lengthens an already complete
       path;
    2. the edge closest to the output terminal (the paper's Fig. 6 splices
       next to the single-device branch of the AND-NAND network).
    """
    missing_set = set(missing)
    # Device names of each realizable path that already holds every
    # missing variable: splicing into one of its devices lengthens it.
    complete_paths = [
        {item.name for item in candidate}
        for out in (dpdn.x, dpdn.y)
        for candidate in realizable_paths(dpdn, out, dpdn.z)
        if not (missing_set - path_variables(candidate))
    ]

    def penalty(device: Transistor) -> int:
        return sum(device.name in names for names in complete_paths)

    best = min(enumerate(path), key=lambda item: (penalty(item[1]), item[0]))
    return best[1]


def _insert_pass_gates(
    dpdn: DifferentialPullDownNetwork,
    output: str,
    path: Sequence[Transistor],
    missing: Sequence[str],
    split_device: Optional[Transistor] = None,
) -> List[PassGateInsertion]:
    """Splice a chain of pass-gates for ``missing`` into the chosen path edge."""
    target = split_device if split_device is not None else _choose_split_edge(dpdn, output, path, missing)

    # Orient the splice so the chain hangs off the terminal of the target
    # device that is nearer the output along the path.
    index = next(i for i, device in enumerate(path) if device.name == target.name)
    upper_node = output if index == 0 else _shared_node(path[index - 1], target)

    insertions: List[PassGateInsertion] = []
    allocator = dpdn.node_allocator()
    current = upper_node
    for variable in missing:
        new_node = allocator.fresh()
        true_device = dpdn.add_transistor(
            Literal(variable, True), drain=current, source=new_node, role="dummy"
        )
        false_device = dpdn.add_transistor(
            Literal(variable, False), drain=current, source=new_node, role="dummy"
        )
        insertions.append(
            PassGateInsertion(
                variable=variable,
                between=(current, new_node),
                devices=(true_device.name, false_device.name),
                path_output=output,
            )
        )
        current = new_node
    dpdn.move_terminal(target.name, upper_node, current)
    return insertions


def _shared_node(first: Transistor, second: Transistor) -> str:
    """The diffusion node two consecutive path devices have in common."""
    shared = set(first.terminals()) & set(second.terminals())
    if not shared:
        raise ValueError(
            f"devices {first.name} and {second.name} are not adjacent on the path"
        )
    return next(iter(shared))
