"""Topological analysis of differential pull-down networks.

Everything the paper states about a DPDN is a property of its *conducting
graph*: the graph whose edges are the transistors that conduct under a
given complementary input assignment.  This module computes

* connected components of the conducting graph,
* which nodes discharge during an evaluation phase and which float
  (:func:`discharged_nodes`, :func:`floating_internal_nodes`),
* the *fully connected* property of Section 3
  (:func:`is_fully_connected`),
* the logical function realised by each branch
  (:func:`branch_conducts`, :func:`realized_function`),
* evaluation depths -- the number of devices in series on a discharge
  path (Section 5), and
* the discharge paths themselves, for reporting and for the pass-gate
  insertion of :mod:`repro.core.enhance`.

All path listings share one backtracking depth-first search
(:func:`graph_paths`): a single ``path`` list and ``visited`` set are
extended on the way down and undone on the way back, so a prefix is never
copied until it reaches the target.  :func:`realizable_paths` runs the
same search on the structural graph with *rail pruning*: it also keeps
the rail each input variable takes on the current prefix and abandons
the prefix as soon as a device would put both rails of one variable on
it.  Such a path can never conduct (the rails of a complementary pair
are never both 1 during evaluation), so neither can any extension of it.
On a synthesized S-box output the pruning cuts the X/Y->Z search from
about a million structural paths to the sixteen or fewer that can
conduct.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..boolexpr.ast import Expr
from ..boolexpr.truthtable import assignments
from .netlist import DifferentialPullDownNetwork, Transistor

__all__ = [
    "complementary_assignments",
    "conducting_components",
    "component_of",
    "nodes_connected_to",
    "discharged_nodes",
    "floating_internal_nodes",
    "is_fully_connected",
    "full_connectivity_report",
    "ConnectivityRecord",
    "branch_conducts",
    "realized_function",
    "conducting_paths",
    "evaluation_depth",
    "evaluation_depths",
    "graph_paths",
    "path_variables",
    "realizable_paths",
    "structural_paths",
]


def complementary_assignments(variables: Sequence[str]) -> Iterator[Dict[str, bool]]:
    """All complementary input events of the gate.

    During the evaluation phase each input pair carries one 1 and one 0,
    so an event is fully described by the logical value of each variable.
    """
    yield from assignments(list(variables))


# --------------------------------------------------------------------------- connectivity


def conducting_components(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> List[Set[str]]:
    """Connected components of the conducting graph under ``assignment``."""
    adjacency = dpdn.adjacency(assignment)
    seen: Set[str] = set()
    components: List[Set[str]] = []
    for start in dpdn.nodes():
        if start in seen:
            continue
        component = _bfs(adjacency, start)
        seen |= component
        components.append(component)
    return components


def _bfs(adjacency: Mapping[str, List[Tuple[str, Transistor]]], start: str) -> Set[str]:
    component = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbour, _ in adjacency.get(node, ()):  # type: ignore[call-overload]
            if neighbour not in component:
                component.add(neighbour)
                queue.append(neighbour)
    return component


def component_of(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool], node: str
) -> Set[str]:
    """Connected component of ``node`` in the conducting graph."""
    return _bfs(dpdn.adjacency(assignment), node)


def nodes_connected_to(
    dpdn: DifferentialPullDownNetwork,
    assignment: Mapping[str, bool],
    targets: Iterable[str],
) -> Set[str]:
    """All nodes connected (through conducting devices) to any of ``targets``."""
    adjacency = dpdn.adjacency(assignment)
    result: Set[str] = set()
    for target in targets:
        if target in result:
            continue
        result |= _bfs(adjacency, target)
    return result


def discharged_nodes(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> Set[str]:
    """Nodes of the DPDN that discharge during the evaluation phase.

    During evaluation the common node ``Z`` is pulled to ground by the
    clocked foot transistor, and the two module outputs ``X`` and ``Y``
    are connected to each other by the always-on (during evaluation)
    transistor M1 of the SABL gate, so both of them discharge regardless
    of which branch conducts.  Every DPDN node connected through a
    conducting device to ``X``, ``Y`` or ``Z`` therefore discharges as
    well; the remaining internal nodes float and keep their charge -- the
    memory effect.
    """
    connected = nodes_connected_to(dpdn, assignment, (dpdn.x, dpdn.y, dpdn.z))
    connected.update((dpdn.x, dpdn.y, dpdn.z))
    return connected


def floating_internal_nodes(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> Set[str]:
    """Internal nodes left floating (not discharged) under ``assignment``."""
    discharged = discharged_nodes(dpdn, assignment)
    return {node for node in dpdn.internal_nodes() if node not in discharged}


@dataclass(frozen=True)
class ConnectivityRecord:
    """Connectivity of the internal nodes for one input event."""

    assignment: Tuple[Tuple[str, bool], ...]
    discharged: FrozenSet[str]
    floating: FrozenSet[str]

    @property
    def is_fully_connected(self) -> bool:
        """True when no internal node floats for this event."""
        return not self.floating

    def assignment_dict(self) -> Dict[str, bool]:
        return dict(self.assignment)


def full_connectivity_report(
    dpdn: DifferentialPullDownNetwork,
) -> List[ConnectivityRecord]:
    """Per-event connectivity of the internal nodes, for every input event."""
    variables = dpdn.variables()
    internal = set(dpdn.internal_nodes())
    records: List[ConnectivityRecord] = []
    for assignment in complementary_assignments(variables):
        discharged = discharged_nodes(dpdn, assignment)
        floating = frozenset(internal - discharged)
        records.append(
            ConnectivityRecord(
                assignment=tuple(sorted(assignment.items())),
                discharged=frozenset(discharged & (internal | set(dpdn.external_nodes))),
                floating=floating,
            )
        )
    return records


def is_fully_connected(dpdn: DifferentialPullDownNetwork) -> bool:
    """The paper's defining property (Section 3).

    A DPDN is *fully connected* when, for every complementary input
    combination, every internal node of the network is connected through
    conducting devices to one of the external nodes -- and therefore
    discharges every evaluation phase.
    """
    variables = dpdn.variables()
    internal = set(dpdn.internal_nodes())
    if not internal:
        return True
    for assignment in complementary_assignments(variables):
        if internal - discharged_nodes(dpdn, assignment):
            return False
    return True


# --------------------------------------------------------------------------- function


def branch_conducts(
    dpdn: DifferentialPullDownNetwork,
    assignment: Mapping[str, bool],
    output: Optional[str] = None,
) -> bool:
    """True when ``output`` (default X) has a conducting path to ``Z``."""
    source = dpdn.x if output is None else output
    return dpdn.z in component_of(dpdn, assignment, source)


def realized_function(
    dpdn: DifferentialPullDownNetwork,
) -> Dict[Tuple[Tuple[str, bool], ...], Tuple[bool, bool]]:
    """Map each input event to ``(X conducts to Z, Y conducts to Z)``.

    A correct differential network has exactly one of the two true for
    every event, with the X column equal to the gate function.
    """
    result: Dict[Tuple[Tuple[str, bool], ...], Tuple[bool, bool]] = {}
    for assignment in complementary_assignments(dpdn.variables()):
        x_on = branch_conducts(dpdn, assignment, dpdn.x)
        y_on = branch_conducts(dpdn, assignment, dpdn.y)
        result[tuple(sorted(assignment.items()))] = (x_on, y_on)
    return result


# --------------------------------------------------------------------------- paths / depth


def conducting_paths(
    dpdn: DifferentialPullDownNetwork,
    assignment: Mapping[str, bool],
    source: str,
    target: str,
) -> List[List[Transistor]]:
    """All simple paths of conducting devices between two nodes."""
    return graph_paths(dpdn.adjacency(assignment), source, target)


def structural_paths(
    dpdn: DifferentialPullDownNetwork, source: str, target: str
) -> List[List[Transistor]]:
    """All simple device paths between two nodes, ignoring gate values."""
    return graph_paths(dpdn.adjacency(None), source, target)


def realizable_paths(
    dpdn: DifferentialPullDownNetwork, source: str, target: str
) -> List[List[Transistor]]:
    """Simple device paths that conduct under some complementary input event.

    These are the structural paths that never hold both rails of one
    input variable, listed in the order :func:`structural_paths` lists
    them; a prefix holding both rails is pruned before it is extended.
    """
    return _search_paths(dpdn.adjacency(None), source, target, prune_rails=True)


def graph_paths(
    adjacency: Mapping[str, List[Tuple[str, Transistor]]], source: str, target: str
) -> List[List[Transistor]]:
    """All simple paths between two nodes of a prebuilt adjacency map.

    Lets a caller that needs several searches of one conducting graph
    (for instance from both X and Y) build the adjacency once.
    """
    return _search_paths(adjacency, source, target, prune_rails=False)


def _search_paths(
    adjacency: Mapping[str, List[Tuple[str, Transistor]]],
    source: str,
    target: str,
    prune_rails: bool,
) -> List[List[Transistor]]:
    """Backtracking depth-first search for simple ``source``-``target`` paths.

    Paths come out in depth-first order of the adjacency lists.  With
    ``prune_rails`` a device whose gate is the opposite rail of a variable
    already on the prefix is skipped, together with every path through it.
    """
    paths: List[List[Transistor]] = []
    if source == target:
        return paths
    path: List[Transistor] = []
    visited = {source}
    # Rail of each variable on the current prefix, and per step the
    # (node, variable whose rail the step fixed first) to undo on return.
    rails: Dict[str, bool] = {}
    steps: List[Tuple[str, Optional[str]]] = []
    frames = [iter(adjacency.get(source, ()))]  # type: ignore[call-overload]
    while frames:
        for neighbour, transistor in frames[-1]:
            claimed: Optional[str] = None
            if prune_rails:
                gate = transistor.gate
                rail = rails.get(gate.variable)
                if rail is None:
                    claimed = gate.variable
                elif rail != gate.positive:
                    continue
            if neighbour == target:
                paths.append(path + [transistor])
            elif neighbour not in visited:
                visited.add(neighbour)
                path.append(transistor)
                if claimed is not None:
                    rails[claimed] = transistor.gate.positive
                steps.append((neighbour, claimed))
                frames.append(iter(adjacency.get(neighbour, ())))  # type: ignore[call-overload]
                break
        else:
            frames.pop()
            if steps:
                node, claimed = steps.pop()
                visited.discard(node)
                path.pop()
                if claimed is not None:
                    del rails[claimed]
    return paths


def path_variables(path: Sequence[Transistor]) -> Set[str]:
    """Input variables controlling the devices of a path."""
    return {transistor.gate.variable for transistor in path}


def evaluation_depth(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> Optional[int]:
    """Evaluation depth of the discharge event under ``assignment``.

    Following Section 5, the evaluation depth is the number of transistors
    in series between the conducting module output (X or Y) and the common
    node Z; when several conducting paths exist the shortest one dominates
    the discharge and is reported.  Returns ``None`` when neither branch
    conducts (a malformed network).
    """
    adjacency = dpdn.adjacency(assignment)
    depths = [
        len(path)
        for output in (dpdn.x, dpdn.y)
        for path in graph_paths(adjacency, output, dpdn.z)
    ]
    if not depths:
        return None
    return min(depths)


def evaluation_depths(dpdn: DifferentialPullDownNetwork) -> Dict[Tuple[Tuple[str, bool], ...], Optional[int]]:
    """Evaluation depth for every complementary input event."""
    result: Dict[Tuple[Tuple[str, bool], ...], Optional[int]] = {}
    for assignment in complementary_assignments(dpdn.variables()):
        result[tuple(sorted(assignment.items()))] = evaluation_depth(dpdn, assignment)
    return result
