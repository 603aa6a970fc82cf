"""CDAG construction and analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import ProgramError
from repro.core.program import SDVMProgram


@dataclass(slots=True)
class CDAGNode:
    """One microthread kind in the graph."""

    name: str
    thread_id: int
    work: float
    #: microthreads this one allocates frames for (controlflow/allocation edges)
    creates: Tuple[str, ...]
    #: longest-path-to-sink in work units (computed)
    downstream_work: float = 0.0
    #: True if this node lies on a maximum-work path (computed)
    on_critical_path: bool = False
    fan_out: int = 0
    fan_in: int = 0


class CDAG:
    """The controlflow-dataflow-allocation graph of one program.

    Edges follow the ``creates`` declarations; cycles (loops of unknown
    length, §3.2) are handled by collapsing strongly connected components
    for the longest-path computation, so a self-recursive collector still
    gets a finite priority.
    """

    def __init__(self, nodes: Dict[str, CDAGNode], entry: str) -> None:
        self.nodes = nodes
        self.entry = entry
        self._analyze()

    @classmethod
    def from_program(cls, program: SDVMProgram) -> "CDAG":
        nodes = {
            name: CDAGNode(
                name=name,
                thread_id=src.thread_id,
                work=max(src.work_hint, 1.0),
                creates=tuple(src.creates),
            )
            for name, src in program.threads.items()
        }
        for node in nodes.values():
            for target in node.creates:
                if target not in nodes:
                    raise ProgramError(
                        f"CDAG edge {node.name} -> {target!r} has no node")
        return cls(nodes, program.entry)

    # ------------------------------------------------------------------
    def _successors(self, name: str) -> Tuple[str, ...]:
        return self.nodes[name].creates

    def _tarjan_sccs(self) -> List[List[str]]:
        """Strongly connected components (iterative Tarjan)."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        for root in self.nodes:
            if root in index:
                continue
            work_stack: List[Tuple[str, int]] = [(root, 0)]
            while work_stack:
                node, child_index = work_stack[-1]
                if child_index == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                successors = self._successors(node)
                advanced = False
                while child_index < len(successors):
                    child = successors[child_index]
                    child_index += 1
                    if child not in index:
                        work_stack[-1] = (node, child_index)
                        work_stack.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work_stack.pop()
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(component)
                if work_stack:
                    parent = work_stack[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return sccs

    def _analyze(self) -> None:
        # fan in/out
        for node in self.nodes.values():
            node.fan_out = len(node.creates)
        for node in self.nodes.values():
            for target in node.creates:
                self.nodes[target].fan_in += 1

        # condense cycles, then longest path to a sink on the DAG of SCCs
        sccs = self._tarjan_sccs()
        component_of: Dict[str, int] = {}
        for i, component in enumerate(sccs):
            for name in component:
                component_of[name] = i
        comp_work = [sum(self.nodes[n].work for n in component)
                     for component in sccs]
        comp_succ: List[Set[int]] = [set() for _ in sccs]
        for name, node in self.nodes.items():
            for target in node.creates:
                a, b = component_of[name], component_of[target]
                if a != b:
                    comp_succ[a].add(b)

        # Tarjan emits SCCs in reverse topological order: successors first
        comp_down = [0.0] * len(sccs)
        for i in range(len(sccs)):
            best = 0.0
            for succ in comp_succ[i]:
                best = max(best, comp_down[succ])
            comp_down[i] = comp_work[i] + best

        for name, node in self.nodes.items():
            node.downstream_work = comp_down[component_of[name]]

        # critical path: greedy walk from the entry along max downstream work
        critical: Set[int] = set()
        current = component_of.get(self.entry)
        while current is not None:
            critical.add(current)
            nxt = None
            best = -1.0
            for succ in comp_succ[current]:
                if comp_down[succ] > best:
                    best = comp_down[succ]
                    nxt = succ
            current = nxt
        for name, node in self.nodes.items():
            node.on_critical_path = component_of[name] in critical

    # ------------------------------------------------------------------
    def node(self, name: str) -> CDAGNode:
        node = self.nodes.get(name)
        if node is None:
            raise ProgramError(f"no CDAG node {name!r}")
        return node

    def critical_path(self) -> List[str]:
        """Node names on the critical path, ordered by downstream work."""
        return sorted((n.name for n in self.nodes.values()
                       if n.on_critical_path),
                      key=lambda name: -self.nodes[name].downstream_work)
