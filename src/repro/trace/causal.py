"""Causal DAG over the structured trace journal.

The journal carries the cause, not the wire.  Each handler runs under the
context of the message (or execution) that invoked it; a receiver names
that context from the sender site and ``seq`` every envelope carries
anyway, and the sender journals its own context as the ``cause`` of each
``msg_send``/``msg_local``.  No :class:`SDMessage` carries a causal stamp,
so an envelope is the same bytes with tracing on or off.  The journal's
``msg_send``/``msg_local``/``exec_begin`` events therefore encode a
cross-site DAG: *this send happened because that message arrived*, *this
execution ran because that result applied its last parameter*.

This module turns the journal back into that graph.  Node ids pack into
single ints so they are cheap to journal and byte-identical across
repeated deterministic sim runs:

* message node — ``MSG_TAG | sender_site << 44 | seq`` (a site's sequence
  numbers are unique, so sender+seq names one physical message);
* execution node — ``EXEC_TAG | frame_id.pack()`` (a microframe is
  consumed by its execution, so the frame address names it).

``cause = -1`` marks a chain root: the frontend submit, a timer-driven
retry, or any event whose trigger crossed an async boundary the stamps
deliberately do not bridge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.trace.tracer import Tracer, TracerEvent

#: help-protocol message types: their transit on a critical path means
#: the work itself travelled by stealing, not ordinary dataflow
_STEAL_LABELS = frozenset({"HELP_REQUEST", "HELP_REPLY"})
#: load-view maintenance traffic — rarely on the path, but when a
#: LOAD_REPORT triggers the steal that moved the work it should say so
_GOSSIP_LABELS = frozenset({"LOAD_REPORT", "HEARTBEAT", "CLUSTER_INFO"})

#: tag bits keeping message and execution node ids disjoint
MSG_TAG = 1 << 62
EXEC_TAG = 2 << 62
_SITE_SHIFT = 44


def msg_node(site: int, seq: int) -> int:
    """Packed node id for message ``seq`` sent by ``site``."""
    return MSG_TAG | (site << _SITE_SHIFT) | seq


def exec_node(packed_frame: int) -> int:
    """Packed node id for the execution of frame ``packed_frame``."""
    return EXEC_TAG | packed_frame


class CausalNode:
    """One DAG node: a message in flight or a microframe execution."""

    __slots__ = ("node_id", "kind", "site", "start", "end", "cause",
                 "label", "dst", "work", "nbytes", "local")

    def __init__(self, node_id: int, kind: str, site: int, start: float,
                 cause: int, label: str) -> None:
        self.node_id = node_id
        self.kind = kind            # "msg" | "exec"
        self.site = site            # sender / executing site
        self.start = start          # send time / exec_begin time
        self.end = start            # recv time / exec_end time
        self.cause = cause          # causal parent node id, -1 = root
        self.label = label          # message type name / thread name
        self.dst = site             # receiving site (msg nodes)
        self.work = 0.0             # charged work (exec nodes)
        self.nbytes = 0             # wire bytes (remote msg nodes)
        self.local = False          # loopback message

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"CausalNode({self.kind} {self.label} s{self.site} "
                f"[{self.start:.6f},{self.end:.6f}])")


class CausalGraph:
    """The journal's cross-site causal DAG, indexed by packed node id."""

    def __init__(self) -> None:
        self.nodes: Dict[int, CausalNode] = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "CausalGraph":
        return cls.from_events(tracer.events)

    @classmethod
    def from_events(cls, events: List[TracerEvent]) -> "CausalGraph":
        graph = cls()
        nodes = graph.nodes
        #: recv timestamps seen before their send (ts ties sort by site)
        early_recv: Dict[Tuple[int, int], float] = {}
        for event in events:
            kind = event.kind
            if kind == "msg_send":
                mtype, dst, nbytes, seq, cause = event.fields
                if event.site < 0 or seq < 0:
                    continue  # pre-sign-on traffic has no site identity
                node = CausalNode(msg_node(event.site, seq), "msg",
                                  event.site, event.ts, cause, str(mtype))
                node.dst = dst
                node.nbytes = nbytes
                nodes[node.node_id] = node
                held = early_recv.pop((event.site, seq), None)
                if held is not None:
                    node.end = held
            elif kind == "msg_recv":
                _mtype, src, _nbytes, seq = event.fields
                if src < 0 or seq < 0:
                    continue
                node = nodes.get(msg_node(src, seq))
                if node is not None:
                    node.end = event.ts
                else:
                    early_recv[(src, seq)] = event.ts
            elif kind == "msg_local":
                mtype, seq, cause = event.fields
                if event.site < 0 or seq < 0:
                    continue
                node = CausalNode(msg_node(event.site, seq), "msg",
                                  event.site, event.ts, cause, str(mtype))
                node.local = True
                nodes[node.node_id] = node
            elif kind == "exec_begin":
                frame, thread, cause = event.fields
                node = CausalNode(exec_node(frame), "exec", event.site,
                                  event.ts, cause, str(thread))
                nodes[node.node_id] = node
            elif kind == "exec_end":
                frame, work = event.fields
                node = nodes.get(exec_node(frame))
                if node is not None and node.site == event.site:
                    node.end = event.ts
                    node.work = work
        return graph

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self.nodes)

    def chain(self, node_id: int) -> List[CausalNode]:
        """Causal ancestry of ``node_id``, root first."""
        out: List[CausalNode] = []
        seen = set()
        current = self.nodes.get(node_id)
        while current is not None and current.node_id not in seen:
            seen.add(current.node_id)
            out.append(current)
            current = self.nodes.get(current.cause)
        out.reverse()
        return out

    def terminal(self) -> Optional[CausalNode]:
        """The node that completed last — the run's finishing event."""
        best = None
        for node in self.nodes.values():
            if best is None or (node.end, node.node_id) > (best.end,
                                                           best.node_id):
                best = node
        return best

    # ------------------------------------------------------------------
    # span assembly

    def critical_path(self) -> List[dict]:
        """Categorized end-to-end segments of the chain ending at the
        last-completing node.

        Categories: ``compute`` (an execution's span), ``message-latency``
        (a remote dataflow message's transit), ``steal-transfer`` (a
        help-protocol message — a HELP_REQUEST, or a HELP_REPLY, grant or
        refusal — on the path: work arrived here by being stolen), ``gossip`` (a
        load-report/heartbeat message on the path), ``sched-wait`` (gap
        between a cause completing and the dependent execution starting —
        queueing, code fetch, steal transport), ``handler`` (gap between
        a cause completing and the dependent message leaving).
        """
        term = self.terminal()
        if term is None:
            return []
        segments: List[dict] = []
        prev_end: Optional[float] = None
        for node in self.chain(term.node_id):
            if prev_end is not None and node.start > prev_end:
                segments.append({
                    "category": ("sched-wait" if node.kind == "exec"
                                 else "handler"),
                    "start": prev_end, "end": node.start,
                    "site": node.site, "label": node.label,
                })
            if node.kind == "exec":
                segments.append({
                    "category": "compute",
                    "start": node.start, "end": node.end,
                    "site": node.site, "label": node.label,
                })
            elif not node.local and node.end > node.start:
                if node.label in _STEAL_LABELS:
                    category = "steal-transfer"
                elif node.label in _GOSSIP_LABELS:
                    category = "gossip"
                else:
                    category = "message-latency"
                segments.append({
                    "category": category,
                    "start": node.start, "end": node.end,
                    "site": node.site, "label": node.label,
                    "dst": node.dst,
                })
            prev_end = max(node.end, prev_end or node.end)
        return segments

    def __repr__(self) -> str:
        return f"CausalGraph({len(self.nodes)} nodes)"
