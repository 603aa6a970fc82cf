"""Scheduling hints derived from the CDAG (paper §3.3).

"These may include the priority of a microframe or hints about the local
execution order.  Scheduling hints may even be given by the programmer."

:func:`derive_hints` computes a per-microthread (priority, critical) pair;
applications can consult a :class:`HintPolicy` inside their microthreads
indirectly by baking the hints into ``create_frame`` calls, or — more
conveniently — the benchmarks use it to compare hinted vs. unhinted runs
(experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cdag.graph import CDAG
from repro.core.program import SDVMProgram


@dataclass(frozen=True, slots=True)
class HintPolicy:
    """Hints for every microthread of one program: name -> (priority,
    critical)."""

    hints: Dict[str, Tuple[float, bool]]

    def priority_of(self, name: str) -> float:
        return self.hints.get(name, (0.0, False))[0]

    def is_critical(self, name: str) -> bool:
        return self.hints.get(name, (0.0, False))[1]


#: share of the largest downstream work a critical-path node needs to be
#: flagged critical
CRITICAL_THRESHOLD = 0.95


def derive_hints(program: SDVMProgram) -> HintPolicy:
    """Analyze ``program`` and derive scheduling hints.

    Priority is the node's downstream work normalized to [0, 100]; nodes on
    the critical path whose downstream work is within ``CRITICAL_THRESHOLD``
    of the maximum are flagged critical (they get the express overcommit
    slot in the processing manager).
    """
    cdag = CDAG.from_program(program)
    max_down = max((n.downstream_work for n in cdag.nodes.values()),
                   default=1.0) or 1.0
    hints: Dict[str, Tuple[float, bool]] = {}
    for name, node in cdag.nodes.items():
        priority = 100.0 * node.downstream_work / max_down
        critical = (node.on_critical_path
                    and node.downstream_work
                    >= CRITICAL_THRESHOLD * max_down
                    # a pure leaf is never "the" critical path driver
                    and node.fan_out > 0)
        hints[name] = (priority, critical)
    return HintPolicy(hints=hints)
