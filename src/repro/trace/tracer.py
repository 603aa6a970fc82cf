"""The structured event journal every manager reports into.

One :class:`Tracer` is shared by every site of a cluster run (sim or live).
Managers emit *typed* events — the schema in :data:`EVENT_FIELDS` names the
positional fields of each kind — and the exporters under
:mod:`repro.trace.chrome` and :mod:`repro.trace.aggregate` consume them.

Design constraints (see DESIGN.md, "Observability"):

* **Zero cost when disabled.**  The tracer is ``None`` unless
  ``SDVMConfig(trace=True)``; every call site guards with
  ``tr = self.tracer`` / ``if tr is not None`` so the disabled hot path is a
  single attribute read — no dict or tuple is ever built.
* **Pure observation.**  :meth:`Tracer.emit` only appends to a list; it
  never touches the simulator, timers, or any RNG, so enabling tracing
  cannot perturb sim determinism (covered by a test).
* **Kernel-agnostic.**  Timestamps are whatever ``kernel.now`` yields:
  virtual seconds under the sim kernel, ``time.monotonic()`` under the live
  kernel.  ``list.append`` is atomic under CPython, so the live kernels'
  reactor threads may share one tracer without a lock.

The journal is also the flight recorder.  When a site crashes, an SDC
mismatch is detected or the chaos invariants fail, :meth:`Tracer.freeze`
cuts that site's last :data:`FLIGHT_DEPTH` events out of the journal at
that instant, so a postmortem has the lead-up without re-running.  A
freeze only reads the journal: chaos fingerprints never see it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.errors import SDVMError

#: how many of a site's most recent events a flight dump keeps
FLIGHT_DEPTH = 256

#: event kind -> positional field names (the schema).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # frame lifecycle (scheduling + processing managers).  ``cause`` is the
    # packed causal node id of whatever made the frame executable (see
    # :mod:`repro.trace.causal`); ``origin`` is the site where that causal
    # chain was rooted.  -1 = chain root (e.g. the frontend submit).
    "frame_enqueued": ("frame", "program"),
    "exec_begin": ("frame", "thread", "cause", "origin"),
    "exec_end": ("frame", "work"),
    # work stealing (scheduling manager)
    "help_request": ("target",),
    "steal_out": ("thief", "frame"),
    "steal_in": ("victim", "frame"),
    "cant_help": ("requester",),
    "help_forward": ("thief", "target"),
    "push_out": ("target", "frame"),
    # code distribution (code manager)
    "code_hit": ("program", "thread"),
    "code_fetch": ("program", "thread", "home"),
    "code_fetch_done": ("program", "thread", "ok"),
    "code_compile": ("program", "thread", "seconds"),
    # checkpoint waves + recovery (crash manager)
    "wave_begin": ("wave", "sites"),
    "wave_commit": ("wave", "sites"),
    "wave_abort": ("wave", "reason"),
    "recovery_begin": ("epoch", "dead"),
    "recovery_done": ("epoch",),
    # fault injection (repro.chaos) — site is -1 (cluster-level event)
    "chaos_fault": ("fault", "detail"),
    # silent-data-corruption defense (processing manager).  ``sdc_mismatch``
    # fires when a replicated execution and its shadow disagree (``buddy``
    # is the shadow's site); ``sdc_resolved`` names the tie-break winner;
    # ``sdc_tainted_commit`` is the injector's ground-truth marker that a
    # corrupted effect list dispatched (the no-corrupted-commit invariant
    # audits for it)
    "sdc_mismatch": ("frame", "buddy"),
    "sdc_resolved": ("frame", "winner"),
    "sdc_tainted_commit": ("frame",),
    # online health detectors (repro.trace.health) — ``site`` is the
    # offending site; ``detector`` is one of health.DETECTORS
    "health": ("detector", "detail"),
    # messaging (message manager).  ``seq`` + the sender site identify one
    # physical message on both ends; ``cause``/``origin`` carry the causal
    # stamp assigned at send time.  Loopback (same-site) deliveries emit
    # "msg_local" instead of a send/recv pair so network counters stay pure.
    "msg_send": ("msg_type", "dst", "nbytes", "seq", "cause", "origin"),
    "msg_recv": ("msg_type", "src", "nbytes", "seq"),
    "msg_local": ("msg_type", "seq", "cause", "origin"),
    # membership + power (cluster + site managers)
    "site_join": ("logical",),
    "site_leave": ("leaver", "heir"),
    "site_dead": ("logical",),
    "sign_off": ("heir",),
    "site_sleep": (),
    "site_wake": (),
    # attraction memory
    "mem_migrated": ("addr", "owner"),
    "frame_adopted": ("frame", "src"),
    # program lifecycle (program manager)
    "program_register": ("program",),
    "program_exit": ("program", "failed"),
    # I/O manager
    "io_output": ("program",),
    "file_open": ("path", "mode"),
    # security manager
    "key_exchange": ("peer", "phase"),
}


class TracerEvent(NamedTuple):
    """One structured journal entry."""

    ts: float
    site: int
    kind: str
    fields: tuple

    def as_dict(self) -> dict:
        names = EVENT_FIELDS.get(self.kind, ())
        out = {"ts": self.ts, "site": self.site, "kind": self.kind}
        out.update(zip(names, self.fields))
        return out


class Tracer:
    """Append-only, cluster-wide structured event journal.

    >>> tracer = Tracer()
    >>> tracer.emit(0.5, 2, "steal_in", 1, 0x20001)
    >>> tracer.events[0].kind
    'steal_in'
    """

    __slots__ = ("_raw", "dumps")

    def __init__(self) -> None:
        #: raw (ts, site, kind, fields) tuples, in emission order
        self._raw: List[tuple] = []
        #: site id -> frozen flight dump ({"site", "reason", "at",
        #: "events"}); first freeze wins
        self.dumps: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    def emit(self, ts: float, site: int, kind: str, *fields: object) -> None:
        """Record one event.  This is the whole hot path: one append."""
        self._raw.append((ts, site, kind, fields))

    # ------------------------------------------------------------------
    # flight dumps

    def freeze(self, site: int, at: float,
               reason: str = "crash") -> Optional[dict]:
        """Keep ``site``'s last :data:`FLIGHT_DEPTH` events, oldest first.

        Returns the dump, or None if that site already has one — the
        first freeze is the interesting instant, and a later one would
        replace the evidence with post-mortem noise.
        """
        if site in self.dumps:
            return None
        ring: List[tuple] = []
        for raw in reversed(self._raw):
            if raw[1] == site:
                ring.append(raw)
                if len(ring) == FLIGHT_DEPTH:
                    break
        dump = {"site": site, "reason": reason, "at": at,
                "events": [TracerEvent(*raw).as_dict()
                           for raw in reversed(ring)]}
        self.dumps[site] = dump
        return dump

    def freeze_all(self, at: float, reason: str) -> int:
        """Freeze every site the journal has heard from (site -1, the
        cluster-level chaos events, included).  Returns how many new dumps
        were taken; a site frozen by its crash keeps that dump."""
        sites = sorted({raw[1] for raw in self._raw})
        return sum(self.freeze(site, at, reason) is not None
                   for site in sites)

    # ------------------------------------------------------------------
    # read side (exporters, tests)

    @property
    def events(self) -> List[TracerEvent]:
        """All events, sorted by (ts, site) into one cluster-wide stream."""
        return sorted((TracerEvent(*raw) for raw in self._raw),
                      key=lambda e: (e.ts, e.site))

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[TracerEvent]:
        return iter(self.events)

    def kinds(self) -> Counter:
        """Histogram of event kinds (quick triage + test assertions)."""
        return Counter(raw[2] for raw in self._raw)

    def select(self, kind: Optional[str] = None,
               site: Optional[int] = None) -> List[TracerEvent]:
        return [e for e in self.events
                if (kind is None or e.kind == kind)
                and (site is None or e.site == site)]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every event against the schema (tests, exporters).

        Raises :class:`SDVMError` on an unknown kind, an arity mismatch, or
        a non-numeric timestamp — the contract the exporters rely on.
        """
        for ts, site, kind, fields in self._raw:
            names = EVENT_FIELDS.get(kind)
            if names is None:
                raise SDVMError(f"unknown trace event kind {kind!r}")
            if len(fields) != len(names):
                raise SDVMError(
                    f"event {kind!r} carries {len(fields)} fields, "
                    f"schema says {len(names)} {names}")
            if not isinstance(ts, (int, float)):
                raise SDVMError(f"event {kind!r} has non-numeric ts {ts!r}")
            if not isinstance(site, int):
                raise SDVMError(
                    f"event {kind!r} has non-integer site {site!r}")

    def __repr__(self) -> str:
        return f"Tracer({len(self._raw)} events)"
