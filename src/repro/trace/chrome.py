"""Export a :class:`~repro.trace.tracer.Tracer` journal as a Chrome trace.

The output follows the Chrome Trace Event Format (the JSON flavour both
``chrome://tracing`` and https://ui.perfetto.dev open directly):

* every site becomes a *process* (``pid``), named via metadata events;
* microframe executions become complete (``"X"``) duration slices, spread
  over per-site lanes (``tid``) so the ~5 virtually parallel microthreads
  of one site render as parallel tracks instead of an illegal B/E nest;
* checkpoint waves become duration slices on a dedicated lane of the
  coordinator site, so wave cost is visible against the execution lanes;
* everything else (steals, code fetches, messages, membership, power)
  becomes instant (``"i"``) events carrying their schema fields as args.

Timestamps are exported in microseconds relative to the first event, and
the event list is sorted so ``ts`` is monotonically non-decreasing.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SDVMError
from repro.trace.tracer import EVENT_FIELDS, Tracer

#: synthetic lanes, clear of the execution lanes (tid 0..max_parallel)
CHECKPOINT_LANE = 900
MESSAGE_LANE = 901
EVENT_LANE = 902

#: event kinds rendered as instants on the message lane
_MSG_KINDS = frozenset({"msg_send", "msg_recv", "msg_local"})


def to_chrome(tracer: Tracer,
              site_names: Optional[Dict[int, str]] = None) -> dict:
    """Build a Chrome-trace dict from a tracer journal."""
    tracer.validate()
    events = tracer.events
    out: List[dict] = []
    if not events:
        return {"traceEvents": out, "displayTimeUnit": "ms"}
    t0 = events[0].ts

    def us(ts: float) -> float:
        return round((ts - t0) * 1e6, 3)

    # exec lane allocation, per site: frame -> (start_ts, thread, lane)
    open_execs: Dict[int, Dict[object, Tuple[float, object, int]]] = {}
    lanes_in_use: Dict[int, set] = {}
    sites_seen: Dict[int, bool] = {}
    # wave lane: (site, wave) -> start_ts
    open_waves: Dict[Tuple[int, int], float] = {}

    def args_of(event) -> dict:  # noqa: ANN001
        return dict(zip(EVENT_FIELDS[event.kind], event.fields))

    for event in events:
        sites_seen.setdefault(event.site, True)
        if event.kind == "exec_begin":
            frame, thread = event.fields[0], event.fields[1]
            used = lanes_in_use.setdefault(event.site, set())
            lane = 0
            while lane in used:
                lane += 1
            used.add(lane)
            open_execs.setdefault(event.site, {})[frame] = (
                event.ts, thread, lane)
        elif event.kind == "exec_end":
            frame, work = event.fields
            started = open_execs.get(event.site, {}).pop(frame, None)
            if started is None:
                continue  # journal started mid-execution
            start_ts, thread, lane = started
            lanes_in_use[event.site].discard(lane)
            out.append({
                "name": str(thread), "cat": "exec", "ph": "X",
                "pid": event.site, "tid": lane,
                "ts": us(start_ts), "dur": us(event.ts) - us(start_ts),
                "args": {"frame": frame, "work": work},
            })
        elif event.kind == "wave_begin":
            wave, _sites = event.fields
            open_waves[(event.site, wave)] = event.ts
        elif event.kind in ("wave_commit", "wave_abort"):
            wave = event.fields[0]
            start_ts = open_waves.pop((event.site, wave), None)
            if start_ts is None:
                start_ts = event.ts
            out.append({
                "name": f"checkpoint wave {wave}"
                        + (" (aborted)" if event.kind == "wave_abort"
                           else ""),
                "cat": "checkpoint", "ph": "X",
                "pid": event.site, "tid": CHECKPOINT_LANE,
                "ts": us(start_ts), "dur": us(event.ts) - us(start_ts),
                "args": args_of(event),
            })
        else:
            lane = MESSAGE_LANE if event.kind in _MSG_KINDS else EVENT_LANE
            out.append({
                "name": event.kind, "cat": "event", "ph": "i", "s": "t",
                "pid": event.site, "tid": lane,
                "ts": us(event.ts), "args": args_of(event),
            })

    # still-open executions at the end of the journal: close at the horizon
    horizon = events[-1].ts
    for site, frames in open_execs.items():
        for frame, (start_ts, thread, lane) in frames.items():
            out.append({
                "name": str(thread), "cat": "exec", "ph": "X",
                "pid": site, "tid": lane,
                "ts": us(start_ts),
                "dur": max(us(horizon) - us(start_ts), 0.0),
                "args": {"frame": frame, "open": True},
            })

    out.sort(key=lambda e: e["ts"])
    names = site_names or {}
    meta = [{"name": "process_name", "ph": "M", "pid": site, "tid": 0,
             "args": {"name": names.get(site, f"site {site}")}}
            for site in sorted(sites_seen)]
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str,
                       site_names: Optional[Dict[int, str]] = None) -> int:
    """Write the Chrome-trace JSON to ``path``; returns the event count."""
    doc = to_chrome(tracer, site_names)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, default=str)
    return len(doc["traceEvents"])


def validate_chrome_trace(path: str) -> dict:
    """Validate an exported artifact (the check the tier-1 tests run).

    Checks: parseable JSON, a ``traceEvents`` list, non-negative and
    monotonically non-decreasing timestamps, non-negative durations, and
    known phase codes.  Returns ``{"events": n, "slices": n, "instants": n}``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise SDVMError(f"{path}: traceEvents missing or not a list")
    last_ts = 0.0
    slices = instants = 0
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase not in ("X", "i"):
            raise SDVMError(f"{path}: unexpected phase {phase!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise SDVMError(f"{path}: bad ts {ts!r}")
        if ts < last_ts:
            raise SDVMError(f"{path}: ts not monotonic ({ts} < {last_ts})")
        last_ts = ts
        if phase == "X":
            slices += 1
            if event.get("dur", 0) < 0:
                raise SDVMError(f"{path}: negative duration")
        else:
            instants += 1
    return {"events": len(events), "slices": slices, "instants": instants}
