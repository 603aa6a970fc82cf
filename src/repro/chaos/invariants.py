"""Post-run invariant auditing for chaos runs.

After a fault-injected run finishes (or gives up), the
:class:`InvariantChecker` audits the final cluster state plus the trace
journal for properties that must hold no matter which faults fired:

* **completion-or-declared-failure** — every submitted program either
  delivered a result or was explicitly failed; plans that expect survival
  (``expect_complete``) additionally demand success and a correct result.
* **no-site-paused-at-horizon** — checkpoint pauses and recovery pauses
  must all have been released by the time the run settles.
* **no recovery in flight** — ``_recovering`` cleared, crash queue empty.
* **single-owner attraction lines** — COMA ownership migrates, it never
  forks: an address may live in at most one running site's memory.
* **directory coherence** — a settled directory shard entry may not name
  a live non-owner while some other running site holds the object
  (entries for dropped objects are fine; pointing at the wrong *live*
  copy is how reads go wrong).
* **frame conservation** — no running site still holds frames (memory or
  scheduler queues) of a program it knows to be terminated, and nothing
  is stuck in flight.
* **epoch/wave monotonicity** — per coordinator, checkpoint wave ids and
  recovery epochs only ever move forward in the journal.
* **no corrupted commit** — a result the chaos engine corrupted must
  never become durable: every ``sdc_tainted_commit`` journal event that
  is followed by a committed checkpoint wave (or by successful program
  completion) is a violation.  The replication defense prevents these by
  quarantining mismatches before their effects dispatch.

Violations come back as data, not exceptions, so the fuzzer can count,
shrink, and report them.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from repro.common.errors import SDVMError


class Violation(NamedTuple):
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


class InvariantChecker:
    """Audits one finished cluster run against the chaos invariants."""

    def __init__(self, cluster, expect_complete: bool = True,  # noqa: ANN001
                 expected_results: Optional[List[Any]] = None) -> None:
        self.cluster = cluster
        self.expect_complete = expect_complete
        self.expected_results = expected_results

    # ------------------------------------------------------------------
    def check(self) -> List[Violation]:
        out: List[Violation] = []
        out.extend(self._check_completion())
        out.extend(self._check_pauses())
        out.extend(self._check_recovery_settled())
        out.extend(self._check_single_owner())
        out.extend(self._check_directory())
        out.extend(self._check_frame_conservation())
        out.extend(self._check_journal())
        out.extend(self._check_sdc())
        tracer = self.cluster.tracer
        if out and tracer is not None:
            # the postmortem gets every site's last events, not just the
            # aggregate journal
            tracer.freeze_all(self.cluster.horizon, "invariant_violation")
        return out

    # ------------------------------------------------------------------
    def _running_sites(self) -> list:
        return [s for s in self.cluster.sites if s.running]

    def _check_completion(self) -> List[Violation]:
        out = []
        for index, handle in enumerate(self.cluster.handles):
            name = handle.program.name
            if not handle.done:
                out.append(Violation(
                    "completion",
                    f"program {name!r} neither finished nor failed"))
                continue
            if not self.expect_complete:
                continue
            if handle.failed:
                out.append(Violation(
                    "completion",
                    f"program {name!r} declared failed: {handle.failure}"))
            elif (self.expected_results is not None
                    and index < len(self.expected_results)
                    and handle.result != self.expected_results[index]):
                out.append(Violation(
                    "completion",
                    f"program {name!r} returned a wrong result"))
        return out

    def _check_pauses(self) -> List[Violation]:
        return [Violation("paused_at_horizon",
                          f"site {site.site_id} still paused")
                for site in self._running_sites() if site.paused]

    def _check_recovery_settled(self) -> List[Violation]:
        out = []
        for site in self._running_sites():
            cm = site.crash_manager
            if cm._recovering:
                out.append(Violation(
                    "recovery_settled",
                    f"site {site.site_id} still mid-recovery"))
            queued = getattr(cm, "_crash_queue", ())
            if queued:
                out.append(Violation(
                    "recovery_settled",
                    f"site {site.site_id} still has queued crashes "
                    f"{list(queued)}"))
        return out

    def _check_single_owner(self) -> List[Violation]:
        owners: Dict[Any, List[int]] = {}
        for site in self._running_sites():
            for addr in site.attraction_memory.objects:
                owners.setdefault(addr, []).append(site.site_id)
        return [Violation("single_owner",
                          f"address {addr} owned by sites {sites}")
                for addr, sites in owners.items() if len(sites) > 1]

    def _check_directory(self) -> List[Violation]:
        """After the drain has settled every in-flight DIR_UPDATE, a shard
        entry naming a live site as owner must agree with who actually
        holds the object.  Entries for objects nobody holds any more are
        allowed (drops and rollbacks leave tombstone-free garbage);
        *mismatches* against a live copy are not — they would misroute
        every future read.  Vacuously true for workloads that never
        allocate objects (e.g. primes)."""
        holder: Dict[Any, int] = {}
        running = self._running_sites()
        running_ids = {s.site_id for s in running}
        for site in running:
            for addr in site.attraction_memory.objects:
                holder[addr] = site.site_id
        out = []
        for site in running:
            for addr, (owner, _v, _e) in (
                    site.attraction_memory.dir_entries.items()):
                held_at = holder.get(addr)
                if (held_at is not None and owner != held_at
                        and owner in running_ids):
                    out.append(Violation(
                        "directory",
                        f"shard {site.site_id} maps {addr} to site "
                        f"{owner}, but site {held_at} holds it"))
        return out

    def _check_frame_conservation(self) -> List[Violation]:
        out = []
        for site in self._running_sites():
            pm = site.program_manager
            leaked = [str(addr) for addr, frame
                      in site.attraction_memory.frames.items()
                      if pm.knows(frame.program)
                      and not pm.is_active(frame.program)]
            if leaked:
                out.append(Violation(
                    "frame_conservation",
                    f"site {site.site_id} holds {len(leaked)} frame(s) of "
                    f"terminated programs: {leaked[:3]}"))
            in_flight = site.processing_manager.in_flight
            if in_flight:
                out.append(Violation(
                    "frame_conservation",
                    f"site {site.site_id} still has {in_flight} "
                    f"execution(s) in flight at horizon"))
        return out

    def _check_journal(self) -> List[Violation]:
        tracer = self.cluster.tracer
        if tracer is None:
            return []
        out = []
        try:
            tracer.validate()
        except SDVMError as exc:
            out.append(Violation("journal_schema", str(exc)))
            return out
        waves_begun: Dict[int, int] = {}
        waves_committed: Dict[int, int] = {}
        epochs: Dict[int, int] = {}
        for event in tracer.events:
            if event.kind == "wave_begin":
                wave = event.fields[0]
                if wave <= waves_begun.get(event.site, 0):
                    out.append(Violation(
                        "wave_monotonic",
                        f"site {event.site} began wave {wave} after "
                        f"wave {waves_begun[event.site]}"))
                waves_begun[event.site] = max(
                    waves_begun.get(event.site, 0), wave)
            elif event.kind == "wave_commit":
                wave = event.fields[0]
                if wave <= waves_committed.get(event.site, 0):
                    out.append(Violation(
                        "wave_monotonic",
                        f"site {event.site} committed wave {wave} after "
                        f"wave {waves_committed[event.site]}"))
                waves_committed[event.site] = max(
                    waves_committed.get(event.site, 0), wave)
            elif event.kind == "recovery_begin":
                epoch = event.fields[0]
                if epoch <= epochs.get(event.site, 0):
                    out.append(Violation(
                        "epoch_monotonic",
                        f"site {event.site} began recovery epoch {epoch} "
                        f"after epoch {epochs[event.site]}"))
                epochs[event.site] = max(epochs.get(event.site, 0), epoch)
        return out

    def _check_sdc(self) -> List[Violation]:
        """No corrupted result reaches a committed checkpoint.

        ``sdc_tainted_commit`` is emitted by the processing manager when a
        corrupted effect list dispatches — ground truth straight from the
        injector.  A tainted commit is tolerable only if it was rolled
        back before ever becoming durable: no checkpoint wave committed at
        or after it *and* the program did not certify a result.
        """
        tracer = self.cluster.tracer
        if tracer is None:
            return []
        tainted = [e for e in tracer.events
                   if e.kind == "sdc_tainted_commit"]
        if not tainted:
            return []
        last_wave = max((e.ts for e in tracer.events
                         if e.kind == "wave_commit"), default=None)
        completed = any(h.done and not h.failed
                        for h in self.cluster.handles)
        out = []
        for event in tainted:
            durable = last_wave is not None and last_wave >= event.ts
            if durable or completed:
                out.append(Violation(
                    "sdc_commit",
                    f"corrupted result of frame {event.fields[0]} "
                    f"committed on site {event.site} at t={event.ts:.4f} "
                    f"reached durable state"))
        return out
