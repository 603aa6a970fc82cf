"""The crash manager: checkpoint waves, crash detection hooks, recovery.

A checkpoint shard is packed once (serialised, then zlib-compressed), by
the site that cuts it (``_on_snapshot_request``), and is opaque ``bytes``
from there on: CHECKPOINT_STATE, ``committed``, CHECKPOINT_REPLICA and
RECOVER_STATE (and its resends) carry the same value; only
``_on_recover_state`` unpacks it, as it unpacks a leaver's hand-off.

A wave pauses a site without draining it: CHECKPOINT_ACK means "paused".
Running executions go on, but the processing manager holds their effects
until the wave ends, so the cut records each one as its frame.  Every way
a wave ends here ends the hold: its COMMIT (an aborted wave's too),
RECOVER_BEGIN or RECOVER_DONE, the loss of its coordinator and this
site's sign-off; a superseding wave takes the hold over.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro.common.errors import SerializationError
from repro.common.ids import ManagerId
from repro.messages import HANDLER_OF, MESSAGE_TABLE, MsgType, SDMessage
from repro.serde import dumps, loads
from repro.site.manager_base import Manager

#: how many other sites keep a copy of each committed snapshot
SNAPSHOT_REPLICAS = 1


def _nothing(*_args: object) -> None:
    pass


def pack_shard(state: dict, charge: Callable[[int], None] = _nothing) -> bytes:
    """A shard as it travels and is kept: its serialised state at zlib
    level 1 (about 4x smaller; level 6 is twice as slow for 8 % more).
    ``charge`` is told the serialised length, which the codec works on."""
    raw = dumps(state)
    charge(len(raw))
    return zlib.compress(raw, 1)


def unpack_shard(blob: bytes,
                 charge: Callable[[int], None] = _nothing) -> object:
    """What :func:`pack_shard` packed.  Damaged bytes raise
    :class:`SerializationError`: zlib's Adler-32 catches a flipped byte."""
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise SerializationError(f"not a packed shard: {exc}") from None
    charge(len(raw))
    return loads(raw)


class CrashManager(Manager):
    manager_id = ManagerId.CRASH

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self._timer = None
        # --- coordinator state ------------------------------------------
        self._wave = 0
        self._acks_pending: Set[int] = set()
        self._states_pending: Set[int] = set()
        self._collected: Dict[int, bytes] = {}
        #: last committed snapshot: {site logical: shard}, and its wave id
        self.committed_wave = -1
        self.committed: Dict[int, bytes] = {}
        #: which coordinator produced ``committed`` (-1: none yet) — used
        #: to fence stale CHECKPOINT_REPLICA duplicates without rejecting
        #: a successor coordinator's restarted wave numbering
        self.committed_src = -1
        #: a recovery is in flight
        self.recovering = False
        #: crashes observed while a recovery is in flight; drained one at
        #: a time so recoveries never interleave
        self._crash_queue: List[int] = []
        #: bumped per recovery — fences the settle-delay continuation
        #: timers of an older recovery
        self._recover_seq = 0
        #: what the current recovery's RECOVER_DONE waits for: the shards
        #: whose RECOVER_STATE is not yet settled, and None until the
        #: settle delay has passed
        self._recovery_waits: Set[Optional[int]] = set()
        #: (epoch, sender, shard) already adopted (duplicate-delivery fence)
        self._recover_shards_applied: Set[tuple] = set()
        #: participant: (wave, coordinator) of the wave this site is
        #: paused for and holds effects in, None when none is open
        self._open_wave: Optional[tuple] = None
        #: participant: highest committed/aborted wave seen per coordinator
        #: (fences a CHECKPOINT_BEGIN that a smaller, faster COMMIT overtook
        #: on the wire — pausing for a finished wave would wedge the site)
        self._finished_waves: Dict[int, int] = {}
        #: when the in-flight wave started (coordinator, for wave_seconds)
        self._wave_started_at = 0.0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.config.checkpoint.enabled

    def is_coordinator(self) -> bool:
        """Lowest alive *reliable* site coordinates (§2.2: the reliable
        core intercepts crashes of unsafe sites); if the whole cluster is
        unreliable, fall back to the lowest alive site."""
        records = [r for r in self.site.cluster_manager.sites.values()
                   if r.alive]
        if not records:
            return False
        reliable = [r.logical for r in records if r.reliable]
        pool = reliable if reliable else [r.logical for r in records]
        return self.local_id == min(pool)

    def settle_delay(self) -> float:
        # long enough for every pre-pause message to land
        return 6.0 * self.config.network.latency + 2e-3

    # ------------------------------------------------------------------
    # periodic checkpoint waves (coordinator only)

    def on_start(self) -> None:
        if self.enabled:
            self._schedule_wave()

    def _schedule_wave(self) -> None:
        self._timer = self.kernel.call_later(self.config.checkpoint.interval,
                                             self._wave_tick)

    def _wave_tick(self) -> None:
        self._timer = None
        if not self.site.running:
            return
        if (self.is_coordinator() and not self.recovering
                and self.site.program_manager.has_active_programs()
                and not self._wave_blocking()):
            self.start_checkpoint()
        self._schedule_wave()

    def _wave_blocking(self) -> bool:
        """True while the in-flight wave should hold off the next one.

        Collecting n snapshot messages is O(n) wire time, so past a
        couple hundred sites a wave outlives the tick interval — naively
        restarting every tick would supersede it forever and no
        checkpoint would EVER commit (then the first real crash fails
        every program for want of a checkpoint).  A wave stuck past the
        grace window (e.g. a participant left mid-wave without a crash
        being declared) must not wedge checkpointing either, so an aged
        wave stops blocking and the next tick supersedes it.
        """
        if not self._acks_pending and not self._states_pending:
            return False
        age = self.kernel.now - self._wave_started_at
        return age < 5.0 * self.config.checkpoint.interval

    def open_wave_age(self, now: float) -> float:
        """Seconds the coordinator's current wave has been awaiting
        ACKs/STATEs; 0.0 when no wave is open here.

        The telemetry sampler's wave-stall observable: a healthy wave
        closes within milliseconds, so a growing age is the in-run
        signature of the never-committing-wave bug class that
        :meth:`_wave_blocking`'s grace window papers over post-hoc.
        """
        if self._acks_pending or self._states_pending:
            return now - self._wave_started_at
        return 0.0

    def start_checkpoint(self) -> None:
        """Coordinator: begin a checkpoint wave across all alive sites."""
        self._wave += 1
        alive = [r.logical for r in self.site.cluster_manager.sites.values()
                 if r.alive]
        self._acks_pending = set(alive)
        self._states_pending = set(alive)
        self._collected = {}
        self._wave_started_at = self.kernel.now
        self.note("wave_begin", self._wave, len(alive))
        for logical in alive:
            self._send_ctrl(logical, MsgType.CHECKPOINT_BEGIN,
                            {"wave": self._wave, "phase": "pause"})

    def _msg(self, logical: int, mtype: MsgType, payload: dict) -> SDMessage:
        return SDMessage(type=mtype, src_site=self.local_id,
                         dst_site=logical, payload=payload)

    def _send_ctrl(self, logical: int, mtype: MsgType,
                   payload: dict) -> None:
        if logical == self.local_id:
            self._deliver_here(mtype, payload)
            return
        msg = self._msg(logical, mtype, payload)
        if MESSAGE_TABLE[mtype].must_arrive:
            # a COMMIT: one lost would leave its site paused, holding the
            # effects of every execution that ran on
            self.site.message_manager.request(msg, on_reply=_nothing,
                                              timeout=self.settle_delay())
        else:
            self.site.message_manager.send(msg)

    def _deliver_here(self, mtype: MsgType, payload: dict) -> None:
        """Control addressed to this site: its handler, called at once
        rather than through the message manager's loopback."""
        getattr(self, HANDLER_OF[mtype])(
            self._msg(self.local_id, mtype, dict(payload)))

    # ------------------------------------------------------------------
    # participant side

    def _on_checkpoint_begin(self, msg: SDMessage) -> None:
        if msg.payload["phase"] == "pause":
            self._on_pause(msg.payload["wave"], msg.src_site)
        else:
            self._on_snapshot_request(msg.payload["wave"], msg.src_site)

    def _on_pause(self, wave: int, coordinator: int) -> None:
        if wave <= self._finished_waves.get(coordinator, -1):
            # the wave already committed or aborted — its COMMIT overtook
            # this pause (message delay scales with size, and a commit is
            # smaller than a pause); obeying it now would pause us forever
            return
        if not self.site.leaving:
            # a leaver has stopped for good, and no COMMIT reaches it: its
            # heir answers for its addresses
            self.site.paused = True
            self._open_wave = (wave, coordinator)
            self.site.processing_manager.hold()
        self._send_ctrl(coordinator, MsgType.CHECKPOINT_ACK, {"wave": wave})

    def end_wave(self) -> None:
        """The open wave is over for this site: what it held goes out."""
        self._open_wave = None
        self.site.processing_manager.release()

    def _resume(self) -> None:
        self.end_wave()
        self.site.paused = False
        self.site.processing_manager.kick()
        self.site.scheduling_manager.kick()

    def _on_snapshot_request(self, wave: int, coordinator: int) -> None:
        # packing is also the by-value cut: frame parameters are live
        # application values (e.g. a state dict that keeps evolving after
        # the wave), and a by-reference snapshot would be inconsistent
        blob = pack_shard(self.site.attraction_memory.export_checkpoint(),
                          self._charge_codec)
        self.stats.inc("shards_serialized")
        if coordinator != self.local_id:
            self.stats.add("snapshot_bytes", len(blob))
        self._send_ctrl(coordinator, MsgType.CHECKPOINT_STATE,
                        {"wave": wave, "state": blob})

    def _charge_codec(self, nbytes: int) -> None:
        """The CPU a shard's codec costs, on its serialised length: the
        wire charges only the compressed bytes."""
        self.kernel.cpu_charge(nbytes * self.cost.msg_byte_cost)

    def _on_checkpoint_commit(self, msg: SDMessage) -> None:
        wave, src = msg.payload["wave"], msg.src_site
        if wave >= 0:
            self._finished_waves[src] = max(
                self._finished_waves.get(src, -1), wave)
        if msg.payload.get("aborted", False):
            self.stats.inc("waves_aborted_observed")
        else:
            self.stats.inc("waves_committed")
        open_wave = self._open_wave
        if open_wave is None or src != open_wave[1] or wave < open_wave[0]:
            # its pause has not come (it is fenced now), a copy of a COMMIT
            # this site has had, or one of a wave a later wave took over
            # from: releasing now would let effects out across the open cut
            return
        self._resume()

    # ------------------------------------------------------------------
    # coordinator collection

    def _on_checkpoint_ack(self, msg: SDMessage) -> None:
        wave, src = msg.payload["wave"], msg.src_site
        if wave != self._wave or src not in self._acks_pending:
            # stale wave, or a duplicate delivery of an ack already
            # counted — re-entering the empty-set branch would launch a
            # second snapshot round for the same wave
            return
        self._acks_pending.discard(src)
        if not self._acks_pending:
            self.kernel.call_later(self.settle_delay(),
                                   self._request_snapshots, wave)

    def _request_snapshots(self, wave: int) -> None:
        if wave != self._wave or not self.site.running:
            return
        for logical in list(self._states_pending):
            self._send_ctrl(logical, MsgType.CHECKPOINT_BEGIN,
                            {"wave": wave, "phase": "snapshot"})

    def _on_checkpoint_state(self, msg: SDMessage) -> None:
        wave, src = msg.payload["wave"], msg.src_site
        blob = msg.payload["state"]
        if wave != self._wave or src not in self._states_pending:
            # stale wave, or a duplicated snapshot arriving after the wave
            # committed — without this fence the duplicate re-commits the
            # same wave and re-broadcasts CHECKPOINT_COMMIT
            return
        if type(blob) is not bytes:  # the wave ages out (_wave_blocking)
            return self._malformed_shard("CHECKPOINT_STATE", src, "not bytes")
        self._collected[src] = blob
        self._states_pending.discard(src)
        if not self._states_pending:
            self.committed_wave = wave
            self.committed = dict(self._collected)
            self.committed_src = self.local_id
            self.stats.add("wave_seconds",
                           self.kernel.now - self._wave_started_at)
            self.note("wave_commit", wave, len(self.committed))
            for logical in list(self.committed):
                self._send_ctrl(logical, MsgType.CHECKPOINT_COMMIT,
                                {"wave": wave})
            self._replicate_snapshot(wave)

    # ------------------------------------------------------------------
    # snapshot replication (coordinator-crash survival)

    def _backup_sites(self) -> List[int]:
        """The next ``SNAPSHOT_REPLICAS`` coordinator-successors."""
        records = [r for r in self.site.cluster_manager.sites.values()
                   if r.alive and r.logical != self.local_id]
        reliable = [r for r in records if r.reliable]
        pool = reliable if reliable else records
        pool.sort(key=lambda r: r.logical)
        return [r.logical for r in pool[:SNAPSHOT_REPLICAS]]

    def _replicate_snapshot(self, wave: int) -> None:
        """Copy the committed snapshot onto backup sites.

        Without this, the last good checkpoint dies with its coordinator
        and the succeeding coordinator (lowest alive site) could only
        declare the programs failed; with a replica it drives rollback
        recovery itself.  Shards travel as a (site, blob) pair list —
        message payload dicts are keyed by strings on the wire — of the
        bytes each participant serialised; a backup keeps them unparsed.
        """
        shards = [list(shard) for shard in self.committed.items()]
        nbytes = sum(map(len, self.committed.values()))
        for logical in self._backup_sites():
            self.stats.add("snapshot_bytes", nbytes)
            self._send_ctrl(logical, MsgType.CHECKPOINT_REPLICA,
                            {"wave": wave, "shards": shards})

    def _on_checkpoint_replica(self, msg: SDMessage) -> None:
        wave, src = msg.payload["wave"], msg.src_site
        if src == self.committed_src and wave <= self.committed_wave:
            # duplicate or out-of-order copy from the same coordinator; a
            # *new* coordinator restarts wave numbering, so only same-src
            # copies are comparable
            self.stats.inc("stale_replicas_ignored")
            return
        try:
            committed = {int(shard_site): blob
                         for shard_site, blob in msg.payload["shards"]}
            if any(type(blob) is not bytes for blob in committed.values()):
                raise TypeError("a shard is not bytes")
        except (TypeError, ValueError) as exc:
            # keep the older replica: it, at least, can be adopted
            return self._malformed_shard("CHECKPOINT_REPLICA", src, exc)
        self.committed_wave = wave
        self.committed = committed
        self.committed_src = src
        self.stats.inc("replicas_adopted")

    def _malformed_shard(self, kind: str, src: int, why: object) -> None:
        self.stats.inc("malformed_shards")
        self.log("dropping malformed %s shard of site %d: %s", kind, src, why)

    def _abort_wave(self, reason: str) -> Optional[int]:
        """Coordinator: cancel the in-flight checkpoint wave, if any.

        A participant that dies between CHECKPOINT_ACK and CHECKPOINT_STATE
        leaves ``_states_pending`` non-empty forever — the wave would never
        commit and every paused participant would stay wedged.  Bumping
        ``_wave`` fences all stale ACK/STATE traffic (both collectors guard
        on the current wave id); the pending sets are cleared so the next
        wave starts clean.  Returns the aborted wave id, or None if no
        wave was in flight.
        """
        if (not self._acks_pending and not self._states_pending
                and not self._collected):
            return None
        aborted = self._wave
        self.log("aborting checkpoint wave %d: %s", aborted, reason)
        self.note("wave_abort", aborted, reason)
        self._wave += 1
        self._acks_pending = set()
        self._states_pending = set()
        self._collected = {}
        return aborted

    def _resume_participants(self, wave: int) -> None:
        """Unpause every alive site after an aborted wave (no recovery).

        Carries the aborted wave id so participants can fence a
        CHECKPOINT_BEGIN pause of that wave that is still in flight.
        """
        for record in self.site.cluster_manager.sites.values():
            if record.alive:
                self._send_ctrl(record.logical, MsgType.CHECKPOINT_COMMIT,
                                {"wave": wave, "aborted": True})

    # ------------------------------------------------------------------
    # crash handling

    def on_site_dead(self, logical: int) -> None:
        """Cluster manager reports a peer crashed: rollback recovery from
        the last committed checkpoint (a sign-off relocated its state
        already and never reaches here)."""
        if not self.site.running:
            return
        self.log("suspecting site %d crashed; entering recovery path",
                 logical)
        self.stats.inc("crashes_observed")
        if self._open_wave is not None and self._open_wave[1] == logical:
            # the wave's coordinator is gone, and its COMMIT with it: the
            # wave ends here as an aborted one would
            self._finished_waves[logical] = self._open_wave[0]
            self._resume()
        if not self.is_coordinator():
            return
        if self.recovering:
            # serialize: starting a second recovery now would interleave
            # RECOVER_BEGIN/STATE/DONE waves, and the first recovery's
            # finish timer would unpause survivors mid-rollback
            if logical not in self._crash_queue:
                self._crash_queue.append(logical)
                self.stats.inc("crashes_queued")
            return
        self._handle_crash(logical)

    def _handle_crash(self, logical: int) -> None:
        # a wave the dead site participated in can never finish — abort it
        # before recovery so stale ACK/STATE traffic is fenced out
        aborted = self._abort_wave(f"site {logical} died mid-wave")
        if self.committed_wave < 0:
            # §2.2: without a checkpoint, the damage cannot be undone
            self.log("site %d crashed with no committed checkpoint; "
                     "failing active programs", logical)
            for info in list(self.site.program_manager.programs.values()):
                if not info.terminated:
                    self.site.program_manager.local_exit(
                        info.pid, None, failed=True,
                        failure=f"site {logical} crashed; no checkpoint")
            if aborted is not None:
                # no recovery wave will unpause the survivors — do it here
                self._resume_participants(aborted)
            return
        self._start_recovery(dead=logical)

    def _start_recovery(self, dead: int) -> None:
        self.recovering = True
        self._recover_seq += 1
        alive = [r.logical for r in self.site.cluster_manager.sites.values()
                 if r.alive]
        # compute the new epoch once — handling our own RECOVER_BEGIN below
        # bumps self.site.epoch, so an inline read would skew later sends
        new_epoch = self.site.epoch + 1
        self.note("recovery_begin", new_epoch, dead)
        for logical in alive:
            self._send_recover(logical, MsgType.RECOVER_BEGIN,
                               {"epoch": new_epoch, "dead": dead,
                                "heir": self.local_id})
        self.kernel.call_later(self.settle_delay(),
                               self._distribute_snapshot, dead, set(alive),
                               self._recover_seq)

    def _send_recover(self, logical: int, mtype: MsgType, payload: dict,
                      settled: Callable[[], None] = _nothing) -> None:
        """Send recovery control, a must-arrive type: a single dropped
        RECOVER_DONE would leave a survivor paused forever, so the message
        manager resends each copy that is not acked within one settle
        delay.  A RECOVER_STATE also waits twice its shard's transfer
        time, so a large shard is not resent while its first copy is on
        the wire.  ``settled`` runs once the send is over: handled here,
        acked, out of attempts, or addressed to a site that is gone.
        """
        if logical == self.local_id:
            self._deliver_here(mtype, payload)
            settled()
            return
        if not self.site.running:
            return
        record = self.site.cluster_manager.sites.get(logical)
        if record is None or not record.alive:
            settled()
            return
        timeout = self.settle_delay()
        if mtype == MsgType.RECOVER_STATE:
            nbytes = len(payload["state"])
            self.stats.add("snapshot_bytes", nbytes)
            timeout += 2.0 * nbytes / self.config.network.bandwidth
        if not self.site.message_manager.request(
                self._msg(logical, mtype, dict(payload)),
                on_reply=lambda reply: settled(),
                timeout=timeout, on_timeout=settled):
            settled()

    def hand_off(self, heir: int, settled: Callable[[], None]) -> None:
        """Relocate a leaver's state to ``heir`` (§3.4) as a shard: packed
        like a cut, must-arrive, fenced by epoch; its sender keeps it apart
        from a recovery's shard of this site in the duplicate fence."""
        blob = pack_shard(self.site.attraction_memory.export_state(),
                          self._charge_codec)
        heir = self.site.cluster_manager.effective_site(heir)  # if it left
        self._send_recover(heir, MsgType.RECOVER_STATE,
                           {"state": blob, "epoch": self.site.epoch,
                            "shard": self.local_id}, settled)

    def _on_recover_begin(self, msg: SDMessage) -> bool:
        payload = msg.payload
        epoch = payload["epoch"]
        if epoch <= self.site.epoch:
            # duplicate delivery or a resend of a recovery we already
            # entered — re-applying would wipe restored state
            return True
        self.site.epoch = epoch
        self.site.paused = True
        dead = payload["dead"]
        heir = payload["heir"]
        # reset before recording the death: the membership hooks republish
        # owned directory state, and pre-rollback state must not leak into
        # the post-recovery directory
        self.site.reset_program_state()
        self.site.cluster_manager.note_record_dead(dead, heir)
        # a wave still open here is dead: its held completions are stale
        # now, and a held read finds the rolled-back memory
        self.end_wave()
        return True

    def _distribute_snapshot(self, dead: int, alive: Set[int],
                             seq: int) -> None:
        if seq != self._recover_seq or not self.recovering:
            return  # superseded by a newer recovery
        epoch = self.site.epoch  # our own RECOVER_BEGIN already bumped it
        # RECOVER_DONE waits for every shard to settle, not only for the
        # settle delay: a survivor that resumed before its resent (and
        # larger) RECOVER_STATE landed would run without its shard
        self._recovery_waits = {None, *self.committed}
        # a shard goes where its site's addresses route: the site, the heir
        # of a site that signed off since the wave, else this coordinator
        cluster = self.site.cluster_manager
        for shard_site, blob in self.committed.items():
            target = cluster.effective_site(shard_site)
            if target not in alive:
                target = self.local_id
            self._send_recover(target, MsgType.RECOVER_STATE,
                               {"state": blob, "epoch": epoch,
                                "shard": shard_site},
                               settled=partial(self._recovery_step_done,
                                               shard_site, alive, seq))
        self.kernel.call_later(self.settle_delay(), self._recovery_step_done,
                               None, alive, seq)

    def _recovery_step_done(self, step: Optional[int], alive: Set[int],
                            seq: int) -> None:
        """One of ``_recovery_waits`` is over; finish once none is left."""
        if seq != self._recover_seq or not self.recovering:
            return
        self._recovery_waits.discard(step)
        if self._recovery_waits:
            return
        self.recovering = False
        self.note("recovery_done", self.site.epoch)
        for logical in alive:
            self._send_recover(logical, MsgType.RECOVER_DONE,
                               {"epoch": self.site.epoch})
        self._drain_crash_queue()

    def _drain_crash_queue(self) -> None:
        """Start the next queued recovery, if any (serial execution)."""
        while self._crash_queue and not self.recovering:
            if not self.site.running or not self.is_coordinator():
                self._crash_queue.clear()
                return
            self._handle_crash(self._crash_queue.pop(0))

    def _on_recover_state(self, msg: SDMessage) -> bool:
        payload = msg.payload
        epoch = payload["epoch"]
        if epoch > self.site.epoch:
            # our RECOVER_BEGIN is still in flight (lost or delayed) —
            # withhold the ack so the coordinator keeps resending until we
            # have actually entered the new epoch
            return False
        if epoch < self.site.epoch:
            # cut before the last rollback, whose shards restored it
            self.stats.inc("stale_shards_dropped")
            return True
        key = (epoch, msg.src_site, payload["shard"])
        if key in self._recover_shards_applied:
            return True
        self._recover_shards_applied.add(key)
        # parsed in full before anything is adopted; an unreadable shard is
        # acked all the same — a resend would carry the same bytes
        blob = payload["state"]
        try:
            state = (unpack_shard(blob, self._charge_codec)
                     if type(blob) is bytes else None)
            if type(state) is not dict:
                raise SerializationError("not a serialised state dict")
        except SerializationError as exc:
            self._malformed_shard("RECOVER_STATE", key[2], exc)
            return True
        self.site.attraction_memory.adopt_state(state)
        return True

    def _on_recover_done(self, msg: SDMessage) -> bool:
        epoch = msg.payload["epoch"]
        if epoch > self.site.epoch:
            self.stats.inc("early_recover_done")
            return False
        if epoch < self.site.epoch:
            # DONE of an older recovery arriving late — unpausing now
            # would resume us in the middle of the newer one
            return True
        self.stats.inc("recoveries_completed")
        # a pause of a wave the recovery killed may have come since
        # RECOVER_BEGIN: nothing would end it
        self._resume()
        return True

    def on_stop(self) -> None:
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None
