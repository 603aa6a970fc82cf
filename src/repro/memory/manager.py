"""The attraction memory manager.

Object ownership is tracked by a **home-based directory**: a global
address contains the id of the site it was created on, and that
*homesite* — or the heir that inherited its address space, by an
orderly sign-off or as the coordinator of its crash recovery — is the
one place the cluster asks "who owns this object right now?" for as long
as it lives (:meth:`ClusterManager.dir_site_for`).  An *orphan*, an
address whose homesite crashed and has no heir yet, is answered for by
the site the heir rule points at: the lowest alive id above the homesite.

Who records which hop of an object's life:

* **allocation** — the creator is the homesite: a local dict write, no
  message.
* **migration away from the directory site** — the shipping owner *is*
  the directory, so it records the requester as it lets the object go
  and says so in the reply (``"recorded"``): MEM_READ + MEM_READ_REPLY
  and nothing else, and no window in which the directory names a site
  that no longer holds the object.
* **every other migration** — the new owner publishes a real
  ``DIR_UPDATE`` to the directory site: epoch-fenced against
  post-recovery stragglers, version-fenced against reordered updates
  from older hops of the ownership chain, and must-arrive (the message
  manager acks and resends it); a crashed directory site's updates are
  republished to its successor by the membership change.
* **membership change** — an owner republishes exactly the objects whose
  directory site moved (homesite departed, orphan's stand-in departed).

Remote reads do at most one directory hop and then a direct owner fetch;
nothing on the lookup path broadcasts or scales with the cluster size.

There is one access path, under both kernels: the message protocol
(MEM_READ / MEM_READ_REPLY / MEM_WRITE / DIR_UPDATE)
behind :meth:`live_read` and :meth:`apply_write`.  An execution
that waits for the callback is abandoned and runs again once it has
fired (:mod:`repro.proc.context`).  No site ever looks into another
site's memory — a migration is two messages that chaos can delay, drop
or partition, and a read of a dead owner's object fails.

Result application (APPLY_RESULT) is always message-based — it is what
drives dataflow timing.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import FrameStateError, MemoryFault
from repro.common.ids import GlobalAddress, ManagerId
from repro.core.frames import Microframe
from repro.messages import MsgType, SDMessage, make_reply
from repro.site.manager_base import Manager


class AttractionMemory(Manager):
    manager_id = ManagerId.ATTRACTION_MEMORY

    #: how long a DIR_UPDATE waits for its ACK before it is resent
    _DIR_TIMEOUT = 0.2

    #: total redirect/re-resolve hops a live read may take before failing
    _READ_ATTEMPTS = 4

    #: results held for sites this one has not met yet; past it they are
    #: dropped like any other undeliverable result
    _HELD_RESULTS_MAX = 1024

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        #: local half of the next address; ``next()`` on it is one C call,
        #: so live worker threads allocate without visiting the reactor
        self._next_local = itertools.count(1)
        #: incomplete microframes waiting for parameters
        self.frames: Dict[GlobalAddress, Microframe] = {}
        #: results that arrived before their frame was registered
        self._pending_results: Dict[GlobalAddress, List[Tuple[int, Any]]] = {}
        #: program id of buffered results (so termination can clean up)
        self._pending_programs: Dict[GlobalAddress, int] = {}
        #: results for a site we hold no record of yet (a stolen frame can
        #: finish before the join wave has introduced its target's site):
        #: (site, addr, slot, value, program), sent when the site is learned
        self._held_results: List[Tuple[int, GlobalAddress, int, Any,
                                       int]] = []
        #: memory objects currently owned by this site
        self.objects: Dict[GlobalAddress, Any] = {}
        #: per-owned-object migration version; travels with the object and
        #: orders DIR_UPDATEs along the ownership chain
        self._versions: Dict[GlobalAddress, int] = {}
        #: per-owned-object site whose directory holds our ownership (we
        #: published there, or it recorded the hand-off when it shipped
        #: us the object) — what a membership change compares against
        self._published_at: Dict[GlobalAddress, int] = {}
        #: directory entries this site is responsible for (addresses
        #: homed here or inherited, orphans we stand in for):
        #: address -> (owner, version, epoch)
        self.dir_entries: Dict[GlobalAddress, Tuple[int, int, int]] = {}
        # membership churn can move an address's directory site:
        # republish what moved, hand off entries no longer covered here
        cm = site.cluster_manager
        cm.on_site_joined.append(self._release_held_results)
        cm.on_site_joined.append(self._on_membership_change)
        cm.on_site_departed.append(self._on_membership_change)

    # ------------------------------------------------------------------
    # address allocation

    def alloc_address(self) -> GlobalAddress:
        """Fresh global address homed at this site (safe from any
        thread; every other method here belongs to the reactor)."""
        return GlobalAddress(self.local_id, next(self._next_local))

    # ------------------------------------------------------------------
    # microframes

    def register_frame(self, frame: Microframe) -> None:
        """Adopt a newly created (or migrated-in) microframe."""
        self.kernel.cpu_charge(self.cost.frame_alloc_cost)
        pending = self._pending_results.pop(frame.frame_id, None)
        self._pending_programs.pop(frame.frame_id, None)
        if pending is not None:
            for slot, value in pending:
                frame.apply_parameter(slot, value)
        if frame.executable:
            self.site.scheduling_manager.enqueue_executable(frame)
        else:
            self.frames[frame.frame_id] = frame

    def apply_result(self, addr: GlobalAddress, slot: int, value: Any,
                     program: int) -> None:
        """Apply a microthread result to the frame at ``addr`` (local or
        remote — the paper's "writes results to incomplete microframes")."""
        frame = self.frames.get(addr)
        if frame is not None or addr.site == self.local_id:
            self._apply_local(addr, slot, value, program)
            return
        target = self.site.cluster_manager.effective_site(addr.site)
        if target == self.local_id:
            # we inherited the leaver's address space
            self._apply_local(addr, slot, value, program)
            return
        sent = self.site.message_manager.send(SDMessage(
            type=MsgType.APPLY_RESULT,
            src_site=self.local_id, dst_site=target,
            program=program,
            payload={"addr": addr, "slot": slot, "value": value,
                     "epoch": self.site.epoch},
        ))
        if sent:
            self.stats.inc("results_sent")
        elif (target not in self.site.cluster_manager.sites
              and len(self._held_results) < self._HELD_RESULTS_MAX):
            # never heard of the site: its record is on the way.  A site
            # that is known and dead is different — recovery replays that
            self._held_results.append((target, addr, slot, value, program))
            self.stats.inc("results_held")
        else:
            self.stats.inc("results_undeliverable")

    def _release_held_results(self, logical: int) -> None:
        if not self._held_results:
            return  # every join of every wave lands here
        held, self._held_results = self._held_results, []
        for entry in held:
            if entry[0] == logical:
                self.apply_result(*entry[1:])
            else:
                self._held_results.append(entry)

    def _apply_local(self, addr: GlobalAddress, slot: int, value: Any,
                     program: int) -> None:
        self.kernel.cpu_charge(self.cost.result_apply_cost)
        frame = self.frames.get(addr)
        if frame is None:
            if not self.site.program_manager.is_active(program):
                self.stats.inc("results_dropped_terminated")
                return
            # frame not registered yet (live-mode race / relocation window):
            # buffer until it shows up
            self._pending_results.setdefault(addr, []).append((slot, value))
            self._pending_programs[addr] = program
            self.stats.inc("results_buffered")
            return
        try:
            became_executable = frame.apply_parameter(slot, value)
        except FrameStateError:
            # duplicate delivery: after a rollback recovery, restored
            # producers re-send results a restored consumer already holds
            # (at-least-once).  Slots are single-producer, so a duplicate
            # always carries the same value and is safe to drop.
            return
        if became_executable:
            del self.frames[addr]
            self.site.scheduling_manager.enqueue_executable(frame)

    def drop_program(self, pid: int) -> None:
        for addr in [a for a, f in self.frames.items() if f.program == pid]:
            del self.frames[addr]
        self._held_results = [entry for entry in self._held_results
                              if entry[4] != pid]
        for addr in [a for a, p in self._pending_programs.items() if p == pid]:
            self._pending_results.pop(addr, None)
            del self._pending_programs[addr]

    # ------------------------------------------------------------------
    # the ownership directory (homesite first, heir rule for orphans)

    def dir_owner(self, addr: GlobalAddress) -> Optional[int]:
        """This directory's view of who owns ``addr`` (None: no entry)."""
        entry = self.dir_entries.get(addr)
        return None if entry is None else entry[0]

    def _apply_dir_entry(self, addr: GlobalAddress, owner: int,
                         version: int, epoch: int) -> bool:
        """Last-writer-wins ordered by (epoch, version): a recovery rebase
        (higher epoch) always wins; within an epoch the ownership chain's
        version decides, so a reordered update from an older hop can never
        overwrite the newest owner.  True when the entry was written."""
        entry = self.dir_entries.get(addr)
        if entry is None or (epoch, version) >= (entry[2], entry[1]):
            self.dir_entries[addr] = (owner, version, epoch)
            return True
        return False

    def _publish_dir(self, addr: GlobalAddress) -> None:
        """Publish this site's ownership of ``addr`` to its directory
        site: a dict write when that is this site (every allocation),
        one must-arrive DIR_UPDATE otherwise."""
        version = self._versions.get(addr, 0)
        target = self.site.cluster_manager.dir_site_for(addr)
        self._published_at[addr] = target
        if target == self.local_id:
            self._apply_dir_entry(addr, self.local_id, version,
                                  self.site.epoch)
            return
        self._send_dir_update(addr, self.local_id, version, target)

    def _send_dir_update(self, addr: GlobalAddress, owner: int, version: int,
                         target: int, epoch: Optional[int] = None) -> None:
        msg = SDMessage(
            type=MsgType.DIR_UPDATE,
            src_site=self.local_id, dst_site=target,
            payload={"addr": addr, "owner": owner, "version": version,
                     "epoch": self.site.epoch if epoch is None else epoch},
        )
        if self.site.message_manager.request(
                msg, on_reply=lambda reply: None, timeout=self._DIR_TIMEOUT):
            self.stats.inc("dir_updates_sent")

    def _on_dir_update(self, msg: SDMessage) -> None:
        payload = msg.payload
        if self._stale_epoch(payload):
            self.stats.inc("stale_dir_updates_dropped")
        else:
            self._apply_dir_entry(payload["addr"], payload["owner"],
                                  payload["version"], payload["epoch"])
            self.stats.inc("dir_updates_applied")

    def _ship_out(self, addr: GlobalAddress, new_owner: int) -> bool:
        """Give up ownership of ``addr`` to ``new_owner``.  When this site
        is also the address's directory site it records the hand-off here
        and now — no DIR_UPDATE, and no window in which the directory
        names a site that no longer holds the object.  True when it did:
        only then may the new owner skip publishing."""
        del self.objects[addr]
        version = self._versions.pop(addr, 0)
        self._published_at.pop(addr, None)
        return (self.site.cluster_manager.dir_site_for(addr) == self.local_id
                and self._apply_dir_entry(addr, new_owner, version + 1,
                                          self.site.epoch))

    def _on_membership_change(self, _logical: int) -> None:
        """A site joined or departed: republish ownership of the objects
        whose directory site moved (their homesite departed; an orphan's
        stand-in changed) and hand off directory entries this site no
        longer covers.  O(owned + entries) look-ups per membership change
        — never per access — messages only for what moved, and a no-op
        on empty sites, so the bootstrap join storm costs nothing."""
        if not self.objects and not self.dir_entries:
            return
        cm = self.site.cluster_manager
        for addr in list(self.objects):
            if cm.dir_site_for(addr) != self._published_at.get(addr):
                self._publish_dir(addr)
        if not self.dir_entries:
            return
        moved = [(addr, entry) for addr, entry in self.dir_entries.items()
                 if cm.dir_site_for(addr) != self.local_id]
        for addr, (owner, version, epoch) in moved:
            del self.dir_entries[addr]
            self.stats.inc("dir_entries_handed_off")
            self._send_dir_update(addr, owner, version,
                                  cm.dir_site_for(addr),
                                  epoch=max(epoch, self.site.epoch))

    # ------------------------------------------------------------------
    # memory objects

    def alloc_object(self, value: Any) -> GlobalAddress:
        addr = self.alloc_address()
        self.adopt_new_object(addr, value)
        return addr

    def adopt_new_object(self, addr: GlobalAddress, value: Any) -> None:
        """Own and publish a new object at an address taken from
        :meth:`alloc_address` — the half of an allocation that needs the
        reactor.  A live worker takes the address itself and posts this:
        the reactor's FIFO queue runs it before any later read by the
        same microthread, and before the completion that first shows the
        address to anyone else."""
        self.objects[addr] = value
        self._versions[addr] = 0
        self.stats.inc("objects_allocated")
        self._publish_dir(addr)

    # ------------------------------------------------------------------
    # memory objects — the message protocol

    def live_read(self, addr: GlobalAddress, cb,  # noqa: ANN001
                  _attempt: int = 0) -> None:
        """Resolve a read via the COMA message protocol.

        ``cb(value)`` on success; ``cb(None, error)`` on failure.  The
        read resolves through the address's directory site (at most one
        hop), then fetches from the owner; the owner ships the object with
        ownership, and the new owner publishes a DIR_UPDATE unless the
        shipper was the directory site and recorded the hop itself.
        """
        if addr in self.objects:
            self.stats.inc("reads_local")
            cb(self.objects[addr])
            return
        cm = self.site.cluster_manager
        target = cm.dir_site_for(addr)
        if target == self.local_id:
            owner = self.dir_owner(addr)
            if owner is None or owner == self.local_id:
                # no entry yet: an ownership handoff or a directory move
                # is in flight — re-resolve after a short delay, bounded
                self._read_unresolved(addr, cb, _attempt)
                return
            target = owner
        self._live_read_at(addr, target, cb, attempt=_attempt)

    def _read_unresolved(self, addr: GlobalAddress, cb,  # noqa: ANN001
                         attempt: int) -> None:
        if attempt >= self._READ_ATTEMPTS:
            cb(None, MemoryFault(f"read of unknown address {addr}"))
            return
        delay = 4.0 * self.config.network.latency * (attempt + 1)
        self.kernel.call_later(
            delay, lambda: self.live_read(addr, cb, _attempt=attempt + 1))

    def _live_read_at(self, addr: GlobalAddress, target: int, cb,  # noqa: ANN001
                      attempt: int) -> None:
        if attempt > self._READ_ATTEMPTS:
            cb(None, MemoryFault(f"read of {addr}: too many redirects"))
            return
        msg = SDMessage(
            type=MsgType.MEM_READ,
            src_site=self.local_id, dst_site=target,
            payload={"addr": addr},
        )
        self.stats.inc("reads_remote")

        def on_reply(reply: SDMessage) -> None:
            payload = reply.payload
            if "value" in payload:
                if self._adopt_shipped(reply):
                    cb(payload["value"])
                else:
                    self._read_unresolved(addr, cb, attempt)
            elif "owner" in payload:
                # the directory's redirect: the object lives there
                self._live_read_at(addr, payload["owner"], cb, attempt + 1)
            else:
                # not found: the owner-side handoff window — the old
                # owner already shipped the object, the new owner's
                # DIR_UPDATE is still in flight.  Re-resolve, bounded.
                self._read_unresolved(addr, cb, attempt)

        ok = self.site.message_manager.request(
            msg, on_reply, timeout=2.0,
            on_timeout=lambda: self._read_unresolved(addr, cb, attempt))
        if not ok:
            # target unreachable (crashed directory/owner): the address
            # re-homes once membership catches up — re-resolve, don't fail
            self._read_unresolved(addr, cb, attempt)

    def _adopt_shipped(self, reply: SDMessage) -> bool:
        """Take the ownership a MEM_READ_REPLY with a value carries.
        False — nothing adopted, the value not to be used — for a reply its
        sender stamped before the last rollback: recovery has restored
        every checkpointed object at its checkpointed owner, so adopting
        the straggler would put one address on two sites.  False too for a
        value without its epoch and version, which the table leaves
        optional only because a redirect has neither."""
        payload = reply.payload
        if "epoch" not in payload or "version" not in payload:
            self.site.message_manager.drop_malformed(
                f"MEM_READ_REPLY from {reply.src_site}: a value without "
                "its epoch or version")
            return False
        if self._stale_epoch(payload):
            self.stats.inc("stale_read_replies_dropped")
            return False
        self._adopt_remote_object(
            payload["addr"], payload["value"], payload["version"],
            reply.src_site, payload.get("recorded", False))
        return True

    def _on_mem_read_reply(self, msg: SDMessage) -> None:
        """A late value reply after a timed-out read shipped ownership all
        the same: adopt the object — dropping it would lose data.  A late
        redirect or not-found has nothing to adopt."""
        if "value" in msg.payload:
            self._adopt_shipped(msg)

    def _adopt_remote_object(self, addr: GlobalAddress, value: Any,
                             version: int, src: int,
                             recorded: bool = False) -> None:
        """Ownership arrived from ``src``: own the object, bump the
        migration version, and publish the new location — unless ``src``
        said it recorded the hand-off in its own directory
        (:meth:`_ship_out`).  Only its word counts: this site never
        guesses what the shipper's membership view made of the address."""
        self.objects[addr] = value
        self._versions[addr] = version + 1
        self.note("migrations_in", addr.pack(), src)
        if recorded:
            self._published_at[addr] = src
        else:
            self._publish_dir(addr)

    def apply_write(self, addr: GlobalAddress, value: Any) -> None:
        """Write in place when the object is here, else send the value
        towards its owner by way of the directory site."""
        if addr in self.objects:
            self.objects[addr] = value
            return
        target = self.site.cluster_manager.dir_site_for(addr)
        self.site.message_manager.send(SDMessage(
            type=MsgType.MEM_WRITE,
            src_site=self.local_id, dst_site=target,
            payload={"addr": addr, "value": value},
        ))
        self.stats.inc("writes_sent")

    def _on_apply_result(self, msg: SDMessage) -> None:
        payload = msg.payload
        if self._stale_epoch(payload):
            # in-flight result from a rolled-back epoch: the replay
            # re-produces it, and applying the stale copy would
            # contaminate a restored frame with pre-recovery state
            # (e.g. frame addresses that will never be allocated again)
            return
        self._apply_local(payload["addr"], payload["slot"],
                          payload["value"], msg.program)

    def _stale_epoch(self, payload: dict) -> bool:
        """True when a dataflow payload was stamped before the last rollback
        recovery.  Stale deliveries are dropped — the checkpoint already
        restored their content, and the replay re-sends anything in flight.
        """
        return payload["epoch"] < self.site.epoch

    def _on_frame_transfer(self, msg: SDMessage) -> None:
        # the pusher's note_pushed raised its own record of our load, so
        # it no longer holds the figure we last sent it — stale push or not
        self.site.message_manager.mark_told(msg.src_site)
        if self._stale_epoch(msg.payload):
            return
        for info_wire in msg.payload["program_infos"]:
            self.site.program_manager.learn_program_wire(info_wire)
        for wire in msg.payload["frames"]:
            frame = Microframe.from_wire(wire)
            self.note("frame_adopted", frame.frame_id.pack(), msg.src_site)
            self.register_frame(frame)

    def _on_mem_read(self, msg: SDMessage) -> None:
        """Answer with the value (and ownership), else with the owner the
        directory names, else with neither: not found."""
        addr = msg.payload["addr"]
        reply = {"addr": addr}
        if addr in self.objects:
            if self.site.processing_manager.holds(self._on_mem_read, msg):
                # ownership does not cross an open checkpoint wave: the
                # object is cut here, and ships once the wave has ended
                return
            reply.update(value=self.objects[addr], epoch=self.site.epoch,
                         version=self._versions.get(addr, 0))
            # ownership ships with the reply; the *requester* publishes a
            # DIR_UPDATE once it has adopted the object, unless the
            # directory is this very site and already knows
            if self._ship_out(addr, msg.src_site):
                reply["recorded"] = True
            self.stats.inc("reads_served")
        elif (owner := self.dir_owner(addr)) not in (None, self.local_id):
            reply["owner"] = owner
            self.stats.inc("redirects_served")
        else:
            self.stats.inc("reads_not_found")
        self.site.message_manager.send(make_reply(
            msg, MsgType.MEM_READ_REPLY, reply))

    def _on_mem_write(self, msg: SDMessage) -> None:
        addr = msg.payload["addr"]
        if addr in self.objects:
            self.objects[addr] = msg.payload["value"]
            self.stats.inc("writes_served")
            return
        hops = int(msg.payload.get("hops", 0))
        if hops >= 3:
            # the owner is moving faster than the directory converges;
            # dropping beats forwarding forever
            self.stats.inc("writes_undeliverable")
            return
        owner = self.dir_owner(addr)
        if owner is None:
            dir_site = self.site.cluster_manager.dir_site_for(addr)
            owner = dir_site if dir_site != self.local_id else None
        if owner is None or owner == self.local_id:
            self.stats.inc("writes_undeliverable")
            return
        payload = dict(msg.payload)
        payload["hops"] = hops + 1
        self.site.message_manager.send(SDMessage(
            type=MsgType.MEM_WRITE,
            src_site=self.local_id, dst_site=owner,
            program=msg.program,
            payload=payload,
        ))

    # ------------------------------------------------------------------
    # relocation (orderly sign-off, §3.4) and adoption

    def export_state(self) -> dict:
        """Serialize everything this site holds, for relocation to an heir.

        "All microframes and the local part of the global memory have to be
        relocated to other sites before shutdown" (§3.4).
        """
        return self._export(self.site.scheduling_manager.export_frames())

    def export_checkpoint(self) -> dict:
        """Non-draining snapshot for a checkpoint wave (queues stay put)."""
        return self._export(self.site.scheduling_manager.snapshot_frames())

    def _export(self, sched_frames: List[Microframe]) -> dict:
        # an execution whose effects have not dispatched goes as its frame
        return {
            "frames": [f.to_wire() for f in self.frames.values()]
                      + [f.to_wire() for f in sched_frames]
                      + self.site.processing_manager.uncommitted_wire(),
            "objects": [(addr, value, self._versions.get(addr, 0))
                        for addr, value in self.objects.items()],
            "dir": [(addr, owner, version, epoch)
                    for addr, (owner, version, epoch)
                    in self.dir_entries.items()],
            "pending": [(addr, slot, value, self._pending_programs.get(addr, -1))
                        for addr, pairs in self._pending_results.items()
                        for slot, value in pairs],
            "programs": self.site.program_manager.known_programs_wire(),
        }

    def reset_program_state(self) -> None:
        """Drop all dataflow state prior to recovery adoption.

        Memory objects and directory entries are cleared too: the snapshot
        shards re-own every checkpointed object, and a survivor keeping a
        post-checkpoint copy would fork ownership with the restored one
        (two sites holding the same attraction line).  Post-checkpoint
        allocations roll back with the frames that made them.
        """
        self.frames.clear()
        self._pending_results.clear()
        self._pending_programs.clear()
        self._held_results.clear()
        self.objects.clear()
        self._versions.clear()
        self._published_at.clear()
        self.dir_entries.clear()

    def adopt_state(self, state: dict) -> None:
        """Adopt a departed/recovered site's frames, objects, directory.

        Every adopted object is re-owned here with a bumped version and
        republished to its *current* directory site; adopted directory
        entries that this site does not cover are forwarded — this is how
        the directory is rehomed by the existing recovery/relocation waves
        (a leaver's heir covers the leaver's addresses, so an orderly
        sign-off forwards nothing).
        """
        self.site.program_manager.learn_programs_wire(state.get("programs", []))
        for addr, value, version in state.get("objects", []):
            self.objects[addr] = value
            self._versions[addr] = version + 1
            self._publish_dir(addr)
        cm = self.site.cluster_manager
        for addr, owner, version, epoch in state.get("dir", []):
            if addr in self.objects:
                continue  # re-owned above; a fresh entry was published
            entry_epoch = max(epoch, self.site.epoch)
            target = cm.dir_site_for(addr)
            if target == self.local_id:
                self._apply_dir_entry(addr, owner, version, entry_epoch)
            else:
                self._send_dir_update(addr, owner, version, target,
                                      epoch=entry_epoch)
        for addr, slot, value, program in state.get("pending", []):
            self._pending_results.setdefault(addr, []).append((slot, value))
            if program >= 0:
                self._pending_programs[addr] = program
        for wire in state.get("frames", []):
            frame = Microframe.from_wire(wire)
            if self.site.program_manager.is_active(frame.program):
                self.register_frame(frame)
