"""The scheduling manager (paper §3.3, §4, Fig. 5)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.common.ids import GlobalAddress, ManagerId
from repro.core.frames import FrameState, Microframe
from repro.core.threads import CompiledMicrothread
from repro.messages import MsgType, SDMessage, make_reply
from repro.sched.policies import (FrameQueue, pop_frame,
                                  take_batch_for_help, take_push_batch)
from repro.site.manager_base import Manager

#: base delay before a refused or unanswered thief asks again (grows with
#: the backoff) and base length of a refuser's cooldown
HELP_RETRY_INTERVAL = 5e-4
#: how long a HELP_REQUEST may stay unanswered before it counts as failed
HELP_TIMEOUT = 0.05
#: at most this many peers get a LOAD_REPORT from one gossip flush
GOSSIP_FANOUT = 3


class _HelpRequest(NamedTuple):
    """Bookkeeping for the in-flight help request."""

    target: int
    sent_at: float


class SchedulingManager(Manager):
    manager_id = ManagerId.SCHEDULING

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        #: frames with all parameters, awaiting a code pointer
        self.executable = FrameQueue()
        #: (frame, compiled) pairs ready for the processing manager
        self.ready: Deque[Tuple[Microframe, CompiledMicrothread]] = deque()
        #: frames whose code fetch is in flight (kept here so they can be
        #: relocated if the site leaves mid-fetch)
        self._pending_code: Dict[GlobalAddress, Microframe] = {}
        #: processing-manager slots waiting for work
        self._pm_hungry = 0
        #: the in-flight help request (at most one), keyed by message seq —
        #: the live-request fence: only a reply matching it may reset backoff
        #: and cooldown state (late replies already fed the failure path)
        self._inflight_helps: Dict[int, _HelpRequest] = {}
        self._help_backoff = 1.0
        self._help_timer = None
        #: peers that recently refused/timed out (logical id -> until time)
        self._cooldown: Dict[int, float] = {}
        #: per-frame code-fetch retry budget
        self._code_retries: Dict[GlobalAddress, int] = {}
        #: the pending LOAD_REPORT flush (see _gossip_flush), and the
        #: instant the next flush fires at
        self._flush_timer = None
        self._flush_at = 0.0
        #: guards against pushing frames we are adopting right now
        self._adopting = False
        # per-peer state (cooldown, in-flight fence) must not outlive the
        # peer: departed sites would otherwise accumulate forever in
        # long-lived clusters
        site.cluster_manager.on_site_departed.append(self._on_peer_departed)

    # ------------------------------------------------------------------
    # intake

    def enqueue_executable(self, frame: Microframe) -> None:
        """Attraction memory hands over a frame whose last parameter just
        arrived — or a stolen/migrated frame lands here."""
        if not self.site.program_manager.is_active(frame.program):
            self.stats.inc("frames_dropped_terminated")
            return
        frame.created_at = self.kernel.now
        self.kernel.cpu_charge(self.cost.sched_decision_cost)
        self.executable.append(frame)
        self.arm_gossip()
        self.stats.inc("frames_enqueued")
        tr = self.tracer
        if tr is not None:
            # the frame becomes executable under the current causal context
            # (the message that delivered its last parameter, the stolen
            # frame's HELP_REPLY, or the parent execution) — remember it so
            # exec_begin can link the execution into the DAG.
            frame.cause_node = self.site.cause_node
            frame.cause_origin = self.site.cause_origin
            tr.emit(self.kernel.now, self.local_id, "frame_enqueued",
                    frame.frame_id.pack(), frame.program)
        self._fill_ready()
        self._maybe_push()

    def stealable_depth(self) -> int:
        """Frames this site could hand to a thief right now (piggybacked on
        every outgoing message as the gossip load view's queue figure)."""
        return len(self.executable) + len(self.ready)

    # ------------------------------------------------------------------
    # executable -> ready (code fetch)

    def _fill_ready(self) -> None:
        """Prefetch code so the ready queue stays at its target depth.

        Critical-path frames are always pulled through immediately (§3.3
        hints), so they never wait behind the prefetch window.
        """
        cfg = self.config.scheduling
        want = cfg.ready_target + self._pm_hungry
        if cfg.use_hints:
            want += self.executable.critical
        while (self.executable
               and len(self.ready) + len(self._pending_code) < want):
            frame = pop_frame(self.executable, cfg.local_policy,
                              cfg.use_hints)
            self.arm_gossip()
            self._pending_code[frame.frame_id] = frame
            self.site.code_manager.get(
                frame.program, frame.thread_id,
                lambda compiled, f=frame: self._code_arrived(f, compiled))

    def _code_arrived(self, frame: Microframe,
                      compiled: Optional[CompiledMicrothread]) -> None:
        if self._pending_code.pop(frame.frame_id, None) is None:
            # frame was exported (sign-off relocation) while we fetched
            return
        if not self.site.program_manager.is_active(frame.program):
            self._code_retries.pop(frame.frame_id, None)
            return
        if compiled is None:
            retries = self._code_retries.get(frame.frame_id, 0)
            if retries < 3:
                self._code_retries[frame.frame_id] = retries + 1
                self.stats.inc("code_retries")
                self.executable.append(frame)
                self.arm_gossip()
                self._fill_ready()
                return
            self._code_retries.pop(frame.frame_id, None)
            self.stats.inc("code_unavailable")
            self.site.program_manager.local_exit(
                frame.program, None, failed=True,
                failure=f"code for thread {frame.thread_id} unavailable")
            return
        self._code_retries.pop(frame.frame_id, None)
        frame.state = FrameState.READY
        self.ready.append((frame, compiled))
        self.arm_gossip()
        self.stats.inc("frames_readied")
        self._serve()
        self._fill_ready()

    # ------------------------------------------------------------------
    # ready -> processing manager

    def pm_request_work(self) -> None:
        """The processing manager has a free slot (paper: "If it is idle,
        it requests a pair of an executable microframe and its
        corresponding microthread")."""
        self._pm_hungry += 1
        self._serve()
        if self._pm_hungry:
            self._fill_ready()
            self._maybe_help()

    def _serve(self) -> None:
        if self.site.paused:
            return
        pm = self.site.processing_manager
        while self.ready:
            frame = self.ready[0][0]
            requested = True
            if self._pm_hungry:
                self._pm_hungry -= 1
            elif (self.config.scheduling.use_hints and frame.critical
                  and pm.can_overcommit()):
                # critical-path frames jump the queue into an extra slot
                self.stats.inc("critical_overcommits")
                requested = False
            else:
                break
            frame, compiled = self.ready.popleft()
            self.arm_gossip()
            self.kernel.cpu_charge(self.cost.sched_decision_cost)
            pm.receive_work(frame, compiled, requested=requested)
        # a lane still hungry with nothing left queued asks now
        self._maybe_help()

    # ------------------------------------------------------------------
    # help requests (work stealing)

    def _maybe_help(self) -> None:
        """Ask for work when there is none (paper §4: "if it is idle"):
        nothing queued, nothing fetching, a lane hungry, no request in
        flight.  Latency is hidden by the lanes that are still running,
        not by a speculative request from a busy site."""
        if self.site.paused or self.site.sleeping:
            return
        if self.ready or self.executable or self._pending_code:
            return
        if not self._pm_hungry or self._inflight_helps:
            return
        if not self.site.program_manager.has_active_programs():
            return
        self._send_help()

    def _steal_want(self) -> int:
        """Thief capacity advertised on a help request: how many frames a
        steal-half reply may batch for us."""
        cfg = self.config.scheduling
        pm = self.site.processing_manager
        free = max(0, pm.max_parallel - pm.in_flight)
        return max(1, min(cfg.steal_batch_max, free + cfg.ready_target))

    def _send_help(self) -> None:
        """One request to one victim that is not on cooldown."""
        now = self.kernel.now
        cm = self.site.cluster_manager
        target = cm.pick_help_target(
            s for s, until in self._cooldown.items() if until > now)
        if target is None:
            self._schedule_retry()
            return
        payload = {"want": self._steal_want()}
        if cm.sites[target].load_at < 0:
            # we have never heard from the target, so it may not know us
            # yet; a peer that has addressed us has resolved our id
            payload["record"] = cm.local_record_wire()
        msg = SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
            dst_site=target, dst_manager=ManagerId.SCHEDULING,
            payload=payload,
        )
        self.stats.inc("help_sent")
        tr = self.tracer
        if tr is not None:
            tr.emit(now, self.local_id, "help_request", target)
        ok = self.site.message_manager.request(
            msg, self._on_help_reply, timeout=HELP_TIMEOUT,
            on_timeout=lambda: self._help_timed_out(msg.seq))
        if ok:
            self._inflight_helps[msg.seq] = _HelpRequest(target, now)
        else:
            self._help_failed(target)

    def _help_timed_out(self, seq: int) -> None:
        request = self._inflight_helps.pop(seq, None)
        if request is None:
            return
        self.stats.inc("help_timeouts")
        self._help_failed(request.target)

    def _help_failed(self, target: int) -> None:
        self._cooldown[target] = (self.kernel.now
                                  + self._help_backoff * HELP_RETRY_INTERVAL)
        self._schedule_retry()

    def _on_help_reply(self, msg: SDMessage) -> None:
        request = self._inflight_helps.pop(msg.reply_to, None)
        if request is not None:
            self.stats.observe("help_latency",
                               self.kernel.now - request.sent_at)
        if msg.type == MsgType.CANT_HELP:
            self.stats.inc("cant_help_received")
            # the thief sits out its backoff; the refuser's next queue
            # change reaches it as a correction (_gossip_flush)
            self._help_failed(msg.src_site)
            return
        if msg.type != MsgType.HELP_REPLY:
            self.log("unexpected help reply %s", msg.type.name)
            return
        self.stats.inc("steal_grants")
        self._adopt_steal(msg, live=request is not None)

    def _adopt_steal(self, msg: SDMessage, live: bool) -> None:
        """Account for stolen frames arriving via (batched) HELP_REPLY.

        Shared by the correlated reply path and the late-reply path in
        :meth:`handle`, so both count ``steals_in``, journal the steals,
        and enqueue every frame.  Only a *live* reply — one correlated to
        a request still in flight — may reset the help backoff and take
        the victim off cooldown: a late reply's request already timed out
        and fed the congestion state, and wiping that state here would
        erase backoff mid-congestion.
        """
        if msg.payload.get("epoch", self.site.epoch) < self.site.epoch:
            # the victim granted these frames before the last rollback
            # recovery: the checkpoint restored its own copies, so adopting
            # this stale batch would duplicate pre-recovery work — and a
            # stale frame's parameters may reference rolled-back addresses
            self.stats.inc("stale_steals_dropped")
            return
        for info_wire in msg.payload.get("program_infos", ()):
            self.site.program_manager.learn_program_wire(info_wire)
        tr = self.tracer
        self._adopting = True
        try:
            for wire in msg.payload["frames"]:
                frame = Microframe.from_wire(wire)
                self.stats.inc("steals_in")
                if tr is not None:
                    tr.emit(self.kernel.now, self.local_id, "steal_in",
                            msg.src_site, frame.frame_id.pack())
                self.enqueue_executable(frame)
        finally:
            self._adopting = False
        if live:
            self._help_backoff = 1.0
            self._cooldown.pop(msg.src_site, None)

    def _on_peer_departed(self, logical: int) -> None:
        """Membership hook: drop all per-peer scheduler state for a site
        that crashed or signed off."""
        self._cooldown.pop(logical, None)
        self.site.message_manager.forget_told(logical)
        stale = [seq for seq, req in self._inflight_helps.items()
                 if req.target == logical]
        for seq in stale:
            del self._inflight_helps[seq]
            self.stats.inc("help_targets_departed")
        if stale:
            # don't wait out the request timeout to re-target
            self._schedule_retry()

    def _schedule_retry(self) -> None:
        if self._help_timer is not None:
            return
        if not self.site.program_manager.has_active_programs():
            return
        delay = HELP_RETRY_INTERVAL * self._help_backoff
        # a constant ceiling: a refused thief is woken by the victim's
        # next queue change, so blind retries into a drained cluster only
        # pad the CANT_HELP count — but nothing wakes a thief nobody has
        # refused lately, so its longest sleep must not grow with the
        # membership
        self._help_backoff = min(self._help_backoff * 1.5, 20.0)
        self._help_timer = self.kernel.call_later(delay, self._retry_tick)

    def _retry_tick(self) -> None:
        self._help_timer = None
        if not self.site.running:
            return
        self._maybe_help()

    def kick(self) -> None:
        """External nudge (program registered, site joined/unpaused/woken):
        serve anything that accumulated, refill, retry stealing, and
        correct what the partners were not told while we could not say."""
        self._help_backoff = 1.0
        self.arm_gossip()
        if self._help_timer is not None:
            self.kernel.cancel(self._help_timer)
            self._help_timer = None
        # frames may have reached the ready queue while we were paused or
        # asleep — hand them out before considering a steal
        self._serve()
        self._fill_ready()
        self._maybe_help()

    # ------------------------------------------------------------------
    # serving help requests from other sites

    def handle(self, msg: SDMessage) -> None:
        if msg.type == MsgType.HELP_REQUEST:
            self._on_help_request(msg)
        elif msg.type in (MsgType.HELP_REPLY, MsgType.CANT_HELP):
            # late reply whose request timed out: a HELP_REPLY still carries
            # stolen frames, so adopt and count them — but the request
            # already fed the backoff/cooldown failure path when it timed
            # out, so the reply must NOT reset that state (live=False)
            if msg.type == MsgType.HELP_REPLY:
                self.stats.inc("late_steal_grants")
                self._adopt_steal(msg, live=False)
        elif msg.type == MsgType.LOAD_REPORT:
            self._on_load_report(msg)
        else:
            super().handle(msg)

    def _reply_help(self, msg: SDMessage, mtype: MsgType,
                    payload: dict) -> bool:
        """Answer a help request at its *originating* thief — which differs
        from ``msg.src_site`` when an empty victim forwarded the request."""
        return self.site.message_manager.send(SDMessage(
            type=mtype,
            src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
            dst_site=int(msg.payload.get("thief", msg.src_site)),
            dst_manager=ManagerId.SCHEDULING,
            payload=payload,
            reply_to=int(msg.payload.get("rseq", msg.seq))))

    def _cant_help(self, msg: SDMessage) -> None:
        self._reply_help(msg, MsgType.CANT_HELP, {})
        self.stats.inc("cant_help_sent")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "cant_help",
                    int(msg.payload.get("thief", msg.src_site)))

    def _forward_help(self, msg: SDMessage) -> bool:
        """Refer an unhelpable thief onward instead of bouncing it.

        A victim with nothing to spare often *knows* (from fresh gossip)
        a peer that does have stealable work — forwarding the request
        there turns a guaranteed CANT_HELP plus a thief-side retry round
        trip into a single extra hop.  The originating thief and its
        request seq ride in the payload so the eventual holder's reply
        goes straight back to the thief; a hop budget stops a drained
        cluster from playing pass-the-parcel.
        """
        hops = int(msg.payload.get("hops", 0))
        if hops >= 2:
            return False
        thief = int(msg.payload.get("thief", msg.src_site))
        now = self.kernel.now
        staleness = self.config.scheduling.gossip_staleness
        cm = self.site.cluster_manager
        best = None
        # hot-cache candidates ride along so a referral can point outside
        # the sample window; at small cluster sizes they are the same
        # records the sample already yielded and change nothing
        for r in (*cm.peer_sample(), *cm.hot_peers()):
            if r.logical in (thief, msg.src_site):
                continue
            if (r.load_at >= 0 and now - r.load_at <= staleness
                    and r.queue >= cm.STEAL_MIN_QUEUE
                    and (best is None or r.queue > best.queue)):
                best = r
        if best is None:
            return False
        payload = dict(msg.payload)
        payload["hops"] = hops + 1
        payload["thief"] = thief
        payload["rseq"] = int(msg.payload.get("rseq", msg.seq))
        # a stranger's record is for the first victim only
        payload.pop("record", None)
        self.stats.inc("helps_forwarded")
        tr = self.tracer
        if tr is not None:
            tr.emit(now, self.local_id, "help_forward", thief, best.logical)
        return self.site.message_manager.send(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
            dst_site=best.logical, dst_manager=ManagerId.SCHEDULING,
            payload=payload))

    def _on_help_request(self, msg: SDMessage) -> None:
        record = msg.payload.get("record")
        if record is not None:
            # a thief we did not know: its envelope figures found no record
            # to land on when the message manager applied them
            cm = self.site.cluster_manager
            cm.learn_record(record)
            cm.note_load(msg.src_site, msg.src_load, queue=msg.src_queue)
        if (self.site.paused or self.stealable_depth()
                <= self.config.scheduling.keep_local_min):
            if not self._forward_help(msg):
                self._cant_help(msg)
            return
        self._grant_help(msg)

    def _grant_help(self, msg: SDMessage) -> None:
        """Hand a batch of frames to the thief behind ``msg``.

        Steal-half, bounded by the thief's advertised capacity and the
        batch cap: hand over at most half of what we could spare.
        """
        cfg = self.config.scheduling
        avail = (len(self.executable) + len(self.ready)
                 - cfg.keep_local_min)
        want = int(msg.payload.get("want", 1))
        count = max(1, min(want, cfg.steal_batch_max, (avail + 1) // 2))
        frames = take_batch_for_help(self.executable, cfg.help_reply_policy,
                                     count)
        while len(frames) < count and self.ready:
            frame, _compiled = (self.ready.pop()
                                if cfg.help_reply_policy == "lifo"
                                else self.ready.popleft())
            frames.append(frame)
        if not frames:
            # nothing actually takeable: an empty HELP_REPLY would read
            # as generosity (backoff reset) — refuse honestly instead
            self._cant_help(msg)
            return
        self.arm_gossip()
        thief = int(msg.payload.get("thief", msg.src_site))
        tr = self.tracer
        if tr is not None:
            for frame in frames:
                tr.emit(self.kernel.now, self.local_id, "steal_out",
                        thief, frame.frame_id.pack())
        payload = {
            "frames": [frame.to_wire() for frame in frames],
            "program_infos": self._program_infos(frames),
            "epoch": self.site.epoch,
        }
        if not self._reply_help(msg, MsgType.HELP_REPLY, payload):
            # unresolvable thief (crashed between request and grant):
            # keep the frames — handing them to a dead site loses them
            self.stats.inc("grants_undeliverable")
            for frame in frames:
                self.executable.append(frame)
            self._fill_ready()
            return
        for _ in frames:
            self.stats.inc("steals_out")
        self.stats.observe("steal_batch", float(len(frames)))

    def _program_infos(self, frames: List[Microframe]) -> List[dict]:
        pm = self.site.program_manager
        return [pm.get(pid).to_wire()
                for pid in sorted({f.program for f in frames})
                if pm.knows(pid)]

    # ------------------------------------------------------------------
    # load gossip + proactive push

    def _on_load_report(self, msg: SDMessage) -> None:
        self.stats.inc("gossip_received")
        if not self._pm_hungry:
            # we have work: maybe shed some surplus onto an idle peer
            self._maybe_push()
        elif msg.src_queue >= 1:
            # a single spare frame wakes a hungry site (STEAL_MIN_QUEUE
            # bets that a queue-1 victim runs the frame itself first —
            # wrong in the drain phase, where single-frame bursts are all
            # there is).  Fresh positive first-hand evidence beats stale
            # failure memory: take the sender off cooldown, drop the
            # backoff a streak of startup CANT_HELPs built up, and react
            # now instead of waiting out the retry timer
            self._cooldown.pop(msg.src_site, None)
            self._help_backoff = 1.0
            self._maybe_help()

    def arm_gossip(self) -> None:
        """Our figure may have moved away from one a partner holds (the
        queue changed, a partner's record of us changed, or we could not
        speak until now): make sure a flush is pending.

        Nothing is armed without a conversation — with gossip off there
        never is one.  The flush fires on the instants a periodic tick
        would use: the site's start plus ``gossip_interval``, added up one
        at a time, and the first such instant after now."""
        if (self._flush_timer is not None or not self.site.running
                or not self.site.message_manager.in_conversation()):
            return
        interval = self.config.scheduling.gossip_interval
        at, now = self._flush_at, self.kernel.now
        while at <= now:
            at += interval
        self._flush_at = at
        self._flush_timer = self.kernel.call_at(at, self._gossip_flush)

    def _gossip_flush(self) -> None:
        """Correct the peers we are in conversation with.

        A conversation with a peer opens with any message of ours handed
        to the transport and closes ``gossip_staleness / 2`` after the
        last one; the message manager keeps the record, because every
        message carries a figure.  A flush is pending only while a partner
        may hold a wrong figure, and reports to at most ``GOSSIP_FANOUT``
        partners whose last figure from us is not our stealable queue any
        more; it comes back at the next instant only if one is left.

        Only the queue is compared: it is what a thief acts on, and the
        load moves with every execution that starts or ends.  A peer
        outside the record gets nothing — it holds no figure of ours to
        correct.  The report is an envelope with an empty payload: the
        figures ride in ``src_load`` / ``src_queue`` like on every other
        message.  Nothing re-sends an unchanged figure, so a lost
        correction misleads until the receiver's ``gossip_staleness``
        expires it.
        """
        self._flush_timer = None
        if not self.site.running:
            return
        self._flush_at += self.config.scheduling.gossip_interval
        self.stats.inc("gossip_flushes")
        mm = self.site.message_manager
        mm.prune_told()
        peers = mm.told_other_than(self.stealable_depth(), GOSSIP_FANOUT + 1)
        if not peers:
            return
        if (not self.site.paused and not self.site.sleeping
                and self.site.program_manager.has_active_programs()):
            for peer in peers[:GOSSIP_FANOUT]:
                mm.send(SDMessage(
                    type=MsgType.LOAD_REPORT,
                    src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
                    dst_site=peer, dst_manager=ManagerId.SCHEDULING,
                ))
                self.stats.inc("gossip_sent")
            if len(peers) <= GOSSIP_FANOUT:
                return
        self.arm_gossip()

    def _maybe_push(self) -> None:
        """Proactive work sharing: an overloaded site pushes surplus frames
        toward a peer it knows (freshly) to be idle, before that peer asks."""
        cfg = self.config.scheduling
        if not cfg.push_enabled or self._adopting:
            return
        if self.site.paused or self.site.sleeping or self._pm_hungry:
            return
        spare = len(self.executable)
        floor = max(cfg.keep_local_min, cfg.push_min_queue)
        if spare <= floor:
            return
        target = self.site.cluster_manager.pick_push_target()
        if target is None:
            return
        count = min(cfg.steal_batch_max, (spare + 1) // 2, spare - floor)
        frames = take_push_batch(self.executable, cfg.help_reply_policy,
                                 count)
        if not frames:
            return
        self.arm_gossip()
        tr = self.tracer
        for frame in frames:
            self.stats.inc("frames_pushed")
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "push_out",
                        target, frame.frame_id.pack())
        self.site.message_manager.send(SDMessage(
            type=MsgType.FRAME_TRANSFER,
            src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
            dst_site=target, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={
                "frames": [frame.to_wire() for frame in frames],
                "program_infos": self._program_infos(frames),
                "epoch": self.site.epoch,
            },
        ))
        self.site.cluster_manager.note_pushed(target, len(frames))

    # ------------------------------------------------------------------
    # bookkeeping

    def drop_program(self, pid: int) -> None:
        before = self.queue_depth()
        self.executable = FrameQueue(f for f in self.executable
                                     if f.program != pid)
        self.ready = deque((f, c) for f, c in self.ready if f.program != pid)
        self._pending_code = {fid: f for fid, f in self._pending_code.items()
                              if f.program != pid}
        self.arm_gossip()
        # every queued frame of the dead program is a termination drop —
        # counted so frame conservation (enqueues vs outcomes) stays exact
        for _ in range(before - self.queue_depth()):
            self.stats.inc("frames_dropped_terminated")
        # retry budgets key off frame ids, so entries for this program's
        # frames would otherwise accumulate across program lifetimes
        if self._code_retries:
            kept = {f.frame_id for f in self.executable}
            kept.update(f.frame_id for f, _c in self.ready)
            kept.update(self._pending_code)
            self._code_retries = {fid: n
                                  for fid, n in self._code_retries.items()
                                  if fid in kept}

    def snapshot_frames(self) -> List[Microframe]:
        """Copy of queued frames (checkpoint wave — queues stay in place)."""
        return (list(self.executable) + [f for f, _c in self.ready]
                + list(self._pending_code.values()))

    def reset_for_recovery(self) -> None:
        """Drop every queued frame (rollback: the checkpoint restores them).

        Clearing ``_pending_code`` matters: stale in-flight code fetches
        would otherwise keep counting against the ready-queue budget and
        wedge ``_fill_ready`` forever.
        """
        self.executable.clear()
        self.ready.clear()
        self._pending_code.clear()
        self._code_retries.clear()
        # a rollback discards pushes and replies in flight on both sides,
        # so what a peer holds no longer follows from what we sent it:
        # correct every partner rather than reason about which figures
        # survived (marking arms the flush the cleared queue needs too)
        self.site.message_manager.mark_told()

    def export_frames(self) -> List[Microframe]:
        """Drain all queues (including in-flight code fetches) for sign-off
        relocation (§3.4)."""
        frames = (list(self.executable) + [f for f, _c in self.ready]
                  + list(self._pending_code.values()))
        self.executable.clear()
        self.ready.clear()
        self._pending_code.clear()
        self.arm_gossip()
        # the frames start fresh on their new site; keeping the retry map
        # here would leak one entry per relocated frame forever
        self._code_retries.clear()
        return frames

    def queue_depth(self) -> int:
        return (len(self.executable) + len(self.ready)
                + len(self._pending_code))

    def on_start(self) -> None:
        # no partner holds a figure yet, so nothing is armed: this only
        # anchors the flush instants
        self._flush_at = (self.kernel.now
                          + self.config.scheduling.gossip_interval)

    def on_stop(self) -> None:
        if self._help_timer is not None:
            self.kernel.cancel(self._help_timer)
            self._help_timer = None
        if self._flush_timer is not None:
            self.kernel.cancel(self._flush_timer)
            self._flush_timer = None

    def status(self) -> dict:
        base = super().status()
        base["executable"] = len(self.executable)
        base["ready"] = len(self.ready)
        base["pending_code"] = len(self._pending_code)
        base["inflight_helps"] = len(self._inflight_helps)
        return base
