"""The message manager — central hub for inter-site communication (Fig. 6).

Outgoing path: a manager builds an :class:`SDMessage`; the message manager
assigns a sequence number, resolves the target's *logical* site id to a
*physical* address by querying the cluster manager's list, serializes, hands
the bytes to the security layer for sealing, and passes the envelope to the
network manager (the kernel transport).  Incoming path is the mirror image,
except that an envelope which never left the process may carry the message
it encodes (:class:`~repro.messages.SnapshotEnvelope`) and is then not parsed.

It also implements request/reply correlation (``reply_to``) with optional
timeouts, which every higher protocol (help requests, code fetches, memory
reads) builds on.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import SecurityError, SerializationError
from repro.common.ids import ManagerId
from repro.messages import MsgType, SDMessage, SnapshotEnvelope
from repro.site.manager_base import Manager
from repro.trace.causal import msg_node

#: callback invoked with the reply message
ReplyCallback = Callable[[SDMessage], None]


class _Pending:
    __slots__ = ("on_reply", "timeout_handle")

    def __init__(self, on_reply: ReplyCallback, timeout_handle: Any) -> None:
        self.on_reply = on_reply
        self.timeout_handle = timeout_handle


class MessageManager(Manager):
    manager_id = ManagerId.MESSAGE

    def __init__(self, site: "Any") -> None:
        super().__init__(site)
        self._next_seq = 1
        self._pending: Dict[int, _Pending] = {}
        #: peer -> (queue, sent_at): the stealable-queue figure our last
        #: message to that peer carried, oldest first; a negative figure
        #: means "unknown" (see :meth:`mark_told`).  Every message is stamped
        #: with one and the receiver applies it, so the record is kept here
        #: and not by the gossip that reads it (see :meth:`told_other_than`).
        #: Kept only with gossip on; every send and every gossip flush
        #: prunes what is older than a conversation (:meth:`prune_told`).
        self._told: Dict[int, Tuple[int, float]] = {}
        self._track_told = self.config.scheduling.gossip_interval > 0
        #: a conversation closes this long after our last message
        self._conversation = self.config.scheduling.gossip_staleness / 2

    # ------------------------------------------------------------------
    # sending

    def _assign_seq(self, msg: SDMessage) -> None:
        msg.invalidate_wire()  # fields below change the wire form
        msg.src_site = self.local_id
        if msg.seq < 0:
            msg.seq = self._next_seq
            self._next_seq += 1
        if msg.src_load < 0 and self.site.running:
            msg.src_load = self.site.site_manager.current_load()
        if msg.src_queue < 0 and self.site.running:
            msg.src_queue = self.site.scheduling_manager.stealable_depth()
        # causal stamp (tracing only — the disabled path never writes it):
        # the send inherits whatever causal context this site is currently
        # executing under (an incoming message or a frame execution).
        if self.tracer is not None and msg.cause_id < 0:
            site = self.site
            msg.cause_id = site.cause_node
            msg.origin_site = (site.cause_origin if site.cause_origin >= 0
                               else self.local_id)

    def send(self, msg: SDMessage) -> bool:
        """Send ``msg``; returns False if the target cannot be resolved.

        Messages to a site that has signed off are transparently rerouted to
        its heir (see cluster manager) — the heir adopted the leaver's
        frames and memory objects.
        """
        self._assign_seq(msg)
        dst = self.site.cluster_manager.effective_site(msg.dst_site)
        if dst == self.local_id:
            # local loopback: no serialization/network, small dispatch cost
            self.stats.inc("local_messages")
            msg.dst_site = dst
            tr = self.tracer
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "msg_local",
                        msg.type.name, msg.seq, msg.cause_id, msg.origin_site)
            self.kernel.cpu_run(self.cost.sched_decision_cost,
                                self._dispatch, msg)
            return True
        physical = self.site.cluster_manager.physical_of(dst)
        if physical is None:
            self.stats.inc("unresolvable")
            return False
        msg.dst_site = dst
        data = msg.encode()
        cpu_cost = self.cost.msg_fixed_cost + len(data) * self.cost.msg_byte_cost
        envelope = self.site.security_manager.protect(physical, data)
        if self.site.security_manager.enabled:
            cpu_cost += (self.cost.crypto_fixed_cost
                         + len(data) * self.cost.crypto_byte_cost)
        self.kernel.cpu_charge(cpu_cost)
        self.stats.inc("sent")
        self.stats.add("bytes_sent", len(envelope))
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "msg_send",
                    msg.type.name, dst, len(envelope), msg.seq,
                    msg.cause_id, msg.origin_site)
        ok = self.kernel.transport_send(physical, envelope, msg)
        if not ok:
            self.stats.inc("send_failed")
        elif self._track_told and msg.src_queue >= 0:
            # re-inserted, so the dict stays ordered by send time
            self._told.pop(dst, None)
            self._told[dst] = (msg.src_queue, self.kernel.now)
            self.prune_told()
        return ok

    def in_conversation(self) -> bool:
        """Whether any peer holds a figure of ours (possibly expired)."""
        return bool(self._told)

    def told_other_than(self, queue: int, limit: int) -> List[int]:
        """At most ``limit`` peers we are in conversation with whose last
        figure from us is not ``queue``, longest-silent first.  Peers with
        no entry hold no figure of ours that could be wrong."""
        return list(islice((peer for peer, entry in self._told.items()
                            if entry[0] != queue), limit))

    def mark_told(self, peer: Optional[int] = None) -> None:
        """``peer`` (or, with None, every peer on record) may no longer
        believe what we last told it: its record of us changed without a
        message of ours (it pushed us frames, we rolled back).  The entry
        stays, so the next gossip flush corrects it; a stranger stays a
        stranger."""
        told = self._told
        for known in (list(told) if peer is None else [peer]):
            if known in told:
                told[known] = (-1, told[known][1])
        self.site.scheduling_manager.arm_gossip()

    def forget_told(self, peer: int) -> None:
        """``peer`` departed: the conversation is over."""
        self._told.pop(peer, None)

    def prune_told(self) -> None:
        """Close the conversations whose last message is older than half
        the gossip staleness.  Bounded by what is dropped: the dict is in
        send order, so the scan stops at the first entry that stays."""
        before = self.kernel.now - self._conversation
        told = self._told
        while told:
            peer = next(iter(told))
            if told[peer][1] >= before:
                return
            del told[peer]

    def send_physical(self, physical: str, msg: SDMessage) -> bool:
        """Send directly to a physical address, bypassing logical resolution.

        Needed during sign-on, when the joiner has no logical id yet and
        knows only "the (ip) address of a site which is already part of the
        cluster" (§6).
        """
        self._assign_seq(msg)
        data = msg.encode()
        cpu_cost = self.cost.msg_fixed_cost + len(data) * self.cost.msg_byte_cost
        envelope = self.site.security_manager.protect(physical, data)
        if self.site.security_manager.enabled:
            cpu_cost += (self.cost.crypto_fixed_cost
                         + len(data) * self.cost.crypto_byte_cost)
        self.kernel.cpu_charge(cpu_cost)
        self.stats.inc("sent")
        self.stats.add("bytes_sent", len(envelope))
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "msg_send",
                    msg.type.name, msg.dst_site, len(envelope), msg.seq,
                    msg.cause_id, msg.origin_site)
        return self.kernel.transport_send(physical, envelope, msg)

    def request(self, msg: SDMessage, on_reply: ReplyCallback,
                timeout: Optional[float] = None,
                on_timeout: Optional[Callable[[], None]] = None) -> bool:
        """Send ``msg`` and invoke ``on_reply`` with the correlated reply."""
        self._assign_seq(msg)
        seq = msg.seq
        handle = None
        if timeout is not None:
            handle = self.kernel.call_later(timeout, self._timed_out, seq,
                                            on_timeout)
        self._pending[seq] = _Pending(on_reply, handle)
        try:
            ok = self.send(msg)
        except SerializationError:
            self._drop_pending(seq)  # never sent: no reply, no timeout
            raise
        if not ok:
            self._drop_pending(seq)
        return ok

    def _timed_out(self, seq: int,
                   on_timeout: Optional[Callable[[], None]]) -> None:
        if seq in self._pending:
            del self._pending[seq]
            self.stats.inc("request_timeouts")
            if on_timeout is not None:
                on_timeout()

    def _drop_pending(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is not None and pending.timeout_handle is not None:
            self.kernel.cancel(pending.timeout_handle)

    # ------------------------------------------------------------------
    # receiving

    def deliver_raw(self, envelope: bytes) -> None:
        """Entry point for the network manager: unseal, decode, dispatch.

        Every envelope is unsealed; the parse is skipped only for one that
        still carries the snapshot its sender took (nothing on the wire
        replaced the bytes, and no earlier delivery took the snapshot).
        """
        try:
            _sender, data = self.site.security_manager.unprotect(envelope)
        except SecurityError as exc:
            self.stats.inc("rejected_envelopes")
            self.log("security rejected envelope: %s", exc)
            return
        msg = (envelope.take() if type(envelope) is SnapshotEnvelope
               else None)
        if msg is None:
            try:
                msg = SDMessage.decode(data)
            except SerializationError as exc:
                self.stats.inc("malformed")
                self.log("malformed message dropped: %s", exc)
                return
            self.stats.inc("parsed")
        cpu_cost = self.cost.msg_fixed_cost + len(data) * self.cost.msg_byte_cost
        if self.site.security_manager.enabled:
            cpu_cost += (self.cost.crypto_fixed_cost
                         + len(data) * self.cost.crypto_byte_cost)
        self.stats.inc("received")
        self.stats.add("bytes_received", len(envelope))
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "msg_recv",
                    msg.type.name, msg.src_site, len(data), msg.seq)
        self.kernel.cpu_run(cpu_cost, self._dispatch, msg)

    #: message kinds a departed-but-forwarding site relays to its heir
    _FORWARDABLE = frozenset({
        MsgType.APPLY_RESULT, MsgType.FRAME_TRANSFER, MsgType.MEM_READ,
        MsgType.MEM_WRITE, MsgType.MEM_MIGRATE, MsgType.MEM_OBJECT,
        MsgType.DIR_UPDATE, MsgType.CODE_REQUEST,
        MsgType.CODE_PUSH_BINARY, MsgType.HELP_REQUEST, MsgType.SIGN_ON,
        MsgType.PROGRAM_REGISTER, MsgType.IO_OUTPUT,
    })

    def _forward_to_heir(self, msg: SDMessage, heir: int) -> None:
        """Relay a straggler to the heir without reassigning src/seq, so
        request/reply correlation still works end-to-end."""
        target = self.site.cluster_manager.effective_site(heir)
        physical = self.site.cluster_manager.physical_of(target)
        if physical is None:
            self.stats.inc("forward_failed")
            return
        msg.dst_site = target
        msg.invalidate_wire()  # re-addressed: must re-encode, not replay
        envelope = self.site.security_manager.protect(physical, msg.encode())
        self.stats.inc("forwarded_to_heir")
        self.kernel.transport_send(physical, envelope)

    def _dispatch(self, msg: SDMessage) -> None:
        tr = self.tracer
        if tr is None:
            self._dispatch_inner(msg)
            return
        # causal context: everything this handler does (sends, frame
        # enqueues) is caused by this message.  Restored on exit so nested
        # loopback dispatches under the sim kernel unwind correctly.
        site = self.site
        prev_node, prev_origin = site.cause_node, site.cause_origin
        if msg.src_site >= 0 and msg.seq >= 0:
            site.cause_node = msg_node(msg.src_site, msg.seq)
            site.cause_origin = (msg.origin_site if msg.origin_site >= 0
                                 else msg.src_site)
        try:
            self._dispatch_inner(msg)
        finally:
            site.cause_node, site.cause_origin = prev_node, prev_origin

    def _dispatch_inner(self, msg: SDMessage) -> None:
        if self.site.stopped:
            return
        if self.site.forward_to is not None:
            # zombie window after sign-off relocation: we hold no state
            if msg.reply_to < 0 and msg.type in self._FORWARDABLE:
                self._forward_to_heir(msg, self.site.forward_to)
                return
            # replies may still resolve local pending requests; fall through
        if msg.src_load >= 0 and msg.src_site != self.local_id:
            self.site.cluster_manager.note_load(msg.src_site, msg.src_load,
                                                queue=msg.src_queue)
        if msg.reply_to >= 0:
            pending = self._pending.pop(msg.reply_to, None)
            if pending is not None:
                if pending.timeout_handle is not None:
                    self.kernel.cancel(pending.timeout_handle)
                pending.on_reply(msg)
                return
            # fall through: unsolicited reply (e.g. after timeout) goes to
            # the target manager, which may still make use of it
            self.stats.inc("orphan_replies")
        self.site.route(msg)

    # ------------------------------------------------------------------
    def on_stop(self) -> None:
        for seq in list(self._pending):
            self._drop_pending(seq)

    def status(self) -> dict:
        base = super().status()
        base["pending_requests"] = len(self._pending)
        # live transports keep their own counters (queue depth, retries,
        # dead letters); expose them with the messaging stats so the site
        # manager's STATUS_QUERY reports the full delivery picture
        transport_stats = getattr(self.kernel, "transport_stats", None)
        if transport_stats is not None:
            base["transport"] = transport_stats()
        return base
