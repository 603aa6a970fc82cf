"""The message manager — central hub for inter-site communication (Fig. 6).

Outgoing path: a manager builds an :class:`SDMessage`; the message manager
assigns a sequence number, resolves the target's *logical* site id to a
*physical* address by querying the cluster manager's list, serializes, hands
the bytes to the security layer for sealing, and passes the envelope to the
network manager (the kernel transport).  Incoming path is the mirror image,
except that an envelope which never left the process may carry the message
it encodes (:class:`~repro.messages.SnapshotEnvelope`) and is then not parsed.
With security disabled the record is the envelope: neither path enters the
security layer, except to reject a sealed envelope.

It also implements request/reply correlation (``reply_to``) with optional
timeouts, which every higher protocol (help requests, code fetches, memory
reads) builds on, and the one delivery rule: a type whose row is
``must_arrive`` is acked by the receiver's message manager once its handler
took it, and resent by the sender's until the ACK comes back.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import SecurityError, SerializationError
from repro.common.ids import ManagerId
from repro.messages import (MESSAGE_TABLE, MsgType, SDMessage,
                            SnapshotEnvelope, make_reply)
from repro.security.layer import is_sealed
from repro.site.manager_base import Manager
from repro.trace.causal import msg_node

#: callback invoked with the reply message
ReplyCallback = Callable[[SDMessage], None]

#: sends of one must-arrive request before its ``on_timeout`` runs
DELIVERY_ATTEMPTS = 5


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
        #: whether envelopes are sealed; when not, nothing passes through
        #: the security manager but a sealed envelope to reject
        self._secure = site.security_manager.enabled

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

    def send(self, msg: SDMessage) -> bool:
        """Send ``msg``; returns False if the target cannot be resolved.

        Messages to a site that has signed off are transparently rerouted to
        its heir (see cluster manager) — the heir adopted the leaver's
        frames and memory objects.  A reply goes to its requester, whose
        ``seq`` it answers: to a leaver's address (it runs on until its
        hand-off settled), never to a crashed site.  A message that goes out
        is stamped on the target's record as ``last_sent``, which spares it
        a heartbeat.
        """
        self._assign_seq(msg)
        cluster = self.site.cluster_manager
        reply = msg.reply_to >= 0
        dst = msg.dst_site if reply else cluster.effective_site(msg.dst_site)
        if dst == self.local_id:
            # local loopback: no serialization/network, small dispatch cost
            self.stats.inc("local_messages")
            msg.dst_site = dst
            tr = self.tracer
            if tr is not None:
                # the journal, not the message, carries the cause: the
                # context this site is executing under (an incoming
                # message or a frame execution)
                tr.emit(self.kernel.now, self.local_id, "msg_local",
                        msg.type.name, msg.seq, self.site.cause_node)
            self.kernel.cpu_run(self.cost.sched_decision_cost,
                                self._dispatch, msg)
            return True
        record = cluster.sites.get(dst)
        if record is None or not (record.alive or (reply and record.left)):
            self.stats.inc("unresolvable")
            return False
        msg.dst_site = dst
        ok = self._transmit(record.physical, msg)
        if not ok:
            return False
        # any message is a heartbeat: the next beat to this peer is skipped
        record.last_sent = self.kernel.now
        if self._track_told and msg.src_queue >= 0:
            # re-inserted, so the dict stays ordered by send time
            self._told.pop(dst, None)
            self._told[dst] = (msg.src_queue, self.kernel.now)
            self.prune_told()
        return True

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
        return self._transmit(physical, msg)

    def _transmit(self, physical: str, msg: SDMessage) -> bool:
        """The one path onto the wire: seal and count (:meth:`_seal`),
        journal the send under the site's causal context, and hand the
        envelope to the transport."""
        envelope = self._seal(physical, msg)
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "msg_send",
                    msg.type.name, msg.dst_site, len(envelope), msg.seq,
                    self.site.cause_node)
        return self.kernel.transport_send(physical, envelope, msg)

    def _seal(self, physical: str, msg: SDMessage) -> bytes:
        """Encode and seal ``msg``, charge the CPU and count the bytes:
        what every envelope this site puts on the wire pays."""
        data = msg.encode()
        envelope = (self.site.security_manager.protect(physical, data)
                    if self._secure else data)
        self.kernel.cpu_charge(self._wire_cost(len(data)))
        self.stats.inc("sent")
        self.stats.add("bytes_sent", len(envelope))
        return envelope

    def _wire_cost(self, nbytes: int) -> float:
        """CPU seconds one end spends on a message of ``nbytes``: the
        codec, plus the cipher when security is on."""
        cost = self.cost
        seconds = cost.msg_fixed_cost + nbytes * cost.msg_byte_cost
        if self._secure:
            seconds += (cost.crypto_fixed_cost
                        + nbytes * cost.crypto_byte_cost)
        return seconds

    def request(self, msg: SDMessage, on_reply: ReplyCallback,
                timeout: Optional[float] = None,
                on_timeout: Optional[Callable[[], None]] = None) -> bool:
        """Send ``msg`` and invoke ``on_reply`` with the correlated reply.

        A must-arrive type's reply is the receiver's ACK.  When its
        ``timeout`` expires a fresh copy goes to the site first addressed
        (:meth:`_resend`), and ``on_timeout`` runs once the last attempt
        has expired."""
        if timeout is not None and msg.type in self._MUST_ARRIVE:
            on_timeout = partial(self._resend, msg, msg.dst_site, on_reply,
                                 timeout, on_timeout, 1)
        return self._request(msg, on_reply, timeout, on_timeout)

    def _request(self, msg: SDMessage, on_reply: ReplyCallback,
                 timeout: Optional[float],
                 on_timeout: Optional[Callable[[], None]]) -> bool:
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

    def _resend(self, sent: SDMessage, dst: int, on_reply: ReplyCallback,
                timeout: float, on_timeout: Optional[Callable[[], None]],
                attempt: int) -> None:
        """Attempt ``attempt`` of must-arrive ``sent`` expired unacked: send
        a copy with a new ``seq`` and re-stamped figures to ``dst``, the
        site first addressed, while this site runs and ``dst``'s record is
        alive, up to :data:`DELIVERY_ATTEMPTS` sends; else ``on_timeout``.
        A copy that lands after its directory entry moved on is fenced by
        the receiver's version or epoch check."""
        if not self.site.running:
            return
        record = self.site.cluster_manager.sites.get(dst)
        if attempt >= DELIVERY_ATTEMPTS:
            self.log("giving up on %s to site %d after %d attempts",
                     sent.type.name, dst, attempt)
        elif record is not None and record.alive:
            self.stats.inc("resends")
            copy = SDMessage(type=sent.type, src_site=self.local_id,
                             dst_site=dst, payload=dict(sent.payload),
                             program=sent.program)
            retry = partial(self._resend, copy, dst, on_reply, timeout,
                            on_timeout, attempt + 1)
            if self._request(copy, on_reply, timeout, retry):
                return
        if on_timeout is not None:
            on_timeout()

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

        With security on every envelope is unsealed; with it off, only an
        empty or a sealed one goes to the security manager, to be rejected.
        The parse is skipped only for an envelope that still carries the
        snapshot its sender took (nothing on the wire replaced the bytes,
        and no earlier delivery took the snapshot).
        """
        data = envelope
        if self._secure or not envelope or is_sealed(envelope):
            try:
                _sender, data = self.site.security_manager.unprotect(
                    envelope)
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
                self.drop_malformed(exc)
                return
            self.stats.inc("parsed")
        self.stats.inc("received")
        self.stats.add("bytes_received", len(envelope))
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "msg_recv",
                    msg.type.name, msg.src_site, len(data), msg.seq)
        self.kernel.cpu_run(self._wire_cost(len(data)), self._dispatch, msg)

    def drop_malformed(self, problem: object) -> None:
        """Count and log a message the decode refused, or a reply its
        handler found without a field its kind of answer needs."""
        self.stats.inc("malformed")
        self.log("malformed message dropped: %s", problem)

    #: message kinds a departed-but-forwarding site relays to its heir
    _FORWARDABLE = frozenset(
        row.type for row in MESSAGE_TABLE.values() if row.forwardable)
    #: message kinds acked on receipt and resent until acked
    _MUST_ARRIVE = frozenset(
        row.type for row in MESSAGE_TABLE.values() if row.must_arrive)

    def _forward_to_heir(self, msg: SDMessage, heir: int) -> None:
        """Relay a straggler to the heir without reassigning src/seq, so
        request/reply correlation still works end-to-end.  Counted and
        charged like any send, but not journaled: this site and the
        original sender's ``seq`` would name the wrong causal node."""
        target = self.site.cluster_manager.effective_site(heir)
        physical = self.site.cluster_manager.physical_of(target)
        if physical is None:
            return
        msg.dst_site = target
        msg.invalidate_wire()  # re-addressed: must re-encode, not replay
        envelope = self._seal(physical, msg)
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
        prev_node = site.cause_node
        if msg.src_site >= 0 and msg.seq >= 0:
            site.cause_node = msg_node(msg.src_site, msg.seq)
        try:
            self._dispatch_inner(msg)
        finally:
            site.cause_node = prev_node

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
        handled = self.site.route(msg)
        # a must-arrive copy is acked unless its handler returned False
        # (not ready yet: the sender's resend comes back); a loopback
        # delivery has no sender waiting
        if (msg.type in self._MUST_ARRIVE and handled is not False
                and msg.src_site != self.local_id):
            self.send(make_reply(msg, MsgType.ACK))

    # ------------------------------------------------------------------
    def on_stop(self) -> None:
        for seq in list(self._pending):
            self._drop_pending(seq)
