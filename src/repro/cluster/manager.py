"""The cluster manager (paper §4).

Maintains the site list, runs the sign-on/sign-off protocols, allocates
logical site ids, answers physical-address lookups for the message manager,
picks help-request targets from statistical load data, and (optionally)
exchanges heartbeats for crash detection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.common.errors import ClusterError
from repro.common.ids import GlobalAddress, ManagerId
from repro.messages import MsgType, SDMessage, make_reply
from repro.cluster.id_allocation import (
    CentralAllocator,
    ContingentAllocator,
    ModuloAllocator,
    make_allocator,
)
from repro.cluster.records import SiteRecord
from repro.site.manager_base import Manager


class ClusterManager(Manager):
    manager_id = ManagerId.CLUSTER

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self.sites: Dict[int, SiteRecord] = {}
        self.allocator = make_allocator(
            self.config.cluster.id_allocation,
            self.config.cluster.contingent_size)
        self._heartbeat_timer = None
        self._pending_block_request = False
        #: sign-ons queued while waiting for a fresh id block (contingent)
        self._deferred_signons: List[SDMessage] = []
        #: callbacks fired when a new site joins: fn(logical_id)
        self.on_site_joined: List[Callable[[int], None]] = []
        #: callbacks fired when a site crashes or signs off: fn(logical_id)
        self.on_site_departed: List[Callable[[int], None]] = []
        #: incrementally maintained membership caches — rebuilt only on
        #: join/departure, never per message or per gossip flush
        self._sorted_alive_peers: List[int] = []
        self._alive_records: Optional[List[SiteRecord]] = None
        #: rotating window cursor for bounded victim/push sampling
        self._pick_cursor = 0
        #: per-peer time this site *started* watching it for liveness.
        #: Membership churn shifts the heartbeat ring, so a peer can enter
        #: our watch set with no heartbeat history at all — its silence is
        #: our fault, not a crash, until a full timeout has passed.
        self._watch_since: Dict[int, float] = {}
        #: peers recently reported (first-hand) to hold stealable work —
        #: lets victim selection find the few busy sites of a large
        #: cluster without scanning or sampling all of it
        self._hot_peers: Dict[int, SiteRecord] = {}
        #: physical address -> first record seen with it — the duplicate
        #: sign-on check and transport suspicion used to re-walk every
        #: record per event, an O(n²) tax on the n-site join wave
        self._by_physical: Dict[str, SiteRecord] = {}
        #: freshly joined records queued for the next batched
        #: CLUSTER_INFO announcement (see _flush_announcements)
        self._announce_queue: List[SiteRecord] = []
        self._announce_timer = None

    # ------------------------------------------------------------------
    # bootstrap / join

    def bootstrap(self) -> int:
        """Become the first site of a new cluster."""
        local = self.allocator.bootstrap_id()
        self._adopt_local_id(local)
        self._add_self_record()
        if isinstance(self.allocator, ContingentAllocator):
            self.allocator.init_as_root()
        return local

    def _adopt_local_id(self, local: int) -> None:
        self.site.site_id = local
        if isinstance(self.allocator, (CentralAllocator, ModuloAllocator)):
            self.allocator.set_local_id(local)

    def _add_self_record(self) -> None:
        cfg = self.site.site_config
        self.sites[self.local_id] = SiteRecord(
            logical=self.local_id,
            physical=self.kernel.local_physical(),
            platform=cfg.platform,
            speed=cfg.speed,
            name=cfg.name,
            code_distribution=cfg.code_distribution,
            reliable=cfg.reliable,
            last_seen=self.kernel.now,
        )
        self._by_physical.setdefault(
            self.sites[self.local_id].physical, self.sites[self.local_id])

    #: how long a joiner waits for its SIGN_ON_ACK before resending
    SIGN_ON_RETRY = 0.25

    def join(self, bootstrap_physical: str) -> None:
        """Sign on to an existing cluster via a known physical address.

        "With the help request, site A gives information about itself
        (processing speed, work load, etc.) to the cluster and receives in
        turn information about other sites" (§3.4) — the SIGN_ON carries the
        self-description, the ACK carries the cluster list.  The request is
        resent until the ACK arrives (the contacted site may itself still
        be signing on, or the message may be travelling a lossy transport).
        """
        self._send_sign_on(bootstrap_physical)
        self.kernel.call_later(self.SIGN_ON_RETRY, self._retry_sign_on,
                               bootstrap_physical)

    def _retry_sign_on(self, bootstrap_physical: str) -> None:
        if self.site.running or self.site.stopped:
            return
        self.stats.inc("sign_on_retries")
        self._send_sign_on(bootstrap_physical)
        self.kernel.call_later(self.SIGN_ON_RETRY, self._retry_sign_on,
                               bootstrap_physical)

    def _send_sign_on(self, bootstrap_physical: str) -> None:
        cfg = self.site.site_config
        msg = SDMessage(
            type=MsgType.SIGN_ON,
            src_site=-1, src_manager=ManagerId.CLUSTER,
            dst_site=-1, dst_manager=ManagerId.CLUSTER,
            payload={
                "physical": self.kernel.local_physical(),
                "platform": cfg.platform,
                "speed": cfg.speed,
                "name": cfg.name,
                "code_distribution": cfg.code_distribution,
                "reliable": cfg.reliable,
            },
        )
        self.site.message_manager.send_physical(bootstrap_physical, msg)

    # ------------------------------------------------------------------
    # lookups used by the message manager and scheduler

    def effective_site(self, logical: int) -> int:
        """Follow heir links of departed sites (§3.4 relocation)."""
        record = self.sites.get(logical)
        if record is None or record.alive or record.heir is None:
            return logical  # common case: no relocation — no cycle set needed
        seen: Set[int] = {logical}
        current = record.heir
        while current not in seen:
            seen.add(current)
            record = self.sites.get(current)
            if record is None or record.alive or record.heir is None:
                return current
            current = record.heir
        return current

    def physical_of(self, logical: int) -> Optional[str]:
        record = self.sites.get(logical)
        if record is None or not record.alive:
            return None
        return record.physical

    def alive_peers(self) -> List[SiteRecord]:
        """Alive peer records, cached between membership changes.

        Callers iterate the returned list; they must not mutate it.
        """
        records = self._alive_records
        if records is None:
            records = self._alive_records = [
                r for r in self.sites.values()
                if r.alive and r.logical != self.local_id]
        return records

    def sorted_alive_ids(self) -> List[int]:
        """Sorted alive peer ids, maintained incrementally on membership
        change — O(1) per call instead of an O(n log n) rebuild."""
        return self._sorted_alive_peers

    def dir_site_for(self, addr: GlobalAddress) -> int:
        """Directory site for ``addr``: its homesite — or the heir that
        inherited the homesite's address space by sign-off or recovery —
        while that site is alive in this view; an orphan (homesite
        crashed, no heir yet) is answered for by the heir rule's
        candidate: the lowest alive id above the homesite, wrapping, this
        site included."""
        home = self.effective_site(addr.site)
        record = self.sites.get(home)
        if record is not None and record.alive:
            return home
        peers = self._sorted_alive_peers
        if not peers:
            return self.local_id
        above = peers[bisect_right(peers, home) % len(peers)]
        return min(above, self.local_id,
                   key=lambda site: (site <= home, site))

    #: bounded candidate window for victim/push selection: clusters at or
    #: below this size keep the full scan (bit-identical behaviour);
    #: larger clusters scan a rotating window so each selection stays
    #: O(1) in cluster size
    PICK_SAMPLE = 16
    #: only a victim whose fresh queue figure is at least this deep is
    #: worth a request: a site advertising a single spare frame will
    #: almost always run it itself before the request lands, so begging
    #: it mostly buys a CANT_HELP (the thundering-herd dampener for
    #: victim selection, the hot-peer cache and help-request forwarding)
    STEAL_MIN_QUEUE = 2

    def peer_sample(self) -> List[SiteRecord]:
        """Alive peers to consider for one scheduling decision."""
        peers = self.alive_peers()
        k = self.PICK_SAMPLE
        if len(peers) <= k:
            return peers
        start = self._pick_cursor % len(peers)
        self._pick_cursor = start + k
        window = peers[start:start + k]
        if len(window) < k:
            window = window + peers[:k - len(window)]
        return window

    def pick_help_target(self, exclude: Iterable[int] = ()) -> Optional[int]:
        """Choose the peer most likely to have spare work (§4: "based on the
        data currently known about the other sites").

        Selection order: a peer with a *fresh* positive stealable-queue
        figure (deepest queue wins) — drawn from the hot-peer cache first,
        then the sample window — else a peer whose figures are stale or
        never heard (probing refreshes the view), else a fresh peer whose
        total load suggests work may surface soon.  When every fresh peer
        is known-empty, returns None so the scheduler backs off instead of
        paying a round trip for a guaranteed CANT_HELP.
        """
        excluded = set(exclude)
        now = self.kernel.now
        staleness = self.config.scheduling.gossip_staleness
        candidates = [r for r in self.peer_sample()
                      if r.logical not in excluded]
        fresh, unknown = [], []
        for r in candidates:
            if r.load_at >= 0 and now - r.load_at <= staleness:
                fresh.append(r)
            else:
                unknown.append(r)
        with_work = [r for r in fresh if r.queue >= self.STEAL_MIN_QUEUE]
        # the hot cache sees every load report, not just the sample
        # window: in a large cluster with few busy sites this is what
        # keeps work discovery O(1) instead of O(sites) blind probing.
        # (At <= PICK_SAMPLE peers the sample is the full peer list and
        # already contains every hot record — behaviour is unchanged.)
        seen = {r.logical for r in with_work}
        with_work.extend(r for r in self.hot_peers()
                         if r.logical not in excluded
                         and r.logical not in seen)
        if with_work:
            best = max(r.queue for r in with_work)
            top = [r for r in with_work if r.queue >= best]
            return self.kernel.rng.choice(top).logical
        if not candidates:
            return None
        if unknown:
            return self.kernel.rng.choice(unknown).logical
        busy = [r for r in fresh if r.load >= 2]
        if busy:
            best = max(r.load for r in busy)
            top = [r for r in busy if r.load >= best]
            return self.kernel.rng.choice(top).logical
        return None

    def pick_push_target(self) -> Optional[int]:
        """A peer known (freshly) to sit idle — the proactive-push target."""
        now = self.kernel.now
        staleness = self.config.scheduling.gossip_staleness
        idle = [r for r in self.peer_sample()
                if r.load_at >= 0 and now - r.load_at <= staleness
                and r.queue <= 0 and r.load < 1]
        if not idle:
            return None
        best = max(r.load_at for r in idle)
        top = [r for r in idle if r.load_at >= best]
        return self.kernel.rng.choice(top).logical

    def note_pushed(self, logical: int, nframes: int) -> None:
        """Account frames just pushed at ``logical`` so consecutive pushes
        spread over different idle peers instead of dogpiling one."""
        record = self.sites.get(logical)
        if record is not None:
            record.queue += nframes
            record.load += nframes
            self._note_hot(record)

    def note_load(self, logical: int, load: int,
                  queue: Optional[int] = None) -> None:
        record = self.sites.get(logical)
        if record is not None:
            record.load = load
            if queue is not None and queue >= 0:
                record.queue = queue
            record.load_at = self.kernel.now
            record.last_seen = self.kernel.now
            self._note_hot(record)

    #: hot-peer cache bound — the busy minority of even a huge cluster
    HOT_CAP = 32

    def _note_hot(self, record: SiteRecord) -> None:
        """Track (or drop) ``record`` in the hot-peer cache after a load
        figure changed."""
        if (record.alive
                and record.queue >= self.STEAL_MIN_QUEUE):
            self._hot_peers[record.logical] = record
            if len(self._hot_peers) > self.HOT_CAP:
                evict = min(self._hot_peers.values(),
                            key=lambda r: r.load_at)
                del self._hot_peers[evict.logical]
        else:
            self._hot_peers.pop(record.logical, None)

    def hot_peers(self) -> List[SiteRecord]:
        """Peers with a fresh positive stealable-queue figure, regardless
        of where in the membership the sample window currently points.
        Prunes entries that died or went stale since they were noted."""
        now = self.kernel.now
        staleness = self.config.scheduling.gossip_staleness
        stale = [logical for logical, r in self._hot_peers.items()
                 if not r.alive or r.queue < self.STEAL_MIN_QUEUE
                 or r.load_at < 0 or now - r.load_at > staleness]
        for logical in stale:
            del self._hot_peers[logical]
        return list(self._hot_peers.values())

    def observe(self, logical: int) -> None:
        record = self.sites.get(logical)
        if record is not None:
            record.last_seen = self.kernel.now

    def local_record_wire(self) -> list:
        """Self-description piggybacked on a help request to a peer we
        have never heard from, so it can resolve us and answer ("propagated
        to the other sites ... by and by").  A peer that has sent us a
        message has resolved our id already and gets no record."""
        record = self.sites.get(self.local_id)
        if record is None:
            raise ClusterError("site has no local record yet")
        return record.to_wire()

    def learn_record(self, wire: list) -> None:
        self._merge_record(SiteRecord.from_wire(wire))

    def _merge_record(self, incoming: SiteRecord) -> None:
        if incoming.logical == self.local_id:
            return
        if incoming.physical == self.kernel.local_physical():
            # our own record echoed back (e.g. a batched announcement
            # overtaking the SIGN_ON_ACK while local_id is still -1):
            # adopting ourselves as a peer would shift our heartbeat ring
            # and cascade false crash detections
            return
        self.allocator.note_seen(incoming.logical)
        existing = self.sites.get(incoming.logical)
        if existing is None:
            self.sites[incoming.logical] = incoming
            self._by_physical.setdefault(incoming.physical, incoming)
            incoming.last_seen = self.kernel.now
            tr = self.tracer
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "site_join",
                        incoming.logical)
            if incoming.alive:
                self._note_joined(incoming.logical)
        else:
            was_alive = existing.alive
            existing.merge_newer(incoming)
            if was_alive and not existing.alive:
                # merge_newer can learn of a death via gossiped records,
                # which bypasses mark_dead/_on_sign_off — the membership
                # caches must still be told
                self._note_departed(existing.logical)

    def _note_joined(self, logical: int) -> None:
        """A peer became a live member: update the incremental caches and
        fire the join hooks."""
        index = bisect_left(self._sorted_alive_peers, logical)
        if (index >= len(self._sorted_alive_peers)
                or self._sorted_alive_peers[index] != logical):
            insort(self._sorted_alive_peers, logical)
        self._alive_records = None
        for callback in self.on_site_joined:
            callback(logical)

    def _note_departed(self, logical: int) -> None:
        """A live member crashed or signed off: shrink the caches, then
        fire the departure hooks (scheduler state cleanup, directory
        rebalancing)."""
        index = bisect_left(self._sorted_alive_peers, logical)
        if (index < len(self._sorted_alive_peers)
                and self._sorted_alive_peers[index] == logical):
            self._sorted_alive_peers.pop(index)
        self._alive_records = None
        self._hot_peers.pop(logical, None)
        for callback in self.on_site_departed:
            callback(logical)

    # ------------------------------------------------------------------
    # message handling

    def handle(self, msg: SDMessage) -> None:
        handler = {
            MsgType.SIGN_ON: self._on_sign_on,
            MsgType.SIGN_ON_ACK: self._on_sign_on_ack,
            MsgType.SIGN_OFF: self._on_sign_off,
            MsgType.CLUSTER_INFO: self._on_cluster_info,
            MsgType.HEARTBEAT: self._on_heartbeat,
            MsgType.ID_BLOCK_REQUEST: self._on_id_block_request,
            MsgType.ID_BLOCK_REPLY: self._on_id_block_reply,
            MsgType.CRASH_NOTICE: self._on_crash_notice,
        }.get(msg.type)
        if handler is None:
            super().handle(msg)
            return
        handler(msg)

    # -- sign-on ---------------------------------------------------------
    def _on_sign_on(self, msg: SDMessage) -> None:
        if not self.site.running:
            # we are still signing on ourselves and know nobody to forward
            # to; the joiner's retry will find us ready
            self.stats.inc("sign_ons_ignored_prestart")
            return
        # duplicate sign-on (the joiner retried): resend the original ACK.
        # O(1) via the physical index — a 1024-site join wave used to
        # re-walk the whole record list per retry
        record = self._by_physical.get(msg.payload["physical"])
        if record is not None and record.logical != self.local_id:
            self._send_ack(record)
            self.stats.inc("duplicate_sign_ons")
            return
        if not self.allocator.can_allocate():
            self._forward_or_defer_sign_on(msg)
            return
        new_id = self.allocator.allocate()
        record = SiteRecord(
            logical=new_id,
            physical=msg.payload["physical"],
            platform=msg.payload.get("platform", "py-generic"),
            speed=msg.payload.get("speed", 1.0),
            name=msg.payload.get("name", ""),
            code_distribution=msg.payload.get("code_distribution", False),
            reliable=msg.payload.get("reliable", True),
            last_seen=self.kernel.now,
        )
        self._merge_record(record)
        self._send_ack(record, grant_block=True)
        self.stats.inc("sign_ons_served")
        self._announce(record)

    def _send_ack(self, record: SiteRecord, grant_block: bool = False) -> None:
        payload = {
            "your_id": record.logical,
            "sites": [r.to_wire() for r in self.sites.values()],
            "programs": self.site.program_manager.known_programs_wire(),
        }
        if grant_block and isinstance(self.allocator, ContingentAllocator):
            try:
                low, high = self.allocator.grant_block()
                payload["id_block"] = (low, high)
            except ClusterError:
                # non-root contingent sites can allocate single ids from
                # their block but cannot grant blocks; joiner will request
                # one from site 0 when it needs to allocate
                pass
        ack = SDMessage(
            type=MsgType.SIGN_ON_ACK,
            src_site=self.local_id, src_manager=ManagerId.CLUSTER,
            dst_site=record.logical, dst_manager=ManagerId.CLUSTER,
            payload=payload,
        )
        self.site.message_manager.send_physical(record.physical, ack)

    def _forward_or_defer_sign_on(self, msg: SDMessage) -> None:
        """Cannot allocate: route the request to a site that can."""
        if isinstance(self.allocator, ContingentAllocator):
            if hasattr(self.allocator, "_grant_cursor"):
                # we are the root: carve ourselves a fresh block and retry
                low, high = self.allocator.grant_block()
                self.allocator.receive_block(low, high)
                self._on_sign_on(msg)
                return
            # ask the root for a fresh block, defer the joiner meanwhile
            self._deferred_signons.append(msg)
            self._request_id_block()
            return
        if isinstance(self.allocator, ModuloAllocator):
            servers = [r.logical for r in self.alive_peers()
                       if r.logical < self.allocator.stride]
            target = min(servers) if servers else 0
        else:  # central
            target = 0
        if target == self.local_id:
            raise ClusterError("id allocation forwarding loop")
        forward = SDMessage(
            type=MsgType.SIGN_ON,
            src_site=self.local_id, src_manager=ManagerId.CLUSTER,
            dst_site=target, dst_manager=ManagerId.CLUSTER,
            payload=dict(msg.payload),
        )
        self.site.message_manager.send(forward)
        self.stats.inc("sign_ons_forwarded")

    def _on_sign_on_ack(self, msg: SDMessage) -> None:
        if self.site.running:
            return  # duplicate ACK after a retried sign-on
        new_id = msg.payload["your_id"]
        self._adopt_local_id(new_id)
        self._add_self_record()
        for wire in msg.payload.get("sites", []):
            self.learn_record(wire)
        block = msg.payload.get("id_block")
        if block and isinstance(self.allocator, ContingentAllocator):
            self.allocator.receive_block(block[0], block[1])
        self.site.program_manager.learn_programs_wire(
            msg.payload.get("programs", []))
        self.stats.inc("joined")
        self.site.on_joined()

    #: how long freshly served sign-ons accumulate before one batched
    #: CLUSTER_INFO goes out per peer.  During an n-site join wave the
    #: per-join announce used to cost n messages (O(n²) for the wave);
    #: batching amortizes it to n/batch per join while adding at most
    #: this much virtual latency to membership convergence — well under
    #: every heartbeat/gossip interval in use.
    ANNOUNCE_FLUSH = 5e-3

    def _announce(self, record: SiteRecord) -> None:
        """Queue a new member for the next batched announcement."""
        self._announce_queue.append(record)
        if self._announce_timer is None:
            self._announce_timer = self.kernel.call_later(
                self.ANNOUNCE_FLUSH, self._flush_announcements)

    def _flush_announcements(self) -> None:
        """Tell other sites about recently joined members (gossip).

        One CLUSTER_INFO per peer carrying every record queued since the
        last flush.  Batch members receive the batch too: their SIGN_ON_ACK
        already carried every earlier record, but later joiners of the
        same batch are news to them — and re-merging an already-known
        record is a harmless no-op.
        """
        self._announce_timer = None
        queued, self._announce_queue = self._announce_queue, []
        if not queued or not self.site.running:
            return
        payload = {"sites": [record.to_wire() for record in queued]}
        for peer in self.alive_peers():
            self.site.message_manager.send(SDMessage(
                type=MsgType.CLUSTER_INFO,
                src_site=self.local_id, src_manager=ManagerId.CLUSTER,
                dst_site=peer.logical, dst_manager=ManagerId.CLUSTER,
                payload=payload,
            ))

    # -- id blocks (contingent strategy) ----------------------------------
    def _request_id_block(self) -> None:
        if self._pending_block_request or self.local_id == 0:
            return
        self._pending_block_request = True
        sent = self.site.message_manager.send(SDMessage(
            type=MsgType.ID_BLOCK_REQUEST,
            src_site=self.local_id, src_manager=ManagerId.CLUSTER,
            dst_site=0, dst_manager=ManagerId.CLUSTER,
        ))
        if not sent:
            # the block server is not reachable (yet); retry shortly so
            # deferred sign-ons are not stranded
            self._pending_block_request = False
            self.kernel.call_later(self.SIGN_ON_RETRY,
                                   self._retry_block_request)

    def _retry_block_request(self) -> None:
        if self.site.running and self._deferred_signons:
            self._request_id_block()

    def _on_id_block_request(self, msg: SDMessage) -> None:
        if not isinstance(self.allocator, ContingentAllocator):
            raise ClusterError("ID_BLOCK_REQUEST under non-contingent strategy")
        low, high = self.allocator.grant_block()
        self.site.message_manager.send(make_reply(
            msg, MsgType.ID_BLOCK_REPLY, {"id_block": (low, high)}))

    def _on_id_block_reply(self, msg: SDMessage) -> None:
        self._pending_block_request = False
        if isinstance(self.allocator, ContingentAllocator):
            low, high = msg.payload["id_block"]
            self.allocator.receive_block(low, high)
        deferred, self._deferred_signons = self._deferred_signons, []
        for pending in deferred:
            self._on_sign_on(pending)

    # -- membership updates ------------------------------------------------
    def _on_cluster_info(self, msg: SDMessage) -> None:
        for wire in msg.payload.get("sites", []):
            self.learn_record(wire)

    def _on_sign_off(self, msg: SDMessage) -> None:
        leaver = msg.payload["leaver"]
        heir = msg.payload["heir"]
        record = self.sites.get(leaver)
        if record is not None:
            was_alive = record.alive
            record.alive = False
            record.left = True
            record.heir = heir
            if was_alive:
                self._note_departed(leaver)
        self.stats.inc("sign_offs_seen")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "site_leave",
                    leaver, heir)

    def _on_crash_notice(self, msg: SDMessage) -> None:
        dead = msg.payload["site"]
        self.mark_dead(dead, left=False)

    def mark_dead(self, logical: int, left: bool,
                  heir: Optional[int] = None) -> None:
        record = self.sites.get(logical)
        if record is not None and record.alive:
            record.alive = False
            record.left = left
            record.heir = heir
            tr = self.tracer
            if tr is not None and not left:
                tr.emit(self.kernel.now, self.local_id, "site_dead",
                        logical)
            # caches and departure hooks first: recovery and
            # directory rebalancing below must see the new membership
            self._note_departed(logical)
            self.site.crash_manager.on_site_dead(logical, orderly=left)

    def note_record_dead(self, logical: int,
                         heir: Optional[int] = None) -> None:
        """Record a death learned from a recovery wave, *without* invoking
        the crash manager — the coordinator that sent RECOVER_BEGIN is
        already handling it, and starting a competing recovery here would
        interleave epochs.  Caches and departure hooks still fire so
        directory/scheduler state converges."""
        record = self.sites.get(logical)
        if record is not None:
            was_alive = record.alive
            record.alive = False
            record.heir = heir
            if was_alive:
                self._note_departed(logical)

    # -- orderly departure ---------------------------------------------------
    def choose_heir(self) -> Optional[int]:
        """Deterministic heir rule: lowest alive id above ours, wrapping.

        Reliable-core extension (§2.2): unreliable sites are skipped as
        heirs whenever at least one reliable peer exists — adopted state
        must not land on a site expected to vanish without warning.
        """
        peers = self.alive_peers()
        reliable = [r.logical for r in peers if r.reliable]
        pool = sorted(reliable if reliable else [r.logical for r in peers])
        if not pool:
            return None
        return pool[bisect_right(pool, self.local_id) % len(pool)]

    def broadcast_sign_off(self, heir: int) -> None:
        for peer in self.alive_peers():
            self.site.message_manager.send(SDMessage(
                type=MsgType.SIGN_OFF,
                src_site=self.local_id, src_manager=ManagerId.CLUSTER,
                dst_site=peer.logical, dst_manager=ManagerId.CLUSTER,
                payload={"leaver": self.local_id, "heir": heir},
            ))

    # -- heartbeats ---------------------------------------------------------
    def on_start(self) -> None:
        if self.config.cluster.heartbeats_enabled:
            self._schedule_heartbeat()

    def _schedule_heartbeat(self) -> None:
        self._heartbeat_timer = self.kernel.call_later(
            self.config.cluster.heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if not self.site.running:
            return
        # the figures ride in the envelope; the heartbeat itself is news
        for logical in self._heartbeat_targets():
            self.site.message_manager.send(SDMessage(
                type=MsgType.HEARTBEAT,
                src_site=self.local_id, src_manager=ManagerId.CLUSTER,
                dst_site=logical, dst_manager=ManagerId.CLUSTER,
            ))
        self._check_liveness()
        self._schedule_heartbeat()

    def _heartbeat_targets(self) -> List[int]:
        """Full mesh by default; with ``heartbeat_fanout`` k > 0, the k
        ring successors in sorted-id order (every site is then watched by
        exactly its k predecessors instead of all n-1 peers)."""
        fanout = self.config.cluster.heartbeat_fanout
        ids = self._sorted_alive_peers
        if fanout <= 0 or len(ids) <= fanout:
            return [r.logical for r in self.alive_peers()]
        start = bisect_left(ids, self.local_id)
        return [ids[(start + i) % len(ids)] for i in range(fanout)]

    def _on_heartbeat(self, msg: SDMessage) -> None:
        """Nothing left to do: the message manager noted the envelope's
        figures, and with them ``last_seen``, before dispatching here."""

    def _check_liveness(self) -> None:
        timeout = self.config.cluster.heartbeat_timeout
        now = self.kernel.now
        watched = self._watched_records()
        # re-base the grace window when the watch set shifts: a ring
        # change hands us peers that have never heartbeated here (their
        # target set shifted at the same moment), so their old silence
        # is not evidence — only silence *since we started watching* is
        current = {record.logical for record in watched}
        for gone in [logical for logical in self._watch_since
                     if logical not in current]:
            del self._watch_since[gone]
        for record in watched:
            since = self._watch_since.setdefault(record.logical, now)
            if (record.alive and record.logical != self.local_id
                    and now - max(record.last_seen, since) > timeout):
                self.log("site %d missed heartbeats; declaring crashed",
                         record.logical)
                self.stats.inc("crashes_detected")
                self.mark_dead(record.logical, left=False)
                self._broadcast_crash_notice(record.logical)

    def _watched_records(self) -> List[SiteRecord]:
        """Peers whose silence this site is responsible for noticing.

        Mirrors :meth:`_heartbeat_targets`: with a fanout only the ring
        predecessors heartbeat *to* us, so only their records are checked
        — any other peer's silence here is expected, not a crash.
        """
        fanout = self.config.cluster.heartbeat_fanout
        ids = self._sorted_alive_peers
        if fanout <= 0 or len(ids) <= fanout:
            return list(self.sites.values())
        start = bisect_left(ids, self.local_id)
        watched = []
        for i in range(fanout):
            record = self.sites.get(ids[(start - 1 - i) % len(ids)])
            if record is not None:
                watched.append(record)
        return watched

    def _broadcast_crash_notice(self, logical: int) -> None:
        """Tell everyone else so detection is cluster-wide."""
        for peer in self.alive_peers():
            self.site.message_manager.send(SDMessage(
                type=MsgType.CRASH_NOTICE,
                src_site=self.local_id,
                src_manager=ManagerId.CLUSTER,
                dst_site=peer.logical,
                dst_manager=ManagerId.CLUSTER,
                payload={"site": logical},
            ))

    def report_transport_suspicion(self, physical: str) -> None:
        """The live transport's failure detector gave up on an address.

        Unlike the message-level heartbeat timeout above, this signal comes
        from real socket death (connect refused / send failing past the
        retry budget), so it works even when cluster heartbeats are off.
        """
        for record in list(self.sites.values()):
            if (record.alive and record.physical == physical
                    and record.logical != self.local_id):
                self.log("transport suspects site %d (%s) dead",
                         record.logical, physical)
                self.stats.inc("transport_suspicions")
                self.mark_dead(record.logical, left=False)
                self._broadcast_crash_notice(record.logical)

    def on_stop(self) -> None:
        if self._heartbeat_timer is not None:
            self.kernel.cancel(self._heartbeat_timer)
            self._heartbeat_timer = None
        if self._announce_timer is not None:
            self.kernel.cancel(self._announce_timer)
            self._announce_timer = None
            self._announce_queue = []

    # ------------------------------------------------------------------
    def status(self) -> dict:
        base = super().status()
        base["known_sites"] = len(self.sites)
        base["alive_sites"] = sum(1 for r in self.sites.values() if r.alive)
        return base
