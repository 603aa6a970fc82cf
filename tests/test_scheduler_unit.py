"""Unit tests for the scheduling manager and its queue policies."""

from __future__ import annotations

import pytest

from repro.common.errors import SchedulingError
from repro.common.ids import GlobalAddress
from repro.core.frames import Microframe
from repro.program.manager import ProgramInfo
from repro.sched.policies import (FrameQueue, pop_frame,
                                  take_batch_for_help, take_for_help,
                                  take_push_batch)
from repro.site.simcluster import SimCluster


def frames(count, critical_indices=(), priorities=None):
    out = FrameQueue()
    for i in range(count):
        frame = Microframe(GlobalAddress(0, i + 1), thread_id=0,
                           program=1, nparams=0)
        frame.created_at = float(i)
        frame.critical = i in critical_indices
        if priorities:
            frame.priority = priorities[i]
        out.append(frame)
    return out


class TestPolicies:
    def test_fifo_pop(self):
        queue = frames(3)
        assert pop_frame(queue, "fifo", False).frame_id.local == 1
        assert pop_frame(queue, "fifo", False).frame_id.local == 2

    def test_lifo_pop(self):
        queue = frames(3)
        assert pop_frame(queue, "lifo", False).frame_id.local == 3

    def test_hints_pull_critical_first(self):
        queue = frames(4, critical_indices=(2,))
        assert pop_frame(queue, "fifo", True).frame_id.local == 3
        # remaining frames revert to fifo
        assert pop_frame(queue, "fifo", True).frame_id.local == 1

    def test_hints_disabled_ignores_critical(self):
        queue = frames(4, critical_indices=(2,))
        assert pop_frame(queue, "fifo", False).frame_id.local == 1

    def test_priority_policy(self):
        queue = frames(3, priorities=[1.0, 9.0, 5.0])
        assert pop_frame(queue, "priority", True).frame_id.local == 2
        assert pop_frame(queue, "priority", True).frame_id.local == 3

    def test_priority_tie_breaks_by_age(self):
        queue = frames(3, priorities=[5.0, 5.0, 5.0])
        assert pop_frame(queue, "priority", True).frame_id.local == 1

    def test_help_reply_lifo_takes_newest(self):
        queue = frames(3)
        assert take_for_help(queue, "lifo").frame_id.local == 3

    def test_help_reply_fifo_takes_oldest(self):
        queue = frames(3)
        assert take_for_help(queue, "fifo").frame_id.local == 1

    def test_empty_queue_rejected(self):
        with pytest.raises(SchedulingError):
            pop_frame(FrameQueue(), "fifo", False)
        with pytest.raises(SchedulingError):
            take_for_help(FrameQueue(), "lifo")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            pop_frame(frames(1), "quantum", False)
        with pytest.raises(SchedulingError):
            take_for_help(frames(1), "sjf")

    def test_batch_lifo_takes_newest_first(self):
        queue = frames(5)
        batch = take_batch_for_help(queue, "lifo", 3)
        assert [f.frame_id.local for f in batch] == [5, 4, 3]
        assert len(queue) == 2

    def test_batch_stops_at_queue_bottom(self):
        queue = frames(2)
        assert len(take_batch_for_help(queue, "fifo", 5)) == 2
        assert not queue

    def test_batch_count_validated(self):
        with pytest.raises(SchedulingError):
            take_batch_for_help(frames(3), "lifo", 0)
        with pytest.raises(SchedulingError):
            take_push_batch(frames(3), "lifo", 0)

    def test_push_batch_skips_critical_and_restores_order(self):
        queue = frames(5, critical_indices=(1, 3))
        batch = take_push_batch(queue, "fifo", 3)
        # the three non-critical frames go; the critical two stay, in order
        assert [f.frame_id.local for f in batch] == [1, 3, 5]
        assert [f.frame_id.local for f in queue] == [2, 4]

    def test_push_batch_lifo_restores_order(self):
        queue = frames(4, critical_indices=(3,))
        batch = take_push_batch(queue, "lifo", 2)
        assert [f.frame_id.local for f in batch] == [3, 2]
        assert [f.frame_id.local for f in queue] == [1, 4]

    def test_frame_queue_counts_follow_every_mutator(self):
        """The hint counts the scheduler reads in O(1) equal a walk of the
        queue after every kind of mutation the scheduler performs."""
        def walked(queue):
            return (sum(1 for f in queue if f.critical),
                    sum(1 for f in queue if f.critical or f.priority > 0))

        queue = frames(6, critical_indices=(1, 4),
                       priorities=[0.0, 0.0, 3.0, 0.0, 0.0, 1.0])
        assert (queue.critical, queue.hinted) == walked(queue) == (2, 4)
        steps = [
            lambda q: pop_frame(q, "fifo", True),
            lambda q: q.appendleft(q.pop()),
            lambda q: take_push_batch(q, "fifo", 2),
            lambda q: take_batch_for_help(q, "lifo", 1),
            lambda q: q.popleft(),
            lambda q: q.extend(frames(3, critical_indices=(0,))),
        ]
        for step in steps:
            step(queue)
            assert (queue.critical, queue.hinted) == walked(queue)
        copy = FrameQueue(queue)
        assert (copy.critical, copy.hinted) == walked(queue)
        queue.clear()
        assert (queue.critical, queue.hinted) == (0, 0)


class TestStarvationFreedom:
    def test_fifo_local_no_starvation(self, fast_config):
        """Every frame of a long run is eventually executed (the paper's
        reason for FIFO locally): total executions == frames created."""
        from repro.apps import build_primes_program, first_n_primes
        cluster = SimCluster(nsites=2, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(30, 5, 200.0, 2000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(30)


@pytest.fixture
def running_pair(fast_config):
    from repro.apps import build_primes_program
    cluster = SimCluster(nsites=2,
                         config=fast_config.with_(trace=True))
    handle = cluster.submit(build_primes_program(),
                            args=(25, 6, 400.0, 4000.0))
    cluster.sim.run(until=0.05)
    thief, victim = cluster.sites
    assert thief.program_manager.is_active(handle.pid)
    return cluster, thief, victim, handle


class TestLateHelpReply:
    """A HELP_REPLY that arrives after its request timed out still carries
    stolen frames, so it must adopt and account them — but the timed-out
    request already fed the backoff/cooldown failure path, so the late
    reply must NOT reset that congestion state (only a reply correlated
    to a live in-flight request may)."""

    @staticmethod
    def _late_reply(thief, victim, pid, grant=True):
        """A HELP_REPLY no request waits for: a grant of one frame, or a
        refusal (no payload)."""
        from repro.messages import MsgType, SDMessage
        payload = {}
        if grant:
            frame = Microframe(GlobalAddress(victim.site_id, 7777),
                               thread_id=0, program=pid, nparams=0)
            payload.update(frames=[frame.to_wire()], program_infos=[],
                           epoch=victim.epoch)
        return SDMessage(
            type=MsgType.HELP_REPLY,
            src_site=victim.site_id, dst_site=thief.site_id,
            payload=payload)

    def test_late_reply_adopts_but_keeps_backoff(self, running_pair):
        from repro.messages import MsgType
        _cluster, thief, victim, handle = running_pair
        sm = thief.scheduling_manager
        sm._cooldown[victim.site_id] = until = sm.kernel.now + 100.0
        sm._help_backoff = 4.0
        steals = sm.stats.get("steals_in").count
        enqueued = sm.stats.get("frame_enqueued").count
        grants = sm.stats.get("steal_grants").count
        late = sm.stats.get("late_steal_grants").count

        thief.route(self._late_reply(thief, victim, handle.pid))

        # the frame is adopted and fully accounted...
        assert sm.stats.get("steals_in").count == steals + 1
        assert sm.stats.get("frame_enqueued").count == enqueued + 1
        assert sm.stats.get("late_steal_grants").count == late + 1
        assert any(e.fields[0] == victim.site_id
                   for e in thief.tracer.select("steals_in", thief.site_id))
        # ...but the fence holds: a reply to a dead request must not wipe
        # congestion state mid-congestion
        assert sm._help_backoff == 4.0
        assert sm._cooldown[victim.site_id] == until
        # and it is not a correlated grant (success-rate numerator)
        assert sm.stats.get("steal_grants").count == grants

    def test_live_reply_resets_backoff_and_cooldown(self, running_pair):
        from repro.messages import MsgType, SDMessage
        from repro.sched.manager import _HelpRequest
        _cluster, thief, victim, handle = running_pair
        sm = thief.scheduling_manager
        sm._help_backoff = 4.0
        sm._cooldown[victim.site_id] = sm.kernel.now + 100.0
        sm._cooldown[999] = sm.kernel.now + 100.0
        sm._inflight_helps[4242] = _HelpRequest(
            victim.site_id, sent_at=sm.kernel.now)
        frame = Microframe(GlobalAddress(victim.site_id, 7778),
                           thread_id=0, program=handle.pid, nparams=0)
        steals = sm.stats.get("steals_in").count
        grants = sm.stats.get("steal_grants").count

        sm._help_answered(SDMessage(
            type=MsgType.HELP_REPLY,
            src_site=victim.site_id, dst_site=thief.site_id,
            reply_to=4242,
            payload={"frames": [frame.to_wire()], "program_infos": [],
                     "epoch": victim.epoch}))

        assert sm.stats.get("steals_in").count == steals + 1
        assert sm.stats.get("steal_grants").count == grants + 1
        # the victim just proved it can help: off cooldown, backoff reset
        assert sm._help_backoff == 1.0
        assert victim.site_id not in sm._cooldown
        assert 4242 not in sm._inflight_helps
        # unrelated cooldown state is untouched
        assert 999 in sm._cooldown

    def test_late_cant_help_is_ignored(self, running_pair):
        """A refusal whose request timed out changes nothing: no late
        grant, no frame, and the cooldown and backoff its timeout set
        stay."""
        _cluster, thief, victim, handle = running_pair
        sm = thief.scheduling_manager
        sm._cooldown[victim.site_id] = until = sm.kernel.now + 100.0
        sm._help_backoff = 4.0
        counts = {name: sm.stats.get(name).count for name in (
            "steals_in", "frame_enqueued", "late_steal_grants",
            "cant_help_received")}
        thief.route(self._late_reply(thief, victim, handle.pid,
                                     grant=False))
        assert {name: sm.stats.get(name).count for name in counts} == counts
        assert sm._cooldown[victim.site_id] == until
        assert sm._help_backoff == 4.0


class TestMalformedHelpReply:
    """The table leaves a grant's fields optional only because a refusal
    has none: frames without their epoch or program infos are refused on
    the receive path, answering a request or late, and adopt nothing."""

    @pytest.mark.parametrize("missing", ["epoch", "program_infos"])
    def test_a_grant_without_its_fields_is_refused(self, running_pair,
                                                   monkeypatch, missing):
        from repro.messages import MsgType, SDMessage
        cluster, thief, victim, handle = running_pair
        sm = thief.scheduling_manager
        # the victim ignores the request: only the forged grant answers it
        monkeypatch.setattr(victim.scheduling_manager, "_on_help_request",
                            lambda msg: None)
        request = SDMessage(type=MsgType.HELP_REQUEST,
                            src_site=thief.site_id, dst_site=victim.site_id,
                            payload={"want": 1})
        thief.message_manager.request(request, sm._help_answered,
                                      timeout=1.0)
        grant = TestLateHelpReply._late_reply(thief, victim, handle.pid)
        del grant.payload[missing]
        grant.reply_to = request.seq
        mm = thief.message_manager
        names = ("steals_in", "steal_grants", "late_steal_grants",
                 "cant_help_received")
        counts = {name: sm.stats.get(name).count for name in names}
        malformed = mm.stats.get("malformed").count
        # the first copy meets its request, the second finds none waiting
        for _copy in range(2):
            mm.deliver_raw(grant.encode())
            cluster.sim.run(until=cluster.sim.now + 0.01)
        assert mm.stats.get("malformed").count == malformed + 2
        assert mm.stats.get("orphan_replies").count >= 1
        assert request.seq not in mm._pending
        assert {name: sm.stats.get(name).count for name in names} == counts


class TestBackoffAndCooldown:
    def test_backoff_grows_and_caps(self, running_pair):
        _cluster, thief, _victim, _handle = running_pair
        sm = thief.scheduling_manager
        sm._help_backoff = 1.0
        for expected in (1.5, 2.25, 3.375):
            sm._schedule_retry()
            assert sm._help_backoff == expected
            sm.kernel.cancel(sm._help_timer)
            sm._help_timer = None
        sm._help_backoff = 15.0
        sm._schedule_retry()
        assert sm._help_backoff == 20.0  # capped, not 22.5
        sm.kernel.cancel(sm._help_timer)
        sm._help_timer = None

    def test_backoff_cap_ignores_membership_size(self, fast_config):
        """A thief nobody refused lately is woken by nothing but its own
        timer, so its longest sleep must not grow with the cluster."""
        cluster = SimCluster(nsites=40, config=fast_config)
        cluster.sim.run(until=0.1)
        site = cluster.sites[0]
        assert len(site.cluster_manager.alive_peers()) == 39
        site.program_manager.has_active_programs = lambda: True
        sm = site.scheduling_manager
        sm._help_backoff = 19.0
        sm._schedule_retry()
        assert sm._help_backoff == 20.0  # not 28.5, under a cap of 39
        sm.kernel.cancel(sm._help_timer)
        sm._help_timer = None

    def test_kick_resets_backoff(self, running_pair):
        _cluster, thief, _victim, _handle = running_pair
        sm = thief.scheduling_manager
        sm._help_backoff = 8.0
        sm.kick()
        assert sm._help_backoff == 1.0

    def test_victim_cooldown_blocks_then_expires(self, running_pair):
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        # only peer is unknown-freshness: eligible unless on cooldown
        thief.cluster_manager.sites[victim.site_id].load_at = -1.0
        sent = sm.stats.get("help_sent").count
        sm._cooldown[victim.site_id] = sm.kernel.now + 100.0
        sm._send_help()
        assert sm.stats.get("help_sent").count == sent  # victim skipped
        sm._cooldown[victim.site_id] = sm.kernel.now - 1.0  # expired
        sm._send_help()
        assert sm.stats.get("help_sent").count == sent + 1
        assert victim.site_id in {req.target
                                  for req in sm._inflight_helps.values()}

    def test_timed_out_request_counts_as_attempt(self, running_pair):
        """Satellite of the success-rate fix: a request that times out
        with no reply at all must land in the attempt denominator."""
        from repro.trace.aggregate import aggregate_sites
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        thief.cluster_manager.sites[victim.site_id].load_at = -1.0
        sm._cooldown.clear()
        sent = sm.stats.get("help_sent").count
        sm._send_help()
        assert sm.stats.get("help_sent").count == sent + 1
        seq = next(iter(sm._inflight_helps))
        timeouts = sm.stats.get("help_timeouts").count
        sm._help_timed_out(seq)
        assert sm.stats.get("help_timeouts").count == timeouts + 1
        assert not sm._inflight_helps
        grants = sm.stats.get("steal_grants").count
        attempts = sm.stats.get("help_sent").count
        report = aggregate_sites([thief])
        # the timed-out request is in the denominator, not a non-event
        assert report.derived["steal_success_rate"] == pytest.approx(
            grants / attempts)
        assert report.derived["steal_success_rate"] < 1.0


class TestDepartureCleanup:
    """Per-peer scheduler state (cooldown, in-flight fence) must be
    dropped when the peer crashes or signs off — dead sites used to
    accumulate in these maps forever."""

    def test_departure_clears_cooldown_and_inflight(self, running_pair):
        from repro.sched.manager import _HelpRequest
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        sm._cooldown[victim.site_id] = sm.kernel.now + 100.0
        sm._inflight_helps[555] = _HelpRequest(victim.site_id,
                                               sm.kernel.now)
        thief.cluster_manager._note_departed(victim.site_id)
        assert victim.site_id not in sm._cooldown
        assert not sm._inflight_helps
        assert sm.stats.get("help_targets_departed").count == 1


class TestVictimSelection:
    @pytest.fixture
    def cm(self, fast_config):
        cluster = SimCluster(nsites=4, config=fast_config)
        cluster.sim.run(until=0.05)
        manager = cluster.sites[0].cluster_manager
        now = manager.kernel.now
        for record in manager.alive_peers():
            record.load_at = now
            record.load = 0.0
            record.queue = 0.0
        return manager

    def test_all_fresh_and_empty_yields_none(self, cm):
        assert cm.pick_help_target(()) is None

    def test_deepest_fresh_queue_wins(self, cm):
        cm.sites[1].queue = 2.0
        cm.sites[2].queue = 5.0
        assert cm.pick_help_target(()) == 2
        assert cm.pick_help_target({2}) == 1

    def test_stale_peers_get_probed(self, cm):
        for record in cm.alive_peers():
            record.load_at = -1.0
        assert cm.pick_help_target(()) in {1, 2, 3}

    def test_the_stale_peer_is_found_without_comparing_records(
            self, cm, monkeypatch):
        """Staleness is read off the record; no record is compared with
        another by value (a 15-field dataclass ``__eq__``)."""
        from repro.cluster.records import SiteRecord

        def no_eq(self, other):
            raise AssertionError("records compared by value")
        monkeypatch.setattr(SiteRecord, "__eq__", no_eq)
        cm.sites[2].load_at = -1.0
        assert cm.pick_help_target(()) == 2

    def test_fresh_busy_peer_beats_nothing(self, cm):
        # queues empty everywhere, but one peer's load says work may
        # surface: probe it rather than backing off
        cm.sites[3].load = 4.0
        assert cm.pick_help_target(()) == 3

    def test_push_target_needs_fresh_idle_peer(self, cm):
        for record in cm.alive_peers():
            record.load_at = -1.0
        assert cm.pick_push_target() is None
        cm.sites[1].load_at = cm.kernel.now
        assert cm.pick_push_target() == 1
        # pushing marks the peer non-idle so the next push spreads
        cm.note_pushed(1, 2)
        assert cm.pick_push_target() is None


class TestStealBatching:
    def _queue_frames(self, sm, pid, count, start=9000):
        for i in range(count):
            sm.executable.append(Microframe(
                GlobalAddress(0, start + i), thread_id=0,
                program=pid, nparams=0))

    def test_steal_half_bounded_by_want(self, running_pair):
        from repro.messages import MsgType, SDMessage
        _cluster, victim, thief, handle = running_pair
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        self._queue_frames(sm, handle.pid, 12)
        outs = sm.stats.get("steal_out").count
        sm._on_help_request(SDMessage(
            type=MsgType.HELP_REQUEST, seq=777,
            src_site=thief.site_id, dst_site=victim.site_id,
            payload={"want": 3}))
        # min(want=3, steal_batch_max=4, half of 12) = 3 frames granted
        assert sm.stats.get("steal_out").count == outs + 3
        assert len(sm.executable) == 9
        # batch sizes are tracked as a histogram, not a counter
        assert any(name == "steal_batch"
                   for name, _hist in sm.stats.hist_items())

    def test_steal_half_never_takes_more_than_half(self, running_pair):
        from repro.messages import MsgType, SDMessage
        _cluster, victim, thief, handle = running_pair
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        self._queue_frames(sm, handle.pid, 3)
        outs = sm.stats.get("steal_out").count
        sm._on_help_request(SDMessage(
            type=MsgType.HELP_REQUEST, seq=778,
            src_site=thief.site_id, dst_site=victim.site_id,
            payload={"want": 4}))
        # min(want=4, batch_max=4, (3+1)//2=2) = 2: over half stays home
        assert sm.stats.get("steal_out").count == outs + 2
        assert len(sm.executable) == 1

    def test_batched_reply_lands_every_frame(self, running_pair):
        cluster, victim, thief, handle = running_pair
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        self._queue_frames(sm, handle.pid, 12)
        from repro.messages import MsgType, SDMessage
        replies = []
        thief.message_manager.request(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=thief.site_id, dst_site=victim.site_id,
            payload={"want": 3},
        ), replies.append)
        cluster.sim.run(until=0.2)
        assert len(replies) == 1
        assert replies[0].type is MsgType.HELP_REPLY
        assert len(replies[0].payload["frames"]) == 3
        # program info rides along so the thief can adopt immediately
        pids = [ProgramInfo.from_wire(w).pid
                for w in replies[0].payload["program_infos"]]
        assert handle.pid in pids


class TestProactivePush:
    def test_push_sheds_surplus_to_known_idle_peer(self, running_pair):
        cluster, pusher, peer, handle = running_pair
        sm = pusher.scheduling_manager
        cm = pusher.cluster_manager
        sm.executable.clear()
        sm.ready.clear()
        sm._pm_hungry = 0
        for i in range(5):
            sm.executable.append(Microframe(
                GlobalAddress(0, 9100 + i), thread_id=0,
                program=handle.pid, nparams=0))
        cm.note_load(peer.site_id, 0.0, queue=0.0)  # fresh & idle
        sm._maybe_push()
        # spare=5, floor=max(keep_local_min=0, push_min_queue=1)=1:
        # count = min(batch_max=4, (5+1)//2=3, 5-1=4) = 3
        assert sm.stats.get("frames_pushed").count == 3
        assert len(sm.executable) == 2
        assert any(e.fields[0] == peer.site_id
                   for e in pusher.tracer.select("frames_pushed", pusher.site_id))
        # the peer adopts the batch once the transfer is delivered
        cluster.sim.run(until=0.2)
        adopted = peer.attraction_memory.stats.get("frame_adopted").count
        assert adopted >= 3

    def test_no_push_without_fresh_idle_view(self, running_pair):
        _cluster, pusher, peer, handle = running_pair
        sm = pusher.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        sm._pm_hungry = 0
        for i in range(5):
            sm.executable.append(Microframe(
                GlobalAddress(0, 9200 + i), thread_id=0,
                program=handle.pid, nparams=0))
        pusher.cluster_manager.sites[peer.site_id].load_at = -1.0
        sm._maybe_push()
        assert sm.stats.get("frames_pushed").count == 0
        assert len(sm.executable) == 5

    def test_critical_frames_stay_home(self, running_pair):
        _cluster, pusher, peer, handle = running_pair
        sm = pusher.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        sm._pm_hungry = 0
        for i in range(5):
            frame = Microframe(GlobalAddress(0, 9300 + i), thread_id=0,
                               program=handle.pid, nparams=0)
            frame.critical = True
            sm.executable.append(frame)
        pusher.cluster_manager.note_load(peer.site_id, 0.0, queue=0.0)
        sm._maybe_push()
        assert sm.stats.get("frames_pushed").count == 0
        assert len(sm.executable) == 5


class TestAsksOnlyWhenHungry:
    """A site asks for work when it has none (paper §4: "if it is idle"):
    nothing queued, nothing fetching, a lane hungry, no request in
    flight.  A busy site sends no speculative request."""

    def _busy_with_empty_queues(self, thief, victim):
        """One execution in flight, every queue drained, no lane hungry,
        and a victim the thief would probe if it asked."""
        sm = thief.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        sm._pending_code.clear()
        sm._cooldown.clear()
        sm._inflight_helps.clear()
        sm._pm_hungry = 0
        thief.processing_manager.in_flight = 1
        thief.cluster_manager.sites[victim.site_id].load_at = -1.0
        return sm

    def test_busy_site_with_empty_queues_does_not_ask(self, running_pair):
        _cluster, thief, victim, _handle = running_pair
        sm = self._busy_with_empty_queues(thief, victim)
        sent = sm.stats.get("help_sent").count
        sm._serve()  # everything handed out: the trailing steal check
        assert sm.stats.get("help_sent").count == sent
        assert not sm._inflight_helps

    def test_last_lane_going_hungry_asks_at_once(self, running_pair,
                                                 monkeypatch):
        _cluster, thief, victim, _handle = running_pair
        sm = self._busy_with_empty_queues(thief, victim)
        asked = []
        request = thief.message_manager.request
        monkeypatch.setattr(
            thief.message_manager, "request",
            lambda msg, *a, **kw: asked.append(msg) or request(msg, *a, **kw))
        sm._serve()
        sm.pm_request_work()  # the execution ended, nothing to hand over
        # one request, sent in the instant the lane went hungry, and it
        # says nothing about being speculative; the victim was never heard
        # from, so our record rides along, and the load only in the header
        assert [(req.target, req.sent_at)
                for req in sm._inflight_helps.values()] == [
                    (victim.site_id, sm.kernel.now)]
        assert [set(msg.payload) for msg in asked] == [{"record", "want"}]

    def test_real_request_in_flight_suppresses(self, running_pair):
        from repro.sched.manager import _HelpRequest
        _cluster, thief, victim, _handle = running_pair
        sm = self._busy_with_empty_queues(thief, victim)
        sm._pm_hungry = 1
        sm._inflight_helps = {99: _HelpRequest(999, sent_at=sm.kernel.now)}
        sent = sm.stats.get("help_sent").count
        sm._maybe_help()
        assert sm.stats.get("help_sent").count == sent


class TestCodeRetryCleanup:
    """Regression: ``_code_retries`` entries used to outlive their frames
    through program teardown and sign-off relocation."""

    @pytest.fixture
    def manager(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.sim.run(until=0.05)
        return cluster.sites[0].scheduling_manager

    @staticmethod
    def _frame(local, program):
        return Microframe(GlobalAddress(0, local), thread_id=0,
                          program=program, nparams=0)

    def test_drop_program_prunes_stale_budgets(self, manager):
        kept = self._frame(1, program=7)
        manager.executable.append(kept)
        manager._code_retries = {kept.frame_id: 1,
                                 GlobalAddress(0, 2): 2}
        manager.drop_program(8)
        # the orphaned budget (frame no longer queued anywhere) is gone;
        # the live frame's budget survives
        assert manager._code_retries == {kept.frame_id: 1}
        manager.drop_program(7)
        assert manager._code_retries == {}

    def test_export_frames_clears_budgets(self, manager):
        frame = self._frame(3, program=7)
        manager.executable.append(frame)
        manager._code_retries = {frame.frame_id: 2}
        exported = manager.export_frames()
        assert frame in exported
        assert manager._code_retries == {}

    def test_terminated_program_budget_dropped_on_code_arrival(self,
                                                               manager):
        frame = self._frame(4, program=424242)  # never registered
        manager._pending_code[frame.frame_id] = frame
        manager._code_retries[frame.frame_id] = 3
        manager._code_arrived(frame, None)
        assert frame.frame_id not in manager._code_retries


class TestHelpProtocol:
    def test_cant_help_when_queue_low(self, fast_config):
        from dataclasses import replace
        config = fast_config.with_(scheduling=replace(
            fast_config.scheduling, keep_local_min=5))
        cluster = SimCluster(nsites=2, config=config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        # b asks a (empty queue, high keep_local_min): must refuse
        from repro.messages import MsgType, SDMessage
        replies = []
        b.message_manager.request(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=b.site_id, dst_site=a.site_id,
            payload={"want": 1},
        ), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert replies[0].type is MsgType.HELP_REPLY
        assert replies[0].payload == {}  # a refusal carries no frames

    def test_paused_site_refuses_help(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        a.paused = True
        from repro.messages import MsgType, SDMessage
        replies = []
        b.message_manager.request(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=b.site_id, dst_site=a.site_id,
            payload={"want": 1},
        ), replies.append)
        cluster.sim.run(until=0.5)
        assert replies[0].type is MsgType.HELP_REPLY
        assert replies[0].payload == {}

    def test_steal_counts_balance(self, fast_config):
        """steals_out across the cluster equals steals_in plus late-reply
        recoveries — no frame duplication."""
        from repro.apps import build_primes_program, first_n_primes
        cluster = SimCluster(nsites=4, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(40, 8, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        stats = cluster.total_stats()
        out = stats.get("steal_out").count
        received = stats.get("steals_in").count
        assert out >= received
        # conservation, outflow form: every enqueued frame ends in exactly
        # one bucket — executed, dropped at program termination, dropped as
        # stale, handed to a thief (steals_out; the thief's re-enqueue is
        # its own enqueue event), pushed to an idle peer (frames_pushed;
        # likewise re-enqueued there), still queued, or in a PM slot.
        # Frames are never duplicated or lost.
        accounted = (stats.get("executions").count
                     + stats.get("frames_dropped_terminated").count
                     + stats.get("stale_work_dropped").count
                     + out
                     + stats.get("frames_pushed").count
                     + sum(s.scheduling_manager.queue_depth()
                           for s in cluster.sites)
                     + sum(s.processing_manager.in_flight
                           for s in cluster.sites))
        assert stats.get("frame_enqueued").count == accounted

    def test_help_latency_times_every_correlated_answer(self, fast_config):
        """Each answer that meets its request in flight — a HELP_REPLY or
        a refusal — adds one sample to the scheduler's ``help_latency``,
        the time from the request to its answer."""
        from repro.apps import build_primes_program, first_n_primes
        cluster = SimCluster(nsites=4, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(40, 8, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        timed = 0
        for site in cluster.sites:
            stats = site.scheduling_manager.stats
            latency = stats.hist("help_latency")
            answers = (stats.get("steal_grants").count
                       + stats.get("cant_help_received").count)
            assert latency.count == answers, site.site_id
            assert latency.count == 0 or 0 < latency.percentile(50)
            timed += latency.count
        assert timed > 0


class TestHelpRecordOnlyToStrangers:
    """A help request carries the thief's SiteRecord only to a victim it
    has never heard from: a peer that sent us a message has resolved our
    id, so the record would tell it nothing."""

    @pytest.mark.parametrize("heard", [True, False],
                             ids=["heard_from", "stranger"])
    def test_record_rides_only_to_a_stranger(self, running_pair,
                                             monkeypatch, heard):
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        sm._cooldown.clear()
        sm._inflight_helps.clear()
        record = thief.cluster_manager.sites[victim.site_id]
        # a fresh figure with work, or no figure at all: either way the
        # victim is the one to ask
        record.load_at = sm.kernel.now if heard else -1.0
        record.queue = 3
        asked = []
        request = thief.message_manager.request
        monkeypatch.setattr(
            thief.message_manager, "request",
            lambda msg, *a, **kw: asked.append(msg) or request(msg, *a, **kw))
        sm._send_help()
        assert [msg.dst_site for msg in asked] == [victim.site_id]
        assert set(asked[0].payload) == (
            {"want"} if heard else {"record", "want"})

    def test_victim_that_learns_the_thief_from_the_record_grants(
            self, running_pair):
        from repro.messages import MsgType, SDMessage
        cluster, thief, victim, handle = running_pair
        # the victim forgets the thief: the request is all it will know
        cm = victim.cluster_manager
        forgotten = cm.sites.pop(thief.site_id)
        del cm._by_physical[forgotten.physical]
        cm._sorted_alive_peers.remove(thief.site_id)
        cm._hot_peers.pop(thief.site_id, None)
        cm._alive_records = None
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        TestStealBatching()._queue_frames(sm, handle.pid, 6, start=9400)
        replies = []
        msg = SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=thief.site_id, dst_site=victim.site_id,
            payload={"record": thief.cluster_manager.local_record_wire(),
                     "want": 2})
        thief.message_manager.request(msg, replies.append)
        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert [reply.type for reply in replies] == [MsgType.HELP_REPLY]
        assert sm.stats.get("grants_undeliverable").count == 0
        # the envelope's figures land on the record the payload created
        learned = cm.sites[thief.site_id]
        assert (learned.load, learned.queue) == (msg.src_load, msg.src_queue)
        assert learned.load_at >= 0

    def test_undeliverable_grant_keeps_its_frames_and_journals_no_steal(
            self, running_pair):
        """A grant to a thief the victim cannot resolve never leaves: the
        frames stay queued, and neither ``steal_out`` nor the journal says
        they were stolen."""
        from repro.messages import MsgType, SDMessage
        cluster, thief, victim, handle = running_pair
        cm = victim.cluster_manager
        forgotten = cm.sites.pop(thief.site_id)
        del cm._by_physical[forgotten.physical]
        cm._sorted_alive_peers.remove(thief.site_id)
        cm._hot_peers.pop(thief.site_id, None)
        cm._alive_records = None
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        TestStealBatching()._queue_frames(sm, handle.pid, 6, start=9500)
        queued = {frame.frame_id for frame in sm.executable}
        outs = sm.stats.get("steal_out").count
        journaled = len(cluster.tracer.select("steal_out"))
        sm._on_help_request(SDMessage(
            type=MsgType.HELP_REQUEST, seq=779,
            src_site=thief.site_id, dst_site=victim.site_id,
            payload={"want": 2}))
        assert sm.stats.get("grants_undeliverable").count == 1
        assert queued <= {frame.frame_id for frame in sm.snapshot_frames()}
        assert sm.stats.get("steal_out").count == outs
        assert len(cluster.tracer.select("steal_out")) == journaled


class TestHotPeerCache:
    """The hot-peer cache — what keeps work discovery O(1) once the
    cluster outgrows the 16-peer sample window."""

    @pytest.fixture
    def big_cm(self, fast_config):
        # 20 sites: 19 peers, three more than the sample window holds
        cluster = SimCluster(nsites=20, config=fast_config)
        cluster.sim.run(until=0.05)
        cm = cluster.sites[0].cluster_manager
        now = cm.kernel.now
        for record in cm.alive_peers():
            record.load_at = now
            record.load = 0.0
            record.queue = 0.0
        cm._hot_peers.clear()
        return cm

    def test_hot_cache_drops_drained_peer(self, big_cm):
        cm = big_cm
        cm.note_load(7, 5.0, queue=5.0)
        assert 7 in {r.logical for r in cm.hot_peers()}
        cm.note_load(7, 0.0, queue=0.0)
        assert 7 not in {r.logical for r in cm.hot_peers()}

    def test_pick_help_target_sees_past_sample_window(self, big_cm):
        cm = big_cm
        cm._pick_cursor = 0  # next window: logicals 1..16
        cm.note_load(19, 6.0, queue=6.0)
        assert cm.pick_help_target(()) == 19
