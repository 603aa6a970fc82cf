"""Unit tests for the message manager: routing, replies, timeouts,
rerouting to heirs, and the forwarding (zombie) mode.
"""

from __future__ import annotations

import pytest

from repro.common.config import SDVMConfig
from repro.common.ids import GlobalAddress
from repro.messages import MsgType, SDMessage, make_reply
from repro.site.simcluster import SimCluster


@pytest.fixture
def pair(fast_config):
    cluster = SimCluster(nsites=2, config=fast_config)
    cluster.sim.run(until=0.2)
    return cluster, cluster.sites[0], cluster.sites[1]


def read_msg(src, dst):
    """A MEM_READ of an address no site holds: ``dst`` answers it with
    a MEM_READ_REPLY that carries neither value nor owner."""
    return SDMessage(
        type=MsgType.MEM_READ,
        src_site=src.site_id, dst_site=dst.site_id,
        payload={"addr": GlobalAddress(dst.site_id, 999_999)},
    )


class TestSendReceive:
    def test_request_reply_roundtrip(self, pair):
        cluster, a, b = pair
        replies = []
        a.message_manager.request(read_msg(a, b), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert replies[0].type is MsgType.MEM_READ_REPLY
        assert replies[0].src_site == b.site_id
        assert replies[0].payload == {"addr": GlobalAddress(b.site_id,
                                                            999_999)}

    def test_local_loopback(self, pair):
        cluster, a, _b = pair
        replies = []
        a.message_manager.request(read_msg(a, a), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert a.message_manager.stats.get("local_messages").count >= 1

    def test_unresolvable_target(self, pair):
        _cluster, a, _b = pair
        msg = read_msg(a, a)
        msg.dst_site = 999
        assert not a.message_manager.send(msg)
        assert a.message_manager.stats.get("unresolvable").count == 1

    def test_seq_assigned_monotonically(self, pair):
        _cluster, a, b = pair
        m1, m2 = read_msg(a, b), read_msg(a, b)
        a.message_manager.send(m1)
        a.message_manager.send(m2)
        assert 0 < m1.seq < m2.seq

    def test_src_load_piggybacked(self, pair):
        cluster, a, b = pair
        msg = read_msg(a, b)
        a.message_manager.send(msg)
        assert msg.src_load >= 0
        assert type(msg.src_load) is int and type(msg.src_queue) is int
        cluster.sim.run(until=0.5)
        record = b.cluster_manager.sites[a.site_id]
        assert record.load == msg.src_load

    def test_timeout_fires_and_late_reply_is_orphan(self, pair):
        cluster, a, b = pair
        timed_out = []
        # impossible timeout: shorter than one-way latency
        a.message_manager.request(read_msg(a, b), lambda m: None,
                                  timeout=1e-6,
                                  on_timeout=lambda: timed_out.append(1))
        cluster.sim.run(until=0.5)
        assert timed_out == [1]
        assert a.message_manager.stats.get("request_timeouts").count == 1
        # the actual reply arrived later and was routed as unsolicited
        assert a.message_manager.stats.get("orphan_replies").count >= 0

    def test_stopped_site_drops_messages(self, pair):
        cluster, a, b = pair
        b.crash()
        assert a.message_manager.send(read_msg(a, b))  # fire and forget
        cluster.sim.run(until=0.5)  # no crash: message swallowed

    def test_reroute_to_heir_after_sign_off(self, fast_config):
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites
        b_id = b.site_id
        # b leaves; a learns c is the heir
        record = a.cluster_manager.sites[b_id]
        record.alive = False
        record.left = True
        record.heir = c.site_id
        replies = []
        a.message_manager.request(read_msg(a, b), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert replies[0].src_site == c.site_id

    def test_reply_to_a_leaver_goes_to_it_not_its_heir(self, fast_config):
        """A reply answers its requester's own ``seq``: after a SIGN_OFF it
        goes to the leaver's address, where the leaver runs until its
        hand-off settled, never to the heir, whose own pending request may
        carry the same number.  A reply to a crashed site goes nowhere."""
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites
        request = read_msg(b, a)
        b.message_manager.send(request)
        cluster.sim.run(until=0.25)
        b.cluster_manager.broadcast_sign_off(c.site_id)
        cluster.sim.run(until=0.3)
        assert a.cluster_manager.sites[b.site_id].heir == c.site_id
        sent = []
        real = a.kernel.transport_send

        def spy(physical, envelope, msg=None):
            sent.append(physical)
            return real(physical, envelope, msg)

        a.kernel.transport_send = spy
        reply = make_reply(request, MsgType.MEM_READ_REPLY,
                           {"addr": request.payload["addr"]})
        assert a.message_manager.send(reply)
        assert sent == [b.kernel.local_physical()]
        a.cluster_manager.sites[b.site_id].left = False  # crashed instead
        assert not a.message_manager.send(make_reply(
            request, MsgType.MEM_READ_REPLY, dict(reply.payload)))
        assert sent == [b.kernel.local_physical()]
        assert a.message_manager.stats.get("unresolvable").count == 1


def data_msg(src, dst, payload):
    """A message whose row has two optional fields, ``value`` and
    ``error``, which may hold any value."""
    msg = read_msg(src, dst)
    msg.type = MsgType.IO_FILE_REPLY
    msg.payload = payload
    return msg


def capture_dispatched(site):
    """Record what the message manager hands the site, in place of
    routing it to a manager."""
    got = []
    site.route = got.append
    return got


def nested(depth):
    value = "leaf"
    for _ in range(depth):
        value = [value]
    return value


class TestSnapshotDelivery:
    """The sim wire delivers the sender's send-time snapshot next to the
    envelope bytes; the receiver parses only when the bytes are all it
    has.  Either way it must get what a parse would have built."""

    def test_sender_mutation_after_send_is_invisible(self, pair):
        cluster, a, b = pair
        got = capture_dispatched(b)
        msg = data_msg(a, b, {"value": [1], "error": {"k": [2]}})
        a.message_manager.send(msg)
        msg.payload["value"].append(99)
        msg.payload["error"]["k"].clear()
        msg.payload["late"] = True
        cluster.sim.run(until=0.5)
        (delivered,) = got
        assert delivered is not msg
        assert delivered.payload == {"value": [1], "error": {"k": [2]}}
        assert (delivered.type, delivered.seq, delivered.src_site) == (
            msg.type, msg.seq, a.site_id)

    def test_receiver_mutation_is_invisible_to_sender(self, pair):
        cluster, a, b = pair
        got = capture_dispatched(b)
        msg = data_msg(a, b, {"value": [1], "error": {"k": [2]}})
        a.message_manager.send(msg)
        cluster.sim.run(until=0.5)
        got[0].payload["value"].append(99)
        got[0].payload["error"]["k"] = None
        assert msg.payload == {"value": [1], "error": {"k": [2]}}

    def test_nothing_is_parsed_on_a_fault_free_wire(self, pair):
        cluster, a, b = pair
        a.message_manager.request(read_msg(a, b), lambda reply: None)
        cluster.sim.run(until=0.5)
        for site in (a, b):
            stats = site.message_manager.stats
            assert stats.get("received").count > 0
            assert stats.get("parsed").count == 0
        assert cluster.cluster_report().derived["parsed_per_msg"] == 0.0

    def test_plain_bytes_are_parsed(self, pair):
        cluster, a, b = pair
        send = cluster.network.send
        cluster.network.send = lambda src, dst, data: send(src, dst,
                                                           bytes(data))
        got = capture_dispatched(b)
        before = b.message_manager.stats.get("parsed").count
        a.message_manager.send(data_msg(a, b, {"value": [1]}))
        cluster.sim.run(until=0.5)
        assert [m.payload for m in got] == [{"value": [1]}]
        assert b.message_manager.stats.get("parsed").count == before + 1

    def test_second_delivery_of_one_envelope_is_parsed(self, pair):
        cluster, a, b = pair
        send = cluster.network.send

        def twice(src, dst, data):
            cluster.sim.schedule(1e-3, cluster.network._deliver, dst, data)
            return send(src, dst, data)

        cluster.network.send = twice
        got = capture_dispatched(b)
        a.message_manager.send(data_msg(a, b, {"value": [1]}))
        cluster.sim.run(until=0.5)
        first, second = got
        assert first.payload == second.payload == {"value": [1]}
        assert first.payload is not second.payload
        assert first.payload["value"] is not second.payload["value"]
        assert b.message_manager.stats.get("parsed").count == 1

    def test_what_a_parse_would_drop_is_still_dropped(self, pair):
        """Nesting the decoder refuses encodes fine: no snapshot rides,
        and the receiver's parse drops the envelope as it always did."""
        from repro.serde.codec import MAX_DECODE_DEPTH
        cluster, a, b = pair
        got = capture_dispatched(b)
        assert a.message_manager.send(
            data_msg(a, b, {"value": nested(MAX_DECODE_DEPTH)}))
        cluster.sim.run(until=0.5)
        assert got == []
        assert b.message_manager.stats.get("malformed").count == 1

    @pytest.mark.parametrize("sealed", [False, True],
                             ids=["plain", "sealed"])
    def test_bytes_sent_and_received_balance(self, fast_config, sealed):
        """Both counters take the envelope, so a cluster that loses
        nothing (and has nothing in flight) balances."""
        from repro.common.config import SecurityConfig
        cluster = SimCluster(nsites=3, config=fast_config.with_(
            security=SecurityConfig(enabled=sealed)))
        cluster.sim.run(until=0.2)
        a, b, _c = cluster.sites
        a.message_manager.request(read_msg(a, b), lambda reply: None)
        cluster.sim.run(until=0.5)
        total = cluster.total_stats()
        assert total.get("sent").count == total.get("received").count > 0
        assert (total.get("bytes_sent").total
                == total.get("bytes_received").total)


class TestForwardingMode:
    def test_zombie_forwards_results_to_heir(self, fast_config):
        from repro.common.ids import GlobalAddress
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites
        b.forward_to = c.site_id
        msg = SDMessage(
            type=MsgType.APPLY_RESULT,
            src_site=a.site_id, dst_site=b.site_id,
            program=-1,
            payload={"addr": GlobalAddress(b.site_id, 1), "slot": 0,
                     "value": 42, "epoch": b.epoch},
        )
        a.message_manager.send(msg)
        cluster.sim.run(until=0.5)
        assert b.message_manager.stats.get("forwarded_to_heir").count == 1
        # c buffered the orphan result (program unknown -> dropped is also
        # acceptable; the point is the message reached c)
        received = c.message_manager.stats.get("received").count
        assert received >= 1

    def test_forwarded_envelope_is_counted(self, fast_config):
        """The zombie puts the relayed envelope on the wire again, so it
        counts it as sent: cluster-wide, every byte received was sent."""
        from repro.common.ids import GlobalAddress
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites
        b.forward_to = c.site_id
        a.message_manager.send(SDMessage(
            type=MsgType.APPLY_RESULT, src_site=a.site_id,
            dst_site=b.site_id,
            payload={"addr": GlobalAddress(b.site_id, 1), "slot": 0,
                     "value": 42, "epoch": b.epoch}))
        cluster.sim.run(until=0.5)
        assert b.message_manager.stats.get("forwarded_to_heir").count == 1
        stats = cluster.total_stats()
        assert stats.get("bytes_sent").total == \
            stats.get("bytes_received").total

    def test_zombie_drops_heartbeats(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        b.forward_to = a.site_id
        hb = SDMessage(
            type=MsgType.HEARTBEAT,
            src_site=a.site_id, dst_site=b.site_id,
        )
        a.message_manager.send(hb)
        cluster.sim.run(until=0.5)
        assert b.message_manager.stats.get("forwarded_to_heir").count == 0


class TestLiveKernelTimeoutPaths:
    """request() timeout machinery exercised on the live (real-threads)
    kernel: timeout fires, a late reply is routed as an orphan, and
    on_stop cancels pending handles."""

    @staticmethod
    def _cluster():
        import time

        from repro.common.config import CostModel
        from repro.runtime.live_cluster import LiveCluster

        return LiveCluster(nsites=2, config=SDVMConfig(
            cost=CostModel(compile_fixed_cost=1e-4)))

    @staticmethod
    def _swallow_queries(site):
        """Make ``site`` drop MEM_READs so no reply can race the
        timeout timer."""
        site.kernel.reactor_call(
            lambda: setattr(site.attraction_memory, "_on_mem_read",
                            lambda msg: None))

    @staticmethod
    def _await(predicate, timeout=5.0):
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False

    def test_timeout_fires_and_clears_pending(self):
        import threading
        with self._cluster() as cluster:
            a, b = cluster.sites
            self._swallow_queries(b)
            timed_out = threading.Event()
            a.kernel.reactor_call(lambda: a.message_manager.request(
                read_msg(a, b), lambda m: None, timeout=0.05,
                on_timeout=timed_out.set))
            assert timed_out.wait(5.0)
            assert self._await(lambda: a.kernel.reactor_call(
                lambda: (a.message_manager.stats.get(
                             "request_timeouts").count,
                         len(a.message_manager._pending))) == (1, 0))

    def test_late_reply_becomes_orphan(self):
        with self._cluster() as cluster:
            a, b = cluster.sites
            self._swallow_queries(b)
            msg = read_msg(a, b)
            a.kernel.reactor_call(lambda: a.message_manager.request(
                msg, lambda m: None, timeout=0.05))
            assert self._await(lambda: a.kernel.reactor_call(
                lambda: a.message_manager.stats.get(
                    "request_timeouts").count) == 1)
            # now hand-deliver the reply the swallowed query never produced
            late = make_reply(msg, MsgType.MEM_READ_REPLY,
                              {"addr": msg.payload["addr"]})
            b.kernel.reactor_call(lambda: b.message_manager.send(late))
            assert self._await(lambda: a.kernel.reactor_call(
                lambda: a.message_manager.stats.get(
                    "orphan_replies").count) == 1)

    def test_on_stop_cancels_pending_handles(self):
        with self._cluster() as cluster:
            a, b = cluster.sites
            self._swallow_queries(b)
            msg = read_msg(a, b)
            a.kernel.reactor_call(lambda: a.message_manager.request(
                msg, lambda m: None, timeout=60.0))
            handle = a.kernel.reactor_call(
                lambda: a.message_manager._pending[msg.seq].timeout_handle)
            assert handle is not None and not handle.cancelled
            a.kernel.reactor_call(a.stop)
            assert handle.cancelled
            assert not a.message_manager._pending


class TestSecurityIntegration:
    def test_sealed_wire_hides_payload(self):
        from repro.common.config import SecurityConfig
        config = SDVMConfig(security=SecurityConfig(enabled=True))
        cluster = SimCluster(nsites=2, config=config)
        seen = []
        original_send = cluster.network.send

        def spy(src, dst, data):
            seen.append(bytes(data))
            return original_send(src, dst, data)

        cluster.network.send = spy
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        msg = data_msg(a, b, {"value": "VERY-SECRET-TOKEN"})
        a.message_manager.send(msg)
        cluster.sim.run(until=0.5)
        assert seen
        assert all(b"VERY-SECRET-TOKEN" not in blob for blob in seen)
