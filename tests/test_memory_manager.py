"""Unit tests for the attraction memory: result routing, buffering,
migration accounting, relocation export/adopt, and the live protocol
handlers driven directly through messages.
"""

from __future__ import annotations

import pytest

from repro.common.errors import MemoryFault
from repro.common.ids import GlobalAddress, ManagerId
from repro.core.frames import Microframe
from repro.messages import MsgType, SDMessage
from repro.site.simcluster import SimCluster


@pytest.fixture
def pair(fast_config):
    cluster = SimCluster(nsites=2, config=fast_config)
    cluster.sim.run(until=0.2)
    return cluster, cluster.sites[0], cluster.sites[1]


def dir_shard_of(cluster, addr):
    """The site holding ``addr``'s directory entry."""
    shard = cluster.sites[0].cluster_manager.dir_site_for(addr)
    return next(s for s in cluster.sites if s.site_id == shard)


def register_program(site, name="t"):
    """Minimal program so frames have an active program id."""
    from repro.core.program import ProgramBuilder
    prog = ProgramBuilder(name)

    @prog.microthread
    def main(ctx, a, b):
        ctx.exit_program(a + b)

    from repro.common.ids import make_program_id
    pid = make_program_id(site.site_id, 77)
    site.program_manager.register_local(prog.build(), pid)
    return pid, prog.build().threads["main"].thread_id


class TestFramesAndResults:
    def test_zero_param_frame_goes_straight_to_scheduler(self, pair):
        _cluster, a, _b = pair
        pid, tid = register_program(a)
        frame = Microframe(a.attraction_memory.alloc_address(), tid, pid, 0)
        before = len(a.scheduling_manager.executable) + len(
            a.scheduling_manager.ready)
        a.attraction_memory.register_frame(frame)
        after = (len(a.scheduling_manager.executable)
                 + len(a.scheduling_manager.ready)
                 + len(a.scheduling_manager._pending_code))
        assert after > before or a.processing_manager.in_flight > 0

    def test_local_result_completes_frame(self, pair):
        _cluster, a, _b = pair
        pid, tid = register_program(a)
        frame = Microframe(a.attraction_memory.alloc_address(), tid, pid, 2)
        a.attraction_memory.register_frame(frame)
        a.attraction_memory.apply_result(frame.frame_id, 0, 1, pid)
        assert frame.missing_count == 1
        a.attraction_memory.apply_result(frame.frame_id, 1, 2, pid)
        assert frame.executable
        assert frame.frame_id not in a.attraction_memory.frames

    def test_remote_result_travels(self, pair):
        cluster, a, b = pair
        pid, tid = register_program(a)
        cluster.sim.run(until=0.4)  # let b learn the program
        frame = Microframe(a.attraction_memory.alloc_address(), tid, pid, 2)
        a.attraction_memory.register_frame(frame)
        b.attraction_memory.apply_result(frame.frame_id, 0, "x", pid)
        cluster.sim.run(until=0.6)
        assert frame.params[0] == "x"
        assert b.attraction_memory.stats.get("results_sent").count == 1

    def test_early_result_buffered_until_frame_registers(self, pair):
        _cluster, a, _b = pair
        pid, tid = register_program(a)
        addr = a.attraction_memory.alloc_address()
        a.attraction_memory.apply_result(addr, 0, "early", pid)
        assert a.attraction_memory.stats.get("results_buffered").count == 1
        frame = Microframe(addr, tid, pid, 2)
        a.attraction_memory.register_frame(frame)
        assert frame.params[0] == "early"

    def test_result_for_unmet_site_is_held_until_it_joins(self, pair):
        """A stolen frame can finish before the join wave has introduced
        the site its result goes to: the result waits for the record."""
        cluster, a, b = pair
        pid, tid = register_program(a)
        newcomer = cluster.add_site()
        # the moment the newcomer is in: a (its sponsor) knows it, b has
        # not had the announcement yet
        while not newcomer.running:
            assert cluster.sim.step()
        assert newcomer.site_id not in b.cluster_manager.sites
        frame = Microframe(newcomer.attraction_memory.alloc_address(),
                           tid, pid, 2)
        newcomer.program_manager.learn_program_wire(
            a.program_manager.get(pid).to_wire())
        newcomer.attraction_memory.register_frame(frame)
        b.attraction_memory.apply_result(frame.frame_id, 0, "early", pid)
        stats = b.attraction_memory.stats
        assert stats.get("results_held").count == 1
        assert stats.get("results_undeliverable").count == 0
        cluster.sim.run(until=1.0)
        assert frame.params[0] == "early"
        assert stats.get("results_sent").count == 1
        assert not b.attraction_memory._held_results

    def test_held_results_are_dropped_with_their_program(self, pair):
        _cluster, a, _b = pair
        pid, _tid = register_program(a)
        a.attraction_memory.apply_result(GlobalAddress(99, 2), 0, 1, pid)
        assert a.attraction_memory.stats.get("results_held").count == 1
        a.attraction_memory.drop_program(pid)
        assert not a.attraction_memory._held_results

    def test_result_for_dead_site_is_still_dropped(self, pair):
        """Known and dead is not unknown: recovery replays that result."""
        _cluster, a, b = pair
        pid, _tid = register_program(a)
        a.cluster_manager.mark_dead(b.site_id, left=False)
        a.attraction_memory.apply_result(
            GlobalAddress(b.site_id, 2), 0, 1, pid)
        stats = a.attraction_memory.stats
        assert stats.get("results_undeliverable").count == 1
        assert stats.get("results_held").count == 0

    def test_held_results_are_bounded(self, pair, monkeypatch):
        _cluster, a, _b = pair
        pid, _tid = register_program(a)
        monkeypatch.setattr(type(a.attraction_memory),
                            "_HELD_RESULTS_MAX", 3)
        for slot in range(5):
            a.attraction_memory.apply_result(
                GlobalAddress(99, 2), slot, 1, pid)
        stats = a.attraction_memory.stats
        assert stats.get("results_held").count == 3
        assert stats.get("results_undeliverable").count == 2

    def test_result_for_terminated_program_dropped(self, pair):
        _cluster, a, _b = pair
        pid, _tid = register_program(a)
        a.program_manager.get(pid).terminated = True
        addr = a.attraction_memory.alloc_address()
        a.attraction_memory.apply_result(addr, 0, "late", pid)
        assert a.attraction_memory.stats.get(
            "results_dropped_terminated").count == 1

    def test_drop_program_clears_frames_and_buffers(self, pair):
        _cluster, a, _b = pair
        pid, tid = register_program(a)
        frame = Microframe(a.attraction_memory.alloc_address(), tid, pid, 2)
        a.attraction_memory.register_frame(frame)
        a.attraction_memory.apply_result(
            a.attraction_memory.alloc_address(), 0, 1, pid)
        a.attraction_memory.drop_program(pid)
        assert not a.attraction_memory.frames
        assert not a.attraction_memory._pending_results


def read(cluster, site, addr, settle=0.3):
    """``live_read`` on ``site``; returns the (value, error) pairs its
    callback got at once and after the cluster settled."""
    got = []
    site.attraction_memory.live_read(
        addr, lambda value=None, error=None: got.append((value, error)))
    at_once = list(got)
    cluster.sim.run(until=cluster.sim.now + settle)
    return at_once, got


class TestObjects:
    def test_alloc_and_local_read(self, pair):
        cluster, a, _b = pair
        addr = a.attraction_memory.alloc_object({"k": 1})
        at_once, _got = read(cluster, a, addr)
        # a local hit answers inside the call: nothing to wait for
        assert at_once == [({"k": 1}, None)]
        assert a.attraction_memory.stats.get("reads_local").count == 1

    def test_remote_read_migrates_and_charges_latency(self, pair):
        cluster, a, b = pair
        addr = a.attraction_memory.alloc_object([1, 2, 3])
        at_once, got = read(cluster, b, addr)
        # the answer is a message away, and the wait is its flight
        assert at_once == []
        assert got == [([1, 2, 3], None)]
        # ownership moved to b, recorded by the homesite as it shipped
        assert addr in b.attraction_memory.objects
        assert addr not in a.attraction_memory.objects
        assert dir_shard_of(cluster, addr).attraction_memory.dir_owner(
            addr) == b.site_id
        # second read is local
        at_once, _got = read(cluster, b, addr)
        assert at_once == [([1, 2, 3], None)]

    def test_hops_send_what_the_protocol_says(self, fast_config):
        """The owner records a hop when it is the directory site (no
        message beyond the read and its reply); any other hop costs one
        DIR_UPDATE to the homesite and its DIR_ACK."""
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites

        def sent():
            return sum(s.message_manager.stats.get("sent").count
                       for s in cluster.sites)

        before = sent()
        addr = a.attraction_memory.alloc_object("v")
        read(cluster, b, addr)
        # recorded at the homesite as the object left: MEM_READ + REPLY
        assert a.attraction_memory.dir_owner(addr) == b.site_id
        assert sent() - before == 2
        read(cluster, c, addr)
        # MEM_READ to the homesite, MEM_LOCATION, MEM_READ to b, REPLY,
        # DIR_UPDATE + DIR_ACK
        assert sent() - before == 8
        assert c.attraction_memory.stats.get("dir_updates_sent").count == 1
        assert a.attraction_memory.dir_owner(addr) == c.site_id
        read(cluster, a, addr)  # home again: the directory is a local write
        assert sent() - before == 10
        assert a.attraction_memory.dir_owner(addr) == a.site_id

    def test_unknown_address_faults(self, pair):
        cluster, a, _b = pair
        _at_once, got = read(cluster, a, GlobalAddress(0, 987654))
        (value, error), = got
        assert value is None and isinstance(error, MemoryFault)

    def test_remote_write_reaches_the_owner(self, pair):
        cluster, a, b = pair
        addr = a.attraction_memory.alloc_object(1)
        b.attraction_memory.apply_write(addr, 2)
        cluster.sim.run(until=cluster.sim.now + 0.3)
        # the value travelled; the object stayed where it was
        assert a.attraction_memory.objects[addr] == 2
        assert addr not in b.attraction_memory.objects
        assert read(cluster, b, addr)[1] == [(2, None)]

    def test_dead_owner_faults_without_crash_management(self, pair):
        """Nothing answers for a dead site's memory: with no checkpoint
        to roll back to, a read of its object is a MemoryFault."""
        cluster, a, b = pair
        addr = a.attraction_memory.alloc_object("gone with its owner")
        a.crash()
        _at_once, got = read(cluster, b, addr, settle=20.0)
        (value, error), = got
        assert value is None and isinstance(error, MemoryFault)

    def test_stale_ownership_reply_does_not_fork_the_object(self, pair):
        """A MEM_READ_REPLY shipped before a rollback lands after it: the
        checkpoint has restored the object at its old owner, so adopting
        the straggler would put one address on two sites."""
        cluster, a, b = pair
        addr = a.attraction_memory.alloc_object("v")
        checkpoint = a.attraction_memory.export_checkpoint()
        got = []
        b.attraction_memory.live_read(
            addr, lambda value=None, error=None: got.append((value, error)))
        # run until a has shipped the object and the reply is in flight
        while addr in a.attraction_memory.objects:
            cluster.sim.step()
        assert not got
        for site in (a, b):  # the rollback, as RECOVER_BEGIN/STATE do it
            site.epoch += 1
            site.reset_program_state()
        a.attraction_memory.adopt_state(checkpoint)
        cluster.sim.run(until=cluster.sim.now + 0.1)
        holders = [s.site_id for s in (a, b)
                   if addr in s.attraction_memory.objects]
        assert len(holders) == 1  # single_owner (the parent: a and b)
        assert b.attraction_memory.stats.get(
            "stale_read_replies_dropped").count == 1
        # the read itself re-resolved and was answered by the restored owner
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert got == [("v", None)]


class TestLiveProtocolHandlers:
    """Drive the MEM_READ message protocol inside the sim harness."""

    def test_mem_read_serves_and_migrates(self, pair):
        cluster, a, b = pair
        addr = a.attraction_memory.alloc_object("payload")
        got = []
        b.attraction_memory.live_read(addr, lambda v, e=None: got.append((v, e)))
        cluster.sim.run(until=0.5)
        assert got == [("payload", None)]
        # b adopted ownership and published it to the directory shard
        assert addr in b.attraction_memory.objects
        assert dir_shard_of(cluster, addr).attraction_memory.dir_owner(
            addr) == b.site_id

    def test_mem_read_redirect_chain(self, pair):
        cluster, a, b = pair
        addr = a.attraction_memory.alloc_object("wander")
        # move it to b first
        b.attraction_memory.live_read(addr, lambda v, e=None: None)
        cluster.sim.run(until=0.4)
        # now ask a (the homesite, no longer the owner): expect a redirect
        got = []
        a.attraction_memory.live_read(addr, lambda v, e=None: got.append(v))
        cluster.sim.run(until=0.8)
        assert got == ["wander"]

    def test_mem_read_not_found(self, pair):
        cluster, a, b = pair
        got = []
        b.attraction_memory.live_read(
            GlobalAddress(a.site_id, 424242),
            lambda v, e=None: got.append(type(e).__name__ if e else v))
        cluster.sim.run(until=0.5)
        assert got == ["MemoryFault"]

    def test_frame_transfer_message(self, pair):
        cluster, a, b = pair
        pid, tid = register_program(a)
        frame = Microframe(a.attraction_memory.alloc_address(), tid, pid, 2)
        frame.apply_parameter(0, 5)
        msg = SDMessage(
            type=MsgType.FRAME_TRANSFER,
            src_site=a.site_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=b.site_id, dst_manager=ManagerId.ATTRACTION_MEMORY,
            program=pid,
            payload={"frame": frame.to_wire(),
                     "program_info": a.program_manager.get(pid).to_wire()},
        )
        a.message_manager.send(msg)
        cluster.sim.run(until=0.5)
        assert b.attraction_memory.stats.get("frames_adopted").count == 1
        assert b.program_manager.knows(pid)


class TestRelocation:
    def test_export_adopt_roundtrip(self, pair):
        cluster, a, b = pair
        pid, tid = register_program(a)
        frame = Microframe(a.attraction_memory.alloc_address(), tid, pid, 2)
        frame.apply_parameter(1, "kept")
        a.attraction_memory.register_frame(frame)
        obj = a.attraction_memory.alloc_object([9])
        state = a.attraction_memory.export_state()
        # codec-roundtrip the state like the real relocation message does
        from repro.serde import dumps, loads
        state = loads(dumps(state))
        b.attraction_memory.adopt_state(state)
        assert obj in b.attraction_memory.objects
        adopted = b.attraction_memory.frames[frame.frame_id]
        assert adopted.params[1] == "kept"

    def test_export_checkpoint_is_nondraining(self, pair):
        _cluster, a, _b = pair
        pid, tid = register_program(a)
        frame = Microframe(a.attraction_memory.alloc_address(), tid, pid, 2)
        a.attraction_memory.register_frame(frame)
        snapshot = a.attraction_memory.export_checkpoint()
        assert frame.frame_id in a.attraction_memory.frames  # still there
        assert len(snapshot["frames"]) >= 1


class TestAddressAllocation:
    def test_alloc_address_is_atomic_across_threads(self, pair):
        """Live worker threads allocate without visiting the reactor."""
        import sys
        import threading
        _cluster, a, _b = pair
        memory = a.attraction_memory
        before = memory.alloc_address().local
        lanes = [[] for _ in range(8)]

        def take(lane):
            for _ in range(2000):
                lane.append(memory.alloc_address())

        threads = [threading.Thread(target=take, args=(lane,))
                   for lane in lanes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-allocation
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        taken = [addr for lane in lanes for addr in lane]
        assert len(set(taken)) == 16000
        assert all(addr.site == a.site_id for addr in taken)
        # dense: no local id skipped, none handed out twice
        assert sorted(addr.local for addr in taken) == list(
            range(before + 1, before + 16001))
        for lane in lanes:  # each thread sees its own addresses ascend
            assert [x.local for x in lane] == sorted(x.local for x in lane)

    def test_sim_address_sequence_unchanged(self, monkeypatch):
        """The counter hands out the addresses the ``+= 1`` it replaced
        did, in the same order: pinned from a run before the change."""
        import hashlib

        from repro.apps import build_memstress_program, memstress_expected
        from repro.bench.harness import bench_config
        from repro.memory.manager import AttractionMemory

        taken = []
        alloc = AttractionMemory.alloc_address

        def spy(self):
            addr = alloc(self)
            taken.append(addr.pack())
            return addr

        monkeypatch.setattr(AttractionMemory, "alloc_address", spy)
        cluster = SimCluster(nsites=3, config=bench_config(seed=3))
        handle = cluster.submit(build_memstress_program(), args=(16, 50.0))
        cluster.run()
        assert handle.result == memstress_expected(16)
        assert len(taken) == 49
        assert hashlib.sha256(repr(taken).encode()).hexdigest() == (
            "18b2b6e7c18a1860ee118de96fb78860"
            "d0889e0b6f8209eed6982060200fd611")
