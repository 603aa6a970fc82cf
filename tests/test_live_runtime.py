"""Tests for the live runtime: reactor kernel, threads, sockets, the
processing manager on a worker pool, and multiprocess deployment.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.common.config import (CheckpointConfig, ClusterConfig,
                                 CostModel, SchedulingConfig, SDVMConfig,
                                 SecurityConfig, SiteConfig)
from repro.common.errors import SDVMError
from repro.core.program import ProgramBuilder
from repro.runtime.live_cluster import LiveCluster

CFG = SDVMConfig(cost=CostModel(compile_fixed_cost=1e-4))


def fanout_program():
    prog = ProgramBuilder("fanout")

    @prog.microthread(creates=("worker", "collect"))
    def main(ctx, n):
        ctx.charge(5)
        collector = ctx.create_frame("collect", nparams=n)
        for i in range(n):
            w = ctx.create_frame("worker", targets=[(collector, i)])
            ctx.send_result(w, 0, i)

    @prog.microthread
    def worker(ctx, i):
        ctx.charge(10)
        ctx.send_to_targets(i * i)

    @prog.microthread
    def collect(ctx, *values):
        ctx.output("collected")
        ctx.exit_program(sum(values))

    return prog.build()


def memory_program():
    prog = ProgramBuilder("memory")

    @prog.microthread(creates=("reader",))
    def main(ctx):
        ctx.charge(1)
        addr = ctx.malloc({"value": 99})
        reader = ctx.create_frame("reader")
        ctx.send_result(reader, 0, addr)

    @prog.microthread
    def reader(ctx, addr):
        ctx.charge(1)
        data = ctx.read(addr)
        ctx.write(addr, {"value": 100})
        ctx.exit_program(data["value"])

    return prog.build()


def file_program():
    prog = ProgramBuilder("files")

    @prog.microthread(creates=("reader",))
    def main(ctx):
        ctx.charge(1)
        fh = ctx.open_file("shared.txt", "rw")
        ctx.file_write(fh, b"cluster file")
        reader = ctx.create_frame("reader")
        ctx.send_result(reader, 0, fh)

    @prog.microthread
    def reader(ctx, fh):
        ctx.charge(1)
        # may run on another site: access reroutes to the file's site
        data = ctx.file_read(fh, -1, offset=0)
        ctx.file_close(fh)
        ctx.exit_program(data)

    return prog.build()


def malloc_program():
    """main reads back every object it has just allocated, then hands each
    address to a child (which may be stolen): the child reads and doubles
    it, and a grandchild reads the doubled value."""
    prog = ProgramBuilder("mallocs")

    @prog.microthread(creates=("child", "collect"))
    def main(ctx, n, token):
        collector = ctx.create_frame("collect", nparams=n + 1)
        own = []
        for i in range(n):
            addr = ctx.malloc(token + i)
            own.append(ctx.read(addr))
            child = ctx.create_frame("child", targets=[(collector, i)])
            ctx.send_result(child, 0, addr)
        ctx.send_result(collector, n, own)

    @prog.microthread(creates=("check",))
    def child(ctx, addr):
        seen = ctx.read(addr)
        ctx.write(addr, seen * 2)
        spin = 0
        for _ in range(2000):  # long enough for the other site to steal
            spin += 1
        check = ctx.create_frame("check", targets=ctx.targets())
        ctx.send_result(check, 0, addr)
        ctx.send_result(check, 1, seen)
        ctx.send_result(check, 2, ctx.site)

    @prog.microthread
    def check(ctx, addr, seen, child_site):
        ctx.send_to_targets((child_site, seen, ctx.read(addr)))

    @prog.microthread
    def collect(ctx, *values):
        ctx.exit_program(list(values))

    return prog.build()


def exec_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith("sdvm-exec-") and t.is_alive()}


class TestInProc:
    def test_single_site(self):
        with LiveCluster(nsites=1, config=CFG) as cluster:
            assert cluster.run(fanout_program(), args=(5,)) == 30

    def test_three_sites(self):
        with LiveCluster(nsites=3, config=CFG) as cluster:
            expected = sum(i * i for i in range(20))
            assert cluster.run(fanout_program(), args=(20,),
                               timeout=20) == expected
        # a live wire hands over bytes and nothing else: every delivery
        # is parsed (read after shutdown, when no reactor is mid-count)
        assert cluster.cluster_report().derived["parsed_per_msg"] == 1.0

    def test_output_routed(self):
        with LiveCluster(nsites=2, config=CFG) as cluster:
            handle = cluster.submit(fanout_program(), args=(4,))
            handle.wait(15)
            assert handle.output() == ["collected"]

    def test_failure_propagates(self):
        prog = ProgramBuilder("boom")

        @prog.microthread
        def main(ctx):
            raise RuntimeError("live failure")

        with LiveCluster(nsites=1, config=CFG) as cluster:
            handle = cluster.submit(prog.build())
            with pytest.raises(SDVMError, match="failed"):
                handle.wait(15)

    def test_blocking_memory_protocol(self):
        with LiveCluster(nsites=2, config=CFG) as cluster:
            assert cluster.run(memory_program(), timeout=15) == 99

    def test_file_protocol(self):
        with LiveCluster(nsites=2, config=CFG) as cluster:
            assert cluster.run(file_program(), timeout=15) == b"cluster file"

    def test_two_programs_concurrently(self):
        with LiveCluster(nsites=3, config=CFG) as cluster:
            h1 = cluster.submit(fanout_program(), args=(6,))
            h2 = cluster.submit(fanout_program(), args=(9,), site_index=1)
            assert h1.wait(20) == sum(i * i for i in range(6))
            assert h2.wait(20) == sum(i * i for i in range(9))

    def test_join_at_runtime(self):
        with LiveCluster(nsites=1, config=CFG) as cluster:
            cluster.add_site()
            assert cluster.run(fanout_program(), args=(10,),
                               timeout=20) == sum(i * i for i in range(10))
            assert len(cluster.sites) == 2

    def test_orderly_sign_off(self):
        with LiveCluster(nsites=3, config=CFG) as cluster:
            cluster.run(fanout_program(), args=(5,), timeout=15)
            cluster.sign_off_site(2)
            # remaining sites still serve programs
            assert cluster.run(fanout_program(), args=(5,),
                               timeout=15) == 30

    def test_encrypted_cluster(self):
        config = SDVMConfig(
            cost=CostModel(compile_fixed_cost=1e-4),
            security=SecurityConfig(enabled=True, cluster_password="pw"))
        with LiveCluster(nsites=2, config=config) as cluster:
            assert cluster.run(fanout_program(), args=(6,),
                               timeout=15) == sum(i * i for i in range(6))

    def test_heterogeneous_platforms(self):
        with LiveCluster(
                site_configs=[SiteConfig(platform="plat-a"),
                              SiteConfig(platform="plat-b")],
                config=CFG) as cluster:
            assert cluster.run(fanout_program(), args=(12,),
                               timeout=20) == sum(i * i for i in range(12))


class TestTcp:
    def test_fanout_over_sockets(self):
        with LiveCluster(nsites=3, config=CFG,
                         transport="tcp") as cluster:
            expected = sum(i * i for i in range(15))
            assert cluster.run(fanout_program(), args=(15,),
                               timeout=30) == expected

    def test_memory_over_sockets(self):
        with LiveCluster(nsites=2, config=CFG,
                         transport="tcp") as cluster:
            assert cluster.run(memory_program(), timeout=20) == 99


class TestWorkerPool:
    """Microthreads run on a bounded pool of persistent workers."""

    def test_pool_is_bounded_and_stopped_at_shutdown(self):
        leftovers = exec_threads()  # other tests' stragglers, if any
        site_config = SiteConfig(name="solo", max_parallel=3)
        with LiveCluster(site_configs=[site_config], config=CFG) as cluster:
            expected = sum(i * i for i in range(298))
            assert cluster.run(fanout_program(), args=(298,),
                               timeout=30) == expected
            site = cluster.sites[0]
            assert site.processing_manager.stats.get(
                "executions").count == 300
            started = site.kernel.workers_started
            assert 1 <= started <= site_config.max_parallel + 1
            assert len(exec_threads() - leftovers) == started
        # the suite builds dozens of clusters in one process: a pool that
        # outlived its cluster would pile up
        assert not exec_threads() - leftovers

    def test_crashed_site_stops_its_workers(self):
        leftovers = exec_threads()
        with LiveCluster(nsites=2, config=CFG) as cluster:
            assert cluster.run(fanout_program(), args=(12,),
                               timeout=20) == sum(i * i for i in range(12))
            cluster.crash_site(1)
        assert not exec_threads() - leftovers

    def test_raising_microthread_frees_worker_and_slot(self):
        prog = ProgramBuilder("boom")

        @prog.microthread
        def main(ctx):
            raise RuntimeError("live failure")

        boom = prog.build()
        site_config = SiteConfig(name="solo", max_parallel=1)
        with LiveCluster(site_configs=[site_config], config=CFG) as cluster:
            for _ in range(5):
                with pytest.raises(SDVMError, match="failed"):
                    cluster.submit(boom).wait(15)
            # one slot, one overcommit slot: five lost ones would wedge it
            assert cluster.run(fanout_program(), args=(20,),
                               timeout=20) == sum(i * i for i in range(20))
            pm = cluster.sites[0].processing_manager
            assert pm.stats.get("microthread_errors").count == 5
            assert cluster.sites[0].kernel.workers_started <= 2
            assert cluster.sites[0].kernel.reactor_call(
                lambda: pm.in_flight) == 0


def chain_program():
    """``left`` microthreads in a row, each a few milliseconds long."""
    prog = ProgramBuilder("chain")

    @prog.microthread(creates=("main",))
    def main(ctx, left, seen):
        spin = 0
        for _ in range(200000):  # the run must outlive a checkpoint wave
            spin += 1
        if left == 0:
            ctx.exit_program(seen)
            return
        successor = ctx.create_frame("main")
        ctx.send_result(successor, 0, left - 1)
        ctx.send_result(successor, 1, seen + [left])

    return prog.build()


class TestCheckpointPlane:
    def test_committed_wave_is_byte_equal_on_coordinator_and_backup(self):
        config = CFG.with_(checkpoint=CheckpointConfig(enabled=True,
                                                       interval=0.03))
        with LiveCluster(nsites=2, config=config) as cluster:
            assert cluster.run(chain_program(), args=(60, []),
                               timeout=30) == list(range(60, 0, -1))

            def view(site):
                cm = site.crash_manager
                return site.kernel.reactor_call(lambda: (
                    cm.committed_wave, dict(cm.committed),
                    bool(cm._acks_pending or cm._states_pending)))

            # no program, no new wave: the last one commits and replicates
            deadline = time.monotonic() + 10.0
            while True:
                (wave, shards, open_wave), (copy_wave, copy, _) = map(
                    view, cluster.sites)
                if not open_wave and wave == copy_wave:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert wave >= 1
            assert sorted(shards) == [0, 1]
            assert all(type(blob) is bytes for blob in shards.values())
            assert copy == shards
            stats = cluster.cluster_report().merged
            assert (2 * stats.get("wave_commit").count
                    <= stats.get("shards_serialized").count
                    <= 2 * stats.get("wave_begin").count)


def spinning_fanout_program():
    """``n`` workers that each spin ``rounds`` times: the sandbox has no
    clock to sleep on, so the tests time the loop (see ``spin_rounds``)."""
    prog = ProgramBuilder("spinning")

    @prog.microthread(creates=("worker", "collect"))
    def main(ctx, n, rounds):
        collector = ctx.create_frame("collect", nparams=n)
        for i in range(n):
            w = ctx.create_frame("worker", targets=[(collector, i)])
            ctx.send_result(w, 0, rounds)

    @prog.microthread
    def worker(ctx, rounds):
        for _ in range(rounds):
            pass
        ctx.send_to_targets(1)

    @prog.microthread
    def collect(ctx, *values):
        ctx.exit_program(sum(values))

    return prog.build()


def spin_rounds(seconds):
    """Rounds of the workers' loop that take at least ``seconds`` here:
    timed at the fastest of five samples, so a sample slowed by a busy
    host cannot shorten the loop."""
    fastest = float("inf")
    for _ in range(5):
        began = time.perf_counter()
        for _ in range(100_000):
            pass
        fastest = min(fastest, time.perf_counter() - began)
    return int(100_000 * seconds / fastest) + 1


class TestClusterHeartbeats:
    """Cluster heartbeats under the live kernel: any message is a beat, a
    crashed site is found by its silence, and a leaver judges no one."""

    # wide enough that a busy host's scheduling jitter stays small
    # against one interval
    INTERVAL, TIMEOUT = 0.2, 0.8
    CONFIG = CFG.with_(cluster=ClusterConfig(heartbeats_enabled=True,
                                             heartbeat_interval=INTERVAL,
                                             heartbeat_timeout=TIMEOUT))

    @staticmethod
    def crashes_detected(cluster):
        return sum(site.cluster_manager.stats.get("crashes_detected").count
                   for site in cluster.sites)

    def test_crash_is_detected_within_timeout_and_two_intervals(self):
        # the journal stamps each detection on the survivor's own clock,
        # which every kernel of the cluster shares
        config = self.CONFIG.with_(trace=True)
        with LiveCluster(nsites=3, config=config) as cluster:
            assert cluster.run(fanout_program(), args=(8,),
                               timeout=15) == sum(i * i for i in range(8))
            victim = cluster.sites[2].site_id
            records = [site.cluster_manager.sites[victim]
                       for site in cluster.sites[:2]]
            crashed_at = cluster.horizon
            cluster.crash_site(2)
            deadline = time.monotonic() + 10.0
            while (any(record.alive for record in records)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert not any(record.alive for record in records)
            assert not any(record.left for record in records)
            detected = [event.ts
                        for event in cluster.tracer.select("site_dead")
                        if event.fields == (victim,)]
            assert len(detected) == 2
            bound = self.TIMEOUT + 2 * self.INTERVAL
            assert max(detected) - crashed_at <= bound, \
                (crashed_at, detected)

    def test_a_leaver_that_drains_past_the_timeout_suspects_no_one(self):
        # one worker thread a site, so the spinning workers leave the
        # reactors the interpreter lock often enough to beat on time
        sites = [SiteConfig(max_parallel=1) for _ in range(3)]
        with LiveCluster(site_configs=sites, config=self.CONFIG) as cluster:
            leaver = cluster.sites[2]
            handle = cluster.submit(spinning_fanout_program(),
                                    args=(4, spin_rounds(2 * self.TIMEOUT)))
            deadline = time.monotonic() + 10.0
            while not leaver.kernel.reactor_call(
                    lambda: leaver.processing_manager.in_flight):
                assert time.monotonic() < deadline, "site 2 got no work"
                time.sleep(0.005)
            began = time.monotonic()
            cluster.sign_off_site(2)
            # the leaver drained past the heartbeat timeout
            assert time.monotonic() - began > self.TIMEOUT
            assert handle.wait(30) == 4
            time.sleep(self.TIMEOUT + 2 * self.INTERVAL)
            assert self.crashes_detected(cluster) == 0
            for site in cluster.sites[:2]:
                assert site.cluster_manager.sites[leaver.site_id].left
                assert len(site.cluster_manager.alive_peers()) == 1

    def test_a_busy_run_beats_implicitly(self):
        sites = [SiteConfig(max_parallel=1) for _ in range(3)]
        with LiveCluster(site_configs=sites, config=self.CONFIG) as cluster:
            # several intervals of stealing and results, all ways round
            assert cluster.run(spinning_fanout_program(),
                               args=(30, spin_rounds(self.INTERVAL / 2)),
                               timeout=30) == 30
            stats = cluster.total_stats()
            assert stats.get("heartbeats_implicit").count > 0
            assert self.crashes_detected(cluster) == 0


class TestHandOffs:
    """Which context operations wait for the reactor, and which frames
    the sending thread writes itself."""

    CONFIG = SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0))

    def test_malloc_is_ordered_before_its_readers(self):
        """A posted allocation is adopted before the allocating
        microthread's own read, and before a child on the other site can
        ask for it over TCP — 50 programs to shake the ordering."""
        n = 8
        with LiveCluster(nsites=2, config=self.CONFIG,
                         transport="tcp") as cluster:
            program = malloc_program()
            for round_ in range(50):
                token = 1000 * (round_ + 1)
                *children, own = cluster.run(program, args=(n, token),
                                             timeout=20)
                assert own == [token + i for i in range(n)]
                assert [(seen, final) for _site, seen, final in children] \
                    == [(token + i, 2 * (token + i)) for i in range(n)]
            home, thief = cluster.sites
            # the remote half of the argument was exercised, not skipped
            assert thief.attraction_memory.stats.get(
                "reads_remote").count > 0
            assert home.processing_manager.stats.get(
                "ctx_round_trips").total > 0

    def test_memstress_round_trips_and_inline_sends(self):
        from repro.apps import build_memstress_program, memstress_expected

        with LiveCluster(nsites=2, config=self.CONFIG,
                         transport="tcp") as cluster:
            for _ in range(3):
                assert cluster.run(build_memstress_program(),
                                   args=(64, 1.0),
                                   timeout=30) == memstress_expected(64)
        report = cluster.cluster_report()
        # per program: main (64 mallocs, 128 create_frames) never waits
        # for the reactor, each of the 64 touches waits once (its read),
        # the 64 collects never
        assert report.merged.get("executions").count == 3 * 129
        assert report.merged.get("ctx_round_trips").total == 3 * 64
        assert report.derived["round_trips_per_exec"] == pytest.approx(
            64 / 129)
        assert report.derived["inline_send_frac"] >= 0.9
        # the memory protocol's price: the 192 allocations sent nothing,
        # and every object that moved left its homesite for the first
        # time — MEM_READ + MEM_READ_REPLY, recorded by the shipper
        assert report.merged.get("objects_allocated").count == 3 * 64
        assert report.derived["dir_updates_per_alloc"] == 0.0
        moved = report.merged.get("migrations_in").count
        assert report.derived["msgs_per_remote_read"] == (2.0 if moved
                                                          else 0.0)


class FlipOnce:
    """A corrupter for ``ProcessingManager.sdc_arm``: flips the first
    integer ``send_result`` value the site at ``index`` completes — a
    primary's or a shadow's — and nothing after it."""

    def __init__(self, index):
        self.index = index
        self.flipped = 0

    def corrupt_effects(self, index, effects):
        if index != self.index or self.flipped:
            return False
        for effect in effects:
            value = effect.data.get("value")
            if effect.kind.value == "send_result" and type(value) is int:
                effect.data["value"] = value ^ (1 << 20)
                self.flipped += 1
                return True
        return False


class TestOneProcessingManager:
    """The live kernel runs the sim's processing manager and context:
    replication defends it, and the memory manager alone decides when a
    read has failed."""

    #: the fastest a read of a dead owner's object may fail: one MEM_READ
    #: timeout of the memory manager.  An in-process wire refuses a send
    #: to a closed site at once, so only the retries' back-off is paid
    DEAD_OWNER_BOUND_S = 2.0

    def test_corruption_is_detected_and_outvoted(self):
        config = CFG.with_(scheduling=SchedulingConfig(replicate_frac=1.0))
        expected = sum(i * i for i in range(12))
        with LiveCluster(nsites=2, config=config) as cluster:
            # both sites hold the code before anything is corrupted
            assert cluster.run(fanout_program(), args=(12,),
                               timeout=20) == expected
            corrupter = FlipOnce(1)
            for index, site in enumerate(cluster.sites):
                site.kernel.reactor_call(
                    lambda site=site, index=index:
                    site.processing_manager.sdc_arm(corrupter, index))
            assert cluster.run(fanout_program(), args=(12,),
                               timeout=20) == expected
        stats = cluster.cluster_report().merged
        assert corrupter.flipped == 1
        mismatches = stats.get("sdc_mismatch").count
        assert mismatches >= 1
        assert stats.get("sdc_resolved").count == mismatches
        assert stats.get("sdc_tainted_commit").count == 0
        assert stats.get("sdc_verified").count > 0

    def test_waits_interleaved_on_many_workers(self):
        """Five slots a site, every touch waiting on its read, and the
        interpreter switching threads every microsecond: each program is
        right, each touch waited once, and every slot is given back."""
        from repro.apps import build_memstress_program, memstress_expected

        sites = [SiteConfig(name=f"site{i}", max_parallel=5)
                 for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with LiveCluster(site_configs=sites,
                             config=TestHandOffs.CONFIG) as cluster:
                for _ in range(10):
                    assert cluster.run(build_memstress_program(),
                                       args=(64, 1.0),
                                       timeout=60) == memstress_expected(64)
                assert sum(site.kernel.workers_started
                           for site in cluster.sites) > 2  # > the cores
                books = [site.kernel.reactor_call(
                    lambda pm=site.processing_manager: (pm.in_flight,
                                                        pm.waiting))
                    for site in cluster.sites]
        finally:
            sys.setswitchinterval(interval)
        assert books == [(0, 0), (0, 0)]
        assert cluster.cluster_report().merged.get(
            "ctx_round_trips").total == 10 * 64

    def test_read_of_a_dead_owner_fails_the_program(self):
        prog = ProgramBuilder("reader")

        @prog.microthread
        def main(ctx, addr):
            ctx.exit_program(ctx.read(addr))

        with LiveCluster(nsites=2, config=CFG) as cluster:
            owner, reader = cluster.sites
            addr = owner.kernel.reactor_call(
                lambda: owner.attraction_memory.alloc_object("v"))
            cluster.crash_site(0)
            started = time.monotonic()
            handle = cluster.submit(prog.build(), args=(addr,),
                                    site_index=1)
            with pytest.raises(SDVMError, match="MemoryFault"):
                handle.wait(10 * self.DEAD_OWNER_BOUND_S)
            assert time.monotonic() - started < self.DEAD_OWNER_BOUND_S
            assert reader.processing_manager.stats.get(
                "microthread_errors").count == 1


#: the attraction memory's own message types
MEMORY_TYPES = ("MEM_READ", "MEM_READ_REPLY", "MEM_LOCATION",
                "DIR_UPDATE", "DIR_ACK")


def scripted_hops(cluster, on_site, settle):
    """Allocate on a, then read from b, c and a in turn, each hop settled
    before the next; returns the per-type message counts after every
    step and the homesite's final directory entry.

    ``on_site(site, fn)`` runs ``fn`` where the site's managers may be
    touched; ``settle(done)`` returns once ``done()`` holds.  The counts
    are of sends, and the homesite has sent its DIR_ACK by the time its
    directory shows the update."""
    a, b, c = cluster.sites

    def counts():
        messages = cluster.cluster_report().message_breakdown
        return {t: int(messages.get(t, {"count": 0})["count"])
                for t in MEMORY_TYPES}

    # running is not acquainted: the join wave's announcements trail it
    settle(lambda: all(
        on_site(site, lambda site=site: len(site.cluster_manager.sites)) == 3
        for site in cluster.sites))
    addr = on_site(a, lambda: a.attraction_memory.alloc_object("v"))
    steps = [counts()]
    for reader in (b, c, a):
        got = []
        on_site(reader, lambda: reader.attraction_memory.live_read(
            addr, lambda value, error=None: got.append((value, error))))
        settle(lambda: got and on_site(
            a, lambda: a.attraction_memory.dir_owner(addr))
            == reader.site_id)
        assert got == [("v", None)]
        steps.append(counts())
    return steps, on_site(a, lambda: a.attraction_memory.dir_owner(addr))


#: everything a program's memory and file accesses put on the wire
PROTOCOL_TYPES = MEMORY_TYPES + (
    "MEM_NOT_FOUND", "MEM_WRITE", "IO_FILE_READ", "IO_FILE_READ_REPLY",
    "IO_FILE_WRITE", "IO_FILE_WRITE_ACK", "IO_FILE_CLOSE")


def pin_placement(cluster, where):
    """Run every microthread on the site its *name* maps to.

    A live cluster places frames by who asks first, which no two runs
    repeat, so the differential programs are placed by hand instead: the
    config lets no site give work away, and each site's scheduler intake
    sends a frame that belongs elsewhere straight there (one
    FRAME_TRANSFER, like a proactive push).  Placement is then a function
    of the program alone — the same under both kernels — and so is every
    message its memory and file accesses cause."""
    from repro.messages import MsgType, SDMessage

    ids = [site.site_id for site in cluster.sites]
    for site in cluster.sites:
        sched = site.scheduling_manager

        def enqueue(frame, site=site, sched=sched,
                    here=sched.enqueue_executable):
            table = site.program_manager.get(frame.program).thread_table()
            name = next(name for name, (thread_id, _n) in table.items()
                        if thread_id == frame.thread_id)
            target = ids[where[name]]
            if target == site.site_id:
                here(frame)
                return
            site.message_manager.send(SDMessage(
                type=MsgType.FRAME_TRANSFER,
                src_site=site.site_id, dst_site=target,
                payload={"frames": [frame.to_wire()],
                         "program_infos": sched._program_infos([frame]),
                         "epoch": site.epoch}))

        sched.enqueue_executable = enqueue


class TestSimLiveDifferential:
    """The two kernels run one memory and file protocol: the same script,
    and the same programs placed the same way, send the same messages
    under both and compute the same result."""

    CONFIG = SDVMConfig(cost=CostModel(compile_fixed_cost=1e-4), trace=True)

    #: nothing is given away or pushed (placement is pinned by name), and
    #: one microthread at a time per site as in the benchmark's twin
    PINNED = SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-4), trace=True,
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=10**9,
                                    push_enabled=False))
    SITES = [SiteConfig(name=f"site{i}", max_parallel=1) for i in range(3)]

    def sim_run(self):
        from repro.site.simcluster import SimCluster
        cluster = SimCluster(nsites=3, config=self.CONFIG)
        cluster.sim.run(until=0.2)

        def settle(done):
            cluster.sim.run(until=cluster.sim.now + 0.2)
            assert done()

        return scripted_hops(cluster, lambda _site, fn: fn(), settle)

    def live_run(self):
        import time

        def settle(done):
            deadline = time.monotonic() + 10.0
            while not done():
                assert time.monotonic() < deadline
                time.sleep(0.005)

        with LiveCluster(nsites=3, config=self.CONFIG) as cluster:
            return scripted_hops(
                cluster, lambda site, fn: site.kernel.reactor_call(fn),
                settle)

    def test_scripted_hops_send_the_same_messages(self):
        sim_steps, sim_owner = self.sim_run()
        live_steps, live_owner = self.live_run()
        assert sim_steps == live_steps
        assert sim_owner == live_owner == 0
        zero = dict.fromkeys(MEMORY_TYPES, 0)
        assert sim_steps == [
            zero,  # the allocation: nothing
            # first hop away from home: the homesite records it
            {**zero, "MEM_READ": 1, "MEM_READ_REPLY": 1},
            # a later hop: redirect, fetch, one update to the homesite
            {"MEM_READ": 3, "MEM_READ_REPLY": 2, "MEM_LOCATION": 1,
             "DIR_UPDATE": 1, "DIR_ACK": 1},
            # back home: the directory site publishes to itself
            {"MEM_READ": 4, "MEM_READ_REPLY": 3, "MEM_LOCATION": 1,
             "DIR_UPDATE": 1, "DIR_ACK": 1},
        ]

    # -- whole programs ----------------------------------------------------
    @staticmethod
    def protocol_counts(cluster):
        messages = cluster.cluster_report().message_breakdown
        return {t: int(messages[t]["count"]) for t in PROTOCOL_TYPES
                if t in messages}

    def on_sim(self, program, args, where):
        from repro.site.simcluster import SimCluster
        cluster = SimCluster(site_configs=self.SITES, config=self.PINNED)
        cluster.sim.run(until=0.2)
        pin_placement(cluster, where)
        handle = cluster.submit(program, args=args, at=0.25)
        cluster.run()
        cluster.sim.run(until=cluster.sim.now + 0.2)  # trailing DIR_ACKs
        return handle.result, self.protocol_counts(cluster)

    def on_live(self, program, args, where):
        with LiveCluster(site_configs=self.SITES,
                         config=self.PINNED) as cluster:
            pin_placement(cluster, where)
            result = cluster.run(program, args=args, timeout=30)
            deadline = time.monotonic() + 10.0
            while True:  # a DIR_ACK may trail the result
                counts = self.protocol_counts(cluster)
                if counts.get("DIR_ACK", 0) == counts.get("DIR_UPDATE", 0):
                    return result, counts
                assert time.monotonic() < deadline
                time.sleep(0.005)

    def both(self, program, args, where):
        sim_result, sim_counts = self.on_sim(program, args, where)
        live_result, live_counts = self.on_live(program, args, where)
        assert sim_result == live_result
        assert sim_counts == live_counts
        return sim_result, sim_counts

    def test_memstress(self):
        """Allocated at the submit site, touched on another: every read is
        a first hop away from home — two messages, recorded by the shipper;
        every write-back finds its object where the read brought it."""
        from repro.apps import build_memstress_program, memstress_expected
        result, counts = self.both(
            build_memstress_program(), (12, 1.0),
            {"main": 0, "collect": 0, "touch": 1})
        assert result == memstress_expected(12)
        assert counts == {"MEM_READ": 12, "MEM_READ_REPLY": 12}

    def test_memscatter(self):
        """Allocated where the seeds ran, touched on a third site."""
        from repro.apps import memstress_expected
        from repro.apps.memstress import build_memscatter_program
        result, counts = self.both(
            build_memscatter_program(), (12, 1.0),
            {"main": 0, "collect": 0, "seed": 1, "touch": 2})
        assert result == memstress_expected(12)
        assert counts == {"MEM_READ": 12, "MEM_READ_REPLY": 12}

    def test_malloc_program(self):
        """Each object hops twice: home -> child's site (recorded by the
        homesite as it ships), then -> check's site by way of the
        directory (redirect, fetch, DIR_UPDATE + DIR_ACK).  The child's
        write finds the object local."""
        n = 5
        result, counts = self.both(
            malloc_program(), (n, 100),
            {"main": 0, "collect": 0, "child": 1, "check": 2})
        *children, own = result
        assert own == [100 + i for i in range(n)]
        child_site = children[0][0]
        assert children == [(child_site, 100 + i, 2 * (100 + i))
                            for i in range(n)]
        assert counts == {"MEM_READ": 3 * n, "MEM_READ_REPLY": 2 * n,
                          "MEM_LOCATION": n, "DIR_UPDATE": n, "DIR_ACK": n}

    def test_file_program(self):
        """The file resides where ``main`` opened it; the reader's seek,
        read and close are rerouted there."""
        result, counts = self.both(file_program(), (),
                                   {"main": 0, "reader": 1})
        assert result == b"cluster file"
        assert counts == {
            "IO_FILE_WRITE": 1, "IO_FILE_WRITE_ACK": 1,  # the seek
            "IO_FILE_READ": 1, "IO_FILE_READ_REPLY": 1, "IO_FILE_CLOSE": 1}


@pytest.mark.slow
class TestMultiprocess:
    def test_worker_processes_join_and_compute(self):
        from repro.runtime.multiproc import (
            spawn_workers, stop_workers, wait_for_cluster_size)
        with LiveCluster(nsites=1, config=CFG,
                         transport="tcp") as cluster:
            addr = cluster.sites[0].kernel.local_physical()
            workers = spawn_workers(2, addr, CFG)
            try:
                assert wait_for_cluster_size(cluster.sites[0], 3,
                                             timeout=20)
                expected = sum(i * i for i in range(24))
                assert cluster.run(fanout_program(), args=(24,),
                                   timeout=40) == expected
            finally:
                stop_workers(workers)
