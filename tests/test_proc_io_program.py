"""Unit tests for the processing manager, I/O manager, and program manager
driven through the simulation facade.
"""

from __future__ import annotations

import pytest

from repro.apps import build_primes_program, first_n_primes
from repro.common.errors import (MemoryFault, ProgramError, SDVMError,
                                 SerializationError)
from repro.common.ids import FileHandle, make_program_id, program_origin_site
from repro.core.program import ProgramBuilder
from repro.messages import MsgType, SDMessage
from repro.proc.context import _Failed
from repro.program.manager import ProgramInfo, ProgramManager
from repro.serde import Encoded, dumps, loads
from repro.site.simcluster import SimCluster


def simple_program(name="p"):
    prog = ProgramBuilder(name)

    @prog.microthread
    def main(ctx, x):
        ctx.charge(10)
        ctx.exit_program(x)

    return prog.build()


class TestProgramIds:
    def test_program_id_embeds_origin(self):
        pid = make_program_id(5, 3)
        assert program_origin_site(pid) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_program_id(-1, 0)


class TestProgramManager:
    def test_register_and_broadcast(self, fast_config):
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        site = cluster.sites[0]
        pid = site.submit_program(simple_program(), args=(1,))
        cluster.sim.run(until=0.4)
        for other in cluster.sites[1:]:
            assert other.program_manager.knows(pid)
            info = other.program_manager.get(pid)
            assert info.code_home == site.site_id
            assert info.frontend == site.site_id

    def test_termination_propagates(self, fast_config):
        cluster = SimCluster(nsites=3, config=fast_config)
        handle = cluster.submit(simple_program(), args=(7,), at=0.01)
        cluster.run()
        assert handle.result == 7
        # run() stops the instant the frontend has the result; give the
        # PROGRAM_TERMINATED broadcast time to land everywhere
        cluster.sim.run(until=cluster.sim.now + 0.5)
        for site in cluster.sites:
            assert site.program_manager.get(handle.pid).terminated

    @staticmethod
    def count_builds(monkeypatch):
        """Record the wire of every ProgramInfo built from one."""
        built = []
        real = ProgramInfo.from_wire.__func__

        def from_wire(cls, data):
            built.append(data)
            return real(cls, data)

        monkeypatch.setattr(ProgramInfo, "from_wire", classmethod(from_wire))
        return built

    def test_known_program_is_not_relearned(self, fast_config, monkeypatch):
        """A steal reply or frame transfer carries the info of each of its
        programs; one this site knows unchanged is passed over, and only
        news (a new program, a terminated flag) builds a ProgramInfo."""
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.1)
        pm = cluster.sites[1].program_manager
        prefetched = []
        monkeypatch.setattr(pm.site.code_manager, "prefetch_program",
                            lambda info: prefetched.append(info.pid))
        built = self.count_builds(monkeypatch)
        info = ProgramInfo(pid=make_program_id(0, 60), name="p",
                           entry="main", code_home=0, frontend=0,
                           threads={"main": (0, 1, 1.0, ())})
        learned = pm.learn_program_wire(info.to_wire())
        assert learned is pm.get(info.pid) and learned == info
        assert prefetched == [info.pid] and len(built) == 1
        # the same program again, shared or decoded from a real wire
        assert pm.learn_program_wire(info.to_wire()) is learned
        assert pm.learn_program_wire(loads(dumps(info.to_wire()))) is learned
        assert prefetched == [info.pid] and len(built) == 1
        info.terminated = True
        assert pm.learn_program_wire(info.to_wire()) is learned
        assert learned.terminated and len(built) == 2
        assert prefetched == [info.pid]
        # a malformed wire is rejected whether or not its pid is known
        for wire in (list(info.to_wire()), info.to_wire()[:6],
                     (make_program_id(0, 61),) + info.to_wire()[1:5]):
            with pytest.raises(SerializationError):
                pm.learn_program_wire(wire)
        assert not pm.knows(make_program_id(0, 61))

    def test_a_run_builds_each_program_once_per_change(self, fast_config,
                                                       monkeypatch):
        built = self.count_builds(monkeypatch)
        learned = []
        real = ProgramManager.learn_program_wire

        def learn(pm, wire):
            learned.append(wire)
            return real(pm, wire)

        monkeypatch.setattr(ProgramManager, "learn_program_wire", learn)
        cluster = SimCluster(nsites=4, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(30, 6, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(30)
        # each other site learns the program once, and once more at most
        # when a wire carries the terminated flag
        assert 3 <= len(built) <= 6 < len(learned)

    def test_accounting_records_work(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        handle = cluster.submit(simple_program(), args=(1,))
        cluster.run()
        info = cluster.sites[0].program_manager.get(handle.pid)
        assert info.executions == 1
        assert info.work_charged == 10.0
        assert info.finished_at > info.started_at >= 0.0

    def test_unknown_program_rejected(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        with pytest.raises(ProgramError):
            cluster.sites[0].program_manager.get(999999)

    def test_double_register_rejected(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.sim.run(until=0.1)
        site = cluster.sites[0]
        pid = make_program_id(site.site_id, 50)
        site.program_manager.register_local(simple_program("a"), pid)
        with pytest.raises(ProgramError):
            site.program_manager.register_local(simple_program("b"), pid)

    def test_wire_roundtrip(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.sim.run(until=0.1)
        site = cluster.sites[0]
        pid = make_program_id(site.site_id, 51)
        info = site.program_manager.register_local(simple_program(), pid)
        clone = ProgramInfo.from_wire(info.to_wire())
        assert clone.pid == info.pid
        assert clone.thread_table() == info.thread_table()

    def test_every_wire_field_survives_the_codec(self):
        info = ProgramInfo(pid=make_program_id(3, 7), name="p", entry="main",
                           code_home=3, frontend=1,
                           threads={"main": (0, 2, 20.0, ("leaf",)),
                                    "leaf": (1, 1, 0.5, ())},
                           terminated=True)
        wire = info.to_wire()
        assert type(wire) is Encoded and len(wire) == 7
        clone = ProgramInfo.from_wire(loads(dumps(wire)))
        assert clone == info

    def test_wire_form_is_encoded_once_per_change(self):
        info = ProgramInfo(pid=make_program_id(3, 8), name="p", entry="main",
                           code_home=3, frontend=3,
                           threads={"main": (0, 1, 1.0, ())})
        wire = info.to_wire()
        info.executions, info.work_charged = 5, 2.5  # kept at home
        assert info.to_wire() is wire
        info.terminated = True
        done = info.to_wire()
        assert done is not wire and done.wire == dumps(tuple(done))
        assert ProgramInfo.from_wire(done).to_wire() is done

    def test_malformed_wire_rejected(self):
        good = (1, "p", "main", 0, 0, (("main", 0, 1, 2.0, ()),), False)
        for wire in (
                good[:6], good + (0,),                     # arity
                {"pid": 1}, list(good), None,
                good[:5] + ((("main", 0, 1, 2.0),),) + good[6:],  # thread
                good[:5] + ((("main", 0, 1, 2.0, None),),) + good[6:],
                good[:5] + (5,) + good[6:]):
            with pytest.raises(SerializationError):
                ProgramInfo.from_wire(wire)
        assert ProgramInfo.from_wire(good).threads == {
            "main": (0, 1, 2.0, ())}


class TestProcessing:
    def test_entry_args_mismatch_rejected(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.sim.run(until=0.1)
        with pytest.raises(ProgramError):
            cluster.sites[0].submit_program(simple_program(), args=(1, 2))

    def test_work_accounting(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        handle = cluster.submit(simple_program(), args=(1,))
        cluster.run()
        pm = cluster.sites[0].processing_manager
        assert pm.stats.get("work_units").total == 10.0
        assert pm.stats.get("executions").count == 1
        assert pm.in_flight == 0

    def test_cpu_busy_matches_charged_work(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        handle = cluster.submit(simple_program(), args=(1,))
        cluster.run()
        cpu = cluster.sites[0].kernel.cpu
        compute = cpu.busy_total - cpu.overhead_total
        expected = 10.0 * fast_config.cost.work_unit_time
        assert compute == pytest.approx(expected)

    def test_speed_scales_compute_time(self, fast_config):
        from repro.common.config import SiteConfig
        durations = {}
        for speed in (1.0, 4.0):
            cluster = SimCluster(
                site_configs=[SiteConfig(speed=speed)], config=fast_config)
            prog = ProgramBuilder("work")

            @prog.microthread
            def main(ctx):
                ctx.charge(1_000_000)
                ctx.exit_program(0)

            handle = cluster.submit(prog.build())
            cluster.run()
            durations[speed] = handle.duration
        # 4x speed is ~4x faster on the compute-dominated run
        assert durations[1.0] / durations[4.0] == pytest.approx(4.0,
                                                                rel=0.05)


def file_call(cluster, call, *args):
    """One ``IOManager.open_file`` or ``file_op`` call settled: its value,
    or raises its error — the calls a sim microthread's file operations
    go through."""
    got = []
    call(*args, lambda value=None, error=None: got.append((value, error)))
    cluster.sim.run(until=cluster.sim.now + 0.1)
    (value, error), = got
    if error is not None:
        raise error
    return value


class TestIOManager:
    def test_file_modes_enforced(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.sim.run(until=0.1)
        io = cluster.sites[0].io_manager
        with pytest.raises(ProgramError):
            file_call(cluster, io.open_file, "missing.txt", "r")
        handle = file_call(cluster, io.open_file, "new.txt", "w")
        with pytest.raises(ProgramError):
            file_call(cluster, io.file_op, handle, "read", -1)  # write-only
        with pytest.raises(ProgramError, match="unknown file operation"):
            file_call(cluster, io.file_op, handle, "truncate", 0)
        file_call(cluster, io.file_op, handle, "close", None)
        with pytest.raises(ProgramError):
            file_call(cluster, io.open_file, "x", "x+")

    def test_append_mode(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.sim.run(until=0.1)
        io = cluster.sites[0].io_manager
        h1 = file_call(cluster, io.open_file, "log", "w")
        assert file_call(cluster, io.file_op, h1, "write", b"first") == 5
        file_call(cluster, io.file_op, h1, "close", None)
        h2 = file_call(cluster, io.open_file, "log", "a")
        file_call(cluster, io.file_op, h2, "write", b"|second")
        file_call(cluster, io.file_op, h2, "close", None)
        h3 = file_call(cluster, io.open_file, "log", "r")
        assert file_call(cluster, io.file_op, h3, "read",
                         -1) == b"first|second"

    def test_stale_handle_rejected(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        # asked of the site that minted it, and rerouted there from another
        for io in (a.io_manager, b.io_manager):
            with pytest.raises(ProgramError, match="stale file handle"):
                file_call(cluster, io.file_op, FileHandle(a.site_id, 999),
                          "read", 1)

    def test_remote_handle_is_rerouted_to_its_site(self, fast_config):
        """Files reside on the site that opened them (§4): another site
        reads, seeks and writes through the handle, by messages."""
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = (site.io_manager for site in cluster.sites)
        handle = file_call(cluster, a.open_file, "shared", "rw")
        file_call(cluster, a.file_op, handle, "write", b"cluster file")
        file_call(cluster, b.file_op, handle, "seek", 8)
        assert file_call(cluster, b.file_op, handle, "read", -1) == b"file"
        assert file_call(cluster, b.file_op, handle, "write", b"!") == 1
        file_call(cluster, b.file_op, handle, "seek", 0)
        assert file_call(cluster, a.file_op, handle, "read",
                         -1) == b"cluster file!"
        # the path namespace is the opening site's own
        with pytest.raises(ProgramError, match="not found"):
            file_call(cluster, b.open_file, "shared", "r")
        file_call(cluster, b.file_op, handle, "close", None)
        assert not a._local_handles

    def test_a_remote_close_is_answered_and_leaves_the_handle_stale(
            self, fast_config):
        """A close from another site is a request like a read: once it
        is answered the owner has closed the file, and every later
        operation, a second close included, names the handle stale."""
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = (site.io_manager for site in cluster.sites)
        handle = file_call(cluster, a.open_file, "shared", "w")
        file_call(cluster, b.file_op, handle, "close", None)
        for op, arg in (("read", -1), ("close", None)):
            with pytest.raises(ProgramError, match="stale file handle"):
                file_call(cluster, b.file_op, handle, op, arg)

    def test_a_closed_local_handle_is_stale_without_a_message(
            self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a = cluster.sites[0]
        handle = file_call(cluster, a.io_manager.open_file, "own", "w")
        file_call(cluster, a.io_manager.file_op, handle, "close", None)
        local = a.message_manager.stats.get("local_messages")
        before = local.count
        with pytest.raises(ProgramError, match="stale file handle"):
            file_call(cluster, a.io_manager.file_op, handle, "write", b"x")
        assert local.count == before

    def test_an_unanswered_file_request_times_out(self, fast_config,
                                                  monkeypatch):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        handle = file_call(cluster, a.io_manager.open_file, "f", "w")
        monkeypatch.setattr(a.io_manager, "_on_io_file", lambda msg: None)
        got = []
        b.io_manager.file_op(handle, "write", b"x",
                             lambda value=None, error=None: got.append(error))
        cluster.sim.run(until=cluster.sim.now + 4.9)
        assert got == []
        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert [str(error) for error in got] == [
            f"file site {a.site_id} unresponsive"]

    def test_a_handle_of_a_crashed_site_cannot_be_reached(self,
                                                          fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        handle = file_call(cluster, a.io_manager.open_file, "f", "w")
        a.crash()
        b.cluster_manager.mark_dead(a.site_id)
        with pytest.raises(ProgramError,
                           match=f"cannot reach file site {a.site_id}"):
            file_call(cluster, b.io_manager.file_op, handle, "read", -1)

    def test_input_without_provider_fails_program(self, fast_config):
        prog = ProgramBuilder("ask")

        @prog.microthread(creates=("sink",))
        def main(ctx):
            sink = ctx.create_frame("sink")
            ctx.request_input("?", sink, 0)

        @prog.microthread
        def sink(ctx, v):
            ctx.exit_program(v)

        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.submit(prog.build())
        from repro.common.errors import SDVMError
        with pytest.raises((ProgramError, SDVMError)):
            cluster.run()

    def test_output_order_preserved(self, fast_config):
        prog = ProgramBuilder("seq")

        @prog.microthread
        def main(ctx):
            for i in range(5):
                ctx.output(f"line {i}")
            ctx.exit_program(None)

        cluster = SimCluster(nsites=1, config=fast_config)
        handle = cluster.submit(prog.build())
        cluster.run()
        assert handle.output() == [f"line {i}" for i in range(5)]


class TestSiteManagerStatus:
    def test_full_status_covers_all_managers(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        status = cluster.sites[0].site_manager.full_status()
        assert status["site_id"] == 0
        assert status["load"] == 0.0
        for name in ("processing", "scheduling", "code",
                     "attraction_memory", "io", "message", "cluster",
                     "program", "site", "security", "crash"):
            assert name in status["managers"], name

    def test_load_reflects_queue(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        handle = cluster.submit(simple_program(), args=(1,))
        cluster.run()
        assert cluster.sites[0].site_manager.current_load() == 0.0


def two_reads_program():
    """One microthread: mutates its dict argument, reads ``first``,
    allocates, writes a file, reads ``second`` — every kind of logged
    operation on both sides of a wait."""
    prog = ProgramBuilder("two_reads")

    @prog.microthread
    def main(ctx, state, first, second):
        ctx.charge(5)
        state["runs"] += 1
        state["seen"].append("start")
        one = ctx.read(first)
        kept = ctx.malloc(one)
        handle = ctx.open_file("log", "a")
        ctx.file_write(handle, b"x")
        ctx.file_close(handle)
        two = ctx.read(second)
        ctx.exit_program((state, one, two, ctx.read(kept), ctx.now,
                          ctx.rng.random()))

    return prog.build()


class TestRestartableExecution:
    """A sim microthread that misses is abandoned and re-run on the reply
    (proc/context.py): same result as one that never missed."""

    def run_two_reads(self, fast_config, owner_index):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        memory = cluster.sites[owner_index].attraction_memory
        first, second = memory.alloc_object(11), memory.alloc_object(22)
        handle = cluster.submit(
            two_reads_program(), site_index=1, at=0.25,
            args=({"runs": 0, "seen": []}, first, second))
        cluster.run()
        return cluster, handle

    def test_restart_equals_a_run_that_never_missed(self, fast_config,
                                                    monkeypatch):
        """A microthread that mutates a dict argument before its first
        remote read has the effects of one whose reads hit locally."""
        from repro.proc.context import ExecutionContext
        runs = []
        real_run = ExecutionContext.run
        monkeypatch.setattr(ExecutionContext, "run",
                            lambda ctx: (runs.append(ctx), real_run(ctx))[1])
        _cluster, local = self.run_two_reads(fast_config, 1)
        local_runs, runs[:] = list(runs), []
        cluster, remote = self.run_two_reads(fast_config, 0)
        remote_runs = runs
        state, one, two, kept, _now, draw = remote.result
        assert state == {"runs": 1, "seen": ["start"]}
        assert (one, two, kept) == (11, 22, 11)
        assert remote.result[:4] == local.result[:4]
        assert 0.0 <= draw < 1.0
        # k remote operations: k + 1 runs in host time ...
        assert len(local_runs) == 1 and len(remote_runs) == 3
        # ... observing one clock and one RNG seed, once in virtual time
        assert len({(ctx.now, ctx._rng_seed) for ctx in remote_runs}) == 1
        site = cluster.sites[1]
        stats = site.processing_manager.stats
        assert stats.get("executions").count == 1
        assert stats.get("wait_seconds").total > 0.0
        assert site.processing_manager.waiting == 0
        # logged, not repeated: one allocation, one byte in the file
        assert site.attraction_memory.stats.get(
            "objects_allocated").count == 1
        assert bytes(site.io_manager._files["log"]) == b"x"

    def suspended_reader(self, config):
        """Site b with one execution suspended on a read of a's object."""
        prog = ProgramBuilder("reader")

        @prog.microthread
        def main(ctx, addr):
            ctx.exit_program(ctx.read(addr))

        cluster = SimCluster(nsites=2, config=config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        addr = a.attraction_memory.alloc_object("v")
        handle = cluster.submit(prog.build(), args=(addr,), site_index=1,
                                at=0.25)
        while b.processing_manager.waiting == 0:
            assert cluster.sim.step()
        return cluster, a, b, addr, handle

    def test_suspended_across_a_recovery_is_discarded(self, fast_config):
        cluster, _a, b, _addr, handle = self.suspended_reader(fast_config)
        b.epoch += 1  # what RECOVER_BEGIN does before it resets the state
        cluster.sim.run(until=cluster.sim.now + 1.0)
        pm = b.processing_manager
        assert pm.stats.get("stale_epoch_discarded").count == 1
        assert pm.stats.get("executions").count == 0
        assert (pm.in_flight, pm.waiting) == (0, 0)
        assert not handle.done  # the restored frame would run again

    def test_pause_acks_with_a_read_outstanding(self, fast_config):
        """A suspended execution does not hold up a checkpoint wave: the
        pause is acked at once, the execution finishes its read while the
        site is paused, and its effects wait for the wave's COMMIT."""
        cluster, a, b, addr, handle = self.suspended_reader(
            fast_config.with_(trace=True))
        pm = b.processing_manager
        assert pm.in_flight == 1
        b.crash_manager._on_pause(1, a.site_id)
        acks = lambda: cluster.cluster_report().message_breakdown.get(  # noqa: E731
            "CHECKPOINT_ACK", {"count": 0})["count"]
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert b.paused and acks() == 1
        assert (pm.in_flight, pm.waiting) == (1, 0) and not handle.done
        # the cut would record it as its frame, with its arguments
        wire, = pm.uncommitted_wire()
        assert wire[4] == [(0, addr)]
        b.crash_manager._on_checkpoint_commit(SDMessage(
            type=MsgType.CHECKPOINT_COMMIT, src_site=a.site_id,
            dst_site=b.site_id, payload={"wave": 1}))
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert not b.paused and handle.done and handle.result == "v"
        assert pm.in_flight == 0 and pm.uncommitted_wire() == []

    def dead_owner_read(self, config):
        cluster, a, b, addr, handle = self.suspended_reader(config)
        # finish the read, take the object back home, and let a die with it
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert handle.result == "v"
        a.attraction_memory.live_read(addr, lambda value=None, error=None: None)
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert addr in a.attraction_memory.objects
        a.crash()
        b.cluster_manager.note_record_dead(a.site_id)  # b has heard
        again = cluster.submit(handle.program, args=(addr,), site_index=1)
        cluster.run(until=cluster.sim.now + 30.0, raise_on_failure=False)
        return b, again

    def test_dead_owner_read_fails_without_crash_management(self,
                                                            fast_config):
        """Nothing answers for a dead site's memory any more."""
        b, again = self.dead_owner_read(fast_config)
        assert again.failed and "MemoryFault" in again.failure
        assert b.processing_manager.stats.get(
            "microthread_errors").count == 1

    def test_dead_owner_read_is_discarded_while_recovery_is_pending(
            self, fast_config):
        """With crash management on, the rollback that is coming restores
        both the object and the frame: a dead site's silence is not the
        program's error."""
        from repro.common.config import CheckpointConfig
        b, again = self.dead_owner_read(fast_config.with_(
            checkpoint=CheckpointConfig(enabled=True, interval=1000.0)))
        pm = b.processing_manager
        assert pm.stats.get("microthread_errors").count == 0
        assert pm.stats.get("stale_epoch_discarded").count == 1
        assert (pm.in_flight, pm.waiting) == (0, 0)
        assert not again.done

    def test_a_bare_except_cannot_swallow_the_suspension(self, fast_config):
        """``Suspended`` is not an ``Exception``, and a microthread that
        catches everything still does not finish on an abandoned run."""
        prog = ProgramBuilder("greedy")

        @prog.microthread
        def main(ctx, addr):
            try:
                value = ctx.read(addr)
            except:  # noqa: E722 — the point of the test
                value = "swallowed"
            ctx.exit_program(value)

        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        addr = cluster.sites[0].attraction_memory.alloc_object("v")
        handle = cluster.submit(prog.build(), args=(addr,), site_index=1,
                                at=0.25)
        cluster.run()
        assert handle.result == "v"


def doubling_program():
    prog = ProgramBuilder("double")

    @prog.microthread
    def main(ctx, x):
        ctx.charge(200)
        ctx.exit_program(x * 2)

    return prog.build()


class TestReplicatedExecution:
    """The SDC defense between sites is two messages: REPLICATE ships a
    finished execution's recorded inputs to a buddy, VERDICT brings the
    effects of its replay back (proc/manager.py)."""

    def start(self, fast_config, arg=21, topology=None, at=0.25):
        """Two sites, everything replicated, one execution on site b —
        whose only possible buddy is a."""
        import dataclasses
        config = fast_config.with_(trace=True, scheduling=dataclasses.replace(
            fast_config.scheduling, replicate_frac=1.0))
        cluster = SimCluster(nsites=2, config=config, topology=topology)
        cluster.sim.run(until=0.2)
        handle = cluster.submit(doubling_program(), args=(arg,),
                                site_index=1, at=at)
        a, b = cluster.sites
        return cluster, a, b, handle

    def mangle(self, cluster, **link):
        """Every message on the matching links, from now on."""
        from repro.chaos import FaultPlan, LinkFault
        cluster.apply_chaos(FaultPlan(nsites=2, faults=[LinkFault(
            start=cluster.sim.now, end=cluster.sim.now + 10.0, **link)]))

    def count(self, site, name):
        return site.processing_manager.stats.get(name).count

    def sent(self, cluster, kind):
        return cluster.cluster_report().message_breakdown.get(
            kind, {"count": 0})["count"]

    def test_buddy_that_never_ran_the_thread_fetches_the_code(
            self, fast_config):
        cluster, a, b, handle = self.start(fast_config)
        cluster.run()
        assert handle.result == 42
        assert self.count(b, "executions") == 1
        assert self.count(b, "sdc_verified") == 1
        # a replayed from the message alone, with code it had to get
        assert self.count(a, "executions") == 0
        assert self.count(a, "sdc_shadow_execs") == 1
        assert a.code_manager.stats.get("code_fetch").count >= 1
        assert (self.sent(cluster, "REPLICATE"),
                self.sent(cluster, "VERDICT")) == (1, 1)

    @pytest.mark.parametrize("lost, src, dst", [("REPLICATE", 1, 0),
                                                ("VERDICT", 0, 1)])
    def test_lost_message_commits_the_primary_after_the_timeout(
            self, fast_config, lost, src, dst):
        from repro.proc.manager import REPLICATE_TIMEOUT
        cluster, a, b, handle = self.start(fast_config)
        if lost == "REPLICATE":
            self.mangle(cluster, src=src, dst=dst, drop=1.0)
        else:
            # a has the code and is replaying before its answers are lost
            while self.count(a, "sdc_shadow_execs") == 0:
                assert cluster.sim.step()
            self.mangle(cluster, src=src, dst=dst, drop=1.0)
        cluster.run()
        assert handle.result == 42
        assert self.count(b, "sdc_shadow_timeouts") == 1
        assert self.count(b, "sdc_verified") == 0
        assert self.count(b, "executions") == 1
        assert handle.duration >= REPLICATE_TIMEOUT
        assert self.sent(cluster, lost) == 1
        assert cluster.network_stats().get("chaos_dropped").count >= 1

    def test_duplicated_verdict_commits_once(self, fast_config):
        cluster, a, b, handle = self.start(fast_config)
        self.mangle(cluster, src=0, dst=1, dup=1.0)
        cluster.run()
        cluster.sim.run(until=cluster.sim.now + 0.1)
        assert handle.result == 42
        assert self.count(b, "executions") == 1
        assert self.count(b, "sdc_verified") == 1
        assert self.count(b, "sdc_stale_verdicts") == 1
        assert b.processing_manager.in_flight == 0

    def test_verdict_after_the_timeout_commits_nothing_more(self,
                                                            fast_config):
        from repro.proc.manager import REPLICATE_TIMEOUT
        cluster, a, b, handle = self.start(fast_config)
        self.mangle(cluster, src=0, dst=1, delay=2 * REPLICATE_TIMEOUT)
        cluster.run()
        assert handle.result == 42 and self.count(b, "executions") == 1
        assert self.count(b, "sdc_shadow_timeouts") == 1
        cluster.sim.run(until=cluster.sim.now + 4 * REPLICATE_TIMEOUT)
        assert self.sent(cluster, "VERDICT") == 1
        assert self.count(b, "sdc_stale_verdicts") == 1
        assert self.count(b, "executions") == 1
        assert self.count(b, "sdc_verified") == 0

    def test_verdict_from_before_a_rollback_is_discarded(self, fast_config):
        cluster, a, b, handle = self.start(fast_config)
        while self.sent(cluster, "REPLICATE") == 0:
            assert cluster.sim.step()
        b.epoch += 1  # what RECOVER_BEGIN does before it resets the state
        cluster.sim.run(until=cluster.sim.now + 1.0)
        assert self.sent(cluster, "VERDICT") == 1
        assert self.count(b, "stale_epoch_discarded") == 1
        assert self.count(b, "executions") == 0
        assert self.count(b, "sdc_verified") == 0
        assert b.processing_manager.in_flight == 0
        assert not handle.done  # the restored frame would run again

    def test_shadow_round_trip_pays_the_topology_path(self, fast_config):
        from repro.net.topology import Topology
        hop = 5e-3  # the flat NetworkConfig.latency is 120 µs
        topology = Topology()
        topology.add_link(0, 1, hop)
        cluster, a, b, handle = self.start(fast_config, topology=topology,
                                           at=0.4)
        cluster.run()
        assert handle.result == 42
        events = cluster.tracer.events
        asked = next(e.ts for e in events if e.kind == "msg_send"
                     and e.fields[0] == "REPLICATE")
        committed = next(e.ts for e in events if e.kind == "exec_end"
                         and e.site == b.site_id)
        assert committed - asked >= 2 * hop
        assert self.count(b, "sdc_verified") == 1

    def test_failed_operation_is_replayed_as_the_same_error(
            self, fast_config, monkeypatch):
        """A read of an address nobody allocated fails on the primary; the
        REPLICATE carries the failure as (class, text), the buddy's replay
        raises it at the same read, and the two agree."""
        import dataclasses
        from repro.common.ids import GlobalAddress
        prog = ProgramBuilder("failread")

        @prog.microthread
        def main(ctx, addr):
            try:
                value = ctx.read(addr)
            except Exception as error:  # noqa: BLE001 — the point
                value = (error.__class__.__name__, str(error))
            ctx.exit_program(value)

        config = fast_config.with_(scheduling=dataclasses.replace(
            fast_config.scheduling, replicate_frac=1.0))
        cluster = SimCluster(nsites=2, config=config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        oplogs, decoded = [], []
        request = b.message_manager.request

        def spy(msg, *args, **kwargs):
            if msg.type == MsgType.REPLICATE:
                oplogs.append(msg.payload["oplog"])
            return request(msg, *args, **kwargs)
        monkeypatch.setattr(b.message_manager, "request", spy)
        from_wire = _Failed.from_wire.__func__

        def counted(cls, name, text):
            failed = from_wire(cls, name, text)
            decoded.append(failed.error)
            return failed
        monkeypatch.setattr(_Failed, "from_wire", classmethod(counted))
        missing = GlobalAddress(b.site_id, 10**6)
        handle = cluster.submit(prog.build(), args=(missing,),
                                site_index=1, at=0.25)
        cluster.run()
        name, text = handle.result
        assert name == "MemoryFault" and str(missing) in text
        assert oplogs == [[(name, text)]]
        assert [(type(e), str(e)) for e in decoded] == [(MemoryFault, text)]
        assert self.count(a, "sdc_shadow_execs") == 1
        assert self.count(b, "sdc_verified") == 1
        assert self.count(b, "sdc_mismatch") == 0

    def test_unknown_error_class_decodes_to_sdvm_error(self):
        failed = _Failed.from_wire("NoSuchError", "gone")
        assert type(failed.error) is SDVMError
        assert str(failed.error) == "gone"

    def test_argument_the_wire_cannot_carry_is_shadowed_locally(
            self, fast_config):
        """``complex`` is outside the codec's type set: the record cannot
        be shipped, so the second execution happens here, in time."""
        cluster, a, b, handle = self.start(fast_config, arg=3 + 4j)
        cluster.run()
        assert handle.result == 6 + 8j
        assert self.sent(cluster, "REPLICATE") == 0
        assert self.count(a, "sdc_shadow_execs") == 0
        assert self.count(b, "sdc_shadow_execs") == 1
        assert self.count(b, "sdc_verified") == 1
        assert not b.message_manager._pending
