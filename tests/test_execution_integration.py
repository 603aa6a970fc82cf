"""Integration tests for program execution on simulated clusters:
dataflow correctness, work stealing, I/O routing, memory, multi-program.
"""

from __future__ import annotations

import pytest

from repro.common.config import SDVMConfig, SecurityConfig, SiteConfig
from repro.common.errors import SDVMError
from repro.core.program import ProgramBuilder
from repro.site.simcluster import SimCluster


def run_program(prog, args=(), nsites=1, config=None, **cluster_kwargs):
    cluster = SimCluster(nsites=nsites, config=config, **cluster_kwargs)
    handle = cluster.submit(prog.build() if isinstance(prog, ProgramBuilder)
                            else prog, args=args)
    cluster.run()
    return cluster, handle


def fan_out_program():
    """main spawns N workers; a variadic collector sums their results."""
    prog = ProgramBuilder("fanout")

    @prog.microthread(creates=("worker", "collect"))
    def main(ctx, n):
        ctx.charge(5)
        collector = ctx.create_frame("collect", nparams=n)
        for i in range(n):
            worker = ctx.create_frame("worker",
                                      targets=[(collector, i)])
            ctx.send_result(worker, 0, i)

    @prog.microthread
    def worker(ctx, i):
        ctx.charge(100)
        ctx.send_to_targets(i * i)

    @prog.microthread
    def collect(ctx, *values):
        ctx.charge(5)
        ctx.output("sum computed")
        ctx.exit_program(sum(values))

    return prog


class TestDataflow:
    def test_single_frame_program(self, fast_config):
        prog = ProgramBuilder("one")

        @prog.microthread
        def main(ctx, x):
            ctx.charge(1)
            ctx.exit_program(x + 1)

        _cluster, handle = run_program(prog, args=(41,),
                                       config=fast_config)
        assert handle.result == 42
        assert handle.done and not handle.failed

    def test_fan_out_fan_in(self, fast_config):
        _cluster, handle = run_program(fan_out_program(), args=(10,),
                                       config=fast_config)
        assert handle.result == sum(i * i for i in range(10))

    def test_fan_out_distributed(self, fast_config):
        cluster, handle = run_program(fan_out_program(), args=(20,),
                                      nsites=4, config=fast_config)
        assert handle.result == sum(i * i for i in range(20))
        # work actually spread: at least one steal happened
        assert cluster.total_stats().get("steals_in").count > 0

    def test_chained_continuation(self, fast_config):
        """A linear chain of frames, each created by its predecessor."""
        prog = ProgramBuilder("chain")

        @prog.microthread(creates=("step",))
        def main(ctx, n):
            ctx.charge(1)
            step = ctx.create_frame("step")
            ctx.send_result(step, 0, n)
            ctx.send_result(step, 1, 0)

        @prog.microthread(creates=("step",))
        def step(ctx, remaining, acc):
            ctx.charge(10)
            if remaining == 0:
                ctx.exit_program(acc)
                return
            nxt = ctx.create_frame("step")
            ctx.send_result(nxt, 0, remaining - 1)
            ctx.send_result(nxt, 1, acc + remaining)
        _cluster, handle = run_program(prog, args=(30,),
                                       config=fast_config)
        assert handle.result == sum(range(31))

    def test_microthread_exception_fails_program(self, fast_config):
        prog = ProgramBuilder("boom")

        @prog.microthread
        def main(ctx):
            ctx.charge(1)
            raise ValueError("intentional")

        cluster = SimCluster(nsites=1, config=fast_config)
        handle = cluster.submit(prog.build())
        with pytest.raises(SDVMError, match="failed"):
            cluster.run()
        assert handle.failed
        assert "intentional" in handle.failure

    def test_deadlock_diagnosed(self, fast_config):
        prog = ProgramBuilder("stuck")

        @prog.microthread(creates=("never",))
        def main(ctx):
            ctx.charge(1)
            ctx.create_frame("never")  # one parameter never arrives

        @prog.microthread
        def never(ctx, x):
            ctx.exit_program(x)

        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.submit(prog.build())
        with pytest.raises(SDVMError, match="unfinished"):
            cluster.run()


class TestGlobalMemory:
    def test_malloc_read_write_local(self, fast_config):
        prog = ProgramBuilder("mem")

        @prog.microthread(creates=("reader",))
        def main(ctx):
            ctx.charge(1)
            addr = ctx.malloc({"hello": [1, 2, 3]})
            reader = ctx.create_frame("reader")
            ctx.send_result(reader, 0, addr)

        @prog.microthread
        def reader(ctx, addr):
            ctx.charge(1)
            value = ctx.read(addr)
            ctx.exit_program(value["hello"])

        _cluster, handle = run_program(prog, config=fast_config)
        assert handle.result == [1, 2, 3]

    def test_remote_read_migrates_object(self, fast_config):
        """Force the reader onto another site; the object must migrate."""
        prog = ProgramBuilder("mem2")

        @prog.microthread(creates=("reader",))
        def main(ctx):
            ctx.charge(200)
            addr = ctx.malloc(1234)
            reader = ctx.create_frame("reader")
            ctx.send_result(reader, 0, addr)

        @prog.microthread
        def reader(ctx, addr):
            ctx.charge(200)
            ctx.exit_program(ctx.read(addr))

        cluster, handle = run_program(prog, nsites=2, config=fast_config)
        assert handle.result == 1234
        stats = cluster.total_stats()
        # either it ran locally (no migration) or it migrated exactly once
        assert stats.get("migrations_in").count <= 1

    def test_write_updates_value(self, fast_config):
        prog = ProgramBuilder("mem3")

        @prog.microthread(creates=("second",))
        def main(ctx):
            ctx.charge(1)
            addr = ctx.malloc(1)
            ctx.write(addr, 2)
            second = ctx.create_frame("second")
            ctx.send_result(second, 0, addr)

        @prog.microthread
        def second(ctx, addr):
            ctx.charge(1)
            ctx.exit_program(ctx.read(addr))

        _cluster, handle = run_program(prog, config=fast_config)
        assert handle.result == 2


class TestIO:
    def test_output_routed_to_frontend(self, fast_config):
        cluster, handle = run_program(fan_out_program(), args=(5,),
                                      nsites=3, config=fast_config)
        assert handle.output() == ["sum computed"]

    def test_file_roundtrip(self, fast_config):
        """The reader gets the *handle*: a file resides on the site that
        opened it, wherever the reader runs its access is rerouted there."""
        prog = ProgramBuilder("files")

        @prog.microthread(creates=("reader",))
        def main(ctx):
            ctx.charge(1)
            handle = ctx.open_file("data.txt", "rw")
            ctx.file_write(handle, b"file contents")
            reader = ctx.create_frame("reader")
            ctx.send_result(reader, 0, handle)

        @prog.microthread
        def reader(ctx, handle):
            ctx.charge(1)
            data = ctx.file_read(handle, -1, offset=0)
            ctx.file_close(handle)
            ctx.exit_program(data)

        _cluster, handle = run_program(prog, nsites=2, config=fast_config)
        assert handle.result == b"file contents"

    def test_duplicated_file_replies_do_not_abort_the_run(self, fast_config):
        """A duplicated IO_FILE_REPLY finds its request already answered:
        the copy is an orphan reply, dropped at the site, and the program
        still returns what it read."""
        from repro.chaos import FaultPlan, LinkFault
        prog = ProgramBuilder("files_dup")

        @prog.microthread(creates=("reader",))
        def main(ctx, n):
            ctx.charge(1)
            handle = ctx.open_file("data.txt", "rw")
            ctx.file_write(handle, b"file contents")
            for _ in range(n):
                ctx.send_result(ctx.create_frame("reader"), 0, handle)

        @prog.microthread
        def reader(ctx, handle):
            ctx.charge(20000)
            ctx.exit_program(ctx.file_read(handle, -1, offset=0))

        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.apply_chaos(FaultPlan(nsites=2, faults=[
            LinkFault(start=0, end=100, dup=1.0)]))
        handle = cluster.submit(prog.build(), args=(8,))
        cluster.run()
        assert handle.result == b"file contents"
        assert cluster.total_stats().get("orphan_replies").count > 0

    def test_frontend_input(self, fast_config):
        prog = ProgramBuilder("ask")

        @prog.microthread(creates=("answer",))
        def main(ctx):
            ctx.charge(1)
            answer = ctx.create_frame("answer")
            ctx.request_input("how many?", answer, 0)

        @prog.microthread
        def answer(ctx, value):
            ctx.charge(1)
            ctx.exit_program(value * 2)

        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sites[0].io_manager.input_provider = (
            lambda pid, prompt: 21 if "how many" in prompt else 0)
        handle = cluster.submit(prog.build())
        cluster.run()
        assert handle.result == 42

    def test_remote_input_reaches_the_frontend(self, fast_config):
        """Microthreads stolen away from the frontend ask for input: each
        IO_INPUT reaches the frontend's I/O manager, and its answer
        fills the collector's slot."""
        prog = ProgramBuilder("ask_far")

        @prog.microthread(creates=("ask", "collect"))
        def main(ctx, n):
            ctx.charge(5)
            collector = ctx.create_frame("collect", nparams=n)
            for i in range(n):
                ask = ctx.create_frame("ask")
                ctx.send_result(ask, 0, collector)
                ctx.send_result(ask, 1, i)

        @prog.microthread
        def ask(ctx, collector, i):
            ctx.charge(100)
            ctx.request_input(str(i), collector, i)

        @prog.microthread
        def collect(ctx, *values):
            ctx.exit_program(sum(values))

        cluster = SimCluster(nsites=4, config=fast_config.with_(trace=True))
        frontend = cluster.sites[0]
        frontend.io_manager.input_provider = lambda pid, prompt: 2 * int(
            prompt)
        handle = cluster.submit(prog.build(), args=(16,))
        cluster.run()
        assert handle.result == sum(2 * i for i in range(16))
        assert frontend.io_manager.stats.get("inputs_answered").count == 16
        sent = cluster.cluster_report().message_breakdown
        assert sent["IO_INPUT"]["count"] >= 1


class TestMultiProgram:
    def test_two_programs_interleave(self, fast_config):
        """Multitasking/multiuser (paper goals 10–11)."""
        cluster = SimCluster(nsites=4, config=fast_config)
        h1 = cluster.submit(fan_out_program().build(), args=(8,))
        h2 = cluster.submit(fan_out_program().build(), args=(12,),
                            site_index=1, at=0.001)
        cluster.run()
        assert h1.result == sum(i * i for i in range(8))
        assert h2.result == sum(i * i for i in range(12))

    def test_program_ids_distinct(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        h1 = cluster.submit(fan_out_program().build(), args=(3,))
        h2 = cluster.submit(fan_out_program().build(), args=(3,),
                            site_index=1)
        cluster.run()
        assert h1.pid != h2.pid


class TestSecurityIntegration:
    def test_program_runs_with_encryption(self, fast_config):
        config = fast_config.with_(
            security=SecurityConfig(enabled=True, cluster_password="s3cret"))
        cluster, handle = run_program(fan_out_program(), args=(6,),
                                      nsites=3, config=config)
        assert handle.result == sum(i * i for i in range(6))
        sealed = sum(s.security_manager.layer.messages_sealed
                     for s in cluster.sites)
        assert sealed > 0

    def test_dh_rotation_mid_run(self, fast_config):
        config = fast_config.with_(
            security=SecurityConfig(enabled=True))
        cluster = SimCluster(nsites=2, config=config)
        cluster.sim.run(until=0.5)
        a, b = cluster.sites
        a.security_manager.initiate_key_exchange(b.site_id)
        handle = cluster.submit(fan_out_program().build(), args=(4,))
        cluster.run()
        assert handle.result == sum(i * i for i in range(4))
        assert a.security_manager.layer.has_session_key(
            b.kernel.local_physical())


class TestHeterogeneous:
    def test_mixed_platforms_compile_on_the_fly(self, fast_config):
        """Sites with different platform ids get source and compile (§3.4)."""
        cluster = SimCluster(
            site_configs=[SiteConfig(platform="plat-a"),
                          SiteConfig(platform="plat-b"),
                          SiteConfig(platform="plat-b")],
            config=fast_config)
        handle = cluster.submit(fan_out_program().build(), args=(16,))
        cluster.run()
        assert handle.result == sum(i * i for i in range(16))
        stats = cluster.total_stats()
        assert stats.get("sources_received").count > 0   # source shipped
        assert stats.get("code_compile").count >= 2          # compiled twice

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("app, nsites", [
        ("treesum", 2), ("treesum", 3), ("treesum", 4), ("memstress", 2)])
    def test_foreign_platform_push_keeps_fallback_armed(self, app, nsites,
                                                        seed):
        """Regression: the code home defers a demand because a peer holds
        the compile duty (``compile_deferrals``), the peer's CODE_BINARY
        push arrives — for the *peer's* platform — and used to
        cancel the fallback timer, so the demand waited for ever ("no
        progress for 30 virtual seconds" at every seed).  Only a binary
        for the local platform may disarm the fallback."""
        from repro.apps import (build_memstress_program,
                                build_treesum_program, memstress_expected,
                                treesum_expected)
        from repro.bench.harness import bench_config

        if app == "treesum":
            program, args = build_treesum_program(), (64, 2000.0)
            expected = treesum_expected(64)
        else:
            program, args = build_memstress_program(), (32, 50.0)
            expected = memstress_expected(32)
        cluster = SimCluster(
            site_configs=[SiteConfig(name=f"s{i}", platform=f"plat-{i % 2}")
                          for i in range(nsites)],
            config=bench_config(seed=seed))
        handle = cluster.submit(program, args=args)
        cluster.run(progress_timeout=30.0)
        assert handle.result == expected
        stats = cluster.total_stats()
        # the run went through the branch that used to hang ...
        assert stats.get("compile_deferrals").count >= 1
        assert stats.get("binaries_stored").count >= 1
        # ... and the fallback timer, not a usable push, ended the wait
        assert stats.get("push_fallback_compiles").count >= 1

    def test_home_compiles_a_thread_whose_duty_push_never_came(self):
        """The code home defers a demand to the peer holding the thread's
        compile duty; when that peer's binary never arrives, the fallback
        timer compiles the thread at home and the program still ends."""
        from repro.apps import build_primes_program, first_n_primes

        cluster = SimCluster(nsites=2, config=SDVMConfig())
        duty = cluster.sites[1].code_manager
        duty._push_binary_to_distribution = lambda compiled: None
        handle = cluster.submit(build_primes_program(),
                                args=(20, 4, 400.0, 4000.0))
        cluster.run()
        assert handle.result == first_n_primes(20)
        home = cluster.sites[0].code_manager.stats
        assert home.get("compile_deferrals").count == 1
        assert home.get("push_fallback_compiles").count == 1
        assert duty.stats.get("compile_duties").count == 1

    def test_all_different_platforms_receive_no_binary(self):
        """E4 (§3.4): with every site on its own platform no binary serves
        a second site, so the home answers a binary-only fetch for a
        platform no peer compiles with source at once.  Parked, it was
        answered with the requester's own binary, after the fetch had
        timed out and the requester had compiled the thread itself."""
        from repro.apps import build_primes_program, first_n_primes
        from repro.bench.harness import bench_config

        cluster = SimCluster(
            site_configs=[SiteConfig(name=f"s{i}", platform=f"platform-{i}")
                          for i in range(8)],
            config=bench_config())
        handle = cluster.submit(build_primes_program(),
                                args=(20, 4, 400.0, 4000.0))
        cluster.run()
        assert handle.result == first_n_primes(20)
        stats = cluster.total_stats()
        assert stats.get("binaries_received").count == 0
        assert stats.get("sources_received").count > 0

    def test_binary_reuse_same_platform(self, fast_config):
        """Same-platform sites receive binaries, not source (§3.4).

        Sites holding a compile duty fetch the source once so the cluster
        can compile threads in parallel; everyone else must be served from
        the shared binary store, never handed source to recompile.
        """
        cluster = SimCluster(nsites=3, config=fast_config)
        handle = cluster.submit(fan_out_program().build(), args=(16,))
        cluster.run()
        assert handle.result == sum(i * i for i in range(16))
        stats = cluster.total_stats()
        assert stats.get("binaries_received").count > 0
        # a compile owner pushes its binary, and it is adopted, not compiled
        assert stats.get("binaries_pushed").count >= 1
        assert stats.get("code_binary_hit").count >= 1
        duties = stats.get("compile_duties").count
        assert stats.get("sources_received").count <= duties
