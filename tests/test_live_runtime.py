"""Tests for the live runtime: reactor kernel, threads, sockets,
blocking contexts, and multiprocess deployment.
"""

from __future__ import annotations

import time

import pytest

from repro.common.config import CostModel, SDVMConfig, SecurityConfig, SiteConfig
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
