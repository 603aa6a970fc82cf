"""Tests for microthread source/binary compilation (§3.4 code path)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import SDVMConfig
from repro.common.errors import CodeError
from repro.common.ids import make_program_id
from repro.core.frames import Microframe
from repro.core.program import ProgramBuilder
from repro.core.threads import (
    CompiledMicrothread,
    MicrothreadSource,
    binary_from_compiled,
    compile_microthread,
    compiled_from_binary,
)
from repro.messages import MsgType
from repro.site.simcluster import SimCluster

GOOD_SOURCE = """\
def adder(ctx, a, b):
    def double(x):
        return x * 2
    ctx.charge(1)
    return double(a) + b
"""


def src(source=GOOD_SOURCE, name="adder", nparams=2):
    return MicrothreadSource(thread_id=1, name=name, program=5,
                             source=source, nparams=nparams)


class FakeCtx:
    def charge(self, units):
        pass


class TestCompile:
    def test_compile_and_run(self):
        compiled = compile_microthread(src(), "linux-x64")
        assert compiled.platform == "linux-x64"
        assert compiled.entry(FakeCtx(), 3, 4) == 10

    def test_syntax_error_raises_code_error(self):
        with pytest.raises(CodeError):
            compile_microthread(src(source="def broken(:\n"), "p")

    def test_missing_function_rejected(self):
        with pytest.raises(CodeError):
            compile_microthread(src(source="x = 1\n"), "p")

    def test_wrong_name_rejected(self):
        with pytest.raises(CodeError):
            compile_microthread(src(name="other"), "p")

    def test_restricted_builtins(self):
        evil = "def adder(ctx, a, b):\n    return open('/etc/passwd')\n"
        compiled = compile_microthread(src(source=evil), "p")
        with pytest.raises(Exception):
            compiled.entry(FakeCtx(), 1, 2)

    def test_import_at_load_time_fails(self):
        source = "import os\ndef adder(ctx, a, b):\n    return 1\n"
        with pytest.raises(CodeError):
            compile_microthread(src(source=source), "p")


class TestBinary:
    def test_binary_roundtrip(self):
        compiled = compile_microthread(src(), "platform-a")
        blob = binary_from_compiled(compiled)
        clone = compiled_from_binary(blob, src(), "platform-a")
        assert clone.entry(FakeCtx(), 5, 6) == 16

    def test_corrupt_binary_rejected(self):
        with pytest.raises(CodeError):
            compiled_from_binary(b"garbage", src(), "p")

    def test_non_code_marshal_rejected(self):
        import marshal
        with pytest.raises(CodeError):
            compiled_from_binary(marshal.dumps([1, 2, 3]), src(), "p")


class TestWire:
    """What a code fetch puts on the wire: the home answers a CODE_REQUEST
    with a CODE_BINARY (``tid platform binary``) or a CODE_SOURCE
    (``tid source?``); the program id rides in the envelope, and the
    requester knows each thread's metadata from its own program info."""

    def test_source_size(self):
        assert src().source_size() == len(GOOD_SOURCE.encode())

    def test_parked_binary_answer_carries_no_source(self):
        home, req, cluster, pid = formed_pair()
        tid, nparams = thread_of(home, pid, "worker")
        sent = spy_sends(home)
        got = []
        req.code_manager.get(pid, tid, got.append, binary_only=True)
        cluster.sim.run(until=cluster.sim.now + 0.05)
        assert got == [] and home.code_manager._parked  # no binary yet
        home.code_manager.get(pid, tid, lambda compiled: None)
        cluster.sim.run(until=cluster.sim.now + 0.2)  # compile, answer
        answer, = [m for m in sent if m.type is MsgType.CODE_BINARY]
        assert answer.reply_to >= 0 and answer.program == pid
        assert set(answer.payload) == {"tid", "platform", "binary"}
        compiled, = got
        assert (compiled.name, compiled.nparams, compiled.thread_id) == (
            "worker", nparams, tid)
        assert compiled.entry(FakeCtx(), 3) is None
        assert req.code_manager.stats.get("binaries_received").count == 1

    def test_source_without_text_reaches_the_schedulers_retry(self):
        """A home that holds neither binary nor source answers with an
        empty CODE_SOURCE: the fetch ends with None, and the scheduler
        re-queues the frame (three retries, then the program fails)."""
        home, req, cluster, pid = formed_pair()
        tid, _nparams = thread_of(home, pid, "worker")
        home.code_manager._sources.clear()
        sent = spy_sends(home)
        sched = req.scheduling_manager
        arrived = []
        code_arrived = sched._code_arrived
        sched._code_arrived = lambda frame, compiled: (
            arrived.append(compiled), code_arrived(frame, compiled))
        frame = Microframe(req.attraction_memory.alloc_address(), tid, pid,
                           nparams=0)
        sched.enqueue_executable(frame)
        cluster.sim.run(until=cluster.sim.now + 0.2)
        answers = [m for m in sent if m.type is MsgType.CODE_SOURCE]
        assert answers and all(set(m.payload) == {"tid"} for m in answers)
        assert arrived == [None] * 4
        assert frame.frame_id not in sched._code_retries

    @pytest.mark.parametrize("case", ["unknown thread", "text not a str"])
    def test_source_the_requester_cannot_place_ends_the_fetch(self, case):
        home, req, cluster, pid = formed_pair()
        tid, _nparams = thread_of(home, pid, "worker")
        if case == "unknown thread":
            del req.program_manager.get(pid).threads["worker"]
        else:
            sources = home.code_manager._sources
            sources[pid, tid] = replace(sources[pid, tid], source=b"x")
        got = []
        req.code_manager.get(pid, tid, got.append)
        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert got == [None]
        assert req.code_manager.stats.get("sources_received").count == 0


def formed_pair():
    """Two formed sites, a program registered on site 0 (its code home)
    and known on site 1, and no warm-up: every fetch is the test's own."""
    cluster = SimCluster(nsites=2, config=SDVMConfig())
    for site in cluster.sites:
        site.code_manager.prefetch_program = lambda info: None
    cluster.sim.run(until=0.2)
    home, req = cluster.sites
    prog = ProgramBuilder("pair")

    @prog.microthread(creates=("worker",))
    def main(ctx):
        ctx.create_frame("worker")

    @prog.microthread
    def worker(ctx, x):
        ctx.charge(1)

    pid = make_program_id(home.site_id, 1)
    home.program_manager.register_local(prog.build(), pid)
    cluster.sim.run(until=cluster.sim.now + 0.05)
    assert req.program_manager.knows(pid)
    return home, req, cluster, pid


def thread_of(site, pid, name):
    """The thread id and parameter count ``site`` knows for ``name``."""
    tid, nparams, _work, _creates = site.program_manager.get(pid).threads[
        name]
    return tid, nparams


def spy_sends(site):
    """The messages ``site`` sends from now on."""
    sent = []
    send = site.message_manager.send

    def spy(msg, *args, **kwargs):
        sent.append(msg)
        return send(msg, *args, **kwargs)
    site.message_manager.send = spy
    return sent
