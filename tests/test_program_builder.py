"""Tests for the program builder / partitioning API."""

from __future__ import annotations

import pytest

from repro.common.errors import ProgramError
from repro.core.program import ProgramBuilder, microthread_source_from_function


def build_two_thread_program():
    prog = ProgramBuilder("demo", description="test program")

    @prog.microthread(work=5, creates=("worker",))
    def main(ctx, n):
        ctx.exit_program(n)

    @prog.microthread(work=3)
    def worker(ctx, a, b, c):
        ctx.send_to_targets(a + b + c)

    return prog.build()


class TestBuilder:
    def test_basic_build(self):
        app = build_two_thread_program()
        assert app.entry == "main"
        assert app.threads["main"].nparams == 1
        assert app.threads["worker"].nparams == 3
        assert app.threads["main"].creates == ("worker",)
        assert app.threads["main"].thread_id != app.threads["worker"].thread_id

    def test_first_registered_is_entry(self):
        app = build_two_thread_program()
        assert app.entry_thread.name == "main"

    def test_explicit_entry_overrides(self):
        prog = ProgramBuilder("p")

        @prog.microthread
        def helper(ctx):
            pass

        @prog.microthread(entry=True)
        def main(ctx):
            pass

        assert prog.build().entry == "main"

    def test_duplicate_name_rejected(self):
        prog = ProgramBuilder("p")
        prog.add_source("t", "def t(ctx):\n    pass\n", nparams=0)
        with pytest.raises(ProgramError):
            prog.add_source("t", "def t(ctx):\n    pass\n", nparams=0)

    def test_two_entries_rejected(self):
        prog = ProgramBuilder("p")
        prog.add_source("a", "def a(ctx):\n    pass\n", nparams=0,
                        entry=True)
        with pytest.raises(ProgramError):
            prog.add_source("b", "def b(ctx):\n    pass\n", nparams=0,
                            entry=True)

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            ProgramBuilder("p").build()

    def test_unknown_creates_rejected(self):
        prog = ProgramBuilder("p")
        prog.add_source("a", "def a(ctx):\n    pass\n", nparams=0,
                        creates=("ghost",))
        with pytest.raises(ProgramError):
            prog.build()

    def test_missing_ctx_parameter_rejected(self):
        prog = ProgramBuilder("p")
        with pytest.raises(ProgramError):
            @prog.microthread
            def bad(x, y):
                pass

    def test_variadic_microthread(self):
        prog = ProgramBuilder("p")

        @prog.microthread
        def main(ctx):
            pass

        @prog.microthread
        def collector(ctx, state, *results):
            pass

        app = prog.build()
        assert app.threads["collector"].nparams == -1

    def test_variadic_entry_rejected(self):
        prog = ProgramBuilder("p")
        with pytest.raises(ProgramError):
            @prog.microthread(entry=True)
            def main(ctx, *args):
                pass

    def test_empty_name_rejected(self):
        with pytest.raises(ProgramError):
            ProgramBuilder("")


class TestProgram:
    def test_thread_table(self):
        app = build_two_thread_program()
        table = app.thread_table()
        assert table["worker"] == (app.threads["worker"].thread_id, 3)

    def test_with_program_id_rebinds_all(self):
        app = build_two_thread_program().with_program_id(77)
        assert all(src.program == 77 for src in app.threads.values())


class TestSourceExtraction:
    def test_strips_decorators(self):
        prog = ProgramBuilder("p")

        @prog.microthread(work=1)
        def sample(ctx):
            pass

        source = prog.build().threads["sample"].source
        assert source.startswith("def sample(ctx):")
        assert "@" not in source

    def test_source_is_compilable_standalone(self):
        app = build_two_thread_program()
        from repro.core.threads import compile_microthread
        for src in app.threads.values():
            compile_microthread(src, "test-platform")

    def test_lambda_rejected(self):
        with pytest.raises(ProgramError):
            microthread_source_from_function(eval("lambda ctx: None"))
