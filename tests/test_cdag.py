"""Tests for CDAG construction, critical-path analysis, and hints."""

from __future__ import annotations

import pytest

from repro.cdag import CDAG, derive_hints
from repro.core.program import ProgramBuilder


def diamond_program():
    """main -> {fast, slow} -> sink, slow side much heavier."""
    prog = ProgramBuilder("diamond")

    @prog.microthread(work=1, creates=("fast", "slow"))
    def main(ctx):
        pass

    @prog.microthread(work=5, creates=("sink",))
    def fast(ctx, x):
        pass

    @prog.microthread(work=500, creates=("sink",))
    def slow(ctx, x):
        pass

    @prog.microthread(work=1)
    def sink(ctx, a, b):
        pass

    return prog.build()


def looping_program():
    """Collector recreates itself — a cycle (loop of unknown length)."""
    prog = ProgramBuilder("loop")

    @prog.microthread(work=1, creates=("step",))
    def main(ctx):
        pass

    @prog.microthread(work=10, creates=("step", "leaf"))
    def step(ctx, s):
        pass

    @prog.microthread(work=3)
    def leaf(ctx, x):
        pass

    return prog.build()


class TestGraph:
    def test_nodes_and_edges(self):
        cdag = CDAG.from_program(diamond_program())
        assert set(cdag.nodes) == {"main", "fast", "slow", "sink"}
        assert cdag.node("main").fan_out == 2
        assert cdag.node("sink").fan_in == 2
        assert cdag.node("main").fan_in == 0

    def test_downstream_work(self):
        cdag = CDAG.from_program(diamond_program())
        assert cdag.node("sink").downstream_work == pytest.approx(1.0)
        assert cdag.node("slow").downstream_work == pytest.approx(501.0)
        assert cdag.node("fast").downstream_work == pytest.approx(6.0)
        assert cdag.node("main").downstream_work == pytest.approx(502.0)

    def test_critical_path_follows_heavy_branch(self):
        cdag = CDAG.from_program(diamond_program())
        assert cdag.node("slow").on_critical_path
        assert not cdag.node("fast").on_critical_path
        assert cdag.critical_path()[0] == "main"

    def test_cycle_collapsed(self):
        cdag = CDAG.from_program(looping_program())
        # step is in a self-loop; its SCC work = 10, plus leaf 3
        assert cdag.node("step").downstream_work == pytest.approx(13.0)
        assert cdag.node("main").downstream_work == pytest.approx(14.0)
        assert cdag.node("step").on_critical_path

    def test_unknown_node_rejected(self):
        cdag = CDAG.from_program(diamond_program())
        from repro.common.errors import ProgramError
        with pytest.raises(ProgramError):
            cdag.node("ghost")

    def test_primes_app_collect_is_critical(self):
        from repro.apps import build_primes_program
        cdag = CDAG.from_program(build_primes_program())
        assert cdag.node("collect").on_critical_path


class TestHints:
    def test_priorities_normalized(self):
        policy = derive_hints(diamond_program())
        assert policy.priority_of("main") == pytest.approx(100.0)
        assert policy.priority_of("slow") > policy.priority_of("fast")
        assert 0.0 <= policy.priority_of("sink") <= 100.0

    def test_critical_flags(self):
        policy = derive_hints(diamond_program())
        assert policy.is_critical("main")
        assert policy.is_critical("slow")
        assert not policy.is_critical("fast")
        assert not policy.is_critical("sink")  # leaf

    def test_unknown_name_defaults(self):
        policy = derive_hints(diamond_program())
        assert policy.priority_of("ghost") == 0.0
        assert not policy.is_critical("ghost")
