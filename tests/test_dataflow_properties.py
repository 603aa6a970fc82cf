"""Property-based end-to-end tests: randomly shaped dataflow programs
produce the same answer on any cluster size, under any policy mix.

These are the repository's strongest invariant checks: they exercise frame
creation, result routing, stealing, code distribution, and termination for
program shapes no hand-written test would construct.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.config import CostModel, SchedulingConfig, SDVMConfig
from repro.core.program import ProgramBuilder
from repro.site.simcluster import SimCluster

FAST = SDVMConfig(
    cost=CostModel(compile_fixed_cost=1e-5),
    scheduling=SchedulingConfig(ready_target=1, keep_local_min=0))


def layered_fanout_program():
    """main -> L1 workers -> L2 workers -> collector.

    Each L1 worker spawns its own L2 children, so frame creation happens on
    whatever site the L1 worker was stolen to — the addresses flow back
    through the collector.
    """
    prog = ProgramBuilder("layers")

    @prog.microthread(creates=("level1", "collect"))
    def main(ctx, n1, n2, work):
        ctx.charge(5)
        collector = ctx.create_frame("collect", nparams=n1)
        for i in range(n1):
            worker = ctx.create_frame("level1", targets=[(collector, i)])
            ctx.send_result(worker, 0, i)
            ctx.send_result(worker, 1, n2)
            ctx.send_result(worker, 2, work)

    @prog.microthread(creates=("level2", "subcollect"))
    def level1(ctx, index, n2, work):
        ctx.charge(work)
        if n2 == 0:
            ctx.send_to_targets(index)
            return
        sub = ctx.create_frame("subcollect", nparams=n2,
                               targets=ctx.targets())
        for j in range(n2):
            child = ctx.create_frame("level2", targets=[(sub, j)])
            ctx.send_result(child, 0, index * 1000 + j)
            ctx.send_result(child, 1, work)

    @prog.microthread
    def level2(ctx, value, work):
        ctx.charge(work)
        ctx.send_to_targets(value)

    @prog.microthread
    def subcollect(ctx, *values):
        ctx.charge(2)
        ctx.send_to_targets(sum(values))

    @prog.microthread
    def collect(ctx, *values):
        ctx.charge(2)
        ctx.exit_program(sum(values))

    return prog.build()


def expected_layers(n1, n2):
    if n2 == 0:
        return sum(range(n1))
    return sum(i * 1000 + j for i in range(n1) for j in range(n2))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n1=st.integers(min_value=1, max_value=8),
    n2=st.integers(min_value=0, max_value=5),
    work=st.integers(min_value=1, max_value=5000),
    nsites=st.integers(min_value=1, max_value=5),
)
# site 1 finishes a stolen frame before the join wave has introduced it to
# site 2, where the result must go: held until the record arrives, not lost
@example(n1=6, n2=3, work=122, nsites=4)
def test_layered_program_correct_everywhere(n1, n2, work, nsites):
    cluster = SimCluster(nsites=nsites, config=FAST)
    handle = cluster.submit(layered_fanout_program(),
                            args=(n1, n2, float(work)))
    cluster.run(progress_timeout=120.0)
    assert handle.result == expected_layers(n1, n2)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    local=st.sampled_from(["fifo", "lifo", "priority"]),
    reply=st.sampled_from(["fifo", "lifo"]),
    hints=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_policies_never_change_the_answer(local, reply, hints, seed):
    config = FAST.with_(
        seed=seed,
        scheduling=replace(FAST.scheduling, local_policy=local,
                           help_reply_policy=reply, use_hints=hints))
    cluster = SimCluster(nsites=3, config=config)
    handle = cluster.submit(layered_fanout_program(), args=(6, 3, 500.0))
    cluster.run(progress_timeout=120.0)
    assert handle.result == expected_layers(6, 3)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_determinism_under_fixed_seed(seed):
    """Two identical runs produce identical virtual durations and results."""
    def run_once():
        cluster = SimCluster(nsites=4, config=FAST.with_(seed=seed))
        handle = cluster.submit(layered_fanout_program(),
                                args=(5, 2, 800.0))
        cluster.run(progress_timeout=120.0)
        return handle.result, handle.duration

    first = run_once()
    second = run_once()
    assert first == second
