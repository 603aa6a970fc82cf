"""Attraction-memory stress workload for chaos and scaling runs.

Unlike the primes benchmark (pure dataflow, no global objects), this
program allocates ``n`` shared memory objects at the frontend and fans a
``touch`` microthread out per object.  Each touch *reads* its object —
attracting it to wherever the scheduler placed the frame, exercising the
sharded directory's lookup/migration path — then writes back a
deterministic function of the value.  A serial collector chain sums the
results and exits with the total, so the final result checks both the
dataflow and every object's read value.

Replay-safe by construction: a touch re-executed after a rollback
recovery re-reads the *checkpoint-restored* object value, so its write
and its reported result are identical across replays.
"""

from __future__ import annotations

from repro.core.program import ProgramBuilder, SDVMProgram


def memstress_expected(n: int) -> int:
    """Reference result: each object i starts at 1000+7i, one doubling."""
    return sum((1000 + 7 * i) * 2 + 1 for i in range(n))


def build_memstress_program() -> SDVMProgram:
    """Build the memory-stress application.

    Entry signature: ``main(ctx, n, scale)``; the result is the sum of
    every touched object's written-back value.
    """
    prog = ProgramBuilder(
        "memstress",
        description="n shared objects, read-migrate + write-back per site")

    @prog.microthread(work=20, creates=("collect", "touch"), entry=True)
    def main(ctx, n, scale):
        ctx.charge(20)
        if n < 1:
            ctx.exit_program(0)
            return
        addrs = [ctx.malloc(1000 + 7 * i) for i in range(n)]
        chain = [ctx.create_frame("collect", critical=True, priority=10.0)
                 for _ in range(n)]
        for i, addr in enumerate(addrs):
            worker = ctx.create_frame("touch", targets=[(chain[i], 1)])
            ctx.send_result(worker, 0, addr)
            ctx.send_result(worker, 1, i)
            ctx.send_result(worker, 2, scale)
        state = {"n": n, "seen": 0, "total": 0, "chain": chain[1:]}
        ctx.send_result(chain[0], 0, state)

    @prog.microthread(work=20)
    def collect(ctx, state, value):
        ctx.charge(20)
        state["seen"] += 1
        state["total"] += value
        if state["seen"] >= state["n"]:
            ctx.output("memstress: total " + str(state["total"]))
            ctx.exit_program(state["total"])
            return
        ctx.send_result(state["chain"].pop(0), 0, state)

    @prog.microthread(work=800)
    def touch(ctx, addr, index, scale):
        value = ctx.read(addr)
        # uneven compute so frames spread across sites via stealing
        ctx.charge(scale + (index % 5) * scale * 0.25)
        ctx.write(addr, value * 2 + 1)
        ctx.send_to_targets(value * 2 + 1)

    return prog.build()


def build_memscatter_program() -> SDVMProgram:
    """memstress with the allocations scattered over the cluster.

    memstress allocates every object in ``main``, so all of them are homed
    at the submit site — the one site a chaos plan may not crash.  Here
    ``main`` fans out one ``seed`` per object and each seed allocates
    wherever the scheduler placed it, so a plan can kill a *homesite* and
    leave orphaned addresses behind.  Same entry signature, same
    ``collect`` and ``touch`` threads, same expected result.
    """
    prog = ProgramBuilder(
        "memscatter",
        description="memstress, each object allocated where its seed ran")

    @prog.microthread(work=20, creates=("collect", "seed"), entry=True)
    def main(ctx, n, scale):
        ctx.charge(20)
        if n < 1:
            ctx.exit_program(0)
            return
        chain = [ctx.create_frame("collect", critical=True, priority=10.0)
                 for _ in range(n)]
        for i in range(n):
            seed = ctx.create_frame("seed", targets=[(chain[i], 1)])
            ctx.send_result(seed, 0, i)
            ctx.send_result(seed, 1, scale)
        state = {"n": n, "seen": 0, "total": 0, "chain": chain[1:]}
        ctx.send_result(chain[0], 0, state)

    @prog.microthread(work=200, creates=("touch",))
    def seed(ctx, index, scale):
        # enough compute that seeds are worth stealing, so homesites spread
        ctx.charge(scale * 0.25)
        addr = ctx.malloc(1000 + 7 * index)
        worker = ctx.create_frame("touch", targets=ctx.targets())
        ctx.send_result(worker, 0, addr)
        ctx.send_result(worker, 1, index)
        ctx.send_result(worker, 2, scale)

    memstress = build_memstress_program().threads
    for shared in (memstress["collect"], memstress["touch"]):
        prog.add_source(shared.name, shared.source, shared.nparams,
                        work=shared.work_hint)
    return prog.build()
