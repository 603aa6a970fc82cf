"""The processing manager, under both kernels.

Execution timeline for one microframe (see DESIGN.md, "Execution
semantics"):

1. the microthread function runs where the kernel hosts user code
   (:meth:`~repro.site.kernel.Kernel.run_user`: inline at one instant of
   virtual time in the sim, on a pooled worker thread live), producing
   charged work W and a buffered effect list;
2. if an operation has to wait (a remote read, a rerouted file access —
   and live, any read or file call) the run is abandoned, the slot counts
   as ``waiting`` with the CPU *free* (this is what latency hiding
   overlaps — other in-flight frames compute meanwhile), and the reply
   re-runs the frame from its argument snapshot, every earlier answer
   replayed from the log — once per wait;
3. the CPU is occupied for W/speed seconds (shared with everything else
   on this site; live, real time has passed already);
4. at completion the effects dispatch on the site's one thread: frames
   register, results travel, output flows, the frame is consumed — for an
   execution picked for replication, once another site has repeated it
   from its recorded inputs (REPLICATE) and answered with the same
   effects (VERDICT); while a checkpoint wave is open, once the wave has
   ended (:meth:`ProcessingManager.hold`).

Until its effects have dispatched an execution is *uncommitted*: a
checkpoint cut records it as its frame with the arguments it started
from, and a rollback runs that frame again like any other.

A context-switch cost is charged whenever more than one execution is in
flight, so very large ``max_parallel`` degrades — reproducing the paper's
"about 5" sweet spot (benchmarks/bench_latency_hiding.py).
"""

from __future__ import annotations

import traceback
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.common.errors import SerializationError
from repro.common.ids import ManagerId
from repro.core.frames import Microframe
from repro.core.threads import CompiledMicrothread
from repro.messages import MsgType, SDMessage, make_reply
from repro.proc.context import Effect, EffectKind, ExecutionContext, Suspended
from repro.sched.policies import replicate_chosen
from repro.site.manager_base import Manager
from repro.trace.causal import exec_node

#: how long a primary waits for a VERDICT before its own result stands
#: (the buddy died, or chaos ate the REPLICATE or the answer)
REPLICATE_TIMEOUT = 0.25


def effects_key(effects: list) -> str:
    """Canonical comparison key for a buffered effect list.

    Two executions of the same microthread over the same recorded inputs
    produce identical keys unless one of them was corrupted — effect data
    is plain values, addresses, and tuples with deterministic reprs.
    """
    return repr([(e.kind.value, sorted(e.data.items())) for e in effects])


def _attempt(ctx: ExecutionContext) -> Optional[BaseException]:
    """One run of ``ctx``, on whichever thread hosts user code: None, or
    what it raised — :class:`Suspended` when the run was abandoned."""
    try:
        ctx.run()
    except (Suspended, Exception) as raised:  # noqa: BLE001
        return raised  # user code may raise anything
    return None


class _Verify:
    """A finished primary execution, held back until replays have spoken."""

    __slots__ = ("frame", "ctx", "epoch", "shadow")

    def __init__(self, frame: Microframe, ctx: ExecutionContext,
                 epoch: int) -> None:
        self.frame = frame
        self.ctx = ctx
        self.epoch = epoch
        #: (effects, tainted) of the first replay, once it has disagreed
        self.shadow: Optional[tuple] = None


class ProcessingManager(Manager):
    manager_id = ManagerId.PROCESSING

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self.in_flight = 0
        #: executions currently in their memory-wait phase
        self.waiting = 0
        self._outstanding_requests = 0
        #: fraction of microthreads executed twice (SDC defense); cached
        #: so the replication-off hot path costs one float compare
        self._replicate_frac = site.config.scheduling.replicate_frac
        #: chaos-engine result-corruption hook (None outside corrupt plans)
        self._sdc_corrupter = None
        self._sdc_index = -1
        #: executions whose effects have not dispatched: frame -> (the
        #: arguments it started from, the epoch it started in)
        self._uncommitted: Dict[Microframe, tuple] = {}
        #: what waits for the open checkpoint wave to end, in the order it
        #: came: completions and served migrations (None: no wave is open)
        self._held: Optional[List[Callable[[], None]]] = None

    def sdc_arm(self, corrupter, index: int) -> None:  # noqa: ANN001
        """Arm the chaos engine's result-corruption hook for this site."""
        self._sdc_corrupter = corrupter
        self._sdc_index = index

    @property
    def max_parallel(self) -> int:
        return self.site.site_config.max_parallel

    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Request work under the paper's admission discipline.

        Up to ``max_parallel`` microthreads may be in flight (§4: "about 5
        ... in (virtual) parallel"), but a new one is *pulled* only when
        every current one is waiting on memory — the switch happens "when a
        microthread has to wait for data due to an access to the memory".
        Pulling eagerly would hoard stealable frames in the local slots;
        the paper warns the parallel degree "should leave enough work for
        other sites".  (Critical-path frames bypass this via the
        overcommit slot — see :meth:`can_overcommit`.)
        """
        if self.site.paused:
            return
        while (self.in_flight + self._outstanding_requests < self.max_parallel
               and (self.in_flight - self.waiting
                    + self._outstanding_requests) < 1):
            self._outstanding_requests += 1
            self.site.scheduling_manager.pm_request_work()

    def can_overcommit(self) -> bool:
        """One extra slot exists for critical-path microframes (§3.3
        scheduling hints: "hints about the local execution order")."""
        return self.in_flight < self.max_parallel + 1

    def on_start(self) -> None:
        self.kick()

    def receive_work(self, frame: Microframe,
                     compiled: CompiledMicrothread,
                     requested: bool = True) -> None:
        """The scheduling manager delivers a (microframe, microthread) pair.

        ``requested=False`` marks an unsolicited critical-path overcommit
        delivery (it does not consume an outstanding work request).
        """
        if requested:
            self._outstanding_requests = max(0, self._outstanding_requests - 1)
        if not self.site.program_manager.is_active(frame.program):
            self.stats.inc("stale_work_dropped")
            self.kick()
            return
        self.site.site_manager.note_activity()
        self.in_flight += 1
        self.note("exec_begin", frame.frame_id.pack(), compiled.name,
                  frame.cause_node)
        self._execute(frame, compiled)

    # ------------------------------------------------------------------
    def _execute(self, frame: Microframe,
                 compiled: CompiledMicrothread) -> None:
        info = self.site.program_manager.get(frame.program)
        ctx = ExecutionContext(frame, self.site, info.thread_table(),
                               compiled.entry)
        if (self._replicate_frac > 0.0
                and replicate_chosen(frame.frame_id.pack(),
                                     self._replicate_frac)):
            # its verdict waits for a shadow's replay of the same log
            ctx.replicated = True
            self.stats.inc("sdc_replicated")
        self._uncommitted[frame] = (ctx.args_snapshot, self.site.epoch)
        self._run(frame, compiled, ctx, self.site.epoch)

    def _run(self, frame: Microframe, compiled: CompiledMicrothread,
             ctx: ExecutionContext, epoch: int) -> None:
        self.kernel.run_user(partial(_attempt, ctx),
                             partial(self._ran, frame, compiled, ctx, epoch))

    def _ran(self, frame: Microframe, compiled: CompiledMicrothread,
             ctx: ExecutionContext, epoch: int,
             raised: Optional[BaseException]) -> None:
        if type(raised) is Suspended:
            if self.site.forward_to is not None:
                self._discard_stale(frame)  # see _commit_causal
                return
            # it waits for a reply and the CPU is free — admit another
            # microthread to hide the latency (§4)
            self.stats.inc("ctx_round_trips")
            ctx.on_reply = partial(self._resume, frame, compiled, epoch)
            self.waiting += 1
            # a worker's request goes out only now: an answer that comes
            # inside the call finds the slot already counted as waiting
            ctx.issue_request()
            self.kick()
            return
        if raised is not None:
            self.stats.inc("microthread_errors")
            failure = "".join(traceback.format_exception(raised, limit=3))
            self.log("microthread %s raised:\n%s", compiled.name, failure)
            self.note("exec_end", frame.frame_id.pack(), 0.0)
            self._finish_slot(frame)
            self.site.program_manager.local_exit(
                frame.program, None, failed=True, failure=failure)
            return

        compute = self.cost.work_seconds(ctx.charged_work,
                                         self.site.site_config.speed)
        if self.in_flight > 1:
            # rotating among the virtually parallel microthreads: "the time
            # needed to switch between all the microthreads should be
            # adequately short to avoid clogging the system" (§4) — the
            # cost scales with how many threads are co-resident
            self.kernel.cpu_charge(self.cost.context_switch_cost
                                   * (self.in_flight - 1))
        self.kernel.cpu_run(compute, self._complete, frame, ctx, epoch,
                            overhead=False)

    def _resume(self, frame: Microframe, compiled: CompiledMicrothread,
                epoch: int, ctx: ExecutionContext) -> None:
        """The reply a suspended execution waited for is in its log."""
        self.waiting = max(0, self.waiting - 1)
        if self.site.stopped:
            return  # a dead site commits nothing
        if epoch != self.site.epoch or (ctx.failed_op
                                        and self._recovery_pending()):
            # suspended across a recovery — or failed on a site whose
            # crash the coming recovery rolls back: either way the
            # restored frame runs again, this one is not resumed
            self._discard_stale(frame)
            return
        self._run(frame, compiled, ctx.again(), epoch)

    def _recovery_pending(self) -> bool:
        """A site of this view crashed and its rollback has not reached
        us yet (RECOVER_BEGIN names the heir)."""
        return self.site.crash_manager.enabled and any(
            not record.alive and not record.left and record.heir is None
            for record in self.site.cluster_manager.sites.values())

    def _complete(self, frame: Microframe, ctx: ExecutionContext,
                  epoch: int) -> None:
        if self.site.stopped:
            # the site died mid-execution: a dead site commits nothing —
            # without this, its already-scheduled completion would still
            # dispatch effects (writes, results) from beyond the grave
            return
        if epoch != self.site.epoch:
            # execution straddled a recovery; its effects are rolled back
            self._discard_stale(frame)
            return
        if self._sdc_corrupter is not None:
            ctx.sdc_tainted = self._corrupt(ctx.effects)
        if ctx.replicated:
            self._start_verify(frame, ctx, epoch)
            return
        self._commit_causal(frame, ctx, ctx.effects, ctx.sdc_tainted)

    def _commit_causal(self, frame: Microframe, ctx: ExecutionContext,
                       effects: list, tainted: bool) -> None:
        if self.site.forward_to is not None:
            # this site has handed its state to its heir, and the execution
            # went with it as its frame
            self._discard_stale(frame)
            return
        if self._held is not None:
            self._held.append(partial(self._release_one, frame, ctx, effects,
                                      tainted, self.site.epoch))
            return
        tr = self.tracer
        if tr is None:
            self._commit(frame, ctx, effects, tainted)
            return
        # everything the completing execution triggers — result messages,
        # child frames, the kick that refills the slot — is caused by this
        # execution's node in the causal DAG
        site = self.site
        prev_node = site.cause_node
        site.cause_node = exec_node(frame.frame_id.pack())
        try:
            self._commit(frame, ctx, effects, tainted)
        finally:
            site.cause_node = prev_node

    def _commit(self, frame: Microframe, ctx: ExecutionContext,
                effects: list, tainted: bool = False) -> None:
        if tainted:
            # ground-truth marker for the invariant checker: a corrupted
            # result is entering the committed state ("no corrupted result
            # reaches a committed checkpoint" audits for exactly this)
            self.note("sdc_tainted_commit", frame.frame_id.pack())
        self.site.dispatch_effects(frame, effects)
        frame.consume()
        # all accounting happens at completion, in lockstep with the
        # program manager's metering (in-flight work at shutdown is
        # consistently unbilled)
        self.stats.inc("executions")
        self.stats.add("work_units", ctx.charged_work)
        self.stats.add("wait_seconds", ctx.wait_time)
        self.note("exec_end", frame.frame_id.pack(), ctx.charged_work)
        self.site.program_manager.record_execution(frame.program,
                                                   ctx.charged_work)
        self._finish_slot(frame)

    # ------------------------------------------------------------------
    # replicated execution — the silent-data-corruption defense.
    #
    # The primary's completion does not dispatch: the slot is held while a
    # buddy site — picked from this site's own membership view — repeats
    # the execution from its shipped record (REPLICATE) and answers with
    # the effects it got (VERDICT).  Match -> commit; mismatch ->
    # quarantine both, trace sdc_mismatch, freeze the flight recorder, and
    # send the same record to a third site to break the tie.  An answer
    # that does not come within REPLICATE_TIMEOUT (buddy crash, partition,
    # a dropped message) leaves the primary's word standing, so replication
    # can delay a commit but never wedge a program.

    def _start_verify(self, frame: Microframe, ctx: ExecutionContext,
                      epoch: int) -> None:
        peers = self.site.cluster_manager.sorted_alive_ids()
        key = frame.frame_id.pack()
        self._ask(_Verify(frame, ctx, epoch),
                  peers[key % len(peers)] if peers else self.local_id)

    def _ask(self, verify: _Verify, target: int) -> None:
        """Get one more opinion on ``verify``: from ``target``, or — there
        is no other site, it cannot be reached, or the record holds a value
        the wire cannot carry — from this site's own CPU, behind whatever
        else is queued: replication in time instead of space."""
        if target != self.local_id:
            msg = SDMessage(
                type=MsgType.REPLICATE,
                src_site=self.local_id, dst_site=target,
                program=verify.frame.program, payload=verify.ctx.record())
            try:
                if self.site.message_manager.request(
                        msg, lambda reply: self._verdict_in(verify, reply),
                        timeout=REPLICATE_TIMEOUT,
                        on_timeout=lambda: self._opinion(verify, None, False,
                                                         target)):
                    return
            except SerializationError:
                pass
        compute = self.cost.work_seconds(verify.ctx.charged_work,
                                         self.site.site_config.speed)
        self.kernel.cpu_run(compute, self._local_shadow, verify)

    def _local_shadow(self, verify: _Verify) -> None:
        if self.site.stopped:
            return
        self._replay(verify.ctx.again(live=False),
                     partial(self._local_opinion, verify))

    def _local_opinion(self, verify: _Verify,
                       effects: Optional[list]) -> None:
        self._opinion(verify, effects, self._corrupt(effects), self.local_id)

    def _replay(self, replay: ExecutionContext, done) -> None:  # noqa: ANN001
        """Run a replay context where user code runs — the microthread
        over recorded arguments, log, clock and RNG seed, no cluster state
        touched — then ``done(effects)``; None if the replay raised."""
        self.stats.inc("sdc_shadow_execs")
        self.kernel.run_user(partial(_attempt, replay),
                             partial(self._replayed, replay, done))

    def _replayed(self, replay: ExecutionContext, done,  # noqa: ANN001
                  raised: Optional[BaseException]) -> None:
        if raised is not None:
            # a diverging replay is itself SDC
            done(None)
            return
        done(replay.effects)

    def _corrupt(self, effects: Optional[list]) -> bool:
        """Injected silent corruption lands on a completing execution —
        after compute, before anything dispatches or is sent — on this
        site's primaries, shadows and plain threads alike."""
        return (effects is not None and self._sdc_corrupter is not None
                and self._sdc_corrupter.corrupt_effects(self._sdc_index,
                                                        effects))

    # -- the buddy's side ----------------------------------------------------
    def _on_replicate(self, msg: SDMessage) -> None:
        """Another site's execution to repeat: the code comes from this
        site's code manager (fetched if it never ran the thread), every
        input from the message."""
        self.site.code_manager.get(
            msg.program, msg.payload["thread"],
            lambda compiled: self._replay_shipped(msg, compiled))

    def _replay_shipped(self, msg: SDMessage,
                        compiled: Optional[CompiledMicrothread]) -> None:
        if self.site.stopped:
            return
        programs = self.site.program_manager
        if compiled is None or not programs.knows(msg.program):
            self._shadowed(msg, None)
            return
        self._replay(ExecutionContext.shadow(
            msg.payload, msg.program, msg.src_site, self.site,
            programs.get(msg.program).thread_table(), compiled.entry),
            partial(self._shadowed, msg))

    def _shadowed(self, msg: SDMessage, effects: Optional[list]) -> None:
        compute = self.cost.work_seconds(msg.payload["work"],
                                         self.site.site_config.speed)
        self.kernel.cpu_run(compute, self._send_verdict, msg, effects)

    def _send_verdict(self, msg: SDMessage, effects: Optional[list]) -> None:
        if self.site.stopped:
            return
        verdict = make_reply(msg, MsgType.VERDICT, {
            "tainted": self._corrupt(effects),
            "effects": effects and [(e.kind.value, e.data) for e in effects]})
        try:
            self.site.message_manager.send(verdict)
        except SerializationError:
            verdict.payload["effects"] = None  # unshippable: no opinion
            self.site.message_manager.send(verdict)

    # -- back on the primary -------------------------------------------------
    def _on_verdict(self, msg: SDMessage) -> None:
        # its request is settled: a duplicate, or later than the timeout
        self.stats.inc("sdc_stale_verdicts")

    def _verdict_in(self, verify: _Verify, msg: SDMessage) -> None:
        effects = msg.payload["effects"]
        if effects is not None:
            try:
                effects = [Effect(EffectKind(kind), data)
                           for kind, data in effects]
            except (TypeError, ValueError):
                effects = None  # mangled beyond comparing: no opinion
        self._opinion(verify, effects, msg.payload["tainted"], msg.src_site)

    def _discard_stale(self, frame: Microframe) -> None:
        self.stats.inc("stale_epoch_discarded")
        self.note("exec_end", frame.frame_id.pack(), 0.0)
        self._finish_slot(frame)

    def _opinion(self, verify: _Verify, effects: Optional[list],
                 tainted: bool, source: int) -> None:
        """Site ``source``'s replay produced ``effects`` — None: it failed,
        or its answer did not come in time."""
        if self.site.stopped:
            return
        frame, ctx = verify.frame, verify.ctx
        if verify.epoch != self.site.epoch:
            # the execution (and this answer) is from before a rollback
            self._discard_stale(frame)
            return
        if effects is None:
            self.stats.inc("sdc_shadow_timeouts")
        if verify.shadow is not None:
            self._resolve(verify, effects)
            return
        if effects is None or effects_key(ctx.effects) == effects_key(effects):
            # agreed — or no second opinion to be had: commit the primary's
            # result rather than wedging the program
            if effects is not None:
                self.stats.inc("sdc_verified")
            self._commit_causal(frame, ctx, ctx.effects, ctx.sdc_tainted)
            return
        # mismatch: one of the two executions is lying.  Quarantine both
        # results (neither dispatches), raise the structured alarm, take
        # the flight dumps at the moment of detection, and break the tie
        # with a third execution
        self.note("sdc_mismatch", frame.frame_id.pack(), source)
        if self.tracer is not None:
            self.tracer.freeze_all(self.kernel.now, "sdc_mismatch")
        verify.shadow = (effects, tainted)
        # a site that ran neither quarantined execution, if we know one
        others = [peer for peer in self.site.cluster_manager.sorted_alive_ids()
                  if peer != source] or [source]
        self._ask(verify, others[frame.frame_id.pack() % len(others)])

    def _resolve(self, verify: _Verify,
                 effects_ref: Optional[list]) -> None:
        ctx = verify.ctx
        effects_shadow, tainted_shadow = verify.shadow
        chosen, tainted, winner = ctx.effects, ctx.sdc_tainted, "primary"
        if (effects_ref is not None
                and effects_key(effects_ref) == effects_key(effects_shadow)):
            chosen, tainted, winner = effects_shadow, tainted_shadow, "shadow"
        # otherwise the primary's word stands: the referee agrees with it,
        # gave no opinion, or all three disagree — at least two faults, and
        # the primary's answer is the only one that crossed no wire (a
        # corrupted ingress at the primary flips every verdict it receives)
        self.note("sdc_resolved", verify.frame.frame_id.pack(), winner)
        self._commit_causal(verify.frame, ctx, chosen, tainted)

    def _finish_slot(self, frame: Microframe) -> None:
        self.in_flight = max(0, self.in_flight - 1)
        self._uncommitted.pop(frame, None)
        if not self.site.running:
            return
        self.site.site_manager.note_activity()
        self.kick()

    # ------------------------------------------------------------------
    # the checkpoint cut: a wave pauses the site without draining it.
    # Executions run on, but no effect of theirs leaves the site until the
    # wave has ended, so every one of them still falls after the cut, which
    # records it as its frame.

    def hold(self) -> None:
        """A checkpoint wave is open: hold every completion from now on."""
        if self._held is None:
            self._held = []

    def holds(self, fn: Callable[..., None], *args: object) -> bool:
        """Run ``fn(*args)`` once the open wave has ended; False, and
        nothing kept, when no wave is open."""
        if self._held is None:
            return False
        self._held.append(partial(fn, *args))
        return True

    def release(self) -> None:
        """The wave has ended: what it held goes out, in the order it came.
        A completion that a recovery has made stale is discarded."""
        held, self._held = self._held, None
        for fn in held or ():
            fn()

    def _release_one(self, frame: Microframe, ctx: ExecutionContext,
                     effects: list, tainted: bool, epoch: int) -> None:
        if epoch != self.site.epoch:
            self._discard_stale(frame)
            return
        self._commit_causal(frame, ctx, effects, tainted)

    def uncommitted_wire(self) -> list:
        """The cut's record of each execution of this epoch whose effects
        have not dispatched: its frame, with the arguments it started from
        (a microthread may change its own in place)."""
        epoch = self.site.epoch
        return [frame.to_wire(args)
                for frame, (args, started) in self._uncommitted.items()
                if started == epoch]

    # ------------------------------------------------------------------
    def current_load(self) -> int:
        return self.in_flight
