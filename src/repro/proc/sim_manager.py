"""The simulated processing manager.

Execution timeline for one microframe (see DESIGN.md, "Sim execution
semantics"):

1. the microthread function runs *now* (real Python, instantaneous in
   virtual time), producing charged work W and a buffered effect list;
2. if an operation needs another site (a remote read, a rerouted file
   access) the run is abandoned with the request on the wire, the slot
   counts as ``waiting`` with the CPU *free* (this is what latency hiding
   overlaps — other in-flight frames compute meanwhile), and the reply
   re-runs the frame from its argument snapshot, every earlier answer
   replayed from the log — as often as it has remote operations;
3. the CPU is occupied for W/speed seconds (shared with everything else
   on this site);
4. at completion the effects dispatch: frames register, results travel,
   output flows, the frame is consumed.

A context-switch cost is charged whenever more than one execution is in
flight, so very large ``max_parallel`` degrades — reproducing the paper's
"about 5" sweet spot (benchmarks/bench_latency_hiding.py).
"""

from __future__ import annotations

import traceback
from typing import Dict, Optional

from repro.common.ids import ManagerId
from repro.core.frames import Microframe
from repro.core.threads import CompiledMicrothread
from repro.proc.sim_context import SimExecutionContext, Suspended
from repro.sched.policies import replicate_chosen
from repro.site.manager_base import Manager
from repro.trace.causal import exec_node

#: how long a primary waits for its cross-site shadow's verdict before
#: committing its own result anyway (covers shadow-site death)
REPLICATE_TIMEOUT = 0.25


def effects_key(effects: list) -> str:
    """Canonical comparison key for a buffered effect list.

    Two executions of the same microthread over the same recorded inputs
    produce identical keys unless one of them was corrupted — effect data
    is plain values, addresses, and tuples with deterministic reprs.
    """
    return repr([(e.kind.value, sorted(e.data.items())) for e in effects])


class SimProcessingManager(Manager):
    manager_id = ManagerId.PROCESSING

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self.in_flight = 0
        #: executions currently in their memory-wait phase
        self.waiting = 0
        self._outstanding_requests = 0
        #: total work units executed (for accounting / benchmarks)
        self.work_done = 0.0
        #: fraction of microthreads executed twice (SDC defense); cached
        #: so the replication-off hot path costs one float compare
        self._replicate_frac = site.config.scheduling.replicate_frac
        #: frame key -> pending-verify timeout event (cross-site shadows)
        self._pending_verify: Dict[int, object] = {}
        #: chaos-engine result-corruption hook (None outside corrupt plans)
        self._sdc_corrupter = None
        self._sdc_index = -1

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
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "exec_begin",
                    frame.frame_id.pack(), compiled.name,
                    frame.cause_node, frame.cause_origin)
        self._execute(frame, compiled)

    # ------------------------------------------------------------------
    def _execute(self, frame: Microframe,
                 compiled: CompiledMicrothread) -> None:
        info = self.site.program_manager.get(frame.program)
        ctx = SimExecutionContext(frame, self.site, info.thread_table(),
                                  compiled.entry)
        if (self._replicate_frac > 0.0
                and replicate_chosen(frame.frame_id.pack(),
                                     self._replicate_frac)):
            # its verdict waits for a shadow's replay of the same log
            ctx.replicated = True
            self.stats.inc("sdc_replicated")
        self._run(frame, compiled, ctx, self.site.epoch)

    def _run(self, frame: Microframe, compiled: CompiledMicrothread,
             ctx: SimExecutionContext, epoch: int) -> None:
        try:
            ctx.run()
        except Suspended:
            # its request is on the wire and the CPU is free — admit
            # another microthread to hide the latency (§4)
            ctx.on_reply = lambda run: self._resume(frame, compiled, run,
                                                    epoch)
            self.waiting += 1
            self.kick()
            return
        except Exception:  # noqa: BLE001 — user code may raise anything
            self.stats.inc("microthread_errors")
            failure = traceback.format_exc(limit=3)
            self.log("microthread %s raised:\n%s", compiled.name, failure)
            tr = self.tracer
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "exec_end",
                        frame.frame_id.pack(), 0.0)
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
            self.stats.inc("context_switches")
        self._compute_phase(frame, ctx, compute, epoch)

    def _resume(self, frame: Microframe, compiled: CompiledMicrothread,
                ctx: SimExecutionContext, epoch: int) -> None:
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

    def _compute_phase(self, frame: Microframe, ctx: SimExecutionContext,
                       compute: float, epoch: int) -> None:
        self.kernel.cpu.run(compute, self._complete, frame, ctx, epoch,
                            overhead=False)

    def _complete(self, frame: Microframe, ctx: SimExecutionContext,
                  epoch: int) -> None:
        if self.site.stopped:
            # the site died mid-execution: a dead site commits nothing —
            # without this, its already-scheduled completion would still
            # dispatch effects (writes, results) from beyond the grave
            return
        if epoch != self.site.epoch:
            # execution straddled a recovery; its effects are rolled back
            self.stats.inc("stale_epoch_discarded")
            tr = self.tracer
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "exec_end",
                        frame.frame_id.pack(), 0.0)
            self._finish_slot(frame)
            return
        if self._sdc_corrupter is not None:
            # injected silent corruption lands here — after compute, before
            # anything dispatches — on replicated and plain threads alike
            if self._sdc_corrupter.corrupt_effects(self._sdc_index,
                                                   ctx.effects):
                ctx.sdc_tainted = True
        if ctx.replicated:
            self._start_verify(frame, ctx, epoch)
            return
        self._commit_causal(frame, ctx, ctx.effects,
                            getattr(ctx, "sdc_tainted", False))

    def _commit_causal(self, frame: Microframe, ctx: SimExecutionContext,
                       effects: list, tainted: bool) -> None:
        tr = self.tracer
        if tr is None:
            self._commit(frame, ctx, effects, tainted)
            return
        # everything the completing execution triggers — result messages,
        # child frames, the kick that refills the slot — is caused by this
        # execution's node in the causal DAG
        site = self.site
        prev_node, prev_origin = site.cause_node, site.cause_origin
        site.cause_node = exec_node(frame.frame_id.pack())
        site.cause_origin = (frame.cause_origin
                             if frame.cause_origin >= 0 else self.local_id)
        try:
            self._commit(frame, ctx, effects, tainted)
        finally:
            site.cause_node, site.cause_origin = prev_node, prev_origin

    def _commit(self, frame: Microframe, ctx: SimExecutionContext,
                effects: list, tainted: bool = False) -> None:
        if tainted:
            # ground-truth marker for the invariant checker: a corrupted
            # result is entering the committed state ("no corrupted result
            # reaches a committed checkpoint" audits for exactly this)
            self.stats.inc("sdc_tainted_commits")
            tr = self.tracer
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "sdc_tainted_commit",
                        frame.frame_id.pack())
        self.site.dispatch_effects(frame, effects)
        frame.consume()
        # all accounting happens at completion, in lockstep with the
        # program manager's metering (in-flight work at shutdown is
        # consistently unbilled)
        self.stats.inc("executions")
        self.stats.add("work_units", ctx.charged_work)
        self.stats.add("wait_seconds", ctx.wait_time)
        self.work_done += ctx.charged_work
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "exec_end",
                    frame.frame_id.pack(), ctx.charged_work)
        self.site.program_manager.record_execution(frame.program,
                                                   ctx.charged_work)
        self._finish_slot(frame)

    # ------------------------------------------------------------------
    # replicated execution — the silent-data-corruption defense.
    #
    # The primary's completion does not dispatch: the slot is held while a
    # shadow re-execution (on a different site when the cluster has one)
    # replays the recorded inputs and the two effect lists are compared.
    # Match -> commit; mismatch -> quarantine both, trace sdc_mismatch,
    # freeze the flight recorder, and re-execute on a third site to break
    # the tie.  A timeout commits the primary result if the shadow's
    # verdict is lost (buddy crash / partition), so replication can delay
    # a commit but never wedge a program.

    def _start_verify(self, frame: Microframe, ctx: SimExecutionContext,
                      epoch: int) -> None:
        shared = getattr(self.kernel, "shared", None)
        peers = (shared.alive_peers(self.local_id)
                 if shared is not None else [])
        key = frame.frame_id.pack()
        if not peers:
            # sole site: replicate in time instead of space — a second
            # execution on our own CPU, behind whatever else is queued
            self._pending_verify[key] = None
            compute = self.cost.work_seconds(ctx.charged_work,
                                             self.site.site_config.speed)
            self.kernel.cpu.run(compute, self._local_shadow_done,
                                frame, ctx, epoch)
            return
        buddy = shared.sites[peers[key % len(peers)]]
        latency = shared.network.config.latency
        self._pending_verify[key] = self.kernel.call_later(
            REPLICATE_TIMEOUT, self._verify_timeout, frame, ctx, epoch)
        self.kernel.call_later(latency, self._shadow_begin,
                               buddy, frame, ctx, epoch)

    def _run_replay(self, ctx: SimExecutionContext) -> Optional[list]:
        """Re-execute the microthread over the primary's recorded inputs:
        a fresh copy of its argument snapshot, its log, its clock and RNG
        seed, and no cluster state touched."""
        replay = ctx.again(live=False)
        try:
            replay.run()
        except Exception:  # noqa: BLE001 — a diverging replay is itself SDC
            self.stats.inc("sdc_shadow_errors")
            return None
        return replay.effects

    def _local_shadow_done(self, frame: Microframe, ctx: SimExecutionContext,
                           epoch: int) -> None:
        if self.site.stopped:
            return
        self.stats.inc("sdc_shadow_execs")
        effects = self._run_replay(ctx)
        tainted = False
        if effects is not None and self._sdc_corrupter is not None:
            tainted = self._sdc_corrupter.corrupt_effects(self._sdc_index,
                                                          effects)
        self._verdict(frame, ctx, epoch, effects, tainted, None)

    def _shadow_begin(self, buddy, frame: Microframe,  # noqa: ANN001
                      ctx: SimExecutionContext, epoch: int) -> None:
        if self.site.stopped or epoch != self.site.epoch:
            return
        if buddy.stopped or not buddy.running:
            return  # buddy died before the work arrived; the timeout commits
        effects = self._run_replay(ctx)
        bpm = buddy.processing_manager
        bpm.stats.inc("sdc_shadow_execs")
        compute = bpm.cost.work_seconds(ctx.charged_work,
                                        buddy.site_config.speed)
        buddy.kernel.cpu.run(compute, self._shadow_done,
                             buddy, frame, ctx, epoch, effects)

    def _shadow_done(self, buddy, frame: Microframe,  # noqa: ANN001
                     ctx: SimExecutionContext, epoch: int,
                     effects: Optional[list]) -> None:
        if self.site.stopped:
            return
        if buddy.stopped:
            return  # the verdict died with the buddy; the timeout commits
        tainted = False
        bpm = buddy.processing_manager
        if effects is not None and bpm._sdc_corrupter is not None:
            # the shadow completes *on the buddy*: an in-window corruption
            # of that site flips the shadow's copy, not the primary's
            tainted = bpm._sdc_corrupter.corrupt_effects(bpm._sdc_index,
                                                         effects)
        latency = self.kernel.shared.network.config.latency
        self.kernel.call_later(latency, self._verdict,
                               frame, ctx, epoch, effects, tainted, buddy)

    def _discard_stale(self, frame: Microframe) -> None:
        self.stats.inc("stale_epoch_discarded")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "exec_end",
                    frame.frame_id.pack(), 0.0)
        self._finish_slot(frame)

    def _verdict(self, frame: Microframe, ctx: SimExecutionContext,
                 epoch: int, effects: Optional[list], tainted_shadow: bool,
                 buddy) -> None:  # noqa: ANN001
        if self.site.stopped:
            return
        key = frame.frame_id.pack()
        if key not in self._pending_verify:
            return  # the timeout already committed the primary result
        timer = self._pending_verify.pop(key)
        if timer is not None:
            self.kernel.cancel(timer)
        if epoch != self.site.epoch:
            self._discard_stale(frame)
            return
        tainted_primary = getattr(ctx, "sdc_tainted", False)
        if effects is None:
            # the replay itself failed: fall back to the primary result
            self.stats.inc("sdc_shadow_timeouts")
            self._commit_causal(frame, ctx, ctx.effects, tainted_primary)
            return
        if effects_key(ctx.effects) == effects_key(effects):
            self.stats.inc("sdc_verified")
            self._commit_causal(frame, ctx, ctx.effects, tainted_primary)
            return
        # mismatch: one of the two executions is lying.  Quarantine both
        # results (neither dispatches), raise the structured alarm, freeze
        # the flight recorder at the moment of detection, and break the
        # tie with a third execution
        self.stats.inc("sdc_mismatches")
        buddy_id = buddy.site_id if buddy is not None else self.local_id
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "sdc_mismatch",
                    frame.frame_id.pack(), buddy_id)
        recorder = self.site.tracer
        if recorder is not None and hasattr(recorder, "dump_all"):
            recorder.dump_all(self.kernel.now, "sdc_mismatch")
        self._tie_break(frame, ctx, epoch, effects, tainted_shadow, buddy)

    def _verify_timeout(self, frame: Microframe, ctx: SimExecutionContext,
                        epoch: int) -> None:
        if self.site.stopped:
            return
        key = frame.frame_id.pack()
        if self._pending_verify.pop(key, None) is None:
            return  # verdict already arrived
        if epoch != self.site.epoch:
            self._discard_stale(frame)
            return
        # the shadow's verdict is lost (buddy crash, partition): commit
        # the primary's result rather than wedging the program
        self.stats.inc("sdc_shadow_timeouts")
        self._commit_causal(frame, ctx, ctx.effects,
                            getattr(ctx, "sdc_tainted", False))

    def _tie_break(self, frame: Microframe, ctx: SimExecutionContext,
                   epoch: int, effects_shadow: list, tainted_shadow: bool,
                   buddy) -> None:  # noqa: ANN001
        shared = getattr(self.kernel, "shared", None)
        exclude = [self.local_id]
        if buddy is not None:
            exclude.append(buddy.site_id)
        peers = shared.alive_peers(*exclude) if shared is not None else []
        key = frame.frame_id.pack()
        if peers:
            # a site that ran neither quarantined execution
            referee = shared.sites[peers[key % len(peers)]]
        elif buddy is not None and not buddy.stopped:
            referee = buddy
        else:
            referee = self.site
        latency = (shared.network.config.latency
                   if shared is not None else 0.0)
        self.kernel.call_later(latency, self._referee_begin, referee,
                               frame, ctx, epoch, effects_shadow,
                               tainted_shadow)

    def _referee_begin(self, referee, frame: Microframe,  # noqa: ANN001
                       ctx: SimExecutionContext, epoch: int,
                       effects_shadow: list, tainted_shadow: bool) -> None:
        if self.site.stopped:
            return
        if referee.stopped:
            self._resolve(frame, ctx, epoch, effects_shadow, tainted_shadow,
                          None, False)
            return
        effects = self._run_replay(ctx)
        rpm = referee.processing_manager
        rpm.stats.inc("sdc_shadow_execs")
        compute = rpm.cost.work_seconds(ctx.charged_work,
                                        referee.site_config.speed)
        referee.kernel.cpu.run(compute, self._referee_done, referee,
                               frame, ctx, epoch, effects_shadow,
                               tainted_shadow, effects)

    def _referee_done(self, referee, frame: Microframe,  # noqa: ANN001
                      ctx: SimExecutionContext, epoch: int,
                      effects_shadow: list, tainted_shadow: bool,
                      effects: Optional[list]) -> None:
        if self.site.stopped:
            return
        tainted = False
        if referee.stopped:
            effects = None
        elif effects is not None:
            rpm = referee.processing_manager
            if rpm._sdc_corrupter is not None:
                tainted = rpm._sdc_corrupter.corrupt_effects(rpm._sdc_index,
                                                             effects)
        latency = self.kernel.shared.network.config.latency
        self.kernel.call_later(latency, self._resolve, frame, ctx, epoch,
                               effects_shadow, tainted_shadow, effects,
                               tainted)

    def _resolve(self, frame: Microframe, ctx: SimExecutionContext,
                 epoch: int, effects_shadow: list, tainted_shadow: bool,
                 effects_ref: Optional[list], tainted_ref: bool) -> None:
        if self.site.stopped:
            return
        if epoch != self.site.epoch:
            self._discard_stale(frame)
            return
        tainted_primary = getattr(ctx, "sdc_tainted", False)
        if effects_ref is None:
            # no third opinion available; the primary's word stands
            chosen, tainted, winner = ctx.effects, tainted_primary, "primary"
        else:
            key_ref = effects_key(effects_ref)
            if key_ref == effects_key(ctx.effects):
                chosen, tainted, winner = (ctx.effects, tainted_primary,
                                           "primary")
            elif key_ref == effects_key(effects_shadow):
                chosen, tainted, winner = (effects_shadow, tainted_shadow,
                                           "shadow")
            else:
                # all three disagree: trust the referee, which ran outside
                # both quarantined executions
                chosen, tainted, winner = effects_ref, tainted_ref, "referee"
        self.stats.inc("sdc_resolved")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "sdc_resolved",
                    frame.frame_id.pack(), winner)
        self._commit_causal(frame, ctx, chosen, tainted)

    def _finish_slot(self, frame: Microframe) -> None:
        self.in_flight = max(0, self.in_flight - 1)
        if not self.site.running:
            return
        self.site.site_manager.note_activity()
        self.site.crash_manager.maybe_ack_drained()
        self.kick()

    # ------------------------------------------------------------------
    def current_load(self) -> float:
        return float(self.in_flight)

    def status(self) -> dict:
        base = super().status()
        base["in_flight"] = self.in_flight
        base["work_done"] = self.work_done
        return base
