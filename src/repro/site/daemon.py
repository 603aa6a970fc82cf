"""SDVMSite — one daemon instance, wiring all managers (paper Fig. 3).

The execution layer (processing, scheduling, code, attraction memory, I/O)
"alone would suffice to run an SDVM on one site only"; the maintenance
layer (cluster, program, site) and communication layer (message, security,
network≙kernel transport) connect sites.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.config import SDVMConfig, SiteConfig
from repro.common.errors import ProgramError, SDVMError
from repro.common.ids import ManagerId, NO_SITE, make_program_id
from repro.core.frames import Microframe
from repro.core.program import SDVMProgram
from repro.messages import HANDLER_OF, MANAGER_OF, SDMessage
from repro.cluster.manager import ClusterManager
from repro.code.manager import CodeManager
from repro.crash.manager import CrashManager
from repro.io.manager import IOManager
from repro.memory.manager import AttractionMemory
from repro.proc.context import Effect, EffectKind
from repro.proc.manager import ProcessingManager
from repro.program.manager import ProgramManager
from repro.sched.manager import SchedulingManager
from repro.site.kernel import Kernel
from repro.site.message_manager import MessageManager
from repro.site.security_manager import SecurityManager
from repro.site.site_manager import SiteManager


class SDVMSite:
    """One SDVM daemon: eleven managers over one kernel."""

    def __init__(self, kernel: Kernel, config: SDVMConfig,
                 site_config: Optional[SiteConfig] = None,
                 debug: bool = False) -> None:
        self.kernel = kernel
        self.config = config
        self.site_config = site_config or SiteConfig()
        self.site_id: int = NO_SITE
        self.running = False
        #: set once the site stopped/crashed — messages are dropped then,
        #: but NOT before start (the SIGN_ON_ACK arrives pre-start)
        self.stopped = False
        #: checkpoint wave in progress: intake paused (crash manager)
        self.paused = False
        #: recovery epoch; effects from executions of older epochs are dropped
        self.epoch = 0
        #: orderly departure in progress (site manager, §3.4)
        self.leaving = False
        #: power-save sleep state (§2.2); managed by the site manager
        self.sleeping = False
        #: zombie-forwarding target after relocation: straggler messages
        #: are re-sent to the heir until the site finally detaches
        self.forward_to: Optional[int] = None
        self.debug = debug
        self.log_lines: List[str] = []
        #: cluster-wide structured tracer (config.trace); managers cache
        #: this reference at construction (``Manager.note`` journals to it)
        self.tracer = kernel.tracer
        #: causal context (tracing only): packed node id of the message or
        #: execution this site is currently handling.  Written exclusively
        #: by the message manager's dispatch and the processing manager's
        #: completion path; -1 = root.
        self.cause_node = -1
        self._next_program_serial = 0

        # communication layer
        self.security_manager = SecurityManager(self)
        self.message_manager = MessageManager(self)
        # maintenance layer
        self.cluster_manager = ClusterManager(self)
        self.program_manager = ProgramManager(self)
        self.site_manager = SiteManager(self)
        self.crash_manager = CrashManager(self)
        # execution layer
        self.attraction_memory = AttractionMemory(self)
        self.code_manager = CodeManager(self)
        self.scheduling_manager = SchedulingManager(self)
        self.io_manager = IOManager(self)
        self.processing_manager = ProcessingManager(self)

        self.managers: Dict[ManagerId, Any] = {
            mgr.manager_id: mgr
            for mgr in (
                self.message_manager, self.cluster_manager,
                self.program_manager, self.site_manager,
                self.crash_manager, self.attraction_memory,
                self.code_manager, self.scheduling_manager,
                self.io_manager, self.processing_manager,
                self.security_manager,
            )
        }
        # the network manager's receive path: kernel transport -> message mgr
        kernel.attach_receiver(self.message_manager.deliver_raw)
        # the transport's failure detector: suspected peers -> cluster mgr
        kernel.attach_peer_watcher(self._on_peer_suspected)

    def _on_peer_suspected(self, physical: str) -> None:
        """Live transport gave up on a physical address (runs on reactor)."""
        if self.running:
            self.cluster_manager.report_transport_suspicion(physical)

    # ------------------------------------------------------------------
    # lifecycle

    def bootstrap(self) -> int:
        """Start a brand-new cluster with this site as its first member."""
        logical = self.cluster_manager.bootstrap()
        self._start()
        return logical

    def join(self, bootstrap_physical: str) -> None:
        """Sign on to an existing cluster (completes asynchronously)."""
        self.cluster_manager.join(bootstrap_physical)

    def on_joined(self) -> None:
        """Cluster manager adopted our logical id — we are in."""
        self._start()
        # "begin working by sending a help request to any other site" (§4)
        self.scheduling_manager.kick()

    def _start(self) -> None:
        self.running = True
        for manager in self.managers.values():
            manager.on_start()

    def stop(self) -> None:
        """Orderly local stop (after sign-off relocation, if any)."""
        if not self.running:
            return
        self.running = False
        self.stopped = True
        for manager in self.managers.values():
            manager.on_stop()
        self.kernel.shutdown()

    def crash(self) -> None:
        """Abrupt death: no relocation, no goodbyes (for experiments)."""
        self.running = False
        self.stopped = True
        # flight dump: this site's last events at the instant of death,
        # before teardown noise
        tracer = self.tracer
        if tracer is not None:
            tracer.freeze(self.site_id, self.kernel.now)
        self.kernel.shutdown()

    def sign_off(self) -> bool:
        """Leave the cluster, relocating all state first (§3.4)."""
        return self.site_manager.sign_off()

    # ------------------------------------------------------------------
    # message routing

    def route(self, msg: SDMessage) -> None:
        if self.stopped:
            return
        if self.sleeping:
            # wake-on-message (§2.2: sleeping sites reactivate on demand)
            self.site_manager.wake()
        self.cluster_manager.observe(msg.src_site)
        # type -> manager -> ``_on_<type>``, looked up per message so a
        # handler patched onto one manager instance takes effect
        handler = getattr(self.managers.get(MANAGER_OF.get(msg.type)),
                          HANDLER_OF[msg.type], None)
        if handler is None:
            # a reply only its request reads, arriving late or twice
            self.log("message %s without handler dropped", msg.type.name)
            return
        handler(msg)

    # ------------------------------------------------------------------
    # program submission (facade entry point)

    def submit_program(self, program: SDVMProgram,
                       args: tuple = ()) -> int:
        """Register ``program`` here and launch its entry microframe."""
        if not self.running:
            raise SDVMError("cannot submit to a stopped site")
        pid = make_program_id(self.site_id, self._next_program_serial)
        self._next_program_serial += 1
        info = self.program_manager.register_local(program, pid)
        entry = program.entry_thread
        if entry.nparams != len(args):
            raise ProgramError(
                f"entry microthread {entry.name!r} takes {entry.nparams} "
                f"parameters, got {len(args)} arguments")
        frame = Microframe(
            frame_id=self.attraction_memory.alloc_address(),
            thread_id=entry.thread_id,
            program=pid,
            nparams=len(args),
            created_at=self.kernel.now,
        )
        for slot, value in enumerate(args):
            frame.apply_parameter(slot, value)
        self.attraction_memory.register_frame(frame)
        self.processing_manager.kick()
        return pid

    # ------------------------------------------------------------------
    # effect dispatch (§3.2 steps 3–4, executed at completion time)

    def dispatch_effects(self, frame: Microframe,
                         effects: List[Effect]) -> None:
        pid = frame.program
        for effect in effects:
            kind = effect.kind
            data = effect.data
            if kind is EffectKind.CREATE_FRAME:
                new_frame = Microframe(
                    frame_id=data["address"],
                    thread_id=data["thread_id"],
                    program=pid,
                    nparams=data["nparams"],
                    targets=data["targets"],
                    priority=data["priority"],
                    critical=data["critical"],
                    created_at=self.kernel.now,
                )
                self.attraction_memory.register_frame(new_frame)
            elif kind is EffectKind.SEND_RESULT:
                self.attraction_memory.apply_result(
                    data["address"], data["slot"], data["value"], pid)
            elif kind is EffectKind.MEM_WRITE:
                self.attraction_memory.apply_write(data["address"],
                                                   data["value"])
            elif kind is EffectKind.OUTPUT:
                self.io_manager.emit_output(pid, data["text"])
            elif kind is EffectKind.EXIT_PROGRAM:
                self.program_manager.local_exit(pid, data["result"])
            elif kind is EffectKind.INPUT_REQUEST:
                self.io_manager.request_input(pid, data["prompt"],
                                              data["address"], data["slot"])
            else:  # pragma: no cover — exhaustive over EffectKind
                raise SDVMError(f"unknown effect kind {kind}")

    # ------------------------------------------------------------------
    def reset_program_state(self) -> None:
        """Drop all dataflow state (recovery rollback)."""
        self.scheduling_manager.reset_for_recovery()
        self.attraction_memory.reset_program_state()

    def log(self, fmt: str, *args: Any) -> None:
        line = f"[{self.kernel.now:.6f} s{self.site_id}] " + (
            fmt % args if args else fmt)
        self.log_lines.append(line)
        if self.debug:
            print(line)

    def __repr__(self) -> str:
        return (f"SDVMSite(id={self.site_id}, "
                f"physical={self.kernel.local_physical()}, "
                f"running={self.running})")
