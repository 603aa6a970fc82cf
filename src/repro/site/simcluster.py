"""SimCluster — the user-facing facade for simulated SDVM clusters.

Builds N site daemons over one discrete-event simulator, handles sign-on
staggering, program submission, dynamic join/leave/crash scripting, and run
control (the simulation stops as soon as every submitted program delivered
its result to its frontend).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SDVMConfig, SiteConfig
from repro.common.errors import SDVMError
from repro.common.stats import StatSet
from repro.core.program import SDVMProgram
from repro.net.simnet import SimNetwork
from repro.net.topology import Topology
from repro.program.manager import ProgramInfo
from repro.sim.engine import Simulator
from repro.site.daemon import SDVMSite
from repro.site.facade import ClusterFacade
from repro.site.sim_kernel import SimKernel


@dataclass
class ProgramHandle:
    """Tracks one submitted program at its frontend."""

    program: SDVMProgram
    args: tuple
    submit_site_index: int
    submitted_at: float
    pid: int = -1
    done: bool = False
    result: Any = None
    failed: bool = False
    failure: str = ""
    finish_time: float = 0.0
    _cluster: "SimCluster" = None  # type: ignore[assignment]

    @property
    def duration(self) -> float:
        """Virtual seconds from submission to result delivery."""
        if not self.done:
            raise SDVMError(f"program {self.program.name!r} not finished")
        return self.finish_time - self.submitted_at

    def output(self) -> List[str]:
        """Console output captured at the frontend site."""
        site = self._cluster.site_by_index(self.submit_site_index)
        return site.io_manager.output_lines(self.pid)


#: default stagger between successive sign-ons at cluster build time
_JOIN_STAGGER = 1e-4


class SimCluster(ClusterFacade):
    """Build, script, and run a simulated SDVM cluster.

    >>> cluster = SimCluster(4)            # doctest: +SKIP
    >>> handle = cluster.submit(app, args=(100,))
    >>> cluster.run()
    >>> handle.result
    """

    def __init__(self, nsites: int = 1,
                 config: Optional[SDVMConfig] = None,
                 site_configs: Optional[Sequence[SiteConfig]] = None,
                 topology: Optional[Topology] = None,
                 debug: bool = False) -> None:
        if nsites < 1 and not site_configs:
            raise SDVMError("cluster needs at least one site")
        super().__init__(config)
        self.sim = Simulator(seed=self.config.seed)
        self.network = SimNetwork(self.sim, self.config.network, topology)
        self.debug = debug
        self._sites: List[SDVMSite] = []
        self._next_physical = 0
        self.handles: List[ProgramHandle] = []
        #: wall-clock seconds spent inside ``sim.run`` across all
        #: :meth:`run` calls — purely informational (never fed back into
        #: virtual time), the basis for :meth:`wall_clock_metrics`
        self.wall_seconds = 0.0

        configs: List[SiteConfig]
        if site_configs is not None:
            configs = list(site_configs)
        else:
            configs = [SiteConfig(name=f"site{i}") for i in range(nsites)]

        first = self._build_site(configs[0])
        first.bootstrap()
        for index, site_config in enumerate(configs[1:], start=1):
            site = self._build_site(site_config)
            self.sim.schedule(index * _JOIN_STAGGER, site.join, "0")

        if self._build_sampler("sim") is not None:
            self.sim.schedule(self._sampler.interval, self._sample_tick)

    def _sample_tick(self) -> None:
        """The sampler's repeating virtual-time timer."""
        self._sampler.sample_once(self.sim.now)
        self.sim.schedule(self._sampler.interval, self._sample_tick)

    # ------------------------------------------------------------------
    def _build_site(self, site_config: SiteConfig) -> SDVMSite:
        kernel = SimKernel(self.sim, self.network,
                           physical=self._next_physical,
                           speed=site_config.speed, seed=self.config.seed,
                           tracer=self.tracer)
        self._next_physical += 1
        site = SDVMSite(kernel, self.config, site_config, debug=self.debug)
        self._sites.append(site)
        return site

    # ------------------------------------------------------------------
    # site access

    @property
    def sites(self) -> List[SDVMSite]:
        """All sites ever created, in creation (physical-address) order."""
        return list(self._sites)

    def site_by_index(self, index: int) -> SDVMSite:
        return self._sites[index]

    def site_by_logical(self, logical: int) -> SDVMSite:
        for site in self._sites:
            if site.site_id == logical:
                return site
        raise SDVMError(f"no site with logical id {logical}")

    def alive_count(self) -> int:
        return sum(1 for site in self._sites if site.running)

    # ------------------------------------------------------------------
    # dynamic cluster scripting (§3.4 — entry and exit at runtime)

    def add_site(self, site_config: Optional[SiteConfig] = None,
                 at: Optional[float] = None,
                 via_index: int = 0) -> SDVMSite:
        """Create a site that signs on at virtual time ``at``."""
        site = self._build_site(
            site_config or SiteConfig(name=f"site{len(self._sites)}"))
        bootstrap_physical = self._sites[via_index].kernel.local_physical()
        when = self.sim.now if at is None else at
        self.sim.schedule_at(max(when, self.sim.now), site.join,
                             bootstrap_physical)
        return site

    def sign_off_site(self, index: int, at: float) -> None:
        """Schedule an orderly departure."""
        site = self._sites[index]
        self.sim.schedule_at(at, site.sign_off)

    def crash_site(self, index: int, at: float) -> None:
        """Schedule an abrupt crash (no relocation)."""
        site = self._sites[index]
        self.sim.schedule_at(at, site.crash)

    def apply_chaos(self, plan) -> "Any":  # noqa: ANN001
        """Arm a :class:`repro.chaos.FaultPlan` against this cluster.

        Must be called before :meth:`run` starts consuming virtual time
        (fault times are absolute).  Returns the installed controller.
        """
        from repro.chaos.engine import ChaosController
        controller = ChaosController(self, plan)
        controller.install()
        return controller

    # ------------------------------------------------------------------
    # programs

    def submit(self, program: SDVMProgram, args: tuple = (),
               site_index: int = 0, at: float = 0.0) -> ProgramHandle:
        """Submit a program; its entry frame launches at time ``at``."""
        handle = ProgramHandle(program=program, args=args,
                               submit_site_index=site_index,
                               submitted_at=at, _cluster=self)
        self.handles.append(handle)
        self.sim.schedule_at(max(at, self.sim.now), self._do_submit, handle)
        return handle

    def _do_submit(self, handle: ProgramHandle) -> None:
        site = self._sites[handle.submit_site_index]
        if not site.running:
            if site.stopped:
                raise SDVMError(
                    f"cannot submit {handle.program.name!r}: site "
                    f"{handle.submit_site_index} has left the cluster")
            # the site is still signing on; try again shortly
            self.sim.schedule(1e-3, self._do_submit, handle)
            return
        handle.pid = site.submit_program(handle.program, handle.args)
        handle.submitted_at = self.sim.now

        def on_done(pid: int, info: ProgramInfo,
                    handle: ProgramHandle = handle) -> None:
            if pid != handle.pid or handle.done:
                return
            handle.done = True
            handle.result = info.result
            handle.failed = info.failed
            handle.failure = info.failure
            handle.finish_time = self.sim.now
            if all(h.done for h in self.handles):
                self.sim.stop()

        site.program_manager.on_program_done.append(on_done)

    # ------------------------------------------------------------------
    # run control

    def _executions_total(self) -> int:
        return sum(s.processing_manager.stats.get("executions").count
                   for s in self._sites)

    def _in_flight_total(self) -> int:
        return sum(s.processing_manager.in_flight for s in self._sites)

    def run(self, until: Optional[float] = None,
            raise_on_failure: bool = True,
            progress_timeout: float = 30.0) -> None:
        """Run until all submitted programs finish (or ``until``).

        Deadlock detection: idle sites keep retrying help requests forever
        (decentralized scheduling has no global termination view), so a
        stuck dataflow would spin the event loop indefinitely.  If a whole
        ``progress_timeout`` of virtual time passes with no microthread
        executing or in flight, the run aborts with a diagnostic.  Also
        raises if a program failed and ``raise_on_failure`` is set.
        """
        while True:
            if all(h.done for h in self.handles):
                break
            executions_before = self._executions_total()
            target = self.sim.now + progress_timeout
            if until is not None:
                target = min(target, until)
            wall_start = time.perf_counter()
            try:
                self.sim.run(until=target)
            finally:
                self.wall_seconds += time.perf_counter() - wall_start
            if all(h.done for h in self.handles):
                break
            if until is not None and self.sim.now >= until:
                break
            if (self._executions_total() == executions_before
                    and self._in_flight_total() == 0):
                unfinished = ", ".join(h.program.name for h in self.handles
                                       if not h.done)
                raise SDVMError(
                    f"no progress for {progress_timeout} virtual seconds; "
                    f"unfinished programs: {unfinished}; "
                    f"diagnosis: {self._diagnose()}")
        # final flush: a run shorter than the sampling interval still
        # gets one row per site (pure observation of the settled state)
        if self._sampler is not None:
            self._sampler.sample_once(self.sim.now)
        if raise_on_failure:
            for handle in self.handles:
                if handle.done and handle.failed:
                    raise SDVMError(
                        f"program {handle.program.name!r} failed: "
                        f"{handle.failure}")

    def _diagnose(self) -> dict:
        return {
            "alive_sites": self.alive_count(),
            "incomplete_frames": sum(
                len(s.attraction_memory.frames) for s in self._sites),
            "queued": sum(s.scheduling_manager.queue_depth()
                          for s in self._sites),
            "in_flight": sum(s.processing_manager.in_flight
                             for s in self._sites),
        }

    # ------------------------------------------------------------------
    # metrics

    def _wall_clock(self) -> Tuple[float, int]:
        return self.wall_seconds, self.sim.events_executed

    def cpu_report(self) -> Dict[int, dict]:
        """Per-site CPU busy/overhead seconds of the modelled CPUs."""
        report = {}
        for index, site in enumerate(self._sites):
            cpu = site.kernel.cpu
            report[index] = {
                "busy": cpu.busy_total,
                "overhead": cpu.overhead_total,
                "compute": cpu.busy_total - cpu.overhead_total,
            }
        return report

    def network_stats(self) -> StatSet:
        return self.network.stats
