"""LiveCluster — run a real SDVM cluster with threads and (optionally) TCP.

Each site runs the exact same manager stack as the simulation, but on a
:class:`~repro.runtime.live_kernel.LiveKernel`: reactor thread, worker
threads for microthreads, real wall-clock timers, and either in-process
queue transport or real loopback TCP sockets.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.common.config import SDVMConfig, SiteConfig
from repro.common.errors import SDVMError
from repro.core.program import SDVMProgram
from repro.net.inproc import InProcHub, InProcTransport
from repro.net.tcp import TcpTransport
from repro.program.manager import ProgramInfo
from repro.runtime.live_kernel import LiveKernel
from repro.site.daemon import SDVMSite
from repro.site.facade import ClusterFacade

#: default seconds to wait for cluster formation / program completion
JOIN_TIMEOUT = 10.0


@dataclass
class LiveHandle:
    """Tracks one submitted program on a live cluster."""

    program: SDVMProgram
    pid: int = -1
    result: Any = None
    failed: bool = False
    failure: str = ""
    _event: threading.Event = field(default_factory=threading.Event)
    _frontend: Optional[SDVMSite] = None

    def wait(self, timeout: float = JOIN_TIMEOUT) -> Any:
        """Block until the program's result reaches the frontend."""
        if not self._event.wait(timeout):
            raise SDVMError(
                f"program {self.program.name!r} did not finish within "
                f"{timeout}s")
        if self.failed:
            raise SDVMError(
                f"program {self.program.name!r} failed: {self.failure}")
        return self.result

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def output(self) -> List[str]:
        if self._frontend is None:
            return []
        kernel: LiveKernel = self._frontend.kernel  # type: ignore[assignment]
        return kernel.reactor_call(
            lambda: self._frontend.io_manager.output_lines(self.pid))


class LiveCluster(ClusterFacade):
    """Build and drive an in-process live cluster.

    ``transport='inproc'`` wires sites with queue loopback (fast, used by
    tests); ``transport='tcp'`` gives every site a real listening socket on
    127.0.0.1 and messages travel through the kernel's TCP stack.
    """

    def __init__(self, nsites: int = 2,
                 config: Optional[SDVMConfig] = None,
                 site_configs: Optional[Sequence[SiteConfig]] = None,
                 transport: str = "inproc") -> None:
        #: the run's clock: every kernel counts wall seconds from here
        self._epoch = time.monotonic()
        super().__init__(config)
        self._hub = InProcHub() if transport == "inproc" else None
        self._sampler_stop = threading.Event()
        self._sampler_thread: Optional[threading.Thread] = None
        self.sites: List[SDVMSite] = []
        self.handles: List[LiveHandle] = []

        configs = (list(site_configs) if site_configs is not None
                   else [SiteConfig(name=f"site{i}") for i in range(nsites)])
        for index, site_config in enumerate(configs):
            self.sites.append(self._build_site(index, site_config,
                                               transport))
        first = self.sites[0]
        first.kernel.reactor_call(first.bootstrap)  # type: ignore[attr-defined]
        bootstrap_addr = first.kernel.local_physical()
        for site in self.sites[1:]:
            site.kernel.reactor_call(  # type: ignore[attr-defined]
                lambda s=site: s.join(bootstrap_addr))
        self._wait(lambda: all(site.running for site in self.sites),
                   "cluster did not form in time")
        if self._build_sampler("live") is not None:
            self._sampler_thread = threading.Thread(
                target=self._sample_loop, name="sdvm-metrics-sampler",
                daemon=True)
            self._sampler_thread.start()

    def _build_site(self, index: int, site_config: SiteConfig,
                    transport: str) -> SDVMSite:
        if transport == "inproc":
            def make_transport(receiver, index=index):  # noqa: ANN001
                return InProcTransport(self._hub, f"site-{index}", receiver)
        elif transport == "tcp":
            make_transport = TcpTransport
        else:
            raise SDVMError(f"unknown transport {transport!r}")
        kernel = LiveKernel(make_transport, seed=self.config.seed,
                            name=f"{site_config.name or index}",
                            tracer=self.tracer, epoch=self._epoch)
        return SDVMSite(kernel, self.config, site_config)

    # ------------------------------------------------------------------
    # the sampler thread (the live twin of SimCluster's virtual-time timer)

    def _sample_loop(self) -> None:
        # Samples read manager counters from outside the reactor threads:
        # plain int/float reads, each atomic under CPython.  A row may mix
        # values from adjacent instants — fine for health monitoring,
        # never used for gated metrics.
        while not self._sampler_stop.wait(self._sampler.interval):
            self._sampler.sample_once(self.horizon)

    def _wall_clock(self) -> Tuple[float, int]:
        events = sum(site.kernel.events_processed  # type: ignore[attr-defined]
                     for site in self.sites)
        return self.horizon, events

    @staticmethod
    def _wait(done: Callable[[], bool], failure: str,
              timeout: float = JOIN_TIMEOUT) -> None:
        """Poll ``done`` until it holds; raise ``failure`` at the timeout."""
        deadline = time.monotonic() + timeout
        while not done():
            if time.monotonic() >= deadline:
                raise SDVMError(failure)
            time.sleep(0.005)

    # ------------------------------------------------------------------
    def add_site(self, site_config: Optional[SiteConfig] = None,
                 transport: str = "inproc") -> SDVMSite:
        """Sign a new site on at runtime (§3.4)."""
        site = self._build_site(len(self.sites),
                                site_config or SiteConfig(
                                    name=f"site{len(self.sites)}"),
                                transport)
        self.sites.append(site)
        bootstrap_addr = self.sites[0].kernel.local_physical()
        site.kernel.reactor_call(  # type: ignore[attr-defined]
            lambda: site.join(bootstrap_addr))
        self._wait(lambda: site.running, "new site did not join in time")
        return site

    def submit(self, program: SDVMProgram, args: tuple = (),
               site_index: int = 0) -> LiveHandle:
        site = self.sites[site_index]
        handle = LiveHandle(program=program, _frontend=site)
        self.handles.append(handle)
        kernel: LiveKernel = site.kernel  # type: ignore[assignment]

        def do_submit() -> int:
            pid = site.submit_program(program, args)

            def on_done(done_pid: int, info: ProgramInfo) -> None:
                if done_pid != pid:
                    return
                handle.result = info.result
                handle.failed = info.failed
                handle.failure = info.failure
                handle._event.set()

            site.program_manager.on_program_done.append(on_done)
            return pid

        handle.pid = kernel.reactor_call(do_submit)
        return handle

    def run(self, program: SDVMProgram, args: tuple = (),
            timeout: float = JOIN_TIMEOUT) -> Any:
        """Submit, wait, and return the result (convenience)."""
        return self.submit(program, args).wait(timeout)

    # ------------------------------------------------------------------
    def sign_off_site(self, index: int,
                      timeout: float = JOIN_TIMEOUT) -> None:
        """Orderly departure of one site, blocking until it has stopped."""
        site = self.sites[index]
        site.kernel.reactor_call(site.sign_off)  # type: ignore[attr-defined]
        self._wait(lambda: site.stopped,
                   f"site {index} did not finish signing off", timeout)

    def crash_site(self, index: int) -> None:
        self.sites[index].crash()

    def shutdown(self) -> None:
        """End the run: one final sample (a run shorter than the sampling
        interval still gets one row per site), then stop every site
        (reverse order so heirs outlive leavers).  The horizon freezes
        once the last site has stopped: messages still in flight at the
        call land in the journal before it."""
        if self._ended_at is not None:
            return
        if self._sampler_thread is not None:
            self._sampler_stop.set()
            self._sampler_thread.join(timeout=2.0)
            self._sampler.sample_once(self.horizon)
        for site in reversed(self.sites):
            if site.stopped:
                continue
            try:
                site.kernel.reactor_call(site.stop, timeout=2.0)  # type: ignore[attr-defined]
            except SDVMError:
                site.crash()
        self._ended_at = self.horizon

    def __enter__(self) -> "LiveCluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
