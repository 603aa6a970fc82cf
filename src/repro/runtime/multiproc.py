"""Multiprocess deployment: one SDVM site daemon per OS process.

The paper's deployment model is "one daemon per machine"; on a single host
the closest equivalent is one daemon per *process*, connected by real TCP
sockets — which also buys true multi-core parallelism for CPU-bound Python
microthreads (each process has its own GIL).

Typical use (see ``examples/live_multiprocess.py``)::

    frontend = LiveCluster(nsites=1, transport="tcp")   # main process
    addr = frontend.sites[0].kernel.local_physical()
    workers = spawn_workers(3, addr, frontend.config)
    ...
    result = frontend.run(program, args)
    stop_workers(workers)
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Optional, Sequence

from repro.common.config import SDVMConfig, SiteConfig


def _worker_main(bootstrap_addr: str, config: SDVMConfig,
                 site_config: SiteConfig) -> None:
    """Entry point of a worker process: join the cluster and serve."""
    # imports inside so 'spawn' start method stays cheap in the parent
    from repro.net.tcp import TcpTransport
    from repro.runtime.live_kernel import LiveKernel
    from repro.site.daemon import SDVMSite

    kernel = LiveKernel(TcpTransport, seed=config.seed,
                        name=site_config.name or "worker")
    site = SDVMSite(kernel, config, site_config)
    kernel.reactor_call(lambda: site.join(bootstrap_addr))
    try:
        while not site.stopped:
            time.sleep(0.05)
    except KeyboardInterrupt:
        pass
    finally:
        if not site.stopped:
            site.crash()


def spawn_workers(count: int, bootstrap_addr: str, config: SDVMConfig,
                  site_configs: Optional[Sequence[SiteConfig]] = None,
                  ) -> List[multiprocessing.Process]:
    """Start ``count`` worker site daemons as child processes.

    Each signs on to the cluster at ``bootstrap_addr``.  The caller should
    give the cluster a moment to form (workers announce themselves via the
    normal sign-on protocol) before submitting work.
    """
    configs = (list(site_configs) if site_configs is not None
               else [SiteConfig(name=f"worker{i}") for i in range(count)])
    processes = []
    for site_config in configs[:count]:
        process = multiprocessing.Process(
            target=_worker_main,
            args=(bootstrap_addr, config, site_config),
            daemon=True,
            name=f"sdvm-{site_config.name}",
        )
        process.start()
        processes.append(process)
    return processes


def stop_workers(processes: List[multiprocessing.Process],
                 timeout: float = 2.0) -> None:
    """Terminate worker processes: the crash-style exit, which the
    cluster's failure detector and recovery see as a crash.  No message
    stops a worker remotely: an orderly leave, ``site.sign_off()``, is
    called on the leaving site itself."""
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=timeout)


def wait_for_cluster_size(site, expected: int,  # noqa: ANN001
                          timeout: float = 10.0) -> bool:
    """Block until ``site`` knows ``expected`` alive cluster members."""
    kernel = site.kernel
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = kernel.reactor_call(
            lambda: sum(1 for r in site.cluster_manager.sites.values()
                        if r.alive))
        if alive >= expected:
            return True
        time.sleep(0.02)
    return False
