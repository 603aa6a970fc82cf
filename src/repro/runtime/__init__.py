"""The live runtime: real threads, real sockets, real compilation.

Implemented in:

* :mod:`repro.runtime.live_kernel` — a reactor-thread kernel satisfying the
  :class:`~repro.site.kernel.Kernel` contract with wall-clock time, whose
  pooled worker threads run microthreads for the same processing manager
  and execution context the sim uses (:mod:`repro.proc`);
* :mod:`repro.runtime.live_cluster` — facade for in-process (thread) live
  clusters over :class:`~repro.net.inproc.InProcTransport` or real TCP;
* :mod:`repro.runtime.daemon_main` — entry point to run one SDVM site as an
  OS process (used by the multiprocess examples).
"""

__all__ = ["LiveKernel", "LiveCluster"]


def __getattr__(name: str):  # lazy: keep `import repro` light and avoid
    if name == "LiveKernel":  # pulling threads in for sim-only users
        from repro.runtime.live_kernel import LiveKernel
        return LiveKernel
    if name == "LiveCluster":
        from repro.runtime.live_cluster import LiveCluster
        return LiveCluster
    raise AttributeError(name)
