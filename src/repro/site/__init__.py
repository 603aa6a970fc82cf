"""Site daemon assembly (paper §4, Fig. 3–4).

"The SDVM daemon, which is to be run on every participating machine, is
structured by consisting of several managers, each having different tasks to
attend to" — :class:`~repro.site.daemon.SDVMSite` wires those managers
together over a :class:`~repro.site.kernel.Kernel`, which abstracts the
execution substrate:

* :class:`~repro.site.sim_kernel.SimKernel` — deterministic discrete-event
  simulation (virtual clock, modelled CPU, simulated network);
* the live kernel in :mod:`repro.runtime` — real threads, real sockets.

:class:`~repro.site.simcluster.SimCluster` is the user-facing facade for
building and running simulated clusters.
"""

from repro.site.kernel import Kernel, CpuModel
from repro.site.daemon import SDVMSite
from repro.site.sim_kernel import SimKernel
from repro.site.simcluster import SimCluster, ProgramHandle

__all__ = [
    "Kernel",
    "CpuModel",
    "SDVMSite",
    "SimKernel",
    "SimCluster",
    "ProgramHandle",
]
