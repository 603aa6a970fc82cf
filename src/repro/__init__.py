"""repro — a Python reproduction of the SDVM (Self Distributing Virtual
Machine), Haase/Eschmann/Waldschmidt, IPPS 2005.

Public API quick tour::

    from repro import ProgramBuilder, SimCluster, SiteConfig

    prog = ProgramBuilder("hello")

    @prog.microthread
    def main(ctx):
        ctx.output("hello from the SDVM")
        ctx.exit_program(42)

    cluster = SimCluster(nsites=4)
    handle = cluster.submit(prog.build())
    cluster.run()
    assert handle.result == 42

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.common.config import (
    CheckpointConfig,
    ClusterConfig,
    CostModel,
    NetworkConfig,
    SchedulingConfig,
    SDVMConfig,
    SecurityConfig,
    SiteConfig,
)
from repro.common.errors import SDVMError
from repro.common.ids import FileHandle, GlobalAddress, ManagerId
from repro.core.program import ProgramBuilder, SDVMProgram
from repro.net.topology import Topology
from repro.site.daemon import SDVMSite
# after the daemon: repro.proc's manager imports repro.site, which builds it
from repro.proc.context import ExecutionContext
from repro.site.simcluster import ProgramHandle, SimCluster

__version__ = "1.0.0"

__all__ = [
    "ProgramBuilder",
    "SDVMProgram",
    "ExecutionContext",
    "SimCluster",
    "ProgramHandle",
    "SDVMSite",
    "SDVMConfig",
    "SiteConfig",
    "CostModel",
    "NetworkConfig",
    "SchedulingConfig",
    "ClusterConfig",
    "SecurityConfig",
    "CheckpointConfig",
    "Topology",
    "GlobalAddress",
    "FileHandle",
    "ManagerId",
    "SDVMError",
    "__version__",
]
