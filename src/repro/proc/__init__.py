"""Processing manager — microthread execution with latency hiding (§4).

"When a microthread has to wait for data due to an access to the memory,
the processing manager can hide the latency by switching to another
microthread run in parallel. ... Tests showed that a number of about 5
microthreads run in (virtual) parallel produce good results."

One :class:`~repro.proc.manager.ProcessingManager` and one
:class:`~repro.proc.context.ExecutionContext` serve both kernels: up to
``max_parallel`` in-flight executions, each a restartable run whose wait
for data frees the CPU (the modelled one in the sim, a worker thread
live); a context-switch cost is charged whenever executions interleave.
The kernel decides only where user code runs
(:meth:`~repro.site.kernel.Kernel.run_user`).
"""

from repro.proc.context import ExecutionContext
from repro.proc.manager import ProcessingManager

__all__ = ["ProcessingManager", "ExecutionContext"]
