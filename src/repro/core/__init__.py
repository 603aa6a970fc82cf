"""The SDVM's model of computation (paper §3.1–§3.2, Fig. 2).

* :class:`~repro.core.frames.Microframe` — the dataflow argument container:
  parameter slots, a pointer to its microthread, and target addresses for
  results.  A frame becomes *executable* when its last parameter arrives and
  is consumed by execution.
* :class:`~repro.core.threads.MicrothreadSource` /
  :class:`~repro.core.threads.CompiledMicrothread` — control-flow code
  fragments shipped as source and compiled per "platform" on the fly.
* :class:`~repro.core.program.ProgramBuilder` /
  :class:`~repro.core.program.SDVMProgram` — how applications are split into
  microthreads and submitted to a cluster.

The SDVM instruction set visible to a running microthread ("the only
interface between the program running on the SDVM and the SDVM itself",
§4) is :class:`~repro.proc.context.ExecutionContext`.
"""

from repro.core.frames import Microframe, FrameState, MISSING
from repro.core.threads import (
    MicrothreadSource,
    CompiledMicrothread,
    compile_microthread,
    binary_from_compiled,
    compiled_from_binary,
)
from repro.core.program import ProgramBuilder, SDVMProgram, microthread_source_from_function

__all__ = [
    "Microframe",
    "FrameState",
    "MISSING",
    "MicrothreadSource",
    "CompiledMicrothread",
    "compile_microthread",
    "binary_from_compiled",
    "compiled_from_binary",
    "ProgramBuilder",
    "SDVMProgram",
    "microthread_source_from_function",
]
