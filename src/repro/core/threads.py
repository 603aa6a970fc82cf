"""Microthreads — the control-flow half of the model of computation.

Paper §3.1: "A microthread contains a (for each computer architecture
compiled) code fragment ... but it lacks its start arguments."  §3.4: "If
the microthread is not available in the new site's platform specific binary
format, it will receive the source code of the microthread and compile it on
the fly."

Our "source" is Python source text defining one function; our
"platform-specific binary" is the marshalled code object tagged with a
platform id — marshal output is CPython-version specific, which mirrors real
binary incompatibility nicely.  Compilation really runs ``compile``/``exec``
in a controlled namespace.
"""

from __future__ import annotations

import marshal
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.common.errors import CodeError

#: builtins exposed to microthread code.  The paper notes memory protection
#: between programs "is currently not intercepted"; we at least pin down the
#: namespace microthreads compile into so applications are explicit about
#: their dependencies.
_SAFE_BUILTINS = {
    name: getattr(__import__("builtins"), name)
    for name in (
        "abs", "all", "any", "bool", "bytes", "bytearray", "dict", "divmod",
        "enumerate", "filter", "float", "frozenset", "hash", "int", "isinstance",
        "len", "list", "map", "max", "min", "pow", "print", "range", "repr",
        "reversed", "round", "set", "sorted", "str", "sum", "tuple", "zip",
        "ValueError", "TypeError", "KeyError", "IndexError", "ZeroDivisionError",
        "ArithmeticError", "Exception", "StopIteration", "RuntimeError",
        "__build_class__", "__name__", "object", "staticmethod", "property",
    )
}


@dataclass(frozen=True, slots=True)
class MicrothreadSource:
    """One microthread: the source text a site compiles and the CDAG
    metadata every site knows from its program info."""

    thread_id: int
    name: str
    program: int
    #: Python source text defining exactly one function named ``name``;
    #: signature is ``name(ctx, p0, p1, ...)``
    source: str
    #: number of microframe parameter slots (== positional params after ctx)
    nparams: int
    #: static work estimate in work units (CDAG hint, §3.3); 0 = unknown
    work_hint: float = 0.0
    #: names of microthreads this one allocates frames for (CDAG edges)
    creates: tuple = ()

    def source_size(self) -> int:
        return len(self.source.encode("utf-8"))


@dataclass(slots=True)
class CompiledMicrothread:
    """A microthread in one platform's "binary format"."""

    thread_id: int
    name: str
    program: int
    platform: str
    entry: Callable[..., Any]
    nparams: int


def compile_microthread(src: MicrothreadSource,
                        platform: str) -> CompiledMicrothread:
    """Compile source to a runnable microthread for ``platform``.

    Raises :class:`CodeError` for syntax errors or when the source does not
    define the expected function.
    """
    try:
        code = compile(src.source, f"<microthread {src.name}>", "exec")
    except SyntaxError as exc:
        raise CodeError(f"microthread {src.name!r} does not compile: {exc}") from exc
    namespace: Dict[str, Any] = {"__builtins__": _SAFE_BUILTINS}
    try:
        exec(code, namespace)
    except Exception as exc:  # noqa: BLE001 — anything at import time is a code error
        raise CodeError(f"microthread {src.name!r} failed to load: {exc}") from exc
    entry = namespace.get(src.name)
    if not callable(entry):
        raise CodeError(
            f"microthread source must define a function {src.name!r}")
    return CompiledMicrothread(
        thread_id=src.thread_id,
        name=src.name,
        program=src.program,
        platform=platform,
        entry=entry,
        nparams=src.nparams,
    )


def binary_from_compiled(compiled: CompiledMicrothread) -> bytes:
    """Extract the shippable "binary" (marshalled code object)."""
    return marshal.dumps(compiled.entry.__code__)


def compiled_from_binary(blob: bytes, src: MicrothreadSource,
                         platform: str) -> CompiledMicrothread:
    """Reconstitute a compiled microthread from a same-platform binary."""
    try:
        code = marshal.loads(blob)
    except (ValueError, EOFError, TypeError) as exc:
        raise CodeError(f"corrupt binary for {src.name!r}: {exc}") from exc
    if not isinstance(code, types.CodeType):
        raise CodeError(f"binary for {src.name!r} is not a code object")
    entry = types.FunctionType(code, {"__builtins__": _SAFE_BUILTINS},
                               src.name)
    return CompiledMicrothread(
        thread_id=src.thread_id,
        name=src.name,
        program=src.program,
        platform=platform,
        entry=entry,
        nparams=src.nparams,
    )
