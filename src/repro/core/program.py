"""Building SDVM applications out of microthreads.

Paper §2.1: "the programmer only has to split his application into tasks";
§3.1: applications are partitioned into microthreads whose source the SDVM
ships and compiles per platform.  The :class:`ProgramBuilder` is that
partitioning interface: decorate plain Python functions, name an entry
point, and :meth:`build`.

Because microthread *source text* is what travels between sites, each
microthread must be self-contained: it sees only the safe builtins and the
``ctx`` API — module globals and closures do not exist on the remote side
(define helpers inside the function body).  This is faithful to the paper's
model of independently compiled code fragments.
"""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.common.errors import ProgramError
from repro.core.threads import MicrothreadSource


def microthread_source_from_function(fn: Callable[..., Any]) -> str:
    """Extract standalone source text for a microthread function.

    Strips decorator lines and dedents, so the shipped source is exactly
    ``def name(ctx, ...): ...``.
    """
    try:
        raw = inspect.getsource(fn)
    except (OSError, TypeError) as exc:
        raise ProgramError(
            f"cannot recover source for {fn!r}; define microthreads in a "
            f"file (not a REPL) or register explicit source text") from exc
    lines = textwrap.dedent(raw).splitlines()
    start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("def ") or stripped.startswith("async def "):
            start = i
            break
    else:
        raise ProgramError(f"no def found in source of {fn!r}")
    return "\n".join(lines[start:]) + "\n"


@dataclass(frozen=True)
class SDVMProgram:
    """An immutable, submittable SDVM application."""

    name: str
    threads: Dict[str, MicrothreadSource]
    entry: str
    #: work-unit estimate used for nothing but CDAG display defaults
    description: str = ""

    def thread_table(self) -> Dict[str, Tuple[int, int]]:
        """name -> (thread_id, nparams); what execution contexts need."""
        return {
            name: (src.thread_id, src.nparams)
            for name, src in self.threads.items()
        }

    @property
    def entry_thread(self) -> MicrothreadSource:
        return self.threads[self.entry]

    def with_program_id(self, program_id: int) -> "SDVMProgram":
        """Bind all microthreads to a concrete program id at submission."""
        rebound = {
            name: MicrothreadSource(
                thread_id=src.thread_id,
                name=src.name,
                program=program_id,
                source=src.source,
                nparams=src.nparams,
                work_hint=src.work_hint,
                creates=src.creates,
            )
            for name, src in self.threads.items()
        }
        return SDVMProgram(name=self.name, threads=rebound,
                           entry=self.entry, description=self.description)


class ProgramBuilder:
    """Collects microthreads and produces an :class:`SDVMProgram`.

    >>> prog = ProgramBuilder("hello")
    >>> @prog.microthread
    ... def main(ctx):
    ...     ctx.output("hello world")
    ...     ctx.exit_program(0)
    >>> app = prog.build()
    >>> app.entry
    'main'
    """

    def __init__(self, name: str, description: str = "") -> None:
        if not name:
            raise ProgramError("program name must be non-empty")
        self.name = name
        self.description = description
        self._threads: Dict[str, MicrothreadSource] = {}
        self._entry: Optional[str] = None
        self._entry_explicit = False
        self._next_id = 0

    # ------------------------------------------------------------------
    def microthread(self, fn: Optional[Callable[..., Any]] = None, *,
                    work: float = 0.0,
                    creates: Sequence[str] = (),
                    entry: bool = False) -> Any:
        """Register a function as a microthread (decorator).

        ``work`` is the static work estimate and ``creates`` the names of
        microthreads this one allocates frames for — both feed the CDAG
        (§3.3).  The first registered microthread is the entry point unless
        another is marked ``entry=True``.
        """
        def register(func: Callable[..., Any]) -> Callable[..., Any]:
            self.add_source_function(func, work=work, creates=creates,
                                     entry=entry)
            return func

        if fn is not None:
            return register(fn)
        return register

    def add_source_function(self, fn: Callable[..., Any], *,
                            work: float = 0.0,
                            creates: Sequence[str] = (),
                            entry: bool = False) -> None:
        source = microthread_source_from_function(fn)
        signature = inspect.signature(fn)
        params = list(signature.parameters.values())
        if not params or params[0].name != "ctx":
            raise ProgramError(
                f"microthread {fn.__name__!r} must take ctx as its first "
                f"parameter")
        if any(p.kind is inspect.Parameter.VAR_POSITIONAL for p in params):
            # variadic microthread (e.g. a round collector with `width`
            # result slots): frames must specify nparams at creation
            nparams = -1
        else:
            nparams = len(params) - 1
        self.add_source(fn.__name__, source, nparams=nparams,
                        work=work, creates=creates, entry=entry)

    def add_source(self, name: str, source: str, nparams: int, *,
                   work: float = 0.0, creates: Sequence[str] = (),
                   entry: bool = False) -> None:
        """Register a microthread from raw source text."""
        if name in self._threads:
            raise ProgramError(f"duplicate microthread name {name!r}")
        if nparams < -1:
            raise ProgramError("nparams must be >= 0 (or -1 for variadic)")
        if entry and nparams == -1:
            raise ProgramError("the entry microthread cannot be variadic")
        self._threads[name] = MicrothreadSource(
            thread_id=self._next_id,
            name=name,
            program=-1,  # bound at submission
            source=source,
            nparams=nparams,
            work_hint=work,
            creates=tuple(creates),
        )
        self._next_id += 1
        if entry:
            if self._entry_explicit and self._entry != name:
                raise ProgramError(
                    f"two entry microthreads: {self._entry!r} and {name!r}")
            self._entry = name
            self._entry_explicit = True
        elif self._entry is None and len(self._threads) == 1:
            # the first registered microthread is the implicit entry point
            self._entry = name

    # ------------------------------------------------------------------
    def build(self) -> SDVMProgram:
        if not self._threads:
            raise ProgramError(f"program {self.name!r} has no microthreads")
        if self._entry is None:
            raise ProgramError(f"program {self.name!r} has no entry point")
        for src in self._threads.values():
            for created in src.creates:
                if created not in self._threads:
                    raise ProgramError(
                        f"microthread {src.name!r} declares creates="
                        f"{created!r} which is not a registered microthread")
        return SDVMProgram(
            name=self.name,
            threads=dict(self._threads),
            entry=self._entry,
            description=self.description,
        )
