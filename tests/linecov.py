"""Line ledger: which lines of ``src/repro`` the test suite never runs.

An opt-in pytest plugin that needs only the standard library.  Plain
``pytest`` does not load it; ``make coverage`` runs tier-1 under it::

    PYTHONPATH=src python -m pytest -q -p tests.linecov

It traces every thread (``sys.settrace`` and ``threading.settrace``) and
records the lines run inside functions of ``src/repro`` outside
``apps/``.  At the end of the session it prints:

* ``unreached_lines``: executable lines inside functions that no test ran,
  out of ``function_lines``;
* ``never_entered``: the functions no test called, one ``path:line name``
  each;
* ``most_unreached``: the ten files with the most unreached lines, the
  order in which to triage them, each with those lines as ranges
  (``135-141, 151-159``).

Module and class bodies are not counted: importing runs them.  Code
compiled from strings (the microthreads of an app) has no file to be
counted against.  Tracing makes the suite several times slower, so
Hypothesis deadlines are off for the run.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from types import CodeType, FrameType
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")
_EXCLUDED = os.path.join(_ROOT, "apps") + os.sep

#: file -> lines a line event hit
_lines: Dict[str, Set[int]] = {}
#: file -> (first line, qualified name) of every function entered
_entered: Dict[str, Set[Tuple[int, str]]] = {}
#: file -> its line tracer, or None for a file outside the ledger
_tracers: Dict[str, Optional[Callable[..., Any]]] = {}


def _counted(path: str) -> bool:
    return path.startswith(_ROOT) and not path.startswith(_EXCLUDED)


def _tracer_for(path: str) -> Optional[Callable[..., Any]]:
    if not _counted(path):
        return None
    hits = _lines.setdefault(path, set())

    def trace_lines(frame: FrameType, event: str, _arg: Any):  # noqa: ANN202
        if event == "line":
            hits.add(frame.f_lineno)
        return trace_lines
    return trace_lines


def _trace_calls(frame: FrameType, event: str, _arg: Any):  # noqa: ANN202
    code = frame.f_code
    path = code.co_filename
    try:
        tracer = _tracers[path]
    except KeyError:
        tracer = _tracers[path] = _tracer_for(path)
    if tracer is not None and event == "call":
        _entered.setdefault(path, set()).add(
            (code.co_firstlineno, code.co_qualname))
    return tracer


def _functions(code: CodeType) -> Iterator[CodeType]:
    """Every function compiled inside ``code``, nested ones included;
    class bodies are walked but not yielded."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def ledger() -> Tuple[int, int, List[str], Dict[str, Set[int]]]:
    """(unreached lines, function lines, never-entered functions,
    the unreached lines of each file)."""
    unreached = total = 0
    never: List[str] = []
    per_file: Dict[str, Set[int]] = {}
    for folder, dirs, files in os.walk(_ROOT):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            if not name.endswith(".py") or not _counted(path):
                continue
            with open(path, encoding="utf-8") as fh:
                module = compile(fh.read(), path, "exec")
            hits = _lines.get(path, set())
            entered = _entered.get(path, set())
            for code in _functions(module):
                key = (code.co_firstlineno, code.co_qualname)
                lines = {line for _, _, line in code.co_lines()
                         if line is not None}
                if key in entered:
                    # a call event, not a line event, marks the def line
                    lines.discard(code.co_firstlineno)
                else:
                    never.append(f"{os.path.relpath(path, _ROOT)}:"
                                 f"{code.co_firstlineno} {code.co_qualname}")
                missed = lines - hits
                total += len(lines)
                unreached += len(missed)
                per_file.setdefault(os.path.relpath(path, _ROOT),
                                    set()).update(missed)
    return unreached, total, never, per_file


def line_ranges(lines: Set[int]) -> str:
    """``{135, 136, 137, 151}`` as ``135-137, 151``."""
    spans: List[List[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(first) if first == last else f"{first}-{last}"
                     for first, last in spans)


def _install() -> None:
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_configure(config) -> None:  # noqa: ANN001
    try:
        from hypothesis import settings
    except ImportError:
        return
    settings.register_profile("linecov", deadline=None)
    settings.load_profile("linecov")


def pytest_unconfigure(config) -> None:  # noqa: ANN001
    sys.settrace(None)
    threading.settrace(None)  # type: ignore[arg-type]


def pytest_terminal_summary(terminalreporter) -> None:  # noqa: ANN001
    unreached, total, never, per_file = ledger()
    write = terminalreporter.write_line
    write(f"unreached_lines {unreached} of function_lines {total} "
          f"(src/repro outside apps/)")
    write(f"never_entered {len(never)}")
    for name in never:
        write(f"  {name}")
    write("most_unreached")
    ranked = sorted(per_file.items(),
                    key=lambda item: (-len(item[1]), item[0]))
    for relpath, missed in ranked[:10]:
        write(f"  {len(missed):5d} {relpath}: {line_ranges(missed)}")


# from import on: the plugin is loaded before conftest files and tests
_install()
