"""The I/O manager: console routing, frontend input, cluster-global files."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ProgramError
from repro.common.ids import FileHandle, GlobalAddress, ManagerId
from repro.messages import MsgType, SDMessage, make_reply
from repro.site.manager_base import Manager

#: facade-registered provider answering frontend input requests
InputProvider = Callable[[int, str], Any]


class IOManager(Manager):
    manager_id = ManagerId.IO

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        #: console output captured at the frontend: pid -> [(time, text)]
        self.outputs: Dict[int, List[Tuple[float, str]]] = {}
        #: answers frontend input requests; set by the facade/frontend
        self.input_provider: Optional[InputProvider] = None
        self._next_handle = 1
        #: file handles minted by this site: handle -> (path, mode)
        self._local_handles: Dict[FileHandle, Tuple[str, str]] = {}
        #: read/write cursors, kept by the owning site
        self._positions: Dict[FileHandle, int] = {}
        #: this site's files ("the machine the file resides on", §4
        #: — path namespaces are per-site, handles are global)
        self._files: Dict[str, bytearray] = {}

    # ------------------------------------------------------------------
    # console output

    def emit_output(self, program: int, text: str) -> None:
        """Route microthread output to the program's frontend site."""
        info = self.site.program_manager.get(program)
        frontend = self.site.cluster_manager.effective_site(info.frontend)
        if frontend == self.local_id:
            self._record_output(program, text)
            return
        self.site.message_manager.send(SDMessage(
            type=MsgType.IO_OUTPUT,
            src_site=self.local_id, dst_site=frontend,
            program=program,
            payload={"text": text},
        ))

    def _record_output(self, program: int, text: str) -> None:
        self.outputs.setdefault(program, []).append((self.kernel.now, text))
        self.note("io_output", program)

    def output_lines(self, program: int) -> List[str]:
        return [text for _t, text in self.outputs.get(program, [])]

    # ------------------------------------------------------------------
    # frontend input (dataflow style: the answer becomes a parameter)

    def request_input(self, program: int, prompt: str,
                      target: GlobalAddress, slot: int) -> None:
        info = self.site.program_manager.get(program)
        frontend = self.site.cluster_manager.effective_site(info.frontend)
        if frontend == self.local_id:
            self._answer_input(program, prompt, target, slot)
            return
        self.site.message_manager.send(SDMessage(
            type=MsgType.IO_INPUT,
            src_site=self.local_id, dst_site=frontend,
            program=program,
            payload={"prompt": prompt, "addr": target, "slot": slot},
        ))

    def _answer_input(self, program: int, prompt: str,
                      target: GlobalAddress, slot: int) -> None:
        if self.input_provider is None:
            raise ProgramError(
                f"program {program} requested input ({prompt!r}) but no "
                f"frontend input provider is registered")
        value = self.input_provider(program, prompt)
        self.stats.inc("inputs_answered")
        self.site.attraction_memory.apply_result(target, slot, value, program)

    # ------------------------------------------------------------------
    # cluster-global files — one message protocol under both kernels.
    # Files reside on the site that opened them; remote sites access them
    # by handle, with the access "automatically rerouted to the
    # appropriate site" (§4).

    def open_file(self, path: str, mode: str, cb) -> None:  # noqa: ANN001
        if mode not in ("r", "w", "a", "rw"):
            cb(None, ProgramError(f"unsupported file mode {mode!r}"))
            return
        if mode == "r" and path not in self._files:
            cb(None, ProgramError(f"file not found: {path!r}"))
            return
        if mode == "w" or path not in self._files:
            self._files[path] = bytearray()
        handle = FileHandle(self.local_id, self._next_handle)
        self._next_handle += 1
        self._local_handles[handle] = (path, mode)
        self._positions[handle] = (len(self._files[path])
                                   if mode == "a" else 0)
        self.note("file_open", path, mode)
        cb(handle)

    def file_op(self, handle: FileHandle, op: str, arg: Any,
                cb) -> None:  # noqa: ANN001
        """A read, write, seek or close of ``handle``: run here when the
        file resides here, else by one IO_FILE to its site."""
        target = self.site.cluster_manager.effective_site(handle.site)
        if target == self.local_id:
            try:
                cb(self._run_file_op(handle, op, arg))
            except ProgramError as exc:
                cb(None, exc)
            return

        def on_reply(reply: SDMessage) -> None:
            error = reply.payload.get("error")
            if error:
                cb(None, ProgramError(error))
            else:
                cb(reply.payload.get("value"))

        ok = self.site.message_manager.request(
            SDMessage(type=MsgType.IO_FILE, src_site=self.local_id,
                      dst_site=target,
                      payload={"handle": handle, "op": op, "arg": arg}),
            on_reply, timeout=5.0,
            on_timeout=lambda: cb(None, ProgramError(
                f"file site {target} unresponsive")))
        if not ok:
            cb(None, ProgramError(f"cannot reach file site {target}"))

    def _run_file_op(self, handle: FileHandle, op: str, arg: Any) -> Any:
        """Perform one operation on a handle this site opened."""
        if handle not in self._local_handles:
            raise ProgramError(f"stale file handle {handle}")
        path, mode = self._local_handles[handle]
        if op == "close":
            del self._local_handles[handle], self._positions[handle]
            return None
        if op == "seek":
            self._positions[handle] = max(0, arg)
            return None
        data, pos = self._files[path], self._positions[handle]
        if op == "read":
            if "r" not in mode:
                raise ProgramError(f"file {path!r} not open for reading")
            chunk = bytes(data[pos:] if arg < 0 else data[pos:pos + arg])
            self._positions[handle] = pos + len(chunk)
            return chunk
        if op != "write":
            raise ProgramError(f"unknown file operation {op!r}")
        if mode == "r":
            raise ProgramError(f"file {path!r} opened read-only")
        data[pos:pos + len(arg)] = arg
        self._positions[handle] = pos + len(arg)
        return len(arg)

    # ------------------------------------------------------------------
    def _on_io_output(self, msg: SDMessage) -> None:
        self._record_output(msg.program, msg.payload["text"])

    def _on_io_input(self, msg: SDMessage) -> None:
        self._answer_input(msg.program, msg.payload["prompt"],
                           msg.payload["addr"], msg.payload["slot"])

    def _on_io_file(self, msg: SDMessage) -> None:
        payload = msg.payload
        try:
            reply = {"value": self._run_file_op(
                payload["handle"], payload["op"], payload["arg"])}
        except ProgramError as exc:
            reply = {"error": str(exc)}
        self.site.message_manager.send(make_reply(
            msg, MsgType.IO_FILE_REPLY, reply))
