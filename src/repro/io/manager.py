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
        #: this site's file store ("the machine the file resides on", §4
        #: — path namespaces are per-site, handles are global)
        self._live_store: Dict[str, bytearray] = {}

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
            type=MsgType.IO_FILE_OPEN,  # see _on_io_file_open
            src_site=self.local_id, dst_site=frontend,
            program=program,
            payload={"kind": "input", "prompt": prompt,
                     "addr": target, "slot": slot},
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

    def live_open(self, path: str, mode: str, cb) -> None:  # noqa: ANN001
        if mode not in ("r", "w", "a", "rw"):
            cb(None, ProgramError(f"unsupported file mode {mode!r}"))
            return
        if mode == "r" and path not in self._live_store:
            cb(None, ProgramError(f"file not found: {path!r}"))
            return
        if mode == "w" or path not in self._live_store:
            self._live_store[path] = bytearray()
        handle = FileHandle(self.local_id, self._next_handle)
        self._next_handle += 1
        self._local_handles[handle] = (path, mode)
        self._positions[handle] = (len(self._live_store[path])
                                   if mode == "a" else 0)
        self.note("file_open", path, mode)
        cb(handle)

    def _live_read_local(self, handle: FileHandle, size: int) -> bytes:
        path, mode = self._local_handles[handle]
        if "r" not in mode:
            raise ProgramError(f"file {path!r} not open for reading")
        data = self._live_store.get(path, bytearray())
        pos = self._positions.get(handle, 0)
        chunk = bytes(data[pos:] if size < 0 else data[pos:pos + size])
        self._positions[handle] = pos + len(chunk)
        return chunk

    def _live_write_local(self, handle: FileHandle, data: bytes) -> int:
        path, mode = self._local_handles[handle]
        if mode == "r":
            raise ProgramError(f"file {path!r} opened read-only")
        buffer = self._live_store.setdefault(path, bytearray())
        pos = self._positions.get(handle, len(buffer))
        buffer[pos:pos + len(data)] = data
        self._positions[handle] = pos + len(data)
        return len(data)

    def _file_request(self, handle: FileHandle, msg_type: MsgType,
                      payload: dict, cb, extract) -> None:  # noqa: ANN001
        target = self.site.cluster_manager.effective_site(handle.site)
        msg = SDMessage(
            type=msg_type,
            src_site=self.local_id, dst_site=target,
            payload=payload,
        )

        def on_reply(reply: SDMessage) -> None:
            error = reply.payload.get("error")
            if error:
                cb(None, ProgramError(error))
            else:
                cb(extract(reply))

        ok = self.site.message_manager.request(
            msg, on_reply, timeout=5.0,
            on_timeout=lambda: cb(None, ProgramError(
                f"file site {target} unresponsive")))
        if not ok:
            cb(None, ProgramError(f"cannot reach file site {target}"))

    def live_read(self, handle: FileHandle, size: int, cb) -> None:  # noqa: ANN001
        if handle in self._local_handles:
            try:
                cb(self._live_read_local(handle, size))
            except ProgramError as exc:
                cb(None, exc)
            return
        self._file_request(handle, MsgType.IO_FILE_READ,
                           {"handle": handle, "size": size}, cb,
                           lambda reply: reply.payload["data"])

    def live_write(self, handle: FileHandle, data: bytes, cb) -> None:  # noqa: ANN001
        if handle in self._local_handles:
            try:
                cb(self._live_write_local(handle, data))
            except ProgramError as exc:
                cb(None, exc)
            return
        self._file_request(handle, MsgType.IO_FILE_WRITE,
                           {"handle": handle, "data": data}, cb,
                           lambda reply: reply.payload["written"])

    def live_seek(self, handle: FileHandle, offset: int, cb) -> None:  # noqa: ANN001
        if handle in self._local_handles:
            self._positions[handle] = max(0, offset)
            cb(None)
            return
        self._file_request(handle, MsgType.IO_FILE_WRITE,
                           {"handle": handle, "seek": offset}, cb,
                           lambda reply: None)

    def live_close(self, handle: FileHandle, cb) -> None:  # noqa: ANN001
        if handle in self._local_handles:
            self._local_handles.pop(handle, None)
            self._positions.pop(handle, None)
            cb(None)
            return
        target = self.site.cluster_manager.effective_site(handle.site)
        self.site.message_manager.send(SDMessage(
            type=MsgType.IO_FILE_CLOSE,
            src_site=self.local_id, dst_site=target,
            payload={"handle": handle},
        ))
        cb(None)

    # ------------------------------------------------------------------
    def _on_io_output(self, msg: SDMessage) -> None:
        self._record_output(msg.program, msg.payload["text"])

    def _on_io_file_open(self, msg: SDMessage) -> None:
        # the one remote open: a frontend input request (request_input)
        self._answer_input(msg.program, msg.payload["prompt"],
                           msg.payload["addr"], msg.payload["slot"])

    def _on_io_file_read(self, msg: SDMessage) -> None:
        try:
            payload = {"data": self._live_read_local(msg.payload["handle"],
                                                     msg.payload["size"])}
        except (ProgramError, KeyError) as exc:
            payload = {"error": str(exc)}
        self.site.message_manager.send(make_reply(
            msg, MsgType.IO_FILE_READ_REPLY, payload))

    def _on_io_file_write(self, msg: SDMessage) -> None:
        handle = msg.payload["handle"]
        try:
            if "seek" in msg.payload:
                if handle not in self._local_handles:
                    raise ProgramError(f"stale file handle {handle}")
                self._positions[handle] = max(0, msg.payload["seek"])
                payload = {"written": 0}
            else:
                payload = {"written": self._live_write_local(
                    handle, msg.payload["data"])}
        except (ProgramError, KeyError) as exc:
            payload = {"error": str(exc)}
        self.site.message_manager.send(make_reply(
            msg, MsgType.IO_FILE_WRITE_ACK, payload))

    def _on_io_file_close(self, msg: SDMessage) -> None:
        handle = msg.payload["handle"]
        self._local_handles.pop(handle, None)
        self._positions.pop(handle, None)

    def status(self) -> dict:
        base = super().status()
        base["open_handles"] = len(self._local_handles)
        base["programs_with_output"] = len(self.outputs)
        return base
