"""The program manager: multi-program bookkeeping, termination, accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ProgramError, SerializationError
from repro.common.ids import ManagerId
from repro.core.program import SDVMProgram
from repro.messages import MsgType, SDMessage
from repro.serde import Encoded
from repro.site.manager_base import Manager


@dataclass(slots=True)
class ProgramInfo:
    """What one site knows about one program.

    ``code_home`` is "a code home site to request microthread code from if
    it is not found locally" (§4); ``frontend`` is the site user I/O is
    routed to (§2.1 goal 15).
    """

    pid: int
    name: str
    entry: str
    code_home: int
    frontend: int
    #: thread name -> (thread_id, nparams, work_hint, creates)
    threads: Dict[str, Tuple[int, int, float, tuple]]
    terminated: bool = False
    result: Any = None
    failed: bool = False
    failure: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    #: local accounting (goal 14): executions run / work charged here
    executions: int = 0
    work_charged: float = 0.0
    #: memoized thread_table() result — ``threads`` is immutable after
    #: registration, and the table is needed once per execution
    _thread_table: Optional[Dict[str, Tuple[int, int]]] = field(
        default=None, init=False, repr=False, compare=False)
    #: the wire form last handed out, re-encoded when it no longer matches
    _wire: Optional[Encoded] = field(default=None, init=False, repr=False,
                                     compare=False)

    def thread_table(self) -> Dict[str, Tuple[int, int]]:
        table = self._thread_table
        if table is None:
            table = self._thread_table = {
                name: (tid, nparams)
                for name, (tid, nparams, _w, _c) in self.threads.items()}
        return table

    def to_wire(self) -> Encoded:
        """The program on the wire, positionally: ``(pid, name, entry,
        code_home, frontend, threads, terminated)``, with ``threads`` a
        tuple of (name, tid, nparams, work_hint, creates) tuples.  Every
        steal reply and checkpoint shard carries the infos of its programs,
        so the tuple is encoded once per change
        (:class:`~repro.serde.Encoded`)."""
        wire = self._wire
        plain = (self.pid, self.name, self.entry, self.code_home,
                 self.frontend,
                 tuple((name, tid, nparams, work, tuple(creates))
                       for name, (tid, nparams, work, creates)
                       in self.threads.items()),
                 self.terminated)
        if wire != plain:
            wire = self._wire = Encoded(plain)
        return wire

    @classmethod
    def from_wire(cls, data: Sequence) -> "ProgramInfo":
        """The program ``data`` describes; anything but the tuple
        :meth:`to_wire` hands out raises :class:`SerializationError`.  An
        :class:`Encoded` ``data`` becomes the info's wire form."""
        if not isinstance(data, tuple):
            raise SerializationError(
                f"malformed program info on wire: {type(data).__name__}")
        try:
            pid, name, entry, code_home, frontend, threads, terminated = data
            info = cls(pid=pid, name=name, entry=entry, code_home=code_home,
                       frontend=frontend,
                       threads={tname: (tid, nparams, work, tuple(creates))
                                for tname, tid, nparams, work, creates
                                in threads},
                       terminated=terminated)
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed program info on wire: {exc}") from exc
        if type(data) is Encoded:
            info._wire = data
        return info


class ProgramManager(Manager):
    manager_id = ManagerId.PROGRAM

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self.programs: Dict[int, ProgramInfo] = {}
        #: facade hooks fired at the frontend site: fn(pid, info)
        self.on_program_done: List[Callable[[int, ProgramInfo], None]] = []

    # ------------------------------------------------------------------
    # registration

    def register_local(self, program: SDVMProgram, pid: int) -> ProgramInfo:
        """Register a program started on this site (code home + frontend)."""
        if pid in self.programs:
            raise ProgramError(f"program id {pid} already registered")
        bound = program.with_program_id(pid)
        info = ProgramInfo(
            pid=pid,
            name=bound.name,
            entry=bound.entry,
            code_home=self.local_id,
            frontend=self.local_id,
            threads={name: (src.thread_id, src.nparams, src.work_hint,
                            tuple(src.creates))
                     for name, src in bound.threads.items()},
            started_at=self.kernel.now,
        )
        self.programs[pid] = info
        self.note("program_register", pid)
        # the starting site is implicitly a code distribution site (§4)
        for src in bound.threads.values():
            self.site.code_manager.store_source(src)
        self._broadcast_registration(info)
        if self.site.running:
            # start the entry compile now and note which binaries the
            # compile owners announced by the broadcast will push back
            self.site.code_manager.prefetch_program(info)
        return info

    #: relay-tree arity for the PROGRAM_REGISTER fan-out
    _RELAY_ARITY = 8

    def _broadcast_registration(self, info: ProgramInfo) -> None:
        targets = list(self.site.cluster_manager.sorted_alive_ids())
        self._relay_registration(info.to_wire(), targets, info.pid)

    def _relay_registration(self, wire: list, targets: list,
                            pid: int) -> None:
        """Fan a PROGRAM_REGISTER out as a relay tree of arity 8.

        Each chunk head receives the program info plus its chunk's tail
        and relays onward after learning it — O(1) messages per site and
        O(log n) registration latency, instead of the old O(n) direct
        fan-out that made the starting site the bottleneck on large
        clusters.  A dead head orphans only its subtree, and any frame
        or steal that later reaches an orphan carries the program info
        anyway (§4's list-update-on-access rule is the backstop).

        PROGRAM_TERMINATED deliberately stays a direct fan-out: a missed
        termination wedges run-to-quiescence, so it does not ride a tree
        whose inner nodes may crash.
        """
        if not targets:
            return
        if len(targets) <= self._RELAY_ARITY:
            chunks = [[t] for t in targets]
        else:
            chunks = [targets[i::self._RELAY_ARITY]
                      for i in range(self._RELAY_ARITY)]
        for chunk in chunks:
            payload = {"info": wire}
            if len(chunk) > 1:
                payload["relay"] = chunk[1:]
            self.site.message_manager.send(SDMessage(
                type=MsgType.PROGRAM_REGISTER,
                src_site=self.local_id, dst_site=chunk[0],
                program=pid,
                payload=payload,
            ))

    def learn_program_wire(self, wire: Sequence) -> ProgramInfo:
        """Adopt program knowledge from any message carrying it ("the list
        is updated with every access to another site resulting in a
        microframe belonging to a new program", §4).  A known program whose
        wire form equals the incoming one is passed over before a
        :class:`ProgramInfo` is built: learning it would change nothing,
        and most steal replies carry programs the thief knows."""
        known = (self.programs.get(wire[0])
                 if isinstance(wire, tuple) and wire else None)
        if known is not None and known.to_wire() == wire:
            return known
        info = ProgramInfo.from_wire(wire)
        existing = self.programs.get(info.pid)
        if existing is None:
            self.programs[info.pid] = info
            if not info.terminated and self.site.running:
                # warm the code cache now (CDAG spine first) so stolen or
                # pushed frames of this program start without a fetch stall
                self.site.code_manager.prefetch_program(info)
            return info
        if info.terminated:
            existing.terminated = True
        return existing

    def known_programs_wire(self) -> list:
        return [info.to_wire() for info in self.programs.values()]

    def learn_programs_wire(self, wires: list) -> None:
        for wire in wires:
            self.learn_program_wire(wire)

    # ------------------------------------------------------------------
    # queries

    def get(self, pid: int) -> ProgramInfo:
        info = self.programs.get(pid)
        if info is None:
            raise ProgramError(f"unknown program id {pid} on site "
                               f"{self.local_id}")
        return info

    def knows(self, pid: int) -> bool:
        return pid in self.programs

    def is_active(self, pid: int) -> bool:
        info = self.programs.get(pid)
        return info is not None and not info.terminated

    def has_active_programs(self) -> bool:
        return any(not info.terminated for info in self.programs.values())

    def record_execution(self, pid: int, work: float) -> None:
        info = self.programs.get(pid)
        if info is not None:
            info.executions += 1
            info.work_charged += work

    # ------------------------------------------------------------------
    # termination

    def local_exit(self, pid: int, result: Any, failed: bool = False,
                   failure: str = "") -> None:
        """A microthread on this site called exit_program (or raised)."""
        info = self.programs.get(pid)
        if info is None or info.terminated:
            return
        self._terminate(info)
        info.result = result
        info.failed = failed
        info.failure = failure
        self.note("program_exit", pid, failed)
        for peer in self.site.cluster_manager.alive_peers():
            self.site.message_manager.send(SDMessage(
                type=MsgType.PROGRAM_TERMINATED,
                src_site=self.local_id, dst_site=peer.logical,
                program=pid,
                payload={"pid": pid},
            ))
        if info.frontend == self.local_id:
            self._finish(info)
        else:
            self.site.message_manager.send(SDMessage(
                type=MsgType.PROGRAM_RESULT,
                src_site=self.local_id, dst_site=info.frontend,
                program=pid,
                payload={"pid": pid, "result": result,
                         "failed": failed, "failure": failure},
            ))

    def _terminate(self, info: ProgramInfo) -> None:
        info.terminated = True
        info.finished_at = self.kernel.now
        # "its microthreads can safely be deleted from memory" (§4)
        self.site.scheduling_manager.drop_program(info.pid)
        self.site.attraction_memory.drop_program(info.pid)
        self.site.code_manager.drop_program(info.pid)

    def _finish(self, info: ProgramInfo) -> None:
        for callback in self.on_program_done:
            callback(info.pid, info)

    # ------------------------------------------------------------------
    def _on_program_register(self, msg: SDMessage) -> None:
        info = self.learn_program_wire(msg.payload["info"])
        relay = msg.payload.get("relay")
        if relay:
            cm = self.site.cluster_manager
            live = [t for t in relay
                    if cm.physical_of(cm.effective_site(t)) is not None]
            self._relay_registration(msg.payload["info"], live, info.pid)
        if not info.terminated:
            # a new program means new work somewhere: wake the
            # (possibly dormant) scheduler to go steal some
            self.site.scheduling_manager.kick()

    def _on_program_terminated(self, msg: SDMessage) -> None:
        info = self.programs.get(msg.payload["pid"])
        if info is not None and not info.terminated:
            self._terminate(info)

    def _on_program_result(self, msg: SDMessage) -> None:
        info = self.programs.get(msg.payload["pid"])
        if info is None:
            return
        if not info.terminated:
            self._terminate(info)
        info.result = msg.payload["result"]
        info.failed = msg.payload["failed"]
        info.failure = msg.payload["failure"]
        self._finish(info)

    def on_start(self) -> None:
        """PROGRAM_REGISTER can land while our own sign-on is still in
        flight (``running`` False), where :meth:`learn_program_wire` must
        not start code fetches yet — warm the cache for everything learned
        in that window now."""
        for info in self.programs.values():
            if not info.terminated:
                self.site.code_manager.prefetch_program(info)
