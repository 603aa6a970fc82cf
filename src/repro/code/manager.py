"""The code manager: microthread store, fetch protocol, on-the-fly compile."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import CodeError
from repro.common.ids import ManagerId
from repro.core.threads import (
    CompiledMicrothread,
    MicrothreadSource,
    binary_from_compiled,
    compile_microthread,
    compiled_from_binary,
)
from repro.messages import MsgType, SDMessage, make_reply
from repro.site.manager_base import Manager

#: invoked with the compiled microthread, or None if it cannot be obtained
CodeCallback = Callable[[Optional[CompiledMicrothread]], None]


def _discard_prefetch(_compiled: Optional[CompiledMicrothread]) -> None:
    """Prefetch completion sink — the code sits in the cache for later."""


def _cdag_priority(kv) -> tuple:  # noqa: ANN001
    """Sort key over ``info.threads.items()``: spine threads (those that
    create further frames) first, then by descending work hint — the
    threads most likely to gate the critical path come earliest."""
    return (-(1 if kv[1][3] else 0), -kv[1][2], kv[1][0])

Key = Tuple[int, int]  # (program id, thread id)


class CodeManager(Manager):
    manager_id = ManagerId.CODE

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self._sources: Dict[Key, MicrothreadSource] = {}
        self._binaries: Dict[Tuple[int, int, str], bytes] = {}
        self._compiled: Dict[Key, CompiledMicrothread] = {}
        self._pending: Dict[Key, List[CodeCallback]] = {}
        #: in-flight remote fetches (each closes with the code_fetch_done
        #: event that ends the blame window)
        self._inflight_remote: Set[Key] = set()
        #: binary-only CODE_REQUESTs we cannot serve yet, parked until the
        #: compile owner's CODE_BINARY arrives (or we compile locally)
        self._parked: Dict[Tuple[int, int, str], List[SDMessage]] = {}
        #: threads whose binary a compile owner elsewhere is producing for
        #: us (code-home side of the cluster-wide compile dedup): a demand
        #: hitting one of these parks briefly instead of compiling
        self._awaiting_push: set = set()
        self._push_fallbacks: Dict[Key, object] = {}

    @property
    def platform(self) -> str:
        return self.site.site_config.platform

    # ------------------------------------------------------------------
    # local store

    def store_source(self, src: MicrothreadSource) -> None:
        self._sources[(src.program, src.thread_id)] = src

    def drop_program(self, pid: int) -> None:
        for store in (self._sources, self._compiled):
            for key in [k for k in store if k[0] == pid]:
                del store[key]
        for key in [k for k in self._binaries if k[0] == pid]:
            del self._binaries[key]
        for key in [k for k in self._parked if k[0] == pid]:
            del self._parked[key]
        self._awaiting_push = {k for k in self._awaiting_push
                               if k[0] != pid}
        for key in [k for k in self._push_fallbacks if k[0] == pid]:
            self.kernel.cancel(self._push_fallbacks.pop(key))

    # ------------------------------------------------------------------
    # the scheduler's entry point

    def get(self, pid: int, tid: int, callback: CodeCallback,
            binary_only: bool = False) -> None:
        """Obtain the executable microthread ``(pid, tid)``.

        Resolution order (paper §4): local compiled copy -> local source
        (compile on the fly) -> request from the program's code home site
        (binary if the platform matches, else source).  ``binary_only``
        requests skip the compile-on-the-fly fallback at the serving end:
        the home parks them until a binary exists, so prefetching sites
        never pay the compile cost for code another site is compiling.
        """
        key = (pid, tid)
        compiled = self._compiled.get(key)
        if compiled is not None:
            self.note("code_hit", pid, tid)
            callback(compiled)
            return
        compiled = self._adopt_stored_binary(pid, tid)
        if compiled is not None:
            # a compile owner's pushed binary beats compiling our source
            # copy: reconstitution is free, an on-the-fly compile is not
            self.note("code_binary_hit", pid, tid)
            callback(compiled)
            return
        self.stats.inc("misses")
        waiting = self._pending.get(key)
        if waiting is not None:
            waiting.append(callback)
            return
        self._pending[key] = [callback]
        src = self._sources.get(key)
        if src is not None:
            if (key in self._awaiting_push
                    and self._push_expected(key)):
                # a compile owner elsewhere is producing this binary right
                # now; parking a moment beats burning our CPU on a
                # duplicate compile (the fallback timer bounds the wait)
                self.stats.inc("compile_deferrals")
                self._push_fallbacks.setdefault(
                    key, self.kernel.call_later(
                        self.cost.compile_fixed_cost,
                        lambda: self._push_fallback(key)))
                return
            self._compile_local(src)
            return
        self._request_remote(pid, tid, binary_only=binary_only)

    def _push_fallback(self, key: Key) -> None:
        """The compile owner's binary never came — compile after all."""
        self._push_fallbacks.pop(key, None)
        self._awaiting_push.discard(key)
        if key in self._compiled or key not in self._pending:
            return
        src = self._sources.get(key)
        if src is not None:
            self.stats.inc("push_fallback_compiles")
            self._compile_local(src)
        else:
            self._finish(key, None)

    def _adopt_stored_binary(self, pid: int,
                             tid: int) -> Optional[CompiledMicrothread]:
        """Promote a binary received in a CODE_BINARY into the compiled
        cache, if one for our platform is stored here."""
        blob = self._binaries.get((pid, tid, self.platform))
        if blob is None:
            return None
        src = self._source_of(pid, tid)
        if src is None:
            return None
        try:
            compiled = compiled_from_binary(blob, src, self.platform)
        except CodeError as exc:
            self.log("stored binary for (%d, %d) unusable: %s",
                     pid, tid, exc)
            del self._binaries[(pid, tid, self.platform)]  # serve it to no one
            return None
        self._compiled[(pid, tid)] = compiled
        return compiled

    def prefetch_program(self, info) -> None:  # noqa: ANN001
        """CDAG-hint-driven warm-up: fetch a just-learned program's
        microthread code before any of its frames arrive, so the first
        stolen or pushed frame never stalls on a code round trip.

        Order follows the program's CDAG metadata: spine threads (those
        that create further frames) first, then by descending work hint —
        the threads most likely to gate the critical path land earliest.

        Compiles are deduplicated cluster-wide.  The code home compiles
        only the entry thread eagerly (a program submit demands it
        immediately anyway) and marks every other thread as expected via
        a peer's CODE_BINARY push, so a local demand defers briefly
        instead of duplicating a compile already running elsewhere.  Each
        non-home site takes compile duty for the non-entry thread at duty
        index ``(local_id - code_home - 1) mod T`` — a pure function of
        its own identity, needing no cluster-wide agreement and no
        membership view at all, so it is stable across the sign-on races
        around program submit.  With >= T non-home sites every residue is
        hit (duplicates are parallel compiles on otherwise idle CPUs);
        with fewer, the home spots the uncovered residues from its own
        membership view and demand-compiles those without waiting.  Duty
        sites fetch source and push the binary back to the home;
        everything else is a binary-only request the home parks until
        that binary lands.  A program with T threads thus costs a handful
        of parallel compiles across the whole cluster instead of T
        compiles on every site (or T serial demand compiles on the
        program's critical path).
        """
        if info.code_home == self.local_id:
            for name, (tid, _nparams, _work, _creates) in sorted(
                    info.threads.items(), key=_cdag_priority):
                key = (info.pid, tid)
                if key in self._compiled or key in self._pending:
                    continue
                if name == info.entry:
                    self.stats.inc("compile_duties")
                    self.get(info.pid, tid, _discard_prefetch)
                else:
                    self._awaiting_push.add(key)
            return
        order = self._duty_order(info)
        mine = ((self.local_id - info.code_home - 1) % len(order)
                if order else -1)
        entry_tid = info.threads[info.entry][0]
        # own duty first (it starts a compile), then binary-only warm-ups
        plan = ([(order[mine], True)] if order else []) + \
            [(tid, False) for i, tid in enumerate(order) if i != mine] + \
            [(entry_tid, False)]
        for tid, duty in plan:
            key = (info.pid, tid)
            if key in self._compiled or key in self._pending:
                continue
            if duty:
                self.stats.inc("compile_duties")
                self.get(info.pid, tid, _discard_prefetch)
            else:
                self.get(info.pid, tid, _discard_prefetch,
                         binary_only=True)

    def _duty_order(self, info) -> List[int]:  # noqa: ANN001
        """Non-entry thread ids in CDAG priority order — the shared basis
        for duty-index assignment on every site."""
        return [tid for name, (tid, _n, _w, _c)
                in sorted(info.threads.items(), key=_cdag_priority)
                if name != info.entry]

    def _push_expected(self, key: Key, platform: Optional[str] = None,
                       requester: int = -1) -> bool:
        """Is some alive peer on compile duty for ``key`` right now — one
        of ``platform`` other than ``requester``, when they are given?

        Decided at demand time (registration happens before the cluster
        has signed on, when the membership view is empty): the home only
        waits for a binary push when a currently-alive peer's duty index
        covers this thread — alone, or with the residue uncovered, it
        compiles immediately.
        """
        pid, tid = key
        if not self.site.program_manager.knows(pid):
            return False
        info = self.site.program_manager.get(pid)
        order = self._duty_order(info)
        if tid not in order:
            return False
        idx = order.index(tid)
        nt = len(order)
        return any((r.logical - info.code_home - 1) % nt == idx
                   for r in self.site.cluster_manager.alive_peers()
                   if r.logical not in (info.code_home, requester)
                   and platform in (None, r.platform))

    def _finish(self, key: Key,
                compiled: Optional[CompiledMicrothread]) -> None:
        if key in self._inflight_remote:
            self._inflight_remote.remove(key)
            self.note("code_fetch_done", key[0], key[1], compiled is not None)
        callbacks = self._pending.pop(key, [])
        for callback in callbacks:
            callback(compiled)

    # ------------------------------------------------------------------
    # compilation

    def _compile_local(self, src: MicrothreadSource) -> None:
        """Compile from source, charging the modelled compile cost first."""
        cost = (self.cost.compile_fixed_cost
                + src.source_size() * self.cost.compile_byte_cost)
        self.note("code_compile", src.program, src.thread_id, cost)
        self.kernel.cpu_run(cost, self._do_compile, src)

    def _do_compile(self, src: MicrothreadSource) -> None:
        key = (src.program, src.thread_id)
        try:
            compiled = compile_microthread(src, self.platform)
        except CodeError as exc:
            self.log("compile of %s failed: %s", src.name, exc)
            self._finish(key, None)
            return
        self._compiled[key] = compiled
        self._push_binary_to_distribution(compiled)
        self._finish(key, compiled)
        # a code home compiling on demand can now answer requests it
        # parked while waiting for a compile owner that never delivered
        self._serve_parked(*key)

    def _push_binary_to_distribution(self,
                                     compiled: CompiledMicrothread) -> None:
        """Send a fresh binary to the code distribution site(s) (§4)."""
        try:
            info = self.site.program_manager.get(compiled.program)
        except Exception:  # unknown program: nobody to push to
            return
        targets = {info.code_home}
        for record in self.site.cluster_manager.alive_peers():
            if record.code_distribution:
                targets.add(record.logical)
        targets.discard(self.local_id)
        blob = binary_from_compiled(compiled)
        for target in targets:
            self.site.message_manager.send(SDMessage(
                type=MsgType.CODE_BINARY,
                src_site=self.local_id, dst_site=target,
                program=compiled.program,
                payload={"tid": compiled.thread_id,
                         "platform": compiled.platform, "binary": blob},
            ))
            self.stats.inc("binaries_pushed")

    # ------------------------------------------------------------------
    # remote fetch

    def _request_remote(self, pid: int, tid: int,
                        binary_only: bool = False) -> None:
        key = (pid, tid)
        if not self.site.program_manager.knows(pid):
            self.log("no program info for %d; cannot locate code home", pid)
            self._finish(key, None)
            return
        info = self.site.program_manager.get(pid)
        target = self.site.cluster_manager.effective_site(info.code_home)
        if target == self.local_id:
            # we *are* (or inherited) the code home but lack the source —
            # can happen after crashes; give up on this fetch
            self._finish(key, None)
            return
        msg = SDMessage(
            type=MsgType.CODE_REQUEST,
            src_site=self.local_id, dst_site=target,
            program=pid,
            payload={"tid": tid, "platform": self.platform,
                     "binary_only": binary_only},
        )
        self._inflight_remote.add(key)
        self.note("code_fetch", pid, tid, target)
        # a parked binary-only fetch gives up quickly: if no compile owner
        # delivers, a later demand re-requests normally and gets source
        timeout = (max(0.5, 4 * self.cost.compile_fixed_cost)
                   if binary_only else 2.0)
        ok = self.site.message_manager.request(
            msg, self._on_code_reply,
            timeout=timeout, on_timeout=lambda: self._finish(key, None))
        if not ok:
            self._finish(key, None)

    def _on_code_reply(self, msg: SDMessage) -> None:
        """A fetch's answer goes where a late copy of it would."""
        if msg.type == MsgType.CODE_BINARY:
            self._on_code_binary(msg)
        else:
            self._on_code_source(msg)

    def _on_code_source(self, msg: SDMessage) -> None:
        """The home's source text, to compile here; with none the home has
        neither binary nor source, and the fetch ends empty.  The text's
        thread comes from our own ``ProgramInfo``."""
        key = (msg.program, msg.payload["tid"])
        src = self._source_of(*key, msg.payload.get("source"))
        if src is None:
            self._finish(key, None)
            return
        self.store_source(src)
        self.stats.inc("sources_received")
        self._compile_local(src)

    def _on_code_binary(self, msg: SDMessage) -> None:
        """One platform's binary, whether it answers our fetch
        (``reply_to >= 0``) or a compile owner pushed it here (§4): store
        it, adopt it for whoever waits on it, and serve the binary-only
        requests parked on it."""
        pid, tid = key = (msg.program, msg.payload["tid"])
        platform = msg.payload["platform"]
        answer = msg.reply_to >= 0
        self._binaries[(pid, tid, platform)] = msg.payload["binary"]
        self.stats.inc("binaries_received" if answer else "binaries_stored")
        if platform == self.platform:
            # only a binary we can run ends the wait: a peer on another
            # platform pushes its own, and disarming the fallback for
            # that would park a deferred local demand for ever
            self._awaiting_push.discard(key)
            timer = self._push_fallbacks.pop(key, None)
            if timer is not None:
                self.kernel.cancel(timer)
        if key in self._pending and key not in self._compiled:
            # a demand parked on a push, or our own fetch: resolve the
            # waiters straight from the fresh binary.  An answer ends the
            # fetch even when unusable; a push for another platform leaves
            # the waiters parked
            compiled = self._adopt_stored_binary(pid, tid)
            if compiled is not None or answer:
                self._finish(key, compiled)
        self._serve_parked(pid, tid)

    # ------------------------------------------------------------------
    # serving other sites

    def _on_code_request(self, msg: SDMessage) -> None:
        pid, tid = key = (msg.program, msg.payload["tid"])
        platform = msg.payload["platform"]
        # 1) a binary for the requested platform
        blob = self._binary_for(pid, tid, platform)
        if blob is not None:
            self._reply_binary(msg, blob)
            return
        src = self._sources.get(key)
        # 2) a binary-only request (cluster-wide compile dedup): park it
        # until the compile owner's CODE_BINARY lands here, instead of
        # handing out source and triggering a thundering herd of identical
        # compiles; the requester's timeout bounds the wait.  For another
        # platform than ours, only while a peer of it has the duty
        if (msg.payload["binary_only"] and src is not None
                and (platform == self.platform or self._push_expected(
                    key, platform, msg.src_site))):
            self._parked.setdefault((pid, tid, platform), []).append(msg)
            return
        # 3) source, for the requester to compile on the fly; no text
        # when we have none either
        reply = make_reply(msg, MsgType.CODE_SOURCE, {"tid": tid})
        if src is not None:
            reply.payload["source"] = src.source
        self.site.message_manager.send(reply)

    def _serve_parked(self, pid: int, tid: int) -> None:
        """Answer binary-only requests parked for ``(pid, tid)`` now that a
        binary (pushed by the compile owner, or compiled here) exists."""
        for key in [k for k in self._parked if k[:2] == (pid, tid)]:
            blob = self._binary_for(*key)
            if blob is not None:
                for msg in self._parked.pop(key):
                    self._reply_binary(msg, blob)

    def _binary_for(self, pid: int, tid: int,
                    platform: str) -> Optional[bytes]:
        """A binary of ``(pid, tid)`` for ``platform``: a stored one, or
        our compiled copy's if it is for that platform."""
        blob = self._binaries.get((pid, tid, platform))
        if blob is None:
            compiled = self._compiled.get((pid, tid))
            if compiled is not None and compiled.platform == platform:
                blob = binary_from_compiled(compiled)
        return blob

    def _reply_binary(self, request: SDMessage, blob: bytes) -> None:
        self.site.message_manager.send(make_reply(
            request, MsgType.CODE_BINARY, {
                "tid": request.payload["tid"],
                "platform": request.payload["platform"], "binary": blob}))

    def _source_of(self, pid: int, tid: int,
                   text: object = "") -> Optional[MicrothreadSource]:
        """Thread ``tid`` of program ``pid`` as this site's ``ProgramInfo``
        describes it, with ``text`` as its source; None when the program or
        the thread is unknown here or ``text`` is not a string."""
        programs = self.site.program_manager
        if not isinstance(text, str) or not programs.knows(pid):
            return None
        for name, (thread_id, nparams, work, creates) in programs.get(
                pid).threads.items():
            if thread_id == tid:
                return MicrothreadSource(
                    thread_id=tid, name=name, program=pid, source=text,
                    nparams=nparams, work_hint=work, creates=creates)
        return None
