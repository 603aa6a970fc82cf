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
        #: compile owner's CODE_PUSH_BINARY arrives (or we compile locally)
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
        """Promote a binary received via CODE_PUSH_BINARY into the compiled
        cache, if one for our platform is stored here."""
        blob = self._binaries.get((pid, tid, self.platform))
        if blob is None:
            return None
        src = (self._sources.get((pid, tid))
               or self._meta_only_source(pid, tid))
        if src is None:
            return None
        try:
            compiled = compiled_from_binary(blob, src, self.platform)
        except CodeError as exc:
            self.log("stored binary for (%d, %d) unusable: %s",
                     pid, tid, exc)
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
        a peer's CODE_PUSH_BINARY, so a local demand defers briefly
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

    def _push_expected(self, key: Key) -> bool:
        """Is some alive peer on compile duty for ``key`` right now?

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
                   if r.logical != info.code_home)

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
                type=MsgType.CODE_PUSH_BINARY,
                src_site=self.local_id, dst_site=target,
                program=compiled.program,
                payload={
                    "pid": compiled.program,
                    "tid": compiled.thread_id,
                    "platform": compiled.platform,
                    "binary": blob,
                },
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
            payload={"pid": pid, "tid": tid, "platform": self.platform,
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
        pid = msg.payload["pid"]
        tid = msg.payload["tid"]
        key = (pid, tid)
        if msg.type == MsgType.CODE_REPLY_BINARY:
            meta = msg.payload["meta"]
            src = MicrothreadSource.from_wire(meta)
            try:
                compiled = compiled_from_binary(
                    msg.payload["binary"], src, self.platform)
            except CodeError as exc:
                self.log("binary for %s unusable: %s", src.name, exc)
                self._finish(key, None)
                return
            self._compiled[key] = compiled
            self.stats.inc("binaries_received")
            self._finish(key, compiled)
        elif msg.type == MsgType.CODE_REPLY_SOURCE:
            src = MicrothreadSource.from_wire(msg.payload["source"])
            self.store_source(src)
            self.stats.inc("sources_received")
            self._compile_local(src)
        elif msg.type == MsgType.CODE_NOT_FOUND:
            self._finish(key, None)
        else:
            self.log("unexpected code reply %s", msg.type.name)
            self._finish(key, None)

    # a reply that arrived after its request timed out is still useful
    _on_code_reply_binary = _on_code_reply_source = _on_code_not_found = (
        _on_code_reply)

    # ------------------------------------------------------------------
    # serving other sites

    def _on_code_push_binary(self, msg: SDMessage) -> None:
        payload = msg.payload
        key = (payload["pid"], payload["tid"])
        self._binaries[(payload["pid"], payload["tid"],
                        payload["platform"])] = payload["binary"]
        self.stats.inc("binaries_stored")
        if payload["platform"] == self.platform:
            # only a binary we can run ends the wait: a peer on another
            # platform pushes its own, and disarming the fallback for
            # that would park a deferred local demand for ever
            self._awaiting_push.discard(key)
            timer = self._push_fallbacks.pop(key, None)
            if timer is not None:
                self.kernel.cancel(timer)
        if key in self._pending and key not in self._compiled:
            # a demand parked on this push (or a remote fetch raced
            # it): resolve the waiters straight from the fresh binary
            compiled = self._adopt_stored_binary(*key)
            if compiled is not None:
                self._finish(key, compiled)
        self._serve_parked(payload["pid"], payload["tid"])

    def _on_code_request(self, msg: SDMessage) -> None:
        pid = msg.payload["pid"]
        tid = msg.payload["tid"]
        platform = msg.payload["platform"]
        key = (pid, tid)
        # 1) a stored binary for the requested platform
        blob = self._binaries.get((pid, tid, platform))
        if blob is None:
            compiled = self._compiled.get(key)
            if compiled is not None and compiled.platform == platform:
                blob = binary_from_compiled(compiled)
        src = self._sources.get(key)
        if blob is not None:
            meta_src = src or self._meta_only_source(pid, tid)
            if meta_src is not None:
                self.site.message_manager.send(make_reply(
                    msg, MsgType.CODE_REPLY_BINARY, {
                        "pid": pid, "tid": tid,
                        "binary": blob,
                        "meta": meta_src.to_wire(),
                    }))
                return
        # 2) a binary-only request (cluster-wide compile dedup): park it
        # until the compile owner's CODE_PUSH_BINARY lands here, instead
        # of handing out source and triggering a thundering herd of
        # identical compiles; the requester's timeout bounds the wait
        if msg.payload.get("binary_only") and src is not None:
            self._parked.setdefault((pid, tid, platform), []).append(msg)
            return
        # 3) source, for the requester to compile on the fly
        if src is not None:
            self.site.message_manager.send(make_reply(
                msg, MsgType.CODE_REPLY_SOURCE, {
                    "pid": pid, "tid": tid,
                    "source": src.to_wire(),
                }))
            return
        self.site.message_manager.send(make_reply(
            msg, MsgType.CODE_NOT_FOUND, {"pid": pid, "tid": tid}))

    def _serve_parked(self, pid: int, tid: int) -> None:
        """Answer binary-only requests parked for ``(pid, tid)`` now that a
        binary (pushed by the compile owner, or compiled here) exists."""
        for key in [k for k in self._parked if k[:2] == (pid, tid)]:
            platform = key[2]
            blob = self._binaries.get(key)
            if blob is None:
                compiled = self._compiled.get((pid, tid))
                if compiled is not None and compiled.platform == platform:
                    blob = binary_from_compiled(compiled)
            if blob is None:
                continue
            meta_src = (self._sources.get((pid, tid))
                        or self._meta_only_source(pid, tid))
            if meta_src is None:
                continue
            for msg in self._parked.pop(key):
                self.site.message_manager.send(make_reply(
                    msg, MsgType.CODE_REPLY_BINARY, {
                        "pid": pid, "tid": tid,
                        "binary": blob,
                        "meta": meta_src.to_wire(),
                    }))

    def _meta_only_source(self, pid: int,
                          tid: int) -> Optional[MicrothreadSource]:
        """Thread metadata without source text (for binary-only replies)."""
        if not self.site.program_manager.knows(pid):
            return None
        info = self.site.program_manager.get(pid)
        for name, (thread_id, nparams, work, creates) in info.threads.items():
            if thread_id == tid:
                return MicrothreadSource(
                    thread_id=tid, name=name, program=pid, source="",
                    nparams=nparams, work_hint=work, creates=creates)
        return None

    def status(self) -> dict:
        base = super().status()
        base["compiled"] = len(self._compiled)
        base["sources"] = len(self._sources)
        base["binaries"] = len(self._binaries)
        base["parked"] = sum(len(v) for v in self._parked.values())
        return base
