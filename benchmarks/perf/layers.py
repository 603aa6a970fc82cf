"""The per-layer ledger: what is declared, and how each number is taken.

Everything here measures ``repro`` from outside — through its public
functions and the reports it already exports.  The module imports
``repro`` only inside functions, so the parent runner (which must stay
small: a child's ``ru_maxrss`` starts at its parent's) can read the
declarations without loading the system under test.

Source tags, as in the README:

``C``  a counter or report read after the plain (untraced) pass
``P``  the sampled pass (:class:`CpuLedger`)
``B``  the ``trace=True`` pass
``R``  a replay of that pass's captured envelopes through a layer's
       public functions
``D``  an isolated driver, run once per traced invocation
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Tuple

WORKLOADS = ("table1_s8", "fine_s8", "treesum_s256", "crash_s32",
             "live_tcp_s2")
SIM_WORKLOADS = WORKLOADS[:4]

#: end-to-end metrics: name -> (unit, better, bound).  ``s`` is the
#: host's wall clock, ``virtual_s`` the sim kernel's virtual time.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "host_s": ("s", "lower", 0.25),
    "virtual_s": ("virtual_s", "lower", 0.08),
    "virtual_1site_s": ("virtual_s", "lower", 0.02),
    "msgs_per_exec": ("msg/exec", "lower", 0.10),
    "wire_bytes_per_exec": ("B/exec", "lower", 0.20),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: the sim metrics that must repeat bit-for-bit for one (workload, seed)
EXACT = ("virtual_s", "virtual_1site_s", "msgs_per_exec",
         "wire_bytes_per_exec", "sim.events")

_ALL_SIM = tuple(f"host_s@{w}" for w in SIM_WORKLOADS)
_LIVE = ("host_s@live_tcp_s2",)

#: per-layer metrics: (name, unit, better, layer, source, should move).
#: "should move" was written before measuring: the end-to-end metric and
#: workload an optimisation of that layer is expected to show on.
PER_LAYER: Tuple[Tuple[str, str, str, str, str, Tuple[str, ...]], ...] = (
    # serde: codec + framing.  Host only — must move no virtual_s metric.
    ("serde.host_frac", "frac", "lower", "serde", "P",
     ("host_s@crash_s32", "host_s@treesum_s256", "host_s@table1_s8")),
    ("serde.loads_per_s", "1/s", "higher", "serde", "R", _ALL_SIM),
    ("serde.dumps_per_s", "1/s", "higher", "serde", "R", _ALL_SIM),
    ("serde.loads_mb_per_s", "MB/s", "higher", "serde", "R",
     ("host_s@crash_s32",)),
    ("serde.avg_envelope_bytes", "B", "lower", "serde", "C",
     ("wire_bytes_per_exec@table1_s8", "wire_bytes_per_exec@crash_s32")),
    ("serde.frame_roundtrip_per_s", "1/s", "higher", "serde", "R", _LIVE),
    # messages: the SDMessage envelope around the codec
    ("messages.host_frac", "frac", "lower", "messages", "P",
     ("host_s@table1_s8", "host_s@fine_s8")),
    ("messages.decode_per_s", "1/s", "higher", "messages", "R",
     ("host_s@table1_s8", "host_s@fine_s8")),
    ("messages.encode_per_s", "1/s", "higher", "messages", "R",
     ("host_s@table1_s8", "host_s@fine_s8")),
    # sim: the event engine
    ("sim.events", "count", "lower", "sim", "C", _ALL_SIM),
    ("sim.events_per_host_s", "1/s", "higher", "sim", "C", _ALL_SIM),
    ("sim.host_frac", "frac", "lower", "sim", "P", _ALL_SIM),
    ("sim.noop_events_per_s", "1/s", "higher", "sim", "D", _ALL_SIM),
    # site.kernel: CpuModel + kernel glue
    ("cpu.busy_frac", "frac", "higher", "site.kernel", "C",
     ("virtual_s@fine_s8", "virtual_s@treesum_s256")),
    ("cpu.overhead_frac", "frac", "lower", "site.kernel", "C",
     ("virtual_s@fine_s8", "virtual_1site_s@fine_s8")),
    ("cpu.host_frac", "frac", "lower", "site.kernel", "P",
     ("host_s@table1_s8",)),
    ("cpu.admits_per_s", "1/s", "higher", "site.kernel", "D",
     ("host_s@table1_s8",)),
    # site.message_manager: send/receive/dispatch
    ("msg.sent", "count", "lower", "site.message_manager", "C",
     tuple(f"msgs_per_exec@{w}" for w in WORKLOADS)),
    ("msg.local", "count", "lower", "site.message_manager", "C",
     ("host_s@fine_s8",)),
    ("msg.bytes_sent", "B", "lower", "site.message_manager", "C",
     tuple(f"wire_bytes_per_exec@{w}" for w in WORKLOADS)),
    ("msg.request_timeouts", "count", "lower", "site.message_manager", "C",
     ("virtual_s@crash_s32",)),
    ("msg.host_frac", "frac", "lower", "site.message_manager", "P",
     ("host_s@table1_s8",)),
    # net: SimNetwork, and TcpTransport on the live kernel
    ("net.delivered", "count", "lower", "net", "C", _ALL_SIM),
    ("net.dropped_dead_dst", "count", "lower", "net", "C",
     ("virtual_s@crash_s32",)),
    ("net.host_frac", "frac", "lower", "net", "P",
     ("host_s@table1_s8",) + _LIVE),
    ("tcp.frames_sent", "count", "lower", "net", "C", _LIVE),
    ("tcp.bytes_sent", "B", "lower", "net", "C",
     ("wire_bytes_per_exec@live_tcp_s2",)),
    ("tcp.send_retries", "count", "lower", "net", "C", _LIVE),
    ("tcp.dead_letters", "count", "lower", "net", "C", _LIVE),
    ("tcp.queue_depth_peak", "count", "lower", "net", "C", _LIVE),
    ("tcp.loopback_frames_per_s", "1/s", "higher", "net", "D", _LIVE),
    ("tcp.loopback_rtt_p50_us", "us", "lower", "net", "D", _LIVE),
    # security: seal/open.  Off (zero) on every sim workload.
    ("sec.sealed", "count", "lower", "security", "C", _LIVE),
    ("sec.bytes", "B", "lower", "security", "C", _LIVE),
    ("sec.host_frac", "frac", "lower", "security", "P", _LIVE),
    ("sec.seal_mb_per_s", "MB/s", "higher", "security", "R", _LIVE),
    ("sec.open_mb_per_s", "MB/s", "higher", "security", "R", _LIVE),
    # sched: help/steal/push/gossip
    ("sched.help_sent", "count", "lower", "sched", "C",
     ("virtual_s@fine_s8", "virtual_s@treesum_s256")),
    ("sched.steal_success_rate", "frac", "higher", "sched", "C",
     ("virtual_s@fine_s8", "virtual_s@treesum_s256")),
    ("sched.steals_in", "count", "higher", "sched", "C",
     ("virtual_s@fine_s8", "virtual_s@treesum_s256")),
    ("sched.help_timeouts", "count", "lower", "sched", "C",
     ("virtual_s@treesum_s256",)),
    ("sched.frames_pushed", "count", "higher", "sched", "C",
     ("virtual_s@fine_s8",)),
    ("sched.gossip_sent", "count", "lower", "sched", "C",
     ("msgs_per_exec@table1_s8", "host_s@table1_s8")),
    ("sched.gossip_msg_frac", "frac", "lower", "sched", "C",
     ("msgs_per_exec@table1_s8", "host_s@table1_s8")),
    ("sched.host_frac", "frac", "lower", "sched", "P",
     ("host_s@table1_s8",)),
    # cluster: membership and formation
    ("cluster.formation_virtual_s", "virtual_s", "lower", "cluster", "C",
     ("setup_s@treesum_s256",)),
    ("cluster.formation_events", "count", "lower", "cluster", "C",
     ("setup_s@treesum_s256",)),
    ("cluster.formation_host_s", "s", "lower", "cluster", "C",
     ("setup_s@treesum_s256",)),
    ("cluster.host_frac", "frac", "lower", "cluster", "P",
     ("host_s@treesum_s256",)),
    # code: microthread code cache and distribution
    ("code.hit_rate", "frac", "higher", "code", "C",
     ("virtual_s@fine_s8",)),
    ("code.host_frac", "frac", "lower", "code", "P", ("host_s@fine_s8",)),
    # memory: attraction memory.  About zero on primes and treesum.
    ("mem.reads_remote", "count", "lower", "memory", "C", _LIVE),
    ("mem.migrations_in", "count", "lower", "memory", "C", _LIVE),
    ("mem.dir_updates_sent", "count", "lower", "memory", "C", _LIVE),
    ("mem.host_frac", "frac", "lower", "memory", "P", _LIVE),
    # proc: microthread execution — the denominator of the per-exec costs
    ("proc.executions", "count", "lower", "proc", "C",
     ("virtual_s@crash_s32",)),
    ("proc.work_units", "count", "lower", "proc", "C",
     ("virtual_s@crash_s32",)),
    ("proc.exec_per_host_s", "1/s", "higher", "proc", "C", _ALL_SIM),
    ("proc.host_frac", "frac", "lower", "proc", "P", _ALL_SIM),
    # crash + chaos: checkpoint waves, recovery, the invariant audit
    ("crash.waves_committed", "count", "lower", "crash", "C",
     ("virtual_s@crash_s32", "host_s@crash_s32")),
    ("crash.wave_mean_virtual_s", "virtual_s", "lower", "crash", "C",
     ("virtual_s@crash_s32",)),
    ("crash.recoveries", "count", "lower", "crash", "C",
     ("virtual_s@crash_s32",)),
    ("crash.host_frac", "frac", "lower", "crash", "P",
     ("host_s@crash_s32",)),
    ("chaos.audit_host_s", "s", "lower", "chaos", "C",
     ("host_s@crash_s32",)),
    # trace: journal + flight recorder.  On only in crash_s32.
    ("trace.journal_entries", "count", "lower", "trace", "C",
     ("host_s@crash_s32",)),
    ("trace.on_off_ratio", "ratio", "lower", "trace", "B",
     ("host_s@crash_s32",)),
    ("trace.emit_per_s", "1/s", "higher", "trace", "D",
     ("host_s@crash_s32",)),
    ("trace.host_frac", "frac", "lower", "trace", "P",
     ("host_s@crash_s32",)),
    # blame: virtual time by cause (repro.trace.blame)
    ("blame.compute_frac", "frac", "higher", "blame", "B",
     ("virtual_s@fine_s8",)),
    ("blame.protocol_frac", "frac", "lower", "blame", "B",
     ("virtual_s@fine_s8", "virtual_1site_s@fine_s8")),
    ("blame.code-fetch_frac", "frac", "lower", "blame", "B",
     ("virtual_s@fine_s8",)),
    ("blame.steal-wait_frac", "frac", "lower", "blame", "B",
     ("virtual_s@fine_s8", "virtual_s@treesum_s256")),
    ("blame.message-latency_frac", "frac", "lower", "blame", "B",
     ("virtual_s@fine_s8",)),
    ("blame.idle_frac", "frac", "lower", "blame", "B",
     ("virtual_s@treesum_s256",)),
    ("blame.checkpoint-pause_frac", "frac", "lower", "blame", "B",
     ("virtual_s@crash_s32",)),
    # runtime: the live kernel's reactor and workers
    ("live.reactor_events", "count", "lower", "runtime", "C", _LIVE),
    ("live.reactor_events_per_s", "1/s", "higher", "runtime", "C", _LIVE),
    ("live.prog_p90_ms", "ms", "lower", "runtime", "C", _LIVE),
    ("live.prog_per_s", "1/s", "higher", "runtime", "C", _LIVE),
    ("live.stall_frac", "frac", "lower", "runtime", "C", _LIVE),
    ("live.remote_exec_frac", "frac", "higher", "runtime", "C", _LIVE),
    ("live.host_frac", "frac", "lower", "runtime", "P", _LIVE),
    # model / host: context for reading the rows above
    ("model.speedup", "ratio", "higher", "model", "C",
     ("virtual_s@table1_s8",)),
    ("model.efficiency", "ratio", "higher", "model", "C",
     ("virtual_s@table1_s8",)),
    ("model.paper_speedup_err", "ratio", "lower", "model", "C",
     ("virtual_s@table1_s8",)),
    ("host.calib_s", "s", "lower", "host", "D", ("host_s@table1_s8",)),
    ("host.profile_overhead_ratio", "ratio", "lower", "host", "P",
     ("host_s@table1_s8",)),
    ("host.other_frac", "frac", "lower", "host", "P",
     ("host_s@table1_s8",)),
)

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
HOST_FRACS = tuple(name for name in PER_LAYER_NAMES
                   if name.endswith((".host_frac", ".other_frac")))

#: Table 1's 8-site, width-10 speedup the paper reports for p = 100
PAPER_SPEEDUP_8 = 6.4


# ---------------------------------------------------------------------------
# [P] host time by layer


OTHER = "host.other_frac"

#: the ``*.host_frac`` metric that pays for each package of ``repro``;
#: packages not named (core, program, io, common, apps, ...) are OTHER
_PACKAGE_FRAC = {
    "serde": "serde.host_frac", "messages": "messages.host_frac",
    "sim": "sim.host_frac", "net": "net.host_frac",
    "security": "sec.host_frac", "sched": "sched.host_frac",
    "cluster": "cluster.host_frac", "code": "code.host_frac",
    "memory": "mem.host_frac", "proc": "proc.host_frac",
    "crash": "crash.host_frac", "chaos": "crash.host_frac",
    "trace": "trace.host_frac", "runtime": "live.host_frac",
}

#: ``site`` is split by file: the kernel and its CpuModel, the message
#: manager and the security manager are layers of their own
_SITE_FRAC = {
    "kernel.py": "cpu.host_frac", "sim_kernel.py": "cpu.host_frac",
    "message_manager.py": "msg.host_frac",
    "security_manager.py": "sec.host_frac",
}

#: live-kernel threads by the prefix of their name -> the metric that
#: pays for their CPU.  Reactor and timer threads run every manager's
#: handlers, so on the live kernel ``live`` includes serde, security and
#: memory work: CPython 3.11 cannot walk another thread's frames safely
#: (a sampler that did segfaulted), so those threads are billed whole.
_THREAD_FRAC = (
    ("sdvm-reactor-", "live.host_frac"), ("sdvm-timer-", "live.host_frac"),
    ("sdvm-accept-", "net.host_frac"), ("sdvm-read-", "net.host_frac"),
    ("sdvm-write-", "net.host_frac"), ("sdvm-monitor-", "net.host_frac"),
    ("sdvm-keepalive-", "net.host_frac"), ("sdvm-exec-", "proc.host_frac"),
)


def _owner_of_file(relative: str) -> str:
    """The metric that owns one source file, given below ``repro/``."""
    package, _, rest = relative.partition("/")
    if package == "site":
        return _SITE_FRAC.get(rest, OTHER)
    return _PACKAGE_FRAC.get(package, OTHER)


def _thread_cpu_ns() -> Dict[int, Tuple[str, int]]:
    """tid -> (name, on-CPU ns so far) of every thread but the caller."""
    out = {}
    for thread in threading.enumerate():
        tid = thread.native_id
        if tid is None or thread is threading.current_thread():
            continue
        try:
            with open(f"/proc/self/task/{tid}/schedstat", "rb") as fh:
                out[tid] = (thread.name, int(fh.read().split()[0]))
        except (OSError, IndexError, ValueError):
            pass  # the thread ended between enumerate() and here
    return out


class CpuLedger:
    """Splits the process's CPU time over the ``*.host_frac`` buckets.

    The calling (main) thread is sampled: ``ITIMER_PROF`` interrupts it
    every ``interval`` seconds of CPU, and the handler charges the
    innermost ``repro`` frame on the interrupted stack — so builtins and
    stdlib calls are paid by the package that made them.  The sim runs
    entirely on that thread.  Every other thread is billed whole, by
    name (``_THREAD_FRAC``), from its on-CPU nanoseconds in
    ``/proc/self/task/<tid>/schedstat``.  CPU of threads that no longer
    exist at :meth:`stop` is charged to ``proc``: the only threads this
    runtime starts and ends mid-run are its per-microthread workers.
    """

    def __init__(self, src_root: str, interval: float = 0.005) -> None:
        self._prefix = os.path.join(os.path.realpath(src_root), "repro", "")
        self._interval = interval
        self._owners: Dict[str, str] = {}
        self._samples: Dict[str, int] = {}

    def _sample(self, _signum: int, frame) -> None:  # noqa: ANN001
        owner = OTHER
        while frame is not None:
            filename = frame.f_code.co_filename
            found = self._owners.get(filename)
            if found is None:
                found = ""
                if filename.startswith(self._prefix):
                    found = _owner_of_file(filename[len(self._prefix):])
                self._owners[filename] = found
            if found:
                owner = found
                break
            frame = frame.f_back
        self._samples[owner] = self._samples.get(owner, 0) + 1

    def start(self) -> None:
        self._threads = _thread_cpu_ns()
        self._process_ns = time.process_time_ns()
        self._main_ns = time.thread_time_ns()
        self._handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self._interval, self._interval)

    def stop(self) -> Dict[str, float]:
        """Stop billing; returns every ``HOST_FRACS`` share, summing to 1."""
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._handler)
        main_ns = time.thread_time_ns() - self._main_ns
        total_ns = time.process_time_ns() - self._process_ns
        bill: Dict[str, float] = {}
        for tid, (name, used) in _thread_cpu_ns().items():
            owner = next((metric for prefix, metric in _THREAD_FRAC
                          if name.startswith(prefix)), OTHER)
            started = self._threads.get(tid, (name, 0))[1]
            bill[owner] = bill.get(owner, 0.0) + used - started
        samples = self._samples or {OTHER: 1}
        for owner, count in samples.items():
            bill[owner] = (bill.get(owner, 0.0)
                           + main_ns * count / sum(samples.values()))
        bill["proc.host_frac"] = (bill.get("proc.host_frac", 0.0)
                                  + max(total_ns - sum(bill.values()), 0.0))
        total = sum(bill.values())
        return {name: bill.get(name, 0.0) / total for name in HOST_FRACS}


# ---------------------------------------------------------------------------
# [C] counters and reports of a finished cluster


def counters(cluster, host_s: float, events_in_run: int) -> Dict[str, float]:  # noqa: ANN001
    """Per-layer numbers any finished Sim- or LiveCluster can report."""
    report = cluster.cluster_report()
    merged, derived = report.merged, report.derived

    def count(name: str) -> float:
        return float(merged.get(name).count)

    sent = count("sent")
    executions = count("executions")
    out = {
        "serde.avg_envelope_bytes":
            merged.get("bytes_sent").total / sent if sent else 0.0,
        "msg.sent": sent,
        "msg.local": count("local_messages"),
        "msg.bytes_sent": merged.get("bytes_sent").total,
        "msg.request_timeouts": count("request_timeouts"),
        "sched.help_sent": count("help_sent"),
        "sched.steal_success_rate": derived["steal_success_rate"],
        "sched.steals_in": count("steals_in"),
        "sched.help_timeouts": count("help_timeouts"),
        "sched.frames_pushed": count("frames_pushed"),
        "sched.gossip_sent": count("gossip_sent"),
        "sched.gossip_msg_frac": count("gossip_sent") / sent if sent else 0.0,
        "code.hit_rate": derived["code_hit_rate"],
        "mem.reads_remote": count("reads_remote"),
        "mem.migrations_in": count("migrations_in"),
        "mem.dir_updates_sent": count("dir_updates_sent"),
        "proc.executions": executions,
        "proc.work_units": merged.get("work_units").total,
        "proc.exec_per_host_s": executions / host_s,
        "crash.waves_committed": float(derived["checkpoint_waves"]),
        "crash.wave_mean_virtual_s": derived["wave_mean_seconds"],
        "crash.recoveries": float(derived["recoveries"]),
        "trace.journal_entries":
            float(len(cluster.tracer)) if cluster.tracer is not None else 0.0,
        "sec.sealed": float(sum(site.security_manager.layer.messages_sealed
                                for site in cluster.sites)),
        "sec.bytes": float(sum(site.security_manager.layer.bytes_processed
                               for site in cluster.sites)),
    }
    if hasattr(cluster, "sim"):
        cpu = cluster.cpu_report().values()
        busy = sum(row["busy"] for row in cpu)
        net = cluster.network_stats()
        out.update({
            "sim.events": float(cluster.sim.events_executed),
            "sim.events_per_host_s": events_in_run / host_s,
            "cpu.busy_frac": derived.get("busy_fraction_mean", 0.0),
            "cpu.overhead_frac":
                sum(row["overhead"] for row in cpu) / busy if busy else 0.0,
            "net.delivered": float(net.get("delivered").count),
            "net.dropped_dead_dst": float(net.get("dropped_dead_dst").count),
        })
    else:
        tcp = [site.kernel.transport_stats() for site in cluster.sites]

        def total(name: str) -> float:
            return float(sum(row.get(name, 0.0) for row in tcp))

        out.update({
            "tcp.frames_sent": total("frames_sent"),
            "tcp.bytes_sent": total("bytes_sent"),
            "tcp.send_retries": total("send_retries"),
            "tcp.dead_letters": total("dead_letters"),
            "tcp.queue_depth_peak": float(max(
                row.get("send_queue_depth_peak", 0.0) for row in tcp)),
        })
    return out


def blame_fracs(cluster) -> Dict[str, float]:  # noqa: ANN001
    """[B] share of cluster kernel-seconds by cause, from the journal."""
    from repro.trace.blame import blame_cluster
    report = blame_cluster(cluster)
    denom = report.cluster_seconds or 1.0
    return {f"blame.{category}_frac": seconds / denom
            for category, seconds in report.totals.items()}


# ---------------------------------------------------------------------------
# [R] replay of captured envelopes


def _timed(span: Callable, name: str, fn: Callable[[], object]) -> float:
    """Seconds ``fn`` took, recorded as the span ``name``."""
    with span(name) as row:
        fn()
    return row["end"] - row["start"]


class EnvelopeTap:
    """Keeps the first ``limit`` envelopes a transport class sends.

    Patched onto the class, not an instance, because ``run_plan`` builds
    its cluster internally; the process is a throwaway child, so nothing
    else sees the patch.
    """

    def __init__(self, transport_class, limit: int = 20000) -> None:  # noqa: ANN001
        self.corpus: List[Tuple[str, bytes]] = []
        inner = transport_class.send
        corpus = self.corpus

        def send(transport, *args):  # noqa: ANN001, ANN202
            if len(corpus) < limit:
                corpus.append((str(args[-2]), args[-1]))
            return inner(transport, *args)

        transport_class.send = send


#: real seal/open is a pure-Python XOR at 4-9 MB/s; a slice of the
#: corpus gives a stable rate without adding seconds to the traced run
_CRYPTO_REPLAY_MAX = 3000


def replay(corpus: List[Tuple[str, bytes]], security, span: Callable,  # noqa: ANN001
           ) -> Dict[str, float]:
    """Push one workload's own envelopes through each wire layer."""
    from repro.messages.message import SDMessage
    from repro.security.layer import SecurityLayer
    from repro.serde import FrameDecoder, dumps, frame, loads

    def timed(name: str, fn: Callable[[], object]) -> float:
        return _timed(span, f"replay:{name}", fn)

    # the receiver's own layer opens each envelope: pairwise keys derive
    # from the password and the two addresses, so no live state is needed
    openers: Dict[str, SecurityLayer] = {}
    payloads: List[bytes] = []

    def unprotect() -> None:
        for dst, envelope in corpus:
            layer = openers.get(dst)
            if layer is None:
                layer = openers[dst] = SecurityLayer(
                    dst, security.enabled, security.cluster_password)
            payloads.append(layer.unprotect(envelope)[1])

    timed("unprotect", unprotect)
    n = len(payloads)
    nbytes = sum(len(p) for p in payloads)
    messages: List[SDMessage] = []
    objects: List[object] = []
    t_decode = timed("decode", lambda: messages.extend(
        SDMessage.decode(p) for p in payloads))

    def encode() -> None:
        for msg in messages:
            msg.invalidate_wire()
            msg.encode()

    t_encode = timed("encode", encode)
    t_loads = timed("loads", lambda: objects.extend(
        loads(p) for p in payloads))
    t_dumps = timed("dumps", lambda: [dumps(obj) for obj in objects])

    def frames() -> None:
        decoder = FrameDecoder()
        for payload in payloads:
            for _ in decoder.feed(frame(payload)):
                pass

    t_frame = timed("frame", frames)

    alice = SecurityLayer("10.0.0.1:1", True, security.cluster_password)
    bob = SecurityLayer("10.0.0.2:1", True, security.cluster_password)
    plain = payloads[:_CRYPTO_REPLAY_MAX]
    plain_mb = sum(len(p) for p in plain) / 1e6
    sealed: List[bytes] = []
    t_seal = timed("seal", lambda: sealed.extend(
        alice.protect(bob.local_addr, p) for p in plain))
    t_open = timed("open", lambda: [bob.unprotect(e) for e in sealed])
    return {
        "messages.decode_per_s": n / t_decode,
        "messages.encode_per_s": n / t_encode,
        "serde.loads_per_s": n / t_loads,
        "serde.loads_mb_per_s": nbytes / 1e6 / t_loads,
        "serde.dumps_per_s": n / t_dumps,
        "serde.frame_roundtrip_per_s": n / t_frame,
        "sec.seal_mb_per_s": plain_mb / t_seal,
        "sec.open_mb_per_s": plain_mb / t_open,
    }


# ---------------------------------------------------------------------------
# [D] isolated drivers


def calibration_loop() -> float:
    """A fixed pure-Python loop: how fast is this box, this minute?

    Recorded beside the results and never used to normalise them.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - start


def drivers(span: Callable, scale: int = 1) -> Dict[str, float]:  # noqa: ANN001
    """One number per mechanism with nothing else running around it."""
    from repro.sim.engine import Simulator
    from repro.site.kernel import CpuModel
    from repro.trace.tracer import Tracer

    def timed(name: str, fn: Callable[[], object]) -> float:
        return _timed(span, f"driver:{name}", fn)

    out = {"host.calib_s": timed("calib", calibration_loop)}

    n_events = 200_000 // scale
    sim = Simulator()
    for i in range(n_events):
        sim.schedule(i * 1e-6, _noop)
    out["sim.noop_events_per_s"] = n_events / timed("sim", sim.run)

    n_jobs = 100_000 // scale
    sim = Simulator()
    cpu = CpuModel(sim, 1.0)

    def admit() -> None:
        for _ in range(n_jobs):
            cpu.run(1e-6, _noop)
        sim.run()

    out["cpu.admits_per_s"] = n_jobs / timed("cpu", admit)

    n_emits = 500_000 // scale
    tracer = Tracer()

    def emit() -> None:
        for i in range(n_emits):
            tracer.emit(i * 1e-6, 0, "msg_send", "PING", 1, 64, i, -1, -1)

    out["trace.emit_per_s"] = n_emits / timed("trace", emit)
    out.update(_tcp_loopback(timed, 20_000 // scale, 500 // scale))
    return out


def _noop() -> None:
    pass


def _tcp_loopback(timed: Callable, n_stream: int, n_rtt: int,  # noqa: ANN001
                  ) -> Dict[str, float]:
    """Two TcpTransports on 127.0.0.1, 256 B frames: stream, then ping."""
    from repro.net.tcp import TcpTransport

    payload = b"x" * 256
    got = threading.Semaphore(0)
    near = TcpTransport(lambda data: got.release())
    near_addr = near.local_address()
    echo = TcpTransport(lambda data: echo.send(near_addr, data))
    sink_count = [0]
    done = threading.Event()

    def on_sink(_data: bytes) -> None:
        sink_count[0] += 1
        if sink_count[0] == n_stream:
            done.set()

    sink = TcpTransport(on_sink)
    try:
        def stream() -> None:
            dst = sink.local_address()
            for _ in range(n_stream):
                # a full peer queue is backpressure, not failure: wait
                while not near.send(dst, payload):
                    time.sleep(0.0005)
            if not done.wait(30.0):
                raise RuntimeError("tcp loopback stream did not drain")

        t_stream = timed("tcp_stream", stream)
        rtts: List[float] = []

        def ping() -> None:
            dst = echo.local_address()
            for _ in range(n_rtt):
                start = time.perf_counter()
                near.send(dst, payload)
                if not got.acquire(timeout=10.0):
                    raise RuntimeError("tcp loopback echo lost")
                rtts.append(time.perf_counter() - start)

        timed("tcp_ping", ping)
    finally:
        for transport in (near, echo, sink):
            transport.close()
    return {"tcp.loopback_frames_per_s": n_stream / t_stream,
            "tcp.loopback_rtt_p50_us": statistics.median(rtts) * 1e6}


def iter_should_move() -> Iterable[Tuple[str, str, str]]:
    """(per-layer metric, end-to-end metric, workload) for every claim."""
    for name, _unit, _better, _layer, _source, moves in PER_LAYER:
        for move in moves:
            metric, _, workload = move.partition("@")
            yield name, metric, workload
