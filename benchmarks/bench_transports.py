"""Experiment E5 — transport protocols: TCP vs T/TCP vs UDP (§4).

"Currently, the SDVM is based on TCP.  UDP was tested, too.  However, it
proved not usable at the current expansion stage [loss + reordering] ...
As the SDVM's network topology will probably result in many connections
between various sites, and each sending small packets only, TCP shows too
much overhead ... so T/TCP was proposed for applications like the SDVM."

Reproduced shape: T/TCP completes fastest (no handshake), TCP completes but
slower, UDP either loses protocol messages and stalls the program or — at
0 % loss — still reorders without harming this protocol (our managers are
request/reply-correlated, so pure reordering is survivable; loss is not).
"""

from __future__ import annotations

import socket
import threading
import time

from repro.apps import build_primes_program, first_n_primes
from repro.bench import calibrated_test_params, render_table
from repro.bench.harness import bench_config
from repro.common.config import NetworkConfig
from repro.net.tcp import TcpTransport
from repro.serde.framing import frame
from repro.site.simcluster import SimCluster

from bench_util import write_result

P, WIDTH, SITES = 100, 10, 4
#: generous virtual deadline — a healthy run takes well under a second
DEADLINE = 120.0


def run_transport(transport: str, loss: float = 0.0) -> dict:
    # "each sending small packets only, TCP shows too much overhead": the
    # comparison uses a fine-grained (communication-dominated) workload and
    # the paper's many-short-connections regime (no connection reuse)
    config = bench_config(network=NetworkConfig(
        transport=transport,
        udp_loss_rate=loss,
        udp_reorder_rate=0.05 if transport == "udp" else 0.0,
        tcp_connection_reuse=0.0,
    ))
    scale, base = calibrated_test_params(P, WIDTH)
    scale, base = scale / 200.0, base / 200.0  # message-heavy regime
    cluster = SimCluster(nsites=SITES, config=config)
    handle = cluster.submit(build_primes_program(),
                            args=(P, WIDTH, scale, base))
    try:
        cluster.run(until=DEADLINE, raise_on_failure=False)
    except Exception:  # noqa: BLE001 — stalls show up as no-progress
        pass
    net = cluster.network_stats()
    return {
        "completed": handle.done and handle.result == first_n_primes(P),
        "duration": handle.duration if handle.done else float("inf"),
        "lost": net.get("udp_lost").count,
        "reordered": net.get("udp_reordered").count,
    }


def test_transports(benchmark):
    results = {}

    def sweep():
        results["tcp"] = run_transport("tcp")
        results["ttcp"] = run_transport("ttcp")
        results["udp (1% loss)"] = run_transport("udp", loss=0.01)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for name, r in results.items():
        rows.append([
            name,
            "yes" if r["completed"] else "NO (stalled)",
            f"{r['duration']:.2f}s" if r["completed"] else f">{DEADLINE}s",
            r["lost"], r["reordered"],
        ])
    write_result("transports", render_table(
        "E5: transport comparison (primes p=100 w=10, 4 sites)",
        ["transport", "completed", "duration", "msgs lost", "reordered"],
        rows))

    assert results["tcp"]["completed"]
    assert results["ttcp"]["completed"]
    # T/TCP's single-packet transactions beat TCP's handshakes
    assert results["ttcp"]["duration"] < results["tcp"]["duration"]
    # plain UDP loses messages and the program never finishes (§4:
    # "not viable at present")
    assert results["udp (1% loss)"]["lost"] > 0
    assert not results["udp (1% loss)"]["completed"]
    benchmark.extra_info["ttcp_speedup_vs_tcp"] = round(
        results["tcp"]["duration"] / results["ttcp"]["duration"], 3)


# ----------------------------------------------------------------------
# live runtime: queued-writer reliability layer vs the old direct path


FRAMES, PAYLOAD = 5000, 256
PINGS = 200


class _DirectSender:
    """The pre-reliability send path: one cached socket, ``sendall``
    called inline on the caller's thread (no queue, no retry — and no
    write serialization, so only safe single-threaded)."""

    def __init__(self, dst: str) -> None:
        host, _, port = dst.rpartition(":")
        self.sock = socket.create_connection((host, int(port)))

    def send(self, data: bytes) -> None:
        self.sock.sendall(frame(data))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _CountingSink:
    def __init__(self, target: int) -> None:
        self.target = target
        self.count = 0
        self.done = threading.Event()

    def __call__(self, data: bytes) -> None:
        self.count += 1
        if self.count >= self.target:
            self.done.set()

    def rearm(self, target: int) -> None:
        self.count, self.target = 0, target
        self.done.clear()


def _throughput(send, sink: _CountingSink, threads: int) -> float:
    """Wall time to deliver FRAMES frames of PAYLOAD bytes end to end."""
    sink.rearm(FRAMES)
    payload = b"x" * PAYLOAD
    per_thread = FRAMES // threads

    def pump() -> None:
        for _ in range(per_thread):
            send(payload)

    start = time.perf_counter()
    if threads == 1:
        pump()
    else:
        workers = [threading.Thread(target=pump) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    assert sink.done.wait(60.0), "receiver starved"
    return time.perf_counter() - start


def _latency(send, sink: _CountingSink, pings: int = PINGS) -> float:
    """Mean one-way send-to-receiver-callback time, unloaded queue."""
    total = 0.0
    for i in range(pings):
        sink.rearm(1)
        start = time.perf_counter()
        send(b"ping")
        assert sink.done.wait(10.0)
        total += time.perf_counter() - start
    return total / pings


def test_live_tcp_queued_writer_vs_direct(benchmark):
    """The reliability layer's cost: ``TcpTransport.send`` (caller-thread
    fast path, per-peer queue + writer thread behind it) vs a bare inline
    ``sendall``, same loopback socket, same framing."""
    limit = FRAMES + 64
    results = {}

    def sweep():
        sink = _CountingSink(1)
        server = TcpTransport(sink, send_queue_limit=limit)
        dst = server.local_address()

        direct = _DirectSender(dst)
        try:
            results["direct 1thr"] = {
                "secs": _throughput(direct.send, sink, threads=1),
                "lat": _latency(direct.send, sink), "threads": 1}
        finally:
            direct.close()

        client = TcpTransport(lambda d: None, send_queue_limit=limit)
        try:
            ok = lambda data: client.send(dst, data)  # noqa: E731
            # connect before the clock starts, as _DirectSender does, and
            # give the writer thread a moment to retire that first frame
            _latency(ok, sink, pings=1)
            time.sleep(0.05)
            inline = client.stats["inline_sends"]
            results["transport 1thr"] = {
                "secs": _throughput(ok, sink, threads=1),
                "lat": _latency(ok, sink), "threads": 1,
                "inline": inline.count}
            results["transport 8thr"] = {
                "secs": _throughput(ok, sink, threads=8),
                "lat": None, "threads": 8,
                "inline": inline.count - results["transport 1thr"]["inline"]}
            results["dead_letters"] = client.stats.get("dead_letters").total
        finally:
            client.close()
            server.close()

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for name in ("direct 1thr", "transport 1thr", "transport 8thr"):
        r = results[name]
        lat = f"{r['lat'] * 1e6:.0f}us" if r["lat"] is not None else "-"
        # share of the timed frames (throughput + latency pings) that the
        # sending thread wrote itself; the rest went through the writer
        sends = FRAMES + (PINGS if r["lat"] is not None else 0)
        inline = f"{r['inline'] / sends:.0%}" if "inline" in r else "-"
        rows.append([name, r["threads"], f"{FRAMES / r['secs']:,.0f}/s",
                     lat, inline])
    write_result("live_tcp_reliability", render_table(
        f"Live TCP: TcpTransport.send vs direct sendall "
        f"({FRAMES} x {PAYLOAD}B frames, loopback)",
        ["send path", "threads", "throughput", "one-way latency",
         "sent inline"],
        rows))

    assert results["dead_letters"] == 0
    # One sender on a healthy connection writes the frame itself, so what
    # the reliability layer costs is Python bookkeeping, not a thread hop:
    # a lock, the queue and three locked counters, about 4 us on a 2 us
    # syscall.  Measured 2.6-3.3x direct (4.5x with the hop) and latency
    # at parity; with the counters stubbed out it is still 2.0x, so the
    # bound below is what a run on a busy box holds, not the target.
    assert (results["transport 1thr"]["secs"]
            < results["direct 1thr"]["secs"] * 4)
    assert results["transport 1thr"]["inline"] >= 0.9 * (FRAMES + PINGS)
    benchmark.extra_info["transport_vs_direct_slowdown"] = round(
        results["transport 1thr"]["secs"] / results["direct 1thr"]["secs"],
        3)
    benchmark.extra_info["transport_8thr_throughput"] = round(
        FRAMES / results["transport 8thr"]["secs"], 1)
