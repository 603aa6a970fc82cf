"""Fault injection for the live TCP transport's reliability layer.

A small TCP proxy (drop/partition on command) plus direct socket abuse
exercise the failure modes the reliable messaging layer exists for:
concurrent writers, peer restarts, partitions, corrupt streams, idle-peer
death, and shutdown leaks.  Every test runs under a hard watchdog so a hung
socket fails CI instead of wedging it.
"""

from __future__ import annotations

import faulthandler
import socket
import sys
import threading
import time
from dataclasses import replace
from typing import Callable, List, Optional, Set, Tuple

import pytest

from repro.common.config import LiveTransportConfig, SDVMConfig
from repro.net.tcp import TcpTransport
from repro.serde.framing import frame

#: fast-failure knobs: suspicion after 2 misses, dead letters after 4
FAST = LiveTransportConfig(
    connect_timeout=0.5, retry_budget=4, backoff_initial=0.02,
    backoff_max=0.1, heartbeat_misses=2)

WATCHDOG_SECONDS = 60.0


@pytest.fixture(autouse=True)
def _watchdog():
    """Hard per-test timeout: dump all stacks and kill the process rather
    than letting a stuck recv/accept wedge the tier-1 run."""
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _parse(addr: str) -> Tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host, int(port)


def _wait_until(predicate: Callable[[], bool], timeout: float = 10.0,
                message: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(f"timed out waiting for {message}")


class Collector:
    """Thread-safe frame sink with an arrival event."""

    def __init__(self) -> None:
        self.frames: List[bytes] = []
        self._lock = threading.Lock()

    def __call__(self, data: bytes) -> None:
        with self._lock:
            self.frames.append(data)

    def snapshot(self) -> List[bytes]:
        with self._lock:
            return list(self.frames)


class FlakyProxy:
    """TCP proxy whose link can be severed (connections killed, listener
    closed so new connects are refused) and later healed on the same port."""

    def __init__(self, backend_addr: str) -> None:
        self._backend = _parse(backend_addr)
        self._lock = threading.Lock()
        self._conns: Set[socket.socket] = set()
        self._listener: Optional[socket.socket] = None
        self._port = 0
        self._closed = False
        self._open_listener()
        self.address = f"127.0.0.1:{self._port}"

    def _open_listener(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", self._port))
        listener.listen(16)
        self._port = listener.getsockname()[1]
        self._listener = listener
        threading.Thread(target=self._accept_loop, args=(listener,),
                         daemon=True).start()

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            try:
                backend = socket.create_connection(self._backend, timeout=2.0)
            except OSError:
                conn.close()
                continue
            with self._lock:
                self._conns.update((conn, backend))
            threading.Thread(target=self._pump, args=(conn, backend),
                             daemon=True).start()
            threading.Thread(target=self._pump, args=(backend, conn),
                             daemon=True).start()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        finally:
            # sever, don't just close: the twin pump thread is blocked in
            # recv on ``dst`` — a plain close would strand it (and swallow
            # the FIN the far side is waiting for)
            self._sever(src)
            self._sever(dst)

    @staticmethod
    def _sever(sock: socket.socket) -> None:
        # shutdown first: a plain close while a pump/accept thread is
        # blocked in recv/accept leaves the kernel socket alive (no FIN,
        # port still listening), so the cut would go unnoticed
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def partition(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            self._sever(listener)
        with self._lock:
            conns, self._conns = list(self._conns), set()
        for sock in conns:
            self._sever(sock)

    def heal(self) -> None:
        if self._listener is None and not self._closed:
            self._open_listener()

    def close(self) -> None:
        self._closed = True
        self.partition()


# ----------------------------------------------------------------------
# concurrent writers: frames must never interleave on the stream


def test_multithreaded_send_every_frame_decodes_intact():
    """8+ writer threads hammering one peer; the single queue-drain writer
    must serialize frames so every one decodes at the receiver."""
    threads_n, frames_n = 8, 150
    sink = Collector()
    server = TcpTransport(sink, config=FAST)
    # queue limit must exceed threads_n * frames_n: this test asserts zero
    # backpressure drops, it is not a backpressure test
    roomy = replace(FAST, send_queue_limit=threads_n * frames_n + 64)
    client = TcpTransport(lambda d: None, config=roomy)
    expected = {
        f"{tid}:{i}:".encode() + bytes([tid]) * (64 + i % 32)
        for tid in range(threads_n) for i in range(frames_n)
    }
    try:
        dst = server.local_address()

        def hammer(tid: int) -> None:
            for i in range(frames_n):
                payload = (f"{tid}:{i}:".encode()
                           + bytes([tid]) * (64 + i % 32))
                assert client.send(dst, payload)

        workers = [threading.Thread(target=hammer, args=(tid,))
                   for tid in range(threads_n)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=20)
        _wait_until(lambda: len(sink.snapshot()) >= threads_n * frames_n,
                    timeout=30, message="all frames to arrive")
        received = sink.snapshot()
        assert len(received) == threads_n * frames_n
        assert set(received) == expected  # intact, no interleaving
        assert client.stats.get("dead_letters").total == 0
    finally:
        client.close()
        server.close()


# ----------------------------------------------------------------------
# peer restart: stale connections retried, queued backlog flushes


def test_peer_restart_queued_messages_flush_in_order():
    sink1 = Collector()
    server = TcpTransport(sink1, config=FAST)
    host, port = _parse(server.local_address())
    # generous budget so the backlog survives until the peer returns
    patient = LiveTransportConfig(
        connect_timeout=0.5, retry_budget=30, backoff_initial=0.02,
        backoff_max=0.1, heartbeat_misses=3)
    client = TcpTransport(lambda d: None, config=patient)
    dst = f"{host}:{port}"
    server2 = None
    try:
        assert client.send(dst, b"before")
        _wait_until(lambda: sink1.snapshot() == [b"before"],
                    message="first frame")
        server.close()
        # the EOF monitor notices the dead connection; once the listener is
        # gone, connect attempts are refused and the batch piles up queued
        _wait_until(
            lambda: client.stats.get("stale_connections").count >= 1,
            message="stale connection detected")
        batch = [f"during-{i}".encode() for i in range(20)]
        for payload in batch:
            assert client.send(dst, payload)
        sink2 = Collector()
        server2 = TcpTransport(sink2, host=host, port=port, config=FAST)
        _wait_until(lambda: len(sink2.snapshot()) >= len(batch),
                    timeout=20, message="backlog to flush after restart")
        assert sink2.snapshot() == batch  # intact AND in send order
        assert client.stats.get("dead_letters").total == 0
    finally:
        client.close()
        server.close()
        if server2 is not None:
            server2.close()


def test_first_message_after_peer_restart_not_lost():
    """Regression: a stale cached connection used to make the first send
    after a peer restart fail silently; the writer must reconnect."""
    sink1 = Collector()
    server = TcpTransport(sink1, config=FAST)
    host, port = _parse(server.local_address())
    client = TcpTransport(lambda d: None, config=FAST)
    dst = f"{host}:{port}"
    server2 = None
    try:
        assert client.send(dst, b"m1")
        _wait_until(lambda: sink1.snapshot() == [b"m1"], message="m1")
        server.close()
        sink2 = Collector()
        server2 = TcpTransport(sink2, host=host, port=port, config=FAST)
        _wait_until(
            lambda: client.stats.get("stale_connections").count >= 1,
            message="stale connection detected")
        assert client.send(dst, b"m2")
        _wait_until(lambda: sink2.snapshot() == [b"m2"], message="m2")
        assert client.stats.get("dead_letters").total == 0
    finally:
        client.close()
        server.close()
        if server2 is not None:
            server2.close()


# ----------------------------------------------------------------------
# partition: dead letters, peer-down report, recovery after heal


def test_partition_dead_letters_then_recovers_after_heal():
    sink = Collector()
    backend = TcpTransport(sink, config=FAST)
    proxy = FlakyProxy(backend.local_address())
    down: List[str] = []
    client = TcpTransport(lambda d: None, config=FAST)
    client.on_peer_down = down.append
    try:
        assert client.send(proxy.address, b"healthy")
        _wait_until(lambda: sink.snapshot() == [b"healthy"],
                    message="pre-partition frame")
        proxy.partition()
        _wait_until(
            lambda: client.stats.get("stale_connections").count >= 1,
            message="severed connection noticed")
        assert client.send(proxy.address, b"doomed")
        _wait_until(lambda: client.stats.get("dead_letters").total >= 1,
                    message="dead letter accounting")
        assert down == [proxy.address]
        assert client.stats.get("peers_suspected").count == 1
        assert client.stats.get("send_retries").count >= FAST.retry_budget
        proxy.heal()
        assert client.send(proxy.address, b"revived")
        _wait_until(lambda: b"revived" in sink.snapshot(),
                    message="post-heal frame")
        assert client.stats.get("peers_recovered").count == 1
    finally:
        client.close()
        proxy.close()
        backend.close()


# ----------------------------------------------------------------------
# keepalive failure detector: idle peers still get death noticed


def test_heartbeat_suspects_idle_dead_peer():
    config = LiveTransportConfig(
        connect_timeout=0.5, retry_budget=3, backoff_initial=0.02,
        backoff_max=0.05, heartbeat_interval=0.05, heartbeat_misses=2)
    sink = Collector()
    server = TcpTransport(sink, config=FAST)
    down = threading.Event()
    client = TcpTransport(lambda d: None, config=config)
    client.on_peer_down = lambda addr: down.set()
    try:
        assert client.send(server.local_address(), b"hello")
        _wait_until(lambda: sink.snapshot() == [b"hello"], message="hello")
        _wait_until(lambda: client.stats.get("keepalives_sent").count >= 1,
                    message="keepalives flowing")
        assert server.stats.get("corrupt_stream").count == 0
        server.close()
        # no application traffic: only keepalives can notice the death
        assert down.wait(10.0), "failure detector never fired"
        assert client.stats.get("peers_suspected").count >= 1
    finally:
        client.close()
        server.close()


def test_keepalives_filtered_from_receiver():
    config = LiveTransportConfig(
        connect_timeout=0.5, retry_budget=3, backoff_initial=0.02,
        backoff_max=0.05, heartbeat_interval=0.03, heartbeat_misses=2)
    sink = Collector()
    server = TcpTransport(sink, config=FAST)
    client = TcpTransport(lambda d: None, config=config)
    try:
        assert client.send(server.local_address(), b"real")
        _wait_until(
            lambda: server.stats.get("keepalives_received").count >= 3,
            message="keepalives received")
        assert sink.snapshot() == [b"real"]  # pings never reach the app
    finally:
        client.close()
        server.close()


# ----------------------------------------------------------------------
# corrupt stream: reader survives, counts, and drops the connection


def test_corrupt_length_prefix_closes_connection_not_listener():
    sink = Collector()
    server = TcpTransport(sink, config=FAST)
    host, port = _parse(server.local_address())
    evil = socket.create_connection((host, port), timeout=2.0)
    evil.settimeout(5.0)
    try:
        evil.sendall(frame(b"good"))
        _wait_until(lambda: sink.snapshot() == [b"good"], message="good frame")
        evil.sendall(b"\xff\xff\xff\xff garbage beyond any MAX_FRAME_SIZE")
        _wait_until(lambda: server.stats.get("corrupt_stream").count == 1,
                    message="corrupt stream counted")
        assert evil.recv(4096) == b""  # server closed the poisoned stream
        # the listener is fine: a clean client still gets through
        client = TcpTransport(lambda d: None, config=FAST)
        try:
            assert client.send(server.local_address(), b"still-alive")
            _wait_until(lambda: b"still-alive" in sink.snapshot(),
                        message="post-corruption frame")
        finally:
            client.close()
    finally:
        evil.close()
        server.close()


# ----------------------------------------------------------------------
# shutdown: accepted connections are tracked and reaped


def test_close_reaps_accepted_connections():
    sink = Collector()
    server = TcpTransport(sink, config=FAST)
    host, port = _parse(server.local_address())
    inbound = socket.create_connection((host, port), timeout=2.0)
    inbound.settimeout(5.0)
    try:
        inbound.sendall(frame(b"ping"))
        _wait_until(lambda: sink.snapshot() == [b"ping"], message="ping")
        server.close()
        # before tracking, the reader thread lingered in recv and this
        # would block until the watchdog killed the test
        assert inbound.recv(4096) == b""
    finally:
        inbound.close()


def test_send_after_close_fails_fast():
    server = TcpTransport(lambda d: None, config=FAST)
    addr = server.local_address()
    client = TcpTransport(lambda d: None, config=FAST)
    client.close()
    assert client.send(addr, b"x") is False
    server.close()


def test_send_queue_backpressure():
    config = LiveTransportConfig(
        connect_timeout=0.2, retry_budget=30, backoff_initial=0.2,
        backoff_max=0.5, heartbeat_misses=30, send_queue_limit=4)
    client = TcpTransport(lambda d: None, config=config)
    try:
        # unreachable peer: the writer parks in backoff, the queue fills
        accepted = [client.send("127.0.0.1:1", b"x") for _ in range(20)]
        assert not all(accepted)
        assert client.stats.get("queue_full_drops").count >= 1
    finally:
        client.close()


# ----------------------------------------------------------------------
# acceptance: a live two-site cluster notices real socket death


def test_live_cluster_transport_death_reaches_crash_manager():
    from repro.common.config import CostModel
    from repro.runtime.live_cluster import LiveCluster

    config = SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-4),
        live_transport=LiveTransportConfig(
            connect_timeout=0.5, retry_budget=4, backoff_initial=0.02,
            backoff_max=0.1, heartbeat_interval=0.05, heartbeat_misses=2))
    with LiveCluster(nsites=2, config=config, transport="tcp") as cluster:
        survivor, victim = cluster.sites
        victim_id = victim.site_id
        cluster.crash_site(1)
        kernel = survivor.kernel

        def victim_marked_dead() -> bool:
            def check() -> bool:
                record = survivor.cluster_manager.sites.get(victim_id)
                return record is not None and not record.alive
            return kernel.reactor_call(check)

        _wait_until(victim_marked_dead, timeout=20,
                    message="transport suspicion to mark the victim dead")
        stats = kernel.reactor_call(
            lambda: (survivor.cluster_manager.stats.get(
                         "transport_suspicions").count,
                     survivor.crash_manager.stats.get(
                         "crashes_observed").count))
        assert stats[0] >= 1
        assert stats[1] >= 1
        log = "\n".join(survivor.log_lines)
        assert "transport suspects site" in log
        assert "suspecting site" in log  # the crash manager's own line


# ----------------------------------------------------------------------
# fast path: the sending thread writes the frame itself when it may


def test_fast_path_concurrent_senders_keep_per_thread_order():
    """8 sender threads x 500 numbered frames to one peer, most of them
    written inline by their own thread: every frame arrives whole, and
    each thread's frames arrive in the order that thread sent them."""
    threads_n, frames_n = 8, 500
    sink = Collector()
    server = TcpTransport(sink, config=FAST)
    roomy = replace(FAST, send_queue_limit=threads_n * frames_n + 64)
    client = TcpTransport(lambda d: None, config=roomy)
    try:
        dst = server.local_address()
        assert client.send(dst, b"hello")  # queued: it opens the connection
        _wait_until(lambda: sink.snapshot() == [b"hello"], message="hello")

        def hammer(tid: int) -> None:
            for i in range(frames_n):
                assert client.send(
                    dst, f"{tid}:{i}:".encode() + bytes([tid]) * (64 + i % 32))

        workers = [threading.Thread(target=hammer, args=(tid,))
                   for tid in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-send
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads_n * frames_n + 1
        _wait_until(lambda: len(sink.snapshot()) >= total, timeout=30,
                    message="all frames to arrive")
        lanes: dict = {tid: [] for tid in range(threads_n)}
        for payload in sink.snapshot()[1:]:
            tid, index, filler = payload.split(b":", 2)
            assert filler == bytes([int(tid)]) * (64 + int(index) % 32)
            lanes[int(tid)].append(int(index))
        assert all(lane == list(range(frames_n)) for lane in lanes.values())
        stats = client.stats
        assert stats.get("inline_sends").count > 0
        assert (stats.get("inline_sends").count
                + stats.get("frames_enqueued").count) == total
        assert stats.get("frames_sent").count == total
        assert stats.get("dead_letters").total == 0
    finally:
        client.close()
        server.close()


class StalledPeer:
    """A client transport whose peer accepts but does not read, with small
    kernel buffers on both sides so a few frames fill them."""

    def __init__(self, config: LiveTransportConfig) -> None:
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(2)
        self.dst = f"127.0.0.1:{self.listener.getsockname()[1]}"
        self.client = TcpTransport(lambda d: None, config=config)
        assert self.client.send(self.dst, b"first")
        self.conn = self.accept()
        _wait_until(lambda: self.client.stats.get("frames_sent").count == 1
                    and not self.client._peers[self.dst].queue,
                    message="connection up, writer idle")
        self.client._peers[self.dst].sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

    def accept(self) -> socket.socket:
        conn, _ = self.listener.accept()
        conn.settimeout(10.0)
        return conn

    def half_sent(self) -> int:
        """Bytes of the queue's head frame already on the wire: non-zero
        once a fast-path write has filled the kernel's buffer mid-frame
        (and until the stalled writer gets the tail out)."""
        return self.client._peers[self.dst].head_sent

    @staticmethod
    def payload(i: int) -> bytes:
        return f"{i}:".encode() + bytes([i % 251]) * 3001

    @staticmethod
    def drain(conn: socket.socket, count: int) -> List[bytes]:
        from repro.serde.framing import FrameDecoder
        decoder, received = FrameDecoder(), []
        while len(received) < count:
            data = conn.recv(65536)
            assert data, "connection closed before the backlog arrived"
            received.extend(decoder.feed(data))
        return received

    def close(self) -> None:
        self.client.close()
        self.conn.close()
        self.listener.close()


def test_send_never_blocks_on_a_peer_that_stops_reading():
    """A peer that accepts but does not read fills the kernel buffers: the
    fast path must hand over (never block the caller), the unsent tail of
    its partial write must reach the wire before any later frame, and
    backpressure must still trip at ``send_queue_limit``."""
    config = replace(FAST, send_queue_limit=16)
    peer = StalledPeer(config)
    client = peer.client
    try:
        accepted: List[bytes] = [b"first"]
        slowest = 0.0
        for i in range(400):
            started = time.monotonic()
            ok = client.send(peer.dst, peer.payload(i))
            slowest = max(slowest, time.monotonic() - started)
            if not ok:
                break
            accepted.append(peer.payload(i))
        else:
            pytest.fail("the send queue never filled")
        assert slowest < 0.050
        assert client.stats.get("queue_full_drops").count == 1
        assert len(client._peers[peer.dst].queue) == config.send_queue_limit
        # once the peer drains, the stream is every accepted frame, whole
        # and in order: the frame the buffers filled on (mid-frame on
        # Linux: the next test insists) went out ahead of the backlog
        assert peer.drain(peer.conn, len(accepted)) == accepted
        assert client.stats.get("dead_letters").total == 0
        assert client.stats.get("send_retries").count == 0
    finally:
        peer.close()


def test_partial_write_restarts_from_byte_zero_on_a_fresh_connection():
    """The connection dies with half a frame on it.  The reconnect must
    carry that frame from its first byte — its tail alone would read as a
    garbage length prefix — followed by everything queued behind it."""
    patient = replace(FAST, retry_budget=30, send_queue_limit=64)
    peer = StalledPeer(patient)
    client = peer.client
    try:
        sent_frames = []
        backlog = client._peers[peer.dst].queue
        while not backlog:
            assert client.send(peer.dst, peer.payload(len(sent_frames)))
            sent_frames.append(peer.payload(len(sent_frames)))
        if not peer.half_sent():
            pytest.skip("this kernel filled its buffer on a frame boundary")
        cut = len(sent_frames) - 1  # every send before it went out whole
        for i in range(400, 405):  # a backlog behind the half-sent frame
            assert client.send(peer.dst, peer.payload(i))
            sent_frames.append(peer.payload(i))
        peer.conn.close()  # unread bytes pending: the peer sees a reset
        peer.conn = peer.accept()
        assert peer.drain(peer.conn, len(sent_frames) - cut) \
            == sent_frames[cut:]
        assert client.stats.get("dead_letters").total == 0
    finally:
        peer.close()
