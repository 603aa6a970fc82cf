"""Real TCP transport for the live runtime, with a reliability layer.

Mirrors the paper's network manager (§4): "To receive, it features a
listener, which spawns a new thread every time an incoming connection is
established."  Outgoing connections are cached and reused (the paper's
observation that TCP "needs a lot of communication to establish and end a
connection" is exactly why), and messages are delimited with the
length-prefixed framing from :mod:`repro.serde.framing`.

Reliability model (see ``LiveTransportConfig``):

* Every destination gets a bounded **send queue** drained by a dedicated
  writer thread.  At most one thread writes to a peer's socket at a time:
  that is what serializes frames, so concurrent ``send`` calls can never
  interleave bytes on the stream.
* On a healthy connection with nothing queued, ``send`` is that one
  writer itself (the **fast path**): a non-blocking ``send(2)`` under the
  peer's lock, on the caller's thread, with no hand-off.  Anything else —
  no socket yet, a backlog, a failure outstanding, a full kernel buffer,
  the unsent tail of a partial write — stays queued for the writer
  thread, so everything below is its business alone.  The writer clears a
  backlog on a healthy connection with the same non-blocking writes,
  holding the lock, so a burst that once queued does not stay queued.
* The writer **reconnects with exponential backoff** when a write fails
  (a stale cached connection after a peer restart is retried with a fresh
  socket instead of silently dropping the frame).
* When the per-frame **retry budget** is spent, everything queued for that
  peer is dropped into the ``dead_letters`` counter and the peer is
  reported via :attr:`on_peer_down` — the live kernel forwards this to the
  cluster manager, which feeds the crash manager's recovery path.
* An optional **keepalive heartbeat** (zero-length frames, filtered out on
  the receive side) keeps the failure detector running even when the
  cluster is idle, so real socket death is noticed within
  ``heartbeat_interval`` plus a few backoffs.

Physical addresses are ``"host:port"`` strings.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.common.config import LiveTransportConfig
from repro.common.errors import AddressError, SerializationError
from repro.common.stats import StatSet
from repro.serde.framing import FrameDecoder, frame

#: wire representation of a keepalive: an empty frame (no SDMessage is ever
#: zero bytes, so receivers can filter these without parsing)
_KEEPALIVE = frame(b"")

#: per-call non-blocking flag for the fast path (the sockets themselves
#: stay blocking for the writer's ``sendall``); 0 where the platform has
#: none, which turns the fast path off
_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0)


def _hard_close(sock: socket.socket) -> None:
    """Shutdown-then-close.  A plain ``close`` on a socket another thread
    is blocked in ``recv`` on does not send the FIN until that recv returns
    (the in-flight syscall keeps the kernel socket alive) — ``shutdown``
    pushes the FIN out and wakes the blocked reader immediately."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _parse(addr: str) -> Tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise AddressError(f"bad physical address {addr!r}, want host:port")
    return host, int(port)


class _Peer:
    """Outgoing state for one destination: queue, socket, failure record."""

    __slots__ = ("addr", "queue", "cond", "sock", "writer", "failures",
                 "suspected", "head_sent")

    def __init__(self, addr: str) -> None:
        self.addr = addr
        self.queue: Deque[bytes] = deque()
        self.cond = threading.Condition()
        self.sock: Optional[socket.socket] = None
        self.writer: Optional[threading.Thread] = None
        #: consecutive failed delivery attempts (reset on success)
        self.failures = 0
        #: failure detector already fired for the current outage
        self.suspected = False
        #: bytes of ``queue[0]`` a non-blocking write already put on
        #: ``sock``; whoever invalidates the socket zeroes it, because a
        #: fresh connection must carry the frame from its first byte
        self.head_sent = 0


class TcpTransport:
    """Listener + per-peer queued writers, one reader thread per peer."""

    def __init__(self, receiver: Callable[[bytes], None],
                 host: str = "127.0.0.1", port: int = 0,
                 connect_timeout: Optional[float] = None,
                 config: Optional[LiveTransportConfig] = None) -> None:
        self._receiver = receiver
        cfg = config or LiveTransportConfig()
        if connect_timeout is not None:
            cfg = replace(cfg, connect_timeout=connect_timeout)
        self._config = cfg
        self.stats = StatSet(locked=True)
        #: set to a callable(physical_addr) to hear about suspected-dead
        #: peers (failure detector / retry budget exhaustion); invoked on a
        #: transport thread — receivers must hand off to their own loop
        self.on_peer_down: Optional[Callable[[str], None]] = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._addr = f"{host}:{self._listener.getsockname()[1]}"
        self._peers: Dict[str, _Peer] = {}
        self._peers_lock = threading.Lock()
        #: accepted inbound connections, so close() can reap reader threads
        self._in: Set[socket.socket] = set()
        self._in_lock = threading.Lock()
        self._closed = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"sdvm-accept-{self._addr}",
            daemon=True)
        self._accept_thread.start()
        self._heartbeat_thread: Optional[threading.Thread] = None
        if cfg.heartbeat_interval > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"sdvm-keepalive-{self._addr}", daemon=True)
            self._heartbeat_thread.start()

    # ------------------------------------------------------------------
    def local_address(self) -> str:
        return self._addr

    # ------------------------------------------------------------------
    # inbound path

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._in_lock:
                if self._closed.is_set():
                    try:
                        conn.close()
                    except OSError:
                        pass
                    continue
                self._in.add(conn)
            threading.Thread(target=self._read_loop, args=(conn,),
                             name=f"sdvm-read-{self._addr}",
                             daemon=True).start()

    def _read_loop(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        try:
            while not self._closed.is_set():
                data = conn.recv(65536)
                if not data:
                    return
                for payload in decoder.feed(data):
                    if not payload:
                        self.stats.inc("keepalives_received")
                        continue
                    self.stats.inc("frames_received")
                    self._receiver(payload)
        except OSError:
            return
        except SerializationError:
            # corrupt length prefix: the rest of this stream is garbage;
            # drop the connection (the peer will reconnect) but keep serving
            self.stats.inc("corrupt_stream")
            return
        finally:
            with self._in_lock:
                self._in.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # outbound path: per-peer queue + writer thread

    def _peer(self, dst: str) -> _Peer:
        peer = self._peers.get(dst)  # peers are never removed
        if peer is not None:
            return peer
        _parse(dst)  # validate early; writer threads rely on a good address
        with self._peers_lock:
            peer = self._peers.get(dst)
            if peer is None:
                peer = self._peers[dst] = _Peer(dst)
                peer.writer = threading.Thread(
                    target=self._writer_loop, args=(peer,),
                    name=f"sdvm-write-{self._addr}->{dst}", daemon=True)
                peer.writer.start()
            return peer

    def send(self, dst: str, data: bytes) -> bool:
        """Deliver ``data`` to ``dst``: written at once on the caller's
        thread when the connection allows, queued for the writer if not.

        Never blocks on the network.  Returns False only for failures
        known *immediately*: transport closed, or the peer's queue is full
        (backpressure).  A True return means "accepted for delivery with
        retries"; if the peer stays unreachable past the retry budget the
        frame is dead-lettered and :attr:`on_peer_down` fires.  Malformed
        addresses raise :class:`AddressError`.
        """
        if self._closed.is_set():
            return False
        payload = frame(data)
        peer = self._peer(dst)
        with peer.cond:
            if len(peer.queue) >= self._config.send_queue_limit:
                self.stats.inc("queue_full_drops")
                return False
            # The writer leaves a frame at the head of the queue while it
            # delivers it, so an empty queue also means the writer is idle
            # and this thread may be the socket's one writer.
            idle = not peer.queue
            peer.queue.append(payload)
            if idle:
                self._pump(peer)
                if not peer.queue:
                    self.stats.inc("inline_sends")
                    return True
            depth = len(peer.queue)
            peer.cond.notify()
        self.stats.inc("frames_enqueued")
        self.stats.set_gauge("send_queue_depth", depth)
        return True

    def _pump(self, peer: _Peer) -> None:
        """Fast path, under ``peer.cond``: on a healthy connection, write
        queued frames with non-blocking sends until the queue is empty or
        the kernel's buffer is full.  What stays queued — from
        ``head_sent`` on — is the writer's to deliver, with its blocking
        ``sendall``, retries and backoff; an error here only invalidates
        the socket and leaves the rest to that machinery too."""
        sock = peer.sock
        if sock is None or peer.failures or peer.suspected or not _DONTWAIT:
            return
        while peer.queue:
            payload = peer.queue[0]
            rest = (memoryview(payload)[peer.head_sent:] if peer.head_sent
                    else payload)
            try:
                peer.head_sent += sock.send(rest, _DONTWAIT)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._drop_socket(peer)
                return
            if peer.head_sent < len(payload):
                return
            peer.queue.popleft()
            peer.head_sent = 0
            self.stats.inc("frames_sent")
            self.stats.add("bytes_sent", len(payload))

    def _writer_loop(self, peer: _Peer) -> None:
        while True:
            with peer.cond:
                while not peer.queue and not self._closed.is_set():
                    peer.cond.wait()
                if self._closed.is_set():
                    return
                # a backlog on a good connection drains right here: senders
                # wait on the lock meanwhile, so they cannot outrun it, and
                # find the queue empty — the fast path theirs again — after
                self._pump(peer)
                if not peer.queue:
                    self.stats.set_gauge("send_queue_depth", 0)
                    continue
                payload = peer.queue[0]
            if self._deliver(peer, payload):
                with peer.cond:
                    if peer.queue and peer.queue[0] is payload:
                        peer.queue.popleft()
                    self.stats.set_gauge("send_queue_depth",
                                         len(peer.queue))
            else:
                with peer.cond:
                    dropped = len(peer.queue)
                    peer.queue.clear()
                    self.stats.set_gauge("send_queue_depth", 0)
                if dropped:
                    self.stats.add("dead_letters", dropped)

    def _deliver(self, peer: _Peer, payload: bytes) -> bool:
        """Try to put ``payload`` on the wire; reconnect/backoff/retry.

        Returns False once the retry budget is exhausted (the caller
        dead-letters the queue).  The failure detector fires as soon as
        ``heartbeat_misses`` consecutive attempts have failed — before the
        budget runs out, so recovery starts while retries continue.
        """
        cfg = self._config
        backoff = cfg.backoff_initial
        for attempt in range(cfg.retry_budget):
            if self._closed.is_set():
                return False
            with peer.cond:
                # read together: the socket, and how much of this frame a
                # partial fast-path write already put on *that* socket
                sock, skip = peer.sock, peer.head_sent
            if sock is None:
                sock = self._connect(peer)
            if sock is not None:
                try:
                    sock.sendall(memoryview(payload)[skip:])
                    peer.head_sent = 0
                    peer.failures = 0
                    if peer.suspected:
                        peer.suspected = False
                        self.stats.inc("peers_recovered")
                    self.stats.inc("frames_sent")
                    self.stats.add("bytes_sent", len(payload))
                    return True
                except OSError:
                    self._drop_socket(peer)
            peer.failures += 1
            self.stats.inc("send_retries")
            self._note_failure(peer)
            if attempt + 1 < cfg.retry_budget:
                self._closed.wait(backoff)
                backoff = min(backoff * 2.0, cfg.backoff_max)
        self._note_failure(peer, force=True)
        return False

    def _connect(self, peer: _Peer) -> Optional[socket.socket]:
        host, port = _parse(peer.addr)
        try:
            sock = socket.create_connection(
                (host, port), timeout=self._config.connect_timeout)
            sock.settimeout(None)
        except OSError:
            return None
        peer.sock = sock
        self.stats.inc("connects")
        # outgoing connections never carry inbound protocol data (peers
        # connect back separately), so a blocking recv doubles as an EOF
        # monitor: the peer's FIN invalidates the cached socket at once,
        # instead of the next sendall silently burying a frame in the
        # kernel buffer of a dead connection
        threading.Thread(target=self._monitor_loop, args=(peer, sock),
                         name=f"sdvm-monitor-{self._addr}->{peer.addr}",
                         daemon=True).start()
        return sock

    def _monitor_loop(self, peer: _Peer, sock: socket.socket) -> None:
        try:
            while sock.recv(4096):
                pass
        except OSError:
            pass
        with peer.cond:
            if peer.sock is sock:
                peer.sock = None
                peer.head_sent = 0
                self.stats.inc("stale_connections")
        try:
            sock.close()
        except OSError:
            pass

    def _drop_socket(self, peer: _Peer) -> None:
        sock, peer.sock = peer.sock, None
        peer.head_sent = 0
        if sock is not None:
            _hard_close(sock)

    def _note_failure(self, peer: _Peer, force: bool = False) -> None:
        if peer.suspected:
            return
        if force or peer.failures >= self._config.heartbeat_misses:
            peer.suspected = True
            self.stats.inc("peers_suspected")
            callback = self.on_peer_down
            if callback is not None:
                try:
                    callback(peer.addr)
                except Exception:  # noqa: BLE001 — keep the writer alive
                    pass

    # ------------------------------------------------------------------
    # keepalive failure detector

    def _heartbeat_loop(self) -> None:
        while not self._closed.wait(self._config.heartbeat_interval):
            with self._peers_lock:
                peers = list(self._peers.values())
            for peer in peers:
                with peer.cond:
                    # a suspected peer is not pinged again — the next
                    # application send re-arms the detector; a backlogged
                    # queue already keeps the writer probing
                    if peer.suspected or peer.queue:
                        continue
                    peer.queue.append(_KEEPALIVE)
                    peer.cond.notify()
                self.stats.inc("keepalives_sent")

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        # shutdown, not just close: a close while the accept thread is
        # blocked in accept(2) leaves the kernel socket listening (the
        # in-flight syscall pins it), so the port would stay occupied
        _hard_close(self._listener)
        with self._peers_lock:
            peers = list(self._peers.values())
        for peer in peers:
            with peer.cond:
                peer.cond.notify_all()
            self._drop_socket(peer)
        inbound: List[socket.socket]
        with self._in_lock:
            inbound = list(self._in)
            self._in.clear()
        for conn in inbound:
            _hard_close(conn)
        current = threading.current_thread()
        for peer in peers:
            if peer.writer is not None and peer.writer is not current:
                peer.writer.join(timeout=0.5)
        if (self._heartbeat_thread is not None
                and self._heartbeat_thread is not current):
            self._heartbeat_thread.join(timeout=0.5)
