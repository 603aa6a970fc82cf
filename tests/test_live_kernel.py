"""Unit tests for the live kernel's reactor, timers, and transports."""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import SDVMError
from repro.net.inproc import InProcHub, InProcTransport
from repro.runtime.live_kernel import LiveKernel


@pytest.fixture
def kernel():
    hub = InProcHub()
    k = LiveKernel(lambda recv: InProcTransport(hub, "unit", recv),
                   name="unit")
    yield k
    k.shutdown()


class TestReactor:
    def test_post_runs_on_reactor(self, kernel):
        done = threading.Event()
        seen = {}

        def task():
            seen["on_reactor"] = kernel.on_reactor()
            done.set()

        kernel.post(task)
        assert done.wait(2.0)
        assert seen["on_reactor"] is True

    def test_post_preserves_order(self, kernel):
        order = []
        done = threading.Event()
        for i in range(100):
            kernel.post(order.append, i)
        kernel.post(lambda: done.set())
        assert done.wait(2.0)
        assert order == list(range(100))

    def test_reactor_call_returns_value(self, kernel):
        assert kernel.reactor_call(lambda: 41 + 1) == 42

    def test_reactor_call_propagates_exception(self, kernel):
        def boom():
            raise ValueError("from reactor")

        with pytest.raises(ValueError, match="from reactor"):
            kernel.reactor_call(boom)

    def test_reactor_call_reentrant(self, kernel):
        """Calling reactor_call from the reactor runs inline (no deadlock)."""
        def outer():
            return kernel.reactor_call(lambda: "inner")

        assert kernel.reactor_call(outer) == "inner"

    def test_exception_does_not_kill_reactor(self, kernel):
        kernel.post(lambda: 1 / 0)
        assert kernel.reactor_call(lambda: "alive") == "alive"


class TestTimers:
    def test_call_later_fires(self, kernel):
        done = threading.Event()
        kernel.call_later(0.02, done.set)
        assert done.wait(2.0)

    def test_cancel_prevents_firing(self, kernel):
        fired = threading.Event()
        handle = kernel.call_later(0.05, fired.set)
        kernel.cancel(handle)
        assert not fired.wait(0.2)

    def test_timers_fire_in_order(self, kernel):
        order = []
        done = threading.Event()
        kernel.call_later(0.06, lambda: (order.append("late"), done.set()))
        kernel.call_later(0.02, order.append, "early")
        assert done.wait(2.0)
        assert order == ["early", "late"]

    def test_call_at_fires_at_the_instant_and_at_once_when_past(self, kernel):
        order = []
        done = threading.Event()
        at = kernel.now + 0.05
        kernel.call_at(at, lambda: (order.append(kernel.now >= at),
                                    done.set()))
        kernel.call_at(kernel.now - 1.0, order.append, "past")
        assert done.wait(2.0)
        assert order == ["past", True]

    def test_now_is_monotonic(self, kernel):
        a = kernel.now
        time.sleep(0.01)
        assert kernel.now > a


class TestTransportLifecycle:
    def test_send_after_shutdown_fails(self):
        hub = InProcHub()
        k = LiveKernel(lambda recv: InProcTransport(hub, "x", recv))
        k.shutdown()
        assert not k.transport_send("nowhere", b"data")

    def test_shutdown_idempotent(self, kernel):
        kernel.shutdown()
        kernel.shutdown()

    def test_receive_posts_to_reactor(self):
        hub = InProcHub()
        received = []
        done = threading.Event()
        k1 = LiveKernel(lambda recv: InProcTransport(hub, "a", recv),
                        name="a")
        k2 = LiveKernel(lambda recv: InProcTransport(hub, "b", recv),
                        name="b")
        try:
            k2.attach_receiver(
                lambda data: (received.append(data), done.set()))
            assert k1.transport_send("b", b"ping")
            assert done.wait(2.0)
            assert received == [b"ping"]
        finally:
            k1.shutdown()
            k2.shutdown()


class TestTcpTransportDirect:
    def test_roundtrip_and_reuse(self):
        from repro.net.tcp import TcpTransport
        got = []
        done = threading.Event()

        def receiver(data):
            got.append(data)
            if len(got) == 3:
                done.set()

        server = TcpTransport(receiver)
        client = TcpTransport(lambda d: None)
        try:
            for i in range(3):
                assert client.send(server.local_address(), bytes([i]) * 10)
            assert done.wait(3.0)
            assert got == [bytes([i]) * 10 for i in range(3)]
            # the connection cache held: one connect served all frames
            assert client.stats.get("connects").count == 1
        finally:
            client.close()
            server.close()

    def test_send_to_dead_endpoint_dead_letters(self):
        """Sends to an unreachable peer are queued for retry; once the
        budget is spent they are dead-lettered and the peer reported."""
        from repro.common.config import LiveTransportConfig
        from repro.net.tcp import TcpTransport
        down = threading.Event()
        client = TcpTransport(lambda d: None, config=LiveTransportConfig(
            connect_timeout=0.3, retry_budget=3, backoff_initial=0.01,
            backoff_max=0.05, heartbeat_misses=2))
        client.on_peer_down = lambda addr: down.set()
        try:
            assert client.send("127.0.0.1:1", b"x")  # accepted for retry
            assert down.wait(5.0)
            deadline = time.monotonic() + 5.0
            while (client.stats.get("dead_letters").total < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert client.stats.get("dead_letters").total >= 1
        finally:
            client.close()

    def test_bad_address_rejected(self):
        from repro.net.tcp import TcpTransport
        from repro.common.errors import AddressError
        client = TcpTransport(lambda d: None)
        try:
            with pytest.raises(AddressError):
                client.send("not-an-address", b"x")
        finally:
            client.close()
