"""Tests for the cipher, DH exchange, and the security layer."""

from __future__ import annotations

import hashlib
import hmac
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SecurityError
from repro.security.cipher import (
    NONCE_SIZE,
    derive_key,
    open_sealed,
    seal,
)
from repro.security.dh import DH_GROUP_PRIME, DHKeyPair
from repro.security.layer import SecurityLayer

KEY = derive_key("test-password", "a", "b")
NONCE = bytes(NONCE_SIZE)

#: ``seal(KEY, bytes(range(256))-cycled[:size], bytes(range(16)))`` as the
#: byte-by-byte implementation before the big-integer XOR produced it
#: (hex of the whole envelope; SHA-256 of it for the 1000-byte case)
GOLDEN_NONCE = bytes(range(NONCE_SIZE))
GOLDEN = {
    0: "000102030405060708090a0b0c0d0e0fbc96ed449104a26dea592cd8732e298a"
       "875241967ee1ff64be3bcb52ad0ce2d4",
    1: "000102030405060708090a0b0c0d0e0f85e425051e2dac4cd30a548362c67d53"
       "c9a17c453678bae95cd5b1968c0b5627ef",
    31: "000102030405060708090a0b0c0d0e0fe8bba4bdad2c09594f58c93f317262e5"
        "9719592451bf9140787ca72da2444b39efb7c169af983a97c09db8ea24d04e67"
        "fbca12448dfe2f4e00b94f90674ca4",
    32: "000102030405060708090a0b0c0d0e0f20ee90d31b4f5ec34d8242ae967c4684"
        "ca4933b0fc14ffc998495aab9040fff7efb7c169af983a97c09db8ea24d04e67"
        "fbca12448dfe2f4e00b94f90674ca4e6",
    33: "000102030405060708090a0b0c0d0e0fc2b196f546e39e2941e83b08347b1fc9"
        "f6178ae719178c7e1238b1693024dc13efb7c169af983a97c09db8ea24d04e67"
        "fbca12448dfe2f4e00b94f90674ca4e602",
}
GOLDEN_1000_SHA256 = (
    "21b9ab2f8634e0b601b07dbfeba5b202cb97449940f0a141f8c22d2513ae7fc0")


def _pattern(size: int) -> bytes:
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def _reference_seal(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The documented construction, one byte at a time (the code the
    optimised cipher replaced): the two must stay interchangeable."""
    out = bytearray()
    for start in range(0, len(plaintext), 32):
        block = hashlib.sha256(
            key + nonce + struct.pack(">Q", start // 32)).digest()
        out.extend(b ^ k for b, k in zip(plaintext[start:start + 32], block))
    tag = hmac.new(hashlib.sha256(b"mac" + key).digest(),
                   nonce + bytes(out), hashlib.sha256).digest()
    return nonce + tag + bytes(out)


class TestCipher:
    def test_roundtrip(self):
        for size in (0, 1, 31, 32, 33, 1000):
            data = bytes(range(256)) * (size // 256 + 1)
            data = data[:size]
            assert open_sealed(KEY, seal(KEY, data, NONCE)) == data

    def test_golden_vectors(self):
        for size, expected in GOLDEN.items():
            assert seal(KEY, _pattern(size), GOLDEN_NONCE).hex() == expected
        sealed = seal(KEY, _pattern(1000), GOLDEN_NONCE)
        assert hashlib.sha256(sealed).hexdigest() == GOLDEN_1000_SHA256

    def test_golden_envelopes_open(self):
        for size, sealed in GOLDEN.items():
            assert open_sealed(KEY, bytes.fromhex(sealed)) == _pattern(size)

    def test_interchangeable_with_reference_construction(self):
        rng = random.Random(7)
        for size in (0, 1, 31, 32, 33, 64, 232, 1000, 4097):
            data, nonce = rng.randbytes(size), rng.randbytes(NONCE_SIZE)
            theirs = _reference_seal(KEY, data, nonce)
            assert seal(KEY, data, nonce) == theirs
            assert open_sealed(KEY, theirs) == data

    def test_ciphertext_differs_from_plaintext(self):
        sealed = seal(KEY, b"secret" * 10, NONCE)
        assert b"secret" not in sealed

    def test_tamper_detected(self):
        sealed = bytearray(seal(KEY, b"payload", NONCE))
        sealed[-1] ^= 0x01
        with pytest.raises(SecurityError):
            open_sealed(KEY, bytes(sealed))

    def test_tampered_nonce_detected(self):
        sealed = bytearray(seal(KEY, b"payload", NONCE))
        sealed[0] ^= 0x01
        with pytest.raises(SecurityError):
            open_sealed(KEY, bytes(sealed))

    def test_wrong_key_rejected(self):
        other = derive_key("other-password", "a", "b")
        with pytest.raises(SecurityError):
            open_sealed(other, seal(KEY, b"payload", NONCE))

    def test_truncated_rejected(self):
        with pytest.raises(SecurityError):
            open_sealed(KEY, b"short")

    def test_nonce_changes_ciphertext(self):
        n2 = b"\x01" + bytes(NONCE_SIZE - 1)
        assert seal(KEY, b"same", NONCE) != seal(KEY, b"same", n2)

    def test_key_size_enforced(self):
        with pytest.raises(SecurityError):
            seal(b"short", b"x", NONCE)
        with pytest.raises(SecurityError):
            seal(KEY, b"x", b"badnonce")

    def test_derive_key_deterministic_and_injective_ish(self):
        assert derive_key("a", "b") == derive_key("a", "b")
        # length-prefixing prevents concatenation ambiguity
        assert derive_key("ab", "c") != derive_key("a", "bc")
        assert derive_key(1, 23) != derive_key(12, 3)


@settings(max_examples=50)
@given(st.binary(max_size=500))
def test_cipher_roundtrip_property(data):
    assert open_sealed(KEY, seal(KEY, data, NONCE)) == data


class TestDH:
    def test_shared_secret_agrees(self):
        a = DHKeyPair(random.Random(1))
        b = DHKeyPair(random.Random(2))
        assert a.shared_key(b.public) == b.shared_key(a.public)

    def test_different_pairs_different_keys(self):
        a = DHKeyPair(random.Random(1))
        b = DHKeyPair(random.Random(2))
        c = DHKeyPair(random.Random(3))
        assert a.shared_key(b.public) != a.shared_key(c.public)

    def test_public_in_group(self):
        pair = DHKeyPair(random.Random(4))
        assert 2 <= pair.public <= DH_GROUP_PRIME - 2

    def test_degenerate_peer_rejected(self):
        pair = DHKeyPair(random.Random(5))
        for bad in (0, 1, DH_GROUP_PRIME - 1, DH_GROUP_PRIME):
            with pytest.raises(SecurityError):
                pair.shared_key(bad)

    def test_deterministic_under_seed(self):
        assert (DHKeyPair(random.Random(9)).public
                == DHKeyPair(random.Random(9)).public)


class TestSecurityLayer:
    def make_pair(self, enabled=True):
        return (SecurityLayer("addr-a", enabled, "pw"),
                SecurityLayer("addr-b", enabled, "pw"))

    def test_roundtrip_enabled(self):
        a, b = self.make_pair()
        sender, body = b.unprotect(a.protect("addr-b", b"payload"))
        assert sender == "addr-a"
        assert body == b"payload"

    def test_roundtrip_disabled(self):
        """A plaintext envelope is the data itself, so it names no
        sender."""
        a, b = self.make_pair(enabled=False)
        sender, body = b.unprotect(a.protect("addr-b", b"payload"))
        assert (sender, body) == ("", b"payload")

    def test_disabled_payload_visible(self):
        a, _b = self.make_pair(enabled=False)
        assert b"payload" in a.protect("addr-b", b"payload")

    def test_enabled_payload_hidden(self):
        a, _b = self.make_pair()
        assert b"payload" not in a.protect("addr-b", b"payload")

    def test_mixed_modes_fail_closed(self):
        a, _ = self.make_pair(enabled=True)
        plain = SecurityLayer("addr-b", False, "pw")
        with pytest.raises(SecurityError):
            plain.unprotect(a.protect("addr-b", b"x"))
        with pytest.raises(SecurityError):
            a.unprotect(plain.protect("addr-a", b"x"))

    def test_wrong_password_rejected(self):
        a = SecurityLayer("addr-a", True, "pw1")
        b = SecurityLayer("addr-b", True, "pw2")
        with pytest.raises(SecurityError):
            b.unprotect(a.protect("addr-b", b"x"))

    def test_nonces_unique_per_message(self):
        a, b = self.make_pair()
        first = a.protect("addr-b", b"same")
        second = a.protect("addr-b", b"same")
        assert first != second
        assert b.unprotect(first)[1] == b.unprotect(second)[1] == b"same"

    def test_session_key_rotation(self):
        a, b = self.make_pair()
        key = derive_key("fresh session key")
        a.install_session_key("addr-b", key)
        b.install_session_key("addr-a", key)
        sender, body = b.unprotect(a.protect("addr-b", b"rotated"))
        assert body == b"rotated"
        assert a.has_session_key("addr-b")

    def test_session_key_mismatch_detected(self):
        a, b = self.make_pair()
        a.install_session_key("addr-b", derive_key("only a rotated"))
        with pytest.raises(SecurityError):
            b.unprotect(a.protect("addr-b", b"x"))

    def test_stats_counted(self):
        a, b = self.make_pair()
        b.unprotect(a.protect("addr-b", b"xyz"))
        assert a.messages_sealed == 1
        assert b.messages_opened == 1
        assert a.bytes_processed == 3


def _record() -> bytes:
    from repro.common.ids import GlobalAddress
    from repro.messages import MsgType, SDMessage
    return SDMessage(type=MsgType.APPLY_RESULT, src_site=1, dst_site=2,
                     payload={"addr": GlobalAddress(2, 1), "slot": 0,
                              "value": 1000, "epoch": 0}).encode()


class TestPlaintextEnvelope:
    """With the layer disabled the envelope is the message's record, byte
    for byte: no marker, no sender address, no copy.  A record starts with
    its tag ``R`` and a sealed envelope with the marker ``0x01``, so either
    layer still refuses the other's envelope."""

    def test_disabled_envelope_is_the_record(self):
        data = _record()
        assert SecurityLayer("addr-a", False, "pw").protect(
            "addr-b", data) is data
        assert data[:1] == b"R"
        assert SecurityLayer("addr-a", True, "pw").protect(
            "addr-b", data)[:1] == b"\x01"

    def test_a_cluster_puts_the_encoded_message_on_the_wire(self):
        from repro.common.config import SDVMConfig
        from repro.messages import MsgType, SDMessage
        from repro.site.simcluster import SimCluster
        cluster = SimCluster(nsites=2, config=SDVMConfig())
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        seen = []
        send = cluster.network.send
        cluster.network.send = lambda src, dst, data: (
            seen.append(bytes(data)), send(src, dst, data))[1]
        msg = SDMessage(type=MsgType.HEARTBEAT, src_site=a.site_id,
                        dst_site=b.site_id)
        a.message_manager.send(msg)
        assert seen == [msg.encode()]
        assert (a.message_manager.stats.get("bytes_sent").total
                >= len(msg.encode()))

    def test_sealed_record_into_a_disabled_layer_raises(self):
        sealed = SecurityLayer("addr-a", True, "pw").protect("addr-b",
                                                            _record())
        with pytest.raises(SecurityError, match="disabled"):
            SecurityLayer("addr-b", False, "pw").unprotect(sealed)

    def test_plaintext_record_into_an_enabled_layer_is_rejected(self):
        plain = SecurityLayer("addr-a", False, "pw").protect("addr-b",
                                                            _record())
        with pytest.raises(SecurityError, match="plaintext"):
            SecurityLayer("addr-b", True, "pw").unprotect(plain)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_an_empty_envelope_is_refused(self, enabled):
        with pytest.raises(SecurityError, match="too short"):
            SecurityLayer("addr-b", enabled, "pw").unprotect(b"")

    def test_wire_corruption_flips_a_plaintext_record_only(self):
        """The chaos engine decodes the record itself and re-encodes it
        flipped; a sealed envelope it leaves to the MAC."""
        from repro.chaos import chaos_config
        from repro.chaos.plan import CorruptFault, FaultPlan
        from repro.messages import SDMessage
        from repro.site.simcluster import SimCluster
        plan = FaultPlan(seed=21, nsites=2, faults=[
            CorruptFault(start=0.0, end=1.0, mode="param")])
        cluster = SimCluster(nsites=2, config=chaos_config(plan))
        cluster.apply_chaos(plan)
        chaos = cluster.network.chaos
        data = _record()
        flipped = chaos.corrupt_wire(0, 1, data)
        assert flipped is not None and flipped[:1] == b"R"
        assert SDMessage.decode(flipped).payload["value"] != 1000
        sealed = SecurityLayer("addr-a", True, "pw").protect("addr-b", data)
        assert chaos.corrupt_wire(0, 1, sealed) is None

    def test_a_disabled_site_keeps_the_security_manager_off_the_path(self):
        """With security off a message goes out and comes in without a
        call into the security manager."""
        from repro.common.config import SDVMConfig
        from repro.messages import MsgType, SDMessage
        from repro.site.simcluster import SimCluster
        cluster = SimCluster(nsites=2, config=SDVMConfig())
        cluster.sim.run(until=0.2)
        calls = []
        for site in cluster.sites:
            sm = site.security_manager
            sm.protect = lambda *args: calls.append("protect")
            sm.unprotect = lambda *args: calls.append("unprotect")
        a, b = cluster.sites
        received = b.message_manager.stats.get("received").count
        a.message_manager.send(SDMessage(
            type=MsgType.HEARTBEAT, src_site=a.site_id,
            dst_site=b.site_id))
        cluster.sim.run(until=0.4)
        assert b.message_manager.stats.get("received").count > received
        assert calls == []

    @pytest.mark.parametrize("envelope, reason", [
        (b"", "too short"), (b"\x01", "too short"),
        (b"\x01\x00\x09a", "truncated"), (None, "disabled")],
        ids=["empty", "marker-only", "truncated", "sealed"])
    def test_a_disabled_site_rejects_and_counts_a_sealed_envelope(
            self, envelope, reason):
        from repro.common.config import SDVMConfig
        from repro.site.simcluster import SimCluster
        cluster = SimCluster(nsites=2, config=SDVMConfig())
        cluster.sim.run(until=0.2)
        b = cluster.sites[1]
        if envelope is None:
            envelope = SecurityLayer("addr-a", True, "pw").protect(
                "addr-b", _record())
        mm = b.message_manager
        received = mm.stats.get("received").count
        mm.deliver_raw(envelope)
        assert mm.stats.get("rejected_envelopes").count == 1
        assert mm.stats.get("received").count == received
        assert reason in b.log_lines[-1]
        assert b.log_lines[-1].count("security rejected envelope") == 1
