"""Keystream cipher + MAC used by the security manager.

Construction (didactic, stdlib-only — see DESIGN.md "Simplifications"):

* keystream block ``i`` = SHA-256(key || nonce || i) — counter mode;
* ciphertext = plaintext XOR keystream;
* tag = HMAC-SHA256(mac_key, nonce || ciphertext) — encrypt-then-MAC;
* ``mac_key`` = SHA-256("mac" || key) so the two keys are independent.

Sealed envelope layout: ``nonce(16) || tag(32) || ciphertext``.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import struct

from repro.common.errors import SecurityError

NONCE_SIZE = 16
TAG_SIZE = 32
_BLOCK = 32  # sha256 digest size


def derive_key(*parts: bytes | str | int) -> bytes:
    """Derive a 32-byte key from heterogeneous parts (password, site ids...)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            raw = part.encode("utf-8")
        elif isinstance(part, int):
            raw = part.to_bytes((max(part.bit_length(), 1) + 7) // 8,
                                "big", signed=False)
        else:
            raw = bytes(part)
        h.update(struct.pack(">I", len(raw)))
        h.update(raw)
    return h.digest()


@functools.lru_cache(maxsize=256)
def _keyed_mac(key: bytes) -> "_hmac.HMAC":
    """HMAC state already keyed with ``key``'s MAC key.  Keying costs two
    SHA-256 compressions plus the derivation; callers ``.copy()`` the
    state per message instead of paying that again."""
    return _hmac.new(hashlib.sha256(b"mac" + key).digest(),
                     digestmod=hashlib.sha256)


def _tag(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    mac = _keyed_mac(key).copy()
    mac.update(nonce)
    mac.update(ciphertext)
    return mac.digest()


def _keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    size = len(data)
    prefix = key + nonce
    stream = b"".join(
        hashlib.sha256(prefix + struct.pack(">Q", block_index)).digest()
        for block_index in range((size + _BLOCK - 1) // _BLOCK))
    # one big-integer XOR instead of a Python-level loop over the bytes
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream[:size], "big")).to_bytes(size, "big")


def seal(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """Encrypt and authenticate ``plaintext``.

    The caller supplies the nonce (the security layer uses a per-peer
    counter mixed with its site id, which guarantees uniqueness without a
    random source — important for deterministic simulation).
    """
    if len(key) != 32:
        raise SecurityError("key must be 32 bytes")
    if len(nonce) != NONCE_SIZE:
        raise SecurityError(f"nonce must be {NONCE_SIZE} bytes")
    ciphertext = _keystream_xor(key, nonce, plaintext)
    return nonce + _tag(key, nonce, ciphertext) + ciphertext


def open_sealed(key: bytes, sealed: bytes) -> bytes:
    """Verify and decrypt an envelope produced by :func:`seal`."""
    if len(key) != 32:
        raise SecurityError("key must be 32 bytes")
    if len(sealed) < NONCE_SIZE + TAG_SIZE:
        raise SecurityError("sealed envelope too short")
    nonce = sealed[:NONCE_SIZE]
    tag = sealed[NONCE_SIZE:NONCE_SIZE + TAG_SIZE]
    ciphertext = sealed[NONCE_SIZE + TAG_SIZE:]
    if not _hmac.compare_digest(tag, _tag(key, nonce, ciphertext)):
        raise SecurityError("message authentication failed")
    return _keystream_xor(key, nonce, ciphertext)
