"""Diffie–Hellman key agreement for session-key rotation.

Uses the 2048-bit MODP group from RFC 3526 §3 (a well-known safe prime) with
generator 2.  Private exponents come from the caller's RNG so the simulation
stays deterministic under a fixed seed.
"""

from __future__ import annotations

import random

from repro.common.errors import SecurityError
from repro.security.cipher import derive_key

# RFC 3526, 2048-bit MODP Group (id 14).
DH_GROUP_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF", 16)
DH_GENERATOR = 2

_EXPONENT_BITS = 256  # short exponents are fine for this group size


class DHKeyPair:
    """One side of a Diffie–Hellman exchange."""

    def __init__(self, rng: random.Random) -> None:
        self._private = rng.getrandbits(_EXPONENT_BITS) | 1
        self.public = pow(DH_GENERATOR, self._private, DH_GROUP_PRIME)

    def shared_key(self, peer_public: int,
                   context: bytes = b"sdvm-session") -> bytes:
        """Derive the 32-byte session key from the peer's public value."""
        if not 2 <= peer_public <= DH_GROUP_PRIME - 2:
            raise SecurityError("peer public value out of range")
        secret = pow(peer_public, self._private, DH_GROUP_PRIME)
        return derive_key(context, secret)
