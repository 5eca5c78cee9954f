"""ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).

A one-time Poly1305 key is the first 32 bytes of block 0 of the
ChaCha20 keystream; the ciphertext starts at block 1. Both come from
one keystream pass: :func:`_key_and_xor` runs :func:`chacha20_encrypt`
from counter 0 over 64 zero bytes followed by the message, so block 0
comes back as itself and the rest is the message XORed with blocks
1 onwards. The tag authenticates
``aad || pad || ciphertext || pad || len(aad) || len(ciphertext)``.
Tag comparison is constant-time (:func:`hmac.compare_digest`), and
:func:`open_sealed` returns no plaintext before the tag checks out.
"""

from __future__ import annotations

import hmac
import struct
from typing import Tuple

from repro.crypto.chacha20 import BLOCK_SIZE, KEY_SIZE, NONCE_SIZE, chacha20_encrypt
from repro.crypto.poly1305 import TAG_SIZE, poly1305_mac
from repro.errors import AuthenticationFailure, CryptoError

__all__ = ["ChaCha20Poly1305", "seal", "open_sealed", "TAG_SIZE", "KEY_SIZE", "NONCE_SIZE"]

# Block 0's place in the one-pass input: XOR with zeros is the keystream.
_KEY_BLOCK = bytes(BLOCK_SIZE)


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return b"\x00" * (16 - len(data) % 16)


def _key_and_xor(key: bytes, nonce: bytes, data: bytes) -> Tuple[bytes, bytes]:
    """The Poly1305 key and ``data`` XORed from counter 1, in one keystream pass."""
    stream = chacha20_encrypt(key, 0, nonce, _KEY_BLOCK + data)
    return stream[:32], stream[BLOCK_SIZE:]


def _auth_input(aad: bytes, ciphertext: bytes) -> bytes:
    return b"".join(
        (
            aad,
            _pad16(aad),
            ciphertext,
            _pad16(ciphertext),
            struct.pack("<Q", len(aad)),
            struct.pack("<Q", len(ciphertext)),
        )
    )


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate; returns ``ciphertext || tag``."""
    poly_key, ciphertext = _key_and_xor(key, nonce, plaintext)
    return ciphertext + poly1305_mac(poly_key, _auth_input(aad, ciphertext))


def open_sealed(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt ``ciphertext || tag``; raises on any tampering."""
    if len(sealed) < TAG_SIZE:
        raise CryptoError("sealed box shorter than the authentication tag")
    ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
    poly_key, plaintext = _key_and_xor(key, nonce, ciphertext)
    expected = poly1305_mac(poly_key, _auth_input(aad, ciphertext))
    if not hmac.compare_digest(tag, expected):
        raise AuthenticationFailure("Poly1305 tag mismatch; ciphertext rejected")
    return plaintext


class ChaCha20Poly1305:
    """Object-style AEAD API around :func:`seal` / :func:`open_sealed`."""

    def __init__(self, key: bytes):
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AEAD key must be {KEY_SIZE} bytes, got {len(key)}")
        self._key = key

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return seal(self._key, nonce, plaintext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return open_sealed(self._key, nonce, sealed, aad)
