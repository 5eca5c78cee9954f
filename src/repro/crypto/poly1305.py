"""Poly1305 one-time authenticator (RFC 8439 §2.5), pure Python.

The key splits into ``r`` (clamped) and ``s``. The message is processed
in 16-byte blocks, each with a high 0x01 byte appended, accumulated as a
polynomial over the prime 2^130 - 5; the tag is the accumulator plus
``s`` mod 2^128. Verified against the RFC test vector in the tests.

Horner's rule ``acc = (acc + m) * r mod p`` costs one reduction per
block. Whole groups of ``_GROUP`` = 8 blocks take one reduction each
instead (``m1 … m8`` are the blocks without their high byte):

    acc = ((acc + m1) r^8 + m2 r^7 + ... + m8 r + 2^128 (r^8 + ... + r)) mod p

with ``r^1 … r^8`` and the high-byte term computed once per message, so
a group costs one 128-byte ``int.from_bytes``, eight multiplications and
one reduction. At 64 KiB the groups take 1.2 ms where plain Horner
takes 2.9 ms (CPython 3.11, x86-64); they break even between one and
two groups, so a message shorter than two groups runs plain Horner, as
do the blocks after the last whole group.
"""

from __future__ import annotations

from repro.errors import CryptoError

__all__ = ["poly1305_mac", "TAG_SIZE", "KEY_SIZE"]

TAG_SIZE = 16
KEY_SIZE = 32

_PRIME = (1 << 130) - 5
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_MASK128 = (1 << 128) - 1
_HIBIT = 1 << 128
_GROUP = 8  # blocks per reduction on the fast path
_GROUP_BYTES = 16 * _GROUP


def _grouped(r: int, message: bytes, end: int) -> int:
    """The accumulator after ``message[:end]``, a whole number of groups."""
    powers = [r]
    for _ in range(_GROUP - 1):
        powers.append(powers[-1] * r % _PRIME)
    r1, r2, r3, r4, r5, r6, r7, r8 = powers
    high = _HIBIT * sum(powers) % _PRIME
    from_bytes = int.from_bytes
    mask = _MASK128
    accumulator = 0
    for offset in range(0, end, _GROUP_BYTES):
        g = from_bytes(message[offset : offset + _GROUP_BYTES], "little")
        accumulator = (
            (accumulator + (g & mask)) * r8 + (g >> 128 & mask) * r7
            + (g >> 256 & mask) * r6 + (g >> 384 & mask) * r5
            + (g >> 512 & mask) * r4 + (g >> 640 & mask) * r3
            + (g >> 768 & mask) * r2 + (g >> 896) * r1 + high
        ) % _PRIME
    return accumulator


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under ``key``."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"Poly1305 key must be {KEY_SIZE} bytes, got {len(key)}")

    r = int.from_bytes(key[:16], "little") & _CLAMP
    s = int.from_bytes(key[16:], "little")

    grouped = len(message) - len(message) % _GROUP_BYTES
    if grouped <= _GROUP_BYTES:
        grouped = 0  # one group does not repay computing the powers
    accumulator = _grouped(r, message, grouped) if grouped else 0
    for offset in range(grouped, len(message), 16):
        block = message[offset : offset + 16]
        n = int.from_bytes(block + b"\x01", "little")
        accumulator = ((accumulator + n) * r) % _PRIME

    tag = (accumulator + s) & _MASK128
    return tag.to_bytes(16, "little")
