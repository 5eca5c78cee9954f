"""Poly1305 one-time authenticator (RFC 8439 §2.5): big-int groups and numpy lanes.

The key splits into ``r`` (clamped) and ``s``. The message is processed
in 16-byte blocks, each with a high 0x01 byte appended, accumulated as a
polynomial over the prime 2^130 - 5; the tag is the accumulator plus
``s`` mod 2^128. Verified against the RFC test vector in the tests.

Two paths compute the same accumulator, and so the same tag:

* the grouped path (:func:`_grouped`) is Horner's rule
  ``acc = (acc + m) * r mod p`` with one reduction per group of
  ``_GROUP`` = 8 blocks instead of one per block (``m1 … m8`` are the
  blocks without their high byte)::

      acc = ((acc + m1) r^8 + m2 r^7 + ... + m8 r + 2^128 (r^8 + ... + r)) mod p

  with ``r^1 … r^8`` and the high-byte term computed once per message,
  so a group costs one 128-byte ``int.from_bytes``, eight
  multiplications and one reduction. Groups break even with plain
  Horner between one and two groups, so a message shorter than two
  groups runs plain Horner, as do the blocks after the last whole group.
  It runs every message shorter than ``_LANE_MIN_BYTES``, and every
  message when numpy is absent;
* the lane path (:func:`_lanes`) runs the whole blocks of a longer
  message in numpy ``uint64``, in chunks of ``_CHUNK`` = k = 64 blocks.
  Each block, high bit included, becomes five 26-bit limbs
  (:func:`_split`: five shift and mask steps over the ``<u8`` view of
  the message), in a ``(5, chunks, k)`` array; zero limbs pad the front
  of the first chunk, since a zero block without its high bit leaves a
  zero accumulator at zero. The powers ``r^k … r^1`` become a
  ``(k, 5)`` limb table the same way, from k Python mulmods. One
  ``np.matmul`` of the two gives each chunk's 25 limb products
  ``sum_i m_i[a] r^(k+1-i)[b]``, and summing those with ``a + b = t``
  gives the chunk's value in nine 26-bit positions ``t = 0 … 8``
  (:func:`_chunk_positions`). A Python Horner step
  ``acc = acc r^k + chunk mod p`` folds the chunks in order, and the
  last partial block runs the plain Horner step.

  A limb is below 2^26, so a product is below 2^52, and a position sums
  at most five products for each of the k blocks of a chunk: every sum
  stays exact in ``uint64`` while ``5 k 2^52 < 2^64``, that is for
  k ≤ 819 (512 is the largest power of two under the bound).

numpy comes through :func:`repro._optional.numpy_or_none`, so its
``_FORCE_FALLBACK`` hook switches this module to the grouped path too.

The crossover and k come from a sweep of MAC time (µs, the minimum over
repeated runs) against message length in bytes, on CPython 3.11,
numpy 2.4, a shared 2-vCPU x86-64 host, with the lanes at three k::

    bytes       1024   2048   4096   5120   6144   8192  16384  32768  65600  1 MiB
    grouped       18     32     58     72     86    111    216    428    856  13891
    k = 32        54     58     64     68     71     77    104    150    251   3988
    k = 64        59     68     71     73     75     81     98    131    194   2457
    k = 128       84     82     89     92     93     96    108    131    180   1899

The lanes cost a flat ~0.07 ms up to a few chunks (about 30 numpy calls
and the table's k mulmods), while the groups grow with the length; they
tie near 5 KiB. On a loaded host the tie moved out to about 7 KiB, so
``_LANE_MIN_BYTES`` is 8 KiB, where the lanes led by a fifth or more in
every sweep; chat's messages (336 bytes at most) never reach it. The
table's k mulmods and the chunks' Horner steps balance near
``sqrt(blocks)``: k = 32 leads below the crossover and k = 128 from
64 KiB, while k = 64 is within 8% of the best k at every swept length
from the crossover to 65.6 kB, the AEAD input of a 64 KiB file.
"""

from __future__ import annotations

from repro._optional import numpy_or_none
from repro.errors import CryptoError

__all__ = ["poly1305_mac", "TAG_SIZE", "KEY_SIZE"]

TAG_SIZE = 16
KEY_SIZE = 32

_PRIME = (1 << 130) - 5
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_MASK128 = (1 << 128) - 1
_HIBIT = 1 << 128
_GROUP = 8  # blocks per reduction on the grouped path
_GROUP_BYTES = 16 * _GROUP
# Messages of at least this many bytes take the numpy lane path.
_LANE_MIN_BYTES = 8 * 1024
# Blocks per chunk of the lane path, k: 5 k 2^52 < 2^64 needs k <= 819.
_CHUNK = 64
_LIMB = (1 << 26) - 1


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


def _split(np, lo, mid, top, out) -> None:
    """Write the five 26-bit limbs of ``lo + 2^64 mid + 2^104 top`` to ``out``.

    ``lo`` and ``mid`` are ``uint64`` words, overwritten here; ``top``
    holds bits 128 and up, already shifted into place in limb 4
    (``1 << 24`` is a block's high bit).
    """
    u = np.uint64
    limb = u(_LIMB)
    np.bitwise_and(lo, limb, out=out[0])
    np.right_shift(lo, u(26), out=out[1])
    out[1] &= limb
    lo >>= u(52)
    np.left_shift(mid, u(12), out=out[2])
    out[2] |= lo
    out[2] &= limb
    np.right_shift(mid, u(14), out=out[3])
    out[3] &= limb
    mid >>= u(40)
    np.bitwise_or(mid, top, out=out[4])


def _chunk_positions(np, limbs, table):
    """Each chunk's value in nine 26-bit positions, a ``(chunks, 9)`` array.

    ``limbs`` is ``(5, chunks, k)``: limb ``a`` of block ``i`` of each
    chunk. ``table`` is ``(k, 5)``: limb ``b`` of the power of ``r``
    that block ``i`` is multiplied by. Position ``t`` sums the products
    with ``a + b = t``.
    """
    products = np.matmul(limbs, table)  # (5, chunks, 5): [a, chunk, b]
    positions = np.zeros((products.shape[1], 9), dtype=np.uint64)
    for a in range(5):
        positions[:, a : a + 5] += products[a]
    return positions


def _lanes(np, r: int, message: bytes, nblocks: int) -> int:
    """The accumulator after the first ``nblocks`` blocks of ``message``.

    Zero limbs pad the blocks at the front to a whole number of chunks:
    a zero block without its high bit leaves a zero accumulator at zero.
    """
    powers = [r]
    for _ in range(_CHUNK - 1):
        powers.append(powers[-1] * r % _PRIME)
    rk = powers[-1]
    # Row i of the table is r^(k-i), each power as three 64-bit words.
    words = np.frombuffer(
        b"".join([x.to_bytes(24, "little") for x in reversed(powers)]), dtype="<u8"
    ).reshape(_CHUNK, 3).T.astype(np.uint64, order="C")
    table = np.empty((5, _CHUNK), dtype=np.uint64)
    words[2] <<= np.uint64(24)
    _split(np, words[0], words[1], words[2], table)

    pad = -nblocks % _CHUNK
    halves = np.frombuffer(message, dtype="<u8", count=2 * nblocks)
    halves = halves.reshape(nblocks, 2).T.astype(np.uint64, order="C")
    limbs = np.zeros((5, pad + nblocks), dtype=np.uint64)
    _split(np, halves[0], halves[1], np.uint64(1 << 24), limbs[:, pad:])

    positions = _chunk_positions(np, limbs.reshape(5, -1, _CHUNK), table.T)
    accumulator = 0
    for p0, p1, p2, p3, p4, p5, p6, p7, p8 in positions.tolist():
        accumulator = (
            accumulator * rk + p0 + (p1 << 26) + (p2 << 52) + (p3 << 78) + (p4 << 104)
            + (p5 << 130) + (p6 << 156) + (p7 << 182) + (p8 << 208)
        ) % _PRIME
    return accumulator


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under ``key``."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"Poly1305 key must be {KEY_SIZE} bytes, got {len(key)}")

    r = int.from_bytes(key[:16], "little") & _CLAMP
    s = int.from_bytes(key[16:], "little")

    size = len(message)
    np = numpy_or_none() if size >= _LANE_MIN_BYTES else None
    if np is not None:
        done = size - size % 16
        accumulator = _lanes(np, r, message, done // 16)
    else:
        done = size - size % _GROUP_BYTES
        if done <= _GROUP_BYTES:
            done = 0  # one group does not repay computing the powers
        accumulator = _grouped(r, message, done) if done else 0
    for offset in range(done, size, 16):
        block = message[offset : offset + 16]
        n = int.from_bytes(block + b"\x01", "little")
        accumulator = ((accumulator + n) * r) % _PRIME

    tag = (accumulator + s) & _MASK128
    return tag.to_bytes(16, "little")
