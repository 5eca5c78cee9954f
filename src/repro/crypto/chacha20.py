"""ChaCha20 stream cipher (RFC 8439 §2.1–2.4): a scalar block and numpy lanes.

The block function operates on a 4x4 state of 32-bit words: 4 constant
words, 8 key words, a block counter, and 3 nonce words. Twenty rounds
(10 column + diagonal double-rounds) of the quarter-round function
produce a keystream block; encryption XORs the keystream with the
plaintext. Verified against the RFC test vectors in the test suite.

Two paths compute the same keystream, byte for byte:

* the scalar path (:func:`_scalar_keystream`) holds the state in 16
  locals and runs every quarter-round inline (:func:`_rounds`). Each
  local is a Python int carrying that word of *every* block of the
  message, one block per 64-bit lane, so one pass of the rounds makes
  the whole keystream. :func:`chacha20_block` uses it, and so does a
  message shorter than ``_LANE_MIN_BLOCKS`` blocks or any message when
  numpy is absent;
* the lane path (:func:`_lane_keystream`) computes every block at once
  in numpy ``uint32`` lanes: the state is a ``(16, nblocks)`` array,
  one row per word and one column per block, and each quarter-round
  step is an in-place add, xor or rotate over four rows at a time (a
  column round works on rows ``0-3, 4-7, 8-11, 12-15``; a diagonal
  round first rotates rows ``4-15`` into column position and back
  after).

:func:`chacha20_encrypt` then XORs the whole keystream into the message
in one operation: a numpy ``uint8`` xor on the lane path, a big-int xor
on the scalar path. numpy comes through
:func:`repro._optional.numpy_or_none`, so its ``_FORCE_FALLBACK`` hook
switches this module to the scalar path too.

The crossover ``_LANE_MIN_BLOCKS`` comes from a sweep of keystream
time (µs, the minimum over repeated runs) against message length in
64-byte blocks, on CPython 3.11, numpy 2.4, a shared 2-vCPU x86-64
host::

    blocks      1      2      4      8     16     32     64     80     96    128    256   1024
    scalar     84     80     85    103    128    176    311    362    426    622   1033   3812
    lanes     341    351    350    352    365    369    378    386    386    427    452    632

The lanes cost a flat ~0.35 ms (about 460 numpy calls) up to a hundred
blocks, while the scalar path grows with the width of its ints; they
tie near 88 blocks (5.5 KiB).

The AEAD (:mod:`repro.crypto.aead`) calls :func:`chacha20_encrypt`
once per seal or open, from counter 0 over a zero block followed by the
message, so its Poly1305 key block rides in the same pass. The block
count that meets the crossover therefore includes block 0: a sealed
message takes the lanes from 87 blocks of its own.
"""

from __future__ import annotations

import struct

from repro._optional import numpy_or_none
from repro.errors import CryptoError

__all__ = ["chacha20_block", "chacha20_encrypt", "KEY_SIZE", "NONCE_SIZE", "BLOCK_SIZE"]

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_MASK32 = 0xFFFFFFFF
# "expand 32-byte k" as four little-endian words.
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
# Calls of at least this many blocks (for the AEAD, block 0 included)
# take the numpy lane path.
_LANE_MIN_BLOCKS = 88
# Row orders that move the diagonals of the 4x4 state into columns.
_ROT1, _ROT2, _ROT3 = [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]

_unpack_key = struct.Struct("<8L").unpack
_unpack_nonce = struct.Struct("<3L").unpack


def _check(key: bytes, counter: int, nonce: bytes, nblocks: int) -> None:
    """Reject a bad key, nonce or counter range before any output exists."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if not 0 <= counter <= _MASK32:
        raise CryptoError(f"ChaCha20 counter out of range: {counter}")
    if counter + nblocks - 1 > _MASK32:
        raise CryptoError(
            f"ChaCha20 counter overflows: {nblocks} blocks from {counter} pass 2^32-1"
        )


def _rounds(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15, m):
    """The 20 rounds over 16 state words; ``m`` masks each 32-bit lane."""
    for _ in range(10):
        # Column rounds: (0, 4, 8, 12) (1, 5, 9, 13) (2, 6, 10, 14) (3, 7, 11, 15).
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = (x12 << 16 | x12 >> 16) & m
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = (x4 << 12 | x4 >> 20) & m
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = (x12 << 8 | x12 >> 24) & m
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = (x4 << 7 | x4 >> 25) & m
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = (x13 << 16 | x13 >> 16) & m
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = (x5 << 12 | x5 >> 20) & m
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = (x13 << 8 | x13 >> 24) & m
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = (x5 << 7 | x5 >> 25) & m
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = (x14 << 16 | x14 >> 16) & m
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = (x6 << 12 | x6 >> 20) & m
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = (x14 << 8 | x14 >> 24) & m
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = (x6 << 7 | x6 >> 25) & m
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = (x15 << 16 | x15 >> 16) & m
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = (x7 << 12 | x7 >> 20) & m
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = (x15 << 8 | x15 >> 24) & m
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = (x7 << 7 | x7 >> 25) & m
        # Diagonal rounds: (0, 5, 10, 15) (1, 6, 11, 12) (2, 7, 8, 13) (3, 4, 9, 14).
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = (x15 << 16 | x15 >> 16) & m
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = (x5 << 12 | x5 >> 20) & m
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = (x15 << 8 | x15 >> 24) & m
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = (x5 << 7 | x5 >> 25) & m
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = (x12 << 16 | x12 >> 16) & m
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = (x6 << 12 | x6 >> 20) & m
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = (x12 << 8 | x12 >> 24) & m
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = (x6 << 7 | x6 >> 25) & m
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = (x13 << 16 | x13 >> 16) & m
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = (x7 << 12 | x7 >> 20) & m
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = (x13 << 8 | x13 >> 24) & m
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = (x7 << 7 | x7 >> 25) & m
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = (x14 << 16 | x14 >> 16) & m
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = (x4 << 12 | x4 >> 20) & m
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = (x14 << 8 | x14 >> 24) & m
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = (x4 << 7 | x4 >> 25) & m
    return x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15


def _scalar_keystream(key: bytes, counter: int, nonce: bytes, nblocks: int) -> bytes:
    """``nblocks`` keystream blocks, each state word one Python int.

    Word ``i`` of block ``j`` sits in bits ``64j .. 64j+31`` of local
    ``i``, so every int operation of :func:`_rounds` advances all blocks
    at once. Masking with ``m`` after each add and rotate clears the
    carries and the bits a shift moves into the 32 spare bits of a lane.
    """
    ones = int.from_bytes(b"\x01\0\0\0\0\0\0\0" * nblocks, "little")
    ramp = int.from_bytes(struct.pack(f"<{nblocks}Q", *range(nblocks)), "little")
    state = [word * ones for word in _CONSTANTS + _unpack_key(key) + (counter,)
             + _unpack_nonce(nonce)]
    state[12] += ramp
    m = _MASK32 * ones
    lanes = struct.Struct(f"<{nblocks}Q").unpack
    rows = [lanes(((x + s) & m).to_bytes(8 * nblocks, "little"))
            for x, s in zip(_rounds(*state, m), state)]
    return struct.pack(f"<{16 * nblocks}L", *[word for block in zip(*rows) for word in block])


def _lane_quarter(np, a, b, c, d, t) -> None:
    """The quarter-round on four rows at once, in place (``t`` is scratch)."""
    a += b; d ^= a; np.left_shift(d, 16, out=t); d >>= 16; d |= t
    c += d; b ^= c; np.left_shift(b, 12, out=t); b >>= 20; b |= t
    a += b; d ^= a; np.left_shift(d, 8, out=t); d >>= 24; d |= t
    c += d; b ^= c; np.left_shift(b, 7, out=t); b >>= 25; b |= t


def _lane_keystream(np, key: bytes, counter: int, nonce: bytes, nblocks: int) -> bytes:
    """``nblocks`` keystream blocks, each block one numpy lane."""
    word = np.dtype("<u4")
    state = np.empty((16, nblocks), dtype=word)
    state[0:4] = np.array(_CONSTANTS, dtype=word)[:, None]
    state[4:12] = np.frombuffer(key, dtype=word)[:, None]
    state[12] = np.arange(counter, counter + nblocks, dtype=np.int64)  # checked: no wrap
    state[13:16] = np.frombuffer(nonce, dtype=word)[:, None]
    a, b, c, d = (state[i : i + 4].copy() for i in (0, 4, 8, 12))
    t = np.empty_like(a)
    for _ in range(10):
        _lane_quarter(np, a, b, c, d, t)
        # Diagonals: row i of ``a`` meets rows i+1, i+2, i+3 (mod 4) of b, c, d.
        b, c, d = b[_ROT1], c[_ROT2], d[_ROT3]
        _lane_quarter(np, a, b, c, d, t)
        b, c, d = b[_ROT3], c[_ROT2], d[_ROT1]
    state[0:4] += a
    state[4:8] += b
    state[8:12] += c
    state[12:16] += d
    return state.T.tobytes()


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    _check(key, counter, nonce, 1)
    return _scalar_keystream(key, counter, nonce, 1)


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """Encrypt (or decrypt — the cipher is its own inverse) ``data``."""
    size = len(data)
    nblocks = -(-size // BLOCK_SIZE)
    _check(key, counter, nonce, nblocks)
    if not size:
        return b""
    np = numpy_or_none() if nblocks >= _LANE_MIN_BLOCKS else None
    if np is not None:
        keystream = _lane_keystream(np, key, counter, nonce, nblocks)
        mixed = np.frombuffer(data, np.uint8) ^ np.frombuffer(keystream, np.uint8, size)
        return mixed.tobytes()
    keystream = _scalar_keystream(key, counter, nonce, nblocks)
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(keystream[:size], "little")
    return mixed.to_bytes(size, "little")
