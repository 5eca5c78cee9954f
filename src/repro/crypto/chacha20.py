"""ChaCha20 stream cipher (RFC 8439 §2.1–2.4): a scalar block and numpy lanes.

The block function operates on a 4x4 state of 32-bit words: 4 constant
words, 8 key words, a block counter, and 3 nonce words. Twenty rounds
(10 column + diagonal double-rounds) of the quarter-round function
produce a keystream block; encryption XORs the keystream with the
plaintext. Verified against the RFC test vectors in the test suite.

Two paths compute the same keystream, byte for byte:

* the scalar path (:func:`_scalar_keystream`) holds the state in four
  Python ints, one per row of the 4x4 state, in the row layout SIMD
  implementations use: row ``r`` carries word ``4r+c`` of block ``j``
  in 64-bit lane ``cn+j`` of an ``n``-block message. A column round is
  one quarter-round over the four ints, and a diagonal round is the
  same quarter-round between whole-int rotations of rows b, c and d by
  1, 2 and 3 columns, so one pass of 72 int operations per double
  round makes the whole keystream. :func:`chacha20_block` uses it, and
  so does a message shorter than ``_LANE_MIN_BLOCKS`` blocks or any
  message when numpy is absent;
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
host. ``unrolled`` is the scalar path the row layout replaced: 16
locals, one per state word, one block per lane, and all 32
quarter-rounds of a double round written out::

    blocks        1     2     4     6     8    16    24    32    48    56    62    64    96   128  1024
    rows         33    38    51    54    65   111   158   197   265   314   336   349   482   633  4864
    lanes       364   410   336   338   350   341   441   350   333   344   339   354   352   386   577
    unrolled     76    80    91    89    90   129   141   171   222   241   295   309   424   600  3569

The row path takes under half the unrolled path's time at one block
and about 60% at six, where chat's messages sit (2-7 blocks with the
AEAD's block 0). Its ints are four times wider, so from about 20
blocks it is the slower scalar path, and it ties with the lanes' flat
~0.35 ms (about 460 numpy calls) at 62 blocks (3.9 KiB). With numpy
absent the row path runs at every length; at 1,024 blocks (a 64 KiB
file chunk) it is about 36% slower than the unrolled path was.

The AEAD (:mod:`repro.crypto.aead`) calls :func:`chacha20_encrypt`
once per seal or open, from counter 0 over a zero block followed by the
message, so its Poly1305 key block rides in the same pass. The block
count that meets the crossover therefore includes block 0: a sealed
message takes the lanes from 61 blocks of its own.
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
_LANE_MIN_BLOCKS = 62
# Times a word to copy it into the spare high half of its 64-bit lane.
_ROTATE = (1 << 32) + 1
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


def _scalar_keystream(key: bytes, counter: int, nonce: bytes, nblocks: int) -> bytes:
    """``nblocks`` keystream blocks, each row of the 4x4 state one Python int.

    Row ``r`` holds word ``4r+c`` of block ``j`` in bits ``64(cn+j) ..
    64(cn+j)+31`` (``n`` = ``nblocks``), so one quarter-round over the
    four rows is the column round of every block. The diagonal round
    first rotates rows b, c and d by 1, 2 and 3 columns, each a
    whole-int shift by ``64n`` bits per column, and rotates them back
    after. A word rotation multiplies by ``2^32 + 1``, which copies each
    lane's word into its 32 spare bits, so a right shift by ``32 - k``
    leaves the word rotated left by ``k``. Masking with ``m`` after each
    add and rotate clears the carries and the bits a shift moves into
    the spare bits of a lane.
    """
    n = nblocks
    words = _CONSTANTS + _unpack_key(key) + (counter,) + _unpack_nonce(nonce)
    cells = [word.to_bytes(8, "little") * n for word in words]
    cells[12] = struct.pack(f"<{n}Q", *range(counter, counter + n))
    state = [int.from_bytes(b"".join(cells[i : i + 4]), "little") for i in (0, 4, 8, 12)]
    m = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * (4 * n), "little")
    s1, s2, s3 = 64 * n, 128 * n, 192 * n
    low1, low2, low3 = (1 << s1) - 1, (1 << s2) - 1, (1 << s3) - 1
    r = _ROTATE
    a, b, c, d = state
    for _ in range(10):
        a = (a + b) & m; d = (d ^ a) * r >> 16 & m
        c = (c + d) & m; b = (b ^ c) * r >> 20 & m
        a = (a + b) & m; d = (d ^ a) * r >> 24 & m
        c = (c + d) & m; b = (b ^ c) * r >> 25 & m
        # Diagonals: column i of ``a`` meets columns i+1, i+2, i+3 (mod 4) of b, c, d.
        b = b >> s1 | (b & low1) << s3; c = c >> s2 | (c & low2) << s2; d = d >> s3 | (d & low3) << s1
        a = (a + b) & m; d = (d ^ a) * r >> 16 & m
        c = (c + d) & m; b = (b ^ c) * r >> 20 & m
        a = (a + b) & m; d = (d ^ a) * r >> 24 & m
        c = (c + d) & m; b = (b ^ c) * r >> 25 & m
        b = b >> s3 | (b & low3) << s1; c = c >> s2 | (c & low2) << s2; d = d >> s1 | (d & low1) << s3
    lanes = struct.Struct(f"<{4 * n}Q")
    out = []
    for x, s in zip((a, b, c, d), state):
        out += lanes.unpack(((x + s) & m).to_bytes(32 * n, "little"))
    # ``out[w*n + j]`` is word w of block j, so block j is ``out[j::n]``.
    return struct.pack(f"<{16 * n}L", *[w for j in range(n) for w in out[j::n]])


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
