"""ChaCha20, Poly1305 and the AEAD against the ``cryptography`` package.

``cryptography`` is a test-only oracle: the program never imports it,
and this module is skipped where it is not installed. Hypothesis draws
messages of 0 to 3 KiB, and Poly1305 lengths on both sides of its numpy
lane crossover; the explicit cases sit on the edges of a block, of
Poly1305's 8-block groups and 64-block lane chunks, of both numpy lane
crossovers and of a 64 KiB file, and run with numpy on and off. The
AEAD runs its Poly1305 key block and its message through one keystream
call, so its crossover falls one block earlier than the cipher's: every
length across it is checked, with numpy on and off. An all-0xff MiB
under the largest clamped ``r`` and a chunk of all-maximal limbs pin
the lane path's ``uint64`` bound.
"""

import contextlib
import random

import pytest
from hypothesis import given, strategies as st

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms  # noqa: E402
from cryptography.hazmat.primitives.ciphers.aead import (  # noqa: E402
    ChaCha20Poly1305 as OracleAead,
)
from cryptography.hazmat.primitives.poly1305 import Poly1305 as OraclePoly1305  # noqa: E402

from repro import _optional  # noqa: E402
from repro.crypto import chacha20, poly1305  # noqa: E402
from repro.crypto.aead import open_sealed, seal  # noqa: E402
from repro.crypto.chacha20 import _LANE_MIN_BLOCKS, BLOCK_SIZE, chacha20_encrypt  # noqa: E402
from repro.crypto.poly1305 import _CHUNK, _CLAMP, _LANE_MIN_BYTES, poly1305_mac  # noqa: E402

CROSSOVER = _LANE_MIN_BLOCKS * BLOCK_SIZE
# 88 blocks was the crossover of the unrolled 16-word scalar path.
UNROLLED_CROSSOVER = 88 * BLOCK_SIZE
# A lane chunk edge past the Poly1305 crossover: 16 whole chunks of blocks.
CHUNK_EDGE = 16 * _CHUNK * 16
EDGE_LENGTHS = sorted({
    0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257,
    CROSSOVER - BLOCK_SIZE, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, CROSSOVER + BLOCK_SIZE,
    UNROLLED_CROSSOVER - BLOCK_SIZE, UNROLLED_CROSSOVER - 1, UNROLLED_CROSSOVER,
    UNROLLED_CROSSOVER + 1, UNROLLED_CROSSOVER + BLOCK_SIZE,
    _LANE_MIN_BYTES - 16, _LANE_MIN_BYTES - 1, _LANE_MIN_BYTES, _LANE_MIN_BYTES + 1,
    _LANE_MIN_BYTES + 16,
    CHUNK_EDGE - 16, CHUNK_EDGE - 1, CHUNK_EDGE, CHUNK_EDGE + 1, CHUNK_EDGE + 16,
    64 * 1024, 64 * 1024 + 11,
})
NUMPY_ON_OFF = pytest.mark.parametrize("fallback", [False, True], ids=["numpy", "no-numpy"])
# Block counts for the row-packed scalar path: 1-16 blocks, the crossover
# +-1 and a 64 KiB chunk's 1,024.
ROW_BLOCKS = [*range(1, 17), _LANE_MIN_BLOCKS - 1, _LANE_MIN_BLOCKS, _LANE_MIN_BLOCKS + 1, 1024]

keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=12, max_size=12)
messages = st.binary(max_size=3 * 1024)


def _message(length: int) -> bytes:
    return bytes((i * 131 + 7) & 0xFF for i in range(length))


@contextlib.contextmanager
def _numpy(fallback: bool):
    """Run the block with numpy's lanes off (``fallback``) or on."""
    if not fallback:
        pytest.importorskip("numpy")
    saved, _optional._FORCE_FALLBACK = _optional._FORCE_FALLBACK, fallback
    try:
        yield
    finally:
        _optional._FORCE_FALLBACK = saved


def _oracle_keystream_xor(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    cipher = Cipher(algorithms.ChaCha20(key, counter.to_bytes(4, "little") + nonce), mode=None)
    return cipher.encryptor().update(data)


@given(key=keys, nonce=nonces, plaintext=messages, aad=st.binary(max_size=64))
def test_seal_and_open_match_the_oracle(key, nonce, plaintext, aad):
    sealed = OracleAead(key).encrypt(nonce, plaintext, aad)
    assert seal(key, nonce, plaintext, aad) == sealed
    assert open_sealed(key, nonce, sealed, aad) == plaintext


@given(key=keys, message=messages)
def test_poly1305_matches_the_oracle(key, message):
    assert poly1305_mac(key, message) == OraclePoly1305.generate_tag(key, message)


@given(key=keys, nonce=nonces, data=messages, counter=st.integers(0, 2**32 - 1))
def test_chacha20_matches_the_oracle_at_any_counter(key, nonce, data, counter):
    counter = min(counter, 2**32 - max(1, -(-len(data) // BLOCK_SIZE)))
    assert chacha20_encrypt(key, counter, nonce, data) == _oracle_keystream_xor(
        key, counter, nonce, data
    )


@given(key=keys, length=st.integers(0, 2 * _LANE_MIN_BYTES), seed=st.integers(0, 2**32 - 1))
def test_poly1305_across_its_crossover_matches_the_oracle(key, length, seed):
    message = random.Random(seed).randbytes(length)
    expected = OraclePoly1305.generate_tag(key, message)
    for fallback in (False, True):
        with _numpy(fallback):
            assert poly1305_mac(key, message) == expected, fallback


def _check_edge_length(length: int) -> None:
    key, nonce, aad = bytes(range(32)), bytes(range(100, 112)), b"edge"
    plaintext = _message(length)
    sealed = OracleAead(key).encrypt(nonce, plaintext, aad)
    assert seal(key, nonce, plaintext, aad) == sealed
    assert open_sealed(key, nonce, sealed, aad) == plaintext
    assert poly1305_mac(key, plaintext) == OraclePoly1305.generate_tag(key, plaintext)


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_edge_lengths_match_the_oracle(length):
    with _numpy(False):
        _check_edge_length(length)


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_edge_lengths_without_numpy_match_the_oracle(length):
    with _numpy(True):
        _check_edge_length(length)


@NUMPY_ON_OFF
def test_poly1305_lanes_run_exactly_from_the_crossover(monkeypatch, fallback):
    lane_calls = []
    lanes = poly1305._lanes

    def spy(np, r, message, nblocks):
        lane_calls.append(len(message))
        return lanes(np, r, message, nblocks)

    monkeypatch.setattr(poly1305, "_lanes", spy)
    key = bytes(range(32))
    lengths = [0, *range(_LANE_MIN_BYTES - 20, _LANE_MIN_BYTES + 20)]
    with _numpy(fallback):
        for length in lengths:
            message = _message(length)
            assert poly1305_mac(key, message) == OraclePoly1305.generate_tag(key, message), length
    assert lane_calls == ([] if fallback else [n for n in lengths if n >= _LANE_MIN_BYTES])


@NUMPY_ON_OFF
def test_all_ones_under_the_largest_r_matches_the_oracle(fallback):
    # Every message limb at its largest, under the largest clamped r.
    key = _CLAMP.to_bytes(16, "little") + b"\xff" * 16
    message = b"\xff" * (1 << 20)
    with _numpy(fallback):
        assert poly1305_mac(key, message) == OraclePoly1305.generate_tag(key, message)


def test_a_chunk_of_maximal_limbs_sums_exactly():
    # 5 k (2^26 - 1)^2 < 2^64 is the lane path's no-overflow bound: with
    # every limb and every table entry at 2^26 - 1, each position must
    # equal its exact integer sum.
    np = pytest.importorskip("numpy")
    top = (1 << 26) - 1
    limbs = np.full((5, 2, _CHUNK), top, dtype=np.uint64)
    table = np.full((_CHUNK, 5), top, dtype=np.uint64)
    pairs = [min(t, 8 - t, 4) + 1 for t in range(9)]  # (a, b) with a + b = t
    expected = [[n * _CHUNK * top * top for n in pairs]] * 2
    assert poly1305._chunk_positions(np, limbs, table).tolist() == expected


@NUMPY_ON_OFF
@pytest.mark.parametrize("nblocks", ROW_BLOCKS)
@pytest.mark.parametrize("counter", [0, 1, 2**31, None], ids=["0", "1", "2^31", "last"])
def test_row_path_matches_the_oracle(nblocks, counter, fallback):
    # ``None``: the last block takes counter 2^32-1.
    counter = 2**32 - nblocks if counter is None else counter
    key, nonce = bytes(range(50, 82)), bytes(range(12))
    zeros = bytes(nblocks * BLOCK_SIZE)
    expected = _oracle_keystream_xor(key, counter, nonce, zeros)
    assert chacha20._scalar_keystream(key, counter, nonce, nblocks) == expected
    data = _message(nblocks * BLOCK_SIZE - 5)
    with _numpy(fallback):
        assert chacha20_encrypt(key, counter, nonce, data) == _oracle_keystream_xor(
            key, counter, nonce, data
        )


@pytest.mark.parametrize("length", EDGE_LENGTHS[1:])
def test_edge_lengths_ending_on_the_last_counter_match_the_oracle(length):
    key, nonce = bytes(range(32)), bytes(range(100, 112))
    counter = 2**32 - -(-length // BLOCK_SIZE)
    data = _message(length)
    assert chacha20_encrypt(key, counter, nonce, data) == _oracle_keystream_xor(
        key, counter, nonce, data
    )


@pytest.mark.parametrize("fallback", [False, True], ids=["numpy", "no-numpy"])
def test_aead_across_the_fused_crossover_matches_the_oracle(monkeypatch, fallback):
    # Block 0 (the Poly1305 key) counts towards the crossover, so the
    # total block count 1 + ceil(n / 64) passes _LANE_MIN_BLOCKS here.
    if not fallback:
        pytest.importorskip("numpy")
    monkeypatch.setattr(_optional, "_FORCE_FALLBACK", fallback)
    lane_calls = []
    lanes = chacha20._lane_keystream

    def spy(np, key, counter, nonce, nblocks):
        lane_calls.append(nblocks)
        return lanes(np, key, counter, nonce, nblocks)

    monkeypatch.setattr(chacha20, "_lane_keystream", spy)
    key, nonce, aad = bytes(range(32)), bytes(range(100, 112)), b"fused"
    lengths = [0, *range((_LANE_MIN_BLOCKS - 2) * BLOCK_SIZE, CROSSOVER + 2)]
    for length in lengths:
        plaintext = _message(length)
        sealed = OracleAead(key).encrypt(nonce, plaintext, aad)
        assert seal(key, nonce, plaintext, aad) == sealed, length
        assert open_sealed(key, nonce, sealed, aad) == plaintext, length
    total_blocks = [1 + -(-length // BLOCK_SIZE) for length in lengths]
    assert min(total_blocks) < _LANE_MIN_BLOCKS < max(total_blocks)
    laned = [] if fallback else [b for b in total_blocks if b >= _LANE_MIN_BLOCKS]
    assert lane_calls == [b for b in laned for _ in ("seal", "open")]
