"""ChaCha20, Poly1305 and the AEAD against the ``cryptography`` package.

``cryptography`` is a test-only oracle: the program never imports it,
and this module is skipped where it is not installed. Hypothesis draws
messages of 0 to 3 KiB; the explicit cases sit on the edges of a block,
of Poly1305's 8-block groups, of the numpy lane crossover and of a
64 KiB file. The AEAD runs its Poly1305 key block and its message
through one keystream call, so its crossover falls one block earlier
than the cipher's: every length across it is checked, with numpy on
and off.
"""

import pytest
from hypothesis import given, strategies as st

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms  # noqa: E402
from cryptography.hazmat.primitives.ciphers.aead import (  # noqa: E402
    ChaCha20Poly1305 as OracleAead,
)
from cryptography.hazmat.primitives.poly1305 import Poly1305 as OraclePoly1305  # noqa: E402

from repro import _optional  # noqa: E402
from repro.crypto import chacha20  # noqa: E402
from repro.crypto.aead import open_sealed, seal  # noqa: E402
from repro.crypto.chacha20 import _LANE_MIN_BLOCKS, BLOCK_SIZE, chacha20_encrypt  # noqa: E402
from repro.crypto.poly1305 import poly1305_mac  # noqa: E402

CROSSOVER = _LANE_MIN_BLOCKS * BLOCK_SIZE
EDGE_LENGTHS = sorted({
    0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257,
    CROSSOVER - BLOCK_SIZE, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, CROSSOVER + BLOCK_SIZE,
    64 * 1024, 64 * 1024 + 11,
})

keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=12, max_size=12)
messages = st.binary(max_size=3 * 1024)


def _message(length: int) -> bytes:
    return bytes((i * 131 + 7) & 0xFF for i in range(length))


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


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_edge_lengths_match_the_oracle(length):
    key, nonce, aad = bytes(range(32)), bytes(range(100, 112)), b"edge"
    plaintext = _message(length)
    sealed = OracleAead(key).encrypt(nonce, plaintext, aad)
    assert seal(key, nonce, plaintext, aad) == sealed
    assert open_sealed(key, nonce, sealed, aad) == plaintext
    assert poly1305_mac(key, plaintext) == OraclePoly1305.generate_tag(key, plaintext)


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
