"""ChaCha20 against the RFC 8439 test vectors, plus structural checks."""

import pytest

from repro import _optional
from repro.crypto import chacha20
from repro.crypto.chacha20 import BLOCK_SIZE, chacha20_block, chacha20_encrypt
from repro.errors import CryptoError

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_ENC_NONCE = bytes.fromhex("000000000000004a00000000")
SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
# RFC 8439 §2.3.2: the block at counter 1 under RFC_KEY and RFC_NONCE.
RFC_BLOCK = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
)
# RFC 8439 §2.4.2: SUNSCREEN encrypted from counter 1 under RFC_KEY and RFC_ENC_NONCE.
RFC_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42874d"
)


class TestRfc8439Vectors:
    def test_block_function_vector(self):
        assert chacha20_block(RFC_KEY, 1, RFC_NONCE) == RFC_BLOCK

    def test_encryption_vector(self):
        assert chacha20_encrypt(RFC_KEY, 1, RFC_ENC_NONCE, SUNSCREEN) == RFC_CIPHERTEXT

    def test_decryption_is_inverse(self):
        ciphertext = chacha20_encrypt(RFC_KEY, 1, RFC_ENC_NONCE, SUNSCREEN)
        assert chacha20_encrypt(RFC_KEY, 1, RFC_ENC_NONCE, ciphertext) == SUNSCREEN


class TestBlockFunction:
    def test_block_is_64_bytes(self):
        assert len(chacha20_block(RFC_KEY, 0, RFC_NONCE)) == BLOCK_SIZE

    def test_different_counters_differ(self):
        assert chacha20_block(RFC_KEY, 0, RFC_NONCE) != chacha20_block(RFC_KEY, 1, RFC_NONCE)

    def test_different_nonces_differ(self):
        other = bytes.fromhex("000000090000004b00000000")
        assert chacha20_block(RFC_KEY, 1, RFC_NONCE) != chacha20_block(RFC_KEY, 1, other)

    def test_rejects_short_key(self):
        with pytest.raises(CryptoError):
            chacha20_block(b"short", 0, RFC_NONCE)

    def test_rejects_bad_nonce(self):
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, 0, b"bad")

    def test_rejects_negative_counter(self):
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, -1, RFC_NONCE)

    def test_rejects_huge_counter(self):
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, 2**32, RFC_NONCE)


class TestEncrypt:
    def test_empty_plaintext(self):
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, b"") == b""

    def test_single_byte(self):
        out = chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, b"x")
        assert len(out) == 1
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, out) == b"x"

    def test_exact_block_boundary(self):
        data = bytes(BLOCK_SIZE * 2)
        out = chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, data)
        assert len(out) == len(data)
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, out) == data

    def test_ciphertext_differs_from_plaintext(self):
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, SUNSCREEN) != SUNSCREEN


class TestEncryptValidation:
    """Bad input fails before any output, whatever the message length."""

    @pytest.mark.parametrize("data", [b"", b"x", bytes(BLOCK_SIZE * 20)])
    def test_rejects_short_key(self, data):
        with pytest.raises(CryptoError, match="key"):
            chacha20_encrypt(b"short", 0, RFC_NONCE, data)

    @pytest.mark.parametrize("data", [b"", b"x", bytes(BLOCK_SIZE * 20)])
    def test_rejects_bad_nonce(self, data):
        with pytest.raises(CryptoError, match="nonce"):
            chacha20_encrypt(RFC_KEY, 0, b"bad", data)

    @pytest.mark.parametrize("counter", [-1, 2**32])
    def test_rejects_counter_out_of_range_on_empty_data(self, counter):
        with pytest.raises(CryptoError, match="counter"):
            chacha20_encrypt(RFC_KEY, counter, RFC_NONCE, b"")

    @pytest.mark.parametrize("blocks", [2, 20])
    def test_rejects_counter_range_past_the_last_block(self, blocks):
        # The last block would need counter 2^32 (scalar and lane paths alike).
        with pytest.raises(CryptoError, match="overflows"):
            chacha20_encrypt(RFC_KEY, 2**32 - blocks + 1, RFC_NONCE, bytes(BLOCK_SIZE * blocks))

    def test_rejects_one_byte_past_the_last_block(self):
        with pytest.raises(CryptoError, match="overflows"):
            chacha20_encrypt(RFC_KEY, 2**32 - 1, RFC_NONCE, bytes(BLOCK_SIZE + 1))

    def test_accepts_a_range_ending_on_the_last_counter(self):
        out = chacha20_encrypt(RFC_KEY, 2**32 - 1, RFC_NONCE, bytes(BLOCK_SIZE))
        assert out == chacha20_block(RFC_KEY, 2**32 - 1, RFC_NONCE)

    def test_keystream_is_the_concatenated_blocks(self):
        out = chacha20_encrypt(RFC_KEY, 7, RFC_NONCE, bytes(BLOCK_SIZE * 9 + 5))
        blocks = b"".join(chacha20_block(RFC_KEY, 7 + i, RFC_NONCE) for i in range(10))
        assert out == blocks[: len(out)]


CROSSOVER = chacha20._LANE_MIN_BLOCKS * BLOCK_SIZE
# 88 blocks was the crossover of the unrolled 16-word scalar path; the
# lanes now take those lengths from well above the crossover.
UNROLLED_CROSSOVER = 88 * BLOCK_SIZE
EDGE_LENGTHS = sorted({
    0, 1, 63, 64, 65,
    CROSSOVER - BLOCK_SIZE, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, CROSSOVER + BLOCK_SIZE,
    UNROLLED_CROSSOVER - BLOCK_SIZE, UNROLLED_CROSSOVER - 1, UNROLLED_CROSSOVER,
    UNROLLED_CROSSOVER + 1, UNROLLED_CROSSOVER + BLOCK_SIZE,
    64 * 1024, 64 * 1024 + 11,
})
# Block counts for the row-packed scalar path: 1-16 blocks, the crossover
# +-1 and a 64 KiB chunk's 1,024.
ROW_BLOCKS = [*range(1, 17), chacha20._LANE_MIN_BLOCKS - 1, chacha20._LANE_MIN_BLOCKS,
              chacha20._LANE_MIN_BLOCKS + 1, 1024]


class TestRowPath:
    """The row-packed scalar keystream, called directly, whatever the crossover."""

    def test_rfc_block_function_vector(self):
        assert chacha20._scalar_keystream(RFC_KEY, 1, RFC_NONCE, 1) == RFC_BLOCK

    def test_rfc_encryption_vector(self):
        keystream = chacha20._scalar_keystream(RFC_KEY, 1, RFC_ENC_NONCE, 2)
        assert bytes(a ^ b for a, b in zip(SUNSCREEN, keystream)) == RFC_CIPHERTEXT

    @pytest.mark.parametrize("nblocks", ROW_BLOCKS)
    @pytest.mark.parametrize("where", ["zero", "one", "last"])
    def test_rows_match_the_numpy_lanes(self, nblocks, where):
        np = pytest.importorskip("numpy")
        counter = {"zero": 0, "one": 1, "last": 2**32 - nblocks}[where]
        key, nonce = bytes(range(7, 39)), bytes(range(200, 212))
        rows = chacha20._scalar_keystream(key, counter, nonce, nblocks)
        assert rows == chacha20._lane_keystream(np, key, counter, nonce, nblocks)
        assert rows[-BLOCK_SIZE:] == chacha20_block(key, counter + nblocks - 1, nonce)


class TestNumpyFallbackIdentity:
    """The numpy lanes and the scalar block give the same keystream."""

    @staticmethod
    def _both(monkeypatch, counter, length):
        data = bytes(length)
        with_numpy = chacha20_encrypt(RFC_KEY, counter, RFC_NONCE, data)
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        return with_numpy, chacha20_encrypt(RFC_KEY, counter, RFC_NONCE, data)

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_keystream_identical_without_numpy(self, monkeypatch, length):
        with_numpy, without = self._both(monkeypatch, 1, length)
        assert with_numpy == without
        assert len(with_numpy) == length

    @pytest.mark.parametrize("length", EDGE_LENGTHS[1:])
    def test_keystream_identical_up_to_the_last_counter(self, monkeypatch, length):
        # The last block uses counter 2^32-1; a wrapping uint32 lane
        # counter would repeat block 0's keystream there instead.
        last_start = (length - 1) // BLOCK_SIZE * BLOCK_SIZE
        counter = 2**32 - 1 - last_start // BLOCK_SIZE
        with_numpy, without = self._both(monkeypatch, counter, length)
        assert with_numpy == without
        last = chacha20_block(RFC_KEY, 2**32 - 1, RFC_NONCE)
        assert with_numpy[last_start:] == last[: length - last_start]

    def test_lanes_run_from_the_crossover_and_only_with_numpy(self, monkeypatch):
        pytest.importorskip("numpy")
        calls = []
        lanes = chacha20._lane_keystream

        def spy(np, key, counter, nonce, nblocks):
            calls.append(nblocks)
            return lanes(np, key, counter, nonce, nblocks)

        monkeypatch.setattr(chacha20, "_lane_keystream", spy)
        chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, bytes(CROSSOVER - BLOCK_SIZE))
        chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, bytes(CROSSOVER - BLOCK_SIZE + 1))
        assert calls == [chacha20._LANE_MIN_BLOCKS]
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, bytes(CROSSOVER))
        assert calls == [chacha20._LANE_MIN_BLOCKS]
