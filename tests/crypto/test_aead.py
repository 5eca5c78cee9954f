"""ChaCha20-Poly1305 AEAD: RFC 8439 §2.8.2 vector plus tamper/property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import chacha20
from repro.crypto.aead import ChaCha20Poly1305, open_sealed, seal
from repro.errors import AuthenticationFailure, CryptoError

RFC_KEY = bytes.fromhex(
    "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
)
RFC_NONCE = bytes.fromhex("070000004041424344454647")
RFC_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC_CIPHERTEXT = bytes.fromhex(
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b6116"
)
RFC_TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")


class TestRfcVector:
    def test_seal_matches_rfc(self):
        assert seal(RFC_KEY, RFC_NONCE, SUNSCREEN, RFC_AAD) == RFC_CIPHERTEXT + RFC_TAG

    def test_open_matches_rfc(self):
        assert open_sealed(RFC_KEY, RFC_NONCE, RFC_CIPHERTEXT + RFC_TAG, RFC_AAD) == SUNSCREEN


class TestTamperRejection:
    def test_flipped_ciphertext_bit_rejected(self):
        sealed = bytearray(seal(RFC_KEY, RFC_NONCE, SUNSCREEN, RFC_AAD))
        sealed[3] ^= 0x01
        with pytest.raises(AuthenticationFailure):
            open_sealed(RFC_KEY, RFC_NONCE, bytes(sealed), RFC_AAD)

    def test_flipped_tag_bit_rejected(self):
        sealed = bytearray(seal(RFC_KEY, RFC_NONCE, SUNSCREEN, RFC_AAD))
        sealed[-1] ^= 0x80
        with pytest.raises(AuthenticationFailure):
            open_sealed(RFC_KEY, RFC_NONCE, bytes(sealed), RFC_AAD)

    def test_wrong_aad_rejected(self):
        sealed = seal(RFC_KEY, RFC_NONCE, SUNSCREEN, RFC_AAD)
        with pytest.raises(AuthenticationFailure):
            open_sealed(RFC_KEY, RFC_NONCE, sealed, b"other aad")

    def test_wrong_nonce_rejected(self):
        sealed = seal(RFC_KEY, RFC_NONCE, SUNSCREEN, RFC_AAD)
        other = bytes(12)
        with pytest.raises(AuthenticationFailure):
            open_sealed(RFC_KEY, other, sealed, RFC_AAD)

    def test_wrong_key_rejected(self):
        sealed = seal(RFC_KEY, RFC_NONCE, SUNSCREEN, RFC_AAD)
        with pytest.raises(AuthenticationFailure):
            open_sealed(bytes(32), RFC_NONCE, sealed, RFC_AAD)

    def test_truncated_box_rejected(self):
        with pytest.raises(CryptoError):
            open_sealed(RFC_KEY, RFC_NONCE, b"tiny", RFC_AAD)


class TestOneKeystreamPass:
    """The Poly1305 key block and the message share one keystream pass."""

    @staticmethod
    def _count_passes(monkeypatch):
        passes = []
        for name in ("_scalar_keystream", "_lane_keystream"):
            original = getattr(chacha20, name)

            def spy(*args, _original=original, _name=name):
                passes.append(_name)
                return _original(*args)

            monkeypatch.setattr(chacha20, name, spy)
        return passes

    # The crossover, and 88 blocks, the crossover of the unrolled scalar path.
    @pytest.mark.parametrize("length", [0, 1, 64, 200, chacha20._LANE_MIN_BLOCKS * 64, 88 * 64])
    def test_seal_and_open_each_make_one_pass(self, monkeypatch, length):
        passes = self._count_passes(monkeypatch)
        plaintext = bytes(i & 0xFF for i in range(length))
        sealed = seal(RFC_KEY, RFC_NONCE, plaintext, RFC_AAD)
        assert len(passes) == 1
        assert open_sealed(RFC_KEY, RFC_NONCE, sealed, RFC_AAD) == plaintext
        assert len(passes) == 2

    def test_tampered_box_still_rejected_after_one_pass(self, monkeypatch):
        passes = self._count_passes(monkeypatch)
        sealed = bytearray(seal(RFC_KEY, RFC_NONCE, SUNSCREEN, RFC_AAD))
        sealed[0] ^= 0x80
        with pytest.raises(AuthenticationFailure):
            open_sealed(RFC_KEY, RFC_NONCE, bytes(sealed), RFC_AAD)
        assert len(passes) == 2


class TestObjectApi:
    def test_round_trip(self):
        aead = ChaCha20Poly1305(RFC_KEY)
        sealed = aead.seal(RFC_NONCE, b"secret", b"ctx")
        assert aead.open(RFC_NONCE, sealed, b"ctx") == b"secret"

    def test_rejects_bad_key_length(self):
        with pytest.raises(CryptoError):
            ChaCha20Poly1305(b"short")


@given(
    plaintext=st.binary(max_size=2048),
    aad=st.binary(max_size=64),
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
)
def test_property_round_trip(plaintext, aad, key, nonce):
    """seal then open is the identity for all inputs."""
    assert open_sealed(key, nonce, seal(key, nonce, plaintext, aad), aad) == plaintext


@given(
    plaintext=st.binary(min_size=8, max_size=512),
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
)
def test_property_ciphertext_hides_plaintext(plaintext, key, nonce):
    """The sealed box never contains the plaintext as a substring."""
    sealed = seal(key, nonce, plaintext)
    assert plaintext not in sealed
