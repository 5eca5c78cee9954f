"""Envelope encryption: round-trips, serialization, and the TCB guard."""

import pytest
from hypothesis import given, strategies as st

from repro import tcb
from repro.crypto.envelope import (
    EncryptedBlob,
    EnvelopeEncryptor,
    LocalMasterKey,
    WrappedDataKey,
)
from repro.crypto.keys import SymmetricKey
from repro.errors import AuthenticationFailure, CryptoError, PlaintextLeakError


@pytest.fixture
def encryptor():
    return EnvelopeEncryptor(LocalMasterKey(SymmetricKey(bytes(range(32)))))


class TestRoundTrip:
    def test_encrypt_decrypt_in_client_zone(self, encryptor):
        blob = encryptor.encrypt(b"dear diary", aad=b"mailbox")
        with tcb.zone(tcb.Zone.CLIENT, "alice-laptop"):
            assert encryptor.decrypt(blob, aad=b"mailbox") == b"dear diary"

    def test_bytes_round_trip(self, encryptor):
        data = encryptor.encrypt_bytes(b"payload", aad=b"a")
        with tcb.zone(tcb.Zone.CONTAINER, "fn"):
            assert encryptor.decrypt_bytes(data, aad=b"a") == b"payload"

    def test_fresh_data_key_per_object(self, encryptor):
        one = encryptor.encrypt(b"same plaintext")
        two = encryptor.encrypt(b"same plaintext")
        assert one.data_key.wrapped != two.data_key.wrapped
        assert one.ciphertext != two.ciphertext

    def test_ciphertext_hides_plaintext(self, encryptor):
        data = encryptor.encrypt_bytes(b"the secret phrase 123")
        assert b"the secret phrase 123" not in data


class TestTcbGuard:
    def test_decrypt_outside_zone_raises(self, encryptor):
        blob = encryptor.encrypt(b"secret")
        with pytest.raises(PlaintextLeakError):
            encryptor.decrypt(blob)

    def test_encrypt_is_allowed_anywhere(self, encryptor):
        assert encryptor.encrypt(b"secret")  # no zone needed

    def test_all_zones_allow_decrypt(self, encryptor):
        blob = encryptor.encrypt(b"secret")
        for kind in (tcb.Zone.CONTAINER, tcb.Zone.CLIENT, tcb.Zone.ENCLAVE, tcb.Zone.KMS):
            with tcb.zone(kind, "principal"):
                assert encryptor.decrypt(blob) == b"secret"


class TestSerialization:
    def test_blob_round_trip(self, encryptor):
        blob = encryptor.encrypt(b"x" * 100, aad=b"z")
        parsed = EncryptedBlob.deserialize(blob.serialize())
        assert parsed == blob

    def test_bad_magic_rejected(self):
        with pytest.raises(CryptoError):
            EncryptedBlob.deserialize(b"NOPE" + bytes(64))

    def test_truncation_rejected(self, encryptor):
        data = encryptor.encrypt_bytes(b"payload")
        with pytest.raises(CryptoError):
            EncryptedBlob.deserialize(data[:10])

    def test_wrapped_key_round_trip(self):
        key = WrappedDataKey("master-1", b"\x01" * 60)
        parsed, consumed = WrappedDataKey.deserialize(key.serialize())
        assert parsed == key
        assert consumed == len(key.serialize())

    def test_a_non_utf8_key_id_is_a_crypto_error(self):
        # Starts like an envelope, but its 2-byte key id is not UTF-8.
        data = b"DIY1" + b"\x02\x00\xff\xfe" + b"\x00\x00" + bytes(40)
        with pytest.raises(CryptoError, match="UTF-8"):
            EncryptedBlob.deserialize(data)

    @pytest.mark.parametrize("key", [
        WrappedDataKey("k" * 65_536, b"\x01" * 60),
        WrappedDataKey("master-1", b"\x01" * 65_536),
    ], ids=["key-id", "wrapped"])
    def test_a_field_too_long_to_frame_is_a_crypto_error(self, key):
        with pytest.raises(CryptoError, match="exceeds the envelope's 65535"):
            key.serialize()

    def test_the_longest_fields_round_trip(self):
        key = WrappedDataKey("k" * 65_535, b"\x01" * 65_535)
        parsed, consumed = WrappedDataKey.deserialize(key.serialize())
        assert parsed == key and consumed == len(key.serialize())


class TestKeySeparation:
    def test_wrong_master_key_cannot_decrypt(self):
        enc_a = EnvelopeEncryptor(LocalMasterKey(SymmetricKey(bytes(range(32)))))
        enc_b = EnvelopeEncryptor(LocalMasterKey(SymmetricKey(bytes(range(1, 33)))))
        blob = enc_a.encrypt(b"secret")
        with tcb.zone(tcb.Zone.CLIENT, "mallory"):
            with pytest.raises((CryptoError, AuthenticationFailure)):
                enc_b.decrypt(blob)

    def test_wrong_aad_rejected(self, encryptor):
        blob = encryptor.encrypt(b"secret", aad=b"inbox")
        with tcb.zone(tcb.Zone.CLIENT, "alice"):
            with pytest.raises(AuthenticationFailure):
                encryptor.decrypt(blob, aad=b"spam")


@given(plaintext=st.binary(max_size=1024), aad=st.binary(max_size=32))
def test_property_envelope_round_trip(plaintext, aad):
    encryptor = EnvelopeEncryptor(LocalMasterKey(SymmetricKey(bytes(range(32)))))
    data = encryptor.encrypt_bytes(plaintext, aad=aad)
    with tcb.zone(tcb.Zone.CLIENT, "prop"):
        assert encryptor.decrypt_bytes(data, aad=aad) == plaintext
