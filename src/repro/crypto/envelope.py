"""Envelope encryption: the structure DIY stores data under (§4).

Every stored object is encrypted under a fresh *data key*; the data key
is wrapped (encrypted) under a master key that lives in the key manager
and never leaves it. This mirrors Amazon KMS's ``GenerateDataKey`` /
``Decrypt`` API, which the paper's architecture relies on: the object
store only ever holds ``(wrapped data key, nonce, ciphertext)``.

The provider of master-key operations is abstract
(:class:`KeyProvider`), implemented by the simulated KMS (server side)
and by :class:`LocalMasterKey` (the user's own device). Unwrapping —
the step that makes plaintext reachable — is guarded by
:func:`repro.tcb.require_trusted`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import tcb
from repro.crypto.aead import NONCE_SIZE, open_sealed, seal
from repro.crypto.keys import Entropy, SymmetricKey, random_bytes
from repro.errors import CryptoError

__all__ = ["WrappedDataKey", "EncryptedBlob", "KeyProvider", "LocalMasterKey", "EnvelopeEncryptor"]

_MAGIC = b"DIY1"
# The longest key id or wrapped key a ``<H`` length prefix can frame.
_FIELD_MAX = 0xFFFF


@dataclass(frozen=True)
class WrappedDataKey:
    """A data key encrypted under a named master key."""

    master_key_id: str
    wrapped: bytes

    def serialize(self) -> bytes:
        key_id = self.master_key_id.encode()
        for name, field in (("master key id", key_id), ("wrapped key", self.wrapped)):
            if len(field) > _FIELD_MAX:
                raise CryptoError(
                    f"{name} of {len(field)} bytes exceeds the envelope's {_FIELD_MAX}"
                )
        return struct.pack("<H", len(key_id)) + key_id + struct.pack("<H", len(self.wrapped)) + self.wrapped

    @classmethod
    def deserialize(cls, data: bytes) -> Tuple["WrappedDataKey", int]:
        """Parse from a buffer; returns (key, bytes consumed)."""
        if len(data) < 2:
            raise CryptoError("truncated wrapped data key")
        (id_len,) = struct.unpack_from("<H", data, 0)
        offset = 2 + id_len
        if len(data) < offset + 2:
            raise CryptoError("truncated wrapped data key")
        try:
            master_key_id = data[2:offset].decode()
        except UnicodeDecodeError as exc:
            raise CryptoError(f"wrapped data key names no UTF-8 master key id ({exc})") from exc
        (wrapped_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if len(data) < offset + wrapped_len:
            raise CryptoError("truncated wrapped data key")
        wrapped = data[offset : offset + wrapped_len]
        return cls(master_key_id, wrapped), offset + wrapped_len


@dataclass(frozen=True)
class EncryptedBlob:
    """What actually lands in the object store: ciphertext plus envelope."""

    data_key: WrappedDataKey
    nonce: bytes
    ciphertext: bytes  # includes the AEAD tag

    def serialize(self) -> bytes:
        header = self.data_key.serialize()
        return _MAGIC + header + self.nonce + self.ciphertext

    @classmethod
    def deserialize(cls, data: bytes) -> "EncryptedBlob":
        if not data.startswith(_MAGIC):
            raise CryptoError("not a DIY envelope blob (bad magic)")
        body = data[len(_MAGIC) :]
        data_key, consumed = WrappedDataKey.deserialize(body)
        rest = body[consumed:]
        if len(rest) < NONCE_SIZE:
            raise CryptoError("truncated envelope blob")
        return cls(data_key, rest[:NONCE_SIZE], rest[NONCE_SIZE:])


class KeyProvider:
    """Master-key operations; implemented by the KMS and by local keys."""

    @property
    def master_key_id(self) -> str:
        raise NotImplementedError

    def generate_data_key(self) -> Tuple[bytes, WrappedDataKey]:
        """A fresh (plaintext data key, wrapped data key) pair."""
        raise NotImplementedError

    def unwrap(self, wrapped: WrappedDataKey) -> bytes:
        """Recover the plaintext data key. Must enforce the TCB guard."""
        raise NotImplementedError


class LocalMasterKey(KeyProvider):
    """A master key held on the user's own device (the CLIENT zone).

    Wrapping uses the same AEAD as payload encryption, with a random
    nonce prepended to the wrapped bytes.
    """

    def __init__(self, key: SymmetricKey, entropy: Optional[Entropy] = None):
        self._key = key
        self._entropy = entropy

    @property
    def master_key_id(self) -> str:
        return self._key.key_id

    def generate_data_key(self) -> Tuple[bytes, WrappedDataKey]:
        data_key = random_bytes(32, self._entropy)
        nonce = random_bytes(NONCE_SIZE, self._entropy)
        wrapped = nonce + seal(self._key.data, nonce, data_key, aad=b"diy-data-key")
        return data_key, WrappedDataKey(self.master_key_id, wrapped)

    def unwrap(self, wrapped: WrappedDataKey) -> bytes:
        tcb.require_trusted("data-key unwrap")
        if wrapped.master_key_id != self.master_key_id:
            raise CryptoError(
                f"blob wrapped under {wrapped.master_key_id}, not {self.master_key_id}"
            )
        nonce, sealed = wrapped.wrapped[:NONCE_SIZE], wrapped.wrapped[NONCE_SIZE:]
        return open_sealed(self._key.data, nonce, sealed, aad=b"diy-data-key")


class EnvelopeEncryptor:
    """Seal/open application payloads under a :class:`KeyProvider`.

    ``pad_to`` (optional) pads every plaintext up to the next multiple
    of the given bucket size before sealing, so ciphertext *lengths*
    stop mirroring message lengths. The paper's threat model explicitly
    leaves traffic analysis unprotected; this is the knob an application
    can turn to blunt the size channel at a storage/transfer premium
    (see the traffic-analysis tests).
    """

    def __init__(self, provider: KeyProvider, entropy: Optional[Entropy] = None,
                 pad_to: int = 0):
        if pad_to < 0:
            raise CryptoError("pad_to must be non-negative")
        self._provider = provider
        self._entropy = entropy
        self._pad_to = pad_to

    @property
    def master_key_id(self) -> str:
        return self._provider.master_key_id

    def _pad(self, plaintext: bytes) -> bytes:
        """Length-prefix framing plus zero fill to the bucket boundary."""
        framed = struct.pack("<I", len(plaintext)) + plaintext
        if self._pad_to:
            remainder = len(framed) % self._pad_to
            if remainder:
                framed += b"\x00" * (self._pad_to - remainder)
        return framed

    @staticmethod
    def _unpad(framed: bytes) -> bytes:
        if len(framed) < 4:
            raise CryptoError("padded plaintext shorter than its length prefix")
        (length,) = struct.unpack_from("<I", framed, 0)
        if length > len(framed) - 4:
            raise CryptoError("padding length prefix out of range")
        return framed[4 : 4 + length]

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> EncryptedBlob:
        """Encrypt under a fresh data key; safe to call anywhere (no plaintext escapes)."""
        data_key, wrapped = self._provider.generate_data_key()
        nonce = random_bytes(NONCE_SIZE, self._entropy)
        return EncryptedBlob(wrapped, nonce, seal(data_key, nonce, self._pad(plaintext), aad))

    def decrypt(self, blob: EncryptedBlob, aad: bytes = b"") -> bytes:
        """Decrypt a blob; only legal inside a trusted zone."""
        tcb.require_trusted("envelope decrypt")
        data_key = self._provider.unwrap(blob.data_key)
        return self._unpad(open_sealed(data_key, blob.nonce, blob.ciphertext, aad))

    def encrypt_bytes(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and serialize in one step (what gets PUT to storage)."""
        return self.encrypt(plaintext, aad).serialize()

    def decrypt_bytes(self, data: bytes, aad: bytes = b"") -> bytes:
        """Deserialize and decrypt in one step (after a GET from storage)."""
        return self.decrypt(EncryptedBlob.deserialize(data), aad)
