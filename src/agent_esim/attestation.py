"""Attestation tokens, software roots of trust, and the verifier.

A token claims that code with a given measurement runs in a given
environment during a validity window, and is signed by a root of trust
registered with the gateway: the verifiers take the roots as a plain
mapping of root id to 32-byte Ed25519 public key. Roots here are Ed25519
software keypairs standing in for hardware vendors; the verification logic
is the same as it would be against hardware-backed reports.

Check order is fixed: registered root, signature, validity window
(expired before not-yet-valid), then measurement against the profile
binding intersected with the policy allowlist. The first failing check
names the failure.
"""

from __future__ import annotations

import base64
import enum
import secrets
import time
from dataclasses import dataclass
from typing import Callable, Collection, Mapping

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import WireFormatError
from .policy import measurement_allowed
from .wire import (
    TOKEN_MAGIC,
    decode_fields,
    decode_timestamp,
    encode_fields,
    encode_timestamp,
)


class AttestationFailure(enum.Enum):
    UNKNOWN_ROOT = "UnknownRoot"
    BAD_SIGNATURE = "BadSignature"
    EXPIRED = "Expired"
    NOT_YET_VALID = "NotYetValid"
    MEASUREMENT_MISMATCH = "MeasurementMismatch"


@dataclass(frozen=True)
class AttestationToken:
    measurement: bytes      # 32-byte code hash
    environment_id: str     # VM UUID / enclave id
    issued_at: float
    expires_at: float
    nonce: bytes            # 16 bytes
    root_id: str
    signature: bytes

    def signed_payload(self) -> bytes:
        return token_signing_payload(
            self.measurement,
            self.environment_id,
            self.issued_at,
            self.expires_at,
            self.nonce,
            self.root_id,
        )

    def to_wire(self) -> bytes:
        return self.signed_payload() + encode_fields(self.signature)

    def to_header(self) -> str:
        return base64.b64encode(self.to_wire()).decode("ascii")

    @classmethod
    def from_wire(cls, raw: bytes) -> "AttestationToken":
        if not raw.startswith(TOKEN_MAGIC):
            raise WireFormatError("bad attestation token magic")
        fields = decode_fields(raw[len(TOKEN_MAGIC):], expected=7)
        measurement, env, issued, expires, nonce, root_id, signature = fields
        if len(measurement) != 32 or len(nonce) != 16:
            raise WireFormatError("bad attestation field length")
        try:
            environment_id = env.decode("utf-8")
            root = root_id.decode("utf-8")
        except UnicodeDecodeError as err:
            raise WireFormatError(f"bad attestation string field: {err}") from err
        return cls(
            measurement=measurement,
            environment_id=environment_id,
            issued_at=decode_timestamp(issued),
            expires_at=decode_timestamp(expires),
            nonce=nonce,
            root_id=root,
            signature=signature,
        )

    @classmethod
    def from_header(cls, header: str) -> "AttestationToken":
        try:
            raw = base64.b64decode(header, validate=True)
        except (ValueError, TypeError) as err:
            raise WireFormatError(f"bad attestation header encoding: {err}") from err
        return cls.from_wire(raw)


def token_signing_payload(
    measurement: bytes,
    environment_id: str,
    issued_at: float,
    expires_at: float,
    nonce: bytes,
    root_id: str,
) -> bytes:
    return TOKEN_MAGIC + encode_fields(
        measurement,
        environment_id.encode("utf-8"),
        encode_timestamp(issued_at),
        encode_timestamp(expires_at),
        nonce,
        root_id.encode("utf-8"),
    )


class SoftwareRootOfTrust:
    """Emulated TEE vendor key: issues signed measurement reports."""

    def __init__(self, root_id: str, private_key: Ed25519PrivateKey):
        self.root_id = root_id
        self._private_key = private_key

    @classmethod
    def generate(cls, root_id: str) -> "SoftwareRootOfTrust":
        return cls(root_id, Ed25519PrivateKey.generate())

    @property
    def public_key(self) -> bytes:
        return self._private_key.public_key().public_bytes_raw()

    def issue_token(
        self,
        measurement: bytes,
        environment_id: str,
        *,
        validity_seconds: float = 300.0,
        issued_at: float | None = None,
        nonce: bytes | None = None,
        clock: Callable[[], float] = time.time,
    ) -> AttestationToken:
        issued = clock() if issued_at is None else issued_at
        expires = issued + validity_seconds
        nonce = secrets.token_bytes(16) if nonce is None else nonce
        payload = token_signing_payload(
            measurement, environment_id, issued, expires, nonce, self.root_id
        )
        return AttestationToken(
            measurement=measurement,
            environment_id=environment_id,
            issued_at=issued,
            expires_at=expires,
            nonce=nonce,
            root_id=self.root_id,
            signature=self._private_key.sign(payload),
        )


def verify_token_integrity(
    token: AttestationToken, roots: Mapping[str, bytes], now: float
) -> AttestationFailure | None:
    """Root, signature, and window checks (everything except measurement)."""
    key = roots.get(token.root_id)
    if key is None:
        return AttestationFailure.UNKNOWN_ROOT
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(
            token.signature, token.signed_payload()
        )
    except (InvalidSignature, ValueError):
        return AttestationFailure.BAD_SIGNATURE
    if now > token.expires_at:
        return AttestationFailure.EXPIRED
    if now < token.issued_at:
        return AttestationFailure.NOT_YET_VALID
    return None


def verify_attestation(
    token: AttestationToken,
    binding,
    now: float,
    *,
    roots: Mapping[str, bytes],
    measurement_allowlist: Collection[bytes] = frozenset(),
) -> AttestationFailure | None:
    """Full verification; returns the first failing check or None when ok."""
    failure = verify_token_integrity(token, roots, now)
    if failure is not None:
        return failure
    if not measurement_allowed(
        token.measurement, binding.expected_measurements, measurement_allowlist
    ):
        return AttestationFailure.MEASUREMENT_MISMATCH
    return None
