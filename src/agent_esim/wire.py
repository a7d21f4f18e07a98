"""Canonical byte encodings shared by clients, services, and the audit trail.

Two rules keep every hash reproducible across processes:

* all variable-length values are framed with a 4-byte big-endian length;
* timestamps are encoded as integer microseconds, 8 bytes big-endian.

The request digest binds (operation, profile_id, payload fields) so the
caller and the gateway compute the identical value independently; audit
records and client transcripts join on it.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from .errors import WireFormatError

REQUEST_MAGIC = b"AESIM-REQ/1"
TOKEN_MAGIC = b"AESIM-AT/1"


def encode_fields(*fields: bytes) -> bytes:
    return b"".join([len(field).to_bytes(4, "big") + field for field in fields])


def decode_fields(raw: bytes, expected: int | None = None) -> list[bytes]:
    fields: list[bytes] = []
    pos = 0
    while pos < len(raw):
        if pos + 4 > len(raw):
            raise WireFormatError("truncated field header")
        n = int.from_bytes(raw[pos : pos + 4], "big")
        pos += 4
        if pos + n > len(raw):
            raise WireFormatError("field runs past end of buffer")
        fields.append(bytes(raw[pos : pos + n]))
        pos += n
    if expected is not None and len(fields) != expected:
        raise WireFormatError(f"expected {expected} fields, found {len(fields)}")
    return fields


def encode_timestamp(ts: float) -> bytes:
    us = int(round(ts * 1_000_000))
    if us < 0:
        raise WireFormatError("negative timestamp")
    return us.to_bytes(8, "big")


def decode_timestamp(raw: bytes) -> float:
    if len(raw) != 8:
        raise WireFormatError("timestamp must be 8 bytes")
    return int.from_bytes(raw, "big") / 1_000_000


def request_digest(operation: str, profile_id: str, payload: Mapping[str, bytes]) -> bytes:
    """32-byte digest of the canonical request serialization."""
    items: list[bytes] = [operation.encode("utf-8"), profile_id.encode("utf-8")]
    for key in sorted(payload):
        items.append(key.encode("utf-8"))
        items.append(payload[key])
    return hashlib.sha256(REQUEST_MAGIC + encode_fields(*items)).digest()


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def scan_for_secrets(blob: bytes, secrets: Iterable[bytes]) -> list[bytes]:
    """Return each secret that appears in `blob`, raw or hex-encoded.

    Used by the isolation checks: wire messages and reports are JSON, so a
    leaked key would most likely surface as its lowercase/uppercase hex.
    """
    lowered = blob.lower()
    hits = []
    for secret in secrets:
        if secret in blob or secret.hex().encode("ascii") in lowered:
            hits.append(secret)
    return hits
