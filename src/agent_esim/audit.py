"""Hash-chained, append-only audit trail.

Every identity operation the gateway mediates lands here exactly once,
before its response is released. Each record hashes its own fields plus
the previous record's hash, so any mutation, deletion, or reorder of the
stored log is detectable; sequence numbers are dense from 1 and the
genesis record chains from 32 zero bytes. A truncated tail is still a
valid (shorter) chain and is reported by length, not as a break.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from .recordlog import RecordLog, iter_records, read_prefix
from .wire import encode_fields, sha256

AUDIT_HEADER = "AESIM-AUDIT/1"
GENESIS_PREV_HASH = bytes(32)


class AuditOperation(enum.Enum):
    PROVISION = "Provision"
    SIGN = "Sign"
    AUTHENTICATE = "Authenticate"
    STATUS = "Status"
    STATE_CHANGE = "StateChange"
    POLICY_UPDATE = "PolicyUpdate"
    DENY = "Deny"


@dataclass(frozen=True)
class AuditOutcome:
    kind: str              # "allowed" | "denied" | "error"
    detail: str | None = None

    @classmethod
    def allowed(cls, detail: str | None = None) -> "AuditOutcome":
        return cls("allowed", detail)

    @classmethod
    def denied(cls, reason: str) -> "AuditOutcome":
        return cls("denied", reason)

    @classmethod
    def error(cls, kind: str) -> "AuditOutcome":
        return cls("error", kind)


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    timestamp_us: int
    profile_id: str
    operation: AuditOperation
    outcome: AuditOutcome
    request_digest: bytes
    prev_hash: bytes
    record_hash: bytes

    def compute_hash(self) -> bytes:
        return record_hash(
            self.seq,
            self.timestamp_us,
            self.profile_id,
            self.operation,
            self.outcome,
            self.request_digest,
            self.prev_hash,
        )

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "timestamp_us": self.timestamp_us,
            "profile_id": self.profile_id,
            "operation": self.operation.value,
            "outcome": self.outcome.kind,
            "detail": self.outcome.detail,
            "request_digest": self.request_digest.hex(),
            "prev_hash": self.prev_hash.hex(),
            "record_hash": self.record_hash.hex(),
        }

    @classmethod
    def from_json(cls, rec: dict) -> "AuditRecord":
        return cls(
            seq=int(rec["seq"]),
            timestamp_us=int(rec["timestamp_us"]),
            profile_id=rec["profile_id"],
            operation=AuditOperation(rec["operation"]),
            outcome=AuditOutcome(kind=rec["outcome"], detail=rec.get("detail")),
            request_digest=bytes.fromhex(rec["request_digest"]),
            prev_hash=bytes.fromhex(rec["prev_hash"]),
            record_hash=bytes.fromhex(rec["record_hash"]),
        )


def record_hash(
    seq: int,
    timestamp_us: int,
    profile_id: str,
    operation: AuditOperation,
    outcome: AuditOutcome,
    request_digest: bytes,
    prev_hash: bytes,
) -> bytes:
    return sha256(
        encode_fields(
            seq.to_bytes(8, "big"),
            timestamp_us.to_bytes(8, "big"),
            profile_id.encode("utf-8"),
            operation.value.encode("ascii"),
            outcome.kind.encode("ascii"),
            (outcome.detail or "").encode("utf-8"),
            request_digest,
            prev_hash,
        )
    )


@dataclass(frozen=True)
class ChainStatus:
    ok: bool
    length: int
    first_bad_seq: int | None = None

    def to_json(self) -> dict:
        payload = {"ok": self.ok, "length": self.length}
        if not self.ok:
            payload["first_bad_seq"] = self.first_bad_seq
        return payload


class AuditLog:
    """Durable writer: every append is flushed (and fsynced) before return."""

    def __init__(
        self,
        state_dir: str | Path,
        *,
        sync: bool = True,
        clock: Callable[[], float] = time.time,
    ):
        self.path = Path(state_dir) / "audit.log"
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._last_hash = GENESIS_PREV_HASH
        self._log = RecordLog(self.path, AUDIT_HEADER, self._apply, sync=sync)

    def _apply(self, rec: dict) -> None:
        self._seq = int(rec["seq"])
        self._last_hash = bytes.fromhex(rec["record_hash"])

    def append(
        self,
        profile_id: str,
        operation: AuditOperation,
        outcome: AuditOutcome,
        request_digest: bytes,
    ) -> AuditRecord:
        with self._lock:
            record = AuditRecord(
                seq=self._seq + 1,
                timestamp_us=int(self._clock() * 1_000_000),
                profile_id=profile_id,
                operation=operation,
                outcome=outcome,
                request_digest=request_digest,
                prev_hash=self._last_hash,
                record_hash=GENESIS_PREV_HASH,  # placeholder until hashed
            )
            record = replace(record, record_hash=record.compute_hash())
            self._log.append(record.to_json())  # raises StorageFailure on error
            return record

    def records(self) -> list[AuditRecord]:
        return load_audit_records(self.path)

    def verify(self) -> ChainStatus:
        return verify_audit_chain(self.records())

    def close(self) -> None:
        self._log.close()


def load_audit_records(path: str | Path) -> list[AuditRecord]:
    return [AuditRecord.from_json(rec) for rec in iter_records(path, AUDIT_HEADER)]


def verify_audit_chain(records: Iterable[AuditRecord]) -> ChainStatus:
    """Recompute the chain; the first position that fails names the break.

    Position k (1-based) fails when the stored record's seq is not k, its
    prev_hash does not equal the previous record's hash, or its record_hash
    does not match recomputation.
    """
    prev_hash = GENESIS_PREV_HASH
    count = 0
    for position, record in enumerate(records, start=1):
        if (
            record.seq != position
            or record.prev_hash != prev_hash
            or record.record_hash != record.compute_hash()
        ):
            return ChainStatus(ok=False, length=position - 1, first_bad_seq=position)
        prev_hash = record.record_hash
        count = position
    return ChainStatus(ok=True, length=count)


def verify_audit_file(path: str | Path) -> ChainStatus:
    """Verify a stored log; unreadable storage (a wrong header, a record that
    does not decode, an incomplete final frame) counts as a break at the
    first unreadable position."""
    stored, whole = read_prefix(path, AUDIT_HEADER)
    readable: list[AuditRecord] = []
    for rec in stored:
        try:
            readable.append(AuditRecord.from_json(rec))
        except (KeyError, TypeError, ValueError):
            whole = False
            break
    status = verify_audit_chain(readable)
    if status.ok and not whole:
        return ChainStatus(ok=False, length=status.length, first_bad_seq=status.length + 1)
    return status
