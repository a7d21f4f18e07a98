"""Hash-chained, append-only audit trail.

Every identity operation the gateway mediates lands here exactly once,
before its response is released. Each record hashes its own fields plus
the previous record's hash, so any mutation, deletion, or reorder of the
stored log is detectable; sequence numbers are dense from 1 and the
genesis record chains from 32 zero bytes. A truncated tail is still a
valid (shorter) chain and is reported by length, not as a break.

`record_hash` is the one statement of what a record commits to, and it
reads the record as stored: `append` stores the dict it hashed, the
checker rehashes each stored dict, and an `AuditRecord` is only built
from that form. It holds each fact once: no `prev_hash`, which the
checker carries from the record before, and no `detail` when there is
none. Records written before this form store `prev_hash`, and the checker
compares it where present, so old and mixed logs verify; an older checker
reports a break at the first newer record.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .errors import StorageFailure
from .recordlog import FrameWalk, RecordLog, decode_records, iter_records
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

    @classmethod
    def from_json(cls, rec: dict, prev_hash: bytes) -> "AuditRecord":
        """A stored record that follows the record whose hash is `prev_hash`."""
        return cls(
            seq=int(rec["seq"]),
            timestamp_us=int(rec["timestamp_us"]),
            profile_id=rec["profile_id"],
            operation=AuditOperation(rec["operation"]),
            outcome=AuditOutcome(kind=rec["outcome"], detail=rec.get("detail")),
            request_digest=bytes.fromhex(rec["request_digest"]),
            prev_hash=prev_hash,
            record_hash=bytes.fromhex(rec["record_hash"]),
        )


def record_hash(rec: dict, prev_hash: bytes) -> bytes:
    """The chain hash of the stored record `rec` after the record whose hash
    is `prev_hash`; an absent (or older, null) `detail` hashes as ""."""
    return sha256(
        encode_fields(
            int(rec["seq"]).to_bytes(8, "big"),
            int(rec["timestamp_us"]).to_bytes(8, "big"),
            rec["profile_id"].encode("utf-8"),
            rec["operation"].encode("ascii"),
            rec["outcome"].encode("ascii"),
            (rec.get("detail") or "").encode("utf-8"),
            bytes.fromhex(rec["request_digest"]),
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
    """Durable writer: every append is flushed (and fsynced) before return.
    Its log takes no snapshot, so it is never compacted: the chain is the
    history. It checkpoints instead, so a reopen applies the checkpointed
    prefix's last record and the records after it, not the whole chain;
    `verify()` and `records()` still read every record."""

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
        # The last record alone rebuilds this state, as the log's checkpoint
        # requires of a store that gives no snapshot.
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
            rec = {
                "seq": self._seq + 1,
                "timestamp_us": int(self._clock() * 1_000_000),
                "profile_id": profile_id,
                "operation": operation.value,
                "outcome": outcome.kind,
                "request_digest": request_digest.hex(),
            }
            if outcome.detail is not None:
                rec["detail"] = outcome.detail
            prev_hash = self._last_hash
            rec["record_hash"] = record_hash(rec, prev_hash).hex()
            self._log.append(rec)  # raises StorageFailure on error
            return AuditRecord.from_json(rec, prev_hash)

    def records(self) -> list[AuditRecord]:
        """The committed records: those `verify()` reads."""
        return load_audit_records(self.path, self._log.committed_end)

    def verify(self) -> ChainStatus:
        """Verify the committed prefix: the bytes up to the last acknowledged
        append, so an append still in flight is not read."""
        return verify_audit_file(self.path, self._log.committed_end)

    def close(self) -> None:
        self._log.close()


def load_audit_records(path: str | Path, end: int | None = None) -> list[AuditRecord]:
    records, prev_hash = [], GENESIS_PREV_HASH
    for rec in iter_records(path, AUDIT_HEADER, end):
        records.append(AuditRecord.from_json(rec, prev_hash))
        prev_hash = records[-1].record_hash
    return records


_OPERATIONS = frozenset(op.value for op in AuditOperation)


def _link_hash(rec: dict, position: int, prev_hash: bytes) -> bytes | None:
    """The stored hash of `rec` if it is a valid link at `position` after
    `prev_hash`, else None (a missing or malformed field counts as invalid)."""
    try:
        stored = bytes.fromhex(rec["record_hash"])
        valid = (
            int(rec["seq"]) == position
            and rec["operation"] in _OPERATIONS
            and ("prev_hash" not in rec or bytes.fromhex(rec["prev_hash"]) == prev_hash)
            and record_hash(rec, prev_hash) == stored
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
        return None
    return stored if valid else None


def verify_audit_chain(records: Iterable[dict]) -> ChainStatus:
    """Recompute the chain over stored records, one at a time; the first
    position that fails names the break.

    Position k (1-based) fails when the stored record's seq is not k, its
    operation is unknown, its stored prev_hash (if any) does not equal the
    previous record's hash, its record_hash does not match recomputation,
    or it cannot be read at all (`records` raising StorageFailure there).
    """
    prev_hash: bytes | None = GENESIS_PREV_HASH
    length = 0
    try:
        for rec in records:
            prev_hash = _link_hash(rec, length + 1, prev_hash)
            if prev_hash is None:
                break
            length += 1
    except StorageFailure:
        prev_hash = None
    if prev_hash is None:
        return ChainStatus(ok=False, length=length, first_bad_seq=length + 1)
    return ChainStatus(ok=True, length=length)


def verify_audit_file(path: str | Path, end: int | None = None) -> ChainStatus:
    """Verify a stored log, or its first `end` bytes, in one streaming pass;
    unreadable storage (a wrong header, a record that does not decode, an
    incomplete final frame) counts as a break at the first unreadable
    position."""
    with FrameWalk(path, end) as walk:
        status = verify_audit_chain(decode_records(walk, AUDIT_HEADER))
    if status.ok and walk.end < walk.size:
        return ChainStatus(ok=False, length=status.length, first_bad_seq=status.length + 1)
    return status
