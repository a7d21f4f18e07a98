"""Audit chain construction, verification, and tamper detection."""

import json
import secrets
import shutil
import tracemalloc

import pytest

from agent_esim.audit import (
    AuditLog,
    AuditOperation,
    AuditOutcome,
    GENESIS_PREV_HASH,
    load_audit_records,
    verify_audit_chain,
    verify_audit_file,
)
from agent_esim.errors import StorageFailure
from agent_esim.recordlog import FrameWalk, write_frames


def append_n(log, n, profile_id="p-1"):
    records = []
    for i in range(n):
        records.append(
            log.append(
                profile_id,
                AuditOperation.SIGN,
                AuditOutcome.allowed(),
                secrets.token_bytes(32),
            )
        )
    return records


@pytest.fixture
def log(tmp_path):
    audit = AuditLog(tmp_path / "state")
    yield audit
    audit.close()


def test_genesis_prev_hash(log):
    record = append_n(log, 1)[0]
    assert record.seq == 1
    assert record.prev_hash == GENESIS_PREV_HASH


def test_chain_links_and_verifies(log):
    records = append_n(log, 25)
    for prev, cur in zip(records, records[1:]):
        assert cur.prev_hash == prev.record_hash
        assert cur.seq == prev.seq + 1
    status = log.verify()
    assert status.ok and status.length == 25


def test_reload_continues_chain(tmp_path):
    audit = AuditLog(tmp_path / "state")
    append_n(audit, 3)
    audit.close()
    reopened = AuditLog(tmp_path / "state")
    more = append_n(reopened, 2)
    assert more[0].seq == 4
    status = reopened.verify()
    assert status.ok and status.length == 5
    reopened.close()


def mutate_record(path, index, transform):
    with FrameWalk(path) as walk:
        header, frames = walk.header, list(walk)
    record = json.loads(frames[index])
    transform(record)
    frames[index] = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    write_frames(path, header, frames)


def test_mutation_detected_at_exact_record(log):
    append_n(log, 12)
    log.close()

    def flip_profile(record):
        record["profile_id"] = "someone-else"

    mutate_record(log.path, 6, flip_profile)  # seq 7
    status = verify_audit_file(log.path)
    assert not status.ok
    assert status.first_bad_seq == 7


def test_hash_field_mutation_detected(log):
    append_n(log, 8)
    log.close()

    def flip_hash(record):
        h = bytearray(bytes.fromhex(record["record_hash"]))
        h[0] ^= 0xFF
        record["record_hash"] = h.hex()

    mutate_record(log.path, 3, flip_hash)  # seq 4
    status = verify_audit_file(log.path)
    assert not status.ok and status.first_bad_seq == 4


def test_deletion_detected_at_gap(log):
    append_n(log, 10)
    log.close()
    with FrameWalk(log.path) as walk:
        header, frames = walk.header, list(walk)
    del frames[4]  # drop seq 5
    write_frames(log.path, header, frames)
    status = verify_audit_file(log.path)
    assert not status.ok and status.first_bad_seq == 5


def test_adjacent_swap_detected(log):
    append_n(log, 10)
    log.close()
    with FrameWalk(log.path) as walk:
        header, frames = walk.header, list(walk)
    frames[2], frames[3] = frames[3], frames[2]
    write_frames(log.path, header, frames)
    status = verify_audit_file(log.path)
    assert not status.ok and status.first_bad_seq == 3


def test_truncated_tail_is_valid_prefix(log):
    append_n(log, 10)
    log.close()
    with FrameWalk(log.path) as walk:
        header, frames = walk.header, list(walk)
    write_frames(log.path, header, frames[:6])
    status = verify_audit_file(log.path)
    assert status.ok and status.length == 6


def test_undecodable_record_is_a_break(log):
    append_n(log, 5)
    log.close()
    with FrameWalk(log.path) as walk:
        header, frames = walk.header, list(walk)
    frames[2] = b"\xff\xfenot json"
    write_frames(log.path, header, frames)
    status = verify_audit_file(log.path)
    assert not status.ok and status.first_bad_seq == 3


@pytest.mark.parametrize(
    "field, value", [("profile_id", 7), ("timestamp_us", -1), ("outcome", "ä"), ("detail", 5)]
)
def test_mistyped_field_is_a_break_not_a_crash(log, field, value):
    append_n(log, 3)
    log.close()
    mutate_record(log.path, 1, lambda record: record.__setitem__(field, value))  # seq 2
    status = verify_audit_file(log.path)
    assert (status.ok, status.length, status.first_bad_seq) == (False, 1, 2)


def test_append_failure_raises_storage_failure(log):
    append_n(log, 1)
    log._log.close()  # simulate a failed backing store
    with pytest.raises(StorageFailure):
        append_n(log, 1)


def test_load_roundtrip_preserves_hashes(log):
    records = append_n(log, 5)
    loaded = load_audit_records(log.path)
    assert [r.record_hash for r in loaded] == [r.record_hash for r in records]
    assert verify_audit_chain(r.to_json() for r in loaded).ok


def test_records_of_a_live_log_skip_an_append_in_flight(log):
    acknowledged = append_n(log, 2)
    with open(log.path, "ab") as fh:  # half of a frame another append is writing
        fh.write((200).to_bytes(4, "big") + b'{"seq":')
    records = log.records()
    assert [r.record_hash for r in records] == [r.record_hash for r in acknowledged]
    status = log.verify()
    assert status.ok and status.length == len(records)


def test_torn_final_record_is_a_break_after_the_intact_ones(tmp_path):
    audit = AuditLog(tmp_path / "state")
    kept = append_n(audit, 3)[:2]
    audit.close()
    torn = audit.path.read_bytes()[:-10]  # a crash in the middle of append 3
    audit.path.write_bytes(torn)
    status = verify_audit_file(audit.path)
    assert not status.ok and (status.length, status.first_bad_seq) == (2, 3)

    reopened = AuditLog(tmp_path / "state")
    assert reopened._log.dropped_bytes == len(torn) - audit.path.stat().st_size
    assert (reopened._seq, reopened._last_hash) == (2, kept[-1].record_hash)
    append_n(reopened, 1)
    reopened.close()
    status = verify_audit_file(audit.path)
    assert status.ok and status.length == 3


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checks_and_reopening_hold_memory_flat_as_the_log_grows(tmp_path):
    audit = AuditLog(tmp_path / "big", sync=False)
    peaks = {}
    for records in (2_000, 20_000):
        append_n(audit, records - audit._seq)
        state = tmp_path / f"copy-{records}"
        shutil.copytree(tmp_path / "big", state)
        peaks[records] = [
            _peak_bytes(audit.verify),
            _peak_bytes(lambda: verify_audit_file(state / "audit.log")),
            _peak_bytes(lambda: AuditLog(state, sync=False).close()),
        ]
    audit.close()
    for small, large in zip(peaks[2_000], peaks[20_000]):
        assert large - small < 1 << 20, peaks


def test_corrupt_length_inside_the_checkpointed_prefix_is_refused(tmp_path, capsys):
    """A reopen refuses to cut acknowledged records behind a corrupt length
    that the checkpoint vouched for; the offline check still names the break."""
    from agent_esim.cli import main

    state = tmp_path / "state"
    audit = AuditLog(state)
    append_n(audit, 400)
    audit.close()
    path = state / "audit.log"
    assert (state / "audit.log.ckpt").exists()
    with FrameWalk(path) as walk:  # where record 11 starts
        for _ in zip(range(10), walk):
            pass
        at = walk.end
    raw = bytearray(path.read_bytes())
    raw[at] ^= 0xFF  # its length now runs past the end of the file
    path.write_bytes(bytes(raw))

    with pytest.raises(StorageFailure, match=f"frame at byte {at} "):
        AuditLog(state)
    assert path.read_bytes() == bytes(raw)
    assert main(["--json", "audit-verify", "--log", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "length": 10, "first_bad_seq": 11}
