"""Audit chain construction, verification, and tamper detection."""

import hashlib
import itertools
import json
import os
import secrets
import shutil
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agent_esim import audit as audit_module
from agent_esim.audit import (
    AUDIT_HEADER,
    AuditLog,
    AuditOperation,
    AuditOutcome,
    ChainStatus,
    GENESIS_PREV_HASH,
    load_audit_records,
    verify_audit_file,
)
from agent_esim.errors import StorageFailure
from agent_esim.recordlog import FrameWalk, iter_records, write_frames


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
    assert [r.prev_hash for r in loaded] == [r.prev_hash for r in records]


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


def _frame_starts(path) -> list[int]:
    """Where each frame of a log starts, then where the last one ends."""
    with FrameWalk(path) as walk:
        starts = [walk.end]
        for _ in walk:
            starts.append(walk.end)
    return starts


@pytest.mark.parametrize("kept", [200, 0])
def test_a_log_cut_below_its_checkpoint_refuses_to_reopen(tmp_path, capsys, kept):
    """A log cut at a frame boundary below the end its checkpoint saw durable
    (or cut to nothing) has lost acknowledged records: the reopen refuses
    instead of reusing seqs, and the offline check reads the checkpoint
    beside the log and names a break just after the records left."""
    from agent_esim.cli import main

    state = tmp_path / "state"
    audit = AuditLog(state)
    append_n(audit, 404)
    audit.close()
    path = state / "audit.log"
    end = _checkpoint_end(state)
    size = _frame_starts(path)[kept] if kept else 0
    assert size < end < path.stat().st_size
    os.truncate(path, size)
    cut = path.read_bytes()
    assert verify_audit_file(path) == ChainStatus(ok=False, length=kept, first_bad_seq=kept + 1)
    assert main(["audit-verify", "--log", str(path)]) == 1
    assert capsys.readouterr().out == f"audit chain BROKEN at seq {kept + 1} ({kept} records verified)\n"

    with pytest.raises(StorageFailure, match=f"audit.log: the log ends at byte {size}, .* {end} "):
        AuditLog(state)
    assert path.read_bytes() == cut
    assert main(["--state-dir", str(state), "status", "esim-x"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "audit.log" in err and f"{end}" in err


def test_stored_records_hold_no_prev_hash_and_no_null_detail(log):
    log.append("p-1", AuditOperation.SIGN, AuditOutcome.allowed(), bytes(32))
    log.append("p-1", AuditOperation.SIGN, AuditOutcome.denied("RateLimit"), bytes(32))
    log.append("p-1", AuditOperation.SIGN, AuditOutcome.error("VaultError"), bytes(32))
    raw = log.path.read_bytes()
    assert b"prev_hash" not in raw and b'"detail":null' not in raw
    stored = list(iter_records(log.path, AUDIT_HEADER))
    assert ["detail" in record for record in stored] == [False, True, True]
    assert verify_audit_file(log.path).ok


# An audit.log in the form that stores `prev_hash` and a null `detail` in
# every record, written by the code before that form was dropped: 300
# records (allowed, denied and error outcomes over seven operation kinds,
# five profiles, a clock stepping 1 ms from 1_760_000_000 s, and request
# digests sha256(b"fixture %d" % i)), with the checkpoint it wrote at 64 KiB.
OLDER_FORM = Path(__file__).parent / "data" / "audit-with-prev-hash"


@pytest.fixture
def older(tmp_path):
    """A copy of the older-form state directory."""
    return Path(shutil.copytree(OLDER_FORM, tmp_path / "older"))


def _checkpoint_end(state) -> int:
    (point,) = iter_records(state / "audit.log.ckpt", AUDIT_HEADER)
    return point["end"]


def test_a_log_in_the_older_form_verifies_and_reopens_from_its_checkpoint(older):
    stored = list(iter_records(older / "audit.log", AUDIT_HEADER))
    assert all("prev_hash" in record and "detail" in record for record in stored)
    assert {record["outcome"] for record in stored} == {"allowed", "denied", "error"}
    assert verify_audit_file(older / "audit.log") == ChainStatus(ok=True, length=300)
    records = load_audit_records(older / "audit.log")
    assert [r.prev_hash.hex() for r in records] == [record["prev_hash"] for record in stored]

    reopened = AuditLog(older, sync=False)
    assert reopened._log._checkpoint_end == _checkpoint_end(older)
    assert (reopened._seq, reopened._last_hash) == (300, records[-1].record_hash)
    reopened.close()


def _mixed(older) -> Path:
    """The older log with 300 records of the stored form appended, across a
    checkpoint; returns its path."""
    audit = AuditLog(older, sync=False)
    append_n(audit, 300)
    audit.close()
    return audit.path


def test_records_appended_to_an_older_log_verify_and_reopen_from_a_checkpoint(older):
    old_size = (older / "audit.log").stat().st_size
    path = _mixed(older)
    assert _checkpoint_end(older) > old_size  # a checkpoint over both forms
    assert verify_audit_file(path) == ChainStatus(ok=True, length=600)
    records = load_audit_records(path)
    assert all(cur.prev_hash == prev.record_hash for prev, cur in zip(records, records[1:]))

    reopened = AuditLog(older, sync=False)
    assert reopened._log._checkpoint_end == _checkpoint_end(older)
    assert (reopened._seq, reopened._last_hash) == (600, records[-1].record_hash)
    append_n(reopened, 1)
    assert reopened.verify() == ChainStatus(ok=True, length=601)
    reopened.close()


def test_a_changed_stored_prev_hash_fails_at_its_record(older):
    def flip_prev(record):
        record["prev_hash"] = "00" + record["prev_hash"][2:]

    mutate_record(older / "audit.log", 99, flip_prev)  # seq 100
    assert verify_audit_file(older / "audit.log") == ChainStatus(False, 99, 100)


def test_a_deleted_stored_prev_hash_changes_nothing_checked(older):
    mutate_record(older / "audit.log", 99, lambda record: record.pop("prev_hash"))
    assert verify_audit_file(older / "audit.log") == ChainStatus(ok=True, length=300)


def _swap(frames, at):
    frames[at], frames[at + 1] = frames[at + 1], frames[at]


# How each tamper of the stored form edits the frames, and the first
# position that must fail; frame 449 holds seq 450.
TAMPERS = {
    "changed field": (lambda frames: _retouch(frames, 449, profile_id="someone-else"), 450),
    "changed record_hash": (lambda frames: _retouch(frames, 449, record_hash="00" * 32), 450),
    "dropped record": (lambda frames: frames.pop(449), 450),
    "swapped pair": (lambda frames: _swap(frames, 449), 450),
    "duplicated record": (lambda frames: frames.insert(450, frames[449]), 451),
}


def _retouch(frames, index, **fields):
    frames[index] = json.dumps(
        {**json.loads(frames[index]), **fields}, separators=(",", ":"), sort_keys=True
    ).encode()


@pytest.mark.parametrize("tamper", TAMPERS.values(), ids=TAMPERS)
def test_a_tampered_record_of_the_stored_form_fails_at_its_position(older, tamper):
    path = _mixed(older)
    edit, position = tamper
    with FrameWalk(path) as walk:
        header, frames = walk.header, list(walk)
    assert "prev_hash" not in json.loads(frames[449])
    edit(frames)
    write_frames(path, header, frames)
    assert verify_audit_file(path) == ChainStatus(False, position - 1, position)


# An audit.log in today's stored form, written by the code from before
# `append` hashed the dict it stores: the 36 records `_current_form_appends`
# lists, on a clock stepping 0.25 s from 1_770_000_000 s. It is under 64 KiB,
# so it has no checkpoint.
CURRENT_FORM = Path(__file__).parent / "data" / "audit-current-form"

# Each operation the gateway writes, with the detail its allowed record carries
_DETAILS = {
    AuditOperation.PROVISION: None,
    AuditOperation.SIGN: None,
    AuditOperation.AUTHENTICATE: "success",
    AuditOperation.STATUS: None,
    AuditOperation.STATE_CHANGE: "Active -> Suspended",
    AuditOperation.POLICY_UPDATE: "loose -> tight",
}


def _current_form_appends():
    """The (profile_id, operation, outcome, request_digest) of each fixture record."""
    for i, (profile, operation, kind) in enumerate(
        itertools.product(range(2), _DETAILS, ("allowed", "denied", "error"))
    ):
        outcome = {
            "allowed": AuditOutcome.allowed(_DETAILS[operation]),
            "denied": AuditOutcome.denied("RateLimit"),
            "error": AuditOutcome.error("UnknownProfile"),
        }[kind]
        digest = hashlib.sha256(b"current form %d" % i).digest()
        yield f"esim-{profile:012x}", operation, outcome, digest


def _write_current_form(state):
    clock = itertools.count(1_770_000_000.0, 0.25)
    audit = AuditLog(state, sync=False, clock=lambda: next(clock))
    for append in _current_form_appends():
        audit.append(*append)
    audit.close()
    return state / "audit.log"


def test_the_current_form_fixture_verifies_and_reopens_at_its_last_seq(tmp_path):
    assert sorted(p.name for p in CURRENT_FORM.iterdir()) == ["audit.log"]
    state = Path(shutil.copytree(CURRENT_FORM, tmp_path / "current"))
    stored = list(iter_records(state / "audit.log", AUDIT_HEADER))
    assert {(r["operation"], r["outcome"]) for r in stored} == {
        (op.value, kind) for op in _DETAILS for kind in ("allowed", "denied", "error")
    }
    assert {"detail" in r for r in stored} == {True, False}
    assert verify_audit_file(state / "audit.log") == ChainStatus(ok=True, length=36)
    reopened = AuditLog(state, sync=False)
    assert (reopened._seq, reopened._last_hash.hex()) == (36, stored[-1]["record_hash"])
    reopened.close()


def test_appending_the_fixture_records_again_reproduces_its_bytes(tmp_path):
    path = _write_current_form(tmp_path / "replayed")
    assert path.read_bytes() == (CURRENT_FORM / "audit.log").read_bytes()


# -- the live verify's memo of the last whole prefix ---------------------------


def _state_bytes(state) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(state).iterdir())}


@pytest.fixture
def linked(monkeypatch):
    """The positions that chain walks link from now on, in order."""
    positions = []
    link_hash = audit_module._link_hash

    def counted(rec, position, prev_hash):
        positions.append(position)
        return link_hash(rec, position, prev_hash)

    monkeypatch.setattr(audit_module, "_link_hash", counted)
    return positions


def test_a_warm_verify_links_only_the_records_appended_since(log, linked):
    append_n(log, 30)
    assert log.verify() == ChainStatus(ok=True, length=30)
    linked.clear()
    append_n(log, 3)
    assert log.verify() == ChainStatus(ok=True, length=33)
    assert log.verify() == ChainStatus(ok=True, length=33)
    assert linked == [31, 32, 33]


def test_a_changed_byte_in_the_verified_prefix_walks_the_whole_log(log, linked):
    append_n(log, 30)
    assert log.verify().ok
    raw = bytearray(log.path.read_bytes())
    raw[_frame_starts(log.path)[9] + 10] ^= 0x01  # inside seq 10's JSON
    log.path.write_bytes(bytes(raw))
    expected = verify_audit_file(log.path, log._log.committed_end)
    assert not expected.ok and expected.first_bad_seq <= 10
    linked.clear()
    assert log.verify() == expected
    assert linked[0] == 1 and log._verified is None


EDITS = ("flip", "delete", "cut", "torn", "append")


@settings(max_examples=300, deadline=None)
@given(
    verified=st.integers(min_value=0, max_value=30),
    unverified=st.integers(min_value=0, max_value=5),
    edit=st.sampled_from(EDITS),
    data=st.data(),
)
def test_the_memo_never_changes_an_answer(tmp_path_factory, verified, unverified, edit, data):
    """After a whole verify and more appends, one edit to audit.log: the live
    verify answers what the full walk of the committed prefix answers, twice,
    keeps no memo after a break and leaves every stored byte as it was."""
    state = tmp_path_factory.mktemp("memo")
    log = AuditLog(state, sync=False)
    try:
        append_n(log, verified)
        assert log.verify() == ChainStatus(ok=True, length=verified)
        append_n(log, unverified)
        path, frames = log.path, verified + unverified
        starts = _frame_starts(path)
        raw = bytearray(path.read_bytes())
        if edit in ("flip", "delete") and frames:
            i = data.draw(st.integers(0, frames - 1), label="frame")
            if edit == "flip":
                at = data.draw(st.integers(starts[i], starts[i + 1] - 1), label="byte")
                raw[at] ^= data.draw(st.integers(1, 255), label="mask")
            else:
                del raw[starts[i] : starts[i + 1]]
            path.write_bytes(bytes(raw))
        elif edit == "cut":
            sizes = st.sampled_from(starts) | st.integers(0, len(raw))  # boundaries too
            os.truncate(path, data.draw(sizes, label="size"))
        elif edit == "torn":
            with open(path, "ab") as fh:
                fh.write((300).to_bytes(4, "big") + b'{"seq":')
        elif edit == "append":
            append_n(log, data.draw(st.integers(1, 5), label="appended"))

        expected = verify_audit_file(path, log._log.committed_end)
        before = _state_bytes(state)
        assert log.verify() == expected
        assert (log._verified is None) == (not expected.ok)
        assert log.verify() == expected
        assert _state_bytes(state) == before
    finally:
        log.close()


def test_verifies_racing_appends_see_a_whole_growing_chain(tmp_path):
    """Two threads verify in a loop while a third appends 2,000 records:
    every answer is whole, never shorter than one the same thread saw
    before, and never longer than the appends committed so far."""
    log = AuditLog(tmp_path / "state", sync=False)
    acknowledged, finished, failures = 0, threading.Event(), []
    answers = {0: [], 1: []}

    def append_all():
        nonlocal acknowledged
        try:
            for _ in range(2_000):
                append_n(log, 1)
                acknowledged += 1
        except Exception as err:
            failures.append(err)
        finally:
            finished.set()

    def verify_until_finished(thread):
        try:
            while not finished.is_set():
                before = acknowledged
                status = log.verify()
                answers[thread].append((before, status, acknowledged))
        except Exception as err:
            failures.append(err)

    threads = [threading.Thread(target=verify_until_finished, args=(i,)) for i in answers]
    threads.append(threading.Thread(target=append_all))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    final = log.verify()
    log.close()

    assert failures == []
    assert final == ChainStatus(ok=True, length=2_000)
    for seen in answers.values():
        assert seen
        lengths = [status.length for _, status, _ in seen]
        assert lengths == sorted(lengths)
        for before, status, after in seen:
            # the append in flight may be committed before its call returns
            assert status.ok and before <= status.length <= after + 1, (before, status, after)
