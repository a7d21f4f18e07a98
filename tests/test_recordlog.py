"""Persistence substrate and canonical encodings."""

import errno
import hashlib
import json
import os
import secrets
import shutil
import zlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agent_esim import recordlog
from agent_esim.errors import StorageFailure, WireFormatError
from agent_esim.recordlog import FrameWalk, RecordLog, iter_records, write_frames
from agent_esim.wire import (
    decode_fields,
    decode_timestamp,
    encode_fields,
    encode_timestamp,
    request_digest,
    scan_for_secrets,
)


def ignore(record):
    pass


def test_record_log_round_trip(tmp_path):
    applied = []
    log = RecordLog(tmp_path / "x.log", "TEST/1", applied.append)
    log.append({"a": 1})
    log.append({"b": [1, 2]})
    assert applied == [{"a": 1}, {"b": [1, 2]}]
    log.close()
    replayed = []
    reopened = RecordLog(tmp_path / "x.log", "TEST/1", replayed.append)
    assert replayed == applied
    reopened.append({"c": None})
    assert replayed == [{"a": 1}, {"b": [1, 2]}, {"c": None}]
    reopened.close()
    assert list(iter_records(tmp_path / "x.log", "TEST/1")) == replayed


def test_record_log_rejects_wrong_header(tmp_path):
    log = RecordLog(tmp_path / "x.log", "TEST/1", ignore)
    log.close()
    with pytest.raises(StorageFailure):
        RecordLog(tmp_path / "x.log", "OTHER/9", ignore)


def test_record_log_append_after_close_fails(tmp_path):
    applied = []
    log = RecordLog(tmp_path / "x.log", "TEST/1", applied.append)
    log.close()
    with pytest.raises(StorageFailure):
        log.append({"x": 1})
    assert applied == []


def _fail(*_args):
    raise OSError(errno.EIO, "injected failure")


def _fail_once(real):
    calls = []

    def call(*args):
        calls.append(args)
        return _fail() if len(calls) == 1 else real(*args)

    return call


def test_failed_append_is_cut_back_and_a_failed_cut_closes_the_log(tmp_path, monkeypatch):
    path = tmp_path / "f.log"
    applied = []
    log = RecordLog(path, "TEST/1", applied.append)
    log.append({"a": 1})
    committed = path.stat().st_size
    with monkeypatch.context() as patch:
        patch.setattr(recordlog.os, "fsync", _fail_once(recordlog.os.fsync))
        with pytest.raises(StorageFailure):
            log.append({"b": 2})
    assert path.stat().st_size == log.committed_end == committed
    log.append({"c": 3})
    with monkeypatch.context() as patch:
        patch.setattr(recordlog.os, "fsync", _fail)
        patch.setattr(recordlog.os, "ftruncate", _fail)
        with pytest.raises(StorageFailure):
            log.append({"d": 4})
    with pytest.raises(StorageFailure):  # closed: fails without writing
        log.append({"e": 5})
    log.close()
    assert applied == [{"a": 1}, {"c": 3}]
    replayed = []
    RecordLog(path, "TEST/1", replayed.append).close()
    assert replayed == [{"a": 1}, {"c": 3}, {"d": 4}]  # the cut failed, so a restart reads them


def test_frame_tools_round_trip(tmp_path):
    path = tmp_path / "y.log"
    write_frames(path, "TEST/1", [b"one", b"two"])
    with FrameWalk(path) as walk:
        header, frames = walk.header, list(walk)
    assert header == "TEST/1" and frames == [b"one", b"two"]


def test_frame_walk_sha256_continues_a_digest_over_the_walked_bytes(tmp_path):
    path = tmp_path / "y.log"
    write_frames(path, "TEST/1", [b"one", b"two"])
    raw = path.read_bytes()
    with FrameWalk(path) as walk:
        next(iter(walk))
        first = walk.sha256(0)
        assert first.digest() == hashlib.sha256(raw[: walk.end]).digest()
        start = walk.end
        list(walk)
        assert walk.sha256(start, first).digest() == hashlib.sha256(raw).digest()


def test_truncated_frame_detected(tmp_path):
    path = tmp_path / "z.log"
    write_frames(path, "TEST/1", [b"complete"])
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])  # rip off part of the last frame
    with pytest.raises(StorageFailure, match="runs past end"):
        list(iter_records(path, "TEST/1"))


@pytest.mark.parametrize("cut", [1, 7, 9])
def test_record_log_drops_torn_final_frame(tmp_path, cut):
    path = tmp_path / "t.log"
    log = RecordLog(path, "TEST/1", ignore)
    log.append({"a": 1})
    log.append({"b": 2})
    log.close()
    intact = path.stat().st_size - len(b'{"b":2}') - 4
    path.write_bytes(path.read_bytes()[:-cut])  # into its data, all of it, or its length
    replayed = []
    reopened = RecordLog(path, "TEST/1", replayed.append)
    assert replayed == [{"a": 1}]
    assert reopened.dropped_bytes == len(b'{"b":2}') + 4 - cut
    assert path.stat().st_size == intact
    reopened.append({"c": 3})
    reopened.close()
    assert list(iter_records(path, "TEST/1")) == [{"a": 1}, {"c": 3}]


def test_record_log_rejects_complete_undecodable_frame(tmp_path):
    path = tmp_path / "u.log"
    write_frames(path, "TEST/1", [b'{"a":1}', b"\xff\xfe"])
    before = path.read_bytes()
    with pytest.raises(StorageFailure):
        RecordLog(path, "TEST/1", ignore)
    assert path.read_bytes() == before


def test_iter_records_rejects_non_json(tmp_path):
    path = tmp_path / "w.log"
    write_frames(path, "TEST/1", [b"\xff\xfe"])
    with pytest.raises(StorageFailure):
        list(iter_records(path, "TEST/1"))


def test_field_framing_round_trip():
    fields = [b"", b"a", secrets.token_bytes(40)]
    assert decode_fields(encode_fields(*fields)) == fields
    assert decode_fields(encode_fields(*fields), expected=3) == fields
    with pytest.raises(WireFormatError):
        decode_fields(encode_fields(b"x"), expected=2)
    with pytest.raises(WireFormatError):
        decode_fields(b"\x00\x00\x00\x05ab")  # length overruns buffer


def _encode_fields_by_loop(*fields: bytes) -> bytes:
    out = bytearray()
    for field in fields:
        out += len(field).to_bytes(4, "big")
        out += field
    return bytes(out)


@given(st.lists(st.binary(max_size=300), max_size=12))
def test_encode_fields_matches_the_loop_encoding(fields):
    assert encode_fields(*fields) == _encode_fields_by_loop(*fields)


def test_timestamp_codec():
    assert decode_timestamp(encode_timestamp(1234.567891)) == pytest.approx(
        1234.567891, abs=1e-6
    )
    with pytest.raises(WireFormatError):
        decode_timestamp(b"\x00" * 7)
    with pytest.raises(WireFormatError):
        encode_timestamp(-1.0)


def test_request_digest_deterministic_and_order_insensitive():
    a = request_digest("sign", "p-1", {"x": b"1", "y": b"2"})
    b = request_digest("sign", "p-1", {"y": b"2", "x": b"1"})
    assert a == b and len(a) == 32
    assert request_digest("sign", "p-2", {"x": b"1", "y": b"2"}) != a
    assert request_digest("status", "p-1", {"x": b"1", "y": b"2"}) != a


def test_scan_for_secrets_finds_raw_and_hex():
    secret = secrets.token_bytes(16)
    assert scan_for_secrets(b"prefix" + secret + b"suffix", [secret]) == [secret]
    assert scan_for_secrets(secret.hex().encode(), [secret]) == [secret]
    assert scan_for_secrets(secret.hex().upper().encode(), [secret]) == [secret]
    assert scan_for_secrets(b"clean payload", [secret]) == []


class KeyValueStore:
    """A minimal store: the last value per key, with a compacting log."""

    def __init__(self, path):
        self.values = {}
        self.applied = 0
        self.log = RecordLog(path, "TEST/1", self._apply, snapshot=self._snapshot)

    def _apply(self, rec):
        self.applied += 1
        self.values[rec["k"]] = rec["v"]

    def _snapshot(self):
        for k, v in self.values.items():
            yield {"k": k, "v": v}


@pytest.fixture
def small_compactions(monkeypatch):
    monkeypatch.setattr(recordlog, "COMPACT_MIN_BYTES", 300)


def _fill_until_compacted(store, keys=3):
    """Append until the log next compacts; returns the size that append
    took it to before the compaction."""
    i = 0
    while True:
        record = {"k": i % keys, "v": i}
        grown = store.log.committed_end + len(recordlog._frame(recordlog._encode(record)))
        store.log.append(record)
        i += 1
        if store.log.committed_end < grown:
            return grown


def test_compaction_rewrites_the_log_as_its_snapshot(tmp_path, small_compactions):
    path = tmp_path / "kv.log"
    store = KeyValueStore(path)
    peaks = [_fill_until_compacted(store) for _ in range(4)]
    assert all(recordlog.COMPACT_MIN_BYTES < peak for peak in peaks)
    assert list(iter_records(path, "TEST/1")) == [{"k": k, "v": v} for k, v in store.values.items()]
    assert path.stat().st_size == store.log.committed_end
    assert not store.log._compact_path.exists()
    store.log.append({"k": "late", "v": 1})
    store.log.close()
    reopened = KeyValueStore(path)
    assert reopened.values == store.values
    assert reopened.applied == len(store.values)
    reopened.log.close()


def test_compaction_waits_for_the_log_to_double(tmp_path, small_compactions):
    store = KeyValueStore(tmp_path / "kv.log")
    for i in range(20):  # 20 live keys make a snapshot larger than half the minimum
        store.log.append({"k": i, "v": "x" * 10})
    _fill_until_compacted(store, keys=20)
    compacted = store.log.committed_end
    assert compacted > recordlog.COMPACT_MIN_BYTES // 2
    assert _fill_until_compacted(store, keys=20) > 2 * compacted
    store.log.close()


def test_log_without_snapshot_never_compacts(tmp_path, small_compactions):
    log = RecordLog(tmp_path / "a.log", "TEST/1", ignore)
    for i in range(100):
        log.append({"i": i})
    assert log.committed_end == (tmp_path / "a.log").stat().st_size > 100 * 8
    log.close()


def test_open_deletes_a_leftover_compaction(tmp_path):
    path = tmp_path / "kv.log"
    store = KeyValueStore(path)
    store.log.append({"k": "a", "v": 1})
    store.log.close()
    leftover = store.log._compact_path
    leftover.write_bytes(b"TEST/1\n\x00\x00")  # a crash while it was written
    reopened = KeyValueStore(path)
    assert not leftover.exists()
    assert reopened.values == {"a": 1}
    reopened.log.close()


def _fail_compact_fsync(patch, log, failed):
    fsync = recordlog.os.fsync

    def fsync_failing(fd):
        temp = log._compact_path
        if temp.exists() and recordlog.os.fstat(fd).st_ino == temp.stat().st_ino:
            failed.append(fd)
            raise OSError(errno.EIO, "injected failure")
        fsync(fd)

    patch.setattr(recordlog.os, "fsync", fsync_failing)


def _fail_os_call(name, when=lambda *args: True):
    def inject(patch, log, failed):
        real = getattr(recordlog.os, name)

        def call(*args):
            if not failed and when(*args):
                failed.append(args)
                raise OSError(errno.EIO, "injected failure")
            return real(*args)

        patch.setattr(recordlog.os, name, call)

    return inject


def _fail_reopen(patch, log, failed):
    def fake_open(file, mode="r", *args, **kwargs):
        if mode == "ab" and not failed:
            failed.append(file)
            raise OSError(errno.EMFILE, "injected failure")
        return open(file, mode, *args, **kwargs)

    patch.setattr(recordlog, "open", fake_open, raising=False)


def _fail_mid_write(patch, log, failed):
    snapshot = log._snapshot

    def broken():
        yield from list(snapshot())[:1]
        failed.append(True)
        raise OSError(errno.ENOSPC, "injected failure")

    patch.setattr(log, "_snapshot", broken)


# fault -> (what makes it fail, whether the rename had happened)
COMPACTION_FAULTS = {
    "mid-write": (_fail_mid_write, False),
    "temp-fsync": (_fail_compact_fsync, False),
    "replace": (_fail_os_call("replace"), False),
    "dir-fsync": (_fail_os_call("open", lambda path, flags, *_: flags == recordlog.os.O_RDONLY), True),
    "reopen": (_fail_reopen, True),
}


@pytest.mark.parametrize("fault", sorted(COMPACTION_FAULTS))
def test_failed_compaction_acknowledges_its_append(tmp_path, monkeypatch, small_compactions, fault):
    inject, replaced = COMPACTION_FAULTS[fault]
    path = tmp_path / "kv.log"
    store = KeyValueStore(path)
    failed = []
    with monkeypatch.context() as patch:
        inject(patch, store.log, failed)
        i = 0
        while not failed:  # every one of these appends is acknowledged
            store.log.append({"k": i % 3, "v": i})
            i += 1
    acknowledged = dict(store.values)
    assert not store.log._compact_path.exists()
    if replaced:  # the log closed: later appends fail closed
        with pytest.raises(StorageFailure):
            store.log.append({"k": "late", "v": 1})
    else:  # the old log stands; the next try waits for the next doubling
        assert path.stat().st_size == store.log.committed_end
        assert store.log._compacted_end == store.log.committed_end
        store.log.append({"k": "late", "v": 1})
        acknowledged["late"] = 1
        _fill_until_compacted(store)
        acknowledged = dict(store.values)
    assert store.values == acknowledged
    store.log.close()
    reopened = KeyValueStore(path)
    assert reopened.values == acknowledged
    reopened.log.close()


def test_write_frames_streams_any_iterable(tmp_path):
    path = tmp_path / "g.log"
    size = write_frames(path, "TEST/1", (bytes([65 + i]) for i in range(3)))
    assert size == path.stat().st_size
    with FrameWalk(path) as walk:
        assert (walk.header, list(walk)) == ("TEST/1", [b"A", b"B", b"C"])


# -- checkpoints: a log without a snapshot reopens from its tail ---------------------


class LastRecordStore:
    """A store rebuilt by its last record alone, as a checkpointing log needs."""

    def __init__(self, path):
        self.last, self.applied = None, 0
        self.log = RecordLog(path, "TEST/1", self._apply)

    def _apply(self, rec):
        self.applied += 1
        self.last = rec


def _fill_until_checkpointed(store, times=1):
    """Append until `times` more checkpoints are written; returns the offsets
    where the appended frames end."""
    ends, start = [], store.log._checkpoint_end
    while True:
        store.log.append({"i": store.applied, "pad": "x" * 20})
        ends.append(store.log.committed_end)
        if store.log._checkpoint_end != start:
            times -= 1
            start = store.log._checkpoint_end
            if not times:
                return ends


def _checkpoint(store):
    (point,) = iter_records(store.log._checkpoint_path, "TEST/1")
    return point


def test_checkpointed_reopen_applies_the_last_record_and_the_tail(tmp_path, small_compactions):
    path = tmp_path / "c.log"
    store = LastRecordStore(path)
    _fill_until_checkpointed(store, times=3)
    point = _checkpoint(store)
    assert point == {
        "end": store.log.committed_end,
        "crc32": zlib.crc32(path.read_bytes()),
        "last_at": store.log.committed_end - len(recordlog._frame(recordlog._encode(store.last))),
        "sync": True,
    }
    for i in range(3):
        store.log.append({"i": store.applied, "tail": i})
    store.log.close()
    reopened = LastRecordStore(path)
    assert reopened.applied == 1 + 3
    assert reopened.last == store.last
    assert reopened.log.committed_end == store.log.committed_end == path.stat().st_size
    assert reopened.log._crc == store.log._crc == zlib.crc32(path.read_bytes())
    reopened.log.append({"i": "after"})
    reopened.log.close()
    assert [r["i"] for r in iter_records(path, "TEST/1")] == list(range(store.applied)) + ["after"]


def test_log_with_a_snapshot_writes_no_checkpoint(tmp_path, small_compactions):
    store = KeyValueStore(tmp_path / "kv.log")
    _fill_until_compacted(store)
    assert not store.log._checkpoint_path.exists()
    store.log.close()


def _set_checkpoint(path, drop=(), **fields):
    (point,) = iter_records(path, "TEST/1")
    point = {key: value for key, value in dict(point, **fields).items() if key not in drop}
    write_frames(path, "TEST/1", [json.dumps(point).encode()])


def _cut_below_checkpoint(log, ckpt, point, **fields):
    """Cut the log at the frame boundary `last_at`, below the checkpoint's end,
    and change the checkpoint's fields: a checkpoint written with sync off, or
    before it recorded `sync`, may outlive an unsynced tail."""
    os.truncate(log, point["last_at"])
    _set_checkpoint(ckpt, **fields)


def _flip(path, offset, byte):
    raw = bytearray(path.read_bytes())
    raw[offset] = byte
    path.write_bytes(bytes(raw))


def _flip_digit(path, point):
    """Change one digit of a record before the checkpoint's end: the log
    still decodes, to different content."""
    raw = path.read_bytes()
    at = raw.index(b'"i":1') + 4
    assert at < point["end"]
    _flip(path, at, ord("7"))


# case -> how it spoils the checkpoint or the log, given (log path, checkpoint path, checkpoint)
FALLBACKS = {
    "no-checkpoint": lambda log, ckpt, point: ckpt.unlink(),
    "undecodable": lambda log, ckpt, point: ckpt.write_bytes(b"TEST/1\n\x00\x00\x00\x05{{{{{"),
    "wrong-header": lambda log, ckpt, point: write_frames(ckpt, "OTHER/1", [b"{}"]),
    "missing-field": lambda log, ckpt, point: write_frames(ckpt, "TEST/1", [b'{"end":1}']),
    "end-past-eof": lambda log, ckpt, point: _cut_below_checkpoint(log, ckpt, point, sync=False),
    "end-past-eof-before-sync-field": lambda log, ckpt, point: _cut_below_checkpoint(
        log, ckpt, point, drop=("sync",)
    ),
    "last-at-inside-frame": lambda log, ckpt, point: _set_checkpoint(
        ckpt, last_at=point["last_at"] + 1
    ),
    "last-at-earlier-frame": lambda log, ckpt, point: _set_checkpoint(
        ckpt, last_at=point["previous_at"]
    ),
    "wrong-crc": lambda log, ckpt, point: _set_checkpoint(ckpt, crc32=point["crc32"] ^ 1),
    "flip-json-valid": lambda log, ckpt, point: _flip_digit(log, point),
    "flip-structural": lambda log, ckpt, point: _flip(log, point["previous_at"] + 4, 0xFF),
}


def _open_outcome(path):
    """What opening `path` gives: the store's state and the log's, or the
    StorageFailure it raised; with the file's bytes afterwards."""
    try:
        store = LastRecordStore(path)
    except StorageFailure as err:
        return ("raised", str(err).replace(str(path.parent), "<dir>")), path.read_bytes()
    store.log.close()
    state = (store.last, store.applied, store.log.committed_end, store.log.dropped_bytes)
    return state, path.read_bytes()


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_unusable_checkpoint_falls_back_to_the_full_walk(tmp_path, small_compactions, case):
    path = tmp_path / "live" / "c.log"
    store = LastRecordStore(path)
    ends = _fill_until_checkpointed(store)
    store.log.append({"i": "tail"})
    store.log.close()
    point = dict(_checkpoint(store), previous_at=ends[-3])
    assert ends[-2] == point["last_at"] and point["end"] == ends[-1]
    FALLBACKS[case](path, store.log._checkpoint_path, point)
    without = tmp_path / "without" / "c.log"  # the same log with no checkpoint beside it
    without.parent.mkdir()
    shutil.copy(path, without)
    outcome = _open_outcome(path)
    assert outcome == _open_outcome(without)
    state, _ = outcome
    if state[0] != "raised":  # the full walk applied every record
        assert state[1] == len(list(iter_records(path, "TEST/1")))


def test_corrupt_length_below_the_checkpoint_refuses_to_open(tmp_path, small_compactions):
    """The full walk stops at a frame whose length runs past the end of the
    file, below the checkpoint's end: cutting there would drop records the
    checkpoint saw whole, so the open raises and leaves every byte."""
    path = tmp_path / "c.log"
    store = LastRecordStore(path)
    ends = _fill_until_checkpointed(store, times=2)
    store.log.append({"i": "tail"})
    store.log.close()
    at = ends[0]  # the second frame, well inside the checked prefix
    _flip(path, at, 0x7F)
    spoiled = path.read_bytes()
    with pytest.raises(StorageFailure, match=f"frame at byte {at} .* checkpointed end"):
        LastRecordStore(path)
    assert path.read_bytes() == spoiled


@pytest.mark.parametrize("cut", ["frame-boundary", "empty", "missing"])
def test_log_shorter_than_a_synced_checkpoint_refuses_to_open(tmp_path, small_compactions, cut):
    """A checkpoint written with sync on vouches for bytes that were durable:
    a log that ends below its end lost acknowledged records, so the open
    raises naming both figures and leaves the file (or its absence) as it is."""
    path = tmp_path / "c.log"
    store = LastRecordStore(path)
    ends = _fill_until_checkpointed(store)
    store.log.append({"i": "tail"})
    store.log.close()
    end = _checkpoint(store)["end"]
    size = {"frame-boundary": ends[-3], "empty": 0, "missing": 0}[cut]
    os.truncate(path, size)
    if cut == "missing":
        path.unlink()
    spoiled = path.read_bytes() if path.exists() else None
    with pytest.raises(StorageFailure, match=f"ends at byte {size}, below the end {end} "):
        LastRecordStore(path)
    assert (path.read_bytes() if path.exists() else None) == spoiled


def test_torn_frame_after_the_checkpoint_is_cut_off(tmp_path, small_compactions):
    path = tmp_path / "c.log"
    store = LastRecordStore(path)
    _fill_until_checkpointed(store)
    kept = store.last
    store.log.append({"i": "torn"})
    store.log.close()
    size = path.stat().st_size
    os.truncate(path, size - 5)
    reopened = LastRecordStore(path)
    assert reopened.applied == 1 and reopened.last == kept
    assert reopened.log.dropped_bytes == size - 5 - _checkpoint(store)["end"]
    assert reopened.log.committed_end == path.stat().st_size == _checkpoint(store)["end"]
    assert reopened.log._crc == zlib.crc32(path.read_bytes())
    reopened.log.close()


def _fail_checkpoint_write(patch, log, failed):
    def partial(path, *args, **kwargs):  # a crash-free failure that left a partial file
        Path(path).write_bytes(b"TEST/1\n\x00")
        failed.append(path)
        raise OSError(errno.ENOSPC, "injected failure")

    patch.setattr(recordlog, "write_frames", partial)


CHECKPOINT_FAULTS = {
    "write": _fail_checkpoint_write,
    "replace": _fail_os_call("replace"),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_failed_checkpoint_acknowledges_its_append(tmp_path, monkeypatch, small_compactions, fault):
    path = tmp_path / "c.log"
    store = LastRecordStore(path)
    _fill_until_checkpointed(store)
    before = _checkpoint(store)
    failed = []
    with monkeypatch.context() as patch:
        CHECKPOINT_FAULTS[fault](patch, store.log, failed)
        while not failed:  # every one of these appends is acknowledged
            store.log.append({"i": store.applied})
    assert store.log._checkpoint_end == store.log.committed_end  # the next try is a step on
    assert not store.log._checkpoint_temp.exists()
    assert _checkpoint(store) == before
    acknowledged = (store.last, store.applied)
    store.log.close()
    reopened = LastRecordStore(path)
    assert reopened.last == acknowledged[0]
    assert reopened.log.committed_end == store.log.committed_end
    _fill_until_checkpointed(reopened)
    assert _checkpoint(reopened)["end"] == reopened.log.committed_end
    reopened.log.close()


def test_open_deletes_a_leftover_checkpoint_temp(tmp_path):
    store = LastRecordStore(tmp_path / "c.log")
    store.log.append({"i": 0})
    store.log.close()
    store.log._checkpoint_temp.write_bytes(b"TEST/1\n\x00")
    reopened = LastRecordStore(tmp_path / "c.log")
    assert not reopened.log._checkpoint_temp.exists() and reopened.last == {"i": 0}
    reopened.log.close()


def test_reopen_applies_only_the_last_checkpointed_record_and_the_tail(tmp_path):
    path = tmp_path / "big.log"
    store = LastRecordStore(path)
    store.log.sync = False
    ends = []
    for i in range(20_000):
        store.log.append({"i": i, "pad": "x" * 20})
        ends.append(store.log.committed_end)
    store.log.close()
    recent = sum(1 for end in ends if end > ends[-1] - recordlog.COMPACT_MIN_BYTES)
    reopened = LastRecordStore(path)
    assert reopened.last == {"i": 19_999, "pad": "x" * 20}
    assert reopened.applied <= 1 + recent < 20_000
    reopened.log.close()
