"""Append-only, length-delimited JSON record files.

All persisted state (vault, network core, policies, audit trail) sits on
this substrate: a one-line version header followed by framed records, each
4-byte big-endian length + UTF-8 JSON.

Each store changes its durable state in one place, the `apply` callback
it hands to its log. `append` writes a record and (by default) fsyncs it,
and only then passes it to `apply`, still under the log's lock, so memory
changes in file order. A failed append changes nothing: the file is cut
back to `committed_end`, the offset where the last acknowledged record
ends, so no later append or restart sees the rejected bytes. Opening a log
passes every stored record to the same `apply`, so a restart rebuilds
exactly what the live process acknowledged. A crash in the middle of an
append leaves an incomplete final frame that no caller was told about;
opening the log cuts it off (and records how many bytes it dropped in
`dropped_bytes`) before appending resumes. A complete frame that does not
decode still raises.

A store that hands its log a `snapshot` callable lets the log compact:
once an append leaves the file larger than both `COMPACT_MIN_BYTES` and
twice its size after the last compaction (or open), the log rewrites
itself as the snapshot's records, which rebuild the store's current state
through the same `apply`. The rewrite goes to `<name>.compact`, which is
fsynced and then renamed over the log before the directory is fsynced and
the append handle reopened, so a crash at any point leaves either the old
log or the new one whole; opening a log deletes a leftover `.compact`
file. Compaction runs after the triggering append is durable and applied,
so it never fails that append: if it fails before the rename, the old log
stands and the next try waits for the next doubling; if it fails after,
the log closes and every later append fails closed. The fsyncs follow
`sync`, as an append's do.

A log without a snapshot (the audit chain, whose records are its history)
never compacts; it checkpoints instead. Its store must be rebuilt by
applying its last record alone, as the audit chain's is (its sequence
number and hash). The log keeps `zlib.crc32` over its bytes up to
`committed_end`, and once that end has moved `COMPACT_MIN_BYTES` past the
last checkpoint it writes `<name>.ckpt`: the end, the CRC and the offset of
the last frame before the end, written to `<name>.ckpt.tmp` and renamed,
under the lock after the append is durable and applied. A failed write
removes the temp file and leaves the append acknowledged. A checkpoint is
never fsynced, because an open trusts it only after checking it against
the log: the CRC of the first `end` bytes must match and the frame at
`last_at` must end exactly at `end` and decode. Then the open applies that
one record and walks only the frames after it; otherwise (no checkpoint, a
stale or torn one, a changed byte) it walks the whole log as above. So a
lost checkpoint costs a full replay and never a check: a matching prefix is
byte for byte what an earlier process acknowledged or decoded whole. One
exception to cutting an incomplete final frame: when a checkpoint decodes
but the full walk stops at such a frame below the checkpoint's end, those
bytes were once acknowledged whole, so the cut would drop acknowledged
records behind a corrupt length; the open raises StorageFailure naming the
offset and leaves the file as it is. A checkpoint records `sync`: written
with fsync on, it vouches for durable bytes, so a log shorter than its end
(empty or missing too) lost acknowledged records, and the open raises
StorageFailure naming both figures. One written with sync off, or before
the field, may outlive an unsynced tail, so a shorter log opens as above.
Opening a log deletes a leftover `.ckpt.tmp` file.

Every reader goes through `FrameWalk`, which maps the file read-only and
yields one complete frame at a time, so reading a log holds one record in
memory however long the log is.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import StorageFailure

COMPACT_MIN_BYTES = 64 * 1024
COMPACT_SUFFIX = ".compact"
CHECKPOINT_SUFFIX = ".ckpt"


class RecordLog:
    def __init__(
        self,
        path: str | Path,
        header: str,
        apply: Callable[[dict], None],
        *,
        sync: bool = True,
        snapshot: Callable[[], Iterable[dict]] | None = None,
    ):
        self.path = Path(path)
        self.header = header
        self.sync = sync
        self._apply = apply
        self._snapshot = snapshot
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._compact_path = self.path.with_name(self.path.name + COMPACT_SUFFIX)
        self._compact_path.unlink(missing_ok=True)  # an interrupted compaction
        self._checkpoint_path = self.path.with_name(self.path.name + CHECKPOINT_SUFFIX)
        self._checkpoint_temp = self._checkpoint_path.with_name(self._checkpoint_path.name + ".tmp")
        self._checkpoint_temp.unlink(missing_ok=True)  # an interrupted checkpoint
        size = self.path.stat().st_size if self.path.exists() else 0
        fresh = size == 0
        self.dropped_bytes = 0
        # kept by a log without a snapshot: its last checkpoint's end, and
        # the CRC of its bytes up to `committed_end`
        self._checkpoint_end = self._crc = 0
        point = self._read_checkpoint() if snapshot is None else None
        if point is not None and point[3] and size < point[0]:
            raise StorageFailure(
                f"{self.path}: the log ends at byte {size}, below the end {point[0]} that"
                " its checkpoint saw durable; not opened"
            )
        if not fresh:
            with FrameWalk(self.path) as walk:
                start = 0
                if point is not None and (resumed := self._resume(walk, *point[:3])) is not None:
                    last, self._crc = resumed
                    start = self._checkpoint_end = walk.end
                    apply(last)
                for record in decode_records(walk, header):
                    apply(record)
                if snapshot is None:
                    self._crc = walk.crc32(start, self._crc)
            if walk.end < walk.size:
                if point is not None and walk.end < point[0]:
                    raise StorageFailure(
                        f"{self.path}: the frame at byte {walk.end} runs past the end of the"
                        f" file, below the checkpointed end {point[0]}; not truncated"
                    )
                os.truncate(self.path, walk.end)
                self.dropped_bytes = walk.size - walk.end
            self.committed_end = walk.end
        self._fh = open(self.path, "ab", buffering=0)
        if fresh:
            head = header.encode("ascii") + b"\n"
            self.committed_end = self._fh.write(head)
            self._crc = zlib.crc32(head)
        self._compacted_end = self.committed_end

    def _read_checkpoint(self) -> tuple[int, int, int, bool] | None:
        """The checkpoint's (end, crc32, last_at, sync), or None when none decodes
        with the log's header; `sync` is False in one that predates the field."""
        try:
            (point,) = list(iter_records(self._checkpoint_path, self.header))
            end, crc, last_at = (int(point[key]) for key in ("end", "crc32", "last_at"))
            return end, crc, last_at, point.get("sync") is True
        except (OSError, StorageFailure, KeyError, TypeError, ValueError):
            return None

    def _resume(
        self, walk: FrameWalk, end: int, crc: int, last_at: int
    ) -> tuple[dict, int] | None:
        """If the checkpoint holds for the walked log, move `walk` past the
        prefix it vouches for and return that prefix's last record and CRC;
        else None, leaving `walk` where it was."""
        if walk.header != self.header or not walk.end <= last_at < end <= walk.size:
            return None
        start, walk.end = walk.end, end
        if walk.crc32(0) == crc:
            walk.end = last_at
            frame = next(iter(walk), None)
            if frame is not None and walk.end == end:
                try:
                    return json.loads(frame.decode("utf-8")), crc
                except ValueError:  # UnicodeDecodeError is one too
                    pass
        walk.end = start
        return None

    def append(self, record: dict[str, Any]) -> None:
        """Write `record` durably, then apply it; raises StorageFailure
        (and applies nothing, and leaves no byte of it in the file) when
        the write fails. May then compact the log (see the module doc)."""
        frame = _frame(_encode(record))
        with self._lock:
            if self._fh is None:
                raise StorageFailure(f"{self.path}: log is closed")
            try:
                if self._fh.write(frame) != len(frame):
                    raise OSError("short write")
                if self.sync:
                    os.fsync(self._fh.fileno())
            except OSError as err:
                self._cut_back()
                raise StorageFailure(f"{self.path}: append failed: {err}") from err
            self.committed_end += len(frame)
            self._apply(record)
            if self._snapshot is None:
                self._crc = zlib.crc32(frame, self._crc)
                if self.committed_end - self._checkpoint_end >= COMPACT_MIN_BYTES:
                    self._checkpoint(self.committed_end - len(frame))
            elif self.committed_end > max(COMPACT_MIN_BYTES, 2 * self._compacted_end):
                self._compact()

    def _checkpoint(self, last_at: int) -> None:
        """Record that the log is whole up to `committed_end`, whose last
        frame starts at `last_at` (under the lock, after an acknowledged
        append, which this never fails). Unsynced: see the module doc."""
        self._checkpoint_end = self.committed_end  # a failure waits for the next step
        point = {"end": self.committed_end, "crc32": self._crc, "last_at": last_at, "sync": self.sync}
        temp = self._checkpoint_temp
        try:
            write_frames(temp, self.header, [_encode(point)], sync=False)
            os.replace(temp, self._checkpoint_path)
        except OSError:
            temp.unlink(missing_ok=True)

    def _compact(self) -> None:
        """Rewrite the log as the store's snapshot (under the lock, after an
        acknowledged append, which this never fails)."""
        temp = self._compact_path
        try:
            size = write_frames(temp, self.header, map(_encode, self._snapshot()), sync=self.sync)
            os.replace(temp, self.path)
        except OSError:  # the old log is intact and still holds every record
            temp.unlink(missing_ok=True)
            self._compacted_end = self.committed_end  # try again at the next doubling
            return
        old, self._fh = self._fh, None  # appended to the replaced file, now unlinked
        self.committed_end = self._compacted_end = size
        try:
            old.close()
            if self.sync:
                _fsync_dir(self.path.parent)
            self._fh = open(self.path, "ab", buffering=0)
        except OSError:
            pass  # left closed, like a failed cut: every later append fails closed

    def _cut_back(self) -> None:
        """Drop whatever a failed append left past `committed_end`; if that
        fails too, close the log so that every later append fails closed."""
        try:
            os.ftruncate(self._fh.fileno(), self.committed_end)
            if self.sync:
                os.fsync(self._fh.fileno())
        except OSError:
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class FrameWalk:
    """The complete frames of a log, read in place one at a time.

    Opening maps the first `end` bytes of the file read-only (the whole file
    by default; never more than it holds) and reads the header line.
    Iterating yields each complete frame's payload in order and advances
    `end` past it; once iteration stops, `end < size` means the walked bytes
    finish with an incomplete frame. Use it as a context manager so the
    mapping is released.
    """

    def __init__(self, path: str | Path, end: int | None = None):
        self.path = path
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            self.size = size if end is None else min(end, size)
            self._data = (
                mmap.mmap(fh.fileno(), self.size, access=mmap.ACCESS_READ) if self.size else b""
            )
        newline = self._data.find(b"\n", 0, self.size)
        self.end = newline + 1 if newline >= 0 else self.size
        self.header = self._data[: self.end].rstrip(b"\n").decode("ascii", "replace")

    def __iter__(self) -> Iterator[bytes]:
        data, size, pos = self._data, self.size, self.end
        while pos + 4 <= size:
            stop = pos + 4 + int.from_bytes(data[pos : pos + 4], "big")
            if stop > size:
                return
            self.end = stop
            yield data[pos + 4 : stop]
            pos = stop

    def crc32(self, start: int, value: int = 0) -> int:
        """`zlib.crc32` of the bytes from `start` to `end`, continuing
        `value`; read through the mapping, never copied."""
        with memoryview(self._data)[start : self.end] as view:
            return zlib.crc32(view, value)

    def close(self) -> None:
        if isinstance(self._data, mmap.mmap):
            self._data.close()

    def __enter__(self) -> "FrameWalk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def decode_records(walk: FrameWalk, header: str) -> Iterator[dict[str, Any]]:
    """Decode the walked frames; a wrong header or a complete frame that is
    not UTF-8 JSON raises StorageFailure."""
    if walk.header != header:
        raise StorageFailure(f"{walk.path}: expected header {header!r}, found {walk.header!r}")
    for frame in walk:
        try:
            record = json.loads(frame.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise StorageFailure(f"{walk.path}: undecodable record: {err}") from err
        yield record


def write_frames(
    path: str | Path, header: str, frames: Iterable[bytes], *, sync: bool = True
) -> int:
    """Write a whole log from raw record payloads, streamed one at a time,
    and (by default) fsync it; returns the file's size."""
    with open(path, "wb") as fh:
        size = fh.write(header.encode("ascii") + b"\n")
        for payload in frames:
            size += fh.write(_frame(payload))
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    return size


def _encode(record: dict[str, Any]) -> bytes:
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def iter_records(
    path: str | Path, header: str, end: int | None = None
) -> Iterator[dict[str, Any]]:
    """Decode a log's records, or those in its first `end` bytes; an
    incomplete final frame raises once the complete ones before it are
    yielded."""
    with FrameWalk(path, end) as walk:
        yield from decode_records(walk, header)
    if walk.end < walk.size:
        raise StorageFailure(f"{path}: frame runs past end of file at byte {walk.end}")
