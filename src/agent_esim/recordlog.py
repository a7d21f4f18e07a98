"""Append-only, length-delimited JSON record files.

All persisted state (vault, network core, policies, audit trail,
identifier allocator) sits on this substrate: a one-line version header
followed by framed records, each 4-byte big-endian length + UTF-8 JSON.

Each store changes its durable state in one place, the `apply` callback
it hands to its log. `append` writes a record, flushes and (by default)
fsyncs it, and only then passes it to `apply`, still under the log's
lock, so memory changes in file order and a failed write changes nothing.
Opening a log passes every stored record to the same `apply`, so a
restart rebuilds exactly what the live process acknowledged. A crash in the
middle of an append leaves an incomplete final frame that no caller was
told about; opening the log cuts it off (and records how many bytes it
dropped in `dropped_bytes`) before appending resumes. A complete frame that
does not decode still raises.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

from .errors import StorageFailure


class RecordLog:
    def __init__(
        self, path: str | Path, header: str, apply: Callable[[dict], None], *, sync: bool = True
    ):
        self.path = Path(path)
        self.header = header
        self.sync = sync
        self._apply = apply
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self.dropped_bytes = 0
        if not fresh:
            found, frames, end, size = _scan(self.path)
            for record in _decode(self.path, header, found, frames):
                apply(record)
            if end < size:
                os.truncate(self.path, end)
                self.dropped_bytes = size - end
        self._fh = open(self.path, "ab")
        if fresh:
            self._fh.write(header.encode("ascii") + b"\n")
            self._fh.flush()

    def append(self, record: dict[str, Any]) -> None:
        """Write `record` durably, then apply it; raises StorageFailure
        (and applies nothing) when the write fails."""
        data = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
        frame = len(data).to_bytes(4, "big") + data
        with self._lock:
            if self._fh is None:
                raise StorageFailure(f"{self.path}: log is closed")
            try:
                self._fh.write(frame)
                self._fh.flush()
                if self.sync:
                    os.fsync(self._fh.fileno())
            except OSError as err:
                raise StorageFailure(f"{self.path}: append failed: {err}") from err
            self._apply(record)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _scan(path: str | Path) -> tuple[str, list[bytes], int, int]:
    """(header, the complete frames, the offset where the last of them ends,
    the file size)."""
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    frames: list[bytes] = []
    pos = 0
    while pos + 4 <= len(body):
        end = pos + 4 + int.from_bytes(body[pos : pos + 4], "big")
        if end > len(body):
            break
        frames.append(body[pos + 4 : end])
        pos = end
    text = header.rstrip(b"\n").decode("ascii", "replace")
    return text, frames, len(header) + pos, len(header) + len(body)


def read_frames(path: str | Path) -> tuple[str, list[bytes]]:
    """Return (header, raw record payloads). An incomplete final frame raises."""
    header, frames, end, size = _scan(path)
    if end < size:
        raise StorageFailure(f"{path}: frame runs past end of file at byte {end}")
    return header, frames


def write_frames(path: str | Path, header: str, frames: list[bytes]) -> None:
    """Rewrite a log wholesale (maintenance/test tooling, not the hot path)."""
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for frame in frames:
            fh.write(len(frame).to_bytes(4, "big") + frame)
        fh.flush()
        os.fsync(fh.fileno())


def _decode(path, expected: str, found: str, frames: list[bytes]) -> Iterator[dict[str, Any]]:
    if found != expected:
        raise StorageFailure(f"{path}: expected header {expected!r}, found {found!r}")
    for frame in frames:
        try:
            yield json.loads(frame.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise StorageFailure(f"{path}: undecodable record: {err}") from err


def iter_records(path: str | Path, header: str) -> Iterator[dict[str, Any]]:
    """Decode a log's records; an incomplete final frame raises."""
    yield from _decode(path, header, *read_frames(path))


def read_prefix(path: str | Path, header: str) -> tuple[list[dict[str, Any]], bool]:
    """The records that decode in order from the start of a log, and whether
    they are all of it (False after a wrong header, an undecodable record or
    an incomplete final frame)."""
    found, frames, end, size = _scan(path)
    records: list[dict[str, Any]] = []
    try:
        records.extend(_decode(path, header, found, frames))
    except StorageFailure:
        return records, False
    return records, end == size
