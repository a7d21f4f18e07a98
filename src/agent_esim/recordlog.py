"""Append-only, length-delimited JSON record files.

All persisted state (vault, network core, policies, audit trail,
identifier allocator) sits on this substrate: a one-line version header
followed by framed records, each 4-byte big-endian length + UTF-8 JSON.

Each store changes its durable state in one place, the `apply` callback
it hands to its log. `append` writes a record, flushes and (by default)
fsyncs it, and only then passes it to `apply`, still under the log's
lock, so memory changes in file order and a failed write changes nothing.
Opening a log passes every stored record to the same `apply`, so a
restart rebuilds exactly what the live process acknowledged.
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
        if not fresh:
            for record in iter_records(self.path, header):
                apply(record)
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


def read_frames(path: str | Path) -> tuple[str, list[bytes]]:
    """Return (header, raw record payloads). Undecodable framing raises."""
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n").decode("ascii", "replace")
        body = fh.read()
    frames: list[bytes] = []
    pos = 0
    while pos < len(body):
        if pos + 4 > len(body):
            raise StorageFailure(f"{path}: truncated frame header at byte {pos}")
        n = int.from_bytes(body[pos : pos + 4], "big")
        pos += 4
        if pos + n > len(body):
            raise StorageFailure(f"{path}: frame runs past end of file")
        frames.append(body[pos : pos + n])
        pos += n
    return header, frames


def write_frames(path: str | Path, header: str, frames: list[bytes]) -> None:
    """Rewrite a log wholesale (maintenance/test tooling, not the hot path)."""
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for frame in frames:
            fh.write(len(frame).to_bytes(4, "big") + frame)
        fh.flush()
        os.fsync(fh.fileno())


def iter_records(path: str | Path, header: str) -> Iterator[dict[str, Any]]:
    found, frames = read_frames(path)
    if found != header:
        raise StorageFailure(f"{path}: expected header {header!r}, found {found!r}")
    for frame in frames:
        try:
            yield json.loads(frame.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise StorageFailure(f"{path}: undecodable record: {err}") from err
