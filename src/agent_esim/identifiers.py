"""IMSI / ICCID allocation.

Identifiers are format-valid without registry coordination: a configured
MCC+MNC prefix plus a zero-padded sequential serial for the IMSI, and a
Luhn-checked 19-digit ICCID sharing the same serial. The allocator keeps
its counter in the state directory so identifiers stay unique across
restarts.
"""

from __future__ import annotations

import threading
from pathlib import Path

from .errors import InvalidProfile
from .recordlog import RecordLog

ALLOC_HEADER = "AESIM-ALLOC/1"

DEFAULT_IMSI_PREFIX = "00101"   # test network MCC 001 / MNC 01
DEFAULT_ICCID_PREFIX = "890101"


def luhn_check_digit(digits: str) -> str:
    """Check digit making `digits + d` pass the Luhn test."""
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = int(ch)
        if i % 2 == 0:  # positions counted from the check digit
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return str((10 - total % 10) % 10)


def luhn_valid(digits: str) -> bool:
    if not digits.isdigit() or len(digits) < 2:
        return False
    return luhn_check_digit(digits[:-1]) == digits[-1]


def validate_imsi(imsi: str) -> None:
    if not (isinstance(imsi, str) and imsi.isdigit() and len(imsi) == 15):
        raise InvalidProfile("imsi", "imsi must be exactly 15 decimal digits")


def validate_iccid(iccid: str) -> None:
    if not (isinstance(iccid, str) and iccid.isdigit() and 19 <= len(iccid) <= 20):
        raise InvalidProfile("iccid", "iccid must be 19-20 decimal digits")
    if not luhn_valid(iccid):
        raise InvalidProfile("iccid", "iccid fails the Luhn check")


class IdentifierAllocator:
    """Sequential, persistent IMSI/ICCID source for one operator."""

    def __init__(
        self,
        state_dir: str | Path,
        *,
        imsi_prefix: str = DEFAULT_IMSI_PREFIX,
        iccid_prefix: str = DEFAULT_ICCID_PREFIX,
        sync: bool = True,
    ):
        if not (imsi_prefix.isdigit() and 5 <= len(imsi_prefix) <= 6):
            raise InvalidProfile("imsi_prefix", "imsi prefix must be 5-6 digits")
        if not (iccid_prefix.isdigit() and 2 <= len(iccid_prefix) <= 12):
            raise InvalidProfile("iccid_prefix", "iccid prefix must be 2-12 digits")
        self.imsi_prefix = imsi_prefix
        self.iccid_prefix = iccid_prefix
        self._lock = threading.Lock()
        self._next = 1
        self._log = RecordLog(
            Path(state_dir) / "alloc.log", ALLOC_HEADER, self._apply,
            sync=sync, snapshot=self._snapshot,
        )

    def _apply(self, rec: dict) -> None:
        self._next = max(self._next, int(rec["serial"]) + 1)

    def _snapshot(self):
        """The last serial handed out."""
        yield {"serial": self._next - 1}

    def allocate(self) -> tuple[str, str]:
        """Return a fresh (imsi, iccid) pair."""
        with self._lock:
            serial = self._next
            self._log.append({"serial": serial})
        msin = str(serial).zfill(15 - len(self.imsi_prefix))
        imsi = self.imsi_prefix + msin
        body = self.iccid_prefix + str(serial).zfill(18 - len(self.iccid_prefix))
        iccid = body + luhn_check_digit(body)
        validate_imsi(imsi)
        validate_iccid(iccid)
        return imsi, iccid

    def close(self) -> None:
        self._log.close()
