"""Home-network authentication authority.

Issues fresh authentication vectors, confirms challenge responses, and
processes resynchronization tokens. It holds no subscriber keys: one
operator runs it beside the vault, and it reads Ki and OPc through the
`keys` lookup it is built with (`SimVault.key_material_for` in a service
stack), so the vault stays the only holder of key bytes. Its own state,
and all that `netcore.log` holds, is the home network's half of the
protocol: `sqn_he` per IMSI and the pending challenges.

Sequence numbers advance by a fixed step per vector; challenges are
single-use and expire after a configurable TTL. Issuing a challenge first
drops, oldest first, the pending challenges already past their TTL (up to
the first one still live), so unanswered challenges do not pile up. A
challenge dropped this way answers `UnknownChallenge`; one answered late
before any drop answers `ChallengeExpired`. Each vector's SQN travels in
its `challenge` record, so one append both advances SQN and retains XRES.
"""

from __future__ import annotations

import hmac
import secrets
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import (
    ChallengeExpired,
    ResyncMacFailure,
    UnknownChallenge,
    UnknownSubscriber,
)
from .milenage import (
    Auts,
    MilenageKeyMaterial,
    SQN_MAX,
    generate_auth_vector,
    verify_auts,
)
from .recordlog import RecordLog

NETCORE_HEADER = "AESIM-NETCORE/2"

DEFAULT_AMF = b"\x80\x00"
DEFAULT_CHALLENGE_TTL = 60.0
DEFAULT_SQN_STEP = 1


@dataclass(frozen=True)
class PendingChallenge:
    challenge_id: str
    imsi: str
    rand: bytes
    xres: bytes
    issued_at: float
    expires_at: float


class NetworkCore:
    def __init__(
        self,
        state_dir: str | Path,
        keys: Callable[[str], MilenageKeyMaterial | None],
        *,
        sqn_step: int = DEFAULT_SQN_STEP,
        challenge_ttl: float = DEFAULT_CHALLENGE_TTL,
        clock: Callable[[], float] = time.time,
        sync: bool = True,
    ):
        if sqn_step < 1:
            raise ValueError("sqn_step must be >= 1")
        self.sqn_step = sqn_step
        self.challenge_ttl = challenge_ttl
        self.clock = clock
        self._keys = keys
        self._sqn_he: dict[str, int] = {}  # an IMSI reads 0 until its first vector
        self._pending: dict[str, PendingChallenge] = {}  # in issue order
        self._lock = threading.RLock()  # issuing a challenge expires under it too
        self._log = RecordLog(
            Path(state_dir) / "netcore.log", NETCORE_HEADER, self._apply,
            sync=sync, snapshot=self._snapshot,
        )

    def _apply(self, rec: dict) -> None:
        """The only writer of SQN and challenge state. A `subscriber` record,
        written by older versions with the subscriber's keys, is read as a
        `sqn` record and its key bytes are ignored."""
        kind = rec["type"]
        if kind in ("sqn", "subscriber"):
            self._sqn_he[rec["imsi"]] = int(rec["sqn_he"])
        elif kind == "challenge":
            self._sqn_he[rec["imsi"]] = int(rec["sqn_he"])
            self._pending[rec["challenge_id"]] = PendingChallenge(
                challenge_id=rec["challenge_id"],
                imsi=rec["imsi"],
                rand=bytes.fromhex(rec["rand"]),
                xres=bytes.fromhex(rec["xres"]),
                issued_at=rec["issued_at"],
                expires_at=rec["expires_at"],
            )
        elif kind == "challenge_consumed":
            self._pending.pop(rec["challenge_id"], None)

    def _snapshot(self):
        """Records that rebuild the SQNs and the pending challenges, in issue
        order; none carries a key. Replaying a `challenge` sets its IMSI's
        SQN, so each one here carries the current SQN, not the one it was
        issued at."""
        for imsi, sqn_he in self._sqn_he.items():
            yield {"type": "sqn", "imsi": imsi, "sqn_he": sqn_he}
        for challenge in self._pending.values():
            yield _challenge_record(challenge, self._sqn_he[challenge.imsi])

    def _require(self, imsi: str) -> MilenageKeyMaterial:
        key_material = self._keys(imsi)
        if key_material is None:
            raise UnknownSubscriber(f"no subscriber for imsi {imsi}")
        return key_material

    def generate_challenge(self, imsi: str) -> dict:
        """Issue a fresh (challenge_id, rand, autn) for delivery to the agent."""
        with self._lock:
            self.expire_stale_challenges()
            key_material = self._require(imsi)
            sqn_he = self._sqn_he.get(imsi, 0) + self.sqn_step
            if sqn_he > SQN_MAX:
                raise ResyncMacFailure("sqn space exhausted")  # pragma: no cover
            rand = secrets.token_bytes(16)
            vector = generate_auth_vector(key_material, rand, sqn_he, DEFAULT_AMF)
            challenge_id = secrets.token_hex(16)
            now = self.clock()
            challenge = PendingChallenge(
                challenge_id, imsi, rand, vector.xres, now, now + self.challenge_ttl
            )
            self._log.append(_challenge_record(challenge, sqn_he))
            return {"challenge_id": challenge_id, "rand": rand, "autn": vector.autn}

    def confirm_res(self, challenge_id: str, res: bytes) -> bool:
        """True iff `res` matches the retained XRES; challenge consumed either way."""
        with self._lock:
            challenge = self._pending.get(challenge_id)
            if challenge is None:
                raise UnknownChallenge(f"no pending challenge {challenge_id}")
            self._log.append({"type": "challenge_consumed", "challenge_id": challenge_id})
            if self.clock() > challenge.expires_at:
                raise ChallengeExpired(f"challenge {challenge_id} expired")
            return hmac.compare_digest(res, challenge.xres)

    def resynchronize(self, imsi: str, rand: bytes, auts: Auts) -> None:
        """Adopt the subscriber's reported SQN so the next vector is fresh."""
        with self._lock:
            sqn_ms = verify_auts(self._require(imsi), rand, auts)
            if sqn_ms is None:
                raise ResyncMacFailure(f"auts mac_s invalid for imsi {imsi}")
            self._log.append({"type": "sqn", "imsi": imsi, "sqn_he": sqn_ms + self.sqn_step})

    def expire_stale_challenges(self) -> int:
        """Drop challenges past their TTL, oldest first, up to the first one
        still live; returns how many were removed."""
        with self._lock:
            now = self.clock()
            stale = []
            for challenge in self._pending.values():
                if now <= challenge.expires_at:
                    break
                stale.append(challenge.challenge_id)
            for challenge_id in stale:
                self._log.append({"type": "challenge_consumed", "challenge_id": challenge_id})
            return len(stale)

    def subscriber_sqn(self, imsi: str) -> int:
        with self._lock:
            self._require(imsi)
            return self._sqn_he.get(imsi, 0)

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        self._log.close()


def _challenge_record(challenge: PendingChallenge, sqn_he: int) -> dict:
    return {
        "type": "challenge",
        "challenge_id": challenge.challenge_id,
        "imsi": challenge.imsi,
        "sqn_he": sqn_he,
        "rand": challenge.rand.hex(),
        "xres": challenge.xres.hex(),
        "issued_at": challenge.issued_at,
        "expires_at": challenge.expires_at,
    }
