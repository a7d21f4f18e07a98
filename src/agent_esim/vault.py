"""Emulated telco-hosted secure element.

Hosts subscriber profiles and executes the USIM half of every
cryptographic operation on their behalf. The trust boundary is this
process: subscriber keys and the private signing half enter at install
time and never appear in any response, status document, or log line. The
vault is their only holder: the network core reads Ki and OPc through
`key_material_for`. The backing state file keeps key bytes in the clear; a
production deployment would put an HSM behind the same interface.

One vault lock is held across each check and the write it guards: install
uniqueness, a state transition, and SQN acceptance with its `sqn` record,
so SQN acceptance is strictly monotonic. Each write changes one field, so
a reader needs no lock to see whole states. MILENAGE and signing run
outside the lock, since key material never changes; that no sign follows
an acknowledged revoke is the gateway's guarantee, through its
per-profile gate.
"""

from __future__ import annotations

import enum
import hmac
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.exceptions import InvalidSignature

from .errors import (
    DuplicateProfile,
    IllegalTransition,
    InvalidProfile,
    ProfileNotActive,
    StorageFailure,
    UnknownProfile,
)
from .identifiers import validate_iccid, validate_imsi
from .milenage import (
    Auts,
    MilenageKeyMaterial,
    build_auts,
    f1,
    f2345,
    parse_autn,
    sqn_from_bytes,
)
from .recordlog import RecordLog

VAULT_HEADER = "AESIM-VAULT/1"

SIGNING_DOMAIN = b"agent-esim-sign/v1"


def signing_message(profile_id: str, payload_digest: bytes) -> bytes:
    """Domain-separated message actually signed by usim_sign."""
    return SIGNING_DOMAIN + b"\x00" + profile_id.encode("utf-8") + payload_digest


def verify_profile_signature(public_key: bytes, profile_id: str, payload_digest: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(
            signature, signing_message(profile_id, payload_digest)
        )
        return True
    except (InvalidSignature, ValueError):
        return False


class ProfileState(str, enum.Enum):
    PROVISIONED = "Provisioned"
    ACTIVE = "Active"
    SUSPENDED = "Suspended"
    REVOKED = "Revoked"


_LEGAL_TRANSITIONS = {
    (ProfileState.PROVISIONED, ProfileState.ACTIVE),
    (ProfileState.ACTIVE, ProfileState.SUSPENDED),
    (ProfileState.SUSPENDED, ProfileState.ACTIVE),
}


def transition_allowed(current: ProfileState, new: ProfileState) -> bool:
    if new is ProfileState.REVOKED:
        return True  # any state may be revoked; Revoked -> Revoked is a no-op
    if current is ProfileState.REVOKED:
        return False
    return (current, new) in _LEGAL_TRANSITIONS


@dataclass(frozen=True)
class BindingMetadata:
    """Ties a profile to the software context allowed to use it."""

    agent_public_key: bytes
    expected_measurements: frozenset[bytes]
    enterprise_namespace: str
    container_fingerprint: bytes | None = None

    def __post_init__(self):
        """The one check of a binding, wherever it comes from."""
        object.__setattr__(
            self, "expected_measurements", frozenset(self.expected_measurements)
        )
        if len(self.agent_public_key) != 32:
            raise InvalidProfile("binding.agent_public_key", "agent public key must be 32 bytes")
        if not self.expected_measurements:
            raise InvalidProfile(
                "binding.expected_measurements", "at least one measurement required"
            )
        for m in self.expected_measurements:
            if len(m) != 32:
                raise InvalidProfile("binding.expected_measurements", "measurements must be 32 bytes")
        if self.container_fingerprint is not None and len(self.container_fingerprint) != 32:
            raise InvalidProfile("binding.container_fingerprint", "fingerprint must be 32 bytes")

    def summary(self) -> dict:
        return {
            "enterprise_namespace": self.enterprise_namespace,
            "measurement_count": len(self.expected_measurements),
            "agent_public_key": self.agent_public_key.hex(),
            "container_fingerprint": (
                self.container_fingerprint.hex() if self.container_fingerprint else None
            ),
        }


@dataclass
class SimProfile:
    profile_id: str
    iccid: str
    imsi: str
    key_material: MilenageKeyMaterial
    signing_key: Ed25519PrivateKey
    binding: BindingMetadata
    sqn_ms: int = 0
    state: ProfileState = ProfileState.PROVISIONED

    def public_signing_key(self) -> bytes:
        return self.signing_key.public_key().public_bytes_raw()


@dataclass(frozen=True)
class AkaSuccess:
    kind = "success"  # class attribute, not a field: audit detail and wire name
    res: bytes
    ck: bytes
    ik: bytes


@dataclass(frozen=True)
class AkaSyncFailure:
    kind = "sync_failure"
    auts: Auts


@dataclass(frozen=True)
class AkaMacFailure:
    kind = "mac_failure"


AkaOutcome = Union[AkaSuccess, AkaSyncFailure, AkaMacFailure]


def new_profile(
    profile_id: str,
    imsi: str,
    iccid: str,
    key_material: MilenageKeyMaterial,
    binding: BindingMetadata,
) -> SimProfile:
    """Fresh profile with a newly generated signing keypair."""
    return SimProfile(
        profile_id=profile_id,
        iccid=iccid,
        imsi=imsi,
        key_material=key_material,
        signing_key=Ed25519PrivateKey.generate(),
        binding=binding,
    )


class SimVault:
    """Profile store plus USIM-side crypto executor."""

    def __init__(self, state_dir: str | Path, *, sync: bool = True):
        self._profiles: dict[str, SimProfile] = {}
        self._by_imsi: dict[str, SimProfile] = {}
        self._iccids: set[str] = set()
        self._lock = threading.Lock()
        self.path = Path(state_dir) / "vault.log"
        self._log = RecordLog(
            self.path, VAULT_HEADER, self._apply,
            sync=sync, snapshot=self._snapshot,
        )

    # -- persistence ---------------------------------------------------------

    def _apply(self, rec: dict) -> None:
        """The only writer of profile state: live appends and restart alike.
        A stored binding that the check refuses stops the open."""
        kind = rec["type"]
        if kind == "install":
            try:
                profile = _profile_from_record(rec["profile"])
            except InvalidProfile as err:
                profile_id = rec["profile"]["profile_id"]
                raise StorageFailure(f"{self.path}: profile {profile_id}: {err}") from err
            self._profiles[profile.profile_id] = profile
            self._by_imsi[profile.imsi] = profile
            self._iccids.add(profile.iccid)
        elif kind == "state":
            self._profiles[rec["profile_id"]].state = ProfileState(rec["state"])
        elif kind == "sqn":
            self._profiles[rec["profile_id"]].sqn_ms = int(rec["sqn_ms"])

    def _snapshot(self):
        """Records that rebuild the current profiles: one `install` each,
        carrying its state and SQN (a revoked profile keeps its keys)."""
        for profile in self._profiles.values():
            yield {"type": "install", "profile": _profile_to_record(profile)}

    def _require(self, profile_id: str) -> SimProfile:
        profile = self._profiles.get(profile_id)
        if profile is None:
            raise UnknownProfile(f"no such profile: {profile_id}")
        return profile

    # -- operations ----------------------------------------------------------

    def install_profile(self, profile: SimProfile) -> str:
        """Install `profile` as given, state and SQN included."""
        validate_imsi(profile.imsi)
        validate_iccid(profile.iccid)
        if not profile.profile_id:
            raise InvalidProfile("profile_id", "profile_id must be non-empty")
        with self._lock:
            if profile.profile_id in self._profiles:
                raise DuplicateProfile(f"profile_id already installed: {profile.profile_id}")
            if profile.imsi in self._by_imsi:
                raise DuplicateProfile(f"imsi already installed: {profile.imsi}")
            if profile.iccid in self._iccids:
                raise DuplicateProfile(f"iccid already installed: {profile.iccid}")
            self._log.append({"type": "install", "profile": _profile_to_record(profile)})
        return profile.profile_id

    def usim_authenticate(self, profile_id: str, rand: bytes, autn: bytes) -> AkaOutcome:
        profile = self._require(profile_id)
        km = profile.key_material
        res, ck, ik, ak = f2345(km, rand)
        parsed = parse_autn(autn, ak)
        xmac = f1(km, rand, parsed.sqn, parsed.amf)[0]
        with self._lock:
            if profile.state is not ProfileState.ACTIVE:
                raise ProfileNotActive(profile.state)
            if not hmac.compare_digest(xmac, parsed.mac_a):
                return AkaMacFailure()
            sqn = sqn_from_bytes(parsed.sqn)
            if sqn <= profile.sqn_ms:
                return AkaSyncFailure(auts=build_auts(km, rand, profile.sqn_ms))
            self._log.append({"type": "sqn", "profile_id": profile_id, "sqn_ms": sqn})
            return AkaSuccess(res=res, ck=ck, ik=ik)

    def usim_sign(self, profile_id: str, payload_digest: bytes) -> dict:
        if len(payload_digest) != 32:
            raise InvalidProfile("payload_digest", "payload digest must be 32 bytes")
        profile = self._require(profile_id)
        if profile.state is not ProfileState.ACTIVE:
            raise ProfileNotActive(profile.state)
        signature = profile.signing_key.sign(signing_message(profile_id, payload_digest))
        return {
            "profile_id": profile_id,
            "signature": signature.hex(),
            "public_key": profile.public_signing_key().hex(),
        }

    def set_profile_state(self, profile_id: str, new_state: ProfileState) -> ProfileState:
        with self._lock:
            profile = self._require(profile_id)
            previous = profile.state
            if previous is ProfileState.REVOKED and new_state is ProfileState.REVOKED:
                return previous  # idempotent terminal no-op
            if not transition_allowed(previous, new_state):
                raise IllegalTransition(previous, new_state)
            self._log.append(
                {"type": "state", "profile_id": profile_id, "state": new_state.value}
            )
            return previous

    def get_profile_status(self, profile_id: str) -> dict:
        profile = self._require(profile_id)
        return {
            "profile_id": profile.profile_id,
            "state": profile.state.value,
            "imsi": profile.imsi,
            "iccid": profile.iccid,
            "sqn_ms": profile.sqn_ms,
            "binding": profile.binding.summary(),
            "public_signing_key": profile.public_signing_key().hex(),
        }

    def holds_identifier(self, imsi: str, iccid: str) -> bool:
        """Whether an installed profile, revoked ones included, holds `imsi`
        or `iccid`: the identifier allocator's one record of what it issued."""
        return imsi in self._by_imsi or iccid in self._iccids

    def key_material_for(self, imsi: str) -> MilenageKeyMaterial | None:
        """Ki and OPc of the profile holding `imsi`, or None: the network
        core's one source of keys, so no second copy is stored anywhere.
        Lock-free, since profiles are never removed and their key material
        never changes. A `Suspended` or `Revoked` profile still answers."""
        profile = self._by_imsi.get(imsi)
        return None if profile is None else profile.key_material

    # -- metadata accessors used by the gateway pipeline ----------------------

    def get_state(self, profile_id: str) -> ProfileState:
        return self._require(profile_id).state

    def get_binding(self, profile_id: str) -> BindingMetadata:
        return self._require(profile_id).binding

    def __contains__(self, profile_id: str) -> bool:
        return profile_id in self._profiles

    def profile_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._profiles)

    def close(self) -> None:
        self._log.close()


def _profile_to_record(profile: SimProfile) -> dict:
    km = profile.key_material
    return {
        "profile_id": profile.profile_id,
        "iccid": profile.iccid,
        "imsi": profile.imsi,
        "k": km.k.hex(),
        "opc": km.opc.hex(),
        "op": km.op.hex() if km.op else None,
        "signing_key": profile.signing_key.private_bytes_raw().hex(),
        "binding": {
            "agent_public_key": profile.binding.agent_public_key.hex(),
            "expected_measurements": sorted(
                m.hex() for m in profile.binding.expected_measurements
            ),
            "enterprise_namespace": profile.binding.enterprise_namespace,
            "container_fingerprint": (
                profile.binding.container_fingerprint.hex()
                if profile.binding.container_fingerprint
                else None
            ),
        },
        "sqn_ms": profile.sqn_ms,
        "state": profile.state.value,
    }


def _profile_from_record(rec: dict) -> SimProfile:
    """The profile an `install` record holds; a `policy_id` stored by older
    versions is ignored, since `PolicyStore` owns each profile's policy."""
    binding = rec["binding"]
    return SimProfile(
        profile_id=rec["profile_id"],
        iccid=rec["iccid"],
        imsi=rec["imsi"],
        key_material=MilenageKeyMaterial(
            k=bytes.fromhex(rec["k"]),
            opc=bytes.fromhex(rec["opc"]),
            op=bytes.fromhex(rec["op"]) if rec.get("op") else None,
        ),
        signing_key=Ed25519PrivateKey.from_private_bytes(
            bytes.fromhex(rec["signing_key"])
        ),
        binding=BindingMetadata(
            agent_public_key=bytes.fromhex(binding["agent_public_key"]),
            expected_measurements=frozenset(
                bytes.fromhex(m) for m in binding["expected_measurements"]
            ),
            enterprise_namespace=binding["enterprise_namespace"],
            container_fingerprint=(
                bytes.fromhex(binding["container_fingerprint"])
                if binding.get("container_fingerprint")
                else None
            ),
        ),
        sqn_ms=int(rec["sqn_ms"]),
        state=ProfileState(rec["state"]),
    )
