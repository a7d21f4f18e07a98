"""Delegation policies and their enforcement.

A policy constrains how a profile may be used: operation allowlist,
validity window, source-network scope, measurement pinning, and a
sliding-window rate limit. `DelegationPolicy.__post_init__` is the one
check of a policy: it refuses what enforcement cannot apply (a non-string
id or prefix, a window or validity bound that is not finite).
`DelegationPolicy.from_json` reads a document without coercing it, so a
field of the wrong JSON type is refused, not converted.
`enforce_policy` runs the checks in one fixed order and raises
`GatewayDenied` at the first that fails; the rate budget is spent only
when every earlier check passed.

Rate-limit semantics: a request at time `t` is admitted when strictly
fewer than `max_ops` prior admissions fall in [t - window, t); admissions
at exactly the window start still count, the request under evaluation
never counts against itself. Empty cidr_allowlist and empty
measurement_allowlist mean "no additional restriction".
"""

from __future__ import annotations

import enum
import ipaddress
import math
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable

from .errors import GatewayDenied, InvalidPolicy, StorageFailure, UnknownProfile
from .recordlog import RecordLog

POLICY_HEADER = "AESIM-POLICY/1"


class GatewayOp(enum.Enum):
    SIGN = "Sign"
    AUTHENTICATE = "Authenticate"
    STATUS = "Status"


class DenyReason(str, enum.Enum):
    """A member equals its value (`RateLimit`); format it with `.value`."""

    PROFILE_STATE = "ProfileState"
    ATTESTATION = "Attestation"
    POLICY_VALIDITY = "PolicyValidity"
    OP_PERMISSION = "OpPermission"
    CIDR_SCOPE = "CidrScope"
    MEASUREMENT_MATCH = "MeasurementMatch"
    RATE_LIMIT = "RateLimit"


@dataclass(frozen=True)
class RateLimit:
    max_ops: int
    window_seconds: float


@dataclass(frozen=True)
class Validity:
    not_before: float
    not_after: float


@dataclass(frozen=True)
class DelegationPolicy:
    policy_id: str
    rate_limit: RateLimit
    validity: Validity
    allowed_ops: frozenset[GatewayOp]
    cidr_allowlist: frozenset[str] = frozenset()
    measurement_allowlist: frozenset[bytes] = frozenset()

    # the parsed cidr_allowlist, which enforcement reads; not compared or stored
    networks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """The one check of a policy, wherever it comes from."""
        object.__setattr__(self, "allowed_ops", frozenset(self.allowed_ops))
        object.__setattr__(self, "cidr_allowlist", frozenset(self.cidr_allowlist))
        object.__setattr__(
            self, "measurement_allowlist", frozenset(self.measurement_allowlist)
        )
        if not isinstance(self.policy_id, str) or not self.policy_id:
            raise InvalidPolicy("policy_id must be a non-empty string")
        if self.rate_limit.max_ops < 0:
            raise InvalidPolicy("rate_limit.max_ops must be >= 0")
        if not 0 < self.rate_limit.window_seconds < math.inf:
            raise InvalidPolicy("rate_limit.window_seconds must be finite and > 0")
        if not -math.inf < self.validity.not_before < self.validity.not_after < math.inf:
            raise InvalidPolicy("validity must be finite, with not_after after not_before")
        if not self.allowed_ops:
            raise InvalidPolicy("allowed_ops must be non-empty")
        if not all(isinstance(prefix, str) for prefix in self.cidr_allowlist):
            raise InvalidPolicy("cidr_allowlist entries must be strings")
        try:
            networks = tuple(ipaddress.ip_network(p) for p in self.cidr_allowlist)
        except ValueError as err:
            raise InvalidPolicy(f"bad cidr prefix: {err}") from err
        object.__setattr__(self, "networks", networks)
        for m in self.measurement_allowlist:
            if len(m) != 32:
                raise InvalidPolicy("measurement_allowlist entries must be 32 bytes")

    def to_json(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "rate_limit": {
                "max_ops": self.rate_limit.max_ops,
                "window_seconds": self.rate_limit.window_seconds,
            },
            "validity": {
                "not_before": self.validity.not_before,
                "not_after": self.validity.not_after,
            },
            "allowed_ops": sorted(op.value for op in self.allowed_ops),
            "cidr_allowlist": sorted(self.cidr_allowlist),
            "measurement_allowlist": sorted(m.hex() for m in self.measurement_allowlist),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DelegationPolicy":
        """Read a policy document without coercing its fields: `max_ops` is
        an integer, each window or validity bound a number (an integer
        reads as a float), each allowlist a list."""
        if not isinstance(data, dict):
            raise InvalidPolicy("malformed policy document: not a JSON object")
        policy_id = data.get("policy_id")
        try:
            rate, validity = data["rate_limit"], data["validity"]
            window, not_before, not_after = (
                float(_typed(section[key], (int, float), key))
                for section, key in (
                    (rate, "window_seconds"), (validity, "not_before"), (validity, "not_after")
                )
            )
            ops, prefixes, measurements = (
                _typed(data.get(key, []), (list,), key)
                for key in ("allowed_ops", "cidr_allowlist", "measurement_allowlist")
            )
            return cls(
                policy_id=uuid.uuid4().hex if policy_id in (None, "") else policy_id,
                rate_limit=RateLimit(_typed(rate["max_ops"], (int,), "max_ops"), window),
                validity=Validity(not_before, not_after),
                allowed_ops=frozenset(GatewayOp(op) for op in ops),
                cidr_allowlist=frozenset(prefixes),
                measurement_allowlist=frozenset(bytes.fromhex(m) for m in measurements),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise InvalidPolicy(f"malformed policy document: {err}") from err


def _typed(value, kinds: tuple[type, ...], name: str):
    """`value` when its type is exactly one of `kinds`, so `true` is no
    integer; else InvalidPolicy."""
    if type(value) not in kinds:
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise InvalidPolicy(f"{name} must be {expected}, not {type(value).__name__}")
    return value


def permissive_policy(
    *,
    policy_id: str | None = None,
    max_ops: int = 1000,
    window_seconds: float = 60.0,
    lifetime_seconds: float = 4e9,  # effectively unbounded
    not_before: float = 0.0,
    ops: Iterable[GatewayOp] = (GatewayOp.SIGN, GatewayOp.AUTHENTICATE, GatewayOp.STATUS),
) -> DelegationPolicy:
    """Convenience default used by provisioning when none is supplied."""
    return DelegationPolicy(
        policy_id=policy_id or uuid.uuid4().hex,
        rate_limit=RateLimit(max_ops=max_ops, window_seconds=window_seconds),
        validity=Validity(not_before=not_before, not_after=not_before + lifetime_seconds),
        allowed_ops=frozenset(ops),
    )


def cidr_match(source_address: str, networks: Collection) -> bool:
    """Whether the address lies in one of `networks` (parsed prefixes, as a
    policy's `networks`); an empty collection admits every address."""
    if not networks:
        return True
    try:
        addr = ipaddress.ip_address(source_address)
    except ValueError:
        return False
    return any(addr in network for network in networks)


class RateState:
    """Recorded admission times for one profile. Not thread-safe: its
    caller serializes every use (the gateway holds the profile's gate)."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: deque[float] = deque()

    def prune(self, window_start: float) -> None:
        while self.events and self.events[0] < window_start:
            self.events.popleft()

    def headroom(self, limit: RateLimit, now: float) -> int:
        self.prune(now - limit.window_seconds)
        return max(0, limit.max_ops - len(self.events))

    def try_consume(self, limit: RateLimit, now: float) -> float | None:
        """Admit and return None, or deny and return the seconds until the
        budget frees."""
        self.prune(now - limit.window_seconds)
        if len(self.events) < limit.max_ops:
            self.events.append(now)
            return None
        if limit.max_ops == 0:
            return limit.window_seconds
        blocker = self.events[len(self.events) - limit.max_ops]
        return max(0.0, blocker + limit.window_seconds - now)


def measurement_allowed(
    measurement: bytes, bound: Collection[bytes], allowlist: Collection[bytes]
) -> bool:
    """The measurement rule: the measurement must be bound to the profile
    and, when the policy pins a non-empty allowlist, listed there too."""
    return measurement in bound and (not allowlist or measurement in allowlist)


def enforce_policy(
    policy: DelegationPolicy,
    op: GatewayOp,
    source_address: str,
    now: float,
    rate_state: RateState,
    *,
    measurement: bytes | None = None,
    binding_measurements: Collection[bytes] | None = None,
) -> None:
    """Policy-owned checks in pipeline order; raises GatewayDenied at the
    first that fails and returns nothing when all pass.

    Order: validity window, operation permission, source scope, measurement
    rule (when a measurement is supplied), then rate limit. Only a fully
    admitted request consumes rate budget.
    """
    if not (policy.validity.not_before <= now <= policy.validity.not_after):
        raise GatewayDenied(DenyReason.POLICY_VALIDITY)
    if op not in policy.allowed_ops:
        raise GatewayDenied(DenyReason.OP_PERMISSION)
    if not cidr_match(source_address, policy.networks):
        raise GatewayDenied(DenyReason.CIDR_SCOPE)
    if measurement is not None and not measurement_allowed(
        measurement, binding_measurements or frozenset(), policy.measurement_allowlist
    ):
        raise GatewayDenied(DenyReason.MEASUREMENT_MATCH)
    retry_after = rate_state.try_consume(policy.rate_limit, now)
    if retry_after is not None:
        raise GatewayDenied(DenyReason.RATE_LIMIT, retry_after=math.ceil(retry_after) or 1)


class PolicyStore:
    """Persistent profile_id -> DelegationPolicy binding."""

    def __init__(self, state_dir: str | Path, *, sync: bool = True):
        self._policies: dict[str, DelegationPolicy] = {}
        self._lock = threading.Lock()
        self.path = Path(state_dir) / "policies.log"
        self._log = RecordLog(
            self.path, POLICY_HEADER, self._apply, sync=sync, snapshot=self._snapshot
        )

    def _apply(self, rec: dict) -> None:
        """A stored policy that the check refuses stops the open: serving its
        profile would fail every request."""
        try:
            self._policies[rec["profile_id"]] = DelegationPolicy.from_json(rec["policy"])
        except InvalidPolicy as err:
            raise StorageFailure(f"{self.path}: policy of {rec['profile_id']}: {err}") from err

    def _snapshot(self):
        """One binding record per profile: the current policy."""
        for profile_id, policy in self._policies.items():
            yield {"profile_id": profile_id, "policy": policy.to_json()}

    def set(self, profile_id: str, policy: DelegationPolicy) -> str | None:
        """Bind `policy`; returns the previous policy_id, if any."""
        with self._lock:
            previous = self._policies.get(profile_id)
            self._log.append({"profile_id": profile_id, "policy": policy.to_json()})
            return previous.policy_id if previous else None

    def get(self, profile_id: str) -> DelegationPolicy:
        with self._lock:
            policy = self._policies.get(profile_id)
        if policy is None:
            raise UnknownProfile(f"no policy bound for profile {profile_id}")
        return policy

    def close(self) -> None:
        self._log.close()
