"""Delegation policies and their enforcement.

A policy constrains how a profile may be used: operation allowlist,
validity window, source-network scope, measurement pinning, and a
sliding-window rate limit. Enforcement runs the checks in one fixed
order; the first failing check is the deny reason, and the rate budget
is spent only when every earlier check passed.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable

from .errors import InvalidPolicy, UnknownProfile
from .recordlog import RecordLog

POLICY_HEADER = "AESIM-POLICY/1"


class GatewayOp(enum.Enum):
    SIGN = "Sign"
    AUTHENTICATE = "Authenticate"
    STATUS = "Status"


class DenyReason(enum.Enum):
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

    def __post_init__(self):
        object.__setattr__(self, "allowed_ops", frozenset(self.allowed_ops))
        object.__setattr__(self, "cidr_allowlist", frozenset(self.cidr_allowlist))
        object.__setattr__(
            self, "measurement_allowlist", frozenset(self.measurement_allowlist)
        )
        if not self.policy_id:  # from_json would mint a new id on every apply
            raise InvalidPolicy("policy_id must be non-empty")
        if self.rate_limit.max_ops < 0:
            raise InvalidPolicy("rate_limit.max_ops must be >= 0")
        if self.rate_limit.window_seconds <= 0:
            raise InvalidPolicy("rate_limit.window_seconds must be > 0")
        if not self.validity.not_after > self.validity.not_before:
            raise InvalidPolicy("validity.not_after must be after not_before")
        if not self.allowed_ops:
            raise InvalidPolicy("allowed_ops must be non-empty")
        for prefix in self.cidr_allowlist:
            try:
                ipaddress.ip_network(prefix)
            except ValueError as err:
                raise InvalidPolicy(f"bad cidr prefix {prefix!r}: {err}") from err
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
        if not isinstance(data, dict):
            raise InvalidPolicy("malformed policy document: not a JSON object")
        try:
            return cls(
                policy_id=data.get("policy_id") or uuid.uuid4().hex,
                rate_limit=RateLimit(
                    max_ops=int(data["rate_limit"]["max_ops"]),
                    window_seconds=float(data["rate_limit"]["window_seconds"]),
                ),
                validity=Validity(
                    not_before=float(data["validity"]["not_before"]),
                    not_after=float(data["validity"]["not_after"]),
                ),
                allowed_ops=frozenset(GatewayOp(op) for op in data["allowed_ops"]),
                cidr_allowlist=frozenset(data.get("cidr_allowlist", [])),
                measurement_allowlist=frozenset(
                    bytes.fromhex(m) for m in data.get("measurement_allowlist", [])
                ),
            )
        except InvalidPolicy:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise InvalidPolicy(f"malformed policy document: {err}") from err


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


def cidr_match(source_address: str, prefixes: Iterable[str]) -> bool:
    prefixes = list(prefixes)
    if not prefixes:
        return True
    try:
        addr = ipaddress.ip_address(source_address)
    except ValueError:
        return False
    for prefix in prefixes:
        try:
            if addr in ipaddress.ip_network(prefix):
                return True
        except ValueError:
            continue
    return False


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

    def try_consume(self, limit: RateLimit, now: float) -> tuple[bool, float | None]:
        """Admit-or-deny; on deny, report seconds until the budget frees."""
        self.prune(now - limit.window_seconds)
        if len(self.events) < limit.max_ops:
            self.events.append(now)
            return True, None
        if limit.max_ops == 0:
            return False, limit.window_seconds
        blocker = self.events[len(self.events) - limit.max_ops]
        return False, max(0.0, blocker + limit.window_seconds - now)


@dataclass(frozen=True)
class GatewayDecision:
    allowed: bool
    reason: DenyReason | None = None
    retry_after: float | None = None

    @classmethod
    def allow(cls) -> "GatewayDecision":
        return cls(allowed=True)

    @classmethod
    def deny(cls, reason: DenyReason, retry_after: float | None = None) -> "GatewayDecision":
        return cls(allowed=False, reason=reason, retry_after=retry_after)


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
) -> GatewayDecision:
    """Policy-owned checks in pipeline order; total function.

    Order: validity window, operation permission, source scope, measurement
    rule (when a measurement is supplied), then rate limit. Only a fully
    admitted request consumes rate budget.
    """
    if not (policy.validity.not_before <= now <= policy.validity.not_after):
        return GatewayDecision.deny(DenyReason.POLICY_VALIDITY)
    if op not in policy.allowed_ops:
        return GatewayDecision.deny(DenyReason.OP_PERMISSION)
    if not cidr_match(source_address, policy.cidr_allowlist):
        return GatewayDecision.deny(DenyReason.CIDR_SCOPE)
    if measurement is not None and not measurement_allowed(
        measurement, binding_measurements or frozenset(), policy.measurement_allowlist
    ):
        return GatewayDecision.deny(DenyReason.MEASUREMENT_MATCH)
    admitted, retry_after = rate_state.try_consume(policy.rate_limit, now)
    if not admitted:
        return GatewayDecision.deny(
            DenyReason.RATE_LIMIT,
            retry_after=None if retry_after is None else math.ceil(retry_after) or 1,
        )
    return GatewayDecision.allow()


class PolicyStore:
    """Persistent profile_id -> DelegationPolicy binding."""

    def __init__(self, state_dir: str | Path, *, sync: bool = True):
        self._policies: dict[str, DelegationPolicy] = {}
        self._lock = threading.Lock()
        self._log = RecordLog(
            Path(state_dir) / "policies.log", POLICY_HEADER, self._apply,
            sync=sync, snapshot=self._snapshot,
        )

    def _apply(self, rec: dict) -> None:
        self._policies[rec["profile_id"]] = DelegationPolicy.from_json(rec["policy"])

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
