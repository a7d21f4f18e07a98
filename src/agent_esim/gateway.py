"""Identity gateway: the only path from agents to the vault.

Every identity operation runs a fixed decision pipeline under a
per-profile mutex:

    1. ProfileState      profile exists and is Active
    2. Attestation       token present, its root id in the gateway's roots
                         mapping, signature valid, inside validity window
    3. PolicyValidity    now within the policy's validity window
    4. OpPermission      operation allowed by the policy
    5. CidrScope         source address inside the allowlist (empty = any)
    6. MeasurementMatch  token measurement bound to the profile and, when
                         the policy pins measurements, listed there
    7. RateLimit         sliding-window budget; only spent when 1-6 passed

The first failing check is the deny reason: the pipeline raises
`GatewayDenied` there (`enforce_policy` raises it for checks 3-7). One
helper, `_audited`, maps the outcome of every identity and admin operation
to exactly one audit record — allow, deny, or error — appended before the
response is released; if the append fails the request fails closed. An
unexpected failure is audited as `VaultError` and answers 503. Status is
read-only: it bypasses the pipeline and is exempt from rate limiting, but
like every other operation it runs and is audited under the profile's
mutex.

`_audited` takes that mutex for every operation, revocation and policy
updates included, so rate-limit exactness holds under concurrency and no
allow can be admitted after a revocation returns (the linearization point
is the vault state write under that mutex). Each profile's mutex and rate
window live together in one gate, and gates are kept only for profiles
the vault holds, so requests for unknown ids add no state beyond their
record.
"""

from __future__ import annotations

import secrets
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .attestation import AttestationToken, verify_token_integrity
from .audit import AuditLog, AuditOperation, AuditOutcome, ChainStatus
from .errors import (
    AgentEsimError,
    GatewayDenied,
    InvalidPolicy,
    MalformedRequest,
    ProfileNotActive,
    StorageFailure,
    VaultError,
)
from .identifiers import IdentifierAllocator
from .milenage import MilenageKeyMaterial, derive_opc
from .policy import (
    DelegationPolicy,
    DenyReason,
    GatewayOp,
    PolicyStore,
    RateState,
    enforce_policy,
)
from .vault import (
    AkaOutcome,
    BindingMetadata,
    ProfileState,
    SimVault,
    new_profile,
)
from .wire import request_digest

_LIFECYCLE_TARGETS = {
    "suspend": ProfileState.SUSPENDED,
    "resume": ProfileState.ACTIVE,
}


@dataclass
class _Gate:
    """One profile's mutex and the rate window that only its holder uses."""

    lock: threading.RLock = field(default_factory=threading.RLock)
    rate: RateState = field(default_factory=RateState)


class IdentityGateway:
    def __init__(
        self,
        vault: SimVault,
        policy_store: PolicyStore,
        audit_log: AuditLog,
        roots: Mapping[str, bytes],
        *,
        allocator: IdentifierAllocator,
        default_policy: DelegationPolicy | None = None,
        operator_op: bytes | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self.vault = vault
        self.policies = policy_store
        self.audit = audit_log
        self.roots = roots
        self.allocator = allocator
        self.default_policy = default_policy
        self.operator_op = operator_op
        self.clock = clock
        self._gates: dict[str, _Gate] = {}

    # -- plumbing --------------------------------------------------------------

    def _gate(self, profile_id: str) -> _Gate:
        """An id the vault does not hold (unknown, or being provisioned and
        not yet given to any caller) gets a private gate that is not kept.
        `setdefault` is atomic, so racing first callers share one gate."""
        gate = self._gates.get(profile_id)
        if gate is None:
            gate = _Gate()
            if profile_id in self.vault:
                gate = self._gates.setdefault(profile_id, gate)
        return gate

    def _audited(
        self,
        profile_id: str,
        audit_op: AuditOperation,
        digest: bytes,
        action: Callable[[RateState], tuple[object, str | None]],
    ):
        """Under the profile's gate, run `action` on its rate window;
        `action` returns (result, audit_detail). Exactly one audit record
        is appended before anything is returned or raised."""
        gate = self._gate(profile_id)
        with gate.lock:
            try:
                result, detail = action(gate.rate)
            except GatewayDenied as denial:
                outcome = AuditOutcome.denied(denial.reason.value)
                self.audit.append(profile_id, audit_op, outcome, digest)
                raise
            except StorageFailure:
                raise  # fail closed; nothing more we can durably record
            except AgentEsimError as err:
                outcome = AuditOutcome.error(type(err).__name__)
                self.audit.append(profile_id, audit_op, outcome, digest)
                raise
            except Exception as err:
                outcome = AuditOutcome.error("VaultError")
                self.audit.append(profile_id, audit_op, outcome, digest)
                raise VaultError(f"internal failure during {audit_op.value}") from err
            self.audit.append(profile_id, audit_op, AuditOutcome.allowed(detail), digest)
            return result

    def _run_pipeline(
        self,
        op: GatewayOp,
        profile_id: str,
        attestation: AttestationToken | None,
        source_address: str,
        rate: RateState,
    ) -> None:
        """Checks 1-7; raises GatewayDenied at the first failure."""
        now = self.clock()
        state = self.vault.get_state(profile_id)  # UnknownProfile propagates
        if state is not ProfileState.ACTIVE:
            raise GatewayDenied(DenyReason.PROFILE_STATE)
        if attestation is None or verify_token_integrity(
            attestation, self.roots, now
        ) is not None:
            raise GatewayDenied(DenyReason.ATTESTATION)
        enforce_policy(
            self.policies.get(profile_id),
            op,
            source_address,
            now,
            rate,
            measurement=attestation.measurement,
            binding_measurements=self.vault.get_binding(profile_id).expected_measurements,
        )

    # -- identity endpoints ------------------------------------------------------

    def handle_sign(
        self,
        profile_id: str,
        payload_digest: bytes,
        attestation: AttestationToken | None,
        source_address: str,
    ) -> dict:
        if len(payload_digest) != 32:
            raise MalformedRequest("payload_digest must be 32 bytes")
        digest = request_digest("sign", profile_id, {"payload_digest": payload_digest})

        def sign(rate):
            self._run_pipeline(
                GatewayOp.SIGN, profile_id, attestation, source_address, rate
            )
            return self.vault.usim_sign(profile_id, payload_digest), None

        return self._audited(profile_id, AuditOperation.SIGN, digest, sign)

    def handle_authenticate(
        self,
        profile_id: str,
        rand: bytes,
        autn: bytes,
        attestation: AttestationToken | None,
        source_address: str,
    ) -> AkaOutcome:
        if len(rand) != 16 or len(autn) != 16:
            raise MalformedRequest("rand and autn must be 16 bytes")
        digest = request_digest(
            "authenticate", profile_id, {"rand": rand, "autn": autn}
        )

        def authenticate(rate):
            self._run_pipeline(
                GatewayOp.AUTHENTICATE, profile_id, attestation, source_address, rate
            )
            outcome = self.vault.usim_authenticate(profile_id, rand, autn)
            return outcome, outcome.kind

        return self._audited(
            profile_id, AuditOperation.AUTHENTICATE, digest, authenticate
        )

    def handle_status(
        self, profile_id: str, attestation: AttestationToken | None = None
    ) -> dict:
        """Read-only; bypasses the pipeline and never spends rate budget."""
        digest = request_digest("status", profile_id, {})

        def report(rate):
            status = self.vault.get_profile_status(profile_id)
            now = self.clock()
            policy = self.policies.get(profile_id)
            status["bound"] = status["state"] == ProfileState.ACTIVE.value
            status["policy"] = policy.to_json()
            status["rate_limit_headroom"] = rate.headroom(policy.rate_limit, now)
            if attestation is not None:
                status["attestation_ok"] = (
                    verify_token_integrity(attestation, self.roots, now) is None
                )
            return status, None

        return self._audited(profile_id, AuditOperation.STATUS, digest, report)

    # -- admin surface ------------------------------------------------------------

    def admin_provision(
        self, binding: BindingMetadata, policy: DelegationPolicy | None = None
    ) -> dict:
        """Issue a profile for `binding`, bound to `policy` or else the
        default policy; returns its ids and public signing key."""
        policy = policy or self.default_policy
        if policy is None:
            raise InvalidPolicy("no initial policy supplied and no default configured")
        imsi, iccid = self.allocator.allocate()
        profile_id = "esim-" + uuid.uuid4().hex[:12]
        ki = secrets.token_bytes(16)
        if self.operator_op is not None:
            km = MilenageKeyMaterial(k=ki, opc=derive_opc(ki, self.operator_op))
        else:
            km = MilenageKeyMaterial(k=ki, opc=secrets.token_bytes(16))
        digest = request_digest(
            "provision",
            profile_id,
            {
                "agent_public_key": binding.agent_public_key,
                "namespace": binding.enterprise_namespace.encode("utf-8"),
                "measurements": b"".join(sorted(binding.expected_measurements)),
                "manifest": binding.container_fingerprint or b"",
            },
        )

        def install(_rate):
            # The vault install, already Active, is the commit point: a
            # failure before it leaves no profile (at most a policy under an
            # id no caller was given). The network core reads the keys from
            # the vault, so the install is also what makes the IMSI known.
            self.policies.set(profile_id, policy)
            profile = new_profile(profile_id, imsi, iccid, km, binding)
            profile.state = ProfileState.ACTIVE
            self.vault.install_profile(profile)
            return profile, None

        profile = self._audited(profile_id, AuditOperation.PROVISION, digest, install)
        return {
            "profile_id": profile_id,
            "imsi": imsi,
            "iccid": iccid,
            "public_signing_key": profile.public_signing_key().hex(),
        }

    def revoke_profile(self, profile_id: str, reason: str) -> ProfileState:
        """Immediate revocation; returns the previous state. Idempotent."""
        digest = request_digest(
            "revoke", profile_id, {"reason": reason.encode("utf-8")}
        )

        def revoke(_rate):
            previous = self.vault.set_profile_state(profile_id, ProfileState.REVOKED)
            return previous, f"Revoked: {reason}"

        return self._audited(profile_id, AuditOperation.STATE_CHANGE, digest, revoke)

    def lifecycle(self, profile_id: str, action: str) -> dict:
        """Suspend or resume; revocation has its own call, `revoke_profile`."""
        if action not in _LIFECYCLE_TARGETS:
            raise MalformedRequest(f"unknown lifecycle action: {action}")
        target = _LIFECYCLE_TARGETS[action]
        digest = request_digest(
            "lifecycle", profile_id, {"action": action.encode("ascii")}
        )

        def transition(_rate):
            previous = self.vault.set_profile_state(profile_id, target)
            return previous, f"{previous.value} -> {target.value}"

        previous = self._audited(
            profile_id, AuditOperation.STATE_CHANGE, digest, transition
        )
        return {"previous_state": previous.value, "state": target.value}

    def update_policy(self, profile_id: str, new_policy: DelegationPolicy) -> str | None:
        """Swap the policy of a profile that is not Revoked; returns the previous policy_id."""
        digest = request_digest(
            "policy", profile_id, {"policy_id": new_policy.policy_id.encode("utf-8")}
        )

        def swap(_rate):
            if self.vault.get_state(profile_id) is ProfileState.REVOKED:  # UnknownProfile if absent
                raise ProfileNotActive(ProfileState.REVOKED)  # nothing would enforce the binding
            previous = self.policies.set(profile_id, new_policy)
            return previous, f"{previous or '-'} -> {new_policy.policy_id}"

        return self._audited(profile_id, AuditOperation.POLICY_UPDATE, digest, swap)

    def verify_audit(self) -> ChainStatus:
        return self.audit.verify()
