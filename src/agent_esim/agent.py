"""Agent-side runtime, relying-service simulator, and inter-agent messages.

An AgentRuntime owns no key material: it holds a profile reference, its
code measurement, and an emulated TEE signer that issues attestation
tokens. Every identity operation goes through the gateway wire protocol;
the full hop-by-hop transcript (including the canonical request digest the
gateway audits under) is recorded so flows can be joined against the audit
trail and byte-scanned for leaked secrets.

The relying service plays the counterpart that challenges an agent: it
asks the home network for a vector, hands (RAND, AUTN) to the agent, and
confirms the response — online, against the network core's internal API.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from .attestation import AttestationToken, SoftwareRootOfTrust
from .client import GatewayClient
from .errors import AuthFailed, ResyncExhausted
from .milenage import Auts
from .netcore import NetworkCore
from .vault import ProfileState, verify_profile_signature
from .wire import request_digest


@dataclass
class AgentRuntime:
    agent_id: str
    profile_id: str
    measurement: bytes
    environment_id: str
    attestation_signer: SoftwareRootOfTrust
    client: GatewayClient
    token_validity: float = 300.0

    def fresh_token(self) -> AttestationToken:
        """Tokens always carry exactly this runtime's measurement and env id."""
        return self.attestation_signer.issue_token(
            self.measurement, self.environment_id, validity_seconds=self.token_validity
        )

    def memory_snapshot(self) -> bytes:
        """Everything agent-resident, serialized for secret scanning."""
        state = {
            "agent_id": self.agent_id,
            "profile_id": self.profile_id,
            "measurement": self.measurement.hex(),
            "environment_id": self.environment_id,
            "root_id": self.attestation_signer.root_id,
            "transcript": self.client.transcript,
        }
        return json.dumps(state, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class SignedAgentMessage:
    sender_profile_id: str
    payload: bytes
    payload_digest: bytes
    signature: bytes
    sender_public_key: bytes

    def to_json(self) -> dict:
        return {
            "sender_profile_id": self.sender_profile_id,
            "payload": self.payload.hex(),
            "payload_digest": self.payload_digest.hex(),
            "signature": self.signature.hex(),
            "sender_public_key": self.sender_public_key.hex(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SignedAgentMessage":
        return cls(
            sender_profile_id=doc["sender_profile_id"],
            payload=bytes.fromhex(doc["payload"]),
            payload_digest=bytes.fromhex(doc["payload_digest"]),
            signature=bytes.fromhex(doc["signature"]),
            sender_public_key=bytes.fromhex(doc["sender_public_key"]),
        )


@dataclass(frozen=True)
class PeerVerification:
    valid: bool
    sender_state: str | None = None
    reason: str | None = None


@dataclass
class AuthSessionResult:
    authenticated: bool
    transcript: list[dict[str, Any]] = field(default_factory=list)
    resync_rounds: int = 0


class RelyingService:
    """Challenges agents and verifies responses via the home network."""

    def __init__(self, netcore: NetworkCore):
        self.netcore = netcore

    def request_challenge(self, imsi: str) -> dict:
        return self.netcore.generate_challenge(imsi)

    def submit_response(self, challenge_id: str, res: bytes) -> bool:
        return self.netcore.confirm_res(challenge_id, res)

    def resynchronize(self, imsi: str, rand: bytes, auts: Auts) -> None:
        self.netcore.resynchronize(imsi, rand, auts)


def _hop(transcript: list, step: str, **detail) -> None:
    transcript.append({"step": step, **detail})


def agent_authenticate(runtime: AgentRuntime, relying: RelyingService) -> AuthSessionResult:
    """Full challenge flow with at most one resynchronization round.

    relying service -> home network vector -> gateway authenticate ->
    RES back to the relying service. GatewayDenied propagates;
    a second stale vector in a row raises ResyncExhausted.
    """
    transcript: list[dict[str, Any]] = []
    status = runtime.client.status(runtime.profile_id)
    imsi = status["imsi"]
    _hop(
        transcript, "status", profile_id=runtime.profile_id, state=status["state"],
        request_digest=request_digest("status", runtime.profile_id, {}).hex(),
    )
    resync_rounds = 0
    while True:
        challenge = relying.request_challenge(imsi)
        _hop(transcript, "challenge", challenge_id=challenge["challenge_id"])
        rand, autn = challenge["rand"], challenge["autn"]
        outcome = runtime.client.authenticate(
            runtime.profile_id, rand, autn, runtime.fresh_token()
        )
        _hop(
            transcript, "gateway_authenticate", outcome=outcome["outcome"],
            request_digest=request_digest(
                "authenticate", runtime.profile_id, {"rand": rand, "autn": autn}
            ).hex(),
        )
        if outcome["outcome"] == "success":
            authenticated = relying.submit_response(
                challenge["challenge_id"], bytes.fromhex(outcome["res"])
            )
            _hop(transcript, "confirm", authenticated=authenticated)
            return AuthSessionResult(
                authenticated=authenticated,
                transcript=transcript,
                resync_rounds=resync_rounds,
            )
        if outcome["outcome"] == "mac_failure":
            _hop(transcript, "mac_failure")
            raise AuthFailed("vault rejected the vector MAC; key material mismatch")
        # sync_failure: relay AUTS once, then retry with a fresh vector
        if resync_rounds >= 1:
            raise ResyncExhausted("vector still stale after one resynchronization round")
        auts = Auts.from_bytes(bytes.fromhex(outcome["auts"]))
        relying.resynchronize(imsi, rand, auts)
        resync_rounds += 1
        _hop(transcript, "resynchronize", round=resync_rounds)


def send_signed_message(runtime: AgentRuntime, payload: bytes) -> SignedAgentMessage:
    """Sign `payload` through the gateway and assemble a verifiable message."""
    digest = hashlib.sha256(payload).digest()
    result = runtime.client.sign(runtime.profile_id, digest, runtime.fresh_token())
    return SignedAgentMessage(
        sender_profile_id=result["profile_id"],
        payload=payload,
        payload_digest=digest,
        signature=bytes.fromhex(result["signature"]),
        sender_public_key=bytes.fromhex(result["public_key"]),
    )


def verify_peer_message(msg: SignedAgentMessage, client: GatewayClient) -> PeerVerification:
    """Local signature check plus a live status check of the sender.

    Valid only when the digest matches the payload, the signature verifies
    under the message's key, the sender's profile is Active, and the key in
    the message matches the profile's registered signing key.
    """
    if hashlib.sha256(msg.payload).digest() != msg.payload_digest:
        return PeerVerification(valid=False, reason="payload digest mismatch")
    if not verify_profile_signature(
        msg.sender_public_key, msg.sender_profile_id, msg.payload_digest, msg.signature
    ):
        return PeerVerification(valid=False, reason="signature invalid")
    try:
        status = client.status(msg.sender_profile_id)
    except Exception as err:
        return PeerVerification(valid=False, reason=f"status check failed: {err}")
    state = status.get("state")
    if state != ProfileState.ACTIVE.value:
        return PeerVerification(valid=False, sender_state=state, reason="sender not active")
    if status.get("public_signing_key") != msg.sender_public_key.hex():
        return PeerVerification(
            valid=False, sender_state=state, reason="key does not match sender profile"
        )
    return PeerVerification(valid=True, sender_state=state)
