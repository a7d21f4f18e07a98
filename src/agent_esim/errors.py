"""Exception hierarchy shared across the service.

Every domain failure has its own class so callers can tell conditions
apart without string matching. Each class carries the HTTP `status` the
edge answers it with (400 unless it says otherwise; an exception that is
not an AgentEsimError answers 500), and the client raises the same class
for a denial, `GatewayDenied`, that the gateway raised. Error messages
never carry key material; length/format violations are reported by field
name only.
"""

from __future__ import annotations


class AgentEsimError(Exception):
    """Base class for all domain errors."""

    status = 400


# --- cryptographic kernel ---------------------------------------------------

class InvalidKeyMaterial(AgentEsimError):
    """A key, constant, or kernel input has the wrong length or shape."""


class MalformedAutn(AgentEsimError):
    """AUTN (or AUTS) token does not have the required layout."""


# --- vault ------------------------------------------------------------------

class DuplicateProfile(AgentEsimError):
    """profile_id, IMSI, or ICCID already present in the vault."""

    status = 409


class InvalidProfile(AgentEsimError):
    """A profile invariant is violated; `field` names the offender."""

    def __init__(self, field: str, message: str | None = None):
        self.field = field
        super().__init__(message or f"invalid profile field: {field}")


class UnknownProfile(AgentEsimError):
    """No profile with the given id."""

    status = 404


class ProfileNotActive(AgentEsimError):
    """Operation requires an Active profile; carries the actual state."""

    def __init__(self, state):
        self.state = state
        super().__init__(f"profile not active (state={getattr(state, 'value', state)})")


class IllegalTransition(AgentEsimError):
    """Requested lifecycle transition is not permitted."""

    status = 409

    def __init__(self, current, requested):
        self.current = current
        self.requested = requested
        super().__init__(
            f"illegal transition {getattr(current, 'value', current)} -> "
            f"{getattr(requested, 'value', requested)}"
        )


# --- network core -----------------------------------------------------------

class UnknownSubscriber(AgentEsimError):
    """No profile in the vault holds the given IMSI."""


class UnknownChallenge(AgentEsimError):
    """Challenge id does not exist or was already consumed."""


class ChallengeExpired(AgentEsimError):
    """Challenge exists but its confirmation window has passed."""


class ResyncMacFailure(AgentEsimError):
    """AUTS MAC-S verification failed during resynchronization."""


# --- gateway ----------------------------------------------------------------

class InvalidPolicy(AgentEsimError):
    """Delegation policy violates its invariants."""


class GatewayDenied(AgentEsimError):
    """Request denied by the gateway decision pipeline, raised by the
    gateway and, for a 403 answer, by the client.

    `reason` is a DenyReason enum member; rate-limit denials also carry
    `retry_after` (seconds until budget frees up).
    """

    status = 403

    def __init__(self, reason, retry_after: float | None = None):
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(f"denied: {reason.value}")


class MalformedRequest(AgentEsimError):
    """Request body or header fails structural validation."""


class StorageFailure(AgentEsimError):
    """Persistence layer failed; the triggering request must fail closed."""

    status = 503


class WireFormatError(AgentEsimError):
    """A canonical byte encoding could not be parsed."""


class ConfigError(AgentEsimError):
    """Configuration file is missing, malformed, or has bad keys."""


class ServiceUnreachable(AgentEsimError):
    """CLI could not reach the configured service endpoint."""


class AdminAuthFailure(AgentEsimError):
    """Admin credential missing or wrong."""

    status = 401


# --- agent harness ----------------------------------------------------------

class AuthFailed(AgentEsimError):
    """End-to-end authentication flow concluded unauthenticated."""


class ResyncExhausted(AgentEsimError):
    """Authentication still failing after the single permitted resync round."""


class UnknownScenario(AgentEsimError):
    """No built-in scenario with the given name."""


class VaultError(AgentEsimError):
    """Unexpected internal failure inside the vault or a downstream store."""

    status = 503
