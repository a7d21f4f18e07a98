"""Telco-hosted eSIM identity service for autonomous software agents.

A desk-scale, single-operator deployment: hosted SIM profiles in an
emulated secure-element vault, a home-network authentication authority,
and a policy-enforcing, attestation-gated identity gateway with a
hash-chained audit trail. Agents interact only through the gateway; key
material never leaves the vault.
"""

from .agent import (
    AgentRuntime,
    AuthSessionResult,
    RelyingService,
    SignedAgentMessage,
    agent_authenticate,
    send_signed_message,
    verify_peer_message,
)
from .attestation import (
    AttestationFailure,
    AttestationToken,
    SoftwareRootOfTrust,
    verify_attestation,
)
from .audit import AuditLog, AuditOperation, AuditRecord, verify_audit_chain, verify_audit_file
from .client import AdminClient, GatewayClient
from .config import ServiceConfig, load_config
from .gateway import IdentityGateway
from .httpapi import GatewayHTTPServer
from .milenage import (
    AuthVector,
    Auts,
    MilenageKeyMaterial,
    MilenageOutput,
    build_autn,
    derive_opc,
    generate_auth_vector,
    milenage_compute,
    parse_autn,
)
from .netcore import NetworkCore, PendingChallenge
from .policy import (
    DelegationPolicy,
    DenyReason,
    GatewayOp,
    RateLimit,
    Validity,
    enforce_policy,
    permissive_policy,
)
from .scenarios import ScenarioReport, run_scenario, scenario_names
from .stack import ServiceStack, build_stack, serving
from .vault import (
    AkaMacFailure,
    AkaSuccess,
    AkaSyncFailure,
    BindingMetadata,
    ProfileState,
    SimProfile,
    SimVault,
    new_profile,
)

__version__ = "0.1.0"
