"""Built-in end-to-end scenarios.

Each scenario serves a fresh state directory (or the one it is given)
through `stack.serving`, so it is refused while another process serves
that directory. It provisions agents over the admin wire API, drives them
through the gateway exactly as a real client would, and finishes by
verifying the audit chain and joining every recorded request digest
against it. Reports are deterministic in their outcomes (identifiers and
timestamps vary run to run).

    enterprise-alert-agent   rate- and role-limited alert signer
    finance-decision-agent   signing under audit, then a revocation drill
    agent-marketplace        N agents exchanging verified messages, one
                             compromised and revoked

A scenario passes when every expectation listed in its report holds.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import tempfile
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .agent import (
    AgentRuntime,
    RelyingService,
    agent_authenticate,
    send_signed_message,
    verify_peer_message,
)
from .attestation import SoftwareRootOfTrust
from .client import AdminClient, GatewayClient
from .config import ServiceConfig
from .errors import GatewayDenied, UnknownScenario
from .policy import DelegationPolicy, GatewayOp, RateLimit, Validity
from .httpapi import GatewayHTTPServer
from .stack import ServiceStack, serving
from .wire import request_digest, scan_for_secrets

SCENARIO_ADMIN_SECRET = "scenario-admin"


@dataclass
class ScenarioReport:
    name: str
    steps: list[dict[str, Any]] = field(default_factory=list)
    counts: dict[str, Any] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    audit_chain_ok: bool = False
    audit_length: int = 0

    @property
    def passed(self) -> bool:
        return self.audit_chain_ok and all(self.checks.values())

    def step(self, name: str, **detail) -> None:
        self.steps.append({"step": name, **detail})

    def expect(self, check: str, ok: bool) -> None:
        self.checks[check] = bool(ok)

    def to_json(self) -> dict:
        return {
            "scenario": self.name,
            "passed": self.passed,
            "audit_chain_ok": self.audit_chain_ok,
            "audit_length": self.audit_length,
            "counts": self.counts,
            "checks": self.checks,
            "steps": self.steps,
        }

    def render_text(self) -> str:
        lines = [f"scenario: {self.name}"]
        for entry in self.steps:
            detail = " ".join(f"{k}={v}" for k, v in entry.items() if k != "step")
            lines.append(f"  - {entry['step']}: {detail}" if detail else f"  - {entry['step']}")
        lines.append("  counts: " + json.dumps(self.counts, sort_keys=True))
        for check, ok in sorted(self.checks.items()):
            lines.append(f"  check {check}: {'ok' if ok else 'FAILED'}")
        lines.append(
            f"  audit chain: {'ok' if self.audit_chain_ok else 'BROKEN'}"
            f" ({self.audit_length} records)"
        )
        lines.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class _ScenarioEnv:
    """Running stack + wire clients + an emulated TEE root."""

    def __init__(self, stack: ServiceStack, server: GatewayHTTPServer, root: SoftwareRootOfTrust):
        self.stack = stack
        self.server = server
        self.root = root
        self.admin = AdminClient(server.base_url, SCENARIO_ADMIN_SECRET)
        self.relying = RelyingService(stack.netcore)

    def new_agent(self, name: str, policy: DelegationPolicy) -> AgentRuntime:
        measurement = hashlib.sha256(f"agent-code:{name}".encode()).digest()
        created = self.admin.provision(
            {
                "agent_public_key": secrets.token_bytes(32).hex(),
                "expected_measurements": [measurement.hex()],
                "enterprise_namespace": f"scenario/{name}",
                "initial_policy": policy.to_json(),
            }
        )
        return AgentRuntime(
            agent_id=name,
            profile_id=created["profile_id"],
            measurement=measurement,
            environment_id=f"env-{name}",
            attestation_signer=self.root,
            client=GatewayClient(self.server.base_url),
        )


def _policy(ops: set[GatewayOp], max_ops: int, window_seconds: float) -> DelegationPolicy:
    return DelegationPolicy(
        policy_id="scenario-" + uuid.uuid4().hex[:8],
        rate_limit=RateLimit(max_ops=max_ops, window_seconds=window_seconds),
        validity=Validity(not_before=0.0, not_after=4e9),
        allowed_ops=frozenset(ops),
    )


def _finish(report: ScenarioReport, env: _ScenarioEnv, runtimes: list[AgentRuntime]) -> None:
    """Common closing checks: chain integrity, transcript join, key isolation."""
    status = env.stack.gateway.verify_audit()
    report.audit_chain_ok = status.ok
    report.audit_length = status.length

    audited_digests = {r.request_digest.hex() for r in env.stack.audit.records()}
    step_digests = [
        e["request_digest"] for e in report.steps if "request_digest" in e
    ]
    report.expect(
        "every_step_audited", all(d in audited_digests for d in step_digests)
    )

    # The isolation check needs ground truth: read the co-located vault's
    # internal store (there is deliberately no export API for this) and
    # prove none of it reached anything an agent or operator observed.
    secrets_list = []
    for profile_id in env.stack.vault.profile_ids():
        profile = env.stack.vault._profiles[profile_id]
        secrets_list += [
            profile.key_material.k,
            profile.key_material.opc,
            profile.signing_key.private_bytes_raw(),
        ]
    observable = json.dumps(
        [r.client.transcript for r in runtimes] + [env.admin.transcript]
    ).encode() + b"".join(r.memory_snapshot() for r in runtimes)
    report.expect("no_key_material_observable", not scan_for_secrets(observable, secrets_list))


def _digest_step(report, runtime, step_name, payload_digest=None, outcome="allowed"):
    detail = {"profile_id": runtime.profile_id, "outcome": outcome}
    if payload_digest is not None:
        detail["request_digest"] = request_digest(
            "sign", runtime.profile_id, {"payload_digest": payload_digest}
        ).hex()
    report.step(step_name, **detail)


def _run_enterprise_alert(env: _ScenarioEnv, config: dict, report: ScenarioReport) -> None:
    """Alert agent may sign once per window and may not authenticate."""
    window = float(config.get("window_seconds", 3600.0))
    alerts = int(config.get("alerts", 2))
    agent = env.new_agent(
        "alert-agent", _policy({GatewayOp.SIGN, GatewayOp.STATUS}, 1, window)
    )
    allowed = denied_rate = 0
    for i in range(alerts):
        payload = f"vpn-alert {i}".encode()
        digest = hashlib.sha256(payload).digest()
        try:
            send_signed_message(agent, payload)
            allowed += 1
            _digest_step(report, agent, "send_alert", digest, "allowed")
        except GatewayDenied as denial:
            denied_rate += denial.reason == "RateLimit"
            _digest_step(report, agent, "send_alert", digest, f"denied:{denial.reason.value}")
    try:
        agent_authenticate(agent, env.relying)
        role_denied = False
    except GatewayDenied as denial:
        role_denied = denial.reason == "OpPermission"
    report.step("attempt_authenticate", outcome="denied:OpPermission" if role_denied else "unexpected")
    report.counts.update(
        alerts_sent=alerts, alerts_allowed=allowed, alerts_rate_denied=denied_rate,
        authenticate_role_denied=int(role_denied),
    )
    report.expect("one_alert_allowed", allowed == 1)
    report.expect("remaining_alerts_rate_denied", denied_rate == alerts - 1)
    report.expect("authenticate_denied_by_role", role_denied)
    _finish(report, env, [agent])


def _run_finance_drill(env: _ScenarioEnv, config: dict, report: ScenarioReport) -> None:
    """Decision agent signs under audit, is revoked, then stays locked out."""
    before = int(config.get("decisions_before_revoke", 3))
    after = int(config.get("attempts_after_revoke", 3))
    agent = env.new_agent(
        "credit-decision-agent",
        _policy({GatewayOp.SIGN, GatewayOp.AUTHENTICATE, GatewayOp.STATUS}, 1000, 60.0),
    )
    verifier = GatewayClient(env.server.base_url)

    session = agent_authenticate(agent, env.relying)
    report.step("authenticate", outcome=str(session.authenticated))
    report.expect("initial_authentication", session.authenticated)

    messages = []
    for i in range(before):
        payload = json.dumps({"decision": i, "approved": i % 2 == 0}).encode()
        message = send_signed_message(agent, payload)
        messages.append(message)
        _digest_step(report, agent, "sign_decision", message.payload_digest, "allowed")
    live_checks = [verify_peer_message(m, verifier).valid for m in messages]
    report.expect("decisions_verifiable_while_active", all(live_checks))

    env.admin.revoke(agent.profile_id, "risk-policy-violation")
    report.step("revoke", profile_id=agent.profile_id, reason="risk-policy-violation")

    denied = 0
    for i in range(after):
        try:
            send_signed_message(agent, f"post-revocation {i}".encode())
        except GatewayDenied as denial:
            denied += denial.reason == "ProfileState"
            _digest_step(
                report, agent, "sign_after_revoke",
                hashlib.sha256(f"post-revocation {i}".encode()).digest(),
                f"denied:{denial.reason.value}",
            )
    stale = verify_peer_message(messages[0], verifier)
    report.step("verify_after_revoke", valid=stale.valid, sender_state=stale.sender_state)
    report.counts.update(
        decisions_signed=before, post_revocation_attempts=after,
        post_revocation_denials=denied,
    )
    report.expect("all_post_revocation_attempts_denied", denied == after)
    report.expect("stale_message_rejected", not stale.valid and stale.sender_state == "Revoked")
    _finish(report, env, [agent])


def _run_marketplace(env: _ScenarioEnv, config: dict, report: ScenarioReport) -> None:
    """N agents cross-verify messages; one is compromised and revoked."""
    n = int(config.get("agents", 5))
    compromised = int(config.get("compromised_index", 2)) % n
    policy_ops = {GatewayOp.SIGN, GatewayOp.AUTHENTICATE, GatewayOp.STATUS}
    agents = [
        env.new_agent(f"market-agent-{i}", _policy(policy_ops, 1000, 60.0))
        for i in range(n)
    ]
    for agent in agents:
        session = agent_authenticate(agent, env.relying)
        report.step("authenticate", agent=agent.agent_id, outcome=str(session.authenticated))

    messages = {}
    for agent in agents:
        message = send_signed_message(agent, f"offer from {agent.agent_id}".encode())
        messages[agent.agent_id] = message
        _digest_step(report, agent, "publish_offer", message.payload_digest, "allowed")

    verifier = GatewayClient(env.server.base_url)
    initial = sum(verify_peer_message(m, verifier).valid for m in messages.values())
    report.expect("all_offers_initially_verifiable", initial == n)

    # compromise: the runtime starts reporting a different code measurement
    victim = agents[compromised]
    victim.measurement = secrets.token_bytes(32)
    try:
        send_signed_message(victim, b"tampered offer")
        compromise_denied = None
    except GatewayDenied as denial:
        compromise_denied = denial.reason.value
    report.step(
        "compromised_publish", agent=victim.agent_id,
        outcome=f"denied:{compromise_denied}",
    )
    env.admin.revoke(victim.profile_id, "measurement drift detected")
    report.step("revoke", profile_id=victim.profile_id)

    verdicts = {
        agent_id: verify_peer_message(m, verifier) for agent_id, m in messages.items()
    }
    verifiable = sum(v.valid for v in verdicts.values())
    report.counts.update(
        agents=n, initially_verifiable=initial, verifiable_after_revocation=verifiable,
        compromise_denial=str(compromise_denied),
    )
    report.expect("compromise_denied_by_measurement", compromise_denied == "MeasurementMatch")
    report.expect("exactly_one_sender_unverifiable", verifiable == n - 1)
    report.expect(
        "revoked_sender_flagged",
        not verdicts[victim.agent_id].valid
        and verdicts[victim.agent_id].sender_state == "Revoked",
    )
    _finish(report, env, agents)


_SCENARIOS: dict[str, Callable[[_ScenarioEnv, dict, ScenarioReport], None]] = {
    "enterprise-alert-agent": _run_enterprise_alert,
    "finance-decision-agent": _run_finance_drill,
    "agent-marketplace": _run_marketplace,
}


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def run_scenario(
    name: str,
    config: dict | None = None,
    *,
    state_dir: str | Path | None = None,
    report_path: str | Path | None = None,
    echo: Callable[[str], None] | None = None,
) -> ScenarioReport:
    runner = _SCENARIOS.get(name)
    if runner is None:
        raise UnknownScenario(f"unknown scenario {name!r}; built-ins: {scenario_names()}")
    report = ScenarioReport(name=name)
    if state_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="agent-esim-scenario-")
    else:
        scratch = nullcontext()
    with scratch as tmp:
        root = SoftwareRootOfTrust.generate("scenario-tee-root")
        service = ServiceConfig(state_dir=Path(tmp) / "state" if tmp else Path(state_dir))
        service.attestation_roots.append((root.root_id, root.public_key))
        with serving(service, "127.0.0.1", 0, SCENARIO_ADMIN_SECRET) as (stack, server):
            runner(_ScenarioEnv(stack, server, root), config or {}, report)
    if report_path is not None:
        Path(report_path).write_text(json.dumps(report.to_json(), indent=2) + "\n")
    if echo is not None:
        echo(report.render_text())
    return report
