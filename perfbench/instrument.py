"""Which layer entry points the traced run wraps, and the per-layer metrics.

Layers are named by module. Functions are wrapped where the calling module
looks them up (`gateway.verify_token_integrity`, `netcore.generate_auth_vector`,
`vault.f1`, ...), because each module imports them by name.
"""

from __future__ import annotations

import http.client
import os
import statistics
from collections import defaultdict

from agent_esim import agent, audit, client, gateway, identifiers, netcore, policy, recordlog, vault
from agent_esim.policy import DenyReason
from agent_esim.wire import request_digest

from tracer import Span, Tracer

MILENAGE_CALLS = (
    (netcore, "generate_auth_vector"),
    (netcore, "verify_auts"),
    (vault, "f1"),
    (vault, "f2345"),
    (vault, "build_auts"),
)

STORES = (
    ("restart.vault", vault.SimVault),
    ("restart.netcore", netcore.NetworkCore),
    ("restart.policy", policy.PolicyStore),
    ("restart.audit", audit.AuditLog),
    ("restart.allocator", identifiers.IdentifierAllocator),
)


def _client_request_id(_client, method, path, body=None, *_rest):
    if path == "/identity/sign":
        payload = {"payload_digest": bytes.fromhex(body["payload_digest"])}
        return request_digest("sign", body["profile_id"], payload).hex()
    if path == "/identity/authenticate":
        payload = {"rand": bytes.fromhex(body["rand"]), "autn": bytes.fromhex(body["autn"])}
        return request_digest("authenticate", body["profile_id"], payload).hex()
    if path.startswith("/identity/status/"):
        return request_digest("status", path[len("/identity/status/"):], {}).hex()
    return None


_IDENTITY_REQUEST_IDS = {
    "handle_sign": lambda _gw, pid, digest, *_: request_digest(
        "sign", pid, {"payload_digest": digest}
    ).hex(),
    "handle_authenticate": lambda _gw, pid, rand, autn, *_: request_digest(
        "authenticate", pid, {"rand": rand, "autn": autn}
    ).hex(),
    "handle_status": lambda _gw, pid, *_: request_digest("status", pid, {}).hex(),
}
_ADMIN_HANDLERS = ("admin_provision", "revoke_profile", "lifecycle", "update_policy")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; `tracer.restore` undoes it."""
    def count_response(_token, _args, result):
        status, body, _raw = result
        if status == 200:
            tracer.count("gateway.allowed")
        elif status == 403:
            tracer.count(f"gateway.denied.{body.get('reason')}")
        else:
            tracer.count("gateway.errors")

    def log_size(log, *_):
        return os.path.getsize(log.path)

    def count_bytes(size_before, args, _result):
        tracer.count("recordlog.bytes", os.path.getsize(args[0].path) - size_before)

    tracer.wrap(client.GatewayClient, "request", "client.request",
                request_id=_client_request_id, after=count_response)
    tracer.wrap(http.client.HTTPConnection, "connect", "client.connect")
    for method, request_id in _IDENTITY_REQUEST_IDS.items():
        tracer.wrap(gateway.IdentityGateway, method, "gateway.handle", request_id=request_id)
    for method in _ADMIN_HANDLERS:  # no request id: admin calls are not joined
        tracer.wrap(gateway.IdentityGateway, method, "gateway.handle")
    tracer.wrap(gateway, "verify_token_integrity", "attestation.verify")
    tracer.wrap(gateway, "enforce_policy", "policy.enforce")
    tracer.wrap(vault.SimVault, "usim_sign", "vault.sign")
    tracer.wrap(vault.SimVault, "usim_authenticate", "vault.aka")
    tracer.wrap(vault.SimVault, "install_profile", "vault.admin")
    tracer.wrap(vault.SimVault, "set_profile_state", "vault.admin")
    for module, name in MILENAGE_CALLS:
        tracer.wrap(module, name, "milenage." + name)
    tracer.wrap(netcore.NetworkCore, "generate_challenge", "netcore.challenge")
    tracer.wrap(netcore.NetworkCore, "confirm_res", "netcore.confirm")
    tracer.wrap(audit.AuditLog, "append", "audit.append")
    tracer.wrap(recordlog.RecordLog, "append", "recordlog.append",
                before=log_size, after=count_bytes)
    tracer.wrap(recordlog.os, "fsync", "recordlog.fsync")
    for span_name, store in STORES:
        tracer.wrap(store, "__init__", span_name)
    tracer.wrap(agent.AgentRuntime, "fresh_token", "agent.token")


# -- per-layer metrics -----------------------------------------------------------

DENY_REASONS = tuple(r.value for r in DenyReason)

# (metric, unit, span the value comes from or None)
PER_LAYER = (
    ("client.round_trip_ms", "ms", "client.request"),
    ("httpapi.transport_ms", "ms", "client.request"),
    ("client.connects_per_op", "count/op", None),
    ("gateway.handle_ms", "ms", "gateway.handle"),
    ("gateway.self_ms", "ms", "gateway.handle"),
    ("gateway.allowed", "count", None),
    *((f"gateway.denied.{r}", "count", None) for r in DENY_REASONS),
    ("gateway.errors", "count", None),
    ("attestation.verify_ms", "ms", "attestation.verify"),
    ("attestation.verifies_per_op", "count/op", None),
    ("policy.enforce_ms", "ms", "policy.enforce"),
    ("vault.sign_ms", "ms", "vault.sign"),
    ("vault.aka_ms", "ms", "vault.aka"),
    ("vault.admin_ms", "ms", "vault.admin"),
    ("milenage.ms_per_op", "ms/op", None),
    ("milenage.calls_per_op", "count/op", None),
    ("netcore.challenge_ms", "ms", "netcore.challenge"),
    ("netcore.confirm_ms", "ms", "netcore.confirm"),
    ("netcore.pending_end", "count", None),
    ("audit.append_ms", "ms", "audit.append"),
    ("audit.appends_per_op", "count/op", None),
    ("recordlog.append_ms", "ms", "recordlog.append"),
    ("recordlog.appends_per_op", "count/op", None),
    ("recordlog.fsyncs_per_op", "count/op", None),
    ("recordlog.fsync_ms", "ms", "recordlog.fsync"),
    ("recordlog.bytes_per_op", "B/op", None),
    *((f"{span}_s", "s", span) for span, _ in STORES),
    ("agent.token_ms", "ms", "agent.token"),
    ("agent.resyncs_per_flow", "count/flow", None),
    ("trace.overhead_ratio", "ratio", None),
)

# Spans that must fire on each workload: a missing one means a call moved.
_COMMON = {
    "client.request", "gateway.handle", "attestation.verify", "policy.enforce",
    "audit.append", "recordlog.append", "recordlog.fsync", "agent.token",
    *(span for span, _ in STORES),
}
MUST_FIRE = {
    "sign": _COMMON | {"vault.sign"},
    "aka": _COMMON | {"vault.aka", "netcore.challenge", "netcore.confirm"},
    "churn": _COMMON | {"vault.sign", "vault.admin", "netcore.challenge"},
}


def _self_ms(root: Span, children: list[Span]) -> float:
    """Duration minus the part of it covered by direct children."""
    covered = 0
    cursor = root.start_ns
    for child in sorted(children, key=lambda s: s.start_ns):
        start = max(child.start_ns, cursor)
        if child.end_ns > start:
            covered += child.end_ns - start
            cursor = child.end_ns
    return (root.end_ns - root.start_ns - covered) / 1e6


def per_layer(workload, traced, overhead_ratio: float) -> tuple[dict[str, dict], dict[str, str]]:
    """Per-layer metrics of a traced pass, and why each absent one is absent;
    `overhead_ratio` is the untraced pass's throughput over the traced one's.
    An absent metric reads 0, since the result line holds only numbers."""
    spans = traced.run_spans
    ops = len(traced.timed)
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    for s in traced.restart_spans:
        by_name[s.name].append(s)

    gateway_ids = {s.span_id for s in by_name["gateway.handle"]}
    gateway_roots = [s for s in by_name["gateway.handle"] if s.parent not in gateway_ids]

    # Round trip minus the handler span of the same request, paired in order
    # per request digest (requests sharing a digest never overlap).
    handled: dict[str, list[Span]] = defaultdict(list)
    for s in sorted(gateway_roots, key=lambda s: s.start_ns):
        if s.request_id is not None:
            handled[s.request_id].append(s)
    transport = []
    for s in sorted(by_name["client.request"], key=lambda s: s.start_ns):
        if s.request_id is not None and handled.get(s.request_id):
            transport.append(s.ms - handled[s.request_id].pop(0).ms)

    counts = traced.counts
    milenage = [s for _, name in MILENAGE_CALLS for s in by_name["milenage." + name]]
    flows = sum(getattr(loop, "flows", 0) for loop in traced.loops)
    resyncs = sum(getattr(loop, "resyncs", 0) for loop in traced.loops)

    def p50(name: str) -> float | None:
        found = by_name.get(name)
        return statistics.median(s.ms for s in found) if found else None

    values = {
        "client.round_trip_ms": p50("client.request"),
        "httpapi.transport_ms": statistics.median(transport) if transport else None,
        "client.connects_per_op": len(by_name["client.connect"]) / ops,
        "gateway.handle_ms": (
            statistics.median(s.ms for s in gateway_roots) if gateway_roots else None
        ),
        "gateway.self_ms": (
            statistics.median(_self_ms(s, children[s.span_id]) for s in gateway_roots)
            if gateway_roots else None
        ),
        "gateway.allowed": counts.get("gateway.allowed", 0),
        "gateway.errors": counts.get("gateway.errors", 0),
        "attestation.verifies_per_op": len(by_name["attestation.verify"]) / ops,
        "milenage.ms_per_op": sum(s.ms for s in milenage) / ops,
        "milenage.calls_per_op": len(milenage) / ops,
        "netcore.pending_end": traced.pending_end,
        "audit.appends_per_op": len(by_name["audit.append"]) / ops,
        "recordlog.appends_per_op": len(by_name["recordlog.append"]) / ops,
        "recordlog.fsyncs_per_op": len(by_name["recordlog.fsync"]) / ops,
        "recordlog.bytes_per_op": counts.get("recordlog.bytes", 0) / ops,
        "agent.resyncs_per_flow": resyncs / flows if flows else None,
        "trace.overhead_ratio": overhead_ratio,
    }
    for reason in DENY_REASONS:
        values[f"gateway.denied.{reason}"] = counts.get(f"gateway.denied.{reason}", 0)
    for metric, unit, span in PER_LAYER:
        if metric not in values:
            ms = p50(span)
            values[metric] = ms / 1e3 if unit == "s" and ms is not None else ms

    must_fire = MUST_FIRE[workload.name]
    metrics, absent = {}, {}
    for metric, unit, span in PER_LAYER:
        value = values[metric]
        metrics[metric] = {"value": 0 if value is None else value, "unit": unit}
        if value is None:
            absent[metric] = (
                f"span {span} never fired, though this workload needs it"
                if span in must_fire else f"this workload makes no {span or 'flow'} call"
            )
    return metrics, absent
