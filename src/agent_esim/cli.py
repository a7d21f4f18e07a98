"""Operator command-line surface.

    agent-esim serve         --config CFG
    agent-esim provision     --agent-key HEX --measurement HEX [...] --namespace NS
    agent-esim suspend       PROFILE_ID
    agent-esim resume        PROFILE_ID
    agent-esim revoke        PROFILE_ID [--reason R]
    agent-esim policy        PROFILE_ID --policy-file F
    agent-esim status        PROFILE_ID
    agent-esim audit-verify  [--log PATH]
    agent-esim scenario      NAME [--scenario-config F] [--report F]

Admin commands run in one of two modes: against a running service
(--endpoint URL, authenticated with the admin secret from
$AGENT_ESIM_ADMIN_SECRET or the config file) or directly against a state
directory (--state-dir / config state_dir) while the service is stopped.
Exit codes: 0 success, 1 domain error, 2 usage error. Secret key material
never appears on stdout; only public profile fields are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from . import scenarios
from .audit import verify_audit_file
from .client import AdminClient, GatewayClient
from .config import ADMIN_SECRET_ENV, ServiceConfig, load_config
from .errors import AgentEsimError, ConfigError
from .httpapi import provision_request_from_json
from .policy import DelegationPolicy
from .stack import build_stack


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agent-esim",
        description="Telco-hosted eSIM identity service for software agents",
    )
    parser.add_argument("--config", help="path to the service config file")
    parser.add_argument("--state-dir", help="state directory for direct-admin mode")
    parser.add_argument("--endpoint", help="base URL of a running service")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("serve", help="run vault, network core, and gateway")

    provision = sub.add_parser("provision", help="issue a profile for an agent")
    provision.add_argument("--agent-key", required=True, help="agent public key (hex)")
    provision.add_argument(
        "--measurement", action="append", required=True,
        help="expected 32-byte code measurement (hex); repeatable",
    )
    provision.add_argument("--namespace", required=True, help="enterprise namespace")
    provision.add_argument("--policy-file", help="JSON delegation policy document")
    provision.add_argument("--manifest-digest", help="signed deployment manifest digest (hex)")

    for action in ("suspend", "resume", "revoke"):
        lifecycle = sub.add_parser(action, help=f"{action} a profile")
        lifecycle.add_argument("profile_id")
        if action == "revoke":
            lifecycle.add_argument("--reason", default="operator request")

    policy = sub.add_parser("policy", help="replace a profile's delegation policy")
    policy.add_argument("profile_id")
    policy.add_argument("--policy-file", required=True)

    status = sub.add_parser("status", help="query a profile's status")
    status.add_argument("profile_id")

    audit = sub.add_parser("audit-verify", help="verify the audit chain")
    audit.add_argument("--log", help="path to an audit log file")

    scenario = sub.add_parser("scenario", help="run a built-in scenario")
    scenario.add_argument("name", help="one of: " + ", ".join(scenarios.scenario_names()))
    scenario.add_argument("--scenario-config", help="JSON file overriding scenario knobs")
    scenario.add_argument("--report", help="write the JSON report here")

    return parser


def _emit(args, document: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(document, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _load_service_config(args) -> ServiceConfig | None:
    if args.config:
        config = load_config(args.config)
        if args.state_dir:
            config.state_dir = Path(args.state_dir)
        return config
    if args.state_dir:
        return ServiceConfig(state_dir=Path(args.state_dir))
    return None


def _admin_secret(config: ServiceConfig | None) -> str:
    secret = os.environ.get(ADMIN_SECRET_ENV)
    if secret:
        return secret
    if config is not None:
        return config.resolve_admin_secret()
    raise ConfigError(f"no admin credential: set {ADMIN_SECRET_ENV} or use --config")


class _Backend:
    """Admin operations against either a live endpoint or local state."""

    def __init__(self, args):
        self.config = _load_service_config(args)
        self.endpoint = args.endpoint
        self._stack = None
        if self.endpoint:
            self._admin = AdminClient(self.endpoint, _admin_secret(self.config))
            self._client = GatewayClient(self.endpoint)
        elif self.config is not None:
            self._stack = build_stack(self.config)
            self._admin = None
            self._client = None
        else:
            raise ConfigError("provide --endpoint, --state-dir, or --config")

    def close(self) -> None:
        if self._stack is not None:
            self._stack.close()

    def provision(self, document: dict) -> dict:
        if self._admin is not None:
            return self._admin.provision(document)
        return self._stack.gateway.admin_provision(provision_request_from_json(document))

    def lifecycle(self, profile_id: str, action: str, reason: str = "") -> dict:
        if self._admin is not None:
            if action == "revoke":
                return self._admin.revoke(profile_id, reason)
            return self._admin.lifecycle(profile_id, action)
        return self._stack.gateway.lifecycle(profile_id, action, reason=reason)

    def update_policy(self, profile_id: str, policy_document: dict) -> dict:
        if self._admin is not None:
            return self._admin.update_policy(profile_id, policy_document)
        policy = DelegationPolicy.from_json(policy_document)
        previous = self._stack.gateway.update_policy(profile_id, policy)
        return {"previous_policy_id": previous, "policy_id": policy.policy_id}

    def status(self, profile_id: str) -> dict:
        if self._client is not None:
            return self._client.status(profile_id)
        return self._stack.gateway.handle_status(profile_id)

    def audit_verify(self) -> dict:
        if self._admin is not None:
            return self._admin.audit_verify()
        return self._stack.gateway.verify_audit().to_json()


def _cmd_serve(args) -> int:
    if not args.config:
        raise ConfigError("serve requires --config")
    config = load_config(args.config)
    if args.state_dir:
        config.state_dir = Path(args.state_dir)
    secret = _admin_secret(config)
    stack = build_stack(config)
    server = stack.build_server(admin_secret=secret)
    host, port = server.address
    print(f"agent-esim serving on http://{host}:{port} (state: {config.state_dir})", flush=True)

    def shutdown(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        stack.close()
        print("agent-esim stopped; state persisted", flush=True)
    return 0


def _cmd_provision(args) -> int:
    document = {
        "agent_public_key": args.agent_key,
        "expected_measurements": args.measurement,
        "enterprise_namespace": args.namespace,
    }
    if args.policy_file:
        document["initial_policy"] = json.loads(Path(args.policy_file).read_text())
    if args.manifest_digest:
        document["manifest_digest"] = args.manifest_digest
    backend = _Backend(args)
    try:
        result = backend.provision(document)
    finally:
        backend.close()
    _emit(args, result, [f"{key}: {result[key]}" for key in
                         ("profile_id", "imsi", "iccid", "public_signing_key")])
    return 0


def _cmd_lifecycle(args) -> int:
    backend = _Backend(args)
    try:
        result = backend.lifecycle(
            args.profile_id, args.command, getattr(args, "reason", "")
        )
    finally:
        backend.close()
    _emit(args, result, [f"{args.profile_id}: {result.get('previous_state')} -> {result.get('state')}"])
    return 0


def _cmd_policy(args) -> int:
    document = json.loads(Path(args.policy_file).read_text())
    backend = _Backend(args)
    try:
        result = backend.update_policy(args.profile_id, document)
    finally:
        backend.close()
    _emit(args, result, [
        f"{args.profile_id}: policy {result.get('previous_policy_id')} -> {result.get('policy_id')}"
    ])
    return 0


def _cmd_status(args) -> int:
    backend = _Backend(args)
    try:
        result = backend.status(args.profile_id)
    finally:
        backend.close()
    human = [f"{key}: {result[key]}" for key in ("profile_id", "state", "imsi", "sqn_ms")]
    human.append(f"bound: {result.get('bound')}")
    _emit(args, result, human)
    return 0


def _cmd_audit_verify(args) -> int:
    if args.log:
        result = verify_audit_file(args.log).to_json()
    else:
        backend = _Backend(args)
        try:
            result = backend.audit_verify()
        finally:
            backend.close()
    if result["ok"]:
        _emit(args, result, [f"audit chain ok ({result['length']} records)"])
        return 0
    _emit(args, result, [
        f"audit chain BROKEN at seq {result['first_bad_seq']} "
        f"({result['length']} records verified)"
    ])
    return 1


def _cmd_scenario(args) -> int:
    config = None
    if args.scenario_config:
        config = json.loads(Path(args.scenario_config).read_text())
    report = scenarios.run_scenario(
        args.name,
        config,
        state_dir=args.state_dir,
        report_path=args.report,
        echo=None if args.json else print,
    )
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if report.passed else 1


_COMMANDS = {
    "serve": _cmd_serve,
    "provision": _cmd_provision,
    "suspend": _cmd_lifecycle,
    "resume": _cmd_lifecycle,
    "revoke": _cmd_lifecycle,
    "policy": _cmd_policy,
    "status": _cmd_status,
    "audit-verify": _cmd_audit_verify,
    "scenario": _cmd_scenario,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AgentEsimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
