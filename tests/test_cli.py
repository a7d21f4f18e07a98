"""CLI behavior: both direct-admin and live-endpoint modes, exit codes, hygiene."""

import json
import re
import secrets
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from agent_esim.agent import AgentRuntime, RelyingService, agent_authenticate
from agent_esim.attestation import SoftwareRootOfTrust
from agent_esim.audit import load_audit_records
from agent_esim.cli import main
from agent_esim.client import GatewayClient
from agent_esim.config import ADMIN_SECRET_ENV, ServiceConfig, load_config
from agent_esim.milenage import derive_opc
from agent_esim.policy import permissive_policy
from agent_esim.recordlog import FrameWalk, write_frames
from agent_esim.stack import build_stack, serving
from agent_esim.wire import scan_for_secrets

from tests.test_vault import store_with_second_profile_edited

ADMIN_SECRET = "cli-admin-secret"


@pytest.fixture(autouse=True)
def admin_env(monkeypatch):
    monkeypatch.setenv(ADMIN_SECRET_ENV, ADMIN_SECRET)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def provision_args(tmp_path, measurement=None, extra=()):
    measurement = measurement or secrets.token_bytes(32)
    return [
        "--state-dir", str(tmp_path / "state"), "--json", "provision",
        "--agent-key", secrets.token_bytes(32).hex(),
        "--measurement", measurement.hex(),
        "--namespace", "acme/cli",
        *extra,
    ]


def test_provision_direct_mode(tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(permissive_policy().to_json()))
    code, out, _ = run_cli(
        capsys, *provision_args(tmp_path, extra=("--policy-file", str(policy_file)))
    )
    assert code == 0
    result = json.loads(out)
    assert len(result["imsi"]) == 15 and result["imsi"].startswith("00101")
    assert len(result["iccid"]) == 19
    from agent_esim.identifiers import luhn_valid

    assert luhn_valid(result["iccid"])
    assert set(result) == {"profile_id", "imsi", "iccid", "public_signing_key"}


def test_provision_requires_policy_or_default(tmp_path, capsys):
    # no default policy configured and none supplied -> domain error, exit 1
    args = provision_args(tmp_path)
    args.remove("--json")
    code, _, err = run_cli(capsys, *args)
    assert code == 1
    assert "policy" in err.lower()


def test_provision_with_policy_file(tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(permissive_policy(policy_id="cli-pol").to_json()))
    code, out, _ = run_cli(
        capsys, *provision_args(tmp_path, extra=("--policy-file", str(policy_file)))
    )
    assert code == 0
    profile_id = json.loads(out)["profile_id"]

    code, out, _ = run_cli(
        capsys, "--state-dir", str(tmp_path / "state"), "--json", "status", profile_id
    )
    assert code == 0
    status = json.loads(out)
    assert status["state"] == "Active"
    assert status["policy"]["policy_id"] == "cli-pol"


def test_provision_stdout_never_contains_key_material(tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(permissive_policy().to_json()))
    code, out, err = run_cli(
        capsys, *provision_args(tmp_path, extra=("--policy-file", str(policy_file)))
    )
    assert code == 0
    from agent_esim.vault import SimVault

    vault = SimVault(tmp_path / "state")
    blob = (out + err).encode()
    for profile_id in vault.profile_ids():
        profile = vault._profiles[profile_id]
        for secret in (
            profile.key_material.k,
            profile.key_material.opc,
            profile.signing_key.private_bytes_raw(),
        ):
            assert secret.hex().encode() not in blob
            assert secret not in blob
    vault.close()


def test_lifecycle_transitions_and_exit_codes(tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(permissive_policy().to_json()))
    _, out, _ = run_cli(
        capsys, *provision_args(tmp_path, extra=("--policy-file", str(policy_file)))
    )
    profile_id = json.loads(out)["profile_id"]
    state_args = ["--state-dir", str(tmp_path / "state"), "--json"]

    code, out, _ = run_cli(capsys, *state_args, "suspend", profile_id)
    assert code == 0 and json.loads(out)["state"] == "Suspended"
    code, out, _ = run_cli(capsys, *state_args, "resume", profile_id)
    assert code == 0 and json.loads(out)["state"] == "Active"
    code, out, _ = run_cli(capsys, *state_args, "revoke", profile_id, "--reason", "drill")
    assert code == 0 and json.loads(out)["state"] == "Revoked"
    # resume after revoke: illegal transition -> exit 1
    code, _, err = run_cli(capsys, *state_args, "resume", profile_id)
    assert code == 1 and "illegal transition" in err.lower()


def test_policy_command(tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(permissive_policy(policy_id="p0").to_json()))
    _, out, _ = run_cli(
        capsys, *provision_args(tmp_path, extra=("--policy-file", str(policy_file)))
    )
    profile_id = json.loads(out)["profile_id"]
    tighter = tmp_path / "tighter.json"
    tighter.write_text(
        json.dumps(permissive_policy(policy_id="p1", max_ops=1).to_json())
    )
    code, out, _ = run_cli(
        capsys, "--state-dir", str(tmp_path / "state"), "--json",
        "policy", profile_id, "--policy-file", str(tighter),
    )
    assert code == 0
    assert json.loads(out) == {"previous_policy_id": "p0", "policy_id": "p1"}

    tighter.write_text(json.dumps(["allowed_ops"]))  # not a policy object: exit 1
    code, _, err = run_cli(
        capsys, "--state-dir", str(tmp_path / "state"),
        "policy", profile_id, "--policy-file", str(tighter),
    )
    assert code == 1 and "malformed policy" in err


def test_audit_verify_on_log_file(tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(permissive_policy().to_json()))
    run_cli(capsys, *provision_args(tmp_path, extra=("--policy-file", str(policy_file))))
    log_path = tmp_path / "state" / "audit.log"

    code, out, _ = run_cli(capsys, "--json", "audit-verify", "--log", str(log_path))
    assert code == 0 and json.loads(out)["ok"] is True

    # truncated tail still verifies, with the shorter length reported
    with FrameWalk(log_path) as walk:
        header, frames = walk.header, list(walk)
    write_frames(log_path, header, frames[:1])
    code, out, _ = run_cli(capsys, "--json", "audit-verify", "--log", str(log_path))
    assert code == 0
    assert json.loads(out) == {"ok": True, "length": 1}

    # mutation -> Broken{seq}, exit 1
    record = json.loads(frames[0])
    record["profile_id"] = "tampered"
    frames[0] = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    write_frames(log_path, header, frames)
    code, out, _ = run_cli(capsys, "--json", "audit-verify", "--log", str(log_path))
    assert code == 1
    assert json.loads(out)["first_bad_seq"] == 1


def test_scenario_command_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--json", "scenario", "enterprise-alert-agent",
        "--report", str(tmp_path / "r.json"),
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert json.loads((tmp_path / "r.json").read_text())["scenario"] == "enterprise-alert-agent"

    code, _, err = run_cli(capsys, "scenario", "no-such-scenario")
    assert code == 1 and "unknown scenario" in err.lower()


def test_scenario_report_includes_audit_ok(capsys):
    code, out, _ = run_cli(capsys, "scenario", "finance-decision-agent")
    assert code == 0
    assert "audit chain: ok" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_bad_config_key_named_in_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"state_dir": "s", "listen_adress": "x:1"}))
    code, _, err = run_cli(capsys, "--config", str(config), "status", "esim-x")
    assert code == 1
    assert "listen_adress" in err


def test_stored_profile_missing_a_field_is_one_error_line(tmp_path, capsys):
    store_with_second_profile_edited(tmp_path / "state", "esim-bad", lambda p: p.pop("imsi"))
    code, _, err = run_cli(capsys, "--state-dir", str(tmp_path / "state"), "status", "esim-bad")
    assert code == 1
    assert len(err.splitlines()) == 1
    assert re.match(r"error: .*vault\.log: profile esim-bad: no field 'imsi'$", err)


@pytest.mark.parametrize("port", ["99999", "-1"])
def test_serve_on_a_port_out_of_range_is_one_error_line(tmp_path, capsys, port):
    config = tmp_path / "service.json"
    config.write_text(json.dumps({"state_dir": "s", "listen_address": f"127.0.0.1:{port}"}))
    code, _, err = run_cli(capsys, "--config", str(config), "serve")
    assert code == 1
    assert err.splitlines() == [f"error: config key listen_address has a bad port: '{port}'"]
    assert not (tmp_path / "s").exists()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


CLI_ENV = {
    "PATH": "/usr/bin:/bin",
    ADMIN_SECRET_ENV: ADMIN_SECRET,
    "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
}


def cli_process(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "agent_esim.cli", *argv],
        capture_output=True, text=True, env=CLI_ENV,
    )


def service_config(tmp_path, state_dir) -> tuple[Path, int]:
    """A config file serving `state_dir` on a free loopback port."""
    port = _free_port()
    config_path = tmp_path / f"{Path(state_dir).name}-service.json"
    config_path.write_text(
        json.dumps(
            {
                "state_dir": str(state_dir),
                "listen_address": f"127.0.0.1:{port}",
                "admin_secret": ADMIN_SECRET,
                "default_policy": permissive_policy(policy_id="default").to_json(),
            }
        )
    )
    return config_path, port


@contextmanager
def serve_process(config_path, port):
    """`agent-esim serve` in a subprocess, up and answering on `port`."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "agent_esim.cli", "--config", str(config_path), "serve"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=CLI_ENV,
    )
    try:
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    break
            except OSError:
                time.sleep(0.05)
        else:
            proc.kill()
            raise AssertionError("serve did not come up: " + proc.stdout.read())
        yield proc
    finally:
        if proc.poll() is None:
            proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_serve_and_endpoint_mode_round_trip(tmp_path):
    config_path, port = service_config(tmp_path, tmp_path / "state")
    endpoint = f"http://127.0.0.1:{port}"
    with serve_process(config_path, port):
        result = cli_process(
            "--endpoint", endpoint, "--json", "provision",
            "--agent-key", secrets.token_bytes(32).hex(),
            "--measurement", secrets.token_bytes(32).hex(),
            "--namespace", "acme/served",
        )
        assert result.returncode == 0, result.stderr
        created = json.loads(result.stdout)

        status = cli_process("--endpoint", endpoint, "--json", "status", created["profile_id"])
        assert status.returncode == 0, status.stderr
        assert json.loads(status.stdout)["state"] == "Active"

    # restart on the same state keeps the profile and the audit chain
    with serve_process(config_path, port):
        verify = cli_process("--endpoint", endpoint, "--json", "audit-verify")
        assert verify.returncode == 0, verify.stderr
        assert json.loads(verify.stdout)["ok"] is True


def test_a_served_state_directory_refuses_a_second_process(tmp_path, capsys):
    state = tmp_path / "state"
    config_path, port = service_config(tmp_path, state)
    endpoint = f"http://127.0.0.1:{port}"
    with serve_process(config_path, port) as proc:
        code, out, _ = run_cli(
            capsys, "--endpoint", endpoint, "--json", "provision",
            "--agent-key", "ab" * 32, "--measurement", "cd" * 32, "--namespace", "acme/locked",
        )
        assert code == 0
        profile_id = json.loads(out)["profile_id"]
        audit_before = (state / "audit.log").read_bytes()

        code, out, err = run_cli(capsys, "--config", str(config_path), "revoke", profile_id)
        assert code == 1 and out == ""
        assert str(state) in err and "served by another process" in err
        code, _, err = run_cli(
            capsys, "--state-dir", str(state), "scenario", "finance-decision-agent"
        )
        assert code == 1 and str(state) in err
        assert (state / "audit.log").read_bytes() == audit_before
        code, out, _ = run_cli(capsys, "--endpoint", endpoint, "--json", "status", profile_id)
        assert code == 0 and json.loads(out)["state"] == "Active"

        proc.kill()  # SIGKILL: no clean-up runs, and the kernel drops the lock
        proc.wait(timeout=10)

    code, out, _ = run_cli(capsys, "--config", str(config_path), "revoke", profile_id)
    assert code == 0 and out == f"{profile_id}: Active -> Revoked\n"


def _policy_file(path, policy_id, max_ops=1000):
    path.write_text(json.dumps(permissive_policy(policy_id=policy_id, max_ops=max_ops).to_json()))
    return str(path)


def _run_deck(capsys, mode_args, tmp_path) -> list[tuple[int, str, str]]:
    """One admin deck through `mode_args`; each step's exit code, stdout and
    stderr, with the provisioned identifiers masked."""
    code, out, err = run_cli(
        capsys, *mode_args, "--json", "provision",
        "--agent-key", "ab" * 32, "--measurement", "cd" * 32, "--namespace", "acme/parity",
        "--policy-file", _policy_file(tmp_path / "p0.json", "p0"),
    )
    assert code == 0, err
    created = json.loads(out)
    profile_id = created["profile_id"]
    steps = [(code, out, err)]
    for argv in (
        ["suspend", profile_id],
        ["resume", profile_id],
        ["policy", profile_id, "--policy-file", _policy_file(tmp_path / "p1.json", "p1", 5)],
        ["status", profile_id],
        ["revoke", profile_id],
        ["resume", profile_id],
        ["status", "esim-000000000000"],
        ["audit-verify"],
    ):
        steps.append(run_cli(capsys, *mode_args, "--json", *argv))
    masks = {created[k]: f"<{k}>" for k in ("profile_id", "imsi", "iccid", "public_signing_key")}

    def masked(text):
        for value, mask in masks.items():
            text = text.replace(value, mask)
        return text

    return [(code, json.loads(masked(out) or "null"), masked(err)) for code, out, err in steps]


def _audit_trail(state_dir) -> list[tuple[str, str, str | None]]:
    return [
        (r.operation.value, r.outcome.kind, r.outcome.detail)
        for r in load_audit_records(Path(state_dir) / "audit.log")
    ]


def test_direct_and_endpoint_modes_give_the_same_answers(tmp_path, capsys):
    direct = _run_deck(capsys, ["--state-dir", str(tmp_path / "direct")], tmp_path)
    config_path, port = service_config(tmp_path, tmp_path / "served")
    with serve_process(config_path, port):
        served = _run_deck(capsys, ["--endpoint", f"http://127.0.0.1:{port}"], tmp_path)
    assert direct == served
    assert [code for code, _, _ in direct] == [0, 0, 0, 0, 0, 0, 1, 1, 0]
    assert direct[6][2] == "error: illegal transition Revoked -> Active\n"
    assert _audit_trail(tmp_path / "direct") == _audit_trail(tmp_path / "served")


# Admin secrets a header cannot carry, by where they come from.
REFUSED_SECRETS = {
    "config-number": ("config", 12345),
    "config-empty": ("config", ""),
    "config-non-ascii": ("config", "pässwort"),
    "env-non-ascii": ("env", "pässwort"),
}


@pytest.mark.parametrize(
    "source, secret", REFUSED_SECRETS.values(), ids=list(REFUSED_SECRETS)
)
def test_a_secret_a_header_cannot_carry_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                          source, secret):
    document = {"state_dir": str(tmp_path / "state"), "listen_address": "127.0.0.1:0"}
    env = dict(CLI_ENV)
    if source == "config":
        document["admin_secret"] = secret
        monkeypatch.delenv(ADMIN_SECRET_ENV)
        del env[ADMIN_SECRET_ENV]
    else:
        monkeypatch.setenv(ADMIN_SECRET_ENV, secret)
        env[ADMIN_SECRET_ENV] = secret
    config = tmp_path / "service.json"
    config.write_text(json.dumps(document))
    refusal = (
        "error: the admin secret (the admin_secret config key or AGENT_ESIM_ADMIN_SECRET)"
        " must be a non-empty printable-ASCII string"
    )
    code, out, err = run_cli(
        capsys, "--config", str(config), "--endpoint", "http://127.0.0.1:9", "status", "esim-x"
    )
    assert (code, out, err.splitlines()) == (1, "", [refusal])
    # `serve` refuses before it opens the state directory; a serve that
    # started would block, hence the timeout
    served = subprocess.run(
        [sys.executable, "-m", "agent_esim.cli", "--config", str(config), "serve"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (served.returncode, served.stdout, served.stderr.splitlines()) == (1, "", [refusal])
    assert not (tmp_path / "state").exists()


def test_serve_on_port_0_announces_its_url_and_persists_on_sigterm(tmp_path):
    state = tmp_path / "state"
    config_path = tmp_path / "service.json"
    config_path.write_text(json.dumps({
        "state_dir": str(state),
        "listen_address": "127.0.0.1:0",
        "admin_secret": ADMIN_SECRET,
        "default_policy": permissive_policy(policy_id="default").to_json(),
    }))
    proc = subprocess.Popen(
        [sys.executable, "-m", "agent_esim.cli", "--config", str(config_path), "serve"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CLI_ENV,
    )
    try:
        first = proc.stdout.readline()
        url = re.fullmatch(r"agent-esim serving on (http://127\.0\.0\.1:\d+) \(state: .*\)\n",
                           first)
        assert url is not None, first + proc.stderr.read()
        created = cli_process(
            "--endpoint", url[1], "--json", "provision",
            "--agent-key", secrets.token_bytes(32).hex(),
            "--measurement", secrets.token_bytes(32).hex(),
            "--namespace", "acme/port-0",
        )
        assert created.returncode == 0, created.stderr
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
    assert (proc.returncode, out, err) == (0, "agent-esim stopped; state persisted\n", "")
    profile_id = json.loads(created.stdout)["profile_id"]
    stack = build_stack(ServiceConfig(state_dir=state, listen_port=0), sync=False)
    try:
        assert stack.vault.get_state(profile_id).value == "Active"
    finally:
        stack.close()


def test_operator_op_derives_opc_and_is_stored_and_shown_nowhere(tmp_path, capsys):
    op = secrets.token_bytes(16)
    root = SoftwareRootOfTrust.generate("tee-op")
    config_path = tmp_path / "service.json"
    config_path.write_text(json.dumps({
        "state_dir": "state",
        "operator_op": op.hex(),
        "attestation_roots": [{"root_id": root.root_id, "public_key": root.public_key.hex()}],
        "default_policy": permissive_policy(policy_id="default").to_json(),
    }))
    measurement = secrets.token_bytes(32)
    outputs = [run_cli(
        capsys, "--config", str(config_path), "--json", "provision",
        "--agent-key", secrets.token_bytes(32).hex(),
        "--measurement", measurement.hex(), "--namespace", "acme/op",
    )]
    assert outputs[0][0] == 0, outputs[0][2]
    created = json.loads(outputs[0][1])
    outputs.append(run_cli(capsys, "--config", str(config_path), "--json", "status",
                           created["profile_id"]))
    assert outputs[1][0] == 0, outputs[1][2]
    with serving(load_config(config_path), "127.0.0.1", 0, "op-secret") as (stack, server):
        keys = stack.vault.key_material_for(created["imsi"])
        assert keys.opc == derive_opc(keys.k, op)
        with GatewayClient(server.base_url) as client:
            agent = AgentRuntime(
                agent_id="agent-op", profile_id=created["profile_id"], measurement=measurement,
                environment_id="env-op", attestation_signer=root, client=client,
            )
            session = agent_authenticate(agent, RelyingService(stack.netcore))
            assert session.authenticated is True
            seen = json.dumps([client.transcript, session.transcript], default=str)
    seen += "".join(out + err for _, out, err in outputs)
    state_files = [p for p in (tmp_path / "state").iterdir() if p.is_file()]
    assert {p.name for p in state_files} >= {"vault.log", "netcore.log", "audit.log"}
    for blob in [seen.encode(), *(p.read_bytes() for p in state_files)]:
        assert scan_for_secrets(blob, [op]) == []
