"""Config loading: defaults, overrides, and named-key errors."""

import json

import pytest

from agent_esim.config import ADMIN_SECRET_ENV, config_from_dict, load_config
from agent_esim.errors import ConfigError


def write_config(tmp_path, document):
    path = tmp_path / "service.json"
    path.write_text(json.dumps(document))
    return path


def test_minimal_config(tmp_path):
    config = load_config(write_config(tmp_path, {"state_dir": "state"}))
    assert config.state_dir == tmp_path / "state"
    assert config.listen_host == "127.0.0.1"
    assert config.sqn_step == 1


def test_full_config(tmp_path):
    from agent_esim.policy import permissive_policy

    document = {
        "state_dir": "/var/lib/agent-esim",
        "listen_address": "0.0.0.0:9000",
        "admin_secret": "s3cret",
        "attestation_roots": [{"root_id": "tee-1", "public_key": "ab" * 32}],
        "default_policy": permissive_policy(policy_id="default").to_json(),
        "imsi_prefix": "99970",
        "iccid_prefix": "8999",
        "challenge_ttl_seconds": 15,
        "sqn_step": 2,
        "operator_op": "cd" * 16,
    }
    config = load_config(write_config(tmp_path, document))
    assert config.listen_port == 9000
    assert config.attestation_roots == [("tee-1", bytes.fromhex("ab" * 32))]
    assert config.default_policy.policy_id == "default"
    assert config.imsi_prefix == "99970"
    assert config.operator_op == bytes.fromhex("cd" * 16)


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="listen_adress"):
        load_config(write_config(tmp_path, {"state_dir": "s", "listen_adress": "x:1"}))


def test_missing_state_dir():
    with pytest.raises(ConfigError, match="state_dir"):
        config_from_dict({})


def test_bad_listen_address(tmp_path):
    with pytest.raises(ConfigError, match="listen_address"):
        load_config(write_config(tmp_path, {"state_dir": "s", "listen_address": "nope"}))


def test_bad_operator_op():
    with pytest.raises(ConfigError, match="operator_op"):
        config_from_dict({"state_dir": "s", "operator_op": "zz"})
    with pytest.raises(ConfigError, match="operator_op"):
        config_from_dict({"state_dir": "s", "operator_op": "ab"})


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/does/not/exist.json")


def test_admin_secret_env_override(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path, {"state_dir": "s", "admin_secret": "file"}))
    monkeypatch.setenv(ADMIN_SECRET_ENV, "env-wins")
    assert config.resolve_admin_secret() == "env-wins"
    monkeypatch.delenv(ADMIN_SECRET_ENV)
    assert config.resolve_admin_secret() == "file"


def test_admin_secret_required(tmp_path, monkeypatch):
    monkeypatch.delenv(ADMIN_SECRET_ENV, raising=False)
    config = load_config(write_config(tmp_path, {"state_dir": "s"}))
    with pytest.raises(ConfigError, match=ADMIN_SECRET_ENV):
        config.resolve_admin_secret()


@pytest.mark.parametrize("key_hex", ["ab" * 31, "ab" * 33, ""], ids=["31-bytes", "33-bytes", "empty"])
def test_attestation_root_key_must_be_32_bytes(key_hex):
    document = {"state_dir": "state", "attestation_roots": [{"root_id": "tee-1", "public_key": key_hex}]}
    with pytest.raises(ConfigError, match="tee-1"):
        config_from_dict(document)
