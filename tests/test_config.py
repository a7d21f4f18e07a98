"""Config loading: defaults, overrides, and named-key errors."""

import json

import pytest

from agent_esim.config import ADMIN_SECRET_ENV, config_from_dict, load_config, resolve_admin_secret
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
    assert (config.iccid_prefix, config.sqn_step) == ("8999", 2)
    assert config.challenge_ttl_seconds == 15.0 and type(config.challenge_ttl_seconds) is float


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
    assert resolve_admin_secret(config) == "env-wins"
    monkeypatch.delenv(ADMIN_SECRET_ENV)
    assert resolve_admin_secret(config) == "file"


def test_admin_secret_required(tmp_path, monkeypatch):
    monkeypatch.delenv(ADMIN_SECRET_ENV, raising=False)
    config = load_config(write_config(tmp_path, {"state_dir": "s"}))
    with pytest.raises(ConfigError, match=ADMIN_SECRET_ENV):
        resolve_admin_secret(config)


# Admin secrets a header cannot carry, or that would admit an empty header.
REFUSED_SECRETS = {"number": 12345, "empty": "", "non-ascii": "pässwort", "tab": "se\tcret"}


@pytest.mark.parametrize("case", sorted(REFUSED_SECRETS))
def test_the_resolver_refuses_a_config_secret_a_header_cannot_carry(monkeypatch, case):
    monkeypatch.delenv(ADMIN_SECRET_ENV, raising=False)
    config = config_from_dict({"state_dir": "s", "admin_secret": REFUSED_SECRETS[case]})
    with pytest.raises(ConfigError, match="must be a non-empty printable-ASCII string"):
        resolve_admin_secret(config)


def test_the_resolver_refuses_a_non_ascii_secret_from_the_environment(monkeypatch):
    monkeypatch.setenv(ADMIN_SECRET_ENV, "pässwort")
    config = config_from_dict({"state_dir": "s", "admin_secret": "file"})
    for source in (config, None):
        with pytest.raises(ConfigError, match="must be a non-empty printable-ASCII string"):
            resolve_admin_secret(source)


@pytest.mark.parametrize("key_hex", ["ab" * 31, "ab" * 33, ""], ids=["31-bytes", "33-bytes", "empty"])
def test_attestation_root_key_must_be_32_bytes(key_hex):
    document = {"state_dir": "state", "attestation_roots": [{"root_id": "tee-1", "public_key": key_hex}]}
    with pytest.raises(ConfigError, match="tee-1"):
        config_from_dict(document)


def test_default_policy_is_read_without_coercion():
    from agent_esim.errors import InvalidPolicy
    from agent_esim.policy import permissive_policy

    document = permissive_policy(policy_id="default").to_json()
    document["rate_limit"]["window_seconds"] = 60  # a JSON integer is a number
    config = config_from_dict({"state_dir": "s", "default_policy": document})
    assert config.default_policy.rate_limit.window_seconds == 60.0
    document["rate_limit"]["max_ops"] = "5"
    with pytest.raises(InvalidPolicy, match="max_ops"):
        config_from_dict({"state_dir": "s", "default_policy": document})


WRONG_VALUES = {
    "state_dir": [5, None, ["s"]],
    "sqn_step": [2.9, True, False, 0, -1, "2", None],
    "challenge_ttl_seconds": ["15", -5, 0, float("nan"), float("inf"), True, None],
    "imsi_prefix": [99970, None, ["99970"]],
    "iccid_prefix": [8999, None],
    "listen_address": ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:+80",
                       "127.0.0.1: 80", "127.0.0.1:"],
}


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key, values in WRONG_VALUES.items() for value in values],
    ids=[f"{key}={value!r}" for key, values in WRONG_VALUES.items() for value in values],
)
def test_a_wrong_type_or_range_is_refused_by_key(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({"state_dir": "s", key: value})
    # the same document from a file: Python's JSON reader accepts NaN and Infinity
    with pytest.raises(ConfigError, match=key):
        load_config(write_config(tmp_path, {"state_dir": "s", key: value}))


@pytest.mark.parametrize("address, port", [("0.0.0.0:65535", 65535), ("localhost:0", 0)])
def test_ports_at_the_ends_of_the_range_load(address, port):
    assert config_from_dict({"state_dir": "s", "listen_address": address}).listen_port == port
