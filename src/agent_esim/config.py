"""Service configuration.

A single JSON document configures `serve` and the direct-admin CLI mode.
Documented keys (unknown keys are rejected by name):

    listen_address       "host:port" the gateway HTTP server binds
    state_dir            directory holding every persisted log
    admin_secret         shared admin credential (the AGENT_ESIM_ADMIN_SECRET
                         environment variable overrides it)
    attestation_roots    [{"root_id": ..., "public_key": <hex>}, ...]; each key
                         is a 32-byte Ed25519 public key
    default_policy       policy document applied when provisioning omits one
    imsi_prefix          5-6 digit MCC+MNC prefix for allocated IMSIs
    iccid_prefix         issuer prefix for allocated ICCIDs
    challenge_ttl_seconds  network-core challenge lifetime
    sqn_step             sequence-number advance per issued vector
    operator_op          16-byte operator constant (hex); when set, per-profile
                         OPc is derived from it instead of drawn at random
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .identifiers import DEFAULT_ICCID_PREFIX, DEFAULT_IMSI_PREFIX
from .policy import DelegationPolicy

ADMIN_SECRET_ENV = "AGENT_ESIM_ADMIN_SECRET"

_KNOWN_KEYS = {
    "listen_address",
    "state_dir",
    "admin_secret",
    "attestation_roots",
    "default_policy",
    "imsi_prefix",
    "iccid_prefix",
    "challenge_ttl_seconds",
    "sqn_step",
    "operator_op",
}


@dataclass
class ServiceConfig:
    state_dir: Path
    listen_host: str = "127.0.0.1"
    listen_port: int = 8470
    admin_secret: str | None = None
    attestation_roots: list[tuple[str, bytes]] = field(default_factory=list)
    default_policy: DelegationPolicy | None = None
    imsi_prefix: str = DEFAULT_IMSI_PREFIX
    iccid_prefix: str = DEFAULT_ICCID_PREFIX
    challenge_ttl_seconds: float = 60.0
    sqn_step: int = 1
    operator_op: bytes | None = None

    def resolve_admin_secret(self) -> str:
        secret = os.environ.get(ADMIN_SECRET_ENV) or self.admin_secret
        if not secret:
            raise ConfigError(
                f"no admin credential: set the admin_secret config key or {ADMIN_SECRET_ENV}"
            )
        return secret


def _parse_listen_address(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ConfigError("config key listen_address must look like host:port")
    try:
        return host, int(port)
    except ValueError as err:
        raise ConfigError(f"config key listen_address has a bad port: {port!r}") from err


def load_config(path: str | Path) -> ServiceConfig:
    path = Path(path)
    try:
        document = json.loads(path.read_text("utf-8"))
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except ValueError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(document, base_dir=path.parent)


def config_from_dict(document: dict, *, base_dir: Path | None = None) -> ServiceConfig:
    unknown = set(document) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    if "state_dir" not in document:
        raise ConfigError("config key state_dir is required")

    state_dir = Path(document["state_dir"])
    if base_dir is not None and not state_dir.is_absolute():
        state_dir = base_dir / state_dir

    config = ServiceConfig(state_dir=state_dir)
    if "listen_address" in document:
        config.listen_host, config.listen_port = _parse_listen_address(
            str(document["listen_address"])
        )
    config.admin_secret = document.get("admin_secret")

    roots = document.get("attestation_roots", [])
    if not isinstance(roots, list):
        raise ConfigError("config key attestation_roots must be a list")
    for entry in roots:
        try:
            root_id, public_key = str(entry["root_id"]), bytes.fromhex(entry["public_key"])
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"config key attestation_roots has a bad entry: {err}") from err
        if len(public_key) != 32:
            raise ConfigError(f"attestation root {root_id!r}: public_key must be 32 bytes of hex")
        config.attestation_roots.append((root_id, public_key))

    if document.get("default_policy") is not None:
        config.default_policy = DelegationPolicy.from_json(document["default_policy"])

    for key, attr, caster in (
        ("imsi_prefix", "imsi_prefix", str),
        ("iccid_prefix", "iccid_prefix", str),
        ("challenge_ttl_seconds", "challenge_ttl_seconds", float),
        ("sqn_step", "sqn_step", int),
    ):
        if key in document:
            try:
                setattr(config, attr, caster(document[key]))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"config key {key} is invalid: {err}") from err

    if document.get("operator_op"):
        try:
            op = bytes.fromhex(document["operator_op"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"config key operator_op is not hex: {err}") from err
        if len(op) != 16:
            raise ConfigError("config key operator_op must be 16 bytes of hex")
        config.operator_op = op
    return config
