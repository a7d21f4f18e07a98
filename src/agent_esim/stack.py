"""One-process service assembly: vault + network core + gateway.

This is deployment shape the CLI serves: all three services live in one
process group behind shared state, with the gateway as the only
agent-facing surface. Tests and scenarios build the same stack against
temp directories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .attestation import RootRegistry
from .audit import AuditLog
from .config import ServiceConfig
from .gateway import IdentityGateway
from .httpapi import GatewayHTTPServer
from .identifiers import IdentifierAllocator
from .netcore import NetworkCore
from .policy import PolicyStore
from .vault import SimVault


@dataclass
class ServiceStack:
    config: ServiceConfig
    vault: SimVault
    netcore: NetworkCore
    policies: PolicyStore
    audit: AuditLog
    roots: RootRegistry
    allocator: IdentifierAllocator
    gateway: IdentityGateway

    def build_server(self, *, admin_secret: str | None = None) -> GatewayHTTPServer:
        secret = admin_secret or self.config.resolve_admin_secret()
        return GatewayHTTPServer(
            self.gateway, self.config.listen_host, self.config.listen_port, secret
        )

    def close(self) -> None:
        self.vault.close()
        self.netcore.close()
        self.policies.close()
        self.audit.close()
        self.allocator.close()


def build_stack(
    config: ServiceConfig,
    *,
    clock: Callable[[], float] = time.time,
    sync: bool = True,
) -> ServiceStack:
    state_dir = Path(config.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    vault = SimVault(state_dir, sync=sync)
    netcore = NetworkCore(
        state_dir,
        sqn_step=config.sqn_step,
        challenge_ttl=config.challenge_ttl_seconds,
        clock=clock,
        sync=sync,
    )
    policies = PolicyStore(state_dir, sync=sync)
    audit = AuditLog(state_dir, sync=sync, clock=clock)
    roots = RootRegistry()
    for root_id, public_key in config.attestation_roots:
        roots.register(root_id, public_key)
    allocator = IdentifierAllocator(
        state_dir,
        imsi_prefix=config.imsi_prefix,
        iccid_prefix=config.iccid_prefix,
        sync=sync,
    )
    gateway = IdentityGateway(
        vault,
        netcore,
        policies,
        audit,
        roots,
        allocator=allocator,
        default_policy=config.default_policy,
        operator_op=config.operator_op,
        clock=clock,
    )
    return ServiceStack(
        config=config,
        vault=vault,
        netcore=netcore,
        policies=policies,
        audit=audit,
        roots=roots,
        allocator=allocator,
        gateway=gateway,
    )
