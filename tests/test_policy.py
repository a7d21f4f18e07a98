"""Delegation policy validation and fixed-order enforcement."""

import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agent_esim.errors import InvalidPolicy
from agent_esim.policy import (
    DelegationPolicy,
    DenyReason,
    GatewayOp,
    PolicyStore,
    RateLimit,
    RateState,
    Validity,
    cidr_match,
    enforce_policy,
    permissive_policy,
)

NOW = 10_000.0


def make_policy(**overrides):
    fields = dict(
        policy_id="pol-test",
        rate_limit=RateLimit(max_ops=10, window_seconds=60.0),
        validity=Validity(not_before=0.0, not_after=1e12),
        allowed_ops=frozenset({GatewayOp.SIGN, GatewayOp.AUTHENTICATE, GatewayOp.STATUS}),
    )
    fields.update(overrides)
    return DelegationPolicy(**fields)


def test_policy_invariants():
    with pytest.raises(InvalidPolicy):
        make_policy(policy_id="")
    with pytest.raises(InvalidPolicy):
        make_policy(rate_limit=RateLimit(max_ops=-1, window_seconds=60.0))
    with pytest.raises(InvalidPolicy):
        make_policy(rate_limit=RateLimit(max_ops=1, window_seconds=0.0))
    with pytest.raises(InvalidPolicy):
        make_policy(validity=Validity(not_before=10.0, not_after=10.0))
    with pytest.raises(InvalidPolicy):
        make_policy(allowed_ops=frozenset())
    with pytest.raises(InvalidPolicy):
        make_policy(cidr_allowlist=frozenset({"not-a-prefix"}))
    with pytest.raises(InvalidPolicy):
        make_policy(measurement_allowlist=frozenset({b"short"}))


def test_policy_json_round_trip():
    policy = make_policy(
        cidr_allowlist=frozenset({"192.168.0.0/16", "10.0.0.0/8"}),
        measurement_allowlist=frozenset({secrets.token_bytes(32)}),
    )
    assert DelegationPolicy.from_json(policy.to_json()) == policy


def test_policy_from_json_rejects_malformed():
    with pytest.raises(InvalidPolicy):
        DelegationPolicy.from_json({"rate_limit": {}})


def test_cidr_match_semantics():
    assert cidr_match("10.1.2.3", []) is True  # empty allowlist: unrestricted
    assert cidr_match("10.1.2.3", ["192.168.0.0/16"]) is False
    assert cidr_match("192.168.44.1", ["192.168.0.0/16"]) is True
    assert cidr_match("not-an-ip", ["192.168.0.0/16"]) is False


def test_validity_window_denial():
    policy = make_policy(validity=Validity(not_before=NOW + 10, not_after=NOW + 20))
    decision = enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW, RateState())
    assert decision.reason is DenyReason.POLICY_VALIDITY
    late = enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW + 30, RateState())
    assert late.reason is DenyReason.POLICY_VALIDITY


def test_op_permission_denial():
    policy = make_policy(allowed_ops=frozenset({GatewayOp.SIGN}))
    decision = enforce_policy(policy, GatewayOp.AUTHENTICATE, "127.0.0.1", NOW, RateState())
    assert decision.reason is DenyReason.OP_PERMISSION


def test_cidr_scope_denial():
    policy = make_policy(cidr_allowlist=frozenset({"192.168.0.0/16"}))
    decision = enforce_policy(policy, GatewayOp.SIGN, "10.1.2.3", NOW, RateState())
    assert decision.reason is DenyReason.CIDR_SCOPE


def test_measurement_denial_checked_before_rate():
    pinned = secrets.token_bytes(32)
    policy = make_policy(
        rate_limit=RateLimit(max_ops=0, window_seconds=60.0),
        measurement_allowlist=frozenset({pinned}),
    )
    state = RateState()
    decision = enforce_policy(
        policy, GatewayOp.SIGN, "127.0.0.1", NOW, state,
        measurement=secrets.token_bytes(32), binding_measurements={pinned},
    )
    assert decision.reason is DenyReason.MEASUREMENT_MATCH
    assert len(state.events) == 0  # denied requests never spend budget


def test_denied_request_spends_no_rate_budget():
    policy = make_policy(allowed_ops=frozenset({GatewayOp.SIGN}))
    state = RateState()
    for _ in range(50):
        enforce_policy(policy, GatewayOp.AUTHENTICATE, "127.0.0.1", NOW, state)
    assert len(state.events) == 0
    allowed = enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW, state)
    assert allowed.allowed


def test_rate_limit_exact_boundary():
    policy = make_policy(rate_limit=RateLimit(max_ops=10, window_seconds=60.0))
    state = RateState()
    outcomes = [
        enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW + i * 0.01, state)
        for i in range(11)
    ]
    assert [d.allowed for d in outcomes] == [True] * 10 + [False]
    assert outcomes[-1].reason is DenyReason.RATE_LIMIT
    assert outcomes[-1].retry_after is not None and outcomes[-1].retry_after >= 1
    # budget frees once the oldest admission leaves the window
    later = NOW + 60.0 + 0.011
    again = enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", later, state)
    assert again.allowed


def test_window_start_inclusive():
    policy = make_policy(rate_limit=RateLimit(max_ops=1, window_seconds=60.0))
    state = RateState()
    assert enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW, state).allowed
    # an admission at exactly now - window still counts against the budget
    at_boundary = enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW + 60.0, state)
    assert at_boundary.reason is DenyReason.RATE_LIMIT
    past_boundary = enforce_policy(
        policy, GatewayOp.SIGN, "127.0.0.1", NOW + 60.000001, state
    )
    assert past_boundary.allowed


def test_zero_rate_policy_always_denies():
    policy = make_policy(rate_limit=RateLimit(max_ops=0, window_seconds=60.0))
    decision = enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW, state := RateState())
    assert decision.reason is DenyReason.RATE_LIMIT
    assert len(state.events) == 0


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False), min_size=1, max_size=60
    ),
    max_ops=st.integers(min_value=1, max_value=8),
    window=st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
)
def test_rate_limit_never_exceeds_budget_in_any_window(times, max_ops, window):
    policy = make_policy(rate_limit=RateLimit(max_ops=max_ops, window_seconds=window))
    state = RateState()
    admitted = []
    for t in sorted(times):
        if enforce_policy(policy, GatewayOp.SIGN, "127.0.0.1", NOW + t, state).allowed:
            admitted.append(NOW + t)
    # property: every window [s, s + window) holds at most max_ops admissions
    for s in admitted:
        in_window = [a for a in admitted if s <= a < s + window]
        assert len(in_window) <= max_ops


def test_policy_store_persistence(tmp_path):
    store = PolicyStore(tmp_path / "state")
    first = permissive_policy(policy_id="pol-a")
    second = permissive_policy(policy_id="pol-b", max_ops=1)
    assert store.set("p-1", first) is None
    assert store.set("p-1", second) == "pol-a"
    assert store.get("p-1").policy_id == "pol-b"
    store.close()
    reopened = PolicyStore(tmp_path / "state")
    assert reopened.get("p-1") == second
    reopened.close()
