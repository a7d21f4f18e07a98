"""Delegation policy validation and fixed-order enforcement."""

import copy
import ipaddress
import json
import math
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agent_esim.config import ServiceConfig
from agent_esim.errors import GatewayDenied, InvalidPolicy, StorageFailure
from agent_esim.policy import (
    POLICY_HEADER,
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
from agent_esim.recordlog import write_frames
from agent_esim.stack import build_stack, serving

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


def decide(*args, **kwargs) -> GatewayDenied | None:
    """enforce_policy's verdict: None when it admits, else the denial it raised."""
    try:
        enforce_policy(*args, **kwargs)
    except GatewayDenied as denial:
        return denial
    return None


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
    networks = [ipaddress.ip_network("192.168.0.0/16")]
    assert cidr_match("10.1.2.3", []) is True  # empty allowlist: unrestricted
    assert cidr_match("10.1.2.3", networks) is False
    assert cidr_match("192.168.44.1", networks) is True
    assert cidr_match("not-an-ip", networks) is False


def test_validity_window_denial():
    policy = make_policy(validity=Validity(not_before=NOW + 10, not_after=NOW + 20))
    decision = decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW, RateState())
    assert decision.reason is DenyReason.POLICY_VALIDITY
    late = decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW + 30, RateState())
    assert late.reason is DenyReason.POLICY_VALIDITY


def test_op_permission_denial():
    policy = make_policy(allowed_ops=frozenset({GatewayOp.SIGN}))
    decision = decide(policy, GatewayOp.AUTHENTICATE, "127.0.0.1", NOW, RateState())
    assert decision.reason is DenyReason.OP_PERMISSION


def test_cidr_scope_denial():
    policy = make_policy(cidr_allowlist=frozenset({"192.168.0.0/16"}))
    decision = decide(policy, GatewayOp.SIGN, "10.1.2.3", NOW, RateState())
    assert decision.reason is DenyReason.CIDR_SCOPE


def test_measurement_denial_checked_before_rate():
    pinned = secrets.token_bytes(32)
    policy = make_policy(
        rate_limit=RateLimit(max_ops=0, window_seconds=60.0),
        measurement_allowlist=frozenset({pinned}),
    )
    state = RateState()
    decision = decide(
        policy, GatewayOp.SIGN, "127.0.0.1", NOW, state,
        measurement=secrets.token_bytes(32), binding_measurements={pinned},
    )
    assert decision.reason is DenyReason.MEASUREMENT_MATCH
    assert len(state.events) == 0  # denied requests never spend budget


def test_denied_request_spends_no_rate_budget():
    policy = make_policy(allowed_ops=frozenset({GatewayOp.SIGN}))
    state = RateState()
    for _ in range(50):
        decide(policy, GatewayOp.AUTHENTICATE, "127.0.0.1", NOW, state)
    assert len(state.events) == 0
    allowed = decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW, state)
    assert allowed is None


def test_rate_limit_exact_boundary():
    policy = make_policy(rate_limit=RateLimit(max_ops=10, window_seconds=60.0))
    state = RateState()
    outcomes = [
        decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW + i * 0.01, state)
        for i in range(11)
    ]
    assert [d is None for d in outcomes] == [True] * 10 + [False]
    assert outcomes[-1].reason is DenyReason.RATE_LIMIT
    assert outcomes[-1].retry_after is not None and outcomes[-1].retry_after >= 1
    # budget frees once the oldest admission leaves the window
    later = NOW + 60.0 + 0.011
    again = decide(policy, GatewayOp.SIGN, "127.0.0.1", later, state)
    assert again is None


def test_window_start_inclusive():
    policy = make_policy(rate_limit=RateLimit(max_ops=1, window_seconds=60.0))
    state = RateState()
    assert decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW, state) is None
    # an admission at exactly now - window still counts against the budget
    at_boundary = decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW + 60.0, state)
    assert at_boundary.reason is DenyReason.RATE_LIMIT
    past_boundary = decide(
        policy, GatewayOp.SIGN, "127.0.0.1", NOW + 60.000001, state
    )
    assert past_boundary is None


def test_zero_rate_policy_always_denies():
    policy = make_policy(rate_limit=RateLimit(max_ops=0, window_seconds=60.0))
    decision = decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW, state := RateState())
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
        if decide(policy, GatewayOp.SIGN, "127.0.0.1", NOW + t, state) is None:
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


def with_value(document: dict, field: tuple, value) -> dict:
    """A copy of `document` with the field at path `field` set to `value`."""
    document = copy.deepcopy(document)
    target = document
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    return document


POLICY_DOCUMENT = permissive_policy(policy_id="pol-doc").to_json()

# Documents the policy check refuses, each naming what enforcement could not apply.
REFUSED_DOCUMENTS = {
    "numeric policy_id": with_value(POLICY_DOCUMENT, ("policy_id",), 5),
    "list policy_id": with_value(POLICY_DOCUMENT, ("policy_id",), ["pol"]),
    "numeric cidr entry": with_value(POLICY_DOCUMENT, ("cidr_allowlist",), [5, "10.0.0.0/8"]),
    "NaN window": with_value(POLICY_DOCUMENT, ("rate_limit", "window_seconds"), math.nan),
    "infinite window": with_value(POLICY_DOCUMENT, ("rate_limit", "window_seconds"), math.inf),
    "window 'inf'": with_value(POLICY_DOCUMENT, ("rate_limit", "window_seconds"), "inf"),
    "infinite not_after": with_value(POLICY_DOCUMENT, ("validity", "not_after"), math.inf),
    "infinite not_before": with_value(POLICY_DOCUMENT, ("validity", "not_before"), -math.inf),
    "NaN not_before": with_value(POLICY_DOCUMENT, ("validity", "not_before"), math.nan),
    "infinite max_ops": with_value(POLICY_DOCUMENT, ("rate_limit", "max_ops"), math.inf),
}
# Documents with a field of the wrong JSON type, which the reader refuses
# rather than converts (`int(2.9)` is 2, `int(True)` is 1).
MISTYPED_DOCUMENTS = {
    "fractional max_ops": with_value(POLICY_DOCUMENT, ("rate_limit", "max_ops"), 2.9),
    "boolean max_ops": with_value(POLICY_DOCUMENT, ("rate_limit", "max_ops"), True),
    "string max_ops": with_value(POLICY_DOCUMENT, ("rate_limit", "max_ops"), "5"),
    "boolean window": with_value(POLICY_DOCUMENT, ("rate_limit", "window_seconds"), True),
    "string window": with_value(POLICY_DOCUMENT, ("rate_limit", "window_seconds"), "60"),
    "boolean not_after": with_value(POLICY_DOCUMENT, ("validity", "not_after"), True),
    "string not_before": with_value(POLICY_DOCUMENT, ("validity", "not_before"), "0"),
    "string allowed_ops": with_value(POLICY_DOCUMENT, ("allowed_ops",), "Sign"),
    "string cidr_allowlist": with_value(POLICY_DOCUMENT, ("cidr_allowlist",), "10.0.0.0/8"),
    "object measurement_allowlist": with_value(POLICY_DOCUMENT, ("measurement_allowlist",), {}),
}
REFUSED_DOCUMENTS.update(MISTYPED_DOCUMENTS)


@pytest.mark.parametrize("document", REFUSED_DOCUMENTS.values(), ids=REFUSED_DOCUMENTS)
def test_policy_refuses_what_enforcement_cannot_apply(document):
    with pytest.raises(InvalidPolicy):
        DelegationPolicy.from_json(document)


def test_integer_windows_and_bounds_read_as_floats():
    document = with_value(POLICY_DOCUMENT, ("rate_limit", "window_seconds"), 60)
    document = with_value(document, ("validity",), {"not_before": 0, "not_after": 4_000_000_000})
    policy = DelegationPolicy.from_json(document)
    assert policy.rate_limit == RateLimit(max_ops=1000, window_seconds=60.0)
    assert policy.validity == Validity(not_before=0.0, not_after=4e9)
    assert DelegationPolicy.from_json(policy.to_json()) == policy


def test_absent_or_empty_policy_id_is_minted():
    for policy_id in (None, ""):
        document = with_value(POLICY_DOCUMENT, ("policy_id",), policy_id)
        minted = DelegationPolicy.from_json(document).policy_id
        assert isinstance(minted, str) and len(minted) == 32


def test_parsed_networks_stay_out_of_equality_and_json():
    policy = make_policy(cidr_allowlist=frozenset({"10.0.0.0/8", "2001:db8::/32"}))
    assert set(policy.networks) == {
        ipaddress.ip_network("10.0.0.0/8"), ipaddress.ip_network("2001:db8::/32")
    }
    plain = make_policy()
    assert policy.to_json() == dict(plain.to_json(), cidr_allowlist=["10.0.0.0/8", "2001:db8::/32"])
    twin = DelegationPolicy.from_json(policy.to_json())
    assert twin == policy and hash(twin) == hash(policy)
    assert cidr_match("10.9.8.7", policy.networks)
    assert cidr_match("2001:db8::1", policy.networks)
    assert not cidr_match("192.0.2.1", policy.networks)


def test_rate_denial_rounds_retry_after_up_to_whole_seconds():
    state = RateState()
    for i in range(10):
        assert decide(make_policy(), GatewayOp.SIGN, "127.0.0.1", NOW + i * 0.25, state) is None
    denial = decide(make_policy(), GatewayOp.SIGN, "127.0.0.1", NOW + 10.5, state)
    assert (denial.reason, denial.retry_after) == (DenyReason.RATE_LIMIT, 50)  # ceil(49.5)
    at_edge = decide(make_policy(), GatewayOp.SIGN, "127.0.0.1", NOW + 60.0, state)
    assert at_edge.retry_after == 1  # the budget frees now: never 0
    zero = make_policy(rate_limit=RateLimit(max_ops=0, window_seconds=7.25))
    assert decide(zero, GatewayOp.SIGN, "127.0.0.1", NOW, RateState()).retry_after == 8


# Records the policy check refuses that a store could hold: each was
# accepted and written by the earlier check.
STORED_REFUSALS = ["numeric policy_id", "NaN window", "infinite window", "infinite not_after"]


@pytest.mark.parametrize("case", STORED_REFUSALS)
def test_stored_policy_the_check_refuses_stops_the_open(tmp_path, case):
    state = tmp_path / "state"
    state.mkdir()
    document = REFUSED_DOCUMENTS[case]
    if case == "infinite window":  # the pair that turned every sign into a 503
        document = with_value(document, ("rate_limit", "max_ops"), 0)
    good = {"profile_id": "esim-good", "policy": permissive_policy().to_json()}
    bad = {"profile_id": "esim-refused", "policy": document}
    write_frames(
        state / "policies.log", POLICY_HEADER,
        [json.dumps(r, separators=(",", ":"), sort_keys=True).encode() for r in (good, bad)],
    )
    config = ServiceConfig(state_dir=state, listen_port=0)
    with pytest.raises(StorageFailure, match=r"policies\.log.*esim-refused"):
        build_stack(config, sync=False)
    with pytest.raises(StorageFailure, match=r"policies\.log.*esim-refused"):
        with serving(config, "127.0.0.1", 0, "secret"):
            pytest.fail("a server started over a policy it cannot enforce")
