"""The HTTP input rule: no generated JSON document, posted to any endpoint
with the admin secret, gets an answer of 500 or more, none leaves the
service unable to answer an attested sign below 500, and the audit chain
stays whole. Generated strings also draw lone surrogates, which a JSON
document carries as `\\u` escapes: a body that holds one answers 400
`MalformedRequest` and writes no audit record."""

import http.client
import json
import secrets
from urllib.parse import quote

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from agent_esim.client import GatewayClient
from agent_esim.httpapi import GatewayHTTPServer
from agent_esim.policy import permissive_policy

from tests.conftest import Stack
from tests.test_policy import with_value

ADMIN_SECRET = "inputs-admin-secret"

# Any character, lone surrogates included (Hypothesis's default draws none).
CHARACTERS = st.characters() | st.characters(categories=["Cs"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(CHARACTERS, max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(CHARACTERS, max_size=8), inner, max_size=3),
    max_leaves=8,
)


def valid_documents(profile_id: str, measurement: bytes) -> dict[str, dict]:
    """One well-formed body per POST endpoint, each naming `profile_id`."""
    return {
        "/identity/sign": {"profile_id": profile_id, "payload_digest": "ab" * 32},
        "/identity/authenticate": {"profile_id": profile_id, "rand": "00" * 16, "autn": "00" * 16},
        "/admin/provision": {
            "agent_public_key": "cd" * 32,
            "expected_measurements": [measurement.hex()],
            "enterprise_namespace": "acme/inputs",
            "manifest_digest": "ef" * 32,
            "initial_policy": permissive_policy(policy_id="pol-new").to_json(),
        },
        "/admin/revoke": {"profile_id": profile_id, "reason": "inputs"},
        "/admin/lifecycle": {"profile_id": profile_id, "action": "suspend"},
        "/admin/policy": {"profile_id": profile_id, "policy": permissive_policy().to_json()},
    }


def field_paths(document: dict, prefix: tuple = ()):
    for key, value in document.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


TEMPLATES = valid_documents("esim-template", bytes(32))
# (path, field path) pairs; a field of None replaces the whole body
TARGETS = [
    (path, field)
    for path, document in TEMPLATES.items()
    for field in (None, *field_paths(document))
]

STATUS_PATH = "/identity/status/"
# (target, value): a POST target and the JSON put there, or the status path
# and the profile id appended to it
REQUESTS = st.one_of(
    st.tuples(st.sampled_from(TARGETS), JSON),
    st.tuples(st.just((STATUS_PATH, None)), st.text(CHARACTERS, max_size=70)),
)


def holds_a_lone_surrogate(document) -> bool:
    try:
        json.dumps(document, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def test_no_generated_document_gets_a_5xx(tmp_path):
    stack = Stack(tmp_path / "state", sync=False)
    server = GatewayHTTPServer(stack.gateway, "127.0.0.1", 0, ADMIN_SECRET)
    server.start()
    host, port = server.address
    raw = http.client.HTTPConnection(host, port, timeout=10)
    client = GatewayClient(server.base_url)

    @settings(
        max_examples=400, deadline=None, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(REQUESTS)
    @example((("/admin/policy", ("policy", "policy_id")), 5))
    @example((("/admin/provision", ("initial_policy", "cidr_allowlist")), [5, "10.0.0.0/8"]))
    @example((("/admin/revoke", ("reason",)), ["compromised"]))
    @example((("/admin/policy", ("policy", "rate_limit")), {"max_ops": 0, "window_seconds": 1e400}))
    @example((("/identity/sign", ("profile_id",)), "esim-\ud800"))
    @example((("/admin/provision", ("enterprise_namespace",)), "acme/\udfff"))
    # two lone surrogates that JSON writes as one escaped pair, which reads back as U+10000
    @example((("/admin/provision", None), {"\ud800\udc00": None}))
    def post(request):
        target, value = request
        measurement = secrets.token_bytes(32)
        profile_id = stack.provision(measurement=measurement)[0]["profile_id"]
        token = stack.token_for(measurement)
        headers = {"X-Admin-Secret": ADMIN_SECRET, "X-Attestation-Token": token.to_header()}
        path, field = target
        refused = False
        audited = stack.audit._seq
        if path == STATUS_PATH:
            quoted = quote(value, safe="", errors="surrogatepass")
            raw.request("GET", STATUS_PATH + quoted, headers=headers)
        else:
            document = valid_documents(profile_id, measurement)[path]
            document = with_value(document, field, value) if field else value
            body = json.dumps(document).encode()  # ASCII: a surrogate goes as \ud800
            refused = holds_a_lone_surrogate(json.loads(body))  # as the server reads it
            raw.request("POST", path, body, {"Content-Type": "application/json", **headers})
        response = raw.getresponse()
        answer = json.loads(response.read())
        assert response.status < 500, (target, value, response.status)
        if refused:
            assert (response.status, answer["error"]) == (400, "MalformedRequest"), answer
            assert stack.audit._seq == audited
        status, answer, _ = client.request(
            "POST", "/identity/sign", {"profile_id": profile_id, "payload_digest": "ab" * 32},
            {"X-Attestation-Token": token.to_header()},
        )
        assert status < 500, (target, value, status, answer)

    try:
        post()
        assert stack.gateway.verify_audit().ok
    finally:
        raw.close()
        client.close()
        server.stop()
        stack.close()
