"""Built-in scenarios: outcomes, reports, and audit joins."""

import json

import pytest

from agent_esim.errors import UnknownScenario
from agent_esim.scenarios import run_scenario, scenario_names


def test_scenario_names():
    assert scenario_names() == [
        "agent-marketplace",
        "enterprise-alert-agent",
        "finance-decision-agent",
    ]


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("does-not-exist")


def test_enterprise_alert_agent(tmp_path):
    report = run_scenario(
        "enterprise-alert-agent", report_path=tmp_path / "report.json"
    )
    assert report.passed
    assert report.counts["alerts_allowed"] == 1
    assert report.counts["alerts_rate_denied"] == 1
    assert report.counts["authenticate_role_denied"] == 1
    assert report.audit_chain_ok
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["passed"] is True
    assert saved["scenario"] == "enterprise-alert-agent"


def test_finance_decision_agent():
    report = run_scenario("finance-decision-agent")
    assert report.passed
    assert report.counts["post_revocation_denials"] == report.counts["post_revocation_attempts"]
    assert report.checks["stale_message_rejected"]
    assert report.checks["every_step_audited"]


def test_agent_marketplace():
    report = run_scenario("agent-marketplace")
    assert report.passed
    assert report.counts["agents"] == 5
    assert report.counts["verifiable_after_revocation"] == 4
    assert report.counts["compromise_denial"] == "MeasurementMatch"
    assert report.checks["no_key_material_observable"]


def test_scenario_config_override():
    report = run_scenario("agent-marketplace", config={"agents": 3, "compromised_index": 0})
    assert report.passed
    assert report.counts["agents"] == 3
    assert report.counts["verifiable_after_revocation"] == 2


def test_report_text_rendering():
    report = run_scenario("enterprise-alert-agent")
    text = report.render_text()
    assert "scenario: enterprise-alert-agent" in text
    assert "result: PASS" in text


@pytest.mark.parametrize(
    "name, step, outcome",
    [
        ("enterprise-alert-agent", "send_alert", "denied:RateLimit"),
        ("finance-decision-agent", "sign_after_revoke", "denied:ProfileState"),
        ("agent-marketplace", "compromised_publish", "denied:MeasurementMatch"),
    ],
)
def test_denied_steps_name_the_reason_by_its_value(name, step, outcome):
    report = run_scenario(name)
    assert outcome in [entry["outcome"] for entry in report.steps if entry["step"] == step]
    assert "DenyReason" not in report.render_text() + json.dumps(report.to_json())
