"""Smoke test of the benchmark itself, on tiny op counts.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from agent_esim import recordlog  # noqa: E402
from agent_esim.audit import AUDIT_HEADER  # noqa: E402
from agent_esim.client import GatewayClient  # noqa: E402
from agent_esim.wire import scan_for_secrets  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 0.05


@pytest.fixture(autouse=True)
def few_rounds(monkeypatch):
    monkeypatch.setattr(harness, "ROUNDS", 2)


def run(workload: str, tmp_path: Path, trace: bool = False) -> dict:
    return harness.run(workload, 7, TINY_SECONDS, trace, tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, tmp_path):
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        report = run(workload, tmp_path, trace)
        result = report["result"]
        assert result["correct"], report["checks"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert report["meta"]["failed_ratio"] == 0
        units = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        for metric in result["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))
    layers = result["metrics"]
    milenage_calls = layers["milenage.calls_per_op"]["value"]
    assert milenage_calls == 0 if workload == "sign" else milenage_calls > 0
    assert layers["trace.overhead_ratio"]["value"] > 0
    assert "gateway.handle_ms" not in report["absent"]
    assert ("vault.aka_ms" in report["absent"]) == (workload != "aka")
    assert set(report["absent"]) <= set(layers)


def test_planted_bad_signature_counts_as_failed(tmp_path, monkeypatch):
    original = GatewayClient.sign
    calls = []

    def tampered(self, *args):
        body = original(self, *args)
        calls.append(1)
        if len(calls) == 3:
            flipped = "0" if body["signature"][0] != "0" else "1"
            body["signature"] = flipped + body["signature"][1:]
        return body

    monkeypatch.setattr(GatewayClient, "sign", tampered)
    report = run("sign", tmp_path)
    assert report["result"]["failed"] == 1
    assert report["meta"]["failed_ratio"] > 0
    assert not report["result"]["correct"]


def test_planted_wrong_churn_outcome_counts_as_failed(tmp_path, monkeypatch):
    original = workloads.plan_churn

    def wrong(*args):
        plan = original(*args)
        i = next(i for i, step in enumerate(plan) if step.kind == "sign" and step.status == 200)
        plan[i] = dataclasses.replace(plan[i], status=403, detail="RateLimit")
        return plan

    monkeypatch.setattr(workloads, "plan_churn", wrong)
    report = run("churn", tmp_path)
    assert report["result"]["failed"] == 1
    assert not report["result"]["correct"]


def test_tampered_audit_record_fails_the_run(tmp_path, monkeypatch):
    original = recordlog.RecordLog.append

    def tampering(self, record):
        if self.header == AUDIT_HEADER and record["seq"] == 5:
            record = {**record, "detail": "tampered"}
        return original(self, record)

    monkeypatch.setattr(recordlog.RecordLog, "append", tampering)
    report = run("sign", tmp_path)
    assert report["checks"]["audit_chain_ok_and_complete"] is False
    assert not report["result"]["correct"]


def test_secret_scan_matches_the_library_scan():
    rng = random.Random(3)
    secrets = [rng.randbytes(16 if k % 3 else 32) for k in range(60)]
    encodings = (
        lambda s: s, lambda s: s.hex().encode(), lambda s: s.hex().upper().encode(),
        lambda s: s[:-1], lambda s: s.hex().encode()[1:],  # near misses
    )
    for trial in range(200):
        parts = [rng.randbytes(rng.randrange(40)) for _ in range(8)]
        if trial % 2:
            parts = [p.hex().encode() for p in parts]
        for k in range(rng.randrange(4)):
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(encodings)(rng.choice(secrets)))
        blob = b"".join(parts)
        assert harness.find_secrets(blob, secrets) == scan_for_secrets(blob, secrets)
    assert harness.find_secrets(b"", secrets) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
