"""The committed benchmark records (`BENCH_*.json`) agree with the declared
benchmark (`BENCHMARK.json`) and hold only correct runs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _runs(node):
    """Every object in `node` that records a run's `correct` or `failed`."""
    if isinstance(node, dict):
        if "correct" in node or "failed" in node:
            yield node
        for value in node.values():
            yield from _runs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _runs(value)


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_claims_a_declared_metric_and_holds_only_correct_runs(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["metric"] in {metric["name"] for metric in declared["end_to_end"]}
    assert claim["workload"] in {workload["name"] for workload in declared["workloads"]}
    runs = list(_runs(record))
    assert runs
    for run in runs:
        assert run.get("correct", True) is True and run.get("failed", 0) == 0, run
