#!/usr/bin/env python3
"""agent-esim benchmark: the production assembly driven over loopback HTTP.

Run from the repository root:

    python3 perfbench/run.py --workload sign|aka|churn --seed N --seconds S --trace 0|1

It boots `build_stack` with fsync on (as `agent-esim serve` runs it) and a
`GatewayHTTPServer` in this process, drives one seeded closed-loop workload
through `GatewayClient`/`AdminClient`, checks every outcome, the audit chain
and the absence of key material in everything it wrote, and prints each
metric by name with its unit. The last stdout line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1` (which adds
a traced pass after the untraced one and reports their throughput ratio).

A workload runs a fixed number of ops, its nominal rate times `--seconds`,
so the restart, audit-verify and disk figures always describe the same
history. Results, spans and working state go to `.perfbench_out/` under the
repository root; the exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sign", "aka", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's sources first on the path, or stop."""
    package = SRC / "agent_esim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import agent_esim

    if Path(agent_esim.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported agent_esim from {agent_esim.__file__}, not {package}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    import_program()
    import harness
    from agent_esim.wire import scan_for_secrets

    OUT.mkdir(exist_ok=True)
    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    secrets = report.pop("secrets")
    result = report["result"]

    absent = report["absent"]
    lines = [
        f"{name} {m['value']!r} {m['unit']}" + (f" (absent: {absent[name]})" if name in absent else "")
        for name, m in result["metrics"].items()
    ]
    lines.append("meta " + json.dumps(report["meta"], sort_keys=True))
    lines.append("checks " + json.dumps(report["checks"], sort_keys=True))
    document = json.dumps(report, indent=1, sort_keys=True)
    if scan_for_secrets(("\n".join(lines) + document).encode("utf-8"), secrets):
        result["correct"] = False
        lines.append("checks key material found in the report")
        document = json.dumps(report, indent=1, sort_keys=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(document + "\n", encoding="utf-8")

    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
