"""Self-test of the benchmark harness at tiny input sizes.

    python3 benchmarks/run.py --selftest

For every workload, untraced and traced, it checks that the result line
carries every metric BENCHMARK.json names, each with its unit and a
finite value, and that the results file carries fail_ratio. A run with
one deliberately corrupted output must count it in fail_ratio, a run of
20 operations must report seq_tail_s, and a copy of the benchmark without
the package source next to it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

def _run(script: Path, root: Path, workload: str, *extra: str) -> tuple[dict, dict]:
    """One tiny run; its result line and its results file."""
    trace = extra[extra.index("--trace") + 1] if "--trace" in extra else "0"
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.01", "--min-ops", "1", "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = root / ".bench_out" / "results" / f"{workload}-seed3-trace{trace}-tiny.json"
    return line, json.loads(path.read_text())


def _metrics_present(line: dict, spec: list[dict]) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    for m in spec:
        got = line["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
        elif got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{m['name']}: {got}")
    extra = set(line["metrics"]) - {m["name"] for m in spec}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main(script: Path, root: Path, names: tuple[str, ...]) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    checks: list[tuple[str, list[str]]] = []
    for name in names:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            line, result = _run(script, root, name, "--trace", trace)
            problems = _metrics_present(line, spec[kind])
            if not line["correct"] or line["failed"]:
                problems.append(f"failed {line['failed']}/{line['attempted']}: "
                                f"{result['failures']}")
            if result["fail_ratio"].get("unit") != "ratio" or "seq_tail_s" not in result:
                problems.append("fail_ratio or seq_tail_s missing from the results file")
            checks.append((f"{name} trace {trace}: every {kind} metric, with unit", problems))

        line, result = _run(script, root, name, "--corrupt")
        ratio = result["fail_ratio"]["value"]
        checks.append((f"{name}: corrupted output counted in fail_ratio",
                       [] if line["failed"] >= 1 and not line["correct"] and ratio > 0
                       else [f"failed={line['failed']} correct={line['correct']} "
                             f"fail_ratio={ratio}"]))

    # with the package source absent the benchmark must fail without a result line
    bare = root / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(script.parent, bare / script.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, str(bare / script.parent.name / script.name),
                           "--workload", "edg-small", "--seed", "3", "--tiny"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    checks.append(("without src/: non-zero exit and no result line",
                   [] if proc.returncode != 0 and '"correct"' not in proc.stdout
                   else [f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]))

    _, result = _run(script, root, "edg-small", "--min-ops", "20")
    t = result["seq_tail_s"]
    checks.append(("edg-small, 20 operations: seq_tail_s reported",
                   [] if t and t["unit"] == "s" and t["samples"] >= 20 else [f"{t}"]))

    for label, problems in checks:
        print(f"{'PASS' if not problems else 'FAIL'}  {label}")
        for p in problems:
            print(f"      {p}")
    failed = sum(1 for _, p in checks if p)
    print(f"selftest: {len(checks) - failed} of {len(checks)} checks passed")
    return 1 if failed else 0
