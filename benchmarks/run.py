"""echodyn benchmark entry point.

    python3 benchmarks/run.py --workload edg-small --seed 1 --seconds 18 --trace 0
    python3 benchmarks/run.py --workload all --seed 1      # each workload in its own process
    python3 benchmarks/run.py --selftest                   # tiny sizes, checks the harness

Run from the repository root. The package is imported from ``src/`` next
to this directory, never from an installed copy. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("edg-small", "edg-large", "downstream")


def parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0,
                   help="measured operation time per run (default 18)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: trace every other operation and report per-layer metrics")
    p.add_argument("--min-ops", type=int, default=3,
                   help="timed operations at least, even past --seconds (default 3)")
    p.add_argument("--tiny", action="store_true", help="self-test input sizes")
    p.add_argument("--corrupt", action="store_true",
                   help="damage one output to prove the checks count it")
    p.add_argument("--selftest", action="store_true",
                   help="run every workload at tiny size and check the harness itself")
    return p.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "echodyn" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'echodyn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import echodyn.cli  # noqa: F401  (the import users pay for: numpy, scipy, every module)
    import_s = time.perf_counter() - t0
    if src.resolve() not in Path(echodyn.cli.__file__).resolve().parents:
        print(f"error: echodyn imported from {echodyn.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    wl = workloads.build(args.workload, args.tiny)
    min_ops = max(args.min_ops, 4) if args.trace else args.min_ops
    result = harness.run(wl, args.seed, args.seconds, bool(args.trace), min_ops,
                         args.corrupt, ROOT, import_s, STARTED)
    line = harness.emit(result, ROOT, args.tiny)
    print(json.dumps(line))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; a summary table and one combined line."""
    lines = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--min-ops", str(args.min_ops)]
        cmd += ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    for name, line in lines.items():
        cells = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in line["metrics"].items())
        print(f"  {name:11s} failed {line['failed']}/{line['attempted']}  {cells}")
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}:{k}": m for name, line in lines.items()
                    for k, m in line["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.selftest:
        import selftest
        return selftest.main(Path(__file__).resolve(), ROOT, NAMES)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
