"""Run one workload: set up, time a closed loop of operations, check, report.

One client, no threads, one fresh input per operation. Setup covers the
package import, input generation and one untimed warm-up operation; the
timed loop then runs operations back to back until their measured time
reaches ``--seconds``. Output checks run between operations, outside the
timed region; the determinism re-run and the quality guards run after
the loop. With ``--trace 1`` every other loop operation runs with span
wrappers installed and the run reports per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import echodyn
from echodyn import cli, cpda, descriptor, dynamics, flow, metrics, seqio

import tracing
import workloads

# inputs generated during setup; their median generation time enters setup_s
SETUP_INPUTS = 3
# the loop stops early once the process has run this long, whatever --seconds says
WALL_LIMIT_S = 110.0
# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "seq_p50_s": "s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
    "flow_err_rel": "ratio",
    "edg_contrast": "ratio",
}

MODULES = {"seqio": seqio, "flow": flow, "descriptor": descriptor,
           "dynamics": dynamics, "cpda": cpda, "metrics": metrics}


def execute(argvs: list[list[str]], main) -> tuple[int, str]:
    """Run CLI commands in-process, stopping at the first non-zero exit.

    Console output is captured, so printing stays inside the timed region
    without reaching the benchmark's own output.
    """
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        for argv in argvs:
            try:
                rc = main(argv)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                rc = 1
            if rc != 0:
                return rc, console.getvalue()[-2000:]
    return 0, ""


def tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least TAIL_BEYOND samples above it (nearest rank)."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(pct / 100 * n)
    return {"value": sorted(samples)[rank - 1], "unit": "s", "percentile": pct, "samples": n}


def machine_facts(root: Path, seed: int) -> dict:
    """Read-only facts about the machine and the code under test."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    blas["threads_env"] = {k: os.environ.get(k, "unset") for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    revision = "not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
        revision = proc.stdout.strip() or revision
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted((root / "src" / "echodyn").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "echodyn": echodyn.__version__,
        "git_revision": revision,
        "source_digest": digest.hexdigest(),
        "seed": seed,
    }


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, wl, seed: int, out_root: Path):
        self.wl = wl
        self.seed = seed
        self.work = out_root / "work" / f"{wl.name}-{os.getpid()}"
        self.cache = out_root / "flowref"
        self.attempts: list[tuple[str, list[str]]] = []

    def new_op(self, idx: int) -> workloads.Op:
        t0 = time.perf_counter()
        op = self.wl.make_input(self.work, idx,
                                workloads.op_seed(self.seed, self.wl.name, idx))
        op.gen_s = time.perf_counter() - t0
        return op

    def timed(self, op, tracer=None, corrupt=False) -> float:
        """Run one operation; return its wall time. Checks run after the clock stops.

        With a tracer, span wrappers are in place for the operation only.
        """
        main = cli.main
        if tracer:
            tracer.op = op.idx
            tracer.install(MODULES)
            main = lambda argv: tracer.call("cli.main", cli.main, argv)  # noqa: E731
        try:
            t0 = time.perf_counter()
            rc, console = execute(self.wl.commands(op), main)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        if rc != 0:
            self.attempts.append((f"op {op.idx}", [f"exit code {rc}: {console.strip()}"]))
        else:
            if corrupt:
                self.wl.corrupt(op)
            self.attempt(f"op {op.idx}", self.wl.check, op)
        return elapsed

    def attempt(self, label: str, check, *args):
        """Run a check and record it as one attempt; an exception is its error.

        A check returns its list of errors; any other result (the quality
        guards' values) counts as none. Returns the result, or None when
        the check raised.
        """
        try:
            result = check(*args)
        except Exception:  # malformed output must count as a failure, not stop the run
            self.attempts.append((label, [traceback.format_exc(limit=4)]))
            return None
        self.attempts.append((label, result if isinstance(result, list) else []))
        return result

    def run_cli(self, argvs) -> int:
        return execute(argvs, cli.main)[0]


def run(wl, seed: int, seconds: float, trace: bool, min_ops: int, corrupt: bool,
        root: Path, import_s: float, started: float) -> dict:
    r = Run(wl, seed, root / ".bench_out")
    shutil.rmtree(r.work, ignore_errors=True)
    try:
        return _run(r, seconds, trace, min_ops, corrupt, root, import_s, started)
    finally:
        shutil.rmtree(r.work, ignore_errors=True)


def _run(r: Run, seconds, trace, min_ops, corrupt, root, import_s, started) -> dict:
    wl = r.wl
    # setup: the first inputs, then one warm-up operation on input 0
    ops = [r.new_op(i) for i in range(SETUP_INPUTS)]
    first = ops[0]
    warmup_s = r.timed(first)
    setup_s = import_s + statistics.median(op.gen_s for op in ops) + warmup_s

    tracer = tracing.Tracer() if trace else None
    untraced, traced, facts = [], [], {}
    done = [first]  # inputs of the first wl.flow_sequences stay on disk for the flow check
    frames = measured = 0.0
    k = 0
    while (k < min_ops or measured < seconds) and time.perf_counter() - started < WALL_LIMIT_S:
        k += 1
        op = ops[k] if k < len(ops) else r.new_op(k)
        if tracer and k % 2 == 0:
            dt = r.timed(op, tracer)
            traced.append(dt)
            facts[k] = {"seqio_bytes": op.seqio_bytes, "frame_px": wl.frame_px,
                        "flow_iterations": flow.FlowParams().iterations,
                        "conv_mac": wl.conv_mac}
        else:
            dt = r.timed(op, corrupt=corrupt and k == 1)
            untraced.append(dt)
        measured += dt
        frames += op.frames
        done.append(op)
        shutil.rmtree(op.out if len(done) <= wl.flow_sequences else op.root,
                      ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the quality guards read a fixed number of leading inputs and operations,
    # however many the timed loop got through, so they repeat exactly per seed
    for i in range(len(done), max(wl.flow_sequences, wl.contrast_ops)):
        op = ops[i] if i < len(ops) else r.new_op(i)
        if i < wl.contrast_ops:
            r.timed(op)
        done.append(op)

    # after the loop, untimed: determinism and the quality guards
    if isinstance(wl, workloads.EdgWorkload):
        r.attempt("determinism re-run", wl.determinism, first, r.run_cli)
    quality = r.attempt("quality guards", wl.quality, done, r.cache, r.run_cli) or {}

    attempted = len(r.attempts)
    failures = [(label, e) for label, e in r.attempts if e]
    e2e = {
        "setup_s": setup_s,
        "seq_p50_s": statistics.median(untraced),
        "frames_per_s": frames / measured,
        "peak_rss_mb": peak_rss_mb,
        "flow_err_rel": quality.get("flow_err_rel", 0.0),
        "edg_contrast": quality.get("edg_contrast", 0.0),
    }
    result = {
        "workload": wl.name,
        "seed": r.seed,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [{"attempt": label, "errors": e} for label, e in failures],
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "fail_ratio": {"value": len(failures) / attempted, "unit": "ratio",
                       "failed": len(failures), "attempted": attempted},
        "seq_tail_s": tail(untraced),
        "setup_parts_s": {"import": import_s, "warm_up": warmup_s,
                          "input_generation": [op.gen_s for op in ops[:SETUP_INPUTS]]},
        "op_times_s": {"untraced": untraced, "traced": traced},
        "quality": {k: v for k, v in quality.items() if k not in ("flow_err_rel", "edg_contrast")},
        "machine": machine_facts(root, r.seed),
    }
    result["correct"] = not failures and all(
        math.isfinite(v) and v > 0 for v in e2e.values())
    if trace:
        result["per_layer"] = {
            k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k],
                **({"computed": True} if k in tracing.COMPUTED else {})}
            for k, v in tracing.per_layer(tracer, facts, traced, untraced).items()}
        result["spans"] = tracer.spans
    return result


def emit(result: dict, root: Path, tiny: bool) -> dict:
    """Write the results (and trace) file, print the report; return the result line."""
    out = root / ".bench_out"
    tag = (f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
           + ("-tiny" if tiny else ""))
    spans = result.pop("spans", None)
    paths = {"results": out / "results" / f"{tag}.json"}
    if spans is not None:
        paths["trace"] = out / "traces" / f"{tag}.json"
        _write_json(paths["trace"], {"workload": result["workload"], "seed": result["seed"],
                                     "per_layer": result["per_layer"],
                                     "computed": list(tracing.COMPUTED), "spans": spans})
    _write_json(paths["results"], result)

    shown = result["per_layer"] if result["trace"] else result["end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}")
    for name, m in shown.items():
        note = "  (computed)" if m.get("computed") else ""
        print(f"  {name:38s} {m['value']:12.6g} {m['unit']}{note}")
    fr = result["fail_ratio"]
    print(f"  {'fail_ratio':38s} {fr['value']:12.6g} ratio  ({fr['failed']} failed "
          f"of {fr['attempted']} attempted)")
    t = result["seq_tail_s"]
    if t:
        print(f"  {'seq_tail_s':38s} {t['value']:12.6g} s  (p{t['percentile']} "
              f"of {t['samples']} operations)")
    else:
        n = len(result["op_times_s"]["untraced"])
        print(f"  {'seq_tail_s':38s} {'n/a':>12s}    ({n} operations; needs {2 * TAIL_BEYOND})")
    for f in result["failures"]:
        print(f"  FAILED {f['attempt']}: {'; '.join(f['errors'])[:300]}")
    m = result["machine"]
    print(f"  machine: nproc={m['nproc']} caches={m['caches']} blas={m['blas'].get('name')} "
          f"{m['blas'].get('version')} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} rev={m['git_revision'][:12]}")
    for kind, path in paths.items():
        print(f"  {kind}: {path.relative_to(root)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in shown.items()}}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=1) + "\n")
    os.replace(tmp, path)
