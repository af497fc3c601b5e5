"""Span recording around the package's public functions, and per-layer metrics.

The package is measured from outside: `Tracer.install` replaces module
attributes such as ``echodyn.flow.compute_flow`` with wrappers that record
a span (name, start, end, parent span, operation id) and call the
original. Every call between stages in the package is a module-global
lookup, so calls from inside the package (``flow_sequence`` calling
``compute_flow``, ``evaluate`` calling ``hd95``) are recorded too.
`Tracer.uninstall` puts the originals back. Spans stay in memory until
the run writes its trace file.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced operation; the layer is the module
TRACED = {
    "seqio": ("load_sequence", "load_masks"),
    "flow": ("flow_sequence", "compute_flow"),
    "descriptor": ("descriptor_sequence", "extract_descriptor"),
    "dynamics": ("kmeans", "fit_rbf_weights", "train_dynamics", "energy_sequence",
                 "edg_sequence", "rbf_response", "pedg_sequence", "save_edg_outputs"),
    "cpda": ("cpda_forward", "conv3d_same", "mha_forward",
             "load_feature_clip", "save_feature_clip"),
    "metrics": ("evaluate", "hd95", "dice"),
}

# metrics derived from sizes and parameters rather than timed or counted calls
COMPUTED = ("seqio.read_MB_per_s", "flow.sweeps", "flow.Mpx_sweeps_per_s",
            "cpda.conv_GMAC", "cpda.conv_GMAC_per_s")

PER_LAYER_UNITS = {
    "seqio.load_sequence_s": "s",
    "seqio.load_masks_s": "s",
    "seqio.read_MB_per_s": "MB/s",
    "flow.flow_sequence_s": "s",
    "flow.pairs": "count",
    "flow.pair_ms": "ms",
    "flow.sweeps": "count",
    "flow.Mpx_sweeps_per_s": "Mpx.sweep/s",
    "flow.share": "ratio",
    "descriptor.descriptor_sequence_s": "s",
    "descriptor.extract_descriptor_calls": "count",
    "descriptor.frame_ms": "ms",
    "dynamics.kmeans_s": "s",
    "dynamics.fit_rbf_weights_s": "s",
    "dynamics.train_dynamics_s": "s",
    "dynamics.energy_sequence_s": "s",
    "dynamics.edg_sequence_s": "s",
    "dynamics.rbf_response_calls": "count",
    "dynamics.pedg_sequence_s": "s",
    "dynamics.save_edg_outputs_s": "s",
    "cpda.cpda_forward_s": "s",
    "cpda.conv3d_same_s": "s",
    "cpda.mha_forward_s": "s",
    "cpda.clip_io_s": "s",
    "cpda.conv_GMAC": "GMAC",
    "cpda.conv_GMAC_per_s": "GMAC/s",
    "metrics.evaluate_s": "s",
    "metrics.hd95_s": "s",
    "metrics.hd95_calls": "count",
    "metrics.dice_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for layer, names in TRACED.items():
            module = modules[layer]
            for name in names:
                original = getattr(module, name)
                setattr(module, name, self._wrapper(f"{layer}.{name}", original))
                self._saved.append((module, name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrapper(self, span_name, fn):
        def traced(*args, **kwargs):
            return self.call(span_name, fn, *args, **kwargs)
        return traced

    def call(self, span_name, fn, *args, **kwargs):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": span_name, "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()


def _op_layer_times(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Per span name: time net of child spans of other layers, inclusive time, calls."""
    other_layer_child = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"].split(".")[0] != s["name"].split(".")[0]:
            other_layer_child[parent["id"]] += s["end"] - s["start"]
    net, inclusive, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        inclusive[s["name"]] += s["end"] - s["start"]
        net[s["name"]] += s["end"] - s["start"] - other_layer_child[s["id"]]
        calls[s["name"]] += 1
    return net, inclusive, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def op_metrics(spans: list[dict], facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    A time ``<layer>.<function>_s`` covers the function and the same-layer
    functions it calls, net of spans of other layers. `facts` gives the
    operation's sizes: seqio_bytes, frame_px, flow_iterations, conv_mac.
    """
    t, inclusive, n = _op_layer_times(spans)
    main_s = inclusive["cli.main"]
    flow_s = t["flow.flow_sequence"]
    pair_s = t["flow.compute_flow"]
    pairs = n["flow.compute_flow"]
    seqio_s = t["seqio.load_sequence"] + t["seqio.load_masks"]
    conv_gmac = facts["conv_mac"] / 1e9 if n["cpda.conv3d_same"] else 0.0
    return {
        "seqio.load_sequence_s": t["seqio.load_sequence"],
        "seqio.load_masks_s": t["seqio.load_masks"],
        "seqio.read_MB_per_s": _ratio(facts["seqio_bytes"] / 1e6, seqio_s),
        "flow.flow_sequence_s": flow_s,
        "flow.pairs": pairs,
        "flow.pair_ms": 1e3 * _ratio(pair_s, pairs),
        "flow.sweeps": pairs * facts["flow_iterations"],
        "flow.Mpx_sweeps_per_s": _ratio(
            pairs * facts["frame_px"] * facts["flow_iterations"] / 1e6, pair_s),
        "flow.share": _ratio(flow_s, main_s),
        "descriptor.descriptor_sequence_s": t["descriptor.descriptor_sequence"],
        "descriptor.extract_descriptor_calls": n["descriptor.extract_descriptor"],
        "descriptor.frame_ms": 1e3 * _ratio(t["descriptor.extract_descriptor"],
                                            n["descriptor.extract_descriptor"]),
        "dynamics.kmeans_s": t["dynamics.kmeans"],
        "dynamics.fit_rbf_weights_s": t["dynamics.fit_rbf_weights"],
        "dynamics.train_dynamics_s": t["dynamics.train_dynamics"],
        "dynamics.energy_sequence_s": t["dynamics.energy_sequence"],
        "dynamics.edg_sequence_s": t["dynamics.edg_sequence"],
        "dynamics.rbf_response_calls": n["dynamics.rbf_response"],
        "dynamics.pedg_sequence_s": t["dynamics.pedg_sequence"],
        "dynamics.save_edg_outputs_s": t["dynamics.save_edg_outputs"],
        "cpda.cpda_forward_s": t["cpda.cpda_forward"],
        "cpda.conv3d_same_s": t["cpda.conv3d_same"],
        "cpda.mha_forward_s": t["cpda.mha_forward"],
        "cpda.clip_io_s": t["cpda.load_feature_clip"] + t["cpda.save_feature_clip"],
        "cpda.conv_GMAC": conv_gmac,
        "cpda.conv_GMAC_per_s": _ratio(conv_gmac, t["cpda.conv3d_same"]),
        "metrics.evaluate_s": t["metrics.evaluate"],
        "metrics.hd95_s": t["metrics.hd95"],
        "metrics.hd95_calls": n["metrics.hd95"],
        "metrics.dice_s": t["metrics.dice"],
        "cli.main_s": main_s,
        "cli.self_s": t["cli.main"],
    }


def per_layer(tracer: Tracer, facts: dict[int, dict], traced_s: list[float],
              untraced_s: list[float]) -> dict[str, float]:
    """Median over traced operations of each per-layer metric, plus tracing overhead."""
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s["op"]].append(s)
    rows = [op_metrics(spans, facts[op]) for op, spans in sorted(by_op.items())]
    result = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    result["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return result
