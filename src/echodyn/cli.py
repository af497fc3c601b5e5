"""Command-line front end: parses flags and calls the library.

One executable with subcommands::

    echodyn phantom      synthesize a beating-heart sequence + masks
    echodyn flow         dump dense optical flow for a sequence
    echodyn edg          full dynamic pipeline (`pipeline.run_edg`): flow ->
                         descriptors -> RBF training -> EDG heatmaps/CSV +
                         P_EDG + model
    echodyn cpda-demo    run the attention forward pass on a feature clip
    echodyn eval         score predicted masks against ground truth
    echodyn seed-weights write a reproducible random CPDA weight file

Settings resolve as defaults < ``--config`` file < explicit flags; per-stage
seeds derive from ``--seed`` (see `pipeline.stage_seed`). ``eval`` reads no
config, ``flow``, which draws no random numbers, takes no ``--seed``, and
``cpda-demo --weights`` takes neither ``--seed`` nor ``--config``.
Exit codes: 0 success, 1 runtime failure (a pipeline error, an OS error or
running out of memory, each reported on one line), 2 usage error. A
subcommand's output files land as one unit (`seqio.output_set`): a failure
leaves every one as it was.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import cpda, dynamics, flow, metrics, pipeline, seqio
from .errors import EchodynError
# benchmarks/workloads.py reads PipelineConfig, stage_seed and STAGE_CPDA_WEIGHTS from here
from .pipeline import STAGE_CPDA_WEIGHTS, STAGE_PHANTOM, PipelineConfig, stage_seed

# argparse dests of flags that override a config value carry this prefix + the dotted path
_CONFIG_DEST = "config:"


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    for dest, value in vars(args).items():
        if dest.startswith(_CONFIG_DEST) and value is not None:
            cfg = pipeline.override(cfg, dest[len(_CONFIG_DEST):], value)
    return cfg


def _config_flag(parser: argparse.ArgumentParser, flag: str, path: str, type,
                 help: str) -> None:
    """Add `flag`, which overrides the config value at dotted `path` when given;
    its help names the `PipelineConfig()` default at that path."""
    default = functools.reduce(getattr, path.split("."), PipelineConfig())
    parser.add_argument(flag, dest=_CONFIG_DEST + path, type=type, default=None,
                        help=f"{help} (default {default})",
                        metavar=flag.lstrip("-").upper().replace("-", "_"))


def _add_config(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--config", help="JSON config overriding built-in defaults")
    if seed:
        _config_flag(parser, "--seed", "seed", int, "master 64-bit seed")


def cmd_phantom(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    spec = seqio.PhantomSpec(
        t_count=args.t, height=args.size, width=args.size, cycles=args.cycles,
        base_radius=args.base_radius, contraction_fraction=args.contraction,
        speckle_sigma=args.speckle, seed=stage_seed(cfg.seed, STAGE_PHANTOM),
    )
    seq, masks = seqio.generate_phantom(spec)
    out = Path(args.out)
    seqio.save_sequence(seq, out / "frames")
    seqio.save_masks(masks, out / "masks")
    print(f"ed={seq.ed_index} es={seq.es_index}")
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    seq = seqio.load_sequence(args.in_dir)
    fields = flow.flow_sequence(seq, cfg.flow)
    seqio.write_series(args.out, "flow", ".bin", lambda file, f: flow.save_flow(f, file), fields)
    print(f"wrote {len(fields)} flow fields to {Path(args.out)}")
    return 0


def cmd_edg(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    seq = seqio.load_sequence(args.in_dir)
    result = pipeline.run_edg(seq, cfg)
    if all(np.abs(f.u).max() == 0 and np.abs(f.v).max() == 0 for f in result.flows):
        print("warning: no motion detected", file=sys.stderr)
    pipeline.save_edg_result(result, args.out)
    print(f"final training mse={result.model.residual_history[-1]:.6e}")
    return 0


def _seeded_weights(cfg: PipelineConfig, channels: int) -> cpda.CpdaWeights:
    """The reproducible CPDA weights that `cfg` and its seed give for `channels`."""
    return cpda.seed_cpda_weights(
        channels=channels, d_p=cfg.cpda.d_p, d_e=cfg.cpda.d_e, k2=cfg.k2,
        heads=cfg.cpda.heads, alpha=cfg.cpda.alpha,
        seed=stage_seed(cfg.seed, STAGE_CPDA_WEIGHTS),
    )


def cmd_cpda_demo(args: argparse.Namespace) -> int:
    if args.weights and (args.config or vars(args)[_CONFIG_DEST + "seed"] is not None):
        args.usage_error("--seed and --config are read only with --seed-weights, not --weights")
    cfg = _load_config(args)
    clip = cpda.load_feature_clip(args.clip)
    t = clip.t_count
    if args.seed_weights:
        weights = _seeded_weights(cfg, clip.channels)
    else:
        weights = seqio.read_json(args.weights, cpda.CpdaWeights)
    phase = cpda.phase_track(t, args.ed, args.es)
    if args.pedg:
        pedg = dynamics.align_pedg(dynamics.load_pedg_csv(args.pedg), t)
    else:
        pedg = np.zeros((t, weights.k2))
    enhanced = cpda.cpda_forward(clip, phase, pedg, weights)
    cpda.save_feature_clip(enhanced, args.out)
    for i, (after, before) in enumerate(zip(enhanced.data, clip.data)):
        print(f"frame {i}: mean_abs_delta={np.abs(after - before).mean():.6f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if Path(args.report).suffix == ".csv":
        args.usage_error("--report names the JSON report; the CSV report goes beside it")
    pred = seqio.load_masks(args.pred_dir)
    gt = seqio.load_masks(args.gt_dir)
    report = metrics.evaluate(pred, gt)
    seqio.write_json(args.report, report)
    metrics.save_report_csv(report, Path(args.report).with_suffix(".csv"))
    dice_mean = float(np.mean([m.mean_dice for m in report.per_label.values()]))
    hd95_vals = [m.mean_hd95 for m in report.per_label.values() if m.mean_hd95 is not None]
    hd95_mean = float(np.mean(hd95_vals)) if hd95_vals else float("nan")
    print(f"dice={dice_mean:.4f} hd95={hd95_mean:.2f} tcd={report.average_tcd:.4f}")
    return 0


def cmd_seed_weights(args: argparse.Namespace) -> int:
    weights = _seeded_weights(_load_config(args), args.channels)
    seqio.write_json(args.out, weights)
    print(f"wrote weights (d={weights.d_model}, heads={weights.heads}) to {args.out}")
    return 0


def _add_flow_flags(parser: argparse.ArgumentParser) -> None:
    _config_flag(parser, "--alpha", "flow.alpha", float, "regularization weight")
    _config_flag(parser, "--iterations", "flow.iterations", int,
                 "two-level preconditioned CG iterations")
    _config_flag(parser, "--presmooth", "flow.presmooth_sigma", float,
                 "Gaussian presmoothing sigma in px")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echodyn",
        description="Echo-dynamics pipeline: phantom, flow, EDG, CPDA, metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = seqio.PhantomSpec()
    p = sub.add_parser("phantom", help="generate a synthetic beating-heart sequence")
    _add_config(p)
    p.add_argument("--t", type=int, default=spec.t_count,
                   help="frames per cycle (default %(default)s)")
    p.add_argument("--size", type=int, default=spec.height,
                   help="image side in px (default %(default)s)")
    p.add_argument("--cycles", type=int, default=spec.cycles)
    p.add_argument("--base-radius", type=float, default=spec.base_radius)
    p.add_argument("--contraction", type=float, default=spec.contraction_fraction,
                   help="fractional radius loss at end-systole (default %(default)s)")
    p.add_argument("--speckle", type=float, default=spec.speckle_sigma,
                   help="speckle noise stddev (default %(default)s)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("flow", help="compute and dump dense optical flow")
    _add_config(p, seed=False)
    p.add_argument("in_dir")
    _add_flow_flags(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("edg", help="run the full dynamic-learning pipeline")
    _add_config(p)
    p.add_argument("in_dir")
    _add_flow_flags(p)
    _config_flag(p, "--r-bins", "grid.r_bins", int, "rings R")
    _config_flag(p, "--theta-bins", "grid.theta_bins", int, "angular bins TH")
    _config_flag(p, "--pca-k", "pca_k", int, "descriptor PCA dimension")
    _config_flag(p, "--m-centers", "rbf.m_centers", int, "RBF center count M")
    _config_flag(p, "--epochs", "rbf.epochs", int, "training epochs")
    _config_flag(p, "--k2", "k2", int, "P_EDG dimension")
    _config_flag(p, "--fit", "rbf.fit", str,
                 "weight fit: lms (incremental LMS) or ls (closed-form ridge)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_edg)

    p = sub.add_parser("cpda-demo", help="forward the attention module on a clip")
    _add_config(p)
    p.add_argument("clip", help=".ftc feature clip")
    weights = p.add_mutually_exclusive_group(required=True)
    weights.add_argument("--weights", help="CPDA weight JSON")
    weights.add_argument("--seed-weights", action="store_true",
                         help="derive reproducible random weights from --seed")
    p.add_argument("--ed", type=int, required=True, help="end-diastole frame index")
    p.add_argument("--es", type=int, required=True, help="end-systole frame index")
    p.add_argument("--pedg", default=None,
                   help="pedg.csv from `edg` (default: zero dynamic features)")
    p.add_argument("-o", "--out", required=True, help="enhanced .ftc output")
    p.set_defaults(func=cmd_cpda_demo, usage_error=p.error)

    p = sub.add_parser("eval", help="score predicted masks against ground truth")
    p.add_argument("pred_dir")
    p.add_argument("gt_dir")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_eval, usage_error=p.error)

    p = sub.add_parser("seed-weights", help="write a reproducible CPDA weight file")
    _add_config(p)
    p.add_argument("--channels", type=int, required=True)
    _config_flag(p, "--d-p", "cpda.d_p", int, "phase MLP width")
    _config_flag(p, "--d-e", "cpda.d_e", int, "dynamics MLP width")
    _config_flag(p, "--k2", "k2", int, "P_EDG dimension")
    _config_flag(p, "--heads", "cpda.heads", int, "attention heads")
    _config_flag(p, "--alpha", "cpda.alpha", float, "modulation strength in (0,1]")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_seed_weights)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with seqio.output_set():
            return args.func(args)
    except (EchodynError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a private subclass; name the public one
        print(f"error [MemoryError]: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
