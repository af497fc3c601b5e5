"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from echodyn.cli import main
from echodyn.cpda import (
    FeatureClip,
    cpda_forward,
    identity_conv_kernel,
    phase_track,
    seed_cpda_weights,
)
from echodyn.cpda import _softmax_rows
from echodyn.descriptor import fit_pca, project, back_project
from echodyn.dynamics import RbfConfig, rbf_response, train_dynamics
from echodyn.flow import FlowParams, compute_flow
from echodyn.metrics import boundary_pixels, dice, hd95, tcd
from echodyn.pipeline import PipelineConfig, run_edg
from echodyn.seqio import MaskSequence, PhantomSpec, generate_phantom

from test_cpda import oracle_cpda_forward, tiny_instance
from test_metrics import brute_force_hd95, random_blob_mask


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def test_criterion_1_flow_recovery():
    h = w = 128
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    blob = lambda cx: 0.2 + 0.5 * np.exp(-(((xs - cx) ** 2 + (ys - 64) ** 2) / (2 * 8.0 ** 2)))
    a, b = blob(60), blob(61)
    t0 = time.perf_counter()
    f = compute_flow(a, b, FlowParams())
    elapsed = time.perf_counter() - t0
    support = a > 0.25
    mean_u = f.u[support].mean()
    zero = compute_flow(a, a, FlowParams())
    ok = (0.6 <= mean_u <= 1.4
          and np.abs(zero.u).max() == 0.0 and np.abs(zero.v).max() == 0.0
          and elapsed < 2.0)
    _report("1 flow-recovery (±40% at 1 px, exact zero, <2 s)", ok)


def test_criterion_2_pca_correctness():
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(20, 12))
    model = fit_pca(x, 11)
    gram = model.components @ model.components.T
    ortho = np.abs(gram - np.eye(11)).max() < 1e-6
    xc = x - x.mean(axis=0)
    spectrum = np.linalg.eigvalsh(xc.T @ xc / 20)[::-1]
    spec_ok = np.abs(model.explained_variance - spectrum[:11]).max() < 1e-6
    full = fit_pca(x[:13], 12)  # k = D = rank for 13 samples
    recon_ok = all(
        np.abs(back_project(full, project(full, row)) - row).max() < 1e-6
        for row in x[:13]
    )
    _report("2 pca-correctness (orthonormal, reconstruct, spectrum ≤1e-6)",
            ortho and spec_ok and recon_ok)


def test_criterion_3_dynamics_oracle_bound():
    rng = np.random.default_rng(42)
    n, m = 200, 8
    t = np.arange(n)
    z = np.stack([np.cos(2 * np.pi * t / 40), np.sin(2 * np.pi * t / 40)], axis=1)
    z = z + rng.normal(0, 0.05, (n, 2))
    t0 = time.perf_counter()
    model = train_dynamics(z, RbfConfig(m_centers=m), seed=3)
    elapsed = time.perf_counter() - t0
    targets = z[1:] - z[:-1]
    phi = rbf_response(z[:-1], model.centers, model.sigma)
    w_star = np.linalg.solve(phi.T @ phi + model.config.ridge * np.eye(m),
                             phi.T @ targets)
    ridge_mse = float(np.mean(np.sum((targets - phi @ w_star) ** 2, axis=1)))
    lms_mse = float(model.train_residual_history[-1])
    ok = lms_mse <= 1.1 * ridge_mse and elapsed < 5.0
    print(f"  lms_mse={lms_mse:.6e} ridge_mse={ridge_mse:.6e} "
          f"ratio={lms_mse / ridge_mse:.3f} time={elapsed:.2f}s")
    _report("3 dynamics-oracle (LMS ≤ 1.1×ridge, <5 s)", ok)


def test_criterion_4_edg_physiology():
    t0 = time.perf_counter()
    spec = PhantomSpec(t_count=32, height=128, width=128,
                       contraction_fraction=0.3, seed=7)
    seq, _ = generate_phantom(spec)
    maps = run_edg(seq, PipelineConfig(seed=7)).maps
    elapsed = time.perf_counter() - t0
    totals = maps.sum(axis=(1, 2))
    # wall speed |dr/dt| peaks a quarter cycle after ED (transitions 7/8, 22/23);
    # the quiet set flanks the ED (0, 29) and ES (14..16) extremes
    peak = totals[[7, 8, 22, 23]].mean()
    quiet = totals[[0, 14, 15, 16, 29]].mean()
    print(f"  peak={peak:.4f} quiet={quiet:.4f} ratio={peak / quiet:.2f} "
          f"time={elapsed:.1f}s")
    _report("4 edg-physiology (peak ≥ 2× quiet, <60 s)",
            peak >= 2.0 * quiet and elapsed < 60.0)


def test_criterion_5_cpda_reference():
    # identity path: zero gate + identity kernel reproduces the input
    rng = np.random.default_rng(31)
    clip = FeatureClip(data=rng.normal(size=(3, 5, 5, 2)))
    wts = seed_cpda_weights(channels=2, d_p=2, d_e=2, k2=2, heads=1, seed=8)
    object.__setattr__(wts, "gate_w", np.zeros_like(wts.gate_w))
    object.__setattr__(wts, "gate_b", np.zeros_like(wts.gate_b))
    object.__setattr__(wts, "conv_kernel", identity_conv_kernel(2))
    object.__setattr__(wts, "conv_bias", np.zeros(2))
    phase = phase_track(3, 0, 2)
    pedg = rng.normal(size=(3, 2))
    identity_ok = np.abs(cpda_forward(clip, phase, pedg, wts).data - clip.data).max() <= 1e-6

    rows = _softmax_rows(rng.normal(size=(5, 6, 6)))
    softmax_ok = np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-6

    clip2, phase2, pedg2, wts2 = tiny_instance()
    object.__setattr__(wts2, "conv_kernel", np.zeros_like(wts2.conv_kernel))
    object.__setattr__(wts2, "conv_bias", np.zeros(2))
    x_mod = 2.0 * cpda_forward(clip2, phase2, pedg2, wts2).data
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(clip2.data != 0, x_mod / clip2.data, 1.0)
    bound_ok = (factor >= 1 - wts2.alpha - 1e-9).all() and (factor <= 1 + wts2.alpha + 1e-9).all()

    clip3, phase3, pedg3, wts3 = tiny_instance(seed=77)
    got = cpda_forward(clip3, phase3, pedg3, wts3).data
    expected = oracle_cpda_forward(clip3, phase3, pedg3, wts3)
    oracle_ok = np.abs(got - expected).max() < 1e-5

    eps, idx = 1e-5, (0, 1, 2, 1)

    def fd(forward):
        hi = clip3.data.copy(); hi[idx] += eps
        lo = clip3.data.copy(); lo[idx] -= eps
        return (float(np.sum(forward(FeatureClip(data=hi), phase3, pedg3, wts3)))
                - float(np.sum(forward(FeatureClip(data=lo), phase3, pedg3, wts3)))) / (2 * eps)

    d_impl = fd(lambda c, p, e, w: cpda_forward(c, p, e, w).data)
    d_oracle = fd(oracle_cpda_forward)
    fd_ok = math.isclose(d_impl, d_oracle, rel_tol=1e-3)

    _report("5 cpda-reference (identity ≤1e-6, softmax, bounds, oracle 1e-5, FD 1e-3)",
            identity_ok and softmax_ok and bound_ok and oracle_ok and fd_ok)


def test_criterion_6_metrics_oracles(phantom):
    rng = np.random.default_rng(7)
    hd_ok = True
    for _ in range(50):
        a = random_blob_mask(rng)
        b = random_blob_mask(rng)
        if abs(hd95(a, b) - brute_force_hd95(a, b)) >= 1e-9:
            hd_ok = False
            break

    a = np.zeros((4, 4), dtype=bool); b = np.zeros((4, 4), dtype=bool)
    a[0, 0:4] = True; b[0, 2:4] = b[1, 0:2] = True
    dice_ok = dice(a, b) == 0.5 and dice(a, a) == 1.0
    tcd_ok = (tcd(np.array([1.0, 0.5, 1.0])) == 0.5
              and abs(tcd(np.array([0.9, 0.92, 0.91, 0.95])) - (0.07 / 3)) < 1e-12)

    from scipy.ndimage import binary_dilation, binary_erosion
    from echodyn.metrics import evaluate
    _, masks = phantom
    gt = MaskSequence(masks=masks.masks[:10])
    uniform = gt.masks.copy()
    for t in range(gt.t_count):
        lv = gt.masks[t] == 1
        uniform[t][lv & ~binary_erosion(lv, np.ones((3, 3)))] = 0
    jitter = gt.masks.copy()
    for t in range(0, gt.t_count, 2):
        lv = gt.masks[t] == 1
        jitter[t][binary_dilation(lv, np.ones((3, 3)))] = 1  # grows into the wall
    tcd_uniform = evaluate(MaskSequence(masks=uniform), gt).per_label["LV"].tcd
    tcd_jitter = evaluate(MaskSequence(masks=jitter), gt).per_label["LV"].tcd
    ordering_ok = tcd_jitter > tcd_uniform

    _report("6 metrics-oracles (hd95 brute force ≤1e-9 ×50, hand cases, jitter order)",
            hd_ok and dice_ok and tcd_ok and ordering_ok)


def test_criterion_7_end_to_end_determinism(tmp_path):
    src = tmp_path / "seq"
    assert main(["phantom", "--seed", "7", "-o", str(src)]) == 0
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    args = ["edg", str(src / "frames"), "--seed", "7"]
    assert main(args + ["-o", str(r1)]) == 0
    assert main(args + ["-o", str(r2)]) == 0
    same = all((r1 / n).read_bytes() == (r2 / n).read_bytes()
               for n in ("edg.csv", "pedg.csv", "model.json"))
    _report("7 end-to-end-determinism (byte-identical edg.csv/pedg.csv/model.json)", same)
