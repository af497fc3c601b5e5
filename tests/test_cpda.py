from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from echodyn.cpda import (
    CpdaWeights,
    FeatureClip,
    PhaseTrack,
    conv3d_same,
    cpda_forward,
    identity_conv_kernel,
    load_cpda_weights,
    load_feature_clip,
    mha_forward,
    phase_track,
    pool_spatial,
    save_cpda_weights,
    save_feature_clip,
    seed_cpda_weights,
)
from echodyn.errors import FormatError, ModelError, ParameterError


# ------------------------------------------------------------------ oracle
# A deliberately unoptimized re-implementation of the forward pass, written
# first and kept loop-based so the vectorized module can be checked against it.

def oracle_mlp(x, w1, b1, w2, b2):
    hidden = []
    for j in range(w1.shape[1]):
        s = b1[j]
        for i in range(len(x)):
            s += x[i] * w1[i, j]
        hidden.append(max(s, 0.0))
    out = []
    for j in range(w2.shape[1]):
        s = b2[j]
        for i in range(len(hidden)):
            s += hidden[i] * w2[i, j]
        out.append(s)
    return out


def oracle_mha(tokens, wts):
    t, d = tokens.shape
    h = wts.heads
    dh = d // h
    q = tokens @ wts.wq
    k = tokens @ wts.wk
    v = tokens @ wts.wv
    out = np.zeros((t, d))
    for head in range(h):
        sl = slice(head * dh, (head + 1) * dh)
        for i in range(t):
            scores = [float(q[i, sl] @ k[j, sl]) / math.sqrt(dh) for j in range(t)]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            total = sum(exps)
            weights = [e / total for e in exps]
            for j in range(t):
                out[i, sl] += weights[j] * v[j, sl]
    return out @ wts.wo


def oracle_cpda_forward(clip, phase, pedg, wts):
    x = clip.data
    t, hh, ww, c = x.shape
    pooled = np.zeros((t, c))
    for i in range(t):
        for ch in range(c):
            pooled[i, ch] = x[i, :, :, ch].sum() / (hh * ww)
    fphase = np.array([
        oracle_mlp([math.sin(2 * math.pi * p), math.cos(2 * math.pi * p)],
                   wts.phase_w1, wts.phase_b1, wts.phase_w2, wts.phase_b2)
        for p in phase.phi
    ])
    fedg = np.array([
        oracle_mlp(list(row), wts.edg_w1, wts.edg_b1, wts.edg_w2, wts.edg_b2)
        for row in pedg
    ])
    fused = np.concatenate([pooled, fphase, fedg], axis=1)
    attn = oracle_mha(fused, wts)
    s = 1.0 / (1.0 + np.exp(-(attn @ wts.gate_w + wts.gate_b)))
    xmod = np.empty_like(x)
    for i in range(t):
        for ch in range(c):
            xmod[i, :, :, ch] = x[i, :, :, ch] * (1 + wts.alpha * (2 * s[i, ch] - 1))
    conv = np.zeros_like(x)
    for i in range(t):
        for y in range(hh):
            for xx in range(ww):
                for co in range(c):
                    acc = wts.conv_bias[co]
                    for dt in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            for dx in (-1, 0, 1):
                                ii, yy2, xx2 = i + dt, y + dy, xx + dx
                                if 0 <= ii < t and 0 <= yy2 < hh and 0 <= xx2 < ww:
                                    for ci in range(c):
                                        acc += (wts.conv_kernel[co, ci, dt + 1, dy + 1, dx + 1]
                                                * xmod[ii, yy2, xx2, ci])
                    conv[i, y, xx, co] = acc
    return 0.5 * xmod + 0.5 * conv


def tiny_instance(seed=123):
    rng = np.random.default_rng(seed)
    clip = FeatureClip(data=rng.normal(size=(3, 4, 4, 2)))
    wts = seed_cpda_weights(channels=2, d_p=2, d_e=2, k2=2, heads=1,
                            alpha=0.5, seed=seed + 1)
    phase = phase_track(3, 0, 2)
    pedg = rng.normal(size=(3, 2))
    return clip, phase, pedg, wts


# ------------------------------------------------------------- phase_track

def test_phase_track_linear_ramp():
    assert np.allclose(phase_track(4, 0, 2).phi, [0.0, 0.25, 0.5, 0.75])


def test_phase_track_t2():
    assert np.allclose(phase_track(2, 0, 1).phi, [0.0, 0.5])


def test_phase_track_wraps_before_ed():
    got = phase_track(6, 1, 4).phi
    assert np.allclose(got, [5 / 6, 0.0, 1 / 6, 2 / 6, 3 / 6, 4 / 6])


def test_phase_track_exact_anchors_and_range():
    for t, ed, es in ((10, 3, 7), (9, 6, 2), (12, 0, 11)):
        phi = phase_track(t, ed, es).phi
        assert phi[ed] == 0.0
        assert phi[es] == 0.5
        assert ((phi >= 0) & (phi < 1)).all()


def test_phase_track_degenerate():
    with pytest.raises(ParameterError):
        phase_track(4, 1, 1)


# ------------------------------------------------------------ pool_spatial

def test_pool_constant():
    clip = FeatureClip(data=np.full((2, 3, 5, 4), 0.7))
    assert np.allclose(pool_spatial(clip), 0.7)


def test_pool_single_one():
    data = np.zeros((1, 4, 4, 1))
    data[0, 2, 1, 0] = 1.0
    assert pool_spatial(FeatureClip(data=data))[0, 0] == pytest.approx(1 / 16)


def test_pool_random_vs_oracle():
    rng = np.random.default_rng(20)
    data = rng.normal(size=(2, 3, 3, 2))
    got = pool_spatial(FeatureClip(data=data))
    for t in range(2):
        for c in range(2):
            total = 0.0
            for y in range(3):
                for x in range(3):
                    total += data[t, y, x, c]
            assert got[t, c] == pytest.approx(total / 9)


# ------------------------------------------------------------- mha_forward

def test_mha_single_token():
    wts = seed_cpda_weights(channels=2, d_p=1, d_e=1, heads=1, seed=0)
    token = np.array([[0.3, -0.2, 0.5, 0.1]])
    got = mha_forward(token, wts)
    expected = (token @ wts.wv) @ wts.wo  # softmax over one key is 1
    assert np.allclose(got, expected, atol=1e-12)


def test_mha_identical_tokens_identical_outputs():
    wts = seed_cpda_weights(channels=2, d_p=1, d_e=1, heads=2, seed=1)
    tokens = np.tile([0.4, 0.1, -0.3, 0.8], (5, 1))
    got = mha_forward(tokens, wts)
    assert np.allclose(got - got[0], 0.0, atol=1e-12)


def test_mha_two_token_hand_case():
    # d=2, h=1, integer projections: worked through the softmax by hand
    wq = np.array([[1.0, 0.0], [0.0, 1.0]])
    wk = np.array([[1.0, 0.0], [0.0, 1.0]])
    wv = np.array([[2.0, 0.0], [0.0, 1.0]])
    wo = np.array([[1.0, 0.0], [0.0, 1.0]])
    wts = seed_cpda_weights(channels=1, d_p=1, d_e=0, heads=1, seed=0)
    object.__setattr__(wts, "wq", wq)
    object.__setattr__(wts, "wk", wk)
    object.__setattr__(wts, "wv", wv)
    object.__setattr__(wts, "wo", wo)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = mha_forward(x, wts)
    # row 0: scores = (x0.x0, x0.x1)/sqrt(2) = (1, 0)/sqrt(2)
    s = 1 / math.sqrt(2)
    a00 = math.exp(s) / (math.exp(s) + 1.0)
    v = x @ wv
    expected_row0 = a00 * v[0] + (1 - a00) * v[1]
    assert np.allclose(got[0], expected_row0, atol=1e-12)


def test_mha_permutation_equivariance():
    rng = np.random.default_rng(21)
    wts = seed_cpda_weights(channels=2, d_p=2, d_e=2, heads=2, seed=2)
    tokens = rng.normal(size=(6, wts.d_model))
    perm = rng.permutation(6)
    out = mha_forward(tokens, wts)
    out_p = mha_forward(tokens[perm], wts)
    assert np.allclose(out_p, out[perm], atol=1e-10)


def test_mha_softmax_rows_sum_to_one():
    from echodyn.cpda import _softmax_rows
    rng = np.random.default_rng(22)
    rows = _softmax_rows(rng.normal(size=(4, 7, 7)))
    assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-6
    assert (rows >= 0).all()


# ------------------------------------------------------------- conv3d_same

def direct_conv3d(x, kernel, bias):
    """Oracle: the 27 taps summed one by one over a zero-padded clip."""
    t, h, w, _ = x.shape
    pad = np.pad(x, ((1, 1), (1, 1), (1, 1), (0, 0)))
    out = np.broadcast_to(bias, (t, h, w, kernel.shape[0])).copy()
    for dt in range(3):
        for dh in range(3):
            for dw in range(3):
                out += pad[dt:dt + t, dh:dh + h, dw:dw + w] @ kernel[:, :, dt, dh, dw].T
    return out


# T=1 and T=2 drop dt slices off both ends of the clip
@pytest.mark.parametrize("t", [1, 2, 5])
def test_conv3d_same_matches_direct_tap_sum(t):
    rng = np.random.default_rng(60 + t)
    x = rng.normal(size=(t, 5, 3, 2))  # H != W, C_in = 2
    kernel = rng.normal(size=(3, 2, 3, 3, 3))  # C_out = 3
    bias = rng.normal(size=3)
    got = conv3d_same(x, kernel, bias)
    want = direct_conv3d(x, kernel, bias)
    assert got.shape == (t, 5, 3, 3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# out=x convolves in place: output frame s-1 is written once input frame s is read
@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_conv3d_same_in_place_matches_out_of_place(t):
    rng = np.random.default_rng(70 + t)
    x = rng.normal(size=(t, 4, 6, 3))
    kernel = rng.normal(size=(3, 3, 3, 3, 3))
    bias = rng.normal(size=3)
    want = direct_conv3d(x, kernel, bias)
    fresh = conv3d_same(x, kernel, bias)
    in_place = x.copy()
    assert conv3d_same(in_place, kernel, bias, out=in_place) is in_place
    assert np.array_equal(in_place, fresh)
    np.testing.assert_allclose(fresh, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_conv3d_same_rejects_partly_overlapping_or_misshapen_out():
    buffer = np.zeros((4, 3, 3, 2))
    kernel, bias = np.zeros((2, 2, 3, 3, 3)), np.zeros(2)
    with pytest.raises(ModelError, match="overlaps"):
        conv3d_same(buffer[:3], kernel, bias, out=buffer[1:])
    with pytest.raises(ModelError, match="overlaps"):
        conv3d_same(buffer[:3], kernel, bias, out=buffer[:3, :, :, ::-1])
    with pytest.raises(ModelError, match="conv output"):
        conv3d_same(buffer, kernel, bias, out=np.zeros((4, 3, 3, 1)))


def test_conv3d_same_rejects_mismatched_kernel():
    with pytest.raises(ModelError):
        conv3d_same(np.zeros((2, 4, 4, 2)), np.zeros((3, 3, 3, 3, 3)), np.zeros(3))


# ------------------------------------------------------------ cpda_forward

def _zero_gate_weights(channels=2, alpha=0.5, identity_conv=False, seed=33):
    wts = seed_cpda_weights(channels=channels, d_p=2, d_e=2, k2=2, heads=1,
                            alpha=alpha, seed=seed)
    object.__setattr__(wts, "gate_w", np.zeros_like(wts.gate_w))
    object.__setattr__(wts, "gate_b", np.zeros_like(wts.gate_b))
    if identity_conv:
        object.__setattr__(wts, "conv_kernel", identity_conv_kernel(channels))
        object.__setattr__(wts, "conv_bias", np.zeros(channels))
    return wts


def test_cpda_zero_gate_identity_modulation():
    rng = np.random.default_rng(23)
    clip = FeatureClip(data=rng.normal(size=(3, 4, 4, 2)))
    wts = _zero_gate_weights(identity_conv=True)
    phase = phase_track(3, 0, 2)
    pedg = rng.normal(size=(3, 2))
    out = cpda_forward(clip, phase, pedg, wts)
    assert np.abs(out.data - clip.data).max() <= 1e-6


def test_cpda_alpha_zero_ignores_gate():
    rng = np.random.default_rng(24)
    clip = FeatureClip(data=rng.normal(size=(3, 4, 4, 2)))
    wts = seed_cpda_weights(channels=2, d_p=2, d_e=2, k2=2, heads=1,
                            alpha=0.0, seed=7)
    object.__setattr__(wts, "conv_kernel", identity_conv_kernel(2))
    object.__setattr__(wts, "conv_bias", np.zeros(2))
    out = cpda_forward(clip, phase_track(3, 0, 2), rng.normal(size=(3, 2)), wts)
    assert np.abs(out.data - clip.data).max() <= 1e-9


def test_cpda_modulation_bound():
    clip, phase, pedg, wts = tiny_instance()
    object.__setattr__(wts, "conv_kernel", np.zeros_like(wts.conv_kernel))
    object.__setattr__(wts, "conv_bias", np.zeros(2))
    out = cpda_forward(clip, phase, pedg, wts)
    x_mod = 2.0 * out.data  # output = 0.5 x_mod with a zero conv
    hi = (1 + wts.alpha) * np.abs(clip.data) + 1e-12
    lo = (1 - wts.alpha) * np.abs(clip.data) - 1e-12
    assert (np.abs(x_mod) <= hi).all()
    assert (np.abs(x_mod) >= lo).all()


def test_cpda_forward_matches_loop_oracle():
    clip, phase, pedg, wts = tiny_instance()
    got = cpda_forward(clip, phase, pedg, wts)
    expected = oracle_cpda_forward(clip, phase, pedg, wts)
    assert np.abs(got.data - expected).max() < 1e-5


def test_cpda_finite_difference_sensitivity():
    """Central-difference sensitivity agrees between the module and the oracle."""
    clip, phase, pedg, wts = tiny_instance(seed=321)
    eps = 1e-5
    idx = (1, 2, 3, 0)

    def scalar_sum(forward):
        def at(delta):
            data = clip.data.copy()
            data[idx] += delta
            return float(np.sum(forward(FeatureClip(data=data), phase, pedg, wts)))
        return (at(eps) - at(-eps)) / (2 * eps)

    d_impl = scalar_sum(lambda c, p, e, w: cpda_forward(c, p, e, w).data)
    d_oracle = scalar_sum(lambda c, p, e, w: oracle_cpda_forward(c, p, e, w))
    assert d_impl == pytest.approx(d_oracle, rel=1e-3)


def _traced_peak(call) -> int:
    """Peak bytes traced while `call()` runs, above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# cpda_forward allocates one clip-sized array, the result, and frame-sized
# scratch: about 1.4x the clip
def test_cpda_forward_peaks_below_two_clips():
    rng = np.random.default_rng(80)
    clip = FeatureClip(data=rng.normal(size=(64, 16, 16, 8)))
    wts = seed_cpda_weights(channels=8, d_p=8, d_e=8, k2=4, heads=2, seed=81)
    phase = phase_track(64, 0, 32)
    pedg = rng.normal(size=(64, 4))
    peak = _traced_peak(lambda: cpda_forward(clip, phase, pedg, wts))
    assert peak < 2 * clip.data.nbytes


def test_save_feature_clip_converts_a_frame_at_a_time(tmp_path):
    clip = FeatureClip(data=np.random.default_rng(82).normal(size=(64, 16, 16, 8)))
    peak = _traced_peak(lambda: save_feature_clip(clip, tmp_path / "c.ftc"))
    assert peak < 0.1 * clip.data.nbytes


def test_cpda_shape_errors():
    clip, phase, pedg, wts = tiny_instance()
    with pytest.raises(ModelError):
        cpda_forward(clip, phase_track(4, 0, 2), np.zeros((4, 2)), wts)
    with pytest.raises(ModelError):
        cpda_forward(clip, phase, np.zeros((3, 5)), wts)


# --------------------------------------------------------------------- io

def test_weights_json_roundtrip(tmp_path):
    wts = seed_cpda_weights(channels=3, d_p=4, d_e=5, k2=2, heads=3, seed=9)
    save_cpda_weights(wts, tmp_path / "w.json")
    back = load_cpda_weights(tmp_path / "w.json")
    assert back.heads == wts.heads and back.alpha == wts.alpha
    assert np.array_equal(back.wq, wts.wq)
    assert np.array_equal(back.conv_kernel, wts.conv_kernel)
    assert back.conv_kernel.shape == (3, 3, 3, 3, 3)


def test_weights_json_names_missing_and_unexpected_keys(tmp_path):
    (tmp_path / "w.json").write_text(json.dumps({"heads": 2, "alpha": 0.5}))
    with pytest.raises(FormatError, match="missing key 'phase_w1'.*missing key 'conv_bias'"):
        load_cpda_weights(tmp_path / "w.json")
    save_cpda_weights(seed_cpda_weights(channels=2, seed=5), tmp_path / "w.json")
    payload = json.loads((tmp_path / "w.json").read_text())
    payload["extra"] = 1
    payload["wq"][1] = payload["wq"][1][:-1]  # ragged: one row is short
    (tmp_path / "w.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="unexpected key 'extra'"):
        load_cpda_weights(tmp_path / "w.json")
    del payload["extra"]
    (tmp_path / "w.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="'wq' must be ndarray"):
        load_cpda_weights(tmp_path / "w.json")
    payload["wq"] = payload["wk"]
    payload["heads"] = "2"
    (tmp_path / "w.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="'heads' must be int"):
        load_cpda_weights(tmp_path / "w.json")


def test_weights_json_rejects_non_finite_numbers(tmp_path):
    save_cpda_weights(seed_cpda_weights(channels=2, d_p=2, d_e=2, k2=2, heads=1, seed=3),
                      tmp_path / "w.json")
    raw = json.loads((tmp_path / "w.json").read_text())
    raw["wq"][1][0] = float("nan")
    raw["alpha"] = float("inf")
    (tmp_path / "w.json").write_text(json.dumps(raw))
    with pytest.raises(FormatError, match="'wq' must be finite") as err:
        load_cpda_weights(tmp_path / "w.json")
    assert "'alpha' must be finite" in str(err.value)


def test_seed_weights_deterministic():
    a = seed_cpda_weights(channels=2, seed=5)
    b = seed_cpda_weights(channels=2, seed=5)
    assert np.array_equal(a.wq, b.wq)
    assert np.array_equal(a.conv_kernel, b.conv_kernel)


def test_feature_clip_roundtrip(tmp_path):
    rng = np.random.default_rng(25)
    clip = FeatureClip(data=rng.normal(size=(2, 3, 4, 5)).astype(np.float32).astype(float))
    save_feature_clip(clip, tmp_path / "c.ftc")
    back = load_feature_clip(tmp_path / "c.ftc")
    assert np.array_equal(back.data, clip.data)
    assert (tmp_path / "c.ftc").read_bytes()[:4] == b"FTC1"


def test_weights_invariants():
    with pytest.raises(ModelError):
        seed_cpda_weights(channels=2, d_p=2, d_e=1, heads=2, seed=0)  # 5 % 2 != 0
    with pytest.raises(ParameterError):
        seed_cpda_weights(channels=2, d_p=2, d_e=2, alpha=1.5, seed=0)
