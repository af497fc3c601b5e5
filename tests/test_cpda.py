from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from echodyn import cpda
from echodyn.cpda import (
    CpdaWeights,
    FeatureClip,
    PhaseTrack,
    conv3d_same,
    cpda_forward,
    identity_conv_kernel,
    load_feature_clip,
    mha_forward,
    phase_track,
    pool_spatial,
    save_feature_clip,
    seed_cpda_weights,
)
from echodyn.errors import FormatError, ModelError, NumericError, ParameterError
from echodyn.seqio import read_json, write_json

from conftest import allow_cpus, record_halves


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
    # CpdaWeights has d >= 3 (C, d_p, d_e >= 1): this stand-in holds just what
    # mha_forward reads
    wts = SimpleNamespace(wq=wq, wk=wk, wv=wv, wo=wo, heads=1, d_model=2)
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


def modulation(rng, x):
    """A T x C factor for `conv3d_same`, and the oracle's input x * factor."""
    factor = rng.uniform(0.5, 1.5, size=(x.shape[0], x.shape[3]))
    return factor, x * factor[:, None, None, :]


# T=1 and T=2 drop dt slices off both ends of the clip
@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_conv3d_same_matches_direct_tap_sum(t):
    rng = np.random.default_rng(60 + t)
    x = rng.normal(size=(t, 5, 3, 3))  # H != W
    kernel = rng.normal(size=(3, 3, 3, 3, 3))
    bias = rng.normal(size=3)
    factor, x_mod = modulation(rng, x)
    want = direct_conv3d(x_mod, kernel, bias)
    got = conv3d_same(x, factor, kernel, bias)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def conv_on(monkeypatch, cpus, x, factor, kernel, bias):
    """conv3d_same of x with `cpus` allowed; the result and the threads that
    ran it. The worker is gone once it returns."""
    threads = record_halves(monkeypatch, cpda)
    allow_cpus(monkeypatch, cpus)
    before = threading.active_count()
    out = conv3d_same(x, factor, kernel, bias)
    assert threading.active_count() == before
    return out, threads


@pytest.mark.parametrize("t", [1, 2, 3, 5, 64])
def test_conv3d_same_on_two_threads_is_the_one_cpu_result(monkeypatch, t):
    # each half reads the input frame next to the split, which the other half
    # also reads; T = 1 cannot split, T = 2 splits into one frame each
    rng = np.random.default_rng(80 + t)
    x = rng.normal(size=(t, 24, 20, 16))
    assert 24 * 20 * 16 > cpda.THREADED_CONV_VALUES and cpda._block_rows(16) is not None
    kernel = rng.normal(size=(16, 16, 3, 3, 3))
    bias = rng.normal(size=16)
    factor, x_mod = modulation(rng, x)
    want = direct_conv3d(x_mod, kernel, bias)
    one, one_threads = conv_on(monkeypatch, {0}, x, factor, kernel, bias)
    two, two_threads = conv_on(monkeypatch, {0, 1}, x, factor, kernel, bias)
    me = threading.get_ident()
    assert one_threads == {me}
    assert me in two_threads and len(two_threads) == (2 if t > 1 else 1)
    assert np.array_equal(one, two)
    np.testing.assert_allclose(two, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_conv3d_same_halves_under_rapid_thread_switching(monkeypatch):
    # the halves share the result, each writing only its own output frames;
    # switching threads every microsecond interleaves them finely around the split
    rng = np.random.default_rng(70)
    x = rng.normal(size=(4, 24, 20, 16))
    kernel = rng.normal(size=(16, 16, 3, 3, 3))
    bias = rng.normal(size=16)
    factor, _ = modulation(rng, x)
    serial, _ = conv_on(monkeypatch, {0}, x, factor, kernel, bias)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            threaded, threads = conv_on(monkeypatch, {0, 1}, x, factor, kernel, bias)
            assert len(threads) == 2 and np.array_equal(threaded, serial)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape", [(4, 16, 16, 16), (4, 12, 12, 44)],
                         ids=["frame-below-the-gate", "blocks-under-20-rows"])
def test_conv3d_same_stays_on_the_calling_thread(monkeypatch, shape):
    t, h, w, c = shape
    assert h * w * c <= cpda.THREADED_CONV_VALUES or cpda._block_rows(c) is None
    assert cpda._block_rows(43) == cpda.MIN_BLOCK_ROWS
    rng = np.random.default_rng(90)
    x = rng.normal(size=shape)
    kernel = rng.normal(size=(c, c, 3, 3, 3))
    bias = rng.normal(size=c)
    factor, x_mod = modulation(rng, x)
    want = direct_conv3d(x_mod, kernel, bias)
    got, threads = conv_on(monkeypatch, {0, 1}, x, factor, kernel, bias)
    assert threads == {threading.get_ident()}
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_an_overflow_in_second_half_frames_is_the_same_error_on_two_threads(monkeypatch):
    # numpy's errstate is a context variable: a worker thread outside the
    # caller's context would warn and carry on with inf where the serial loop
    # raises. Output frames 0-2 read input frames 0-3, which are zero, so
    # only the worker's half (output frames 3-5) overflows.
    c = 16
    wts = dataclasses.replace(seed_cpda_weights(channels=c, seed=4),
                              conv_kernel=np.full((c, c, 3, 3, 3), 1e300))
    data = np.zeros((6, 24, 20, c))
    data[4:] = 1e10
    clip = FeatureClip(data=data)
    messages = []
    for cpus in ({0}, {0, 1}):
        threads = record_halves(monkeypatch, cpda)
        allow_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(NumericError, match="leaves the float64 range") as info:
            cpda_forward(clip, phase_track(6, 0, 3), np.zeros((6, wts.k2)), wts)
        assert threading.active_count() == before and len(threads) == len(cpus)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


_BLAS_WORKER_CPU = """
import os, threading, time
import numpy as np
from echodyn.cpda import FeatureClip, cpda_forward, phase_track, seed_cpda_weights
rng = np.random.default_rng(0)
clip = FeatureClip(data=rng.normal(size=(64, 64, 64, 16)))
weights = seed_cpda_weights(16, seed=1)
args = (clip, phase_track(64, 0, 32), rng.normal(size=(64, weights.k2)), weights)
cpda_forward(*args)
time.sleep(0.3)
# the threads that exist between calls: the caller's and the BLAS workers
blas = set(os.listdir("/proc/self/task")) - {str(threading.get_native_id())}

def cpu_ticks():
    total = 0
    for tid in blas:
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total

before = cpu_ticks()
cpda_forward(*args)
time.sleep(0.3)
print((cpu_ticks() - before) * 1e3 / os.sysconf("SC_CLK_TCK"))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs per-thread /proc stats")
def test_cpda_forward_leaves_no_blas_worker_spinning():
    # CPU time of the threads other than the caller that live between calls,
    # over one 64^2 x 64 x 16 forward pass and the 0.3 s after it; the halves'
    # worker thread starts and ends within the call, so it is not counted.
    # One 4096-row product per frame woke an OpenBLAS worker, which was busy
    # through the pass and then spun for ~120 ms.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _BLAS_WORKER_CPU], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert float(proc.stdout.strip()) < 30.0


def test_conv3d_same_rejects_mismatched_kernel():
    with pytest.raises(ModelError, match="conv kernel must be 2 x 2 x 3 x 3 x 3"):
        conv3d_same(np.zeros((2, 4, 4, 2)), np.ones((2, 2)), np.zeros((3, 3, 3, 3, 3)),
                    np.zeros(3))
    with pytest.raises(ModelError, match="conv kernel must be 2 x 2 x 3 x 3 x 3"):
        conv3d_same(np.zeros((2, 4, 4, 2)), np.ones((2, 2)), np.zeros((3, 2, 3, 3, 3)),
                    np.zeros(3))


@pytest.mark.parametrize("x_shape,factor_shape", [((2, 4, 4, 2), (2, 3)),
                                                  ((2, 4, 4, 2), (3, 2)),
                                                  ((2, 4, 4, 2), (2,)),
                                                  ((2, 4, 0, 2), (2, 2)),
                                                  ((0, 4, 4, 2), (0, 2))])
def test_conv3d_same_rejects_a_bad_factor_or_an_empty_clip(x_shape, factor_shape):
    with pytest.raises(ModelError, match="T x C factor"):
        conv3d_same(np.zeros(x_shape), np.ones(factor_shape), np.zeros((2, 2, 3, 3, 3)),
                    np.zeros(2))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_conv3d_same_only_reads_its_input(monkeypatch, cpus):
    rng = np.random.default_rng(71)
    x = rng.normal(size=(5, 24, 20, 16))
    kernel = rng.normal(size=(16, 16, 3, 3, 3))
    bias = rng.normal(size=16)
    factor, x_mod = modulation(rng, x)
    want = direct_conv3d(x_mod, kernel, bias)
    x.flags.writeable = False
    got, threads = conv_on(monkeypatch, cpus, x, factor, kernel, bias)
    assert len(threads) == len(cpus)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_cpda_forward_leaves_the_clip_as_it_was():
    rng = np.random.default_rng(72)
    clip = FeatureClip(data=rng.normal(size=(6, 24, 20, 16)))
    before = clip.data.tobytes()
    wts = seed_cpda_weights(channels=16, seed=5)
    cpda_forward(clip, phase_track(6, 0, 3), rng.normal(size=(6, wts.k2)), wts)
    assert clip.data.tobytes() == before


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


def gate_factor(clip, phase, pedg, wts):
    """The T x C modulation factor, by the gate arithmetic of `cpda._forward`."""
    angles = 2.0 * np.pi * phase.phi
    f_phase = cpda._mlp(np.stack([np.sin(angles), np.cos(angles)], axis=1),
                        wts.phase_w1, wts.phase_b1, wts.phase_w2, wts.phase_b2)
    f_edg = cpda._mlp(pedg, wts.edg_w1, wts.edg_b1, wts.edg_w2, wts.edg_b2)
    tokens = np.concatenate([pool_spatial(clip), f_phase, f_edg], axis=1)
    s = 1.0 / (1.0 + np.exp(-(mha_forward(tokens, wts) @ wts.gate_w + wts.gate_b)))
    return 1.0 + wts.alpha * (2.0 * s - 1.0)


@pytest.mark.parametrize("shape", [(16, 32, 32, 16), (6, 24, 24, 48)],
                         ids=["row-blocks", "C48-one-product-per-frame"])
def test_cpda_forward_is_the_50_50_blend_of_the_modulated_clip_and_its_convolution(shape):
    # the blend is folded into the convolution's kernel and bias
    rng = np.random.default_rng(29)
    t, c = shape[0], shape[3]
    clip = FeatureClip(data=rng.normal(size=shape))
    wts = seed_cpda_weights(channels=c, seed=10)
    object.__setattr__(wts, "conv_bias", rng.normal(size=c))  # seeded biases are zero
    phase, pedg = phase_track(t, 0, t // 2), rng.normal(size=(t, wts.k2))
    factor = gate_factor(clip, phase, pedg, wts)
    x_mod = clip.data * factor[:, None, None, :]
    want = 0.5 * x_mod + 0.5 * conv3d_same(clip.data, factor, wts.conv_kernel, wts.conv_bias)
    got = cpda_forward(clip, phase, pedg, wts).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


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


@pytest.mark.parametrize("shape", [(0, 3, 5, 4), (3, 0, 5, 4), (3, 5, 0, 4), (3, 5, 4, 0)])
def test_feature_clip_rejects_a_zero_size(shape):
    with pytest.raises(ModelError, match="T x H x W x C, each >= 1"):
        FeatureClip(np.zeros(shape))


# --------------------------------------------------------------------- io

def test_weights_json_roundtrip(tmp_path):
    wts = seed_cpda_weights(channels=3, d_p=4, d_e=5, k2=2, heads=3, seed=9)
    write_json(tmp_path / "w.json", wts)
    back = read_json(tmp_path / "w.json", CpdaWeights)
    assert back.heads == wts.heads and back.alpha == wts.alpha
    assert np.array_equal(back.wq, wts.wq)
    assert np.array_equal(back.conv_kernel, wts.conv_kernel)
    assert back.conv_kernel.shape == (3, 3, 3, 3, 3)


def test_weights_json_names_missing_and_unexpected_keys(tmp_path):
    (tmp_path / "w.json").write_text(json.dumps({"heads": 2, "alpha": 0.5}))
    with pytest.raises(FormatError, match="missing key 'phase_w1'.*missing key 'conv_bias'"):
        read_json(tmp_path / "w.json", CpdaWeights)
    write_json(tmp_path / "w.json", seed_cpda_weights(channels=2, seed=5))
    payload = json.loads((tmp_path / "w.json").read_text())
    payload["extra"] = 1
    payload["wq"][1] = payload["wq"][1][:-1]  # ragged: one row is short
    (tmp_path / "w.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="unexpected key 'extra'"):
        read_json(tmp_path / "w.json", CpdaWeights)
    del payload["extra"]
    (tmp_path / "w.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="'wq' must be ndarray"):
        read_json(tmp_path / "w.json", CpdaWeights)
    payload["wq"] = payload["wk"]
    payload["heads"] = "2"
    (tmp_path / "w.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="'heads' must be int"):
        read_json(tmp_path / "w.json", CpdaWeights)


def test_weights_json_rejects_non_finite_numbers(tmp_path):
    write_json(tmp_path / "w.json",
               seed_cpda_weights(channels=2, d_p=2, d_e=2, k2=2, heads=1, seed=3))
    raw = json.loads((tmp_path / "w.json").read_text())
    raw["wq"][1][0] = float("nan")
    raw["alpha"] = float("inf")
    (tmp_path / "w.json").write_text(json.dumps(raw))
    with pytest.raises(FormatError, match="'wq' must be finite") as err:
        read_json(tmp_path / "w.json", CpdaWeights)
    assert "'alpha' must be finite" in str(err.value)


def test_seed_weights_deterministic():
    a = seed_cpda_weights(channels=2, seed=5)
    b = seed_cpda_weights(channels=2, seed=5)
    assert np.array_equal(a.wq, b.wq)
    assert np.array_equal(a.conv_kernel, b.conv_kernel)


@pytest.mark.parametrize("sizes,digest", [
    (dict(channels=4, seed=5), "221ba2243667a03be371bffd0d4dffff"),
    (dict(channels=3, d_p=5, d_e=4, k2=6, heads=3, seed=11), "f64f52779ea7ccf0c3079049001d337f"),
], ids=["defaults", "C3-dp5-de4-k6-h3"])
def test_seed_weights_bytes_are_frozen(sizes, digest):
    # every field's name, shape and float64 bytes, in field order: a draw that
    # moves in order or scale changes the digest
    h = hashlib.blake2b(digest_size=16)
    for name, value in vars(seed_cpda_weights(**sizes)).items():
        h.update(name.encode())
        h.update(repr(np.shape(value)).encode())
        h.update(np.asarray(value, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def test_feature_clip_roundtrip(tmp_path):
    rng = np.random.default_rng(25)
    clip = FeatureClip(data=rng.normal(size=(2, 3, 4, 5)).astype(np.float32).astype(float))
    save_feature_clip(clip, tmp_path / "c.ftc")
    back = load_feature_clip(tmp_path / "c.ftc")
    assert np.array_equal(back.data, clip.data)
    assert (tmp_path / "c.ftc").read_bytes()[:4] == b"FTC1"


def test_a_loaded_clip_is_a_read_only_float32_view(tmp_path):
    data = np.random.default_rng(26).normal(size=(2, 3, 4, 5)).astype(np.float32)
    save_feature_clip(FeatureClip(data=data), tmp_path / "c.ftc")
    back = load_feature_clip(tmp_path / "c.ftc")
    assert back.data.dtype == np.float32 and not back.data.flags.writeable
    assert np.array_equal(back.data, data)


@pytest.mark.parametrize("shape", [(64, 64, 64, 16), (6, 24, 24, 48)],
                         ids=["64x64x64x16", "C48-one-product-per-frame"])
def test_cpda_forward_on_a_loaded_clip_is_the_float64_result(tmp_path, shape):
    # float32 -> float64 is exact, so the clip as read gives the widened clip's bits
    rng = np.random.default_rng(27)
    save_feature_clip(FeatureClip(data=rng.normal(size=shape).astype(np.float32)),
                      tmp_path / "c.ftc")
    clip = load_feature_clip(tmp_path / "c.ftc")
    assert clip.data.dtype == np.float32
    t, c = shape[0], shape[3]
    wts = seed_cpda_weights(channels=c, seed=8)
    phase, pedg = phase_track(t, 0, t // 2), rng.normal(size=(t, wts.k2))
    want = cpda_forward(FeatureClip(data=clip.data.astype(np.float64)), phase, pedg, wts)
    got = cpda_forward(clip, phase, pedg, wts)
    assert got.data.dtype == np.float64 and got.data.tobytes() == want.data.tobytes()


def test_weights_invariants():
    with pytest.raises(ModelError):
        seed_cpda_weights(channels=2, d_p=2, d_e=1, heads=2, seed=0)  # 5 % 2 != 0
    with pytest.raises(ParameterError):
        seed_cpda_weights(channels=2, d_p=2, d_e=2, alpha=1.5, seed=0)


WEIGHT_ARRAYS = [name for name, value in vars(seed_cpda_weights(channels=2, seed=0)).items()
                 if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("name", WEIGHT_ARRAYS)
def test_weights_reject_a_misshapen_array_naming_it(name):
    wts = seed_cpda_weights(channels=3, d_p=4, d_e=5, k2=2, heads=2, seed=1)
    grown = getattr(wts, name)[..., None]  # every array has one axis too many
    with pytest.raises(ModelError, match=f"weight '{name}' must have shape"):
        dataclasses.replace(wts, **{name: grown})


@pytest.mark.parametrize("name,value", [("gate_b", [1.0]), ("phase_w1", [[1.0]])])
def test_weights_reject_a_short_array_naming_it(name, value):
    # a one-element gate bias used to broadcast over every channel
    wts = seed_cpda_weights(channels=4, seed=1)
    with pytest.raises(ModelError, match=f"weight '{name}' must have shape"):
        dataclasses.replace(wts, **{name: np.array(value)})


@pytest.mark.parametrize("name", ["phase_b1", "edg_b1", "conv_bias", "edg_w1"])
def test_weights_reject_an_empty_size(name):
    wts = seed_cpda_weights(channels=3, d_p=4, d_e=5, k2=2, heads=2, seed=1)
    empty = getattr(wts, name)[:0]
    with pytest.raises(ModelError, match="C, d_p, d_e and k2 must be >= 1"):
        dataclasses.replace(wts, **{name: empty})


@pytest.mark.parametrize("sizes", [dict(channels=0), dict(d_p=0), dict(d_e=0), dict(k2=0),
                                   dict(d_p=-1, heads=1), dict(k2=-2, heads=1)],
                         ids=["channels-0", "d_p-0", "d_e-0", "k2-0", "d_p-neg", "k2-neg"])
def test_seed_weights_reject_a_size_below_one_before_drawing(sizes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # channels=0 once divided by zero
        with pytest.raises(ParameterError, match="channels, d_p, d_e and k2 must be >= 1"):
            seed_cpda_weights(**{"channels": 2, **sizes, "seed": 0})


def test_weights_k2_is_the_rows_of_edg_w1():
    wts = seed_cpda_weights(channels=3, d_p=4, d_e=5, k2=6, heads=2, seed=1)
    assert wts.k2 == 6 == wts.edg_w1.shape[0]
    assert wts.d_model == 3 + 4 + 5 and wts.channels == 3


@pytest.mark.parametrize("sizes", [dict(channels=2 ** 63), dict(d_p=10 ** 30), dict(k2=2 ** 63)],
                         ids=["channels", "d_p", "k2"])
def test_seed_weights_reject_a_size_past_int64_before_drawing(sizes):
    # these escaped as a ValueError or TypeError from numpy
    with pytest.raises(ParameterError, match="must be >= 1 and fit int64"):
        seed_cpda_weights(**{"channels": 2, **sizes, "seed": 0})


@pytest.mark.parametrize("names", [["phase_b1"], ["edg_w1"], ["wq", "wk"]],
                         ids=["phase_b1", "edg_w1", "wq-wk"])
def test_forward_past_float64_is_a_numeric_error(names):
    # matmul overflowed with a RuntimeWarning
    wts = seed_cpda_weights(channels=2, d_p=2, d_e=2, k2=2, heads=1, seed=1)
    wts = dataclasses.replace(wts, **{n: np.full_like(getattr(wts, n), 1e300) for n in names})
    clip = FeatureClip(data=np.ones((3, 4, 4, 2)))
    with pytest.raises(NumericError, match="CPDA forward pass leaves the float64 range"):
        cpda_forward(clip, phase_track(3, 0, 1), np.ones((3, 2)), wts)


def test_a_gate_that_saturates_is_no_error():
    # the sigmoid's exp overflows to inf exactly where the gate is 0
    wts = seed_cpda_weights(channels=2, d_p=2, d_e=2, k2=2, heads=1, alpha=1.0, seed=1)
    wts = dataclasses.replace(wts, gate_b=np.full(2, -1e3), conv_kernel=identity_conv_kernel(2))
    clip = FeatureClip(data=np.ones((3, 4, 4, 2)))
    out = cpda_forward(clip, phase_track(3, 0, 1), np.zeros((3, 2)), wts)
    assert np.array_equal(out.data, np.zeros_like(clip.data))


def test_saving_a_clip_past_float32_is_a_numeric_error(tmp_path):
    data = np.zeros((2, 2, 2, 1))
    data[1, 0, 0, 0] = -1e39
    with pytest.raises(NumericError, match="float32 range"):
        save_feature_clip(FeatureClip(data=data), tmp_path / "c.ftc")
    assert list(tmp_path.iterdir()) == []


def test_loading_a_clip_with_a_signalling_nan_is_a_numeric_error(tmp_path):
    save_feature_clip(FeatureClip(data=np.zeros((1, 1, 2, 1))), tmp_path / "c.ftc")
    raw = (tmp_path / "c.ftc").read_bytes()
    (tmp_path / "c.ftc").write_bytes(raw[:20] + bytes.fromhex("0100807f") + raw[24:])
    with pytest.raises(NumericError, match="non-finite"):
        load_feature_clip(tmp_path / "c.ftc")
