from __future__ import annotations

import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import convolve, gaussian_filter

from echodyn import flow
from echodyn.errors import DimensionError, FormatError, NumericError, ParameterError
from echodyn.flow import FlowField, FlowParams, compute_flow, flow_sequence, load_flow, save_flow
from echodyn.seqio import FrameSequence, PhantomSpec, generate_phantom

from conftest import allow_cpus, make_frames

# weighted 8-neighbour average of the classical Horn-Schunck Jacobi step
_AVG_KERNEL = np.array(
    [[1 / 12, 1 / 6, 1 / 12],
     [1 / 6, 0.0, 1 / 6],
     [1 / 12, 1 / 6, 1 / 12]]
)


def hs_terms(prev, next, params):
    """Gradients (I_x, I_y, I_t) of the Horn-Schunck system, in float64."""
    def smooth(frame):
        frame = np.asarray(frame, dtype=np.float64)
        if params.presmooth_sigma <= 0:
            return frame * 255.0
        return gaussian_filter(frame, params.presmooth_sigma, mode="nearest") * 255.0

    a, b = smooth(prev), smooth(next)
    avg = 0.5 * (a + b)
    return np.gradient(avg, axis=1), np.gradient(avg, axis=0), b - a


def jacobi_oracle(prev, next, params, sweeps):
    """Horn-Schunck by plain Jacobi sweeps from zero flow; returns (u, v).

    Its fixed point is the solution compute_flow's conjugate-gradient
    solve approaches, so enough sweeps give the converged flow.
    """
    ix, iy, it = hs_terms(prev, next, params)
    denom = params.alpha ** 2 + ix ** 2 + iy ** 2
    u = np.zeros_like(it)
    v = np.zeros_like(it)
    for _ in range(sweeps):
        u_bar = convolve(u, _AVG_KERNEL, mode="nearest")
        v_bar = convolve(v, _AVG_KERNEL, mode="nearest")
        common = (ix * u_bar + iy * v_bar + it) / denom
        u = u_bar - ix * common
        v = v_bar - iy * common
    return u, v


def rel_l2(flow, ref_u, ref_v):
    """||w - w*|| / ||w*|| with w = (u, v)."""
    num = np.sum((flow.u - ref_u) ** 2 + (flow.v - ref_v) ** 2)
    return float(np.sqrt(num / np.sum(ref_u ** 2 + ref_v ** 2)))


def gaussian_blob(h, w, cx, cy, sig=8.0, amp=0.5):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return 0.2 + amp * np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sig ** 2)))


def block_match_shift(prev, next, patch_slice, max_shift=3):
    """Brute-force integer block matching: the (dx, dy) minimizing SSD."""
    best = None
    patch = prev[patch_slice]
    ys, xs = patch_slice
    for dy in range(-max_shift, max_shift + 1):
        for dx in range(-max_shift, max_shift + 1):
            shifted = next[ys.start + dy:ys.stop + dy, xs.start + dx:xs.stop + dx]
            ssd = float(((patch - shifted) ** 2).sum())
            if best is None or ssd < best[0]:
                best = (ssd, dx, dy)
    return best[1], best[2]


def test_identical_frames_exactly_zero():
    a = gaussian_blob(64, 64, 32, 32)
    f = compute_flow(a, a, FlowParams())
    assert np.abs(f.u).max() == 0.0
    assert np.abs(f.v).max() == 0.0


def test_constant_frames_zero():
    a = np.full((32, 32), 0.5)
    f = compute_flow(a, a.copy(), FlowParams())
    assert np.abs(f.u).max() == 0.0 and np.abs(f.v).max() == 0.0


def test_blob_translation_recovery():
    h = w = 128
    a = gaussian_blob(h, w, 60, 64)
    b = gaussian_blob(h, w, 61, 64)
    # oracle first: integer block matching on the blob patch says (+1, 0)
    dx, dy = block_match_shift(a, b, (slice(48, 80), slice(44, 76)))
    assert (dx, dy) == (1, 0)
    f = compute_flow(a, b, FlowParams())
    support = a > 0.25
    assert 0.6 <= f.u[support].mean() <= 1.4
    assert np.abs(f.v[support]).mean() < 0.3


def test_brightness_reversal_antisymmetry():
    a = gaussian_blob(96, 96, 44, 48)
    b = gaussian_blob(96, 96, 46, 49)
    fab = compute_flow(a, b, FlowParams())
    fba = compute_flow(b, a, FlowParams())
    assert np.abs(fab.u + fba.u).max() < 0.3
    assert np.abs(fab.v + fba.v).max() < 0.3


def test_determinism_bit_identical():
    a = gaussian_blob(64, 64, 30, 32)
    b = gaussian_blob(64, 64, 31, 33)
    f1 = compute_flow(a, b, FlowParams())
    f2 = compute_flow(a, b, FlowParams())
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)


@pytest.mark.parametrize("shift", [0.5, 1.0])
def test_subpixel_translation_recovery(shift):
    ys, xs = np.mgrid[0:128, 0:128].astype(float)
    pat0 = 0.5 + 0.25 * np.sin(2 * np.pi * xs / 32) * np.cos(2 * np.pi * ys / 40)
    pat1 = 0.5 + 0.25 * np.sin(2 * np.pi * (xs - shift) / 32) * np.cos(2 * np.pi * ys / 40)
    f = compute_flow(pat0, pat1, FlowParams())
    assert 0.6 * shift <= f.u.mean() <= 1.4 * shift


def test_dimension_errors():
    with pytest.raises(DimensionError):
        compute_flow(np.zeros((4, 4)), np.zeros((4, 5)), FlowParams())
    with pytest.raises(DimensionError):
        compute_flow(np.zeros((2, 2)), np.zeros((2, 2)), FlowParams())


def test_flow_params_validation():
    with pytest.raises(ParameterError):
        FlowParams(alpha=0.0)
    with pytest.raises(ParameterError):
        FlowParams(iterations=0)


def test_flow_sequence_lengths_and_static():
    frames = make_frames(2, 16, 16, lambda xs, ys, t: 0.3 + 0.1 * np.sin(xs / 3))
    seq = FrameSequence(frames=frames, ed_index=0, es_index=1)
    flows = flow_sequence(seq)
    assert len(flows) == 1
    static = make_frames(4, 16, 16, lambda xs, ys, t: 0.3 + 0.1 * np.sin(xs / 3))
    seq4 = FrameSequence(frames=static, ed_index=0, es_index=2)
    for f in flow_sequence(seq4):
        assert np.abs(f.u).max() == 0.0 and np.abs(f.v).max() == 0.0


def test_phantom_flow_peaks_mid_systole(phantom, phantom_flows):
    seq, _ = phantom
    mid = seq.t_count // 4  # wall speed is maximal a quarter cycle after ED
    mag_mid = np.hypot(phantom_flows[mid].u, phantom_flows[mid].v).mean()
    mag_ed = np.hypot(phantom_flows[seq.ed_index].u, phantom_flows[seq.ed_index].v).mean()
    assert mag_mid > mag_ed


def test_flow_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    f = FlowField(u=rng.normal(size=(6, 5)).astype(np.float32).astype(float),
                  v=rng.normal(size=(6, 5)).astype(np.float32).astype(float))
    save_flow(f, tmp_path / "f.bin")
    back = load_flow(tmp_path / "f.bin")
    assert np.array_equal(back.u, f.u) and np.array_equal(back.v, f.v)
    raw = (tmp_path / "f.bin").read_bytes()
    assert raw[:4] == b"FLW1"


def test_a_loaded_flow_is_a_read_only_float32_view(tmp_path):
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=(2, 6, 5)).astype(np.float32)
    save_flow(FlowField(u=u, v=v), tmp_path / "f.bin")
    back = load_flow(tmp_path / "f.bin")
    for got, want in ((back.u, u), (back.v, v)):
        assert got.dtype == np.float32 and not got.flags.writeable
        assert np.array_equal(got, want)


@pytest.mark.parametrize("plane", ["u", "v"])
def test_saving_flow_past_float32_is_a_numeric_error_leaving_no_file(tmp_path, plane):
    # the cast warned "overflow encountered in cast", then wrote an inf that
    # load_flow rejected
    planes = {"u": np.zeros((3, 4)), "v": np.zeros((3, 4))}
    planes[plane][1, 2] = -1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="float32 range"):
            save_flow(FlowField(**planes), tmp_path / "f.bin")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_flow_is_a_numeric_error(tmp_path):
    with pytest.raises(NumericError, match="must be finite"):
        FlowField(u=np.zeros((3, 4)), v=np.full((3, 4), np.nan))
    planes = np.zeros((2, 3, 4), dtype="<f4")
    planes[0, 1, 2] = np.nan
    (tmp_path / "f.bin").write_bytes(b"FLW1" + np.array([3, 4], "<u4").tobytes()
                                     + planes.tobytes())
    with pytest.raises(NumericError, match="must be finite"):
        load_flow(tmp_path / "f.bin")


def test_loading_flow_with_a_signalling_nan_is_a_numeric_error_without_a_warning(tmp_path):
    # the float32 cast printed "invalid value encountered in cast" first
    save_flow(FlowField(u=np.zeros((1, 2)), v=np.zeros((1, 2))), tmp_path / "f.bin")
    raw = (tmp_path / "f.bin").read_bytes()
    (tmp_path / "f.bin").write_bytes(raw[:12] + bytes.fromhex("0100807f") + raw[16:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="must be finite"):
            load_flow(tmp_path / "f.bin")


def test_load_flow_truncated_header(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"FLW1\x06\x00")
    with pytest.raises(FormatError, match="truncated header"):
        load_flow(tmp_path / "f.bin")


def test_converges_to_jacobi_fixed_point_across_border():
    # smooth random texture; the second crop moves it by (-1, +1) px, so
    # content leaves and enters through the replicated edges
    rng = np.random.default_rng(5)
    canvas = gaussian_filter(rng.random((56, 56)), 2.0)
    canvas = 0.2 + 0.6 * (canvas - canvas.min()) / np.ptp(canvas)
    a, b = canvas[4:52, 4:52], canvas[3:51, 5:53]
    ref_u, ref_v = jacobi_oracle(a, b, FlowParams(), 20_000)
    f = compute_flow(a, b, FlowParams(iterations=300))
    assert rel_l2(f, ref_u, ref_v) < 1e-6
    assert f.u.mean() < -0.5 and f.v.mean() > 0.5


def test_default_iterations_within_one_percent_of_converged(phantom):
    seq, _ = phantom
    t = seq.t_count // 4  # peak wall speed
    a, b = seq.frames[t], seq.frames[t + 1]
    ref_u, ref_v = jacobi_oracle(a, b, FlowParams(), 3000)
    # two independent solvers agreeing shows the oracle has converged
    assert rel_l2(compute_flow(a, b, FlowParams(iterations=300)), ref_u, ref_v) < 1e-6
    assert rel_l2(compute_flow(a, b, FlowParams()), ref_u, ref_v) < 0.01


def smooth_texture_pair(h, w, seed):
    """Two crops of one smooth random texture, the second moved by (-1, +1) px."""
    rng = np.random.default_rng(seed)
    canvas = gaussian_filter(rng.random((h + 8, w + 8)), 2.0)
    canvas = 0.2 + 0.6 * (canvas - canvas.min()) / np.ptp(canvas)
    return canvas[4:4 + h, 4:4 + w], canvas[3:3 + h, 5:5 + w]


@pytest.mark.parametrize("shape", [(3, 3), (9, 17), (50, 37)])
def test_converges_to_jacobi_fixed_point_with_partial_cells(shape):
    # 8 divides none of these sides, so the last coarse cells are shorter
    a, b = smooth_texture_pair(*shape, seed=11)
    ref_u, ref_v = jacobi_oracle(a, b, FlowParams(), 20_000)
    assert rel_l2(compute_flow(a, b, FlowParams(iterations=300)), ref_u, ref_v) < 1e-6


def test_parallel_gradients_keep_v_exactly_zero():
    # the pattern varies along x only, so every gradient is parallel and the
    # coarse operator's constant-v direction costs nothing
    ys, xs = np.mgrid[0:64, 0:64].astype(float)
    a = 0.5 + 0.2 * np.sin(xs / 3)
    b = 0.5 + 0.2 * np.sin((xs - 0.5) / 3)
    ref_u, ref_v = jacobi_oracle(a, b, FlowParams(), 2000)
    f = compute_flow(a, b, FlowParams())  # FlowField rejects non-finite values
    assert np.abs(f.v).max() == 0.0 and np.abs(ref_v).max() == 0.0
    assert rel_l2(f, ref_u, ref_v) < 1e-6
    assert f.u.mean() > 0.3


@pytest.mark.parametrize("size,base_radius", [(64, 12.0), (256, 48.0)])
def test_default_iterations_within_one_percent_across_sizes(size, base_radius):
    seq, _ = generate_phantom(PhantomSpec(t_count=18, height=size, width=size,
                                          base_radius=base_radius))
    t = seq.t_count // 4  # peak wall speed
    a, b = seq.frames[t], seq.frames[t + 1]
    ref = compute_flow(a, b, FlowParams(iterations=300))
    assert rel_l2(compute_flow(a, b, FlowParams()), ref.u, ref.v) < 0.01


_FLOW_DIGEST = """
import hashlib
from echodyn.flow import compute_flow
from echodyn.seqio import PhantomSpec, generate_phantom
seq, _ = generate_phantom(PhantomSpec(t_count=18, height=256, width=256, base_radius=48.0))
f = compute_flow(seq.frames[4], seq.frames[5])
print(hashlib.sha256(f.u.tobytes() + f.v.tobytes()).hexdigest())
"""


def test_flow_bytes_do_not_depend_on_blas_threads():
    # at 256 x 256 the coarse band is wide enough for LAPACK's blocked
    # factorization, which OpenBLAS would hand to a second thread
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _FLOW_DIGEST], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("shape", [(3, 3), (8, 8), (9, 17), (50, 37), (64, 64)])
def test_coarse_space_is_the_dense_galerkin_product(shape):
    # P^T (16 - S) P column by column: S applied to each cell's indicator
    # image as the [1,2,1] x [1,2,1] kernel over an edge-replicated pad
    h, w = shape
    wc = -(-w // flow.CELL)
    cells = np.arange(h)[:, None] // flow.CELL * wc + np.arange(w) // flow.CELL
    n = cells.max() + 1
    kernel = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0])
    galerkin = np.empty((n, n))
    for j in range(n):
        one = (cells == j).astype(np.float64)
        padded = np.pad(one, 1, mode="edge")
        s = sum(kernel[dy, dx] * padded[dy:dy + h, dx:dx + w]
                for dy in range(3) for dx in range(3))
        galerkin[:, j] = np.bincount(cells.ravel(), (16.0 * one - s).ravel(), minlength=n)
    dense = np.kron(galerkin, np.eye(2))  # the u and v of each cell
    band = flow._coarse_space(h, w)
    assert band.shape == (2 * wc + 3, 2 * n) and not band.flags.writeable
    for d, row in enumerate(band):
        diagonal = np.diagonal(dense, -d)
        assert np.array_equal(row[:diagonal.size], diagonal) and not row[diagonal.size:].any()
    assert not np.tril(dense, -len(band)).any()  # nothing lies below the band


@pytest.mark.parametrize("shape", [(9, 17), (50, 37), (256, 256)])
def test_coarse_factorization_matches_scipy(shape):
    from scipy.linalg import cholesky_banded

    rng = np.random.default_rng(3)
    band = np.array(flow._coarse_space(*shape), order="F")
    band[0] += 100.0 * rng.random(band.shape[1])
    band[1, 0::2] = 10.0 * rng.random(band.shape[1] // 2)
    ref = cholesky_banded(band, lower=True)
    flow._cholesky_banded(band)
    np.testing.assert_allclose(band, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_coarse_factorization_rejects_indefinite_and_c_order():
    band = np.array(flow._coarse_space(16, 16), order="F")  # singular: constant flow is free
    band[0, 5] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        flow._cholesky_banded(band)
    with pytest.raises(ValueError):
        flow._cholesky_banded(np.ascontiguousarray(flow._coarse_space(16, 16)))


_OTHER_THREAD_CPU = """
import time
from echodyn.flow import compute_flow
from echodyn.seqio import PhantomSpec, generate_phantom
seq, _ = generate_phantom(PhantomSpec(t_count=18, height=256, width=256, base_radius=48.0))
compute_flow(seq.frames[4], seq.frames[5])
time.sleep(0.3)
process, thread = time.process_time(), time.thread_time()
compute_flow(seq.frames[5], seq.frames[6])
time.sleep(0.3)
print(((time.process_time() - process) - (time.thread_time() - thread)) * 1e3)
"""


def test_flow_leaves_no_blas_worker_spinning():
    # CPU time of every thread but the caller's, over one 256 x 256 pair and
    # the 0.3 s after it: a BLAS worker woken by the solve spins for ~130 ms
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _OTHER_THREAD_CPU], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert float(proc.stdout.strip()) < 30.0


@pytest.mark.parametrize("shape", [(9, 17), (50, 37), (256, 256)])
def test_prolong_add_matches_per_pixel_reference(shape):
    h, w = shape
    rng = np.random.default_rng(7)
    coarse = rng.normal(size=(2, -(-h // flow.CELL), -(-w // flow.CELL))).astype(np.float32)
    out = rng.normal(size=(2, h, w)).astype(np.float32)
    expected = out.copy()
    for i in range(h):
        for j in range(w):
            expected[:, i, j] += coarse[:, i // flow.CELL, j // flow.CELL]
    flow._prolong_add(coarse, out)
    assert np.array_equal(out, expected)


def test_wide_frame_asks_only_for_the_tall_band(monkeypatch):
    # a wide frame is solved as its transpose, so its coarse band follows
    # the shorter side: 2 * 64 / CELL + 3 rows, not 2 * 1024 / CELL + 3
    asked = []
    real = flow._coarse_space

    def spy(h, w):
        asked.append((h, w))
        return real(h, w)

    monkeypatch.setattr(flow, "_coarse_space", spy)
    a, b = smooth_texture_pair(64, 1024, seed=5)
    compute_flow(a, b, FlowParams(iterations=1))
    assert asked == [(1024, 64)]


def test_wide_frame_flow_is_transposed_tall_flow():
    # unsmoothed, as `flow_sequence` calls it: Gaussian presmoothing along
    # the other axis first can round an intensity differently in the last bit
    a, b = smooth_texture_pair(37, 90, seed=13)  # wide, with partial cells
    for iterations in (10, 300):
        params = FlowParams(iterations=iterations, presmooth_sigma=0.0)
        wide = compute_flow(a, b, params)
        tall = compute_flow(a.T, b.T, params)
        assert np.array_equal(wide.u, tall.v.T) and np.array_equal(wide.v, tall.u.T)


def test_fortran_order_frames_give_the_c_order_flow():
    # the solver sums neighbours over flattened planes, which frames in
    # Fortran order would turn into copies left unwritten
    a, b = smooth_texture_pair(20, 60, seed=3)
    params = FlowParams(presmooth_sigma=0.0)
    f = compute_flow(np.asfortranarray(a), np.asfortranarray(b), params)
    ref = compute_flow(a, b, params)
    assert np.array_equal(f.u, ref.u) and np.array_equal(f.v, ref.v)


def hs_relative_residual(prev, next, params, f):
    """||b - A w|| / ||b|| of the Horn-Schunck system in float64, with the
    operator built from scipy's convolution rather than the solver's."""
    ix, iy, it = hs_terms(prev, next, params)
    flux = ix * f.u + iy * f.v + it
    alpha2 = params.alpha ** 2
    res_u = alpha2 * (f.u - convolve(f.u, _AVG_KERNEL, mode="nearest")) + ix * flux
    res_v = alpha2 * (f.v - convolve(f.v, _AVG_KERNEL, mode="nearest")) + iy * flux
    rhs = np.sum((ix * it) ** 2 + (iy * it) ** 2)
    return float(np.sqrt(np.sum(res_u ** 2 + res_v ** 2) / rhs))


def test_float64_restarts_converge_past_float32_rounding():
    # the float32 recurrence alone stalls about 7e-7 from the converged flow
    # at 256 x 256, and its float64 residual near 1e-7; it stalls at the same
    # flow after 300 and 600 iterations, so only the residual shows it
    seq, _ = generate_phantom(PhantomSpec(t_count=18, height=256, width=256,
                                          base_radius=48.0))
    a, b = seq.frames[4], seq.frames[5]
    f300 = compute_flow(a, b, FlowParams(iterations=300))
    f600 = compute_flow(a, b, FlowParams(iterations=600))
    assert rel_l2(f300, f600.u, f600.v) < 1e-9
    assert hs_relative_residual(a, b, FlowParams(), f300) < 1e-12


def test_iterating_past_convergence_keeps_the_flow():
    # without restarts the recurrence runs on into rounding noise: a plain
    # float64 recurrence drifted 290x the flow's norm away after 3000
    # iterations on this pair
    seq, _ = generate_phantom(PhantomSpec(t_count=18, height=64, width=64, base_radius=12.0))
    a, b = seq.frames[4], seq.frames[5]
    ref = compute_flow(a, b, FlowParams(iterations=300))
    assert rel_l2(compute_flow(a, b, FlowParams(iterations=3000)), ref.u, ref.v) < 1e-9


def direct_oracle(prev, next, params):
    """The Horn-Schunck system solved directly, by scipy's sparse LU, in the
    form (w - avg(w)) + g (g . w) / alpha^2 = -g I_t / alpha^2, with avg as
    a sparse matrix built from `_AVG_KERNEL` and replicated edges."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    ix, iy, it = hs_terms(prev, next, params)
    h, w = it.shape
    idx = np.arange(h * w).reshape(h, w)
    avg = sparse.csr_array((h * w, h * w))
    for (dy, dx), weight in np.ndenumerate(_AVG_KERNEL):
        rows = np.clip(np.arange(h) + dy - 1, 0, h - 1)
        cols = np.clip(np.arange(w) + dx - 1, 0, w - 1)
        avg += sparse.csr_array((np.full(h * w, weight), (idx.ravel(),
                                                           idx[np.ix_(rows, cols)].ravel())),
                                shape=avg.shape)
    smooth = sparse.eye_array(h * w) - avg
    k = 1.0 / params.alpha ** 2
    gx, gy = ix.ravel(), iy.ravel()
    cross = sparse.diags_array(k * gx * gy)
    a = sparse.block_array([[smooth + sparse.diags_array(k * gx * gx), cross],
                            [cross, smooth + sparse.diags_array(k * gy * gy)]], format="csc")
    uv = spsolve(a, -k * np.concatenate([gx * it.ravel(), gy * it.ravel()]))
    return uv[:h * w].reshape(h, w), uv[h * w:].reshape(h, w)


def textured_pair(size=32):
    """A smooth random texture in [0, 1] and its copy shifted right by 1 px."""
    a = gaussian_filter(np.random.default_rng(0).random((size, size)), 1.5)
    a = (a - a.min()) / (a.max() - a.min())
    return a, np.roll(a, 1, axis=1)


@pytest.mark.parametrize("alpha", [1e4, 1e5, 1e6])
def test_large_alpha_matches_a_direct_solve(alpha):
    # float32 rounds away 2-14% of the data term at alpha 1e4 and all of it at
    # 1e6; solved in float32 these pairs gave |w| of 5.3 and 4e8 px, not 1.19
    a, b = textured_pair()
    params = FlowParams(alpha=alpha)
    ref_u, ref_v = direct_oracle(a, b, params)
    assert rel_l2(compute_flow(a, b, params), ref_u, ref_v) < 1e-4


def test_direct_oracle_agrees_with_the_converged_flow_at_the_default_alpha():
    # the converged float32 solve is checked against Jacobi sweeps above
    a, b = textured_pair()
    ref_u, ref_v = direct_oracle(a, b, FlowParams())
    assert rel_l2(compute_flow(a, b, FlowParams(iterations=300)), ref_u, ref_v) < 1e-9


@pytest.mark.parametrize("size,base_radius,t_count", [(128, 24.0, 32), (256, 48.0, 8)])
def test_default_parameter_pairs_stay_in_float32(monkeypatch, size, base_radius, t_count):
    chosen = []
    working_dtype = flow._working_dtype
    monkeypatch.setattr(flow, "_working_dtype",
                        lambda *a: chosen.append(working_dtype(*a)) or chosen[-1])
    seq, _ = generate_phantom(PhantomSpec(t_count=t_count, height=size, width=size,
                                          base_radius=base_radius))
    flow_sequence(seq)
    assert chosen == [np.float32] * (t_count - 1)


@pytest.mark.parametrize("alpha", [1e8, 1e-100])
def test_alpha_past_float64_is_a_numeric_error_naming_the_fields(alpha):
    # at 1e8 float64 too rounds away over 1e-4 of the data term; at 1e-100 the
    # coefficients overflow float64
    a, b = textured_pair()
    with pytest.raises(NumericError, match="flow.alpha and flow.presmooth_sigma"):
        compute_flow(a, b, FlowParams(alpha=alpha))


def test_presmoothing_past_its_bound_is_a_parameter_error():
    FlowParams(presmooth_sigma=flow.MAX_PRESMOOTH_SIGMA)
    for sigma in (np.nextafter(flow.MAX_PRESMOOTH_SIGMA, np.inf), 1e6, 1e300):
        with pytest.raises(ParameterError, match="presmooth_sigma must be"):
            FlowParams(presmooth_sigma=sigma)


def test_iterations_past_int64_is_a_parameter_error():
    FlowParams(iterations=2 ** 63 - 1)
    with pytest.raises(ParameterError, match="iterations must be >= 1 and fit int64"):
        FlowParams(iterations=2 ** 63)



# ------------------------------------------------- pairs on two threads

def same_bytes(fields, refs):
    return len(fields) == len(refs) and all(
        np.array_equal(f.u, r.u) and np.array_equal(f.v, r.v)
        and f.u.dtype == r.u.dtype == np.float64 for f, r in zip(fields, refs))


@pytest.mark.parametrize("height,width,base_radius", [(192, 192, 36.0), (160, 224, 30.0)])
def test_threaded_pairs_are_the_per_pair_and_one_cpu_flows(monkeypatch, height, width,
                                                            base_radius):
    seq, _ = generate_phantom(PhantomSpec(t_count=6, height=height, width=width,
                                          base_radius=base_radius))
    assert height * width > flow.THREADED_PIXELS
    solvers = set()
    solve = flow.compute_flow
    monkeypatch.setattr(flow, "compute_flow",
                        lambda *a, **k: solvers.add(threading.get_ident()) or solve(*a, **k))
    allow_cpus(monkeypatch, {0, 1})
    before = threading.active_count()
    threaded = flow_sequence(seq)
    assert threading.active_count() == before
    assert len(solvers) == 2 and threading.get_ident() in solvers
    solvers.clear()
    allow_cpus(monkeypatch, {0})
    serial = flow_sequence(seq)
    assert solvers == {threading.get_ident()}
    per_pair = [solve(seq.frames[t], seq.frames[t + 1]) for t in range(seq.t_count - 1)]
    assert same_bytes(threaded, per_pair) and same_bytes(serial, per_pair)


def test_small_frames_stay_on_the_calling_thread(monkeypatch):
    seq, _ = generate_phantom(PhantomSpec(t_count=5, height=128, width=128, base_radius=24.0))
    solvers = set()
    solve = flow.compute_flow
    monkeypatch.setattr(flow, "compute_flow",
                        lambda *a, **k: solvers.add(threading.get_ident()) or solve(*a, **k))
    allow_cpus(monkeypatch, {0, 1})
    flow_sequence(seq)
    assert solvers == {threading.get_ident()}


def steps_then_texture(t_count, textured_from, size=160):
    """Constant frames 0.1, 0.2, ..., then smooth random texture from frame
    `textured_from` on."""
    frames = np.empty((t_count, size, size))
    for t in range(t_count):
        frames[t] = (t + 1) / 10.0
    rng = np.random.default_rng(5)
    for t in range(textured_from, t_count):
        texture = gaussian_filter(rng.random((size, size)), 2.0)
        frames[t] = 0.2 + 0.6 * (texture - texture.min()) / np.ptp(texture)
    return FrameSequence(frames=frames, ed_index=0, es_index=1)


def raised(seq, params=FlowParams()):
    with pytest.raises(NumericError) as info:
        flow_sequence(seq, params)
    return str(info.value)


def test_an_error_in_the_second_half_is_raised_as_the_serial_loop_raises_it(monkeypatch):
    # 5 pairs: the calling thread solves pairs 0-2 and the worker 3-4; at
    # alpha 1e8 constant pairs solve (to zero flow) and textured pairs fail
    seq = steps_then_texture(6, textured_from=4)
    params = FlowParams(alpha=1e8)
    allow_cpus(monkeypatch, {0})
    serial = raised(seq, params)
    assert "flow.alpha and flow.presmooth_sigma" in serial
    allow_cpus(monkeypatch, {0, 1})
    before = threading.active_count()
    assert raised(seq, params) == serial
    assert threading.active_count() == before


@pytest.mark.parametrize("failing,first", [({3}, 3), ({4}, 4), ({3, 4}, 3), ({1, 4}, 1),
                                           ({0, 3}, 0)])
def test_the_first_failing_pair_wins_on_both_paths(monkeypatch, failing, first):
    # frame t is the constant (t + 1) / 10, which names the pair it starts
    seq = steps_then_texture(6, textured_from=6)
    solve = flow.compute_flow

    def failing_solve(prev, next, params, **kw):
        t = round(prev[0, 0] * 10.0) - 1
        if t in failing:
            raise NumericError(f"pair {t}")
        return solve(prev, next, params, **kw)

    monkeypatch.setattr(flow, "compute_flow", failing_solve)
    for cpus in ({0}, {0, 1}):
        allow_cpus(monkeypatch, cpus)
        before = threading.active_count()
        assert raised(seq) == f"pair {first}"
        assert threading.active_count() == before


def traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_flow_memory_at_256_squared(monkeypatch):
    # the result block (17 pairs, 17 MiB) and two solves' working sets; a list
    # of per-pair results took 27.5 MiB serially, and 44 MiB on two threads
    # with every frame presmoothed up front. A lone solve took 10.5 MiB while
    # it held float64 gradients through its loop and stacked copies in setup.
    seq, _ = generate_phantom(PhantomSpec(t_count=18, height=256, width=256,
                                          base_radius=48.0))
    compute_flow(seq.frames[0], seq.frames[1])  # the coarse space is cached per size
    allow_cpus(monkeypatch, {0, 1})
    assert traced_peak_mib(lambda: flow_sequence(seq)) < 34.0
    assert traced_peak_mib(lambda: compute_flow(seq.frames[4], seq.frames[5])) < 9.5


def test_out_must_be_a_c_order_float64_block_of_the_frame():
    a, b = smooth_texture_pair(20, 30, seed=2)
    good = np.zeros((2, 20, 30))
    f = compute_flow(a, b, out=good)
    assert np.shares_memory(f.u, good) and same_bytes([f], [compute_flow(a, b)])
    for bad in (np.zeros((2, 30, 20)), np.zeros((2, 20, 30), np.float32),
                np.zeros((2, 20, 30), order="F")):
        with pytest.raises(DimensionError, match="out must be"):
            compute_flow(a, b, out=bad)
