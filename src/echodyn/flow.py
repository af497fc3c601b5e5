"""Dense optical flow between consecutive frames (Horn-Schunck).

The flow w = (u, v) minimizes the classical brightness-constancy +
smoothness energy. Its Euler-Lagrange equations, discretized with the
weighted 8-neighbour average `avg` (replicated edges), are the linear
system

    alpha^2 (w - avg(w)) + g (g . w) = -g I_t,    g = (I_x, I_y),

whose fixed point the classical Jacobi iteration approaches. The matrix
is symmetric positive definite: the averaging kernel is symmetric and
replicating the edge folds it back symmetrically, so alpha^2 (1 - avg)
is positive semi-definite with only constant flow in its null space, and
the rank-one data term g g^T is positive wherever the image has a
gradient. The system is solved by conjugate gradients from zero flow,
for a fixed number of iterations, with a two-level additive
preconditioner: each pixel's own 2x2 block, plus an exact solve on a
coarse space of flows that are constant over CELL x CELL pixel cells
(the Galerkin product P^T A P, factored once per frame pair by banded
Cholesky; a frame wider than tall is solved as its transpose, so that
band follows the shorter side). The per-pixel blocks damp the rough part
of the error and the coarse solve the smooth part, which plain
block-preconditioned CG removes slowly. Precision is mixed: the CG
vectors, their dot products and the per-pixel operator and preconditioner
coefficients are float32, which halves the memory traffic of an
iteration, while the flow and the coarse factorization and solves are
float64. A pair whose coefficients float32 cannot hold (a large or a
small alpha) is solved by the same loop in float64 (`_working_dtype`),
and a system that float64 cannot hold either is a NumericError. Whenever
the float32 residual has fallen far enough for its rounding to stall the
solve, it is recomputed from the flow in float64 and CG restarts from it,
so more iterations still converge to float64 accuracy (mixed-precision
iterative refinement). Every array has a fixed shape, the dot products
are `np.einsum` sums in the working precision, which call no BLAS and
whose order follows only the length, and the banded factorization and
solves use only BLAS calls that run in the calling thread, so the result
is deterministic and bit-reproducible whatever the number of BLAS threads
and wherever the frames lie in memory, and no BLAS worker is left
spinning after a solve.
Intensity gradients are taken in 8-bit units (frames in [0,1] are
scaled by 255) so that the default regularization weight follows the
classical byte-image parameterization.

`flow_sequence` writes every pair's flow into its slot of one zeroed
(T-1, 2, H, W) float64 result block, allocated up front, and returns views
of it. Pairs of frames over THREADED_PIXELS (128 x 128) are split into two
contiguous halves when the process may run on two CPUs or more: the
calling thread solves the first half while one worker thread solves the
second. Every pair is solved on its own, so the flows are the same bits on
one thread or two. The gate is measured, in ms per pair, serial against two
threads (in-process, 17 pairs, medians of 7-11 alternating rounds, 2-vCPU
shared x86 VM): 96^2 5.0 vs 4.8 and, in a second run, 6.9 vs 7.0, 128^2
7.5 vs 7.8 and 7.2 vs 9.8, 160^2 14.6 vs 12.6, 192^2 16.3 vs 12.7, 256^2
40.9 vs 25.5; at and below the gate the two threads lose as much to
contention for the GIL as the second core gives, or more. The result block, and a solve that keeps
no float64 gradients in its loop, hold the process's peak memory near the
serial loop's: with per-pair result arrays, two threads' churn left glibc
holding a fragmented heap (peak RSS of a 256^2 x 18 edg benchmark run
+13%, against +5.5% with the block).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import DimensionError, NumericError, ParameterError, check_range, square_is_normal
from .halves import in_halves
from .seqio import FrameSequence, encode_f32, read_binary, write_binary

CELL = 8  # side in pixels of the aggregation cells of the coarse correction
# The float32 residual recurrence of `_solve` drifts from the true residual
# by a few float32 roundings (6e-8) of the residual it started from. Once r.z
# has fallen by RESTART_FALL (|r| by about 1e-6) since the last (re)start,
# that drift is a sizeable share of r, so r is recomputed in float64.
RESTART_FALL = 1e-12
# A precision holds a pair's system while its rounding of the diagonal
# 16 + k I_x^2, 16 + k I_y^2 loses at most MAX_LOST of the sum of the data
# terms k I_x^2 + k I_y^2. On phantom pairs float32 loses 6e-8 to 6e-7 of
# it at the default alpha, 2-14% at 1e4 and all of it from 1e6; float64
# loses about 2e-8 at 1e5 and 2e-4 at 1e7. `_solve` also leaves float32
# once a data term passes F32_MAX_COEF (below 89 at the default alpha):
# float32 rounds a term by up to 2^-24 of it, 0.06 at F32_MAX_COEF or 0.4%
# of the smoothness weight 16, and a larger error perturbs the operator
# across the gradient, where only smoothness holds the flow. Solved to
# convergence, float32 pairs match float64 within 3e-16 up to 1e6, 2e-11
# at 1e7 and 7e-2 at 1e8 on 32^2-256^2 pairs, and p.Ap turns negative at
# 3e8 (then a NumericError).
MAX_LOST = 1e-4
F32_MAX_COEF = 1e6
# presmoothing wider than this flattens any frame; its Gaussian has 8 sigma + 1
# taps (0.36 s a 256 x 256 frame at this bound)
MAX_PRESMOOTH_SIGMA = 1000.0
# `flow_sequence` solves the pairs of frames larger than this on two threads;
# smaller pairs lose more to contention for the GIL than the second core gives
THREADED_PIXELS = 128 * 128
_UNSOLVABLE = ("float64 cannot hold the flow system at this flow.alpha and "
               "flow.presmooth_sigma")


@dataclass(frozen=True)
class FlowParams:
    alpha: float = 15.0
    iterations: int = 22  # two-level preconditioned conjugate-gradient iterations
    presmooth_sigma: float = 1.0

    def __post_init__(self):
        if not square_is_normal(self.alpha):
            raise ParameterError("alpha must be > 0 and finite, with alpha * alpha a normal, "
                                 f"finite float, got {self.alpha}")
        check_range("iterations", self.iterations, 1)
        check_range("presmooth_sigma", self.presmooth_sigma, 0, MAX_PRESMOOTH_SIGMA)


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement (pixels/frame); u horizontal, v vertical."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 2 or 0 in self.u.shape:
            raise DimensionError("u and v must be matching 2-D arrays, each side >= 1")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise NumericError("flow components must be finite")

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u, self.v)


def _presmooth(frame: np.ndarray, sigma: float) -> np.ndarray:
    return gaussian_filter(frame, sigma, mode="nearest") if sigma > 0 else frame


def compute_flow(prev: np.ndarray, next: np.ndarray, params: FlowParams = FlowParams(),
                 *, out: np.ndarray | None = None) -> FlowField:
    """Horn-Schunck flow from `prev` to `next` (both H x W in [0,1]).

    `out`, if given, is a zeroed C-order float64 (2, H, W) block that the
    solve writes the flow into, u then v; for a frame wider than tall it
    holds them transposed, as (2, W, H) v then u. The returned field is a
    view of it. `flow_sequence` passes each pair's slot of its result block.
    """
    # C order: the solver sums neighbours over flattened views of its planes
    prev = np.ascontiguousarray(prev, dtype=np.float64)
    next = np.ascontiguousarray(next, dtype=np.float64)
    if prev.shape != next.shape:
        raise DimensionError(f"frame shapes differ: {prev.shape} vs {next.shape}")
    if prev.ndim != 2 or prev.shape[0] < 3 or prev.shape[1] < 3:
        raise DimensionError(f"frames must be at least 3x3, got {prev.shape}")
    if out is None:
        out = np.zeros((2,) + prev.shape)
    elif not (out.shape == (2,) + prev.shape and out.dtype == np.float64
              and out.flags.c_contiguous):
        raise DimensionError(f"out must be a C-order float64 (2, {prev.shape[0]}, "
                             f"{prev.shape[1]}) block, got {out.dtype} {out.shape}")
    # wider than tall: solve the transposed, tall frame, whose coarse cells are
    # numbered along its shorter side (`_coarse_space`); x and y swap
    wide = prev.shape[1] > prev.shape[0]
    uv = out.reshape((2,) + prev.shape[::-1]) if wide else out
    gradients = functools.partial(_gradients, _presmooth(prev, params.presmooth_sigma),
                                  _presmooth(next, params.presmooth_sigma), wide)

    # an overflow, invalid value or division by zero: not even float64 holds the system
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            _solve(gradients, params.alpha ** 2, params.iterations, uv)
        except FloatingPointError as exc:
            raise NumericError(f"{_UNSOLVABLE}: {exc}") from None
    return FlowField(uv[1].T, uv[0].T) if wide else FlowField(uv[0], uv[1])


def _gradients(prev: np.ndarray, next: np.ndarray, wide: bool) -> np.ndarray:
    """(I_x, I_y, I_t) of two smoothed frames as one (3, H, W) float64 block, in
    8-bit intensity units: central differences with replicated edges of the
    frames' average, and their difference. For a frame wider than tall, those
    of its transpose: (I_y^T, I_x^T, I_t^T), (3, W, H)."""
    a = prev * 255.0
    b = next * 255.0
    it = b - a
    a += b
    a *= 0.5  # the average
    ix, iy = np.gradient(a, axis=1), np.gradient(a, axis=0)
    # np.array, not np.stack: a stack of transposed planes keeps their Fortran order
    return np.array([iy.T, ix.T, it.T] if wide else [ix, iy, it])


def _sum_121(src: np.ndarray, shift: int, pairs: np.ndarray, out: np.ndarray) -> None:
    """out = [1,2,1] sum along the axis of flat stride `shift`, as two
    neighbour-pair sums over the flattened buffers (cheaper than 3-D
    slices); the sums that straddle a row or plane end are left wrong."""
    flat = src.reshape(-1)
    pairs = pairs[:flat.size - shift]
    np.add(flat[:-shift], flat[shift:], out=pairs)
    np.add(pairs[:-shift], pairs[shift:], out=out.reshape(-1)[shift:-shift])


def _stencil_sum(w: np.ndarray, pairs: np.ndarray, rows: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """[1,2,1] x [1,2,1] sum over each plane of `w` (2, H, W), replicated edges.

    At an edge the replicated neighbour makes the [1,2,1] sum 3 w_edge + w_next.
    """
    _sum_121(w, 1, pairs, rows)
    for edge, inner in ((0, 1), (-1, -2)):
        np.multiply(w[:, :, edge], 3.0, out=rows[:, :, edge])
        rows[:, :, edge] += w[:, :, inner]
    _sum_121(rows, w.shape[2], pairs, out)
    for edge, inner in ((0, 1), (-1, -2)):
        np.multiply(rows[:, edge], 3.0, out=out[:, edge])
        out[:, edge] += rows[:, inner]
    return out


def _block_apply(diag: np.ndarray, cross: np.ndarray, x: np.ndarray,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-pixel symmetric 2x2 blocks [[d0, c], [c, d1]] times x = (x0, x1)."""
    np.multiply(diag, x, out=out)
    np.multiply(cross, x, out=scratch)
    out[0] += scratch[1]
    out[1] += scratch[0]
    return out


@functools.lru_cache(maxsize=4)
def _coarse_space(h: int, w: int) -> np.ndarray:
    """Read-only smoothness part of A_c for an H x W image, built once per
    image size: the Galerkin product P^T (16 - S) P of the CELL x CELL cell
    aggregation P (the last row and column of cells shorter when CELL does
    not divide H or W) and the [1,2,1] x [1,2,1] sum S with replicated
    edges. Both factor by axis, so it is 16 diag(n_y (x) n_x) - T_y (x) T_x,
    n the cell sizes and T = P_1^T S_1 P_1, formed from 1-D sparse factors;
    every entry is a small integer, so the band is exact. It is stored in
    LAPACK's lower band form (row d holds the entries (j + d, j)) over the
    unknowns u, v of cell (I, J) at 2 n and 2 n + 1, with the cells numbered
    row by row, n = I Wc + J, so that the band is 2 Wc + 3 rows deep.
    `compute_flow` solves a frame wider than tall as its transpose, so Wc
    is the shorter side.
    """
    # imported here, as scipy.linalg is in `_solve`: only flow needs it
    from scipy import sparse

    def factors(n: int):
        """The cell sizes P_1^T 1 and T = P_1^T S_1 P_1 along an axis of n pixels."""
        p = sparse.csr_array((np.ones(n), (np.arange(n), np.arange(n) // CELL)))
        s1 = sparse.diags_array([1.0, 2.0, 1.0], offsets=(-1, 0, 1), shape=(n, n), format="lil")
        s1[0, 0] = s1[-1, -1] = 3.0  # an edge pixel's replicated neighbour is itself
        return p.sum(axis=0), p.T @ s1 @ p

    (ny, ty), (nx, tx) = factors(h), factors(w)
    a = sparse.kron(16.0 * sparse.diags_array(np.outer(ny, nx).ravel()) - sparse.kron(ty, tx),
                    sparse.eye_array(2))
    band = np.zeros((2 * nx.size + 3, a.shape[0]))
    for d in range(min(band.shape)):
        band[d, :band.shape[1] - d] = a.diagonal(-d)
    band.flags.writeable = False
    return band


@functools.lru_cache(maxsize=1)
def _dpbtf2():
    """LAPACK's unblocked banded Cholesky, dpbtf2, as a ctypes function.

    `scipy.linalg.cholesky_banded` calls the blocked dpbtrf, which for a
    bandwidth of 32 or more works on 32-column blocks with level-3 BLAS.
    At 256 x 256 (bandwidth 66) OpenBLAS hands those blocks to a worker
    thread, which then spins for about 130 ms of the second core after
    every factorization (2-core x86, OpenBLAS 0.3.31). dpbtf2 does the same arithmetic with level-2
    calls that stay in the calling thread, and is no slower at these
    sizes. Its Fortran entry point comes from the capsules of
    `scipy.linalg.cython_lapack`, so it is the LAPACK scipy itself uses.
    """
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dpbtf2"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    int_p = ctypes.POINTER(ctypes.c_int)
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, int_p, int_p, ctypes.c_void_p,
                                 int_p, int_p)
    return prototype(get_pointer(capsule, get_name(capsule)))


def _cholesky_banded(ab: np.ndarray) -> None:
    """Overwrite ab, a symmetric positive definite matrix in LAPACK's lower
    band form (kd + 1, n) held in Fortran order, with its Cholesky factor
    in the same form."""
    if not (ab.flags.f_contiguous and ab.dtype == np.float64):
        raise ValueError("the band must be a Fortran-ordered float64 array")
    info = ctypes.c_int(0)
    _dpbtf2()(b"L", ctypes.c_int(ab.shape[1]), ctypes.c_int(ab.shape[0] - 1),
              ab.ctypes.data, ctypes.c_int(ab.shape[0]), info)
    if info.value != 0:
        raise np.linalg.LinAlgError(
            f"{info.value}-th leading minor not positive definite")


def _restrict(x: np.ndarray) -> np.ndarray:
    """Sums of x (..., H, W) over each cell: (..., Hc, Wc).

    The rows are summed first, over a reshaped contiguous view for every
    full row of cells and directly for the last one."""
    *lead, h, w = x.shape
    full = CELL * ((h - 1) // CELL)
    rows = np.empty((*lead, full // CELL + 1, w), dtype=x.dtype)
    x[..., :full, :].reshape(*lead, full // CELL, CELL, w).sum(axis=-2, out=rows[..., :-1, :])
    x[..., full:, :].sum(axis=-2, out=rows[..., -1, :])
    return np.add.reduceat(rows, np.arange(0, w, CELL), axis=-1)


def _prolong_add(coarse: np.ndarray, out: np.ndarray) -> None:
    """out (2, H, W) += the value of each cell of coarse (2, Hc, Wc) on its pixels."""
    w = out.shape[2]
    cols = np.repeat(coarse, CELL, axis=2)[:, :, :w]  # (2, Hc, W)
    full = CELL * ((out.shape[1] - 1) // CELL)
    out[:, :full].reshape(2, full // CELL, CELL, w)[...] += cols[:, :-1, None, :]
    out[:, full:] += cols[:, -1:]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two flat arrays, summed by `np.einsum` in their own precision.

    The sum calls no BLAS, and its order follows only the length, so the
    bits depend neither on the thread count nor on where the arrays start.
    In float32 it costs a quarter of the float64-accumulated sum, and the
    float64 restarts of `_solve` recover what it rounds away.

    The sums taken, r.z and p.Ap, come to at most 49/9 times the squared
    A-norm of the error at the last (re)start (the preconditioned operator's
    eigenvalues lie in (0, 4/3 + 1]), which is at most k sum I_t^2. Once
    `_working_dtype` has picked float32, each data term k I_x^2, k I_y^2 is
    at most F32_MAX_COEF, and frames in [0, 1] give |I_t| <= 255; so while
    any gradient reaches one grey level per pixel, k <= F32_MAX_COEF and the
    sums stay below 4e11 per pixel, far inside float32's 3.4e38. Only frames
    flat to far below a grey level per pixel everywhere, at a tiny alpha,
    can carry a float32 sum past that range (a 64 x 64 ramp of 3e-13 grey
    levels per pixel at alpha 1.1e-15 does); a sum that comes out inf or
    nan is taken again in float64. Small sums underflow instead: float32
    products vanish below about 1e-45, so r.z reads 0.0, and the solve
    stops as converged, once |r| falls below about 1e-22.
    """
    total = float(np.einsum("i,i->", a, b))
    return total if math.isfinite(total) else float(np.einsum("i,i->", a, b, dtype=np.float64))


def _working_dtype(diag: np.ndarray, kxx: np.ndarray, kyy: np.ndarray) -> type:
    """np.float32 when float32 holds a pair's system, else np.float64 when
    float64 does, else a NumericError (see MAX_LOST and F32_MAX_COEF).

    `diag` (2, H, W) holds the float64 diagonals 16 + k I_x^2 and
    16 + k I_y^2, and `kxx`, `kyy` the data terms k I_x^2 and k I_y^2.
    """
    def lost(d: np.ndarray) -> float:
        """The part of the data terms that the diagonal planes `d` round away."""
        return np.abs(d[0] - 16.0 - kxx).sum() + np.abs(d[1] - 16.0 - kyy).sum()

    bound = MAX_LOST * (kxx.sum() + kyy.sum())
    if max(kxx.max(), kyy.max()) <= F32_MAX_COEF and lost(diag.astype(np.float32)) <= bound:
        return np.float32
    if lost(diag) <= bound:
        return np.float64
    raise NumericError(f"{_UNSOLVABLE}: float64 rounds away over {MAX_LOST:g} of the data term")


def _solve(gradients, alpha2: float, iterations: int, uv: np.ndarray) -> None:
    """Two-level preconditioned conjugate gradients on the Horn-Schunck
    system, from the zero flow in `uv` (2, H, W), which receives the flow.
    `gradients()` returns a fresh (3, H, W) block of I_x, I_y and I_t.

    With S the [1,2,1] x [1,2,1] sum, avg(w) = S(w)/12 - w/3, so k = 12/alpha^2
    times the system reads A w = (16 - S) w + k g (g . w) = -k g I_t: same
    solution, no scaling of S. The preconditioner is additive,
    z = M^-1 r + P A_c^-1 P^T r. M = 12 + k g g^T is each pixel's block of
    A in the interior, inverted in closed form:
    [[12+k Iy^2, -k IxIy], [-k IxIy, 12+k Ix^2]] / (12 (12 + k |g|^2)).
    P aggregates CELL x CELL pixels, and A_c = P^T A P is factored once per
    pair by unblocked banded Cholesky: it removes the smooth error that the
    per-pixel blocks leave to CG. A_c is singular when every gradient is
    parallel (the constant flow across them costs nothing), so its
    diagonal gets a shift of 1e-9 times its largest entry.

    Precision is mixed. The Krylov vectors r, z, p, q, their scratch planes
    and the coefficients of A and M are float32, which halves the memory
    traffic of each iteration, unless float32 cannot hold the coefficients
    (`_working_dtype`): then they are float64 too. Both dot products are
    summed in that working precision (`_dot`). The flow itself and the coarse
    factorization and solves are float64; the steps taken are summed in the
    working precision and added to the flow at each restart and at the end,
    which keeps a mixed float64 += float32 pass out of every iteration. As A is
    positive definite, p.Ap <= 0 or not finite means that even float64 cannot
    hold the system, a NumericError. The float32 residual r,
    updated by recurrence, drifts from the true residual b - A w by about
    float32 rounding, which would stall the solve near 1e-6 relative; so
    once r.z has fallen by RESTART_FALL since the last (re)start, r is
    recomputed from w in float64 and the search restarts from it. A
    restart counts as no iteration. The float64 gradients are dropped once
    the coefficients are built and asked for again at a restart, which
    keeps them out of the loop's working set.
    """
    g = gradients()
    k = 12.0 / alpha2
    coef = np.empty_like(g)  # k I_x^2, k I_y^2, k I_x I_y
    kg = k * g[:2]
    np.multiply(kg, g[:2], out=coef[:2])
    np.multiply(kg[0], g[1], out=coef[2])
    rhs = g[:2] * (-k * g[2])  # b, the residual of the zero start
    del g, kg
    kxx, kyy, kxy = coef
    diag = 16.0 + coef[:2]
    dtype = _working_dtype(diag, kxx, kyy)
    diag = diag.astype(dtype, copy=False)
    det = 12.0 * (12.0 + kxx + kyy)
    pre_diag = ((12.0 + coef[1::-1]) / det).astype(dtype, copy=False)
    pre_cross = (-kxy / det).astype(dtype, copy=False)

    r = rhs.astype(dtype, copy=False)
    del rhs
    if not r.any():  # zero right-hand side (identical frames): stay exactly zero
        return
    # imported here, not at the top: scipy.linalg takes ~60 ms to import, and
    # the subcommands that compute no flow should not pay for it
    from scipy.linalg.lapack import dpbtrs

    band = np.array(_coarse_space(*uv.shape[1:]), order="F")
    data = _restrict(coef)
    band[0, 0::2] += data[0].ravel()
    band[0, 1::2] += data[1].ravel()
    band[1, 0::2] = data[2].ravel()
    band[0] += 1e-9 * band[0].max()
    _cholesky_banded(band)
    kxy = kxy.astype(dtype, copy=False)
    del coef, kxx, kyy, det, data  # the float64 planes are not needed in the loop

    z, p, q, tmp, rows = (np.empty_like(r) for _ in range(5))
    steps = np.zeros_like(r)  # the sum of step p since uv last took it
    pairs = np.empty(r.size - 1, dtype=dtype)

    def precondition(r: np.ndarray, out: np.ndarray) -> None:
        _block_apply(pre_diag, pre_cross, r, out, tmp)
        rc = _restrict(r).transpose(1, 2, 0)  # u, v of each cell
        ec, _ = dpbtrs(band, rc.ravel(), lower=1)
        _prolong_add(ec.astype(dtype, copy=False).reshape(rc.shape).transpose(2, 0, 1), out)

    def true_residual() -> None:
        """Add the steps taken to w; r = b - A w = S(w) - 16 w - k g (g . w + I_t),
        in float64."""
        np.add(uv, steps, out=uv)
        steps.fill(0)
        planes = np.empty_like(uv)
        res = _stencil_sum(uv, np.empty(uv.size - 1), planes, np.empty_like(uv))
        res -= np.multiply(uv, 16.0, out=planes)
        ix, iy, it = gradients()
        flux = (ix * uv[0] + iy * uv[1] + it) * k
        res[0] -= ix * flux
        res[1] -= iy * flux
        r[...] = res

    rf, zf, pf, qf = (a.reshape(-1) for a in (r, z, p, q))

    def start() -> float:
        """Start the search from r: p = z = the preconditioned r; returns r.z."""
        precondition(r, z)
        p[...] = z
        return _dot(rf, zf)

    rz = rz_start = start()
    for _ in range(iterations):
        if rz == 0.0:  # converged exactly, or |r| below float32's products (`_dot`)
            break
        _block_apply(diag, kxy, p, q, tmp)  # q = A p = blocks(p) - S(p)
        q -= _stencil_sum(p, pairs, rows, tmp)
        pq = _dot(pf, qf)
        if not 0.0 < pq < math.inf:
            raise NumericError(f"{_UNSOLVABLE}: p.Ap = {pq}")
        step = rz / pq
        steps += np.multiply(p, step, out=tmp)
        r -= np.multiply(q, step, out=tmp)
        precondition(r, z)
        rz_next = _dot(rf, zf)
        if rz_next < RESTART_FALL * rz_start:
            true_residual()
            rz = rz_start = start()
        else:
            p *= rz_next / rz
            p += z
            rz = rz_next
    uv += steps


def flow_sequence(seq: FrameSequence, params: FlowParams = FlowParams()) -> list[FlowField]:
    """Flow fields for each consecutive frame pair; element t maps frame t -> t+1.

    Every pair's solve writes its flow into its own slot of one zeroed
    (T-1, 2, H, W) float64 result block, allocated up front, and the fields
    are views of their slots. A frame larger than THREADED_PIXELS, in a
    process that may run on two CPUs or more, has its pairs split into two
    contiguous halves (`halves.in_halves`): the calling thread solves the
    first while one worker thread solves the second, and the worker is
    joined before this returns or raises. Each pair is solved alone, so the
    flows are the same bits either way. An error in either half is raised
    as the serial loop would raise it, the first half's if both fail.

    Each frame is presmoothed once, when its half reaches it (the frame on
    the boundary of the halves once in each); `compute_flow` gets the two
    smoothed frames of a pair with presmoothing switched off.
    """
    count = seq.t_count - 1
    flows = np.zeros((count, 2) + seq.shape)
    fields: list[FlowField] = [None] * count
    smoothed_params = replace(params, presmooth_sigma=0.0)

    def solve(first: int, stop: int) -> None:
        nxt = _presmooth(seq.frames[first], params.presmooth_sigma)
        for t in range(first, stop):
            prev, nxt = nxt, _presmooth(seq.frames[t + 1], params.presmooth_sigma)
            fields[t] = compute_flow(prev, nxt, smoothed_params, out=flows[t])

    in_halves(solve, count, math.prod(seq.shape) > THREADED_PIXELS)
    return fields


def save_flow(flow: FlowField, path: Path | str) -> None:
    """Binary dump: magic FLW1, u32 H,W, then f32 u values then v values. A
    value past the float32 range is a NumericError, and leaves no file."""
    write_binary(path, b"FLW1", flow.u.shape,
                 (encode_f32(plane, "flow") for plane in (flow.u, flow.v)))


def load_flow(path: Path | str) -> FlowField:
    """A FLW1 flow whose u and v are read-only float32 views of the file's bytes."""
    (h, w), payload = read_binary(path, b"FLW1", 2, 2, 8)  # two f32 planes
    uv = np.frombuffer(payload, "<f4").reshape(2, h, w)
    return FlowField(u=uv[0], v=uv[1])
