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
block-preconditioned CG removes slowly. Precision is mixed: the CG vectors and the per-pixel
operator and preconditioner coefficients are float32, which halves the
memory traffic of an iteration, while the flow, the dot products and the
coarse factorization and solves are float64. Whenever the float32
residual has fallen far enough for its rounding to stall the solve, it
is recomputed from the flow in float64 and CG restarts from it, so more
iterations still converge to float64 accuracy (mixed-precision iterative
refinement). Every array has a fixed shape, the dot products are
float64 `np.einsum` sums, which call no BLAS, and the banded
factorization and solves use only BLAS calls that run in the calling
thread, so the result is deterministic and bit-reproducible whatever the
number of BLAS threads, and no BLAS worker is left spinning after a solve.
Intensity gradients are taken in 8-bit units (frames in [0,1] are
scaled by 255) so that the default regularization weight follows the
classical byte-image parameterization.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import DimensionError, NumericError, ParameterError
from .seqio import FrameSequence, read_binary, write_binary

CELL = 8  # side in pixels of the aggregation cells of the coarse correction
# The float32 residual recurrence of `_solve` drifts from the true residual
# by a few float32 roundings (6e-8) of the residual it started from. Once r.z
# has fallen by RESTART_FALL (|r| by about 1e-6) since the last (re)start,
# that drift is a sizeable share of r, so r is recomputed in float64.
RESTART_FALL = 1e-12


@dataclass(frozen=True)
class FlowParams:
    alpha: float = 15.0
    iterations: int = 22  # two-level preconditioned conjugate-gradient iterations
    presmooth_sigma: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be > 0 and finite, got {self.alpha}")
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if not (self.presmooth_sigma >= 0 and math.isfinite(self.presmooth_sigma)):
            raise ParameterError(
                f"presmooth_sigma must be >= 0 and finite, got {self.presmooth_sigma}")


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement (pixels/frame); u horizontal, v vertical."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 2:
            raise DimensionError("u and v must be matching 2-D arrays")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise NumericError("flow components must be finite")

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u, self.v)


def _presmooth(frame: np.ndarray, sigma: float) -> np.ndarray:
    return gaussian_filter(frame, sigma, mode="nearest") if sigma > 0 else frame


def compute_flow(prev: np.ndarray, next: np.ndarray,
                 params: FlowParams = FlowParams()) -> FlowField:
    """Horn-Schunck flow from `prev` to `next` (both H x W in [0,1])."""
    # C order: the solver sums neighbours over flattened views of its planes
    prev = np.ascontiguousarray(prev, dtype=np.float64)
    next = np.ascontiguousarray(next, dtype=np.float64)
    if prev.shape != next.shape:
        raise DimensionError(f"frame shapes differ: {prev.shape} vs {next.shape}")
    if prev.ndim != 2 or prev.shape[0] < 3 or prev.shape[1] < 3:
        raise DimensionError(f"frames must be at least 3x3, got {prev.shape}")

    # 8-bit intensity units; gradients from the smoothed frame average
    a = _presmooth(prev, params.presmooth_sigma) * 255.0
    b = _presmooth(next, params.presmooth_sigma) * 255.0
    avg = 0.5 * (a + b)
    ix = np.gradient(avg, axis=1)  # central differences, replicated edges
    iy = np.gradient(avg, axis=0)
    it = b - a

    if ix.shape[1] > ix.shape[0]:
        # wider than tall: solve the transposed, tall frame, whose coarse cells
        # are numbered along its shorter side (`_coarse_space`); x and y swap
        u, v = _solve(*(np.ascontiguousarray(g.T) for g in (iy, ix, it)),
                      params.alpha ** 2, params.iterations)
        return FlowField(v.T, u.T)
    return FlowField(*_solve(ix, iy, it, params.alpha ** 2, params.iterations))


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
    """a . b of two flat arrays, summed in float64 by `np.einsum` (no BLAS)."""
    return float(np.einsum("i,i->", a, b, dtype=np.float64))


def _solve(ix: np.ndarray, iy: np.ndarray, it: np.ndarray, alpha2: float,
           iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-level preconditioned conjugate gradients on the Horn-Schunck
    system, from zero.

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
    traffic of each iteration. The flow itself, both dot products and the
    coarse factorization and solves are float64. The float32 residual r,
    updated by recurrence, drifts from the true residual b - A w by about
    float32 rounding, which would stall the solve near 1e-6 relative; so
    once r.z has fallen by RESTART_FALL since the last (re)start, r is
    recomputed from w in float64 and the search restarts from it. A
    restart counts as no iteration.
    """
    k = 12.0 / alpha2
    kxx, kyy, kxy = k * ix * ix, k * iy * iy, k * ix * iy
    f32 = np.float32
    diag = np.stack([16.0 + kxx, 16.0 + kyy]).astype(f32)
    det = 12.0 * (12.0 + kxx + kyy)
    pre_diag = (np.stack([12.0 + kyy, 12.0 + kxx]) / det).astype(f32)
    pre_cross = (-kxy / det).astype(f32)

    uv = np.zeros((2,) + ix.shape)
    r = (np.stack([ix, iy]) * (-k * it)).astype(f32)  # residual of the zero start
    if not r.any():  # zero right-hand side (identical frames): stay exactly zero
        return uv[0], uv[1]
    # imported here, not at the top: scipy.linalg takes ~60 ms to import, and
    # the subcommands that compute no flow should not pay for it
    from scipy.linalg.lapack import dpbtrs

    band = np.array(_coarse_space(*ix.shape), order="F")
    data = _restrict(np.stack([kxx, kyy, kxy]))
    band[0, 0::2] += data[0].ravel()
    band[0, 1::2] += data[1].ravel()
    band[1, 0::2] = data[2].ravel()
    band[0] += 1e-9 * band[0].max()
    _cholesky_banded(band)
    kxy = kxy.astype(f32)
    del kxx, kyy, det, data  # the float64 planes are not needed in the loop

    z, p, q, tmp, rows = (np.empty_like(r) for _ in range(5))
    pairs = np.empty(r.size - 1, dtype=f32)

    def precondition(r: np.ndarray, out: np.ndarray) -> None:
        _block_apply(pre_diag, pre_cross, r, out, tmp)
        rc = _restrict(r).transpose(1, 2, 0)  # u, v of each cell
        ec, _ = dpbtrs(band, rc.ravel(), lower=1)
        _prolong_add(ec.astype(f32).reshape(rc.shape).transpose(2, 0, 1), out)

    def true_residual() -> None:
        """r = b - A w = S(w) - 16 w - k g (g . w + I_t), in float64."""
        planes = np.empty_like(uv)
        res = _stencil_sum(uv, np.empty(uv.size - 1), planes, np.empty_like(uv))
        res -= np.multiply(uv, 16.0, out=planes)
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
        if rz == 0.0:  # converged exactly
            break
        _block_apply(diag, kxy, p, q, tmp)  # q = A p = blocks(p) - S(p)
        q -= _stencil_sum(p, pairs, rows, tmp)
        step = rz / _dot(pf, qf)
        uv += np.multiply(p, step, out=tmp)
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
    return uv[0], uv[1]


def flow_sequence(seq: FrameSequence, params: FlowParams = FlowParams()) -> list[FlowField]:
    """Flow fields for each consecutive frame pair; element t maps frame t -> t+1.

    Each frame is presmoothed once, when it is reached; `compute_flow` gets
    the two smoothed frames of a pair with presmoothing switched off.
    """
    smoothed_params = replace(params, presmooth_sigma=0.0)
    nxt = _presmooth(seq.frames[0], params.presmooth_sigma)
    fields = []
    for t in range(1, seq.t_count):
        prev, nxt = nxt, _presmooth(seq.frames[t], params.presmooth_sigma)
        fields.append(compute_flow(prev, nxt, smoothed_params))
    return fields


def save_flow(flow: FlowField, path: Path | str) -> None:
    """Binary dump: magic FLW1, u32 H,W, then f32 u values then v values."""
    write_binary(path, b"FLW1", flow.u.shape,
                 (plane.astype("<f4") for plane in (flow.u, flow.v)))


def load_flow(path: Path | str) -> FlowField:
    (h, w), payload = read_binary(path, b"FLW1", 2, 2, 8)  # two f32 planes
    uv = np.frombuffer(payload, dtype="<f4").reshape(2, h, w).astype(np.float64)
    return FlowField(u=uv[0], v=uv[1])
