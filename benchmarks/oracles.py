"""Reference computations the benchmark checks the program against.

Each oracle is written here from the published formulas, not imported
from the package, so a change to the package cannot move its own yardstick:

* ``hs_reference``: the converged Horn-Schunck solution that the
  program's fixed-sweep solver approximates, certified by the classical
  Jacobi sweep run to a stated tolerance, and cached on disk;
* ``brute_force_hd95``: 95th-percentile symmetric boundary distance from
  all pairwise boundary-pixel distances;
* ``cpda_voxels``: the attention-gated modulation plus a direct 27-tap
  convolution, evaluated at single voxels.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np
from scipy.ndimage import convolve, gaussian_filter
from scipy.sparse.linalg import LinearOperator, bicgstab

# Jacobi stopping rule: max |du|, |dv| of one sweep below HS_TOL px/frame,
# checked every HS_CHECK_EVERY sweeps, at most HS_CAP sweeps.
HS_TOL = 1e-6
HS_CAP = 20000
HS_CHECK_EVERY = 10
# relative residual of the Krylov warm start
_KRYLOV_RTOL = 1e-8
# bump when the reference computation changes, so old cache entries miss
_HS_VERSION = b"hs-jacobi-v1"
_HS_CACHE_KEEP = 32

_AVG_KERNEL = np.array([[1 / 12, 1 / 6, 1 / 12],
                        [1 / 6, 0.0, 1 / 6],
                        [1 / 12, 1 / 6, 1 / 12]])[None]


def _hs_terms(prev: np.ndarray, nxt: np.ndarray, alpha: float, sigma: float):
    """Gradients of a (P, H, W) stack of frame pairs, classical byte-image setup.

    Gaussian presmoothing with replicated edges, intensities x255, central
    differences of the pair average, temporal difference next - prev.
    """
    smooth = (0.0, sigma, sigma)
    a = (gaussian_filter(prev, smooth, mode="nearest") if sigma > 0 else prev) * 255.0
    b = (gaussian_filter(nxt, smooth, mode="nearest") if sigma > 0 else nxt) * 255.0
    avg = 0.5 * (a + b)
    ix = np.gradient(avg, axis=2)
    iy = np.gradient(avg, axis=1)
    return ix, iy, b - a, alpha ** 2 + ix ** 2 + iy ** 2


def _krylov_start(ix, iy, it, denom) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve the fixed-point equations of the Jacobi sweep with BiCGSTAB.

    The sweep is x <- J x + c; its fixed point solves (I - J) x = c, which
    a Krylov method reaches in a few hundred operator applications where
    plain sweeps from zero need about a thousand.
    """
    shape, n = ix.shape, ix.size
    calls = 0

    def apply(x):
        nonlocal calls
        calls += 1
        u, v = x[:n].reshape(shape), x[n:].reshape(shape)
        u_bar = convolve(u, _AVG_KERNEL, mode="nearest")
        v_bar = convolve(v, _AVG_KERNEL, mode="nearest")
        common = (ix * u_bar + iy * v_bar) / denom
        return np.concatenate([(u - u_bar + ix * common).ravel(),
                               (v - v_bar + iy * common).ravel()])

    rhs = np.concatenate([(-ix * it / denom).ravel(), (-iy * it / denom).ravel()])
    op = LinearOperator((2 * n, 2 * n), matvec=apply, dtype=np.float64)
    x, _ = bicgstab(op, rhs, rtol=_KRYLOV_RTOL, atol=0.0, maxiter=HS_CAP)
    return x[:n].reshape(shape), x[n:].reshape(shape), calls


def _jacobi(ix, iy, it, denom, u, v) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Horn-Schunck Jacobi sweeps from (u, v) until the stopping rule holds."""
    for sweep in range(1, HS_CAP + 1):
        u_bar = convolve(u, _AVG_KERNEL, mode="nearest")
        v_bar = convolve(v, _AVG_KERNEL, mode="nearest")
        common = (ix * u_bar + iy * v_bar + it) / denom
        u_new = u_bar - ix * common
        v_new = v_bar - iy * common
        if sweep % HS_CHECK_EVERY == 0:
            step = float(max(np.abs(u_new - u).max(), np.abs(v_new - v).max()))
            if step < HS_TOL:
                return u_new, v_new, sweep, step
        u, v = u_new, v_new
    raise RuntimeError(f"Horn-Schunck reference did not reach {HS_TOL} in {HS_CAP} sweeps")


def hs_reference(prev: np.ndarray, nxt: np.ndarray, alpha: float, sigma: float,
                 cache_dir: Path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Converged Horn-Schunck flow (u, v as float32 stacks) for each frame pair.

    A BiCGSTAB solve of the sweep's fixed point gives the start; the
    Jacobi sweep then runs from it until max |du|, |dv| < HS_TOL, which
    certifies the result whatever the Krylov solver did. Results are
    cached under `cache_dir`, keyed by a digest of the frames, the flow
    parameters and the solver settings. Values are rounded to float32 on
    both the computing and the cached path, so a metric derived from them
    repeats exactly. The dict reports the work done.
    """
    prev = np.ascontiguousarray(prev, dtype=np.float64)
    nxt = np.ascontiguousarray(nxt, dtype=np.float64)
    h = hashlib.blake2b(_HS_VERSION, digest_size=16)
    rule = np.array([alpha, sigma, HS_TOL, HS_CAP, HS_CHECK_EVERY, _KRYLOV_RTOL])
    for part in (prev, nxt, rule):
        h.update(part.tobytes())
        h.update(repr(part.shape).encode())
    path = cache_dir / f"{h.hexdigest()}.npz"
    if path.is_file():
        with np.load(path) as cached:
            info = {"krylov_applications": int(cached["krylov"]),
                    "jacobi_sweeps": int(cached["sweeps"]),
                    "final_step": float(cached["step"]), "cached": True}
            return cached["u"], cached["v"], info
    terms = _hs_terms(prev, nxt, alpha, sigma)
    u, v, krylov = _krylov_start(*terms)
    u, v, sweeps, step = _jacobi(*terms, u, v)
    u, v = u.astype(np.float32), v.astype(np.float32)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
    np.savez(tmp, u=u, v=v, krylov=krylov, sweeps=sweeps, step=step)
    os.replace(tmp, path)
    entries = sorted(cache_dir.glob("*.npz"), key=lambda p: p.stat().st_mtime)
    for old in entries[:-_HS_CACHE_KEEP]:
        old.unlink(missing_ok=True)
    info = {"krylov_applications": krylov, "jacobi_sweeps": sweeps,
            "final_step": step, "cached": False}
    return u, v, info


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with a non-mask pixel among their 8 neighbours (outside counts)."""
    pad = np.pad(mask, 1, constant_values=False)
    h, w = mask.shape
    interior = np.ones_like(mask)
    for dy in range(3):
        for dx in range(3):
            interior &= pad[dy:dy + h, dx:dx + w]
    return mask & ~interior


def brute_force_hd95(a: np.ndarray, b: np.ndarray) -> float:
    """HD95 from every boundary-to-boundary distance (linear-interpolated percentile)."""
    pa = np.argwhere(_boundary(np.asarray(a, dtype=bool))).astype(np.float64)
    pb = np.argwhere(_boundary(np.asarray(b, dtype=bool))).astype(np.float64)
    d2 = (pa[:, None, 0] - pb[None, :, 0]) ** 2 + (pa[:, None, 1] - pb[None, :, 1]) ** 2
    dists = np.concatenate([np.sqrt(d2.min(axis=1)), np.sqrt(d2.min(axis=0))])
    return float(np.percentile(dists, 95))


def _relu_mlp(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def cpda_voxels(x: np.ndarray, pedg: np.ndarray, ed: int, es: int, weights,
                voxels: np.ndarray) -> np.ndarray:
    """Expected enhanced values at `voxels` (rows t, y, x, c) of clip `x` (T,H,W,C).

    Tokens are [per-frame channel means, phase MLP of (sin, cos) of the
    linear ED/ES phase, dynamics MLP of P_EDG]; one self-attention layer
    per head over time, a sigmoid gate S per frame and channel, and
    X_mod = X (1 + alpha (2S - 1)). The output is 0.5 X_mod + 0.5 conv(X_mod),
    with the 3x3x3 zero-padded convolution summed tap by tap.
    """
    t_count, hh, ww, _ = x.shape
    t = np.arange(t_count, dtype=np.float64)
    phi = np.mod((t - ed) / (2.0 * abs(es - ed)), 1.0)
    angle = 2.0 * np.pi * phi
    f_phase = _relu_mlp(np.stack([np.sin(angle), np.cos(angle)], axis=1),
                        weights.phase_w1, weights.phase_b1,
                        weights.phase_w2, weights.phase_b2)
    f_edg = _relu_mlp(pedg, weights.edg_w1, weights.edg_b1,
                      weights.edg_w2, weights.edg_b2)
    tokens = np.concatenate([x.mean(axis=(1, 2)), f_phase, f_edg], axis=1)
    d = tokens.shape[1]
    dh = d // weights.heads
    heads = []
    for k in range(weights.heads):
        cols = slice(k * dh, (k + 1) * dh)
        q = tokens @ weights.wq[:, cols]
        kk = tokens @ weights.wk[:, cols]
        v = tokens @ weights.wv[:, cols]
        scores = q @ kk.T / np.sqrt(dh)
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append((p / p.sum(axis=1, keepdims=True)) @ v)
    attn = np.concatenate(heads, axis=1) @ weights.wo
    gate = 1.0 / (1.0 + np.exp(-(attn @ weights.gate_w + weights.gate_b)))
    factor = 1.0 + weights.alpha * (2.0 * gate - 1.0)  # T x C

    expected = np.empty(len(voxels))
    for i, (vt, vy, vx, vc) in enumerate(voxels):
        conv = weights.conv_bias[vc]
        for dt in range(3):
            for dy in range(3):
                for dx in range(3):
                    st, sy, sx = vt + dt - 1, vy + dy - 1, vx + dx - 1
                    if 0 <= st < t_count and 0 <= sy < hh and 0 <= sx < ww:
                        src = x[st, sy, sx] * factor[st]
                        conv += float(src @ weights.conv_kernel[vc, :, dt, dy, dx])
        expected[i] = 0.5 * x[vt, vy, vx, vc] * factor[vt, vc] + 0.5 * conv
    return expected
