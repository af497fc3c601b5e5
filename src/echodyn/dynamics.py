"""RBF-network modeling of descriptor dynamics and the resulting EDG.

The one-step state change dz_t = z_{t+1} - z_t is approximated by a
Gaussian RBF network whose centers come from k-means over the trajectory.
Weights are learned by cycling a per-sample LMS update over the frames,
or, with `RbfConfig.fit` "ls", by a closed-form ridge solve. Prediction
residuals weight the kernel responses into per-frame energy vectors E_t,
which are remapped onto the polar sector grid (the EDG) and reduced a
second time by PCA into the low-dimensional per-frame feature P_EDG.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .descriptor import (
    PcaModel,
    ScalerModel,
    SectorGrid,
    fit_pca,
    project,
    sector_index_map,
)
from .errors import (
    INT64_MAX,
    DivergenceError,
    InsufficientDataError,
    ModelError,
    ParameterError,
    check_shapes,
)
from .seqio import quantize_frame, read_csv, write_csv, write_pgm, write_series


def _sigma_fits(sigma: float) -> bool:
    """Whether `sigma` is > 0 with sigma * sigma a normal, finite float:
    `rbf_response` divides by the square."""
    return sigma > 0 and sys.float_info.min <= sigma * sigma < math.inf


@dataclass(frozen=True)
class RbfConfig:
    m_centers: int = 16
    sigma: float | None = None  # None: median pairwise center distance at fit time
    learn_rate: float = 0.05
    epochs: int = 200
    ridge: float = 1e-6
    fit: str = "lms"  # weight fit: "lms" (incremental) or "ls" (closed-form ridge)

    def __post_init__(self):
        if not 1 <= self.m_centers <= INT64_MAX:
            raise ParameterError(f"m_centers must be >= 1 and fit int64, got {self.m_centers}")
        if not (self.learn_rate > 0 and math.isfinite(self.learn_rate)):
            raise ParameterError(f"learn_rate must be > 0 and finite, got {self.learn_rate}")
        if not 1 <= self.epochs <= INT64_MAX:
            raise ParameterError(f"epochs must be >= 1 and fit int64, got {self.epochs}")
        if self.sigma is not None and not _sigma_fits(self.sigma):
            raise ParameterError("sigma must be > 0 with sigma * sigma a normal, finite "
                                 f"float when given, got {self.sigma}")
        if not (self.ridge >= 0 and math.isfinite(self.ridge)):
            raise ParameterError(f"ridge must be >= 0 and finite, got {self.ridge}")
        if self.fit not in ("lms", "ls"):
            raise ParameterError(f"fit must be 'lms' or 'ls', got {self.fit!r}")


@dataclass(frozen=True)
class DynamicsModel:
    centers: np.ndarray  # M x k
    weights: np.ndarray  # M x k; row i is the output weight vector of center i
    sigma: float
    config: RbfConfig
    residual_history: np.ndarray  # mean squared residual per training epoch
    kmeans_seed: int  # seed of the k-means++ initialization that placed the centers

    def __post_init__(self):
        if np.ndim(self.centers) != 2 or min(np.shape(self.centers)) < 1:
            raise ModelError("dynamics model 'centers' must be M x k with M, k >= 1, "
                             f"got shape {np.shape(self.centers)}")
        m, k = np.shape(self.centers)
        check_shapes(self, "dynamics model", f"M={m}, k={k} from 'centers'",
                     dict(weights=(m, k), residual_history=(np.size(self.residual_history),)))
        if not _sigma_fits(self.sigma):
            raise ModelError("dynamics model 'sigma' must be > 0 with sigma * sigma a normal, "
                             f"finite float, got {self.sigma}")


def kmeans(z: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; deterministic given seed.

    Runs at most 100 iterations or until assignments stop changing. An
    empty cluster is reseeded to the point farthest from its currently
    assigned center.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if m < 1:
        raise ParameterError("m must be >= 1")
    if n < m:
        raise InsufficientDataError(f"need at least {m} points, got {n}")

    rng = np.random.default_rng(seed)
    centers = np.empty((m, z.shape[1]))
    centers[0] = z[rng.integers(n)]
    for j in range(1, m):
        d2 = np.min(((z[:, None, :] - centers[None, :j, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centers[j] = z[rng.integers(n)]
        else:
            centers[j] = z[rng.choice(n, p=d2 / total)]

    assign = np.full(n, -1)
    for _ in range(100):
        d2 = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(m):
            members = z[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        empty = [j for j in range(m) if not (assign == j).any()]
        if empty:
            own_dist = ((z - centers[assign]) ** 2).sum(axis=1)
            order = np.argsort(-own_dist, kind="stable")
            for j, idx in zip(empty, order):
                centers[j] = z[idx]
    return centers


def rbf_response(z: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel responses exp(-||z - c_i||^2 / (2 sigma^2)), each in (0,1];
    a state whose width is not the centers' is a ModelError."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != centers.shape[1]:
        raise ModelError(f"model expects state dimension {centers.shape[1]}, got {z.shape[-1]}")
    d2 = ((z[..., None, :] - centers) ** 2).sum(axis=-1)
    return np.exp(-d2 / (2.0 * sigma ** 2))


def _resolve_sigma(centers: np.ndarray, config: RbfConfig) -> float:
    if config.sigma is not None:
        return config.sigma
    m = centers.shape[0]
    if m < 2:
        return 1.0
    iu = np.triu_indices(m, k=1)
    dists = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))[iu]
    med = float(np.median(dists))
    return med if med > 0 else 1.0


def fit_rbf_weights(phi: np.ndarray, targets: np.ndarray,
                    config: RbfConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fit output weights to precomputed kernel responses; returns (W, history).

    fit "lms": zero-initialized weights updated per sample in order each
    epoch with W += lr * phi (target - W^T phi)^T; history holds the
    full-set mean squared residual at each epoch end. fit "ls": the
    closed-form ridge solution (history is constant).
    """
    m = phi.shape[1]
    if config.fit == "ls":
        w = np.linalg.solve(phi.T @ phi + config.ridge * np.eye(m), phi.T @ targets)
        mse = float(np.mean(np.sum((targets - phi @ w) ** 2, axis=1)))
        return w, np.full(config.epochs, mse)
    w = np.zeros((m, targets.shape[1]))
    history = np.empty(config.epochs)
    lr = config.learn_rate
    for epoch in range(config.epochs):
        # a diverging epoch may overflow to inf or nan; the mse check names it
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(phi.shape[0]):
                err = targets[t] - w.T @ phi[t]
                w += lr * np.outer(phi[t], err)
            mse = float(np.mean(np.sum((targets - phi @ w) ** 2, axis=1)))
        if not np.isfinite(mse) or mse > 1e6:
            raise DivergenceError(
                f"training diverged at epoch {epoch} (mse={mse}); reduce learn_rate"
            )
        history[epoch] = mse
    return w, history


def train_dynamics(z: np.ndarray, config: RbfConfig = RbfConfig(), seed: int = 0) -> DynamicsModel:
    """Fit the RBF network to the one-step differences of the trajectory.

    Centers come from k-means over all states (seeded with `seed`), sigma defaults to the
    median pairwise center distance, and weights are fitted per
    `fit_rbf_weights` (incremental LMS by default).
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if n < max(config.m_centers, 2):
        raise InsufficientDataError(
            f"need at least max(M={config.m_centers}, 2) samples, got {n}"
        )
    centers = kmeans(z, config.m_centers, seed)
    sigma = _resolve_sigma(centers, config)
    targets = z[1:] - z[:-1]
    phi = rbf_response(z[:-1], centers, sigma)  # (N-1) x M
    w, history = fit_rbf_weights(phi, targets, config)
    return DynamicsModel(centers=centers, weights=w, sigma=sigma, config=config,
                         residual_history=history, kmeans_seed=seed)


def _transition_residuals(model: DynamicsModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(z_t) and the residual (predicted - observed dz_t) for each frame pair."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise InsufficientDataError("need at least 2 state rows")
    phi = rbf_response(z[:-1], model.centers, model.sigma)
    return phi, phi @ model.weights - (z[1:] - z[:-1])


def energy_sequence(model: DynamicsModel, z: np.ndarray) -> np.ndarray:
    """Row t is E_t = Phi(z_t) * ||predicted dz_t - observed dz_t||_2: (N-1) x M."""
    phi, residual = _transition_residuals(model, z)
    return phi * np.linalg.norm(residual, axis=1, keepdims=True)


def edg_sequence(model: DynamicsModel, z: np.ndarray, pca: PcaModel,
                 scaler: ScalerModel, grid: SectorGrid) -> np.ndarray:
    """Remap every frame pair's prediction residual onto the R x TH sector grid:
    returns (N-1) x R x TH, map t for the transition z_t -> z_{t+1}.

    The state-space residual is pushed back through the PCA components
    into raw descriptor space (components only, no mean) and
    un-standardized; each sector then gets the L2 norm of its 6 feature
    residuals, scaled by the mean kernel response at z_t. Both factors are
    >= 0, so every map is too.
    """
    if pca.components.shape[1] != grid.descriptor_length:
        raise ModelError(
            f"descriptor length {pca.components.shape[1]} does not match grid "
            f"({grid.descriptor_length})"
        )
    if model.centers.shape[1] != pca.k:
        raise ModelError(f"dynamics model 'centers' are {model.centers.shape[1]} wide, "
                         f"but the PCA has k={pca.k}")
    if scaler.mean.size != pca.input_mean.size:
        raise ModelError(f"scaler 'mean' has D={scaler.mean.size}, but the PCA "
                         f"'input_mean' has D={pca.input_mean.size}")
    phi, residual = _transition_residuals(model, z)
    raw = (residual @ pca.components) * scaler.scale
    per_sector = np.linalg.norm(raw.reshape(raw.shape[0], grid.sector_count, -1), axis=2)
    sectors = per_sector * phi.mean(axis=1, keepdims=True)
    return sectors.reshape(-1, grid.r_bins, grid.theta_bins)


def pedg_sequence(energies: np.ndarray, k2: int) -> tuple[np.ndarray, PcaModel]:
    """Secondary PCA over the E_t rows; rows of P are P_EDG per frame."""
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 energy rows, got shape {e.shape}")
    if not (1 <= k2 <= min(e.shape[0] - 1, e.shape[1])):
        raise ParameterError(
            f"k2={k2} out of range 1..min(count-1={e.shape[0] - 1}, M={e.shape[1]})"
        )
    model = fit_pca(e, k2)
    return project(model, e), model


def align_pedg(p: np.ndarray, t_count: int) -> np.ndarray:
    """Repeat the last P_EDG row so every one of `t_count` frames has one.

    The dynamics stage yields one row per state transition (T-2), pedg.csv
    holds one per flow frame (T-1), and CPDA consumes one per frame (T);
    larger mismatches are treated as errors.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape[0] == t_count:
        return p
    if 0 < t_count - p.shape[0] <= 2 and p.shape[0] > 0:
        pad = np.repeat(p[-1:], t_count - p.shape[0], axis=0)
        return np.vstack([p, pad])
    raise ModelError(f"cannot align {p.shape[0]} dynamic rows to {t_count} frames")


def save_edg_outputs(maps: np.ndarray, grid: SectorGrid, h: int, w: int,
                     out_dir: Path | str) -> None:
    """Per-frame PGM heatmaps (min-max normalized over the sequence) + edg.csv
    from the (N-1) x R x TH maps, file and row t from map t, replacing an older,
    longer run's heatmaps (`seqio.write_series`) as the `seqio.output_set` commits."""
    out_dir = Path(out_dir)
    lo, hi = float(maps.min()), float(maps.max())
    sector_ids, inside = sector_index_map(grid, h, w)
    ids = sector_ids[inside]

    def heatmap(sectors: np.ndarray) -> np.ndarray:
        img = np.zeros((h, w))  # outside the disc, and every map of a constant sequence
        if hi > lo:
            img[inside] = (sectors.reshape(-1)[ids] - lo) / (hi - lo)
        return quantize_frame(img)

    write_series(out_dir, "edg", ".pgm", write_pgm, map(heatmap, maps))
    write_csv(out_dir / "edg.csv", ["t", "r", "theta", "energy"],
              ([t, r, th, sectors[r, th]] for t, sectors in enumerate(maps)
               for r in range(grid.r_bins) for th in range(grid.theta_bins)))


def save_pedg_csv(p: np.ndarray, path: Path | str) -> None:
    """P_EDG rows, one per frame, header t,p0..p{k2-1}."""
    write_csv(path, ["t"] + [f"p{i}" for i in range(p.shape[1])],
              ([t, *row] for t, row in enumerate(p)))


def load_pedg_csv(path: Path | str) -> np.ndarray:
    """The P_EDG rows of a `save_pedg_csv` file without its `t` column; the
    file is checked by `seqio.read_csv`."""
    return read_csv(path)[1][:, 1:]
