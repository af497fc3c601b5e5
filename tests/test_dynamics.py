from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from echodyn.descriptor import PcaModel, ScalerModel, SectorGrid
from echodyn.dynamics import (
    DynamicsModel,
    RbfConfig,
    align_pedg,
    edg_sequence,
    energy_sequence,
    fit_rbf_weights,
    kmeans,
    pedg_sequence,
    rbf_response,
    save_edg_outputs,
    train_dynamics,
)
from echodyn.errors import (
    DivergenceError,
    FormatError,
    InsufficientDataError,
    ModelError,
    ParameterError,
)
from echodyn.seqio import read_json, write_json


def ridge_oracle(phi, targets, lam):
    """Independent closed-form ridge solve for the oracle bound."""
    m = phi.shape[1]
    w = np.linalg.solve(phi.T @ phi + lam * np.eye(m), phi.T @ targets)
    return w, float(np.mean(np.sum((targets - phi @ w) ** 2, axis=1)))


def noisy_circle(n=200, noise=0.05, seed=42):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    omega = 2 * np.pi / 40
    return np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1) + \
        rng.normal(0, noise, (n, 2))


# ----------------------------------------------------------------- kmeans

def test_kmeans_single_center_is_mean():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20, 3))
    centers = kmeans(z, 1, seed=0)
    assert np.allclose(centers[0], z.mean(axis=0))


def test_kmeans_two_point_clusters():
    p, q = np.array([0.0, 0.0]), np.array([5.0, 5.0])
    z = np.stack([p, p, q, q])
    centers = kmeans(z, 2, seed=1)
    got = {tuple(np.round(c, 9)) for c in centers}
    assert got == {tuple(p), tuple(q)}


def test_kmeans_two_blobs_vs_label_means():
    rng = np.random.default_rng(10)
    a = rng.normal(0.0, 0.1, (50, 2))
    b = rng.normal(5.0, 0.1, (50, 2))
    z = np.vstack([a, b])
    centers = kmeans(z, 2, seed=3)
    # oracle: exact means of the generating labels
    means = np.stack([a.mean(axis=0), b.mean(axis=0)])
    for c in centers:
        assert min(np.linalg.norm(c - m) for m in means) < 0.2
    assert np.linalg.norm(centers[0] - centers[1]) > 4.0


def test_kmeans_determinism_and_errors():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(30, 4))
    c1 = kmeans(z, 5, seed=7)
    c2 = kmeans(z, 5, seed=7)
    assert np.array_equal(c1, c2)
    with pytest.raises(InsufficientDataError):
        kmeans(z[:3], 5, seed=0)


# ----------------------------------------------------------- rbf_response

def test_rbf_response_at_center_and_halfway():
    centers = np.array([[0.0, 0.0], [3.0, 4.0]])
    phi = rbf_response(np.array([0.0, 0.0]), centers, sigma=2.0)
    assert phi[0] == pytest.approx(1.0)
    # ||z - c|| = sigma*sqrt(2 ln 2) -> response exactly 0.5
    sigma = 1.7
    z = np.array([sigma * np.sqrt(2 * np.log(2)), 0.0])
    phi = rbf_response(z, np.array([[0.0, 0.0]]), sigma=sigma)
    assert phi[0] == pytest.approx(0.5, rel=1e-12)


def test_rbf_response_bounds():
    # far from a center the response decays toward 0 but never goes negative
    centers = np.array([[0.0], [20.0]])
    phi = rbf_response(np.array([0.0]), centers, sigma=1.0)
    assert 0.0 < phi[1] < 1e-80
    assert (phi >= 0).all() and (phi <= 1).all()


# ---------------------------------------------------------------- training

def test_train_constant_sequence_zero_weights():
    z = np.tile([1.0, 2.0], (10, 1))
    model = train_dynamics(z, RbfConfig(m_centers=2, epochs=5), seed=0)
    assert np.all(model.weights == 0.0)
    assert np.all(model.residual_history == 0.0)


def test_train_single_sample_converges():
    z = np.array([[0.0], [1.0]])  # one transition, target 1.0
    model = train_dynamics(z, RbfConfig(m_centers=1, epochs=200), seed=0)
    assert model.residual_history[-1] < 1e-6
    predicted = rbf_response(z[0], model.centers, model.sigma) @ model.weights
    assert predicted[0] == pytest.approx(1.0, abs=1e-3)


def test_train_noisy_circle_oracle_bound():
    z = noisy_circle()
    cfg = RbfConfig(m_centers=8)
    model = train_dynamics(z, cfg, seed=3)
    targets = z[1:] - z[:-1]
    phi = rbf_response(z[:-1], model.centers, model.sigma)
    _, ridge_mse = ridge_oracle(phi, targets, cfg.ridge)
    assert model.residual_history[-1] <= 1.1 * ridge_mse


def test_train_ls_mode_matches_oracle():
    z = noisy_circle(n=60, seed=1)
    cfg = RbfConfig(m_centers=6, epochs=10, fit="ls")
    model = train_dynamics(z, cfg, seed=2)
    targets = z[1:] - z[:-1]
    phi = rbf_response(z[:-1], model.centers, model.sigma)
    w_star, mse = ridge_oracle(phi, targets, cfg.ridge)
    assert np.allclose(model.weights, w_star)
    assert np.allclose(model.residual_history, mse)
    assert len(model.residual_history) == cfg.epochs


def test_train_keeps_an_explicit_sigma():
    model = train_dynamics(noisy_circle(n=60, seed=1), RbfConfig(m_centers=6, sigma=0.7,
                                                                  epochs=5), seed=2)
    assert model.sigma == 0.7


def test_train_divergence_error():
    z = noisy_circle(n=50, seed=5)
    with pytest.raises(DivergenceError):
        train_dynamics(z, RbfConfig(m_centers=8, learn_rate=5.0, epochs=50), seed=0)


def test_train_insufficient_data():
    with pytest.raises(InsufficientDataError):
        train_dynamics(np.zeros((4, 2)), RbfConfig(m_centers=8))


def test_train_history_smoothed_monotone_on_phantom(phantom_model):
    hist = phantom_model.residual_history
    windows = hist.reshape(-1, 10).mean(axis=1)
    assert np.all(np.diff(windows) <= 1e-12)
    # last 10% of epochs: nonincreasing within 5% jitter
    tail = hist[-len(hist) // 10:]
    assert np.all(np.diff(tail) <= 0.05 * tail[:-1])


# ---------------------------------------------------------------- predict

def test_predict_zero_weights():
    model = DynamicsModel(centers=np.zeros((3, 2)), weights=np.zeros((3, 2)),
                          sigma=1.0, config=RbfConfig(m_centers=3),
                          residual_history=np.zeros(1), kmeans_seed=0)
    assert np.allclose(rbf_response(np.array([5.0, -2.0]), model.centers, model.sigma)
                       @ model.weights, 0.0)


def test_predict_at_center_single():
    w = np.array([[0.3, -0.7]])
    model = DynamicsModel(centers=np.array([[1.0, 1.0]]), weights=w, sigma=2.0,
                          config=RbfConfig(m_centers=1),
                          residual_history=np.zeros(1), kmeans_seed=0)
    assert np.allclose(rbf_response(np.array([1.0, 1.0]), model.centers, model.sigma)
                       @ model.weights, w[0])


def test_predict_hand_case_two_centers():
    centers = np.array([[0.0], [2.0]])
    weights = np.array([[1.0], [-2.0]])
    sigma = 1.5
    model = DynamicsModel(centers=centers, weights=weights, sigma=sigma,
                          config=RbfConfig(m_centers=2),
                          residual_history=np.zeros(1), kmeans_seed=0)
    z = np.array([0.5])
    phi1 = np.exp(-0.25 / (2 * sigma ** 2))
    phi2 = np.exp(-2.25 / (2 * sigma ** 2))
    predicted = rbf_response(z, model.centers, model.sigma) @ model.weights
    assert predicted[0] == pytest.approx(1.0 * phi1 - 2.0 * phi2, rel=1e-12)


def test_predict_dimension_error():
    model = DynamicsModel(centers=np.zeros((2, 3)), weights=np.zeros((2, 3)),
                          sigma=1.0, config=RbfConfig(m_centers=2),
                          residual_history=np.zeros(1), kmeans_seed=0)
    with pytest.raises(ModelError):
        rbf_response(np.zeros(4), model.centers, model.sigma)


def test_energy_and_edg_reject_a_state_of_the_wrong_width():
    # both escaped as numpy's "operands could not be broadcast together"
    grid = SectorGrid(r_bins=2, theta_bins=2)
    d = grid.descriptor_length
    pca = PcaModel(components=np.eye(3, d), explained_variance=np.ones(3),
                   input_mean=np.zeros(d), k=3)
    scaler = ScalerModel(mean=np.zeros(d), scale=np.ones(d))
    model = DynamicsModel(centers=np.zeros((2, 3)), weights=np.zeros((2, 3)),
                          sigma=1.0, config=RbfConfig(m_centers=2),
                          residual_history=np.zeros(1), kmeans_seed=0)
    z = np.zeros((4, 2))
    with pytest.raises(ModelError, match="model expects state dimension 3, got 2"):
        energy_sequence(model, z)
    with pytest.raises(ModelError, match="model expects state dimension 3, got 2"):
        edg_sequence(model, z, pca, scaler, grid)


# ----------------------------------------------------------------- energy

def _toy_model(centers, weights, sigma=1.0):
    return DynamicsModel(centers=np.asarray(centers, float),
                         weights=np.asarray(weights, float), sigma=sigma,
                         config=RbfConfig(m_centers=len(centers)),
                         residual_history=np.zeros(1), kmeans_seed=0)


def test_energy_perfect_prediction_zero():
    # weights = 0 and a constant trajectory: residual 0 everywhere
    model = _toy_model(np.zeros((2, 2)), np.zeros((2, 2)))
    z = np.tile([0.5, 0.5], (4, 1))
    assert np.all(energy_sequence(model, z) == 0.0)


def test_energy_zero_weights_formula():
    model = _toy_model([[0.0, 0.0]], [[0.0, 0.0]], sigma=1.0)
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    e = energy_sequence(model, z)
    assert e.shape == (1, 1)
    assert e[0, 0] == pytest.approx(1.0)  # phi at the center = 1, residual norm 1


def test_energy_hand_case():
    # phi = (1, 0.5) and residual norm 2 -> E = (2, 1)
    sigma = 1.0
    d = np.sqrt(2 * sigma ** 2 * np.log(2))  # distance giving phi = 0.5
    centers = np.array([[0.0], [d]])
    model = _toy_model(centers, np.zeros((2, 1)), sigma=sigma)
    z = np.array([[0.0], [2.0]])  # target = +2, prediction 0 -> residual 2
    (e,) = energy_sequence(model, z)
    assert e[0] == pytest.approx(2.0, rel=1e-12)
    assert e[1] == pytest.approx(1.0, rel=1e-12)
    assert (e >= 0).all()


def test_energy_kernel_bounds(phantom_model, phantom_descriptors):
    z, _, _ = phantom_descriptors
    phi = rbf_response(z, phantom_model.centers, phantom_model.sigma)
    assert (phi > 0).all() and (phi <= 1.0).all()
    assert (energy_sequence(phantom_model, z) >= 0).all()


# -------------------------------------------------------------------- edg

def test_edg_zero_residual_all_zero():
    grid = SectorGrid(r_bins=2, theta_bins=2)
    d = grid.descriptor_length
    pca = PcaModel(components=np.eye(3, d), explained_variance=np.ones(3),
                   input_mean=np.zeros(d), k=3)
    scaler = ScalerModel(mean=np.zeros(d), scale=np.ones(d))
    model = _toy_model(np.zeros((2, 3)), np.zeros((2, 3)))
    z = np.zeros((2, 3))  # prediction 0, target 0 -> zero residual
    (edg,) = edg_sequence(model, z, pca, scaler, grid)
    assert np.all(edg == 0.0)
    with pytest.raises(ModelError):  # 24 descriptor columns against a 12-wide grid
        edg_sequence(model, z, pca, scaler, SectorGrid(r_bins=1, theta_bins=2))


def test_edg_single_sector_support():
    """Axis-aligned components put the residual into exactly one sector block."""
    grid = SectorGrid(r_bins=2, theta_bins=2)
    d = grid.descriptor_length  # 24; sector 1 owns dims 6..11
    comps = np.zeros((2, d))
    comps[0, 6] = 1.0
    comps[1, 7] = 1.0
    pca = PcaModel(components=comps, explained_variance=np.ones(2),
                   input_mean=np.zeros(d), k=2)
    scaler = ScalerModel(mean=np.zeros(d), scale=np.ones(d))
    model = _toy_model(np.zeros((2, 2)), np.zeros((2, 2)))
    z = np.array([[0.0, 0.0], [0.6, -0.8]])  # target (0.6, -0.8); prediction is zero
    (edg,) = edg_sequence(model, z, pca, scaler, grid)
    flat = edg.reshape(-1)
    assert np.count_nonzero(flat) == 1
    assert flat[1] == pytest.approx(1.0)  # |(-0.6, 0.8)| * mean(phi)=1


def test_edg_matches_per_frame_oracle(phantom_model, phantom_descriptors, phantom_grid):
    """The vectorized pass against the per-frame definition, to rounding."""
    z, scaler, pca = phantom_descriptors
    maps = edg_sequence(phantom_model, z, pca, scaler, phantom_grid)
    assert maps.shape == (z.shape[0] - 1, phantom_grid.r_bins, phantom_grid.theta_bins)
    for t, m in enumerate(maps):
        predicted = rbf_response(z[t], phantom_model.centers, phantom_model.sigma) @ \
            phantom_model.weights
        residual = predicted - (z[t + 1] - z[t])
        raw = (residual @ pca.components) * scaler.scale
        phi = rbf_response(z[t], phantom_model.centers, phantom_model.sigma)
        expected = np.linalg.norm(raw.reshape(phantom_grid.sector_count, -1), axis=1) * phi.mean()
        np.testing.assert_allclose(m.reshape(-1), expected, rtol=1e-12, atol=0)


def test_edg_phantom_peak_vs_quiet(phantom_model, phantom_descriptors, phantom_grid):
    z, scaler, pca = phantom_descriptors
    maps = edg_sequence(phantom_model, z, pca, scaler, phantom_grid)
    totals = maps.sum(axis=(1, 2))
    assert (totals >= 0).all()
    peak = totals[[7, 8, 22, 23]].mean()
    quiet = totals[[0, 14, 15, 16, 29]].mean()
    assert peak >= 2.0 * quiet


def test_edg_scale_covariance(phantom_model, phantom_descriptors):
    """Scaling the targets by s scales every residual norm by ~s (kernels fixed)."""
    z, _, _ = phantom_descriptors
    targets = z[1:] - z[:-1]
    phi = rbf_response(z[:-1], phantom_model.centers, phantom_model.sigma)
    s = 3.0
    w_scaled, _ = fit_rbf_weights(phi, s * targets, phantom_model.config)
    res_base = np.linalg.norm(phi @ phantom_model.weights - targets, axis=1)
    res_scaled = np.linalg.norm(phi @ w_scaled - s * targets, axis=1)
    factors = res_scaled / np.maximum(res_base, 1e-300)
    assert (factors >= s / 1.2).all() and (factors <= 1.2 * s).all()


def test_edg_determinism(phantom_model, phantom_descriptors, phantom_grid):
    z, scaler, pca = phantom_descriptors
    m1 = edg_sequence(phantom_model, z, pca, scaler, phantom_grid)
    m2 = edg_sequence(phantom_model, z, pca, scaler, phantom_grid)
    assert np.array_equal(m1, m2)


# ------------------------------------------------------------------- pedg

def test_pedg_identical_energies_project_to_zero():
    p, _ = pedg_sequence(np.tile([1.0, 2.0, 3.0], (5, 1)), k2=2)
    assert np.allclose(p, 0.0)


def test_pedg_full_rank_reconstruction():
    rng = np.random.default_rng(12)
    e = np.abs(rng.normal(size=(10, 4)))
    p, model = pedg_sequence(e, k2=4)
    from echodyn.descriptor import back_project
    for t in range(10):
        assert np.abs(back_project(model, p[t]) - e[t]).max() < 1e-6


def test_pedg_phantom_spectrum(phantom_model, phantom_descriptors):
    z, _, _ = phantom_descriptors
    energies = energy_sequence(phantom_model, z)
    p, model = pedg_sequence(energies, k2=8)
    assert p.shape == (len(energies), 8)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)
    ec = energies - energies.mean(axis=0)
    oracle = np.linalg.eigvalsh(ec.T @ ec / energies.shape[0])[::-1]
    assert np.abs(model.explained_variance - oracle[:8]).max() < 1e-6


def test_pedg_errors():
    with pytest.raises(InsufficientDataError):
        pedg_sequence(np.ones((1, 3)), k2=1)
    with pytest.raises(ParameterError):
        pedg_sequence(np.ones((4, 3)), k2=4)  # k2 > M


def test_align_pedg():
    p = np.arange(6, dtype=float).reshape(3, 2)
    out = align_pedg(p, 4)
    assert out.shape == (4, 2)
    assert np.array_equal(out[3], p[2])
    out2 = align_pedg(p, 5)  # the energy chain runs two rows short
    assert out2.shape == (5, 2)
    assert np.array_equal(out2[3], p[2]) and np.array_equal(out2[4], p[2])
    assert np.array_equal(align_pedg(p, 3), p)
    with pytest.raises(ModelError):
        align_pedg(p, 6)
    with pytest.raises(ModelError):
        align_pedg(p, 2)


# --------------------------------------------------------------------- io

def test_dynamics_model_json_roundtrip(tmp_path, phantom_model):
    write_json(tmp_path / "m.json", phantom_model)
    back = read_json(tmp_path / "m.json", DynamicsModel)
    assert np.array_equal(back.centers, phantom_model.centers)
    assert np.array_equal(back.weights, phantom_model.weights)
    assert back.sigma == phantom_model.sigma
    assert np.array_equal(back.residual_history,
                          phantom_model.residual_history)
    assert back.config.m_centers == phantom_model.config.m_centers
    assert back.kmeans_seed == phantom_model.kmeans_seed


def test_dynamics_model_json_rejects_old_and_malformed_files(tmp_path, phantom_model):
    write_json(tmp_path / "m.json", phantom_model)
    payload = json.loads((tmp_path / "m.json").read_text())
    # the layout before kmeans_seed: the seed sat inside config
    payload["config"]["seed"] = payload.pop("kmeans_seed")
    (tmp_path / "m.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError,
                       match="missing key 'kmeans_seed', unexpected key 'config.seed'"):
        read_json(tmp_path / "m.json", DynamicsModel)
    payload["kmeans_seed"] = 1.5
    del payload["config"]["seed"]
    (tmp_path / "m.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="'kmeans_seed' must be int, got 1.5"):
        read_json(tmp_path / "m.json", DynamicsModel)
    (tmp_path / "m.json").write_text("{")
    with pytest.raises(FormatError, match="malformed JSON"):
        read_json(tmp_path / "m.json", DynamicsModel)
    (tmp_path / "m.json").write_text("[]")
    with pytest.raises(FormatError, match="must be a JSON object"):
        read_json(tmp_path / "m.json", DynamicsModel)


@pytest.mark.parametrize("field,value,needle", [
    ("weights", [[0.0, 0.0], [0.0, 0.0]], r"'weights' must have shape \(4, 2\)"),
    ("centers", [0.0, 1.0], "'centers' must be M x k"),
    ("residual_history", [[0.0]], "'residual_history' must have shape"),
    ("sigma", 1e-300, "'sigma' must be > 0 with sigma \\* sigma a normal"),
], ids=["weights-rows", "centers-1d", "history-2d", "sigma-square-subnormal"])
def test_dynamics_model_json_rejects_misshapen_arrays(tmp_path, field, value, needle):
    # 4 centers and 2 weight rows escaped from energy_sequence as a numpy ValueError
    model = DynamicsModel(centers=np.zeros((4, 2)), weights=np.zeros((4, 2)), sigma=1.0,
                          config=RbfConfig(m_centers=4), residual_history=np.zeros(3),
                          kmeans_seed=0)
    write_json(tmp_path / "m.json", model)
    payload = json.loads((tmp_path / "m.json").read_text())
    payload[field] = value
    (tmp_path / "m.json").write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=f"dynamics model {needle}"):
        read_json(tmp_path / "m.json", DynamicsModel)


def test_edg_outputs(tmp_path, phantom_model, phantom_descriptors, phantom_grid):
    z, scaler, pca = phantom_descriptors
    maps = edg_sequence(phantom_model, z, pca, scaler, phantom_grid)
    save_edg_outputs(maps, phantom_grid, 128, 128, tmp_path)
    pgms = sorted(tmp_path.glob("edg_*.pgm"))
    assert len(pgms) == len(maps)
    lines = (tmp_path / "edg.csv").read_text().splitlines()
    assert lines[0] == "t,r,theta,energy"
    assert len(lines) == 1 + len(maps) * phantom_grid.sector_count


def test_edg_csv_failed_write_keeps_old_file(tmp_path, monkeypatch, phantom_grid):
    (tmp_path / "edg.csv").write_bytes(b"old")
    real_writer = csv.writer

    class FailingWriter:  # fails on the fifth data row, after rows are buffered
        def __init__(self, fh):
            self.inner, self.rows = real_writer(fh), 0

        def writerow(self, row):
            self.rows += 1
            if self.rows > 5:
                raise OSError("disk full")
            self.inner.writerow(row)

    monkeypatch.setattr(csv, "writer", FailingWriter)
    maps = np.ones((3, phantom_grid.r_bins, phantom_grid.theta_bins))
    with pytest.raises(OSError, match="disk full"):
        save_edg_outputs(maps, phantom_grid, 32, 32, tmp_path)
    assert (tmp_path / "edg.csv").read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "edg.csv", "edg_0000.pgm", "edg_0001.pgm", "edg_0002.pgm"]


def test_divergence_that_overflows_is_a_divergence_error():
    # at this learn rate the weights overflow within the first epoch, which
    # once escaped as a RuntimeWarning
    with pytest.raises(DivergenceError, match="diverged at epoch 0"):
        train_dynamics(noisy_circle(n=50, seed=5),
                       RbfConfig(m_centers=8, learn_rate=2.0 ** 63, epochs=5), seed=0)


@pytest.mark.parametrize("field", ["m_centers", "epochs"])
def test_rbf_counts_past_int64_are_parameter_errors(field):
    RbfConfig(**{field: 2 ** 63 - 1})
    with pytest.raises(ParameterError, match=f"{field} must be >= 1 and fit int64"):
        RbfConfig(**{field: 2 ** 63})


def test_rbf_fit_is_lms_or_ls():
    assert RbfConfig().fit == "lms"
    with pytest.raises(ParameterError, match="fit must be 'lms' or 'ls', got 'lsq'"):
        RbfConfig(fit="lsq")
