from __future__ import annotations

import json

import numpy as np
import pytest

from echodyn.descriptor import (
    FeatureModels,
    PcaModel,
    SectorGrid,
    apply_scaler,
    back_project,
    descriptor_sequence,
    extract_descriptor,
    fit_pca,
    fit_scaler,
    project,
    sector_index_map,
)
from echodyn.errors import (
    DimensionError,
    FormatError,
    InsufficientDataError,
    ModelError,
    NumericError,
    ParameterError,
)
from echodyn.flow import FlowField
from echodyn.seqio import FrameSequence, read_json, write_json

from conftest import make_frames


def sector_of(x: float, y: float, grid: SectorGrid,
              h: int | None = None, w: int | None = None) -> tuple[int, int] | None:
    """Oracle: the (ring, angle-bin) sector of one pixel, or None when outside.

    When the grid uses image-relative defaults, `h`/`w` must be given.
    Angle 0 points along +x and increases toward +y (downward in images).
    """
    if grid.center is not None and grid.r_max is not None:
        cx, cy = grid.center
        r_max = grid.r_max
    else:
        if h is None or w is None:
            raise ParameterError("grid has image-relative defaults; pass h and w")
        cx, cy, r_max = grid.resolve(h, w)
    rho = np.hypot(x - cx, y - cy)
    if rho >= r_max:
        return None
    ring = min(int(rho * grid.r_bins / r_max), grid.r_bins - 1)
    angle = np.arctan2(y - cy, x - cx)  # atan2(0,0) == 0 at the pole
    if angle < 0:
        angle += 2.0 * np.pi
    tbin = min(int(angle * grid.theta_bins / (2.0 * np.pi)), grid.theta_bins - 1)
    return ring, tbin


def brute_force_pca_spectrum(x):
    """Oracle: eigenvalues of the population covariance, descending."""
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / x.shape[0]
    vals = np.linalg.eigvalsh(cov)[::-1]
    return vals


# ---------------------------------------------------------------- sectors

def test_sector_of_center_is_ring0_bin0():
    grid = SectorGrid(r_bins=4, theta_bins=6, center=(50.0, 50.0), r_max=100.0)
    assert sector_of(50.0, 50.0, grid) == (0, 0)


def test_sector_of_hand_cases():
    grid = SectorGrid(r_bins=4, theta_bins=6, center=(100.0, 100.0), r_max=100.0)
    # rho=99 -> floor(99*4/100)=3; angle 0 -> bin 0
    assert sector_of(199.0, 100.0, grid) == (3, 0)
    # (cx, cy-1), y down: atan2(-1, 0) = -pi/2 -> 3pi/2 -> floor(3pi/2 * 6/2pi) = 4
    assert sector_of(100.0, 99.0, grid) == (0, 4)
    # outside the disc
    assert sector_of(201.0, 100.0, grid) is None
    assert sector_of(200.0, 100.0, grid) is None  # rho == r_max counts as outside


def test_sector_partition_counts():
    grid = SectorGrid(r_bins=4, theta_bins=12)
    ids, inside = sector_index_map(grid, 64, 64)
    counts = np.bincount(ids[inside], minlength=grid.sector_count)
    assert counts.sum() == inside.sum()
    cx, cy, r_max = grid.resolve(64, 64)
    ys, xs = np.mgrid[0:64, 0:64].astype(float)
    assert inside.sum() == (np.hypot(xs - cx, ys - cy) < r_max).sum()


@pytest.mark.parametrize("grid,h,w", [
    (SectorGrid(r_bins=4, theta_bins=12), 24, 31),
    (SectorGrid(r_bins=3, theta_bins=5, center=[10.0, 7.5], r_max=9.0), 20, 16),
    (SectorGrid(r_bins=2, theta_bins=7, center=(0.0, 0.0)), 12, 12),
], ids=["image-center", "list-center", "corner-center"])
def test_sector_index_map_matches_scalar_oracle(grid, h, w):
    ids, inside = sector_index_map(grid, h, w)
    for y in range(h):
        for x in range(w):
            sector = sector_of(float(x), float(y), grid, h, w)
            assert inside[y, x] == (sector is not None)
            if sector is not None:
                assert ids[y, x] == sector[0] * grid.theta_bins + sector[1]


def test_sector_geometry_is_shared_read_only():
    ids, inside = sector_index_map(SectorGrid(), 16, 16)
    assert sector_index_map(SectorGrid(), 16, 16)[0] is ids
    with pytest.raises(ValueError):
        ids[0, 0] = 1
    with pytest.raises(ValueError):
        inside[0, 0] = False


# ------------------------------------------------------------ descriptors

def _uniform_flow_grid(h, w):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return xs, ys


def test_extract_zero_flow_uniform_gray():
    g = 0.37
    frame = np.full((32, 32), g)
    flow = FlowField(u=np.zeros((32, 32)), v=np.zeros((32, 32)))
    grid = SectorGrid(r_bins=2, theta_bins=4)
    desc = extract_descriptor(frame, flow, grid).reshape(-1, 6)
    ids, inside = sector_index_map(grid, 32, 32)
    counts = np.bincount(ids[inside], minlength=grid.sector_count)
    for s in range(grid.sector_count):
        expected = [0, 0, 0, 0, g, 0] if counts[s] else [0] * 6
        assert np.allclose(desc[s], expected)


def test_extract_pure_radial_flow():
    h = w = 48
    grid = SectorGrid(r_bins=3, theta_bins=8)
    cx, cy, _ = grid.resolve(h, w)
    xs, ys = _uniform_flow_grid(h, w)
    rho = np.hypot(xs - cx, ys - cy)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(rho > 0, (xs - cx) / rho, 0.0)
        v = np.where(rho > 0, (ys - cy) / rho, 0.0)
    desc = extract_descriptor(np.full((h, w), 0.5), FlowField(u=u, v=v), grid)
    feats = desc.reshape(-1, 6)
    ids, inside = sector_index_map(grid, h, w)
    counts = np.bincount(ids[inside], minlength=grid.sector_count)
    for s in np.nonzero(counts)[0]:
        if s == ids[int(cy), int(cx)] and rho[int(cy), int(cx)] == 0:
            continue  # the pole pixel contributes zero projections
        assert feats[s, 0] == pytest.approx(1.0, abs=0.05)  # mean v_r
        assert abs(feats[s, 1]) < 1e-6  # mean v_theta


def test_extract_pure_rotation_flow():
    h = w = 48
    grid = SectorGrid(r_bins=3, theta_bins=8)
    cx, cy, _ = grid.resolve(h, w)
    xs, ys = _uniform_flow_grid(h, w)
    rho = np.hypot(xs - cx, ys - cy)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(rho > 0, -(ys - cy) / rho, 0.0)
        v = np.where(rho > 0, (xs - cx) / rho, 0.0)
    feats = extract_descriptor(np.full((h, w), 0.5), FlowField(u=u, v=v),
                               grid).reshape(-1, 6)
    ids, inside = sector_index_map(grid, h, w)
    counts = np.bincount(ids[inside], minlength=grid.sector_count)
    for s in np.nonzero(counts)[0]:
        assert feats[s, 1] == pytest.approx(1.0, abs=0.05)
        assert abs(feats[s, 0]) < 1e-6


@pytest.mark.parametrize("grid,h,w", [
    (SectorGrid(r_bins=4, theta_bins=12), 24, 31),
    (SectorGrid(r_bins=3, theta_bins=5, center=[10.0, 7.5], r_max=9.0), 20, 16),
    (SectorGrid(r_bins=2, theta_bins=7, center=(0.0, 0.0)), 12, 12),
    (SectorGrid(r_bins=64, theta_bins=12), 128, 128),
], ids=["image-center", "list-center", "corner-center", "64-rings-with-empty-sectors"])
def test_extract_descriptor_matches_brute_force_pooling(grid, h, w):
    rng = np.random.default_rng(h * w)
    u, v, gray = rng.normal(size=(3, h, w))
    cx, cy, _ = grid.resolve(h, w)
    samples = {}  # sector id -> [(v_r, v_t, gray)] of its disc pixels
    for y in range(h):
        for x in range(w):
            sector = sector_of(float(x), float(y), grid, h, w)
            if sector is None:
                continue
            rho = np.hypot(x - cx, y - cy)
            ex, ey = ((x - cx) / rho, (y - cy) / rho) if rho > 0 else (0.0, 0.0)
            samples.setdefault(sector[0] * grid.theta_bins + sector[1], []).append(
                (u[y, x] * ex + v[y, x] * ey, -u[y, x] * ey + v[y, x] * ex, gray[y, x]))
    if grid.r_bins == 64:
        assert len(samples) < grid.sector_count  # the inner rings leave sectors empty
    expected = np.zeros((grid.sector_count, 6))
    for s, rows in samples.items():
        cols = np.array(rows).T
        expected[s] = [cols[0].mean(), cols[1].mean(), cols[0].std(), cols[1].std(),
                       cols[2].mean(), cols[2].std()]
    got = extract_descriptor(gray, FlowField(u=u, v=v), grid).reshape(-1, 6)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_extract_dimension_error():
    with pytest.raises(DimensionError):
        extract_descriptor(np.zeros((8, 8)),
                           FlowField(u=np.zeros((9, 8)), v=np.zeros((9, 8))),
                           SectorGrid())


def test_rotation_covariance_cyclic_shift():
    """Rotating frame+flow by one angular bin permutes sector features in theta."""
    h = w = 96
    grid = SectorGrid(r_bins=3, theta_bins=12)
    cx, cy, r_max = grid.resolve(h, w)
    xs, ys = _uniform_flow_grid(h, w)
    dx, dy = xs - cx, ys - cy
    rho = np.hypot(dx, dy)
    ang = np.arctan2(dy, dx)
    step = 2 * np.pi / grid.theta_bins

    def build(theta0):
        radial = np.exp(-((rho - 18) ** 2) / 60.0)  # band around one ring
        amp = 1.0 + 0.5 * np.cos(ang - theta0)
        with np.errstate(invalid="ignore", divide="ignore"):
            ex = np.where(rho > 0, dx / rho, 0.0)
            ey = np.where(rho > 0, dy / rho, 0.0)
        frame = np.clip(0.5 + 0.3 * radial * amp, 0, 1)
        return frame, FlowField(u=radial * amp * ex, v=radial * amp * ey)

    f0, fl0 = build(0.0)
    f1, fl1 = build(step)  # rotated by exactly one bin
    d0 = extract_descriptor(f0, fl0, grid).reshape(grid.r_bins, grid.theta_bins, 6)
    d1 = extract_descriptor(f1, fl1, grid).reshape(grid.r_bins, grid.theta_bins, 6)
    shifted = np.roll(d0, 1, axis=1)
    scale = np.abs(d0).max()
    assert np.allclose(d1, shifted, atol=0.1 * scale)


# ---------------------------------------------------------------- scaler

def test_scaler_identical_rows():
    x = np.tile([3.0, -1.0], (5, 1))
    m = fit_scaler(x)
    assert (m.scale == 1e-8).all()
    assert np.allclose(apply_scaler(m, x), 0.0)


def test_scaler_hand_case_and_inverse():
    x = np.array([[0.0], [2.0]])
    m = fit_scaler(x)
    assert m.mean[0] == pytest.approx(1.0)
    assert m.scale[0] == pytest.approx(1.0)  # population std
    assert np.allclose(apply_scaler(m, x).ravel(), [-1.0, 1.0])
    rng = np.random.default_rng(4)
    y = rng.normal(2.0, 3.0, (20, 6))
    my = fit_scaler(y)
    z = apply_scaler(my, y)
    assert np.abs(z * my.scale + my.mean - y).max() < 1e-9


def test_scaler_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_scaler(np.zeros((1, 3)))


# ------------------------------------------------------------------- pca

def test_pca_axis_aligned():
    rng = np.random.default_rng(5)
    x = np.zeros((30, 4))
    x[:, 1] = rng.normal(0, 2.0, 30)
    m = fit_pca(x, 1)
    assert np.allclose(np.abs(m.components[0]), [0, 1, 0, 0], atol=1e-9)
    assert m.components[0, 1] > 0  # sign rule
    assert m.explained_variance[0] == pytest.approx(x[:, 1].var(), rel=1e-9)


def test_pca_diagonal_hand_case():
    x = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
    oracle = brute_force_pca_spectrum(x)
    assert oracle[0] == pytest.approx(5.0)  # frozen from the eigensolve oracle
    assert oracle[1] == pytest.approx(0.0, abs=1e-12)
    m = fit_pca(x, 2)
    assert np.allclose(m.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-9)
    assert np.allclose(m.explained_variance, oracle, atol=1e-9)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 4))
    m = fit_pca(x, 4)
    for row in x:
        assert np.abs(back_project(m, project(m, row)) - row).max() < 1e-6


def test_pca_orthonormality_and_energy():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(25, 8))
    m = fit_pca(x, 5)
    gram = m.components @ m.components.T
    assert np.abs(gram - np.eye(5)).max() < 1e-6
    assert np.all(np.diff(m.explained_variance) <= 1e-12)
    for row in x:
        z = project(m, row)
        assert z @ z <= (row - m.input_mean) @ (row - m.input_mean) + 1e-6


def test_pca_spectrum_matches_bruteforce():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 12))
    m = fit_pca(x, 11)
    oracle = brute_force_pca_spectrum(x)
    assert np.abs(m.explained_variance - oracle[:11]).max() < 1e-6


def test_pca_errors():
    x = np.random.default_rng(9).normal(size=(6, 3))
    with pytest.raises(ParameterError):
        fit_pca(x, 0)
    with pytest.raises(ParameterError):
        fit_pca(x, 4)  # k > D
    with pytest.raises(ParameterError):
        fit_pca(np.zeros((3, 8)), 3)  # k > N-1
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        fit_pca(bad, 2)


# --------------------------------------------------- descriptor_sequence

def _static_seq(t=6, h=24, w=24):
    frames = make_frames(t, h, w, lambda xs, ys, i: 0.4 + 0.2 * np.sin(xs / 5))
    return FrameSequence(frames=frames, ed_index=0, es_index=t // 2)


def test_descriptor_sequence_static_rows_equal():
    from echodyn.flow import flow_sequence
    seq = _static_seq()
    flows = flow_sequence(seq)
    z, scaler, pca = descriptor_sequence(seq, flows, SectorGrid(r_bins=2, theta_bins=4), k=2)
    assert z.shape == (5, 2)
    assert np.allclose(z - z[0], 0.0, atol=1e-9)


def test_descriptor_sequence_t2_refuses_fit():
    from echodyn.flow import flow_sequence
    seq = _static_seq(t=2)
    flows = flow_sequence(seq)
    with pytest.raises(InsufficientDataError):
        descriptor_sequence(seq, flows, SectorGrid(r_bins=2, theta_bins=4), k=1)


def test_descriptor_sequence_phantom(phantom, phantom_flows, phantom_grid, phantom_descriptors):
    seq, _ = phantom
    z, scaler, pca = phantom_descriptors
    assert z.shape == (seq.t_count - 1, 10)
    raw = np.stack([
        extract_descriptor(seq.frames[t], phantom_flows[t], phantom_grid)
        for t in range(seq.t_count - 1)
    ])
    scaled = apply_scaler(scaler, raw)
    spectrum = brute_force_pca_spectrum(scaled)
    assert np.abs(pca.explained_variance - spectrum[:10]).max() < 1e-6
    assert pca.explained_variance.sum() / spectrum.sum() >= 0.5


def test_descriptor_sequence_determinism(phantom, phantom_flows, phantom_grid):
    seq, _ = phantom
    z1, _, _ = descriptor_sequence(seq, phantom_flows, phantom_grid, k=10)
    z2, _, _ = descriptor_sequence(seq, phantom_flows, phantom_grid, k=10)
    assert np.array_equal(z1, z2)


# ------------------------------------------------------------------- io

def test_feature_model_json_roundtrip(tmp_path, phantom_descriptors):
    _, scaler, pca = phantom_descriptors
    write_json(tmp_path / "m.json", FeatureModels(scaler, pca))
    models = read_json(tmp_path / "m.json", FeatureModels)
    s2, p2 = models.scaler, models.pca
    assert np.array_equal(s2.mean, scaler.mean)
    assert np.array_equal(s2.scale, scaler.scale)
    assert np.array_equal(p2.components, pca.components)
    assert p2.k == pca.k


def test_feature_model_json_names_bad_keys(tmp_path, phantom_descriptors):
    _, scaler, pca = phantom_descriptors
    write_json(tmp_path / "m.json", FeatureModels(scaler, pca))
    payload = json.loads((tmp_path / "m.json").read_text())
    del payload["pca"]["k"]
    payload["scaler"]["std"] = payload["scaler"].pop("scale")
    (tmp_path / "m.json").write_text(json.dumps(payload))
    expected = "missing key 'scaler.scale', unexpected key 'scaler.std', missing key 'pca.k'"
    with pytest.raises(FormatError, match=expected):
        read_json(tmp_path / "m.json", FeatureModels)


@pytest.mark.parametrize("edit,needle", [
    (dict(scaler=dict(mean=[0.0, 0.0, 0.0], scale=[1.0, 1.0])),
     r"scaler 'scale' must have shape \(3,\) \(D=3 from 'mean'\), got \(2,\)"),
    (dict(pca=dict(components=[[1.0, 0.0, 0.0]], explained_variance=[1.0, 1.0],
                   input_mean=[0.0, 0.0, 0.0], k=5)),
     r"PCA 'explained_variance' must have shape \(1,\)"),
    (dict(pca=dict(components=[[1.0, 0.0, 0.0]], explained_variance=[1.0],
                   input_mean=[0.0, 0.0, 0.0], k=5)),
     "PCA 'k' is 5, but 'components' has 1 rows"),
    (dict(pca=dict(components=[[1.0, 0.0]], explained_variance=[1.0],
                   input_mean=[0.0, 0.0, 0.0], k=1)),
     r"PCA 'components' must have shape \(1, 3\)"),
], ids=["scaler-scale-short", "pca-variances", "pca-k", "pca-components-narrow"])
def test_feature_model_json_rejects_misshapen_arrays(tmp_path, edit, needle):
    # each escaped from apply_scaler or project as a numpy ValueError
    payload = dict(scaler=dict(mean=[0.0, 0.0, 0.0], scale=[1.0, 1.0, 1.0]),
                   pca=dict(components=[[1.0, 0.0, 0.0]], explained_variance=[1.0],
                            input_mean=[0.0, 0.0, 0.0], k=1))
    (tmp_path / "m.json").write_text(json.dumps({**payload, **edit}))
    with pytest.raises(ModelError, match=needle):
        read_json(tmp_path / "m.json", FeatureModels)


@pytest.mark.parametrize("field", ["r_bins", "theta_bins"])
def test_grid_bins_past_int64_are_rejected(field):
    # 10**30 escaped as an OverflowError after a RuntimeWarning
    with pytest.raises(ParameterError, match="r_bins and theta_bins must be >= 1 and fit int64"):
        SectorGrid(**{field: 10 ** 30})
