"""Property tests for persistence: every record and binary format round-trips,
and a damaged file is rejected with a typed error that names what is wrong."""

from __future__ import annotations

import dataclasses
import json
import typing
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from echodyn.cpda import (
    CpdaWeights,
    FeatureClip,
    load_feature_clip,
    save_feature_clip,
    seed_cpda_weights,
)
from echodyn.descriptor import FeatureModels, PcaModel, ScalerModel, SectorGrid
from echodyn.dynamics import DynamicsModel, RbfConfig
from echodyn.errors import FormatError, ParameterError
from echodyn.flow import FlowField, FlowParams, load_flow, save_flow
from echodyn.pipeline import CpdaDims, PipelineConfig
from echodyn.seqio import (
    FrameSequence,
    SequenceMeta,
    load_sequence,
    quantize_frame,
    read_binary,
    read_json,
    read_pgm,
    save_sequence,
    write_json,
    write_pgm,
)

small = st.integers(1, 5)
finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-3, 1e3)
seeds = st.integers(0, 2 ** 64 - 1)
# a fixed alphabet with quoting and non-ASCII characters (drawing from all of
# Unicode first builds a character table, about two seconds)
text = st.text(alphabet='az09 ."\\/\n\u00e9\u2665', max_size=6)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite)


rbf_configs = st.builds(RbfConfig, m_centers=small, sigma=st.none() | positive,
                        learn_rate=positive, epochs=small, ridge=st.floats(0, 1),
                        fit=st.sampled_from(["lms", "ls"]))

configs = st.builds(
    PipelineConfig, seed=seeds,
    grid=st.builds(SectorGrid, r_bins=small, theta_bins=small,
                   center=st.none() | st.tuples(finite, finite), r_max=st.none() | positive),
    flow=st.builds(FlowParams, alpha=positive, iterations=small,
                   presmooth_sigma=st.floats(0, 5)),
    pca_k=small, rbf=rbf_configs, k2=small,
    cpda=st.builds(CpdaDims, d_p=small, d_e=small, heads=small, alpha=st.floats(0, 1)),
)


@st.composite
def dynamics_models(draw):
    m, k = draw(small), draw(small)
    return DynamicsModel(centers=draw(arrays((m, k))), weights=draw(arrays((m, k))),
                         sigma=draw(positive), config=draw(rbf_configs),
                         residual_history=draw(arrays(draw(small))), kmeans_seed=draw(seeds))


@st.composite
def feature_models(draw):
    d, k = draw(small), draw(small)
    return FeatureModels(
        scaler=ScalerModel(mean=draw(arrays(d)), scale=draw(arrays(d))),
        pca=PcaModel(components=draw(arrays((k, d))), explained_variance=draw(arrays(k)),
                     input_mean=draw(arrays(d)), k=k))


@st.composite
def cpda_weights(draw):
    channels, d_p, d_e = draw(small), draw(small), draw(small)
    d = channels + d_p + d_e
    heads = draw(st.sampled_from([h for h in range(1, d + 1) if d % h == 0]))
    return seed_cpda_weights(channels=channels, d_p=d_p, d_e=d_e, k2=draw(small),
                             heads=heads, alpha=draw(st.floats(0, 1)), seed=draw(seeds))


sequence_metas = st.builds(
    SequenceMeta, t=st.integers(2, 500), h=small, w=small, ed=st.integers(0, 9),
    es=st.integers(0, 9), meta=st.dictionaries(text, text, max_size=3))

# (strategy, record type, loader, error the loader raises for a damaged file)
RECORDS = {
    "config": (configs, PipelineConfig, PipelineConfig.from_json, ParameterError),
    "dynamics": (dynamics_models(), DynamicsModel, partial(read_json, cls=DynamicsModel),
                 FormatError),
    "features": (feature_models(), FeatureModels, partial(read_json, cls=FeatureModels),
                 FormatError),
    "cpda": (cpda_weights(), CpdaWeights, partial(read_json, cls=CpdaWeights), FormatError),
    "meta": (sequence_metas, SequenceMeta, partial(read_json, cls=SequenceMeta), FormatError),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("persistence")


def assert_same(a, b):
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("name", RECORDS)
@given(data=st.data())
def test_record_roundtrips(work, name, data):
    records, cls, load, _ = RECORDS[name]
    record = data.draw(records)
    write_json(work / "r.json", record)
    assert_same(read_json(work / "r.json", cls), record)
    assert_same(load(work / "r.json"), record)


def record_keys(cls, prefix=""):
    """(dotted key, declared type, required) for every field, nested ones too."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key, tp = prefix + f.name, hints[f.name]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        yield key, tp, required
        if dataclasses.is_dataclass(tp):
            yield from record_keys(tp, key + ".")


def wrong_values(tp):
    """JSON values that do not fit the declared type `tp`."""
    if dataclasses.is_dataclass(tp):
        return ["x", 1, [], None]
    return {
        int: ["x", 1.5, True, None, [1]],
        float: ["x", True, None, [1.0]],
        str: [1, 1.5, True, None, ["lms"]],
        np.ndarray: ["x", 1.0, {}, None, ["x"], [1.0, True], [[1.0], [1.0, 2.0]]],
        float | None: ["x", True, [1.0]],
        tuple[float, float] | None: ["x", [1.0], [1.0, "x"], {}],
        dict[str, str]: [[1], "x", {"k": 1}],
    }[tp]


def parent_and_name(raw: dict, key: str) -> tuple[dict, str]:
    *path, name = key.split(".")
    for part in path:
        raw = raw[part]
    return raw, name


@pytest.mark.parametrize("name", RECORDS)
@given(data=st.data())
def test_damaged_record_names_the_key(work, name, data):
    records, cls, load, error = RECORDS[name]
    write_json(work / "r.json", data.draw(records))
    raw = json.loads((work / "r.json").read_text())
    keys = list(record_keys(cls))
    objects = [""] + [key for key, tp, _ in keys if dataclasses.is_dataclass(tp)]
    kind, key, tp = data.draw(st.sampled_from(
        [("delete", key, tp) for key, tp, required in keys if required]
        + [("add", f"{obj}.extra" if obj else "extra", None) for obj in objects]
        + [("swap", key, tp) for key, tp, _ in keys]))
    parent, field = parent_and_name(raw, key)
    if kind == "delete":
        del parent[field]
        needle = f"missing key '{key}'"
    elif kind == "add":
        parent[field] = 1
        needle = f"unexpected key '{key}'"
    else:
        parent[field] = data.draw(st.sampled_from(wrong_values(tp)))
        needle = f"'{key}' must be"
    (work / "r.json").write_text(json.dumps(raw))
    with pytest.raises(error) as exc:
        load(work / "r.json")
    assert needle in str(exc.value)


@st.composite
def eds_sequences(draw):
    t = draw(st.integers(2, 4))
    frames = draw(hnp.arrays(np.uint8, (t, draw(small), draw(small)))) / 255.0
    ed = draw(st.integers(0, t - 1))
    es = draw(st.integers(0, t - 1).filter(lambda i: i != ed))
    return FrameSequence(frames=frames, ed_index=ed, es_index=es)


def f32_arrays(shape):
    return hnp.arrays(np.float32, shape, elements=st.floats(-1e6, 1e6, width=32))


# FLW1 and FTC1 load as float32, so the round trip starts from float32 too
@st.composite
def flow_fields(draw):
    shape = (draw(small), draw(small))
    return FlowField(u=draw(f32_arrays(shape)), v=draw(f32_arrays(shape)))


@st.composite
def feature_clips(draw):
    shape = tuple(draw(small) for _ in range(4))
    return FeatureClip(data=draw(f32_arrays(shape)))


def eds_same(a, b):
    assert np.array_equal(a.frames, b.frames)
    assert (a.ed_index, a.es_index) == (b.ed_index, b.es_index)


# (strategy, file name, saver(obj, path), loader(path), equality check)
BINARY = {
    "pgm": (hnp.arrays(np.uint8, st.tuples(small, small)), "x.pgm",
            lambda obj, path: write_pgm(path, obj), read_pgm, np.testing.assert_array_equal),
    "eds": (eds_sequences(), "x.eds", save_sequence, load_sequence, eds_same),
    "flw1": (flow_fields(), "x.bin", save_flow, load_flow, assert_same),
    "ftc1": (feature_clips(), "x.ftc", save_feature_clip, load_feature_clip, assert_same),
}


@pytest.mark.parametrize("name", BINARY)
@given(data=st.data())
def test_binary_roundtrip_and_truncation(work, name, data):
    objects, file_name, save, load, check = BINARY[name]
    obj, path = data.draw(objects), work / file_name
    save(obj, path)
    check(load(path), obj)
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(FormatError):
        load(path)


def u32(*fields) -> bytes:
    return np.array(fields, dtype="<u4").tobytes()


# each binary file's bytes, built whole with tobytes (C order)
LAYOUTS = {
    "eds": lambda s: (b"EDS1" + u32(s.t_count, *s.shape, s.ed_index, s.es_index)
                      + quantize_frame(s.frames).tobytes()),
    "flw1": lambda f: (b"FLW1" + u32(*f.u.shape) + f.u.astype("<f4").tobytes()
                       + f.v.astype("<f4").tobytes()),
    "ftc1": lambda c: b"FTC1" + u32(*c.data.shape) + c.data.astype("<f4").tobytes(),
}


def fortran_order(obj):
    """`obj` with every array field stored in Fortran order."""
    return dataclasses.replace(obj, **{f.name: np.asfortranarray(getattr(obj, f.name))
                                       for f in dataclasses.fields(obj)
                                       if isinstance(getattr(obj, f.name), np.ndarray)})


# writers draw a frame or plane at a time; the bytes must not depend on how
# the arrays lie in memory
@pytest.mark.parametrize("name", LAYOUTS)
@pytest.mark.parametrize("order", [lambda obj: obj, fortran_order], ids=["C", "F"])
@given(data=st.data())
@settings(max_examples=20)
def test_binary_bytes_follow_the_layout_in_any_memory_order(work, name, order, data):
    objects, file_name, save, load, check = BINARY[name]
    obj, path = order(data.draw(objects)), work / file_name
    save(obj, path)
    assert path.read_bytes() == LAYOUTS[name](obj)
    check(load(path), obj)


def test_read_binary_returns_a_view_of_the_payload(work):
    path = work / "x.ftc"
    save_feature_clip(FeatureClip(data=np.arange(6.0).reshape(1, 2, 3, 1)), path)
    fields, payload = read_binary(path, b"FTC1", 4, 4, 4)
    assert fields == (1, 2, 3, 1)
    assert isinstance(payload, memoryview)
    assert payload.tobytes() == path.read_bytes()[20:]


def flipped_bits(raw: bytes, n_bytes: int):
    """`raw` with one bit flipped, for each bit of its first `n_bytes` bytes."""
    for bit in range(8 * n_bytes):
        damaged = bytearray(raw)
        damaged[bit // 8] ^= 1 << (bit % 8)
        yield bytes(damaged)


# bytes of magic plus dimension fields: EDS1 T,H,W; FLW1 H,W; FTC1 T,H,W,C
DIMENSION_HEADERS = {"eds": 16, "flw1": 12, "ftc1": 20}


# every header bit is flipped in each drawn file, so few files are needed
@pytest.mark.parametrize("name", DIMENSION_HEADERS)
@given(data=st.data())
@settings(max_examples=10)
def test_flipped_magic_or_dimension_bit_is_a_format_error(work, name, data):
    objects, file_name, save, load, _ = BINARY[name]
    path = work / file_name
    save(data.draw(objects), path)
    for damaged in flipped_bits(path.read_bytes(), DIMENSION_HEADERS[name]):
        path.write_bytes(damaged)
        with pytest.raises(FormatError):
            load(path)


@given(pixels=BINARY["pgm"][0])
@settings(max_examples=10)
def test_flipped_pgm_header_bit_fails_or_reads_the_same(work, pixels):
    path = work / "x.pgm"
    write_pgm(path, pixels)
    raw = path.read_bytes()
    for damaged in flipped_bits(raw, len(raw) - pixels.size):
        path.write_bytes(damaged)
        try:
            got = read_pgm(path)
        except FormatError:
            continue
        np.testing.assert_array_equal(got, pixels)
