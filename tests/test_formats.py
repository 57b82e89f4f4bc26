import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    DomainError,
    EmbeddingConfig,
    LabelMap,
    LabelSet,
    LossWeights,
    PartsToObjectsMapping,
    ProbMap,
    ToyNetConfig,
    load_labelset,
    load_map,
    load_params,
    load_probmap,
    save_labelset,
    save_map,
    save_params,
    save_ppm,
    save_probmap,
)
from partgraph.formats import _config_fields, load_pgm, load_segmap, save_pgm, save_segmap
from partgraph.synth import SceneSpec


def test_segmap_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 9, (16, 16)).astype(np.int32)
    m = LabelMap(labels, num_classes=9)
    path = tmp_path / "m.segmap"
    save_segmap(m, path)
    back = load_segmap(path)
    assert np.array_equal(back.labels, labels)
    assert back.num_classes == 9
    # re-saving reproduces the same bytes
    path2 = tmp_path / "m2.segmap"
    save_segmap(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_segmap_without_declared_classes_round_trips(tmp_path):
    labels = LabelMap(np.array([[0, 4], [2, 1]], dtype=np.int32))
    save_segmap(labels, tmp_path / "x.segmap")
    back = load_segmap(tmp_path / "x.segmap")
    assert back.num_classes == 5
    assert np.array_equal(back.labels, labels.labels)


def test_segmap_header_fields(tmp_path):
    m = LabelMap(np.array([[0, 1]]), num_classes=2)
    path = tmp_path / "m.segmap"
    save_segmap(m, path)
    raw = path.read_bytes()
    assert raw[:4] == b"SEGM"
    assert raw[4] == 1
    assert int.from_bytes(raw[5:9], "little") == 2  # width
    assert int.from_bytes(raw[9:13], "little") == 1  # height
    assert int.from_bytes(raw[13:17], "little") == 2  # num_classes
    assert raw[17:] == b"\x00\x00\x01\x00"  # u16 little-endian labels


def test_segmap_malformed(tmp_path):
    path = tmp_path / "bad.segmap"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DomainError, match="magic"):
        load_segmap(path)

    good = tmp_path / "good.segmap"
    save_segmap(LabelMap(np.array([[0, 1]]), num_classes=2), good)
    truncated = tmp_path / "trunc.segmap"
    truncated.write_bytes(good.read_bytes()[:-2])
    with pytest.raises(DomainError, match="truncated"):
        load_segmap(truncated)

    # label exceeding the declared class count
    evil = bytearray(good.read_bytes())
    evil[17:19] = (40).to_bytes(2, "little")
    bad_label = tmp_path / "label.segmap"
    bad_label.write_bytes(bytes(evil))
    with pytest.raises(DomainError, match="out of range for 2 classes"):
        load_segmap(bad_label)


def test_pgm_ascii_example(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P2\n2 1\n255\n0 1\n")
    m = load_pgm(path)
    assert (m.height, m.width) == (1, 2)
    assert m.labels.tolist() == [[0, 1]]
    assert m.num_classes == 256


def test_pgm_round_trips(tmp_path):
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 7, (16, 16)).astype(np.int32)
    m = LabelMap(labels, num_classes=7)
    for ascii_format in (False, True):
        path = tmp_path / f"m_{ascii_format}.pgm"
        save_pgm(m, path, ascii_format=ascii_format)
        back = load_pgm(path)
        assert np.array_equal(back.labels, labels)
        assert back.num_classes == 7


def test_pgm_wide_values(tmp_path):
    labels = np.array([[0, 300], [600, 999]], dtype=np.int32)
    m = LabelMap(labels, num_classes=1000)
    path = tmp_path / "wide.pgm"
    save_pgm(m, path)
    back = load_pgm(path)
    assert np.array_equal(back.labels, labels)


def test_pgm_malformed(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n2 1\n255\n\x00\x01")
    with pytest.raises(DomainError):
        load_pgm(path)
    path.write_bytes(b"P5\n2 1\n255\n\x00")  # one byte short
    with pytest.raises(DomainError, match="truncated"):
        load_pgm(path)
    path.write_bytes(b"P2\n2 1\n255\n0\n")  # one sample short
    with pytest.raises(DomainError):
        load_pgm(path)


@pytest.mark.parametrize("raw", [
    b"P5\n# made by hand\n3 # width\n# height next\n1\n# maxval\n255\n\x00\x01\x02",
    b"P5#c\n3#c\n1#c\n255\n\x00\x01\x02",  # comments glued to the magic and numbers
    b"P5 3 1 255\n\x00\x01\x02trailing bytes",  # bytes after the raster are ignored
    b"P2\n#c\n3#c\n1\n255\n0 1 2\n",
])
def test_pgm_header_comments_and_trailing_bytes(tmp_path, raw):
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    m = load_pgm(path)
    assert m.labels.tolist() == [[0, 1, 2]]
    assert m.num_classes == 256


@pytest.mark.parametrize("raw, message", [
    (b" P5\n2 1\n255\n\x00\x01", "malformed"),  # the magic number opens the file
    (b"# c\nP5\n2 1\n255\n\x00\x01", "malformed"),
    (b"P5\n+2 1\n255\n\x00\x01", "malformed"),  # header numbers are unsigned decimals
    (b"P5\n2 -1\n255\n\x00\x01", "malformed"),
    (b"P5\n2 1\n2_55\n\x00\x01", "malformed"),
    (b"P5\n2 1\n255#c\n\x00\x01", "malformed"),  # one whitespace byte ends the header
    (b"P5\n2 1\n" + b"9" * 5000 + b"\n\x00\x01", "malformed"),
    (b"P6\n2 1\n255\n\x00\x01\x02\x03\x04\x05", "unsupported PGM magic"),
    (b"P5\n2 1\n256\n\x00\x01\x00", "truncated"),  # 16-bit samples, one byte short
    (b"P5\n2 1\n65536\n\x00\x01\x00\x02", "bad PGM header"),
    (b"P2\n2 1\n255\n0 99999999999999999999\n", "P2 samples"),
])
def test_pgm_header_rejections(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(DomainError, match=message):
        load_pgm(path)


def test_pgm_sample_width_follows_maxval(tmp_path):
    for maxval, sample_bytes in ((1, 1), (6, 1), (255, 1), (256, 2), (999, 2), (65535, 2)):
        labels = np.array([[0, maxval], [maxval // 2, 1]], dtype=np.int32)
        m = LabelMap(labels, num_classes=maxval + 1)
        for ascii_format in (False, True):
            path = tmp_path / f"m{maxval}_{ascii_format}.pgm"
            save_pgm(m, path, ascii_format=ascii_format)
            back = load_pgm(path)
            assert np.array_equal(back.labels, labels) and back.num_classes == maxval + 1
        header = f"P5\n2 2\n{maxval}\n".encode()
        raw = (tmp_path / f"m{maxval}_False.pgm").read_bytes()
        assert raw.startswith(header) and len(raw) == len(header) + 4 * sample_bytes
        if sample_bytes == 2:  # netpbm puts the most significant byte first
            assert raw[len(header) + 2 : len(header) + 4] == maxval.to_bytes(2, "big")


def test_load_save_map_dispatch(tmp_path):
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 5, (16, 16)).astype(np.int32)
    m = LabelMap(labels, num_classes=5)
    for name in ("x.segmap", "x.pgm"):
        path = tmp_path / name
        save_map(m, path)
        assert np.array_equal(load_map(path).labels, labels)


def test_probmap_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    probs = rng.random((5, 4, 6)) + 0.01
    probs /= probs.sum(axis=2, keepdims=True)
    pm = ProbMap(probs)
    path = tmp_path / "p.probmap"
    save_probmap(pm, path)
    back = load_probmap(path)
    assert back.probs.shape == (5, 4, 6)
    assert np.abs(back.probs - probs).max() < 1e-6  # f32 quantization
    assert np.abs(back.probs.sum(axis=2) - 1.0).max() < 1e-9


def test_probmap_bad_magic(tmp_path):
    path = tmp_path / "bad.probmap"
    path.write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(DomainError, match="magic"):
        load_probmap(path)


def test_labelset_round_trip(tmp_path):
    mapping = PartsToObjectsMapping((0, 1, 3, 6),
                                    object_names=("background", "cat", "dog"),
                                    part_names=("background", "cat_head", "cat_body",
                                                "dog_head", "dog_body", "dog_tail"))
    ls = LabelSet(mapping)
    path = tmp_path / "ls.json"
    save_labelset(ls, path)
    back = load_labelset(path)
    assert back.mapping.boundaries == (0, 1, 3, 6)
    assert back.mapping.object_names == ("background", "cat", "dog")
    assert back.background_is_class_zero


@pytest.mark.parametrize("label_set", [
    LabelSet(PartsToObjectsMapping((0, 1, 3))),
    LabelSet(PartsToObjectsMapping((0, 2, 3), object_names=("a", "b")), False),
    LabelSet(PartsToObjectsMapping((0, 1, 2), object_names=("bg", "x"), part_names=("bg", "x"))),
], ids=["bare", "no-background", "named"])
def test_every_saved_labelset_loads_back_equal(tmp_path, label_set):
    save_labelset(label_set, tmp_path / "ls.json")
    assert load_labelset(tmp_path / "ls.json") == label_set


def test_labelset_inconsistent_counts(tmp_path):
    path = tmp_path / "ls.json"
    path.write_text('{"num_parts": 5, "num_objects": 2, "boundaries": [0, 1, 3]}')
    with pytest.raises(DomainError, match="num_parts"):
        load_labelset(path)


@pytest.mark.parametrize("fields,message", [
    ('"boundaries": ["a", 2]', "boundaries must be a list of integers"),
    ('"boundaries": [0, 1.5]', "boundaries must be a list of integers"),
    ('"boundaries": [true, 2]', "boundaries must be a list of integers"),
    ('"boundaries": "013"', "boundaries must be a list of integers"),
    ('"boundaries": 7', "boundaries must be a list of integers"),
    ('"boundaries": [0, 1, 3], "part_names": "abc"', "part_names must be a list of strings"),
    ('"boundaries": [0, 1, 3], "object_names": ["bg", 1]', "object_names must be a list of strings"),
    ('"boundaries": [0, 1, 3], "background_is_class_zero": "false"',
     "background_is_class_zero must be true or false"),
])
def test_labelset_fields_must_have_their_json_types(tmp_path, fields, message):
    path = tmp_path / "ls.json"
    path.write_text("{%s}" % fields)
    with pytest.raises(DomainError, match=message):
        load_labelset(path)


@pytest.mark.parametrize("config", [
    SceneSpec(width=24, height=16, num_objects=2, parts_per_object=(1, 3), min_instance=2,
              layout="nested_blobs", seed=9),
    ToyNetConfig(num_stages=3, encoder_channels=(4, 6, 8), decoder_channels=(8, 6, 4),
                 embedding=EmbeddingConfig((5, 3, 3), (4, 8, 12)), conditioning="single",
                 seed=2),
    AdjacencyConfig(distance_threshold=6, element_shape="diamond", weighting="unweighted",
                    include_background=False, soft_mode="hard_max", beta=7.5),
    LossWeights(lambda1=0.25, lambda2=0.0),
    PartsToObjectsMapping((0, 1, 3), object_names=("bg", "cat"),
                          part_names=("bg", "cat_head", "cat_body")),
], ids=lambda config: type(config).__name__)
def test_every_config_round_trips_through_the_json_reader(config):
    doc = json.loads(json.dumps(dataclasses.asdict(config)))
    assert type(config)(**_config_fields(type(config), doc, "config")) == config


def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    params = {
        "enc1.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32).astype(np.float64),
        "enc1.b": np.zeros(4),
        "head.w": rng.standard_normal((2, 4, 1, 1)).astype(np.float32).astype(np.float64),
    }
    path = tmp_path / "p.tprm"
    save_params(params, path)
    back = load_params(path)
    assert sorted(back) == sorted(params)
    for name in params:
        assert back[name].shape == params[name].shape
        assert np.array_equal(back[name], params[name])
    assert path.read_bytes()[:4] == b"TPRM"


def test_ppm_dump(tmp_path):
    rgb = np.zeros((3, 2, 2))
    rgb[0, 0, 0] = 1.0
    path = tmp_path / "x.ppm"
    save_ppm(rgb, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n2 2\n255\n")
    assert data[11:14] == b"\xff\x00\x00"


# each header declares a payload that the file does not hold: 64 MiB, or for
# "tprm-wrap" 2**66 bytes, whose element count 65536**4 wraps to 0 in int64
OVERSIZE_HEADERS = {
    "segmap": (load_segmap, b"SEGM" + struct.pack("<BIII", 1, 4096, 8192, 3)),
    "probmap": (load_probmap, b"PROB" + struct.pack("<BIII", 1, 4096, 4096, 1)),
    "tprm": (load_params, b"TPRM" + struct.pack("<BI", 1, 1) + struct.pack("<H", 1) + b"w"
             + struct.pack("<B", 2) + struct.pack("<2I", 4096, 4096)),
    "tprm-wrap": (load_params, b"TPRM" + struct.pack("<BI", 1, 1) + struct.pack("<H", 1) + b"w"
                  + struct.pack("<B", 4) + struct.pack("<4I", *[65536] * 4)),
}


@pytest.mark.parametrize("suffix", sorted(OVERSIZE_HEADERS))
def test_declared_payload_larger_than_the_file_allocates_nothing(tmp_path, suffix):
    loader, header = OVERSIZE_HEADERS[suffix]
    path = tmp_path / f"big.{suffix}"
    path.write_bytes(header + bytes(9))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="truncated file"):
            loader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
