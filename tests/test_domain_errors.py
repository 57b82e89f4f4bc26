"""Contract checks that no other test reaches: each bad input raises a
DomainError whose message is one line, as the CLI's stderr contract needs."""

import json
import struct

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    AdjacencyMatrix,
    ConfusionMatrix,
    DomainError,
    EmbeddingConfig,
    LabelMap,
    LabelSet,
    LossWeights,
    PartsToObjectsMapping,
    ProbMap,
    ToyNetConfig,
    adjacency_from_labels,
    load_labelset,
    load_probmap,
    one_hot,
    save_labelset,
    save_ppm,
    toy_forward,
    train_toy,
)
from partgraph.adjacency import gm_value
from partgraph.condnet import _conv_backward
from partgraph.formats import load_pgm, load_segmap, save_pgm, save_segmap
from partgraph.synth import SceneSpec, generate, generate_dataset
from test_cli import run_cli

LABELS = LabelMap(np.zeros((4, 4), dtype=np.int32), num_classes=3)
SQUARE = np.zeros((3, 3), dtype=np.int64)
MAPPING = PartsToObjectsMapping((0, 1, 3))
# a NaN background channel beside two valid ones; without background it adds
# nothing to the loss, but it is still a probability array's channel
NAN_BACKGROUND = np.dstack([np.full((4, 4, 1), np.nan), np.full((4, 4, 2), 0.5)])


def case(name, needle, call):
    """A call that breaks a contract, and a fragment of the message it must raise."""
    return pytest.param(needle, call, id=name)


CASES = [
    case("adjacency non-square", "must be square",
         lambda _: AdjacencyMatrix(np.zeros((2, 3)))),
    case("adjacency unknown kind",
         "adjacency kind must be one of ('raw_counts', 'normalized'), got 'bogus'",
         lambda _: AdjacencyMatrix(np.zeros((2, 2)), kind="bogus")),
    case("adjacency non-finite", "must be finite",
         lambda _: AdjacencyMatrix(np.array([[0.0, np.inf], [0.0, 0.0]]))),
    case("graph without parts", "num_parts must be >= 1",
         lambda _: adjacency_from_labels(LABELS, 0, AdjacencyConfig())),
    case("graph class count", "declares 3 classes",
         lambda _: adjacency_from_labels(LABELS, 4, AdjacencyConfig())),
    case("graph matching NaN background", "[0, 1]",
         lambda _: gm_value(NAN_BACKGROUND, AdjacencyMatrix(np.zeros((3, 3)), kind="normalized"),
                            AdjacencyConfig(include_background=False))),
    case("conv gradient shape", "grad shape",
         lambda _: _conv_backward(np.zeros((2, 5, 5)), np.zeros((3, 2, 3, 3)),
                                  np.zeros((3, 4, 5)))),
    case("embedding unequal plans", "equal length", lambda _: EmbeddingConfig((3, 3), (4,))),
    case("embedding channels 0", "embedding channel counts must be >= 1, got (0, 16)",
         lambda _: EmbeddingConfig((7, 5), (0, 16))),
    case("encoder channels -1", "encoder channel counts must be >= 1, got (-1, 4)",
         lambda _: ToyNetConfig(encoder_channels=(-1, 4))),
    case("encoder channels 0", "encoder channel counts must be >= 1, got (0, 4)",
         lambda _: ToyNetConfig(encoder_channels=(0, 4))),
    case("decoder channels -2", "decoder channel counts must be >= 1, got (16, -2)",
         lambda _: ToyNetConfig(decoder_channels=(16, -2))),
    case("adjacency soft mode", "soft mode must be one of",
         lambda _: AdjacencyConfig(soft_mode="bogus")),
    case("embedding toy(0)", "1..4 layers, got 0", lambda _: EmbeddingConfig.toy(0)),
    case("embedding toy(5)", "1..4 layers, got 5", lambda _: EmbeddingConfig.toy(5)),
    case("confusion 1-D", "must be square",
         lambda _: ConfusionMatrix(np.zeros(3, dtype=np.int64))),
    case("confusion float", "must hold integers", lambda _: ConfusionMatrix(np.zeros((3, 3)))),
    case("confusion negative", "nonnegative",
         lambda _: ConfusionMatrix(SQUARE - np.eye(3, dtype=np.int64))),
    case("confusion sizes", "size 3 and 2",
         lambda _: ConfusionMatrix(SQUARE) + ConfusionMatrix(SQUARE[:2, :2])),
    case("probabilities inf", "must be finite", lambda _: ProbMap(np.full((2, 2, 1), np.inf))),
    case("mapping names", "expected 3 part names",
         lambda _: PartsToObjectsMapping((0, 1, 3), part_names=("a", "b"))),
    case("segmap classes", "65537 classes",
         lambda tmp: save_segmap(LabelMap(np.zeros((1, 1), dtype=np.int32), num_classes=65537),
                                 tmp / "x.segmap")),
    case("ppm 2-D", "(3, H, W) tensor", lambda tmp: save_ppm(np.zeros((4, 4)), tmp / "x.ppm")),
    case("train without scenes", "at least one training scene",
         lambda _: train_toy([], MAPPING, ToyNetConfig(), LossWeights(), AdjacencyConfig(),
                             steps=1, lr=0.1)),
]


@pytest.mark.parametrize("needle, call", CASES)
def test_contract_violation_is_a_one_line_domain_error(tmp_path, needle, call):
    with pytest.raises(DomainError) as info:
        call(tmp_path)
    message = str(info.value)
    assert needle in message and "\n" not in message



def raises(call):
    """The message of the DomainError that ``call(tmp_path)`` raises."""
    def message(tmp):
        with pytest.raises(DomainError) as info:
            call(tmp)
        return str(info.value)
    return message


def loads(load, data: bytes, name: str):
    """The message of the DomainError that ``load`` raises on a file holding ``data``."""
    def call(tmp):
        (tmp / name).write_bytes(data)
        load(tmp / name)
    return raises(call)


def exits_2(setup):
    """The stderr line of the CLI run on ``setup(tmp_path)``, which must exit 2."""
    def message(tmp):
        result = run_cli(*setup(tmp))
        assert result.returncode == 2 and result.stdout == b""
        return result.stderr.decode().removesuffix("\n")
    return message


def segm(version=1, width=1, height=1, classes=1) -> bytes:
    header = struct.pack("<BIII", version, width, height, classes)
    return b"SEGM" + header + bytes(2 * width * height)


def prob(values, version=1, width=1, height=1) -> bytes:
    header = struct.pack("<BIII", version, width, height, len(values))
    return b"PROB" + header + np.asarray(values, dtype="<f4").tobytes()


def metrics_run(pred_names, gt_names):
    """The arguments of metrics on two directories of 2x2 label maps with these names."""
    def setup(tmp):
        for sub, names in (("pred", pred_names), ("gt", gt_names)):
            (tmp / sub).mkdir()
            for name in names:
                save_segmap(LabelMap(np.zeros((2, 2), dtype=np.int32), num_classes=3),
                            tmp / sub / name)
        save_labelset(LabelSet(MAPPING), tmp / "ls.json")
        return ("metrics", "--pred-dir", str(tmp / "pred"), "--gt-dir", str(tmp / "gt"),
                "--labelset", str(tmp / "ls.json"))
    return setup


def train_toy_run(config: dict):
    """The arguments of a one-step train-toy run on ``config``."""
    def setup(tmp):
        (tmp / "cfg.json").write_text(json.dumps(config))
        return ("train-toy", "--config", str(tmp / "cfg.json"), "--steps", "1")
    return setup


ZEROS_8 = LabelMap(np.zeros((8, 8), dtype=np.int32))

# checks that the tests of their modules do not reach
UNREACHED = [
    case("segm version", "unsupported SEGM version 2",
         loads(load_segmap, segm(version=2), "x.segmap")),
    case("prob version", "unsupported PROB version 3",
         loads(load_probmap, prob([1.0], version=3), "x.probmap")),
    case("segm width 0", "width=0", loads(load_segmap, segm(width=0), "x.segmap")),
    case("segm height 0", "height=0", loads(load_segmap, segm(height=0), "x.segmap")),
    case("segm classes 0", "num_classes=0", loads(load_segmap, segm(classes=0), "x.segmap")),
    case("prob width 0", "width=0", loads(load_probmap, prob([1.0], width=0), "x.probmap")),
    case("prob height 0", "height=0", loads(load_probmap, prob([1.0], height=0), "x.probmap")),
    case("prob channels 0", "channels=0", loads(load_probmap, prob([]), "x.probmap")),
    case("prob outside [0, 1]", "outside [0, 1]",
         loads(load_probmap, prob([1.5, -0.5]), "x.probmap")),
    case("prob sums", "sums deviate from 1", loads(load_probmap, prob([0.5, 0.4]), "x.probmap")),
    case("p2 above maxval", "sample 5 exceeds maxval 1",
         loads(load_pgm, b"P2\n1 1\n1\n5\n", "x.pgm")),
    case("p5 above maxval", "sample 7 exceeds maxval 1",
         loads(load_pgm, b"P5\n1 1\n1\n\x07", "x.pgm")),
    case("pgm maxval", "limited to 65535, needed 69999",
         raises(lambda tmp: save_pgm(LabelMap(np.zeros((1, 1), dtype=np.int32),
                                              num_classes=70000), tmp / "x.pgm"))),
    case("labelset num_objects", "declared num_objects 5 disagrees with boundaries (2)",
         loads(load_labelset, b'{"num_objects": 5, "boundaries": [0, 1, 3]}', "ls.json")),
    case("label map 1-D", "must be 2D", raises(lambda _: LabelMap(np.zeros(3, dtype=np.int32)))),
    case("negative label", "negative label -1 at pixel (row=0, col=1)",
         raises(lambda _: LabelMap(np.array([[0, -1]])))),
    case("label map classes 0", "num_classes must be >= 1, got 0",
         raises(lambda _: LabelMap(np.zeros((1, 1), dtype=np.int32), num_classes=0))),
    case("probabilities 2-D", "must be H x W x C", raises(lambda _: ProbMap(np.ones((2, 2))))),
    case("one-hot 0 classes", "num_classes must be >= 1, got 0",
         raises(lambda _: one_hot(ZEROS_8, 0))),
    case("synth 0 objects", "need at least one object",
         raises(lambda _: SceneSpec(num_objects=0, parts_per_object=()))),
    case("synth 0 parts", "every object needs at least one part",
         raises(lambda _: SceneSpec(num_objects=1, parts_per_object=(0,)))),
    case("synth min_instance 0", "min_instance must be >= 1",
         raises(lambda _: SceneSpec(min_instance=0))),
    case("synth canvas", "canvas 8x8 is too small for 3 objects",
         raises(lambda _: generate(SceneSpec(width=8, height=8)))),
    case("synth rings", "cannot hold 12 nested rings",
         raises(lambda _: generate(SceneSpec(num_objects=1, parts_per_object=(12,),
                                             layout="nested_blobs")))),
    case("synth 0 scenes", "need at least one scene",
         raises(lambda _: generate_dataset(SceneSpec(), 0))),
    case("conditioning", "conditioning must be one of",
         raises(lambda _: ToyNetConfig(conditioning="bogus"))),
    case("image channels", "input image must be (3, H, W), got shape (1, 8, 8)",
         raises(lambda _: toy_forward(np.zeros((1, 8, 8)), one_hot(ZEROS_8, 2),
                                      ToyNetConfig(), {}))),
    case("metrics without maps", "no .segmap files", exits_2(metrics_run([], []))),
    case("metrics file names", "different file names",
         exits_2(metrics_run(["a.segmap"], ["b.segmap"]))),
    case("train-toy scene", "scene must be an object, got 5", exits_2(train_toy_run({"scene": 5}))),
    case("train-toy embedding", "net.embedding must be an object, got 3",
         exits_2(train_toy_run({"net": {"embedding": 3}}))),
]


@pytest.mark.parametrize("needle, message", UNREACHED)
def test_unreached_check_ends_in_one_line_that_names_it(tmp_path, needle, message):
    text = message(tmp_path)
    assert needle in text and "\n" not in text
