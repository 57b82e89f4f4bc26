"""Contract checks that no other test reaches: each bad input raises a
DomainError whose message is one line, as the CLI's stderr contract needs."""

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    AdjacencyMatrix,
    ConfusionMatrix,
    DomainError,
    EmbeddingConfig,
    LabelMap,
    LossWeights,
    PartsToObjectsMapping,
    ProbMap,
    ToyNetConfig,
    adjacency_from_labels,
    save_ppm,
    train_toy,
)
from partgraph.adjacency import gm_value
from partgraph.condnet import _conv_backward, conv2d_forward
from partgraph.formats import save_segmap

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
    case("adjacency unknown kind", "unknown adjacency kind",
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
    case("conv 4-D input", "(C, H, W) tensor",
         lambda _: conv2d_forward(np.zeros((2, 1, 5, 5)), np.zeros((3, 2, 3, 3)))),
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
