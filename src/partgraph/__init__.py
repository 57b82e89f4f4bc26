"""partgraph: part-adjacency graphs, graph-matching and reconstruction losses,
segmentation metrics, and a toy object-conditioned part decoder.

The package is organized around small immutable data types (label maps,
probability maps, part-to-object mappings, adjacency matrices) and pure
functions over them. See the README for the file formats and the CLI.
"""

__version__ = "0.1.0"

from .adjacency import (
    AdjacencyConfig,
    AdjacencyMatrix,
    adjacency_from_labels,
    normalize_rows,
    soft_adjacency,
)
from .condnet import (
    EmbeddingConfig,
    ToyNetConfig,
    init_toy_params,
    mean_gm_loss,
    toy_forward,
    train_toy,
)
from .core import (
    LabelMap,
    LabelSet,
    PartsToObjectsMapping,
    ProbMap,
    argmax_map,
    one_hot,
    project_labels,
    sum_probability,
)
from .errors import DomainError, NumericError
from .formats import (
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
from .losses import LossReport, LossWeights, cross_entropy, reconstruction_loss, total_loss
from .metrics import ConfusionMatrix, MetricReport, confusion, report
from .morphology import StructuringElement, soft_dilate
from .rng import Xorshift64Star
from .synth import SceneSpec, generate, generate_dataset

__all__ = [
    "AdjacencyConfig", "AdjacencyMatrix", "ConfusionMatrix", "DomainError",
    "EmbeddingConfig", "LabelMap", "LabelSet", "LossReport", "LossWeights",
    "MetricReport", "NumericError", "PartsToObjectsMapping", "ProbMap",
    "SceneSpec", "StructuringElement", "ToyNetConfig", "Xorshift64Star",
    "adjacency_from_labels", "argmax_map", "confusion", "cross_entropy",
    "generate", "generate_dataset", "init_toy_params", "load_labelset",
    "load_map", "load_params", "load_probmap", "mean_gm_loss",
    "normalize_rows", "one_hot", "project_labels", "reconstruction_loss",
    "report", "save_labelset", "save_map", "save_params", "save_ppm",
    "save_probmap", "soft_adjacency", "soft_dilate", "sum_probability",
    "total_loss", "toy_forward", "train_toy",
]
