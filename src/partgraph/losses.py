"""The three training losses and their analytic gradients.

All losses consume a probability map (the softmax lives in the network
module, keeping this module architecture-free) and return a scalar penalty
plus its gradient with respect to every probability entry.

- ``cross_entropy``: mean over pixels of the negative log-probability of the
  true part class.
- ``reconstruction_loss``: cross-entropy between the object-level ground
  truth and the part probabilities summed within each object. Mass moved
  between parts of the same object is invisible to this term; only mass
  placed outside the true object is penalized.
- ``total_loss``: cross-entropy plus lambda1 * reconstruction plus
  lambda2 * graph-matching, with the combined gradient.

The public entries check an (H, W, C) ``ProbMap``; every kernel below them
takes a (C, N, H, W) block of N scenes, the layout the network emits. Graph
matching runs first and returns its weighted gradient in the dilation
backward's own buffer; cross-entropy and reconstruction add theirs into it, so
the whole objective holds three probability-sized arrays at its peak.
Each pixel's true class is read and written through the block's (C, N*H*W)
pixel view by one (label, pixel) index pair; a gradient buffer that cannot take
that view without a copy, where the writes would be lost, raises ValueError.

Pixel aggregation is the mean, so loss magnitudes are independent of image
size. Probabilities are clamped below at LOG_EPS before the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .adjacency import (
    AdjacencyConfig,
    AdjacencyMatrix,
    _graph_matching,
    adjacency_from_labels,
    gm_value_and_grad,  # noqa: F401  (bench/run.py --trace 1 patches this name here)
    normalize_rows,
)
from .core import (
    DomainError,
    LabelMap,
    PartsToObjectsMapping,
    ProbMap,
    _check_channels,
    _check_labels_below,
    _check_same_size,
    _sum_probability_array,
    project_labels,
)

LOG_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Relative weights of the reconstruction and graph-matching terms."""

    lambda1: float = 1e-3
    lambda2: float = 0.1

    def __post_init__(self):
        for name, value in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not (np.isfinite(value) and value >= 0.0):
                raise DomainError(f"loss weight {name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class LossReport:
    """The three loss terms and their weighted total."""

    ce: float
    rec: float
    gm: float
    total: float

    @classmethod
    def combine(cls, ce: float, rec: float, gm: float, weights: LossWeights) -> "LossReport":
        return cls(ce=ce, rec=rec, gm=gm, total=ce + weights.lambda1 * rec + weights.lambda2 * gm)


def _check_labels(pred: ProbMap, gt: LabelMap, num_labels: int) -> None:
    """Ground truth of the prediction's size, with labels below ``num_labels``."""
    _check_same_size(pred, gt)
    _check_labels_below(gt.labels, num_labels)


def _check_objects(pred: ProbMap, gt_objects: LabelMap, mapping: PartsToObjectsMapping) -> None:
    """The prediction, object labels and mapping :func:`reconstruction_loss` accepts."""
    _check_channels(pred, mapping)
    _check_labels(pred, gt_objects, mapping.num_objects)


def _one_scene(pred: ProbMap, kernel, *args):
    """``kernel(block, *args, grad)`` on ``pred`` as one scene: (value, (H, W, C) gradient)."""
    grad = np.zeros((pred.num_classes, 1, pred.height, pred.width))
    value = kernel(np.moveaxis(pred.probs, 2, 0)[:, None], *args, grad)
    return value, np.moveaxis(grad[:, 0], 0, 2)


def cross_entropy(pred: ProbMap, gt: LabelMap) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of the true class, with its gradient."""
    _check_labels(pred, gt, pred.num_classes)
    return _one_scene(pred, _cross_entropy_raw, gt.labels[None])


def _cross_entropy_raw(probs: np.ndarray, labels: np.ndarray, grad: np.ndarray) -> float:
    """Summed per-scene cross-entropy of a (C, N, H, W) block against (N, H, W) labels.

    The gradient is added into ``grad``, which has the block's shape.
    """
    pixels = (labels.ravel(), np.arange(labels.size))
    true_p = probs.reshape(len(probs), -1)[pixels]
    clamped = np.maximum(true_p, LOG_EPS)
    npix = labels[0].size
    per_scene = -np.log(clamped).reshape(len(labels), npix).mean(axis=1)
    slope = np.where(true_p > LOG_EPS, -1.0 / (npix * clamped), 0.0)
    np.reshape(grad, (len(grad), -1), copy=False)[pixels] += slope
    return float(per_scene.sum() + 0.0)  # +0.0 drops -0.0


def reconstruction_loss(pred: ProbMap, gt_objects: LabelMap,
                        mapping: PartsToObjectsMapping) -> tuple[float, np.ndarray]:
    """Object-level cross-entropy of the summed part probabilities, with gradient.

    The gradient of the object-channel sum is 1 toward each of its part
    channels, so every part of the true object receives the same slope.
    """
    _check_objects(pred, gt_objects, mapping)
    return _one_scene(pred, _reconstruction_raw, gt_objects.labels[None], mapping)


def _reconstruction_raw(probs: np.ndarray, object_labels: np.ndarray,
                        mapping: PartsToObjectsMapping, grad: np.ndarray,
                        scale: float = 1.0) -> float:
    """Summed per-scene reconstruction loss of a (C, N, H, W) block against (N, H, W) objects.

    ``scale`` times the gradient is added into ``grad``, which has the block's shape.
    """
    summed = _sum_probability_array(probs, mapping)
    grad_summed = np.zeros_like(summed)
    loss = _cross_entropy_raw(summed, object_labels, grad_summed)
    grad_summed *= scale
    grad_summed += 0.0  # drops a zero scale's -0.0: added to g, it gives what 0 + it + g does
    for obj, (lo, hi) in enumerate(pairwise(mapping.boundaries)):
        grad[lo:hi] += grad_summed[obj]
    return loss


def reference_graph(gt_parts: LabelMap, num_parts: int,
                    cfg: AdjacencyConfig) -> AdjacencyMatrix:
    """The normalized reference adjacency graph of the discrete part labels."""
    return normalize_rows(adjacency_from_labels(gt_parts, num_parts, cfg))


def _block_loss(probs: np.ndarray, targets, mapping: PartsToObjectsMapping,
                cfg: AdjacencyConfig, weights: LossWeights):
    """Summed (ce, rec, gm) of a (C, N, H, W) block and each scene's (parts, objects,
    reference), and the weighted gradient, in the graph-matching backward's buffer.

    Each entry is (ce + lambda1 * rec) + lambda2 * gm bit for bit: off the true
    class the sum commutes; on it, gm is taken out first and added back last.
    """
    labels = np.stack([p.labels for p, _, _ in targets])
    _, losses, grad = _graph_matching(probs, cfg, [reference for _, _, reference in targets],
                                      weights.lambda2)
    pixels = (labels.ravel(), np.arange(labels.size))
    view = np.reshape(grad, (len(grad), -1), copy=False)
    gm_true = view[pixels]
    view[pixels] = 0.0
    rec = _reconstruction_raw(probs, np.stack([o.labels for _, o, _ in targets]), mapping,
                              grad, weights.lambda1)
    ce = _cross_entropy_raw(probs, labels, grad)
    view[pixels] += gm_true
    # a running sum adds the scenes in order, as scene-by-scene totals do (np.sum pairs them)
    return (ce, rec, float(np.cumsum(losses)[-1])), grad


def total_loss(pred: ProbMap, gt_parts: LabelMap, gt_objects: LabelMap | None,
               mapping: PartsToObjectsMapping, cfg: AdjacencyConfig,
               weights: LossWeights) -> tuple[LossReport, np.ndarray]:
    """Full training objective and its gradient with respect to the probabilities.

    ``gt_objects`` may be supplied independently; when None it is projected
    from ``gt_parts`` through the mapping. The reference adjacency graph is
    built from the discrete part labels, the predicted one from the soft
    probability channels per ``cfg``.
    """
    if gt_objects is None:
        gt_objects = project_labels(gt_parts, mapping)
    term = "cross-entropy"
    try:
        _check_labels(pred, gt_parts, pred.num_classes)
        term = "reconstruction"
        _check_objects(pred, gt_objects, mapping)
        term = "graph-matching"
        reference = reference_graph(gt_parts, mapping.num_parts, cfg)
        (ce, rec, gm), grad = _block_loss(np.moveaxis(pred.probs, 2, 0)[:, None],
                                          [(gt_parts, gt_objects, reference)], mapping, cfg,
                                          weights)
    except DomainError as exc:
        raise DomainError(f"{term} term: {exc}") from exc
    return LossReport.combine(ce, rec, gm, weights), np.moveaxis(grad[:, 0], 0, 2)
