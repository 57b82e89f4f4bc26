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
  lambda2 * graph-matching, with the combined gradient. Its reference graph
  (``reference_graph``) depends only on the part labels, so a caller that
  reuses the same ground truth builds it once and passes it in.

Pixel aggregation is the mean, so loss magnitudes are independent of image
size. Probabilities are clamped below at LOG_EPS before the log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjacency import (
    AdjacencyConfig,
    AdjacencyMatrix,
    adjacency_from_labels,
    gm_value_and_grad,
    normalize_rows,
)
from .core import (
    LabelMap,
    PartsToObjectsMapping,
    ProbMap,
    _sum_probability_array,
    project_labels,
)
from .errors import DomainError

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


def _check_same_shape(pred: ProbMap, gt: LabelMap, what: str) -> None:
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise DomainError(
            f"{what}: prediction is {pred.height}x{pred.width} but ground truth is "
            f"{gt.height}x{gt.width}"
        )


def cross_entropy(pred: ProbMap, gt: LabelMap) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of the true class, with its gradient."""
    _check_same_shape(pred, gt, "cross_entropy")
    if gt.labels.max() >= pred.num_classes:
        raise DomainError(
            f"cross_entropy: label {gt.labels.max()} out of range for "
            f"{pred.num_classes} channels"
        )
    return _cross_entropy_raw(pred.probs, gt.labels)


def _cross_entropy_raw(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    h, w, c = probs.shape
    npix = h * w
    flat = probs.reshape(npix, c)
    true_p = flat[np.arange(npix), labels.ravel()]
    loss = float(-np.log(np.maximum(true_p, LOG_EPS)).mean() + 0.0)  # +0.0 drops -0.0
    grad = np.zeros_like(flat)
    slope = np.where(true_p > LOG_EPS, -1.0 / (npix * np.maximum(true_p, LOG_EPS)), 0.0)
    grad[np.arange(npix), labels.ravel()] = slope
    return loss, grad.reshape(h, w, c)


def reconstruction_loss(pred: ProbMap, gt_objects: LabelMap,
                        mapping: PartsToObjectsMapping) -> tuple[float, np.ndarray]:
    """Object-level cross-entropy of the summed part probabilities, with gradient.

    The gradient of the object-channel sum is 1 toward each of its part
    channels, so every part of the true object receives the same slope.
    """
    if pred.num_classes != mapping.num_parts:
        raise DomainError(
            f"reconstruction_loss: prediction has {pred.num_classes} channels but the "
            f"mapping covers {mapping.num_parts} parts"
        )
    _check_same_shape(pred, gt_objects, "reconstruction_loss")
    if gt_objects.labels.max() >= mapping.num_objects:
        raise DomainError(
            f"reconstruction_loss: object label {gt_objects.labels.max()} out of range "
            f"for {mapping.num_objects} objects"
        )
    return _reconstruction_raw(pred.probs, gt_objects.labels, mapping)


def _reconstruction_raw(probs: np.ndarray, object_labels: np.ndarray,
                        mapping: PartsToObjectsMapping) -> tuple[float, np.ndarray]:
    summed = _sum_probability_array(probs, mapping)
    loss, grad_summed = _cross_entropy_raw(summed, object_labels)
    grad = grad_summed[:, :, mapping.object_lookup()]
    return loss, grad


def reference_graph(gt_parts: LabelMap, num_parts: int,
                    cfg: AdjacencyConfig) -> AdjacencyMatrix:
    """The normalized reference adjacency graph of the discrete part labels."""
    return normalize_rows(adjacency_from_labels(gt_parts, num_parts, cfg))


def total_loss(pred: ProbMap, gt_parts: LabelMap, gt_objects: LabelMap | None,
               mapping: PartsToObjectsMapping, cfg: AdjacencyConfig,
               weights: LossWeights,
               reference: AdjacencyMatrix | None = None) -> tuple[LossReport, np.ndarray]:
    """Full training objective and its gradient with respect to the probabilities.

    ``gt_objects`` may be supplied independently; when None it is projected
    from ``gt_parts`` through the mapping. The reference adjacency graph is
    built from the discrete part labels, the predicted one from the soft
    probability channels per ``cfg``. A caller that reuses the same ground
    truth may pass ``reference``, the :func:`reference_graph` of ``gt_parts``,
    built once; only its kind and size are checked.
    """
    if gt_objects is None:
        gt_objects = project_labels(gt_parts, mapping)
    try:
        ce, grad_ce = cross_entropy(pred, gt_parts)
    except DomainError as exc:
        raise DomainError(f"cross-entropy term: {exc}") from exc
    try:
        rec, grad_rec = reconstruction_loss(pred, gt_objects, mapping)
    except DomainError as exc:
        raise DomainError(f"reconstruction term: {exc}") from exc
    try:
        if reference is None:
            reference = reference_graph(gt_parts, mapping.num_parts, cfg)
        gm, grad_gm = gm_value_and_grad(pred.probs, reference, cfg)
    except DomainError as exc:
        raise DomainError(f"graph-matching term: {exc}") from exc
    report = LossReport.combine(ce, rec, gm, weights)
    # in place, in the order of ce + lambda1 * rec + lambda2 * gm
    grad_rec *= weights.lambda1
    grad_gm *= weights.lambda2
    grad_ce += grad_rec
    grad_ce += grad_gm
    return report, grad_ce
