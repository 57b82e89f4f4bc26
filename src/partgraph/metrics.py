"""Evaluation metrics: per-class IoU and accuracy, their means, and
per-object-class averages, all derived from one confusion matrix.

Definitions (TP/FP/FN per class from the confusion matrix):

- IoU_c  = TP / (TP + FP + FN)
- PA_c   = TP / (TP + FN), per-class recall
- mIoU   = mean IoU over classes, see the empty-class policy below
- mPA    = overall pixel accuracy, sum(TP) / total pixels (micro)
- mCA    = mean PA_c over classes with ground-truth pixels (macro)
- per-object mIoU = mean IoU over the parts of one object class
- object average  = mean of the per-object mIoUs

Empty-class policy: classes with zero ground-truth AND zero predicted pixels
are excluded from the mIoU/mCA means; classes with ground truth but no
predictions score 0. The headline ``miou`` averages every class (background
included, matching the usual benchmark tables); when the label set declares
class 0 as background, a background-free variant is reported alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import LabelMap, LabelSet, _check_labels_below, _check_same_size, _freeze
from .errors import DomainError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square integer count matrix; rows are ground-truth classes, columns predictions.
    A contiguous int64 array is stored itself, not a copy, and becomes read-only."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DomainError(f"confusion matrix must be square, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError(f"confusion matrix must hold integers, got {arr.dtype}")
        if arr.min() < 0:
            raise DomainError("confusion counts must be nonnegative")
        object.__setattr__(self, "counts", _freeze(arr.astype(np.int64, copy=False)))

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.size != other.size:
            raise DomainError(f"cannot add confusion matrices of size {self.size} and {other.size}")
        return ConfusionMatrix(self.counts + other.counts)


def confusion(pred: LabelMap, gt: LabelMap, num_classes: int) -> ConfusionMatrix:
    """Confusion matrix of one prediction/ground-truth pair."""
    _check_same_size(pred, gt)
    for labels in (pred.labels, gt.labels):
        _check_labels_below(labels, num_classes)
    joint = num_classes * gt.labels.astype(np.int64) + pred.labels
    counts = np.bincount(joint.ravel(), minlength=num_classes * num_classes)
    return ConfusionMatrix(counts.reshape(num_classes, num_classes))


@dataclass(frozen=True)
class MetricReport:
    """All metrics of one evaluation; per-class arrays hold NaN for skipped classes."""

    per_class_iou: np.ndarray
    per_class_pa: np.ndarray
    miou: float
    mpa: float
    mca: float
    per_object_miou: np.ndarray
    object_avg: float
    miou_with_background: float
    miou_without_background: float

    def to_dict(self) -> dict:
        """Every field in declaration order, as JSON values: NaN becomes None."""
        def clean(v):
            if np.ndim(v):
                return [clean(x) for x in v]
            return None if not np.isfinite(v) else float(v)
        return {field.name: clean(getattr(self, field.name)) for field in fields(self)}


def report(cm: ConfusionMatrix, label_set: LabelSet) -> MetricReport:
    """Evaluate all metrics of a confusion matrix accumulated over a split."""
    if cm.size != label_set.num_parts:
        raise DomainError(
            f"confusion matrix covers {cm.size} classes but the label set has "
            f"{label_set.num_parts} parts"
        )
    if cm.total == 0:
        raise DomainError("cannot evaluate an empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    gt_total = counts.sum(axis=1)
    pred_total = counts.sum(axis=0)
    union = gt_total + pred_total - tp
    present = union > 0  # the empty-class policy: absent from both sides -> skipped

    iou = np.full(cm.size, np.nan)
    iou[present] = tp[present] / union[present]
    pa = np.full(cm.size, np.nan)
    has_gt = gt_total > 0
    pa[has_gt] = tp[has_gt] / gt_total[has_gt]

    mpa = float(tp.sum() / counts.sum())
    mca = float(np.nanmean(pa)) if np.any(has_gt) else float("nan")

    miou_with = float(np.nanmean(iou)) if np.any(present) else float("nan")
    if label_set.background_is_class_zero and np.any(present[1:]):
        miou_without = float(np.nanmean(iou[1:]))
    else:
        # no background class declared, so there is nothing to exclude
        miou_without = miou_with

    mapping = label_set.mapping
    per_object = np.full(mapping.num_objects, np.nan)
    for obj in range(mapping.num_objects):
        part_iou = iou[mapping.boundaries[obj] : mapping.boundaries[obj + 1]]
        if np.any(np.isfinite(part_iou)):
            per_object[obj] = np.nanmean(part_iou)
    object_avg = float(np.nanmean(per_object)) if np.any(np.isfinite(per_object)) else float("nan")

    return MetricReport(
        per_class_iou=iou,
        per_class_pa=pa,
        miou=miou_with,
        mpa=mpa,
        mca=mca,
        per_object_miou=per_object,
        object_avg=object_avg,
        miou_with_background=miou_with,
        miou_without_background=miou_without,
    )
