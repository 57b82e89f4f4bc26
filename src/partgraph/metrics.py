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

Empty-class policy: a class with zero ground-truth AND zero predicted pixels
has no IoU (and one without ground truth no PA): it is NaN, and every mean
skips it. A class with ground truth but no predictions scores 0. A mean over
no defined value is NaN too. The headline ``miou`` averages every class
(background included, matching the usual benchmark tables); when the label
set declares class 0 as background, a background-free variant is reported
alongside it, which is NaN when no class but background occurs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (DomainError, LabelMap, LabelSet, _check_labels_below, _check_same_size,
                   _check_square_fits, _freeze)


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
    _check_square_fits(num_classes)
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


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` per class, NaN where ``den`` is 0: the class is undefined."""
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=den > 0)


def _mean(values: np.ndarray) -> float:
    """The mean of the defined (non-NaN) values; NaN, and no warning, when none is."""
    return float("nan") if np.isnan(values).all() else float(np.nanmean(values))


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
    iou = _ratio(tp, gt_total + counts.sum(axis=0) - tp)
    pa = _ratio(tp, gt_total)
    miou_with = _mean(iou)
    # without a declared background class there is nothing to exclude
    miou_without = _mean(iou[1:]) if label_set.background_is_class_zero else miou_with
    bounds = label_set.mapping.boundaries
    per_object = np.array([_mean(iou[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
    return MetricReport(
        per_class_iou=iou,
        per_class_pa=pa,
        miou=miou_with,
        mpa=float(tp.sum() / counts.sum()),
        mca=_mean(pa),
        per_object_miou=per_object,
        object_avg=_mean(per_object),
        miou_with_background=miou_with,
        miou_without_background=miou_without,
    )
