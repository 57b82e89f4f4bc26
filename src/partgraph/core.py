"""Segmentation-map types and label-space conversions.

Conventions used everywhere in the package:

- indices are 0-based; object ``j`` owns the contiguous part range
  ``[boundaries[j], boundaries[j+1])``
- background, when present, is part 0 / object 0
- argmax ties break toward the lowest class index
- all types are immutable after construction and all operations are pure,
  so shared read-only inputs are safe across threads
- a broken contract raises ``DomainError`` and a non-finite result
  ``NumericError``; the CLI turns them into exit codes 2 and 3
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-6  # per-pixel probability mass must match 1 this closely


class DomainError(ValueError):
    """Input violates a documented contract (bad labels, shape mismatch, malformed file)."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabelMap:
    """H x W grid of integer class labels, row-major.

    ``num_classes`` is the declared label-space size when known (e.g. read
    from a file header); labels are validated against it if present.
    """

    labels: np.ndarray
    num_classes: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DomainError(f"label map must be 2D with positive dims, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError(f"label map must hold integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int32, copy=True)
        if arr.min() < 0:
            r, c = np.argwhere(arr < 0)[0]
            raise DomainError(f"negative label {arr[r, c]} at pixel (row={r}, col={c})")
        if self.num_classes is not None:
            if self.num_classes < 1:
                raise DomainError(f"num_classes must be >= 1, got {self.num_classes}")
            _check_labels_below(arr, self.num_classes)
        object.__setattr__(self, "labels", _freeze(arr))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


def _check_labels_below(labels: np.ndarray, num_classes: int) -> None:
    if labels.max() >= num_classes:
        r, c = np.argwhere(labels >= num_classes)[0]
        raise DomainError(
            f"label {labels[r, c]} at pixel (row={r}, col={c}) is out of range "
            f"for {num_classes} classes"
        )


def _check_choice(value, choices: tuple, what: str) -> None:
    """``value`` is one of ``choices``; ``what`` names the setting if not."""
    if value not in choices:
        raise DomainError(f"{what} must be one of {choices}, got {value!r}")


def _check_entries_fit(entries: int, what: str) -> None:
    """``entries`` 8-byte values fit in the address space; ``what`` names the array if not."""
    if 8 * int(entries) > np.iinfo(np.intp).max:
        raise DomainError(f"{what} larger than the address space")


def _check_square_fits(num_classes: int) -> None:
    """A ``num_classes`` x ``num_classes`` matrix of 8-byte entries fits in the address space."""
    _check_entries_fit(int(num_classes) ** 2, f"{num_classes} classes need a matrix")


def _check_fits(label_map: LabelMap, num_classes: int) -> None:
    """Labels below ``num_classes``, which the map's declared class count, if any, must equal."""
    if label_map.num_classes not in (None, num_classes):
        raise DomainError(f"map declares {label_map.num_classes} classes, expected {num_classes}")
    _check_labels_below(label_map.labels, num_classes)


def _check_same_size(pred: LabelMap | ProbMap, gt: LabelMap) -> None:
    """A prediction of the ground truth's height and width."""
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise DomainError(f"prediction is {pred.height}x{pred.width} but ground truth is "
                          f"{gt.height}x{gt.width}")


@dataclass(frozen=True)
class ProbMap:
    """H x W x C grid of per-pixel class probabilities, channel-last.

    Each pixel's channel vector lies on the probability simplex: entries in
    [0, 1] and summing to 1 within ``SUM_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise DomainError(f"probability map must be H x W x C, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("probabilities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0 + SUM_TOL:
            raise DomainError("probabilities must lie in [0, 1]")
        sums = arr.sum(axis=2)
        err = np.abs(sums - 1.0).max()
        if err > SUM_TOL:
            raise DomainError(f"per-pixel probability sums deviate from 1 by {err:.3g}")
        object.__setattr__(self, "probs", _freeze(arr))

    @property
    def height(self) -> int:
        return self.probs.shape[0]

    @property
    def width(self) -> int:
        return self.probs.shape[1]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[2]


@dataclass(frozen=True)
class PartsToObjectsMapping:
    """Monotone boundary array assigning contiguous part ranges to objects.

    ``boundaries`` has length num_objects + 1 with boundaries[0] == 0 and
    boundaries[-1] == num_parts; object j owns parts
    [boundaries[j], boundaries[j+1]). This is the single place where the
    grouping of parts into objects is defined; everything else indexes
    through it.
    """

    boundaries: tuple[int, ...]
    object_names: tuple[str, ...] | None = None
    part_names: tuple[str, ...] | None = None

    def __post_init__(self):
        b = tuple(int(x) for x in self.boundaries)
        if len(b) < 2:
            raise DomainError("mapping needs at least one object (two boundary entries)")
        if b[0] != 0:
            raise DomainError(f"boundaries must start at 0, got {b[0]}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise DomainError(f"boundaries must be strictly increasing, got {b}")
        object.__setattr__(self, "boundaries", b)
        for attr, count in (("object_names", len(b) - 1), ("part_names", b[-1])):
            if getattr(self, attr) is not None:
                names = tuple(getattr(self, attr))
                if len(names) != count:
                    raise DomainError(f"expected {count} {attr.replace('_', ' ')}, got {len(names)}")
                object.__setattr__(self, attr, names)

    @property
    def num_objects(self) -> int:
        return len(self.boundaries) - 1

    @property
    def num_parts(self) -> int:
        return self.boundaries[-1]

    def object_lookup(self) -> np.ndarray:
        """Array of length num_parts mapping each part index to its object index."""
        sizes = np.diff(np.asarray(self.boundaries, dtype=np.int64))
        return np.repeat(np.arange(self.num_objects, dtype=np.int32), sizes)


@dataclass(frozen=True)
class LabelSet:
    """A named label space: the part/object mapping plus the background convention.

    ``background_is_class_zero`` records whether class 0 is a background
    class; when set, object 0 must contain exactly part 0.
    """

    mapping: PartsToObjectsMapping
    background_is_class_zero: bool = True

    def __post_init__(self):
        if self.background_is_class_zero and self.mapping.boundaries[1] != 1:
            raise DomainError(
                "background convention requires object 0 to contain exactly part 0, "
                f"got boundaries {self.mapping.boundaries}"
            )

    @property
    def num_parts(self) -> int:
        return self.mapping.num_parts

    @property
    def num_objects(self) -> int:
        return self.mapping.num_objects


def one_hot(label_map: LabelMap, num_classes: int) -> ProbMap:
    """One-hot encode a label map into a probability map with ``num_classes`` channels."""
    if num_classes < 1:
        raise DomainError(f"num_classes must be >= 1, got {num_classes}")
    labels = label_map.labels
    _check_labels_below(labels, num_classes)
    h, w = labels.shape
    probs = np.zeros((h * w, num_classes), dtype=np.float64)
    probs[np.arange(h * w), labels.ravel()] = 1.0
    return ProbMap(probs.reshape(h, w, num_classes))


def argmax_map(prob_map: ProbMap) -> LabelMap:
    """Per-pixel argmax of a probability map. Ties break to the lowest channel index."""
    labels = np.argmax(prob_map.probs, axis=2).astype(np.int32)
    return LabelMap(labels, num_classes=prob_map.num_classes)


def project_labels(parts: LabelMap, mapping: PartsToObjectsMapping) -> LabelMap:
    """Replace each part label with the index of the object that owns it."""
    _check_fits(parts, mapping.num_parts)
    lookup = mapping.object_lookup()
    return LabelMap(lookup[parts.labels], num_classes=mapping.num_objects)


def sum_probability(pred: ProbMap, mapping: PartsToObjectsMapping) -> ProbMap:
    """Collapse part-channel probabilities into object channels.

    Output channel j is the sum of the part channels owned by object j, so
    per-pixel mass is preserved. One BLAS product adds them: in channel order for
    objects of up to two parts, and for larger ones within a few ULP of it, by shape.
    """
    _check_channels(pred, mapping)
    return ProbMap(np.moveaxis(_sum_probability_array(np.moveaxis(pred.probs, 2, 0), mapping),
                               0, 2))


def _check_channels(pred: ProbMap, mapping: PartsToObjectsMapping) -> None:
    """A prediction with one channel per part of ``mapping``."""
    if pred.num_classes != mapping.num_parts:
        raise DomainError(f"prediction has {pred.num_classes} channels but the mapping "
                          f"covers {mapping.num_parts} parts")


def _sum_probability_array(probs: np.ndarray, mapping: PartsToObjectsMapping) -> np.ndarray:
    """Object sums of a channel-first array: one (objects, parts) 0/1 product over its pixels."""
    member = mapping.object_lookup() == np.arange(mapping.num_objects)[:, None]
    summed = member.astype(probs.dtype) @ probs.reshape(len(probs), -1)
    return summed.reshape((mapping.num_objects,) + probs.shape[1:])
