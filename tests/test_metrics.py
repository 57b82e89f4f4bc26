import warnings

import numpy as np
import pytest

from partgraph import (
    ConfusionMatrix,
    DomainError,
    LabelMap,
    LabelSet,
    PartsToObjectsMapping,
    confusion,
    report,
)

from oracles import confusion_oracle, report_oracle

LABEL_SET = LabelSet(PartsToObjectsMapping((0, 1, 3, 5)))


def as_map(rows, num_classes=None):
    return LabelMap(np.asarray(rows, dtype=np.int32), num_classes=num_classes)


def test_confusion_diagonal_for_perfect_prediction():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, (6, 6)).astype(np.int32)
    cm = confusion(as_map(labels), as_map(labels), 4)
    assert np.array_equal(cm.counts, np.diag(np.bincount(labels.ravel(), minlength=4)))


def test_confusion_two_pixel_example():
    cm = confusion(as_map([[1, 1]]), as_map([[0, 1]]), 2)
    assert cm.counts[0, 1] == 1
    assert cm.counts[1, 1] == 1
    assert cm.total == 2


def test_confusion_matches_loop_oracle():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 5, (9, 7)).astype(np.int32)
    gt = rng.integers(0, 5, (9, 7)).astype(np.int32)
    cm = confusion(as_map(pred), as_map(gt), 5)
    assert np.array_equal(cm.counts, confusion_oracle(pred, gt, 5))


def test_confusion_shape_and_range_checks():
    with pytest.raises(DomainError):
        confusion(as_map([[0]]), as_map([[0, 1]]), 2)
    with pytest.raises(DomainError, match=r"label 5 at pixel \(row=0, col=0\)"):
        confusion(as_map([[5]]), as_map([[0]]), 2)
    with pytest.raises(DomainError, match=r"label 3 at pixel \(row=0, col=1\)"):
        confusion(as_map([[0, 1]]), as_map([[0, 3]]), 2)


def test_confusion_matrix_stores_the_given_array_read_only():
    counts = np.eye(2, dtype=np.int64)
    assert ConfusionMatrix(counts).counts is counts
    assert not counts.flags.writeable


def test_perfect_prediction_scores_one_everywhere():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 5, (8, 8)).astype(np.int32)
    labels.ravel()[:5] = np.arange(5)  # every class present
    cm = confusion(as_map(labels), as_map(labels), 5)
    result = report(cm, LABEL_SET)
    assert np.allclose(result.per_class_iou, 1.0)
    assert np.allclose(result.per_class_pa, 1.0)
    assert result.miou == 1.0
    assert result.mpa == 1.0
    assert result.mca == 1.0
    assert np.allclose(result.per_object_miou, 1.0)
    assert result.object_avg == 1.0


def test_hand_worked_four_pixel_example():
    # gt [0,0,1,1] vs pred [0,1,1,1]: IoU_0 = 1/2, IoU_1 = 2/3, mIoU = 7/12
    label_set = LabelSet(PartsToObjectsMapping((0, 1, 2)))
    cm = confusion(as_map([[0], [1], [1], [1]]), as_map([[0], [0], [1], [1]]), 2)
    result = report(cm, label_set)
    assert result.per_class_iou[0] == 0.5
    assert result.per_class_iou[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert result.miou == pytest.approx(7.0 / 12.0, abs=1e-15)
    assert result.mpa == 0.75
    assert result.per_class_pa[0] == 0.5
    assert result.per_class_pa[1] == 1.0
    assert result.mca == 0.75


def test_empty_class_is_excluded_from_means():
    # class 2 appears in neither map; class 1 has ground truth but no
    # predictions and must score exactly 0
    label_set = LabelSet(PartsToObjectsMapping((0, 1, 2, 3)))
    cm = confusion(as_map([[0, 0], [0, 0]]), as_map([[0, 1], [0, 0]]), 3)
    result = report(cm, label_set)
    assert result.per_class_iou[1] == 0.0
    assert np.isnan(result.per_class_iou[2])
    included = report(ConfusionMatrix(cm.counts + np.eye(3, dtype=np.int64)), label_set)
    assert not np.isnan(included.per_class_iou[2])
    # mean over {IoU_0, IoU_1} only
    assert result.miou == pytest.approx((3.0 / 4.0 + 0.0) / 2.0, abs=1e-15)


def test_iou_never_exceeds_pa():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pred = rng.integers(0, 5, (8, 8)).astype(np.int32)
        gt = rng.integers(0, 5, (8, 8)).astype(np.int32)
        result = report(confusion(as_map(pred), as_map(gt), 5), LABEL_SET)
        mask = np.isfinite(result.per_class_iou) & np.isfinite(result.per_class_pa)
        assert np.all(result.per_class_iou[mask] <= result.per_class_pa[mask] + 1e-15)


def test_report_is_permutation_invariant():
    rng = np.random.default_rng(4)
    pred = rng.integers(0, 5, (10, 10)).astype(np.int32)
    gt = rng.integers(0, 5, (10, 10)).astype(np.int32)
    base = report(confusion(as_map(pred), as_map(gt), 5), LABEL_SET)

    # swap parts 3 and 4 (both inside object 2, so objects are unaffected)
    perm = np.array([0, 1, 2, 4, 3])
    swapped = report(confusion(as_map(perm[pred]), as_map(perm[gt]), 5), LABEL_SET)
    assert np.allclose(sorted(base.per_class_iou), sorted(swapped.per_class_iou),
                       equal_nan=True)
    assert swapped.miou == pytest.approx(base.miou, abs=1e-15)
    assert swapped.mpa == base.mpa
    assert swapped.object_avg == pytest.approx(base.object_avg, abs=1e-15)


def test_accumulation_equals_concatenation():
    rng = np.random.default_rng(5)
    total = ConfusionMatrix(np.zeros((5, 5), dtype=np.int64))
    preds, gts = [], []
    for _ in range(10):
        pred = rng.integers(0, 5, (6, 6)).astype(np.int32)
        gt = rng.integers(0, 5, (6, 6)).astype(np.int32)
        preds.append(pred)
        gts.append(gt)
        total = total + confusion(as_map(pred), as_map(gt), 5)
    concat_pred = as_map(np.concatenate(preds, axis=0))
    concat_gt = as_map(np.concatenate(gts, axis=0))
    direct = confusion(concat_pred, concat_gt, 5)
    assert np.array_equal(total.counts, direct.counts)
    a = report(total, LABEL_SET)
    b = report(direct, LABEL_SET)
    assert a.miou == b.miou and a.mpa == b.mpa and a.mca == b.mca


def test_background_variants():
    rng = np.random.default_rng(6)
    pred = rng.integers(0, 5, (8, 8)).astype(np.int32)
    gt = rng.integers(0, 5, (8, 8)).astype(np.int32)
    result = report(confusion(as_map(pred), as_map(gt), 5), LABEL_SET)
    iou = result.per_class_iou
    assert result.miou_with_background == pytest.approx(np.nanmean(iou), abs=1e-15)
    assert result.miou_without_background == pytest.approx(np.nanmean(iou[1:]), abs=1e-15)
    assert result.miou == result.miou_with_background

    no_bg = LabelSet(PartsToObjectsMapping((0, 2, 5)), background_is_class_zero=False)
    result2 = report(confusion(as_map(pred), as_map(gt), 5), no_bg)
    assert result2.miou_without_background == result2.miou_with_background


def test_per_object_means():
    # object 1 owns parts 1,2; object 2 owns parts 3,4
    rng = np.random.default_rng(7)
    pred = rng.integers(0, 5, (8, 8)).astype(np.int32)
    gt = rng.integers(0, 5, (8, 8)).astype(np.int32)
    result = report(confusion(as_map(pred), as_map(gt), 5), LABEL_SET)
    iou = result.per_class_iou
    assert result.per_object_miou[0] == pytest.approx(iou[0], abs=1e-15)
    assert result.per_object_miou[1] == pytest.approx(np.nanmean(iou[1:3]), abs=1e-15)
    assert result.per_object_miou[2] == pytest.approx(np.nanmean(iou[3:5]), abs=1e-15)
    assert result.object_avg == pytest.approx(np.nanmean(result.per_object_miou), abs=1e-15)


def test_empty_confusion_matrix_rejected():
    with pytest.raises(DomainError):
        report(ConfusionMatrix(np.zeros((5, 5), dtype=np.int64)), LABEL_SET)
    with pytest.raises(DomainError):
        report(ConfusionMatrix(np.ones((3, 3), dtype=np.int64)), LABEL_SET)


def _random_split(rng):
    """A random label set, with or without background, a confusion matrix over it and
    its kind: only class 0 occurs, no part of one object occurs, or a general split."""
    background = bool(rng.integers(2))
    sizes = rng.integers(1, 5, int(rng.integers(2, 6)))
    if background:
        sizes[0] = 1
    bounds = (0, *np.cumsum(sizes).tolist())
    n = bounds[-1]
    counts = rng.integers(0, 5, (n, n)) * (rng.random((n, n)) < rng.random())
    kind = ("class 0 only", "absent object", "general")[int(rng.integers(3))]
    if kind == "class 0 only":
        counts[:] = 0
    elif kind == "absent object":
        obj = int(rng.integers(1, len(sizes)))  # not object 0, whose class 0 may stand in
        counts[bounds[obj]:bounds[obj + 1]] = 0
        counts[:, bounds[obj]:bounds[obj + 1]] = 0
    if counts.sum() == 0:
        counts[0, 0] = int(rng.integers(1, 9))
    label_set = LabelSet(PartsToObjectsMapping(bounds), background_is_class_zero=background)
    return label_set, counts, kind


def test_report_matches_its_definitions_on_random_splits():
    rng = np.random.default_rng(28)
    kinds, background_only = set(), 0
    for _ in range(300):
        label_set, counts, kind = _random_split(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice" on an undefined mean
            got = report(ConfusionMatrix(counts), label_set).to_dict()
        expected = report_oracle(counts.tolist(), label_set.mapping.boundaries,
                                 label_set.background_is_class_zero)
        assert list(got) == list(expected)
        for key, value in got.items():
            value = np.array(value, dtype=float)  # None, JSON's NaN, reads as nan
            assert value.shape == np.shape(expected[key]), key
            np.testing.assert_allclose(value, expected[key], rtol=0, atol=1e-15,
                                       equal_nan=True, err_msg=key)
        kinds.add(kind)
        background_only += kind == "class 0 only" and label_set.background_is_class_zero
    assert len(kinds) == 3 and background_only > 0


def test_background_only_split_has_no_background_free_miou():
    # only background occurs: the background-free mean is over no class at all
    cm = ConfusionMatrix(np.diag([7, 0, 0, 0, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = report(cm, LABEL_SET)
    assert result.miou_with_background == 1.0
    assert np.isnan(result.miou_without_background)
    assert result.to_dict()["miou_without_background"] is None
    assert result.to_dict()["per_object_miou"] == [1.0, None, None]
