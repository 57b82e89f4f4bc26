import re
from pathlib import Path

import numpy as np
import pytest

import partgraph
from partgraph import (
    DomainError,
    LabelMap,
    LabelSet,
    PartsToObjectsMapping,
    ProbMap,
    argmax_map,
    one_hot,
    project_labels,
    sum_probability,
)
from partgraph.core import _sum_probability_array

from oracles import group_sum_oracle, random_probs


def test_one_hot_single_pixel():
    m = LabelMap(np.array([[0]]))
    p = one_hot(m, 2)
    assert p.probs.tolist() == [[[1.0, 0.0]]]


def test_one_hot_two_pixels():
    m = LabelMap(np.array([[0, 1]]))
    p = one_hot(m, 3)
    assert p.probs.tolist() == [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]


def test_one_hot_rejects_out_of_range_label_naming_pixel():
    m = LabelMap(np.array([[0, 5]]))
    with pytest.raises(DomainError, match=r"row=0, col=1"):
        one_hot(m, 3)


def test_one_hot_argmax_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        labels = rng.integers(0, 5, (8, 8)).astype(np.int32)
        m = LabelMap(labels, num_classes=5)
        back = argmax_map(one_hot(m, 5))
        assert np.array_equal(back.labels, labels)


def test_argmax_basics_and_tie_rule():
    assert argmax_map(ProbMap(np.array([[[0.2, 0.8]]]))).labels.tolist() == [[1]]
    assert argmax_map(ProbMap(np.array([[[0.5, 0.5]]]))).labels.tolist() == [[0]]


def test_one_hot_of_argmax_fixes_one_hot_maps():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, (6, 6)).astype(np.int32)
    p = one_hot(LabelMap(labels), 4)
    again = one_hot(argmax_map(p), 4)
    assert np.array_equal(again.probs, p.probs)


def test_mapping_invariants():
    m = PartsToObjectsMapping((0, 1, 3))
    assert m.num_objects == 2
    assert m.num_parts == 3
    assert m.object_lookup().tolist() == [0, 1, 1]
    with pytest.raises(DomainError):
        PartsToObjectsMapping((1, 2))
    with pytest.raises(DomainError):
        PartsToObjectsMapping((0, 2, 2))
    with pytest.raises(DomainError):
        PartsToObjectsMapping((0,))


def test_labelset_background_convention():
    LabelSet(PartsToObjectsMapping((0, 1, 4)))
    with pytest.raises(DomainError):
        LabelSet(PartsToObjectsMapping((0, 2, 4)))
    # without the background convention any mapping is fine
    LabelSet(PartsToObjectsMapping((0, 2, 4)), background_is_class_zero=False)


def test_project_labels_examples():
    mapping = PartsToObjectsMapping((0, 1, 3))
    parts = LabelMap(np.array([[0, 1, 2]]))
    assert project_labels(parts, mapping).labels.tolist() == [[0, 1, 1]]
    mapping2 = PartsToObjectsMapping((0, 2))
    parts2 = LabelMap(np.array([[0, 1]]))
    assert project_labels(parts2, mapping2).labels.tolist() == [[0, 0]]


def test_project_labels_against_range_scan():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cuts = np.sort(rng.choice(np.arange(1, 9), size=3, replace=False))
        boundaries = (0, *map(int, cuts), 9)
        mapping = PartsToObjectsMapping(boundaries)
        labels = rng.integers(0, 9, (7, 5)).astype(np.int32)
        got = project_labels(LabelMap(labels), mapping).labels
        for y in range(7):
            for x in range(5):
                part = labels[y, x]
                expected = next(j for j in range(mapping.num_objects)
                                if boundaries[j] <= part < boundaries[j + 1])
                assert got[y, x] == expected


def test_project_labels_mismatch():
    mapping = PartsToObjectsMapping((0, 1, 3))
    with pytest.raises(DomainError):
        project_labels(LabelMap(np.array([[4]])), mapping)
    with pytest.raises(DomainError):
        project_labels(LabelMap(np.array([[0]]), num_classes=5), mapping)


def test_sum_probability_examples():
    two = ProbMap(np.array([[[0.3, 0.7]]]))
    out = sum_probability(two, PartsToObjectsMapping((0, 2)))
    assert out.probs.tolist() == [[[1.0]]]

    three = ProbMap(np.array([[[0.2, 0.3, 0.5]]]))
    out = sum_probability(three, PartsToObjectsMapping((0, 1, 3)))
    assert np.allclose(out.probs, [[[0.2, 0.8]]], atol=1e-12)


def test_sum_probability_against_loop_oracle():
    rng = np.random.default_rng(5)
    probs = rng.random((6, 4, 7)) + 0.01
    probs /= probs.sum(axis=2, keepdims=True)
    mapping = PartsToObjectsMapping((0, 2, 3, 7))
    got = sum_probability(ProbMap(probs), mapping).probs
    want = group_sum_oracle(probs, mapping.boundaries)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("boundaries", [
    (0, 1, 3, 5, 7),  # the toy label sets: background and 2-part objects
    (0, *range(1, 110, 2)),
    (0, 1, *range(10, 110, 9)),  # the paper's 109 channels: twelve 9-part objects
], ids=["7_channels", "109_channels_by_2", "109_channels_by_9"])
def test_object_sums_equal_sequential_sums_on_both_layouts(boundaries):
    # one BLAS product: a 2-part sum is exact in any order, but BLAS may associate a
    # longer one differently by shape (it does at these 60 pixels), within the error
    # bound of a sequential sum of n non-negative terms, 2 (n - 1) eps relative
    rng = np.random.default_rng(21)
    mapping = PartsToObjectsMapping(boundaries)
    probs = random_probs(rng, 12, 5, mapping.num_parts)
    want = np.moveaxis(group_sum_oracle(probs, boundaries), 2, 0)
    view = _sum_probability_array(np.moveaxis(probs, 2, 0)[:, None], mapping)[:, 0]
    block = np.ascontiguousarray(np.moveaxis(probs, 2, 0)).reshape(-1, 2, 6, 5)
    contiguous = _sum_probability_array(block, mapping).reshape(want.shape)
    parts = max(np.diff(boundaries))
    for got in (view, contiguous):
        if parts <= 2:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=2 * (parts - 1) * np.finfo(float).eps,
                                       atol=0.0)


def test_sum_probability_preserves_mass():
    rng = np.random.default_rng(9)
    probs = rng.random((5, 5, 6)) + 0.01
    probs /= probs.sum(axis=2, keepdims=True)
    mapping = PartsToObjectsMapping((0, 1, 4, 6))
    out = sum_probability(ProbMap(probs), mapping)
    assert np.abs(out.probs.sum(axis=2) - probs.sum(axis=2)).max() < 1e-9


def test_sum_probability_mismatch():
    with pytest.raises(DomainError):
        sum_probability(ProbMap(np.array([[[1.0]]])), PartsToObjectsMapping((0, 2)))


def test_project_equals_argmax_of_summed_one_hot():
    rng = np.random.default_rng(13)
    mapping = PartsToObjectsMapping((0, 1, 3, 6))
    labels = rng.integers(0, 6, (9, 9)).astype(np.int32)
    parts = LabelMap(labels)
    direct = project_labels(parts, mapping)
    via_probs = argmax_map(sum_probability(one_hot(parts, 6), mapping))
    assert np.array_equal(direct.labels, via_probs.labels)


def test_probmap_validation():
    with pytest.raises(DomainError):
        ProbMap(np.array([[[0.5, 0.4]]]))  # mass 0.9
    with pytest.raises(DomainError):
        ProbMap(np.array([[[1.5, -0.5]]]))
    with pytest.raises(DomainError):
        LabelMap(np.array([[0.5]]))  # non-integer labels


def test_types_are_immutable():
    m = LabelMap(np.array([[0, 1]]))
    with pytest.raises(ValueError):
        m.labels[0, 0] = 1
    p = ProbMap(np.array([[[0.5, 0.5]]]))
    with pytest.raises(ValueError):
        p.probs[0, 0, 0] = 1.0


def test_every_public_name_resolves_once():
    names = partgraph.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(partgraph, name)] == []


def test_exception_types_live_in_core():
    assert partgraph.DomainError is partgraph.core.DomainError
    assert partgraph.NumericError.__module__ == partgraph.DomainError.__module__ == "partgraph.core"


def test_every_public_name_is_documented_or_used():
    # a public name that neither the README, a demo, the acceptance suite nor the CLI
    # mentions is surface no reader finds
    root = Path(partgraph.__file__).resolve().parents[2]
    files = [root / "README.md", *sorted((root / "demos").glob("*.py")),
             root / "tests" / "test_acceptance.py", root / "src" / "partgraph" / "cli.py"]
    words = set(re.findall(r"\w+", " ".join(f.read_text() for f in files)))
    assert [name for name in partgraph.__all__ if name not in words] == []
