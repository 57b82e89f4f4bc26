import tracemalloc

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    AdjacencyMatrix,
    DomainError,
    LabelMap,
    LossWeights,
    PartsToObjectsMapping,
    ProbMap,
    adjacency_from_labels,
    argmax_map,
    normalize_rows,
    one_hot,
    soft_adjacency,
    total_loss,
)
from partgraph.adjacency import gm_value, gm_value_and_grad
from partgraph.morphology import StructuringElement, dilate_array
from partgraph.synth import SceneSpec, generate

from oracles import (
    dilate_intersect_oracle,
    exact_distance_oracle,
    fd_check,
    frobenius_oracle,
    random_probs,
    sample_coords,
)


def random_label_map(rng, h, w, num_parts):
    return LabelMap(rng.integers(0, num_parts, (h, w)).astype(np.int32), num_classes=num_parts)


def test_matrix_type_invariants():
    with pytest.raises(DomainError):
        AdjacencyMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(DomainError):
        AdjacencyMatrix(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        AdjacencyMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]), kind="normalized")
    AdjacencyMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), kind="normalized")


def test_config_invariants():
    cfg = AdjacencyConfig(distance_threshold=4)
    assert cfg.dilation_radius == 2
    assert AdjacencyConfig(distance_threshold=5).dilation_radius == 3
    assert AdjacencyConfig(distance_threshold=0).dilation_radius == 0
    with pytest.raises(DomainError):
        AdjacencyConfig(distance_threshold=-1)
    with pytest.raises(DomainError):
        AdjacencyConfig(weighting="sparse")


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 2.5])
def test_config_rejects_a_threshold_that_is_not_a_whole_number(threshold):
    with pytest.raises(DomainError, match="distance threshold must be a nonnegative integer"):
        AdjacencyConfig(distance_threshold=threshold).element


def test_config_takes_a_whole_float_threshold_as_an_int():
    cfg = AdjacencyConfig(distance_threshold=5.0)
    assert cfg.distance_threshold == 5 and isinstance(cfg.distance_threshold, int)
    assert cfg.dilation_radius == 3


def test_matrix_stores_the_given_array_read_only():
    entries = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert AdjacencyMatrix(entries).entries is entries
    assert not entries.flags.writeable


def test_config_rejects_beta_outside_the_fixed_shift_range():
    for beta in (0.0, -2.0, float("nan"), float("inf"), float("-inf"), 701.0):
        with pytest.raises(DomainError):
            AdjacencyConfig(beta=beta)
    assert AdjacencyConfig(beta=700.0).beta == 700.0


def test_single_part_gives_zero_matrix():
    m = LabelMap(np.full((6, 6), 2, dtype=np.int32), num_classes=4)
    assert not adjacency_from_labels(m, 4, AdjacencyConfig()).entries.any()
    assert not exact_distance_oracle(m.labels, 4, "square", 4).any()


def test_two_block_example():
    # 4 wide x 2 high, part 1 on the left half, part 2 on the right
    m = LabelMap(np.array([[1, 1, 2, 2], [1, 1, 2, 2]]), num_classes=3)
    di = adjacency_from_labels(m, 3, AdjacencyConfig(distance_threshold=4))
    # radius-2 dilation of either block covers the whole 4x2 canvas
    assert di.entries[1, 2] == 8.0
    assert di.entries[2, 1] == 8.0
    assert di.entries[0].sum() == 0.0
    ex = exact_distance_oracle(m.labels, 3, "square", 4)
    assert ex[1, 2] > 0
    assert ex[1, 2] == ex[2, 1]


def test_separated_parts_are_not_adjacent():
    labels = np.zeros((16, 16), dtype=np.int32)
    labels[0:2, 0:2] = 1
    labels[9:11, 9:11] = 2  # over 4 background pixels away on both axes
    m = LabelMap(labels, num_classes=3)
    out = adjacency_from_labels(m, 3, AdjacencyConfig(distance_threshold=4)).entries
    assert out[1, 2] == 0.0
    assert out[2, 1] == 0.0
    exact = exact_distance_oracle(labels, 3, "square", 4)
    assert exact[1, 2] == 0.0
    assert exact[2, 1] == 0.0


def sparse_label_map(rng, h, w, present, num_parts):
    """An h x w map holding exactly ``present`` of ``num_parts`` part ids, shuffled."""
    ids = rng.choice(num_parts, present, replace=False)
    return LabelMap(ids[rng.permutation(np.resize(np.arange(present), h * w))].reshape(h, w),
                    num_classes=num_parts)


@pytest.mark.parametrize("shape", ["square", "diamond"])
def test_dilate_intersect_matches_pixel_pair_oracle(shape):
    # (map, num_parts, T): small maps; 63 to 130 present parts, on both sides
    # of the 64-part words of the bitsets; a high-entropy map; a radius past
    # the image; a 300-class 96 x 96 map, whose ~9,000 window sets span many
    # chunks of the membership product
    rng = np.random.default_rng(3 + (shape == "diamond"))
    cases = [(random_label_map(rng, 10, 8, 5), 5, 4) for _ in range(5)]
    cases += [(sparse_label_map(rng, 16, 12, present, present + 9), present + 9, 2)
              for present in (63, 64, 65, 130)]
    cases += [(random_label_map(rng, 20, 20, 250), 250, 3), (random_label_map(rng, 6, 5, 7), 7, 20),
              (random_label_map(rng, 96, 96, 300), 300, 4)]
    # equal window sets next in raster order merge into one run before the
    # sort: a uniform map and two parts under one window are one run each; a
    # 1 x 40 and a 40 x 1 map of 3-pixel blocks; a 4-colour checkerboard, one
    # run under the square and one-pixel runs under the diamond; 2-row stripes
    # of 63 to 130 parts, whose two-part runs cross row ends
    blocks = (np.arange(40) // 3 % 6).astype(np.int32)
    checker = (np.arange(9) % 2)[None, :] + 2 * (np.arange(8) % 2)[:, None]
    cases += [(LabelMap(np.full((7, 9), 3, dtype=np.int32), num_classes=5), 5, 4),
              (LabelMap(np.repeat(np.arange(2), 15).reshape(6, 5), num_classes=2), 2, 20),
              (LabelMap(blocks.reshape(1, 40), num_classes=6), 6, 2),
              (LabelMap(blocks.reshape(40, 1), num_classes=6), 6, 2),
              (LabelMap(checker, num_classes=4), 4, 2)]
    cases += [(LabelMap(np.repeat(np.sort(rng.choice(present + 9, present, replace=False)), 6)
                        .reshape(-1, 3), num_classes=present + 9), present + 9, 2)
              for present in (63, 64, 65, 130)]
    for m, num_parts, t in cases:
        counts = dilate_intersect_oracle(m.labels, num_parts, shape, (t + 1) // 2)
        for weighting in ("weighted", "unweighted"):
            for background in (True, False):
                want = counts.copy()
                if not background:
                    want[0] = want[:, 0] = 0.0
                if weighting == "unweighted":
                    want = np.minimum(want, 1.0)
                cfg = AdjacencyConfig(distance_threshold=t, element_shape=shape,
                                      weighting=weighting, include_background=background)
                got = adjacency_from_labels(m, num_parts, cfg).entries
                assert np.array_equal(got, want), (num_parts, t, weighting, background)


def test_adjacency_from_labels_peak_memory_is_bounded():
    # the bitsets must stay below the per-part full-image masks they replace,
    # present x H x W bytes, on a high-entropy map and on a paper-scale scene
    rng = np.random.default_rng(21)
    scene = generate(SceneSpec(width=256, height=256, num_objects=12,
                               parts_per_object=(9,) * 12, seed=4))[0]
    for m, num_parts in ((random_label_map(rng, 96, 96, 300), 300), (scene, 109)):
        bound = np.unique(m.labels).size * m.labels.size
        tracemalloc.start()
        try:
            adjacency_from_labels(m, num_parts, AdjacencyConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (num_parts, peak, bound)


@pytest.mark.parametrize("mode", ["hard_max", "smooth_max"])
def test_gm_entries_reject_nan_probabilities(mode):
    rng = np.random.default_rng(22)
    cfg = AdjacencyConfig(soft_mode=mode)
    reference = normalize_rows(adjacency_from_labels(random_label_map(rng, 6, 6, 3), 3, cfg))
    probs = random_probs(rng, 6, 6, 3)
    probs[2, 3, 1] = np.nan
    for entry in (gm_value, gm_value_and_grad):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            entry(probs, reference, cfg)


@pytest.mark.parametrize("mode", ["hard_max", "smooth_max"])
def test_one_part_map_without_background_scores_zero(mode):
    # its one channel is the background, which adds nothing to either graph
    cfg = AdjacencyConfig(include_background=False, soft_mode=mode)
    reference = normalize_rows(adjacency_from_labels(LabelMap(np.zeros((5, 6), dtype=int)), 1,
                                                     cfg))
    loss, grad = gm_value_and_grad(np.ones((5, 6, 1)), reference, cfg)
    assert loss == 0.0 and grad.shape == (5, 6, 1) and not grad.any()


def test_exact_distance_matches_pixel_pair_oracle():
    # the pixels of part i within distance T of part j are part i's mask AND
    # part j's mask dilated by T; the pixel-pair scan the synth tests rely on
    # must agree with that
    rng = np.random.default_rng(4)
    for shape in ("square", "diamond"):
        for _ in range(3):
            m = random_label_map(rng, 9, 9, 4)
            near = [dilate_array(m.labels == j, StructuringElement(shape, 3)) for j in range(4)]
            got = np.array([[np.count_nonzero((m.labels == i) & near[j]) if i != j else 0
                             for j in range(4)] for i in range(4)])
            assert np.array_equal(got, exact_distance_oracle(m.labels, 4, shape, 3))


def test_raw_counts_are_symmetric_integers_for_dilate_intersect():
    rng = np.random.default_rng(5)
    m = random_label_map(rng, 12, 12, 6)
    out = adjacency_from_labels(m, 6, AdjacencyConfig()).entries
    assert np.array_equal(out, out.T)
    assert np.array_equal(out, np.rint(out))


def test_counts_monotone_in_threshold():
    rng = np.random.default_rng(6)
    m = random_label_map(rng, 12, 12, 5)
    def dilate_intersect(t):
        return adjacency_from_labels(m, 5, AdjacencyConfig(distance_threshold=t)).entries

    def exact_distance(t):
        return exact_distance_oracle(m.labels, 5, "square", t)

    for build in (dilate_intersect, exact_distance):
        prev = None
        for t in (0, 1, 2, 4, 6):
            cur = build(t)
            if prev is not None:
                assert np.all(cur >= prev)
            prev = cur


def test_unweighted_binarizes():
    rng = np.random.default_rng(7)
    m = random_label_map(rng, 10, 10, 5)
    weighted = adjacency_from_labels(m, 5, AdjacencyConfig()).entries
    unweighted = adjacency_from_labels(m, 5, AdjacencyConfig(weighting="unweighted")).entries
    assert np.array_equal(unweighted, (weighted > 0).astype(float))


def test_background_exclusion_zeroes_row_and_column():
    rng = np.random.default_rng(8)
    m = random_label_map(rng, 10, 10, 4)
    out = adjacency_from_labels(m, 4, AdjacencyConfig(include_background=False)).entries
    assert out[0].sum() == 0.0
    assert out[:, 0].sum() == 0.0
    assert out[1:, 1:].sum() > 0


def test_normalize_rows_triangle():
    m = AdjacencyMatrix(np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 0.0], [4.0, 0.0, 0.0]]))
    n = normalize_rows(m)
    assert np.allclose(n.entries[0], [0.0, 0.6, 0.8], atol=1e-12)
    assert n.kind == "normalized"


def test_normalize_rows_zero_matrix():
    m = AdjacencyMatrix(np.zeros((3, 3)))
    n = normalize_rows(m)
    assert not n.entries.any()


def test_normalize_rows_random_norms():
    rng = np.random.default_rng(9)
    raw = rng.random((8, 8)) * 10
    np.fill_diagonal(raw, 0.0)
    n = normalize_rows(AdjacencyMatrix(raw))
    norms = np.linalg.norm(n.entries, axis=1)
    assert np.abs(norms[norms > 0] - 1.0).max() < 1e-9
    with pytest.raises(DomainError):
        normalize_rows(n)  # already normalized


@pytest.mark.parametrize("threshold", [0, 3, 4])
@pytest.mark.parametrize("include_background", [True, False])
@pytest.mark.parametrize("weighting", ["weighted", "unweighted"])
@pytest.mark.parametrize("shape", ["square", "diamond"])
def test_soft_adjacency_one_hot_matches_discrete_path(shape, weighting, include_background,
                                                      threshold):
    # 19 classes span three soft-dilation blocks
    rng = np.random.default_rng(10)
    cfg = AdjacencyConfig(distance_threshold=threshold, element_shape=shape,
                          weighting=weighting, include_background=include_background,
                          soft_mode="hard_max")
    for _ in range(3):
        m = random_label_map(rng, 11, 10, 19)
        p = one_hot(m, 19)
        raw, norm = soft_adjacency(p, cfg)
        discrete = adjacency_from_labels(argmax_map(p), 19, cfg)
        assert np.array_equal(raw.entries, discrete.entries)
        assert np.array_equal(norm.entries, normalize_rows(discrete).entries)


def test_soft_adjacency_uniform_input_is_symmetric():
    p = ProbMap(np.full((6, 6, 3), 1.0 / 3.0))
    raw, _ = soft_adjacency(p, AdjacencyConfig(soft_mode="hard_max"))
    assert np.array_equal(raw.entries, raw.entries.T)
    off_diag_rows = [sorted(np.delete(raw.entries[i], i)) for i in range(3)]
    assert off_diag_rows[0] == off_diag_rows[1] == off_diag_rows[2]


def test_soft_adjacency_single_dominant_channel_is_zero():
    probs = np.zeros((5, 5, 3))
    probs[:, :, 1] = 1.0
    raw, norm = soft_adjacency(ProbMap(probs), AdjacencyConfig(soft_mode="hard_max"))
    assert not raw.entries.any()
    assert not norm.entries.any()


def test_gm_value_matches_flat_loop():
    rng = np.random.default_rng(11)
    cfg = AdjacencyConfig(distance_threshold=2, soft_mode="smooth_max", beta=20.0)
    for _ in range(5):
        reference = normalize_rows(adjacency_from_labels(random_label_map(rng, 6, 5, 5), 5, cfg))
        probs = random_probs(rng, 6, 5, 5)
        raw, _ = soft_adjacency(ProbMap(probs), cfg)
        want = frobenius_oracle(normalize_rows(raw).entries, reference.entries)
        assert abs(gm_value(probs, reference, cfg) - want) < 1e-12


def test_gm_grad_zero_at_zero_loss():
    rng = np.random.default_rng(13)
    m = random_label_map(rng, 6, 6, 3)
    cfg = AdjacencyConfig(soft_mode="hard_max")
    p = one_hot(m, 3)
    _, reference = soft_adjacency(p, cfg)
    loss, grad = gm_value_and_grad(p.probs, reference, cfg)
    assert loss == 0.0
    assert not grad.any()
    assert gm_value(p.probs, reference, cfg) == 0.0


def test_gm_grad_requires_normalized_reference():
    p = ProbMap(np.full((4, 4, 2), 0.5))
    raw = AdjacencyMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    for entry in (gm_value, gm_value_and_grad):
        with pytest.raises(DomainError, match="must be normalized"):
            entry(p.probs, raw, AdjacencyConfig())


@pytest.mark.parametrize("entry", [gm_value, gm_value_and_grad])
def test_gm_entries_reject_a_reference_of_the_wrong_size(entry):
    probs = np.full((4, 4, 4), 0.25)
    reference = normalize_rows(AdjacencyMatrix(np.ones((3, 3)) - np.eye(3)))
    with pytest.raises(DomainError, match="3 x 3.*4 channels"):
        entry(probs, reference, AdjacencyConfig())


def test_frobenius_slope_against_prediction_matrix():
    # away from zero loss, d||A - B||_F / dA_ij = (A - B)_ij / ||A - B||_F
    rng = np.random.default_rng(14)
    a = rng.random((4, 4))
    b = rng.random((4, 4))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(b, 0.0)
    loss = np.linalg.norm(a - b)
    slope = (a - b) / loss
    h = 1e-7
    for idx in [(0, 1), (2, 3), (3, 0)]:
        ap = a.copy()
        ap[idx] += h
        fd = (np.linalg.norm(ap - b) - loss) / h
        assert abs(fd - slope[idx]) < 1e-6


def test_gm_grad_matches_finite_differences():
    # 40 x 30 pixels span two column chunks of the backward's in-place (G + G^T) D
    rng = np.random.default_rng(15)
    cfg = AdjacencyConfig(distance_threshold=4, soft_mode="smooth_max", beta=20.0)
    for h, w in ((6, 6), (40, 30)):
        m = random_label_map(rng, h, w, 3)
        reference = normalize_rows(adjacency_from_labels(m, 3, cfg))
        probs = random_probs(rng, h, w, 3)
        loss, grad = gm_value_and_grad(probs, reference, cfg)
        assert loss > 0

        def objective(x):
            return gm_value(x, reference, cfg)

        coords = sample_coords(rng, probs.shape, 25)
        assert fd_check(objective, probs, grad, coords) < 1e-4, (h, w)


def test_gm_grad_unweighted_below_saturation():
    # threshold 0 keeps the soft counts of a small map under the min(x, 1)
    # knee, so the unweighted branch passes real gradients; the reference is
    # a binarized chain graph with structure to pull toward
    rng = np.random.default_rng(16)
    cfg = AdjacencyConfig(distance_threshold=0, soft_mode="smooth_max", beta=20.0,
                          weighting="unweighted")
    chain = np.array([[0, 1, 0, 0],
                      [1, 0, 1, 0],
                      [0, 1, 0, 1],
                      [0, 0, 1, 0]], dtype=float)
    reference = normalize_rows(AdjacencyMatrix(chain))
    probs = random_probs(rng, 3, 3, 4)
    raw, _ = soft_adjacency(ProbMap(probs), cfg)
    assert raw.entries.max() < 1.0  # genuinely unsaturated
    loss, grad = gm_value_and_grad(probs, reference, cfg)
    assert loss > 0
    assert np.abs(grad).max() > 0

    def objective(x):
        return gm_value(x, reference, cfg)

    coords = sample_coords(rng, probs.shape, 25)
    assert fd_check(objective, probs, grad, coords) < 1e-4


def test_gm_grad_hard_max_subgradient_matches_finite_differences():
    # away from ties the hard-max subgradient is the true local derivative
    rng = np.random.default_rng(18)
    cfg = AdjacencyConfig(distance_threshold=2, soft_mode="hard_max")
    m = random_label_map(rng, 6, 6, 3)
    reference = normalize_rows(adjacency_from_labels(m, 3, cfg))
    probs = random_probs(rng, 6, 6, 3)
    loss, grad = gm_value_and_grad(probs, reference, cfg)
    assert loss > 0

    def objective(x):
        return gm_value(x, reference, cfg)

    coords = sample_coords(rng, probs.shape, 20)
    assert fd_check(objective, probs, grad, coords) < 1e-4


def test_gm_grad_unweighted_saturated_region_is_flat():
    # on a large map every soft count saturates at 1; both the analytic
    # gradient and the finite difference are then exactly zero
    rng = np.random.default_rng(17)
    cfg = AdjacencyConfig(distance_threshold=4, soft_mode="smooth_max", beta=20.0,
                          weighting="unweighted")
    m = random_label_map(rng, 6, 6, 3)
    reference = normalize_rows(adjacency_from_labels(m, 3, cfg))
    probs = random_probs(rng, 8, 8, 3)
    loss, grad = gm_value_and_grad(probs, reference, cfg)
    assert not grad.any()
    h = 1e-4
    probe = probs.copy()
    probe[4, 4, 1] += h
    assert gm_value(probe, reference, cfg) == gm_value(probs, reference, cfg)


def test_gm_grad_unweighted_saturated_is_flat_at_a_nonzero_loss():
    # every soft count saturates, so the prediction is the complete graph; a
    # chain reference keeps the loss away from 0, and still nothing flows back
    rng = np.random.default_rng(21)
    cfg = AdjacencyConfig(distance_threshold=4, soft_mode="smooth_max", beta=20.0,
                          weighting="unweighted")
    chain = np.eye(4, k=1) + np.eye(4, k=-1)
    reference = normalize_rows(AdjacencyMatrix(chain))
    loss, grad = gm_value_and_grad(random_probs(rng, 8, 8, 4), reference, cfg)
    assert loss > 0
    assert not grad.any()


@pytest.mark.parametrize("include_background", [True, False])
def test_gm_grad_across_channel_blocks_matches_finite_differences(include_background):
    # more channels than one soft-dilation call takes, so the blocks must
    # line up in the forward and the backward pass
    rng = np.random.default_rng(19)
    cfg = AdjacencyConfig(distance_threshold=2, soft_mode="smooth_max", beta=20.0,
                          include_background=include_background)
    m = random_label_map(rng, 6, 5, 19)
    reference = normalize_rows(adjacency_from_labels(m, 19, cfg))
    probs = random_probs(rng, 6, 5, 19)
    loss, grad = gm_value_and_grad(probs, reference, cfg)
    assert loss > 0
    assert grad[:, :, 0].any() == include_background

    def objective(x):
        return gm_value(x, reference, cfg)

    coords = sample_coords(rng, probs.shape, 30)
    assert fd_check(objective, probs, grad, coords) < 1e-4


def test_gm_value_and_grad_peak_memory_is_bounded():
    rng = np.random.default_rng(20)
    cfg = AdjacencyConfig()
    reference = normalize_rows(adjacency_from_labels(random_label_map(rng, 96, 96, 40), 40, cfg))
    probs = random_probs(rng, 96, 96, 40)
    tracemalloc.start()
    try:
        gm_value_and_grad(probs, reference, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # D and the smooth-max cache's two arrays, one of which is returned; measured 3.45x
    assert peak <= 3.6 * probs.nbytes


def test_total_loss_peak_memory_is_bounded():
    # at its peak total_loss holds three probability-sized arrays: D (which
    # becomes grad_D) and the smooth-max weights and reciprocals (which become the
    # dilation gradient, and then the returned one); everything else is chunk- or
    # object-sized; measured 3.20x with background and without, where channel 0
    # dilates as given and only its row of D is zeroed
    rng = np.random.default_rng(22)
    labels = random_label_map(rng, 128, 128, 60)
    mapping = PartsToObjectsMapping(tuple(range(0, 61, 4)))
    probs = random_probs(rng, 128, 128, 60)
    pred = ProbMap(probs)
    for cfg in (AdjacencyConfig(), AdjacencyConfig(include_background=False)):
        tracemalloc.start()
        try:
            total_loss(pred, labels, None, mapping, cfg, LossWeights())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * probs.nbytes, (cfg.include_background, peak / probs.nbytes)
