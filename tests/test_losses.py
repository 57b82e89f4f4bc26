import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    DomainError,
    LabelMap,
    LossReport,
    LossWeights,
    PartsToObjectsMapping,
    ProbMap,
    cross_entropy,
    one_hot,
    project_labels,
    reconstruction_loss,
    total_loss,
)
from oracles import (
    cross_entropy_kernel,
    cross_entropy_oracle,
    fd_check,
    random_probs,
    reconstruction_kernel,
    sample_coords,
)


MAPPING = PartsToObjectsMapping((0, 1, 3, 5))  # background + 2 objects x 2 parts


def test_cross_entropy_perfect_prediction_is_zero():
    rng = np.random.default_rng(0)
    gt = LabelMap(rng.integers(0, 4, (5, 5)).astype(np.int32))
    loss, grad = cross_entropy(one_hot(gt, 4), gt)
    assert loss == 0.0


def test_cross_entropy_uniform_is_log_c():
    for c in (2, 4, 7):
        probs = ProbMap(np.full((3, 3, c), 1.0 / c))
        gt = LabelMap(np.zeros((3, 3), dtype=np.int32))
        loss, _ = cross_entropy(probs, gt)
        assert abs(loss - np.log(c)) < 1e-12


def test_cross_entropy_matches_loop_oracle():
    rng = np.random.default_rng(1)
    probs = random_probs(rng, 5, 5, 4)
    labels = rng.integers(0, 4, (5, 5)).astype(np.int32)
    loss, _ = cross_entropy(ProbMap(probs), LabelMap(labels))
    assert abs(loss - cross_entropy_oracle(probs, labels)) < 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    probs = random_probs(rng, 5, 5, 4)
    labels = rng.integers(0, 4, (5, 5)).astype(np.int32)
    _, grad = cross_entropy_kernel(probs, labels)

    def objective(x):
        return cross_entropy_kernel(x, labels)[0]

    coords = sample_coords(rng, probs.shape, 20)
    assert fd_check(objective, probs, grad, coords) < 1e-5


def test_cross_entropy_shape_mismatch():
    probs = ProbMap(np.full((2, 2, 3), 1.0 / 3.0))
    with pytest.raises(DomainError, match="2x2"):
        cross_entropy(probs, LabelMap(np.zeros((3, 3), dtype=np.int32)))


def test_reconstruction_zero_for_consistent_one_hot():
    rng = np.random.default_rng(3)
    parts = LabelMap(rng.integers(0, 5, (6, 6)).astype(np.int32))
    objects = project_labels(parts, MAPPING)
    loss, _ = reconstruction_loss(one_hot(parts, 5), objects, MAPPING)
    assert loss == 0.0


def test_reconstruction_ignores_within_object_confusion():
    # ground truth asks for part 1 but all mass sits on part 2; both belong
    # to object 1, so reconstruction sees a perfect object map
    gt_parts = LabelMap(np.full((4, 4), 1, dtype=np.int32))
    wrong_part = LabelMap(np.full((4, 4), 2, dtype=np.int32))
    pred = one_hot(wrong_part, 5)
    objects = project_labels(gt_parts, MAPPING)
    rec, _ = reconstruction_loss(pred, objects, MAPPING)
    ce, _ = cross_entropy(pred, gt_parts)
    assert rec == 0.0
    assert ce > 0.0


def test_reconstruction_matches_composition_oracle():
    rng = np.random.default_rng(4)
    probs = random_probs(rng, 5, 5, 5)
    objects = rng.integers(0, 3, (5, 5)).astype(np.int32)
    loss, _ = reconstruction_kernel(probs, objects, MAPPING)
    summed = np.stack([probs[:, :, 0],
                       probs[:, :, 1] + probs[:, :, 2],
                       probs[:, :, 3] + probs[:, :, 4]], axis=2)
    assert abs(loss - cross_entropy_oracle(summed, objects)) < 1e-12


def test_reconstruction_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    probs = random_probs(rng, 5, 5, 5)
    objects = rng.integers(0, 3, (5, 5)).astype(np.int32)
    _, grad = reconstruction_kernel(probs, objects, MAPPING)

    def objective(x):
        return reconstruction_kernel(x, objects, MAPPING)[0]

    coords = sample_coords(rng, probs.shape, 20)
    assert fd_check(objective, probs, grad, coords) < 1e-5


def test_reconstruction_gradient_is_shared_within_object():
    rng = np.random.default_rng(6)
    probs = random_probs(rng, 4, 4, 5)
    objects = rng.integers(0, 3, (4, 4)).astype(np.int32)
    _, grad = reconstruction_kernel(probs, objects, MAPPING)
    # parts 1,2 share object 1 and parts 3,4 share object 2: equal slopes
    assert np.array_equal(grad[:, :, 1], grad[:, :, 2])
    assert np.array_equal(grad[:, :, 3], grad[:, :, 4])


def test_reconstruction_mapping_mismatch():
    probs = ProbMap(np.full((2, 2, 4), 0.25))
    objects = LabelMap(np.zeros((2, 2), dtype=np.int32))
    with pytest.raises(DomainError):
        reconstruction_loss(probs, objects, MAPPING)


def test_loss_weights_validation():
    with pytest.raises(DomainError):
        LossWeights(lambda1=-1.0)
    w = LossWeights()
    assert w.lambda1 == 1e-3 and w.lambda2 == 0.1


def test_total_loss_degenerate_weights():
    rng = np.random.default_rng(7)
    probs = random_probs(rng, 4, 4, 5)
    parts = LabelMap(rng.integers(0, 5, (4, 4)).astype(np.int32))
    cfg = AdjacencyConfig()
    report, _ = total_loss(ProbMap(probs), parts, None, MAPPING, cfg,
                           LossWeights(lambda1=0.0, lambda2=0.0))
    ce, _ = cross_entropy(ProbMap(probs), parts)
    assert report.total == ce


def test_total_loss_zero_at_one_hot_truth():
    rng = np.random.default_rng(8)
    parts = LabelMap(rng.integers(0, 5, (8, 8)).astype(np.int32))
    pred = one_hot(parts, 5)
    cfg = AdjacencyConfig(soft_mode="hard_max")
    report, grad = total_loss(pred, parts, None, MAPPING, cfg, LossWeights())
    assert report.ce == 0.0
    assert report.rec == 0.0
    assert report.gm == 0.0
    assert report.total == 0.0


def test_total_loss_combines_components():
    rng = np.random.default_rng(9)
    probs = random_probs(rng, 6, 6, 5)
    parts = LabelMap(rng.integers(0, 5, (6, 6)).astype(np.int32))
    objects = project_labels(parts, MAPPING)
    cfg = AdjacencyConfig(soft_mode="smooth_max", beta=20.0)
    weights = LossWeights()
    report, grad = total_loss(ProbMap(probs), parts, objects, MAPPING, cfg, weights)

    from partgraph import adjacency_from_labels, normalize_rows
    from partgraph.adjacency import gm_value_and_grad
    ce, g_ce = cross_entropy(ProbMap(probs), parts)
    rec, g_rec = reconstruction_loss(ProbMap(probs), objects, MAPPING)
    reference = normalize_rows(adjacency_from_labels(parts, 5, cfg))
    gm, g_gm = gm_value_and_grad(probs, reference, cfg)
    assert report.ce == ce
    assert report.rec == rec
    assert report.gm == gm
    assert abs(report.total - (ce + weights.lambda1 * rec + weights.lambda2 * gm)) < 1e-9
    # the gradient adds its terms in the documented order, bit for bit
    combined = g_ce + weights.lambda1 * g_rec + weights.lambda2 * g_gm
    assert np.array_equal(grad, combined)


@pytest.mark.parametrize("cfg, weights, below_eps", [
    (AdjacencyConfig(include_background=False), LossWeights(), False),
    (AdjacencyConfig(soft_mode="hard_max"), LossWeights(), False),
    (AdjacencyConfig(distance_threshold=7, element_shape="diamond"), LossWeights(), False),
    (AdjacencyConfig(), LossWeights(lambda1=0.0), False),
    (AdjacencyConfig(), LossWeights(lambda2=0.0), False),
    (AdjacencyConfig(), LossWeights(0.0, 0.0), False),  # -0.0 terms: the signs must agree
    (AdjacencyConfig(), LossWeights(), True),
], ids=["no_background", "hard_max", "diamond_t7", "lambda1_0", "lambda2_0", "lambdas_0",
        "below_log_eps"])
def test_total_loss_adds_its_terms_in_order_under_every_config(cfg, weights, below_eps):
    # the gradient is graph matching's buffer with ce and rec added in; each
    # entry must still be (ce + lambda1 * rec) + lambda2 * gm, bit for bit
    rng = np.random.default_rng(11)
    probs = random_probs(rng, 9, 8, 5)
    parts = LabelMap(rng.integers(0, 5, (9, 8)).astype(np.int32))
    if below_eps:  # a true-class probability under LOG_EPS has a cross-entropy slope of 0
        probs[4, 3] = 0.0
        probs[4, 3, (parts.labels[4, 3] + 1) % 5] = 1.0
    objects = project_labels(parts, MAPPING)
    report, grad = total_loss(ProbMap(probs), parts, objects, MAPPING, cfg, weights)

    from partgraph import adjacency_from_labels, normalize_rows
    from partgraph.adjacency import gm_value_and_grad
    _, g_ce = cross_entropy(ProbMap(probs), parts)
    _, g_rec = reconstruction_loss(ProbMap(probs), objects, MAPPING)
    reference = normalize_rows(adjacency_from_labels(parts, 5, cfg))
    gm, g_gm = gm_value_and_grad(probs, reference, cfg)
    assert report.gm == gm
    combined = g_ce + weights.lambda1 * g_rec + weights.lambda2 * g_gm
    assert np.array_equal(grad.view(np.int64), combined.view(np.int64))
    if not cfg.include_background:
        assert not g_gm[:, :, 0].any()


def test_total_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    probs = random_probs(rng, 6, 6, 5)
    parts = LabelMap(rng.integers(0, 5, (6, 6)).astype(np.int32))
    objects = project_labels(parts, MAPPING)
    cfg = AdjacencyConfig(soft_mode="smooth_max", beta=20.0)
    weights = LossWeights()
    _, grad = total_loss(ProbMap(probs), parts, objects, MAPPING, cfg, weights)

    from partgraph import adjacency_from_labels, normalize_rows
    from partgraph.adjacency import gm_value
    reference = normalize_rows(adjacency_from_labels(parts, 5, cfg))

    def objective(x):
        ce, _ = cross_entropy_kernel(x, parts.labels)
        rec, _ = reconstruction_kernel(x, objects.labels, MAPPING)
        gm = gm_value(x, reference, cfg)
        return ce + weights.lambda1 * rec + weights.lambda2 * gm

    coords = sample_coords(rng, probs.shape, 20)
    assert fd_check(objective, probs, grad, coords) < 1e-4


def test_total_loss_names_failing_component():
    probs = ProbMap(np.full((2, 2, 5), 0.2))
    bad_objects = LabelMap(np.full((2, 2), 9, dtype=np.int32))
    with pytest.raises(DomainError, match="reconstruction term"):
        total_loss(probs, LabelMap(np.zeros((2, 2), dtype=np.int32)), bad_objects,
                   MAPPING, AdjacencyConfig(), LossWeights())


def test_loss_report_invariant():
    w = LossWeights(lambda1=0.5, lambda2=2.0)
    r = LossReport.combine(1.0, 0.25, 0.125, w)
    assert abs(r.total - (r.ce + w.lambda1 * r.rec + w.lambda2 * r.gm)) < 1e-9
