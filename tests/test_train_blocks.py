"""The blocked training engine against the per-scene training loop it replaced.

``train_toy`` stacks consecutive scenes of equal size into (C, N, H, W)
blocks and builds each scene's reference graph once. The oracle in
``oracles.py`` runs every scene alone and rebuilds the reference each step.
"""

import tracemalloc

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    DomainError,
    EmbeddingConfig,
    LabelMap,
    LossWeights,
    ProbMap,
    SceneSpec,
    ToyNetConfig,
    generate_dataset,
    init_toy_params,
    one_hot,
    train_toy,
)
from partgraph import condnet, losses
from partgraph.adjacency import AdjacencyMatrix
from partgraph.condnet import (
    _TRAIN_BLOCK,
    _forward,
    _toy_forward_cached,
    _train_step,
    _training_blocks,
)
from partgraph.losses import reference_graph, total_loss

from oracles import train_step_oracle, train_toy_oracle

NET = ToyNetConfig(num_stages=2, encoder_channels=(4, 6), decoder_channels=(6, 4),
                   embedding=EmbeddingConfig.toy(2), conditioning="multi", seed=3)
CFG = AdjacencyConfig(distance_threshold=4, soft_mode="smooth_max", beta=20.0)
WEIGHTS = LossWeights(lambda1=1e-3, lambda2=0.1)
RTOL = 1e-12


def scenes_of(size, count, seed=5):
    spec = SceneSpec(width=size, height=size, num_objects=2, parts_per_object=(2, 2),
                     min_instance=4, seed=seed)
    return generate_dataset(spec, count)


def mixed_scenes():
    """16x16 and 32x32 scenes interleaved, over one part-to-object mapping."""
    small, mapping = scenes_of(16, 4)
    large, _ = scenes_of(32, 3, seed=50)
    return [small[0], small[1], large[0], small[2], large[1], large[2], small[3]], mapping


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


def check_against_oracle(scenes, mapping):
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    blocks = _training_blocks(scenes, mapping, NET, CFG)

    # forward: every scene of a block equals its own single-scene call, bit for bit
    scene_iter = iter(scenes)
    for images, objs, targets in blocks:
        probs, _ = _forward(images, objs, NET, params)
        for j in range(len(targets)):
            rgb, _, objects = next(scene_iter)
            alone, _ = _toy_forward_cached(rgb, one_hot(objects, mapping.num_objects), NET,
                                           params)
            assert np.array_equal(probs[:, j], alone)

    sums, grads = _train_step(blocks, mapping, NET, params, WEIGHTS, CFG, 0)
    want_sums, want_grads = train_step_oracle(scenes, mapping, NET, params, WEIGHTS, CFG)
    assert_close(sums, want_sums)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert_close(grads[name], want_grads[name])

    got_params, got = train_toy(scenes, mapping, NET, WEIGHTS, CFG, 3, 0.2, seed=11)
    want_params, want = train_toy_oracle(scenes, mapping, NET, WEIGHTS, CFG, 3, 0.2, seed=11)
    assert_close([[r.ce, r.rec, r.gm, r.total] for r in got],
                 [[r.ce, r.rec, r.gm, r.total] for r in want])
    for name in got_params:
        assert_close(got_params[name], want_params[name])
    return blocks


@pytest.mark.parametrize("count", [1, 3, 2 * _TRAIN_BLOCK + 1])
def test_blocked_engine_matches_per_scene_loop(count):
    scenes, mapping = scenes_of(16, count)
    blocks = check_against_oracle(scenes, mapping)
    sizes = [len(targets) for _, _, targets in blocks]
    assert sum(sizes) == count
    assert all(size == _TRAIN_BLOCK for size in sizes[:-1])
    assert 1 <= sizes[-1] <= _TRAIN_BLOCK
    for images, objs, targets in blocks:
        assert images.shape == (3, len(targets), 16, 16)
        assert objs.shape == (mapping.num_objects, len(targets), 16, 16)


def test_mixed_scene_sizes_split_blocks_and_train():
    scenes, mapping = mixed_scenes()
    blocks = check_against_oracle(scenes, mapping)
    assert [images.shape[1:] for images, _, _ in blocks] == [
        (2, 16, 16), (1, 32, 32), (1, 16, 16), (2, 32, 32), (1, 16, 16)]
    _, trace = train_toy(scenes, mapping, NET, WEIGHTS, CFG, 20, 0.2, seed=11)
    assert np.isfinite([r.total for r in trace]).all()
    assert trace[-1].total < trace[0].total


def test_reference_graph_is_built_once_per_scene(monkeypatch):
    calls = []
    build = losses.adjacency_from_labels

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(losses, "adjacency_from_labels", counting)
    scenes, mapping = scenes_of(16, 20)
    train_toy(scenes, mapping, NET, WEIGHTS, CFG, 5, 0.2, seed=11)
    assert len(calls) == 20  # the per-scene loop made 20 x 5


def test_total_loss_with_prebuilt_reference_is_identical():
    scenes, mapping = scenes_of(16, 2)
    rng = np.random.default_rng(0)
    for rgb, parts, objects in scenes:
        logits = rng.standard_normal((16, 16, mapping.num_parts))
        probs = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        pred = ProbMap(probs)
        reference = reference_graph(parts, mapping.num_parts, CFG)
        report, grad = total_loss(pred, parts, objects, mapping, CFG, WEIGHTS)
        report_r, grad_r = total_loss(pred, parts, objects, mapping, CFG, WEIGHTS,
                                      reference=reference)
        assert report_r == report
        assert np.array_equal(grad_r, grad)


def test_total_loss_rejects_a_wrong_reference():
    scenes, mapping = scenes_of(16, 1)
    _, parts, objects = scenes[0]
    pred = one_hot(parts, mapping.num_parts)
    wrong_size = reference_graph(LabelMap(parts.labels), mapping.num_parts + 1, CFG)
    with pytest.raises(DomainError, match="graph-matching term.*channels"):
        total_loss(pred, parts, objects, mapping, CFG, WEIGHTS, reference=wrong_size)
    raw = losses.adjacency_from_labels(parts, mapping.num_parts, CFG)
    with pytest.raises(DomainError, match="graph-matching term.*normalized"):
        total_loss(pred, parts, objects, mapping, CFG, WEIGHTS, reference=raw)
    unnormalized = AdjacencyMatrix(2.0 * raw.entries)
    with pytest.raises(DomainError, match="graph-matching term.*normalized"):
        total_loss(pred, parts, objects, mapping, CFG, WEIGHTS, reference=unnormalized)


def _train_peak_mib(scenes, mapping):
    net = ToyNetConfig(num_stages=2, encoder_channels=(8, 16), decoder_channels=(16, 8),
                       embedding=EmbeddingConfig.toy(2), conditioning="multi", seed=0)
    tracemalloc.start()
    try:
        train_toy(scenes, mapping, net, WEIGHTS, CFG, 1, 0.2, seed=7)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_training_memory_is_bounded_by_the_block(monkeypatch):
    # the 20-scene 32x32 set of acceptance criterion 6; measured peaks: 3.4 MiB
    # in blocks of 4 (4.3 MiB as the first call in a process) and 10.7 MiB
    # with all 20 scenes in one block
    spec = SceneSpec(width=32, height=32, num_objects=3, parts_per_object=(2, 2, 2),
                     seed=100)
    scenes, mapping = generate_dataset(spec, 20)
    bound_mib = 7.0
    assert _train_peak_mib(scenes, mapping) < bound_mib
    monkeypatch.setattr(condnet, "_TRAIN_BLOCK", len(scenes))
    assert _train_peak_mib(scenes, mapping) > bound_mib  # the bound sees one whole-set block
