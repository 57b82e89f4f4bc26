"""The blocked training engine against the per-scene training loop it replaced.

``train_toy`` and ``mean_gm_loss`` stack consecutive scenes of equal size
into (C, N, H, W) blocks and build each scene's reference graph once. The
oracles in ``oracles.py`` run every scene alone and rebuild the reference
each step. Every loss kernel takes a whole block and adds its gradient into
the caller's buffer, each scene's slice equal to that scene's block of one.
"""

import tracemalloc

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    DomainError,
    EmbeddingConfig,
    LossWeights,
    NumericError,
    ProbMap,
    SceneSpec,
    ToyNetConfig,
    generate_dataset,
    init_toy_params,
    mean_gm_loss,
    one_hot,
    train_toy,
)
from partgraph import adjacency, condnet, losses
from partgraph.condnet import (
    _TRAIN_BLOCK,
    _columns,
    _forward,
    _layer_operands,
    _padded,
    _toy_forward_cached,
    _train_step,
    _training_blocks,
)
from partgraph.adjacency import _graph_matching, gm_value, soft_adjacency
from partgraph.losses import _block_loss, _cross_entropy_raw, _reconstruction_raw, reference_graph

from oracles import block_loss_oracle, mean_gm_loss_oracle, train_step_oracle, train_toy_oracle

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
    size = NET.embedding.kernel_sizes[0]
    weights = np.empty((1, mapping.num_objects, size, size))
    for images, objs, targets in blocks:
        assert images.shape == (3, len(targets), 16, 16)
        # one uint8 entry per tap and output pixel of the first embedding layer
        assert objs.shape == (size * size, len(targets), 8, 8) and objs.dtype == np.uint8
        one_hots = np.stack([np.moveaxis(one_hot(objects, mapping.num_objects).probs, 2, 0)
                             for _, objects, _ in targets], axis=1)
        xp, oh, ow = _padded(one_hots, size, size, 2)
        cols, _, _ = _layer_operands(objs, weights)
        assert np.array_equal(cols.reshape(len(xp) * size * size, -1),
                              _columns(xp, size, size, 2, oh, ow))


def test_mixed_scene_sizes_split_blocks_and_train():
    scenes, mapping = mixed_scenes()
    blocks = check_against_oracle(scenes, mapping)
    assert [images.shape[1:] for images, _, _ in blocks] == [
        (2, 16, 16), (1, 32, 32), (1, 16, 16), (2, 32, 32), (1, 16, 16)]
    _, trace = train_toy(scenes, mapping, NET, WEIGHTS, CFG, 20, 0.2, seed=11)
    assert np.isfinite([r.total for r in trace]).all()
    assert trace[-1].total < trace[0].total


@pytest.fixture
def reference_builds(monkeypatch):
    """The list of ``adjacency_from_labels`` calls made through ``losses``."""
    calls = []
    build = losses.adjacency_from_labels

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(losses, "adjacency_from_labels", counting)
    return calls


def test_reference_graph_is_built_once_per_scene(reference_builds):
    scenes, mapping = scenes_of(16, 20)
    train_toy(scenes, mapping, NET, WEIGHTS, CFG, 5, 0.2, seed=11)
    assert len(reference_builds) == 20  # the per-scene loop made 20 x 5


@pytest.mark.parametrize("case", ["one", "blocks", "mixed"])
def test_heldout_scoring_matches_per_scene_loop(case):
    if case == "mixed":
        scenes, mapping = mixed_scenes()
    else:
        scenes, mapping = scenes_of(16, 1 if case == "one" else 2 * _TRAIN_BLOCK + 1)
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    want = mean_gm_loss_oracle(scenes, mapping, NET, params, CFG)
    assert mean_gm_loss(scenes, mapping, NET, params, CFG) == want


def test_heldout_scoring_builds_each_reference_graph_once(reference_builds):
    scenes, mapping = mixed_scenes()
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    mean_gm_loss(scenes, mapping, NET, params, CFG)
    assert len(reference_builds) == len(scenes)


def test_heldout_scoring_rejects_non_finite_activations():
    scenes, mapping = scenes_of(16, 2)
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    params["head.b"] = np.full_like(params["head.b"], np.nan)
    with pytest.raises(NumericError, match="held-out"):
        mean_gm_loss(scenes, mapping, NET, params, CFG)


def test_heldout_scoring_of_no_scenes_is_a_domain_error():
    _, mapping = scenes_of(16, 1)
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    with pytest.raises(DomainError, match="held-out scene"):
        mean_gm_loss([], mapping, NET, params, CFG)


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 20])
def test_criterion_6_net_scene_is_bit_identical_alone_and_in_any_block(monkeypatch, block):
    # the net and 20-scene 32x32 set of acceptance criterion 6, whose 7x7 emb1
    # makes the widest column matrix; a block of 1 is the (C, 1, H, W) layout
    spec = SceneSpec(width=32, height=32, num_objects=3, parts_per_object=(2, 2, 2),
                     seed=100)
    scenes, mapping = generate_dataset(spec, 20)
    net = ToyNetConfig(num_stages=2, encoder_channels=(8, 16), decoder_channels=(16, 8),
                       embedding=EmbeddingConfig.toy(2), conditioning="multi", seed=0)
    params = init_toy_params(net, mapping.num_parts, mapping.num_objects, seed=7)
    monkeypatch.setattr(condnet, "_TRAIN_BLOCK", block)
    blocks = _training_blocks(scenes, mapping, net, CFG)
    assert [len(targets) for _, _, targets in blocks] == [block] * (20 // block) + (
        [20 % block] if 20 % block else [])
    scene_iter = iter(scenes)
    for images, objs, targets in blocks:
        probs, _ = _forward(images, objs, net, params)
        sums, grad = _block_loss(probs, targets, mapping, CFG, WEIGHTS)
        # the take/put-along-axis and reduceat bookkeeping of the oracle, bit for bit
        want_sums, want_grad = block_loss_oracle(probs, targets, mapping, CFG, WEIGHTS)
        assert sums == want_sums
        assert np.array_equal(grad.view(np.int64), want_grad.view(np.int64))
        alone_sums = np.zeros(3)
        for j in range(len(targets)):
            rgb, _, objects = next(scene_iter)
            alone, _ = _toy_forward_cached(rgb, one_hot(objects, mapping.num_objects), net,
                                           params)
            assert np.array_equal(probs[:, j], alone)
            # the loss of a block of 1: the same gradient, and sums up to their order
            alone_loss, alone_grad = _block_loss(alone[:, None], targets[j:j + 1], mapping, CFG,
                                                 WEIGHTS)
            alone_sums += alone_loss
            assert np.array_equal(grad[:, j], alone_grad[:, 0])
        np.testing.assert_allclose(sums, alone_sums, rtol=1e-15, atol=0.0)


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
    # the 20-scene 32x32 set of acceptance criterion 6; measured peaks: 3.3 MiB
    # in blocks of 4 and 12.0 MiB with all 20 scenes in one block
    spec = SceneSpec(width=32, height=32, num_objects=3, parts_per_object=(2, 2, 2),
                     seed=100)
    scenes, mapping = generate_dataset(spec, 20)
    bound_mib = 7.0
    assert _train_peak_mib(scenes, mapping) < bound_mib
    monkeypatch.setattr(condnet, "_TRAIN_BLOCK", len(scenes))
    assert _train_peak_mib(scenes, mapping) > bound_mib  # the bound sees one whole-set block


def test_graph_matching_totals_add_the_scenes_in_order(monkeypatch):
    # 20 scenes, where a pairwise sum of the per-scene terms differs from a running one
    scenes, mapping = scenes_of(16, 20)
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    assert mean_gm_loss(scenes, mapping, NET, params, CFG) == mean_gm_loss_oracle(
        scenes, mapping, NET, params, CFG)
    monkeypatch.setattr(condnet, "_TRAIN_BLOCK", len(scenes))
    [(images, objs, targets)] = _training_blocks(scenes, mapping, NET, CFG)
    probs, _ = _forward(images, objs, NET, params)
    want = 0.0
    for j in range(len(scenes)):
        want += _block_loss(probs[:, j:j + 1], targets[j:j + 1], mapping, CFG, WEIGHTS)[0][2]
    assert _block_loss(probs, targets, mapping, CFG, WEIGHTS)[0][2] == want


HARD = AdjacencyConfig(distance_threshold=4, soft_mode="hard_max")


def perfect_and_noisy_block(mapping, scenes):
    """(C, 2, H, W) probabilities: scene 0's one-hot truth, then a noisy scene 1."""
    rng = np.random.default_rng(8)
    perfect = np.moveaxis(one_hot(scenes[0][1], mapping.num_parts).probs, 2, 0)
    logits = rng.normal(size=perfect.shape) + 2.0 * np.moveaxis(
        one_hot(scenes[1][1], mapping.num_parts).probs, 2, 0)
    noisy = np.exp(logits) / np.exp(logits).sum(axis=0)
    return np.stack([perfect, noisy], axis=1)


def test_a_perfect_scene_beside_a_noisy_one_gets_no_gm_gradient():
    scenes, mapping = scenes_of(16, 2)
    probs = perfect_and_noisy_block(mapping, scenes)
    targets = [(parts, objects, reference_graph(parts, mapping.num_parts, HARD))
               for _, parts, objects in scenes]
    assert _graph_matching(probs, HARD, [ref for _, _, ref in targets])[1][0] == 0.0
    (ce, rec, gm), grad = _block_loss(probs, targets, mapping, HARD, WEIGHTS)
    # the perfect scene's gradient is its cross-entropy and reconstruction terms alone
    _, no_gm = _block_loss(probs, targets, mapping, HARD, LossWeights(WEIGHTS.lambda1, 0.0))
    assert np.array_equal(grad[:, 0], no_gm[:, 0])
    # the noisy scene's loss and gradient are those of its block of one
    alone_loss, alone = _block_loss(probs[:, 1:], targets[1:], mapping, HARD, WEIGHTS)
    assert (ce, rec, gm) == alone_loss
    assert np.array_equal(grad[:, 1], alone[:, 0])


def test_heldout_scoring_of_a_perfect_and_a_noisy_scene_matches_per_scene_loop(monkeypatch):
    scenes, mapping = scenes_of(16, 2)
    block = perfect_and_noisy_block(mapping, scenes)
    by_image = {rgb.tobytes(): block[:, j] for j, (rgb, _, _) in enumerate(scenes)}

    def lookup_forward(images, objects, net, params):
        # the network's place: each image's fixed probabilities, alone or in a block
        if images.ndim == 3:
            return by_image[images.tobytes()], {}
        return np.stack([by_image[images[:, j].tobytes()] for j in range(images.shape[1])],
                        axis=1), {}

    monkeypatch.setattr(condnet, "_forward", lookup_forward)
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    want = mean_gm_loss_oracle(scenes, mapping, NET, params, HARD)
    got = mean_gm_loss(scenes, mapping, NET, params, HARD)
    assert got == want
    reference = reference_graph(scenes[1][1], mapping.num_parts, HARD)
    noisy = _graph_matching(block[:, 1:], HARD, [reference])[1][0]
    assert noisy > 0.0 and got == noisy / 2  # the perfect scene adds exactly 0


def _cross_entropy_kernel(probs, scenes, mapping, cfg, grad):
    _cross_entropy_raw(probs, np.stack([parts.labels for _, parts, _ in scenes]), grad)


def _reconstruction_kernel(probs, scenes, mapping, cfg, grad):
    objects = np.stack([objs.labels for _, _, objs in scenes])
    _reconstruction_raw(probs, objects, mapping, grad, 0.3)


def _graph_matching_kernel(probs, scenes, mapping, cfg, grad):
    # graph matching returns its gradient in a buffer of the block's shape that the
    # dilation owns (smooth-max's inv_open, in the state its forward returns); added
    # into the caller's buffer here, so that each scene's part is checked against its
    # block of one
    references = [reference_graph(parts, mapping.num_parts, cfg) for _, parts, _ in scenes]
    forward, states = adjacency.soft_dilate_forward, []

    def capture_state(*args):
        fields, state = forward(*args)
        states.append(state)
        return fields, state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adjacency, "soft_dilate_forward", capture_state)
        _, _, result = _graph_matching(probs, cfg, references, 0.3)
    [state] = states
    assert result.shape == probs.shape
    if state[0] == "smooth_max":
        assert np.shares_memory(result, state[2])
    assert cfg.include_background or not result[0].any()
    grad += result


@pytest.mark.parametrize("kernel, cfg", [
    (_cross_entropy_kernel, CFG),
    (_reconstruction_kernel, CFG),
    (_graph_matching_kernel, CFG),
    (_graph_matching_kernel, AdjacencyConfig(distance_threshold=2, element_shape="diamond",
                                             soft_mode="hard_max", include_background=False)),
], ids=["cross_entropy", "reconstruction", "graph_matching", "graph_matching_hard_max"])
def test_every_loss_kernel_adds_into_the_callers_buffer(kernel, cfg):
    scenes, mapping = scenes_of(16, 3)
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    images, objs, _ = _training_blocks(scenes, mapping, NET, cfg)[0]
    probs, _ = _forward(images, objs, NET, params)
    before = np.random.default_rng(9).normal(size=probs.shape)
    grad = before.copy()
    kernel(probs, scenes, mapping, cfg, grad)
    for j in range(len(scenes)):
        alone = np.zeros_like(probs[:, j:j + 1])
        kernel(probs[:, j:j + 1], scenes[j:j + 1], mapping, cfg, alone)
        assert np.any(alone != 0.0)
        assert np.array_equal(grad[:, j], before[:, j] + alone[:, 0])


@pytest.mark.parametrize("cfg", [CFG, HARD], ids=["smooth_max", "hard_max"])
def test_loss_only_callers_never_run_the_dilation_backward(monkeypatch, cfg):
    scenes, mapping = scenes_of(16, 3)
    params = init_toy_params(NET, mapping.num_parts, mapping.num_objects, seed=11)
    images, objs, _ = _training_blocks(scenes, mapping, NET, cfg)[0]
    probs = np.moveaxis(_forward(images, objs, NET, params)[0][:, 0], 0, 2)
    reference = reference_graph(scenes[0][1], mapping.num_parts, cfg)

    def outputs():
        raw, normalized = soft_adjacency(ProbMap(probs), cfg)
        return (gm_value(probs, reference, cfg), raw.entries.tolist(),
                normalized.entries.tolist(), mean_gm_loss(scenes, mapping, NET, params, cfg))

    want = outputs()

    def no_backward(*args):
        raise AssertionError("the dilation backward ran")

    monkeypatch.setattr(adjacency, "soft_dilate_backward", no_backward)
    assert outputs() == want
