import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    DomainError,
    EmbeddingConfig,
    LabelMap,
    LossWeights,
    NumericError,
    PartsToObjectsMapping,
    ProbMap,
    ToyNetConfig,
    init_toy_params,
    one_hot,
    project_labels,
    toy_forward,
    train_toy,
)
from partgraph.condnet import (
    _chain_forward,
    _conv_backward,
    _conv_forward,
    _toy_forward_cached,
    as_tensor,
    conv2d_backward,
    conv2d_forward,
    softmax_channels,
    toy_backward,
    upsample2,
    upsample2_backward,
)
from partgraph.losses import total_loss

from oracles import (
    conv_backward_oracle,
    conv_forward_oracle,
    init_toy_params_oracle,
    rel_err,
    upsample2_backward_oracle,
)

MAPPING = PartsToObjectsMapping((0, 1, 3, 5))


def small_net(conditioning="multi", seed=3):
    return ToyNetConfig(num_stages=2, encoder_channels=(4, 6), decoder_channels=(6, 4),
                        embedding=EmbeddingConfig.toy(2), conditioning=conditioning,
                        seed=seed)


def embedding_pyramid(probs, cfg, params):
    """Activations of every layer of ``cfg`` run as the network's embedding chain."""
    return [out for _, out in _chain_forward(as_tensor(probs), "emb", cfg.num_layers, params)]


def random_scene(rng, h=8, w=8, num_parts=5):
    x = rng.random((3, h, w))
    parts = LabelMap(rng.integers(0, num_parts, (h, w)).astype(np.int32),
                     num_classes=num_parts)
    objects = project_labels(parts, MAPPING)
    return x, parts, objects


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.random((3, 5, 5))
    weights = np.zeros((3, 3, 1, 1))
    for c in range(3):
        weights[c, c, 0, 0] = 1.0
    out = conv2d_forward(x, weights)
    assert np.array_equal(out, x)


def test_conv_zero_weights():
    rng = np.random.default_rng(1)
    x = rng.random((3, 5, 5))
    weights = np.zeros((2, 3, 3, 3))
    out = conv2d_forward(x, weights)
    assert not out.any()
    grad_x, grad_w, grad_b = conv2d_backward(x, weights, np.ones_like(out))
    assert not grad_x.any()
    assert grad_w.any()  # weight gradient still reflects the input


def test_conv_shapes_with_stride():
    x = np.zeros((2, 9, 7))
    weights = np.zeros((4, 2, 3, 3))
    assert conv2d_forward(x, weights, stride=2).shape == (4, 5, 4)
    assert conv2d_forward(x, weights, stride=1).shape == (4, 9, 7)
    with pytest.raises(DomainError):
        conv2d_forward(np.zeros((3, 4, 4)), weights)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.random((3, 5, 5))
    weights = rng.standard_normal((2, 3, 3, 3)) * 0.3
    bias = rng.standard_normal(2) * 0.1
    probe = rng.standard_normal((2, 5, 5))

    def objective(xx, ww, bb):
        return float((conv2d_forward(xx, ww, bb) * probe).sum())

    grad_x, grad_w, grad_b = conv2d_backward(x, weights, probe)
    h = 1e-6
    worst = 0.0
    for arr, grad, pick in ((x, grad_x, "x"), (weights, grad_w, "w"), (bias, grad_b, "b")):
        flat = arr.ravel()
        for k in range(0, flat.size, max(1, flat.size // 10)):
            fp = arr.copy().ravel()
            fm = arr.copy().ravel()
            fp[k] += h
            fm[k] -= h
            args = {"x": x, "w": weights, "b": bias}
            args_p = dict(args, **{pick: fp.reshape(arr.shape)})
            args_m = dict(args, **{pick: fm.reshape(arr.shape)})
            fd = (objective(args_p["x"], args_p["w"], args_p["b"])
                  - objective(args_m["x"], args_m["w"], args_m["b"])) / (2 * h)
            worst = max(worst, rel_err(float(grad.ravel()[k]), fd))
    assert worst < 1e-4


@pytest.mark.parametrize("input_grad", [True, False], ids=["input-grad", "no-input-grad"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["scene", "block"])
@pytest.mark.parametrize("size", [(9, 7), (8, 10)], ids=["odd", "even"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 4, 5, 7])
def test_conv_kernels_match_the_tap_loop_oracle(kernel, stride, size, lead, input_grad):
    # positive operands: no sum cancels, so 1e-12 bounds any reordering of it
    rng = np.random.default_rng(kernel * 100 + stride * 10 + size[0])
    x = rng.random((2,) + lead + size) + 0.5
    weights = rng.random((4, 2, kernel, kernel)) + 0.5
    bias = rng.random(4)
    out = _conv_forward(x, weights, bias, stride)
    want = conv_forward_oracle(x, weights, bias, stride)
    assert out.shape == want.shape == (4,) + lead + tuple(-(-n // stride) for n in size)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=0.0)

    grad_out = rng.random(out.shape) + 0.5
    got = _conv_backward(x, weights, grad_out, stride, input_grad=input_grad)
    want = conv_backward_oracle(x, weights, grad_out, stride, input_grad=input_grad)
    if input_grad:
        assert got[0].shape == x.shape
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
    else:
        assert got[0] is None and want[0] is None
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("call,match", [
    (lambda: conv2d_backward(np.ones((3, 8, 8)), np.ones((4, 2, 3, 3)), np.ones((4, 8, 8))),
     "input"),
    (lambda: conv2d_forward(np.ones((3, 8, 8)), np.ones((4, 3, 3, 3)), np.ones(5)), "bias"),
    (lambda: conv2d_forward(np.ones((3, 8, 8)), np.ones((4, 3, 3)), None), "weights"),
    (lambda: conv2d_forward(np.ones((3, 8, 8)), np.ones((4, 3, 3, 3)), None, stride=0),
     "stride"),
    (lambda: conv2d_backward(np.ones((3, 8, 8)), np.ones((4, 3, 3, 3)), np.ones((4, 8, 8)),
                             stride=0), "stride"),
    (lambda: _conv_forward(np.ones((3, 2, 8, 8)), np.ones((4, 2, 3, 3)), None), "input"),
], ids=["backward-channels", "forward-bias", "forward-weights", "forward-stride",
        "backward-stride", "block-channels"])
def test_conv_entries_reject_mismatched_operands(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_upsample_round_trip_shapes():
    rng = np.random.default_rng(3)
    x = rng.random((2, 3, 4))
    up = upsample2(x)
    assert up.shape == (2, 6, 8)
    assert np.array_equal(up[:, ::2, ::2], x)
    back = upsample2_backward(np.ones_like(up))
    assert np.array_equal(back, np.full_like(x, 4.0))


@pytest.mark.parametrize("shape", [(2, 6, 8), (7, 4, 32, 32), (3, 1, 2, 2)])
def test_upsample_backward_matches_block_sum_oracle(shape):
    g = np.random.default_rng(4).standard_normal(shape)
    back = upsample2_backward(g)
    assert back.shape == shape[:-2] + (shape[-2] // 2, shape[-1] // 2)
    assert np.allclose(back, upsample2_backward_oracle(g), rtol=0, atol=1e-14)


@pytest.mark.parametrize("net, parts, objects, seed", [
    (small_net(), 5, 2, 3),
    (ToyNetConfig(num_stages=2, encoder_channels=(8, 16), decoder_channels=(16, 8),
                  embedding=EmbeddingConfig.toy(2), conditioning="multi"), 7, 4, 2**64 - 1),
], ids=["small", "criterion-6"])
def test_init_params_equal_scalar_draws_bit_for_bit(net, parts, objects, seed):
    params = init_toy_params(net, parts, objects, seed=seed)
    expected = init_toy_params_oracle(net, parts, objects, seed)
    assert params.keys() == expected.keys()
    for name, value in expected.items():
        assert params[name].shape == value.shape
        assert np.array_equal(params[name].view(np.uint64), value.view(np.uint64)), name


def test_embedding_pyramid_shapes():
    cfg = EmbeddingConfig.toy(4)
    probs = ProbMap(np.ones((16, 16, 1)))
    params = init_toy_params(
        ToyNetConfig(num_stages=4, encoder_channels=(4, 4, 4, 4),
                     decoder_channels=(4, 4, 4, 4), embedding=cfg), 5, 1)
    pyramid = embedding_pyramid(probs, cfg, params)
    assert [t.shape for t in pyramid] == [(8, 8, 8), (16, 4, 4), (32, 2, 2), (64, 1, 1)]


def test_embedding_zero_input_zero_biases_gives_zero_pyramid():
    cfg = EmbeddingConfig.toy(2)
    # a two-class map with all mass on class 0: channel 1 is all zero, and
    # zero weights on channel 0 see only zeros after the first layer
    probs = ProbMap(np.stack([np.ones((8, 8)), np.zeros((8, 8))], axis=2))
    params = init_toy_params(small_net(), 5, 2)
    params["emb1.w"] = np.zeros_like(params["emb1.w"])
    pyramid = embedding_pyramid(probs, cfg, params)
    for level in pyramid:
        assert not level.any()


def test_embedding_matches_direct_composition():
    rng = np.random.default_rng(4)
    cfg = EmbeddingConfig.toy(2)
    probs = np.array(rng.random((8, 8, 2)))
    probs /= probs.sum(axis=2, keepdims=True)
    pm = ProbMap(probs)
    params = init_toy_params(small_net(), 5, 2)
    pyramid = embedding_pyramid(pm, cfg, params)
    x = np.moveaxis(probs, 2, 0)
    s1 = np.maximum(conv2d_forward(x, params["emb1.w"], params["emb1.b"], stride=2), 0.0)
    s2 = np.maximum(conv2d_forward(s1, params["emb2.w"], params["emb2.b"], stride=2), 0.0)
    assert np.array_equal(pyramid[0], s1)
    assert np.array_equal(pyramid[1], s2)


def decoder_stages(net, size=8, seed=12):
    """Forward one random scene; return the cache and each decoder stage's output.

    A stage's output is what the next stage consumes before its
    nearest-neighbour upsample, so every second pixel recovers it exactly; the
    head, which runs before the last upsample, consumes the last one as is.
    """
    rng = np.random.default_rng(seed)
    params = init_toy_params(net, 5, 3)
    x, _, objects = random_scene(rng, size, size)
    _, cache = _toy_forward_cached(x, one_hot(objects, 3), net, params)
    inputs = [h[:, ::2, ::2] for h, _ in cache["dec"][1:]]
    return cache, inputs + [cache["head_in"]]


def test_concat_condition_channel_order():
    net = small_net()
    cache, outputs = decoder_stages(net)
    k = net.num_stages
    for i, out in enumerate(outputs, start=1):
        _, z = cache["dec"][i - 1]
        own = z.shape[0]
        assert own == net.decoder_channels[i - 1]
        assert out.shape[0] == own + net.embedding.channel_sizes[k - i]
        assert np.array_equal(out[:own], np.maximum(z, 0.0))
        assert np.array_equal(out[own:], cache["pyramid"][k - i])


def test_concat_condition_off_is_identity():
    net = small_net(conditioning="off")
    cache, outputs = decoder_stages(net)
    assert cache["pyramid"] == []
    for (_, z), out in zip(cache["dec"], outputs):
        assert out.shape[0] == z.shape[0]
        assert np.array_equal(out, np.maximum(z, 0.0))


def test_concat_condition_wiring_over_all_stages():
    # stage i (1 = deepest) must pick up pyramid level k + 1 - i, which is the
    # only level at its resolution
    k = 3
    net = ToyNetConfig(num_stages=k, encoder_channels=(4, 4, 4), decoder_channels=(3, 3, 3),
                       embedding=EmbeddingConfig.toy(k))
    cache, outputs = decoder_stages(net, size=16)
    for stage, out in enumerate(outputs, start=1):
        level = cache["pyramid"][k - stage]
        assert out.shape == (3 + level.shape[0], 16 >> (k + 1 - stage), 16 >> (k + 1 - stage))
        assert np.array_equal(out[3:], level)


def test_concat_condition_single_mode():
    net = small_net(conditioning="single")
    _, (deep, shallow) = decoder_stages(net)
    assert deep.shape[0] == net.decoder_channels[0] + net.embedding.channel_sizes[1]
    assert shallow.shape[0] == net.decoder_channels[1]


def test_toy_forward_output_is_probability_map():
    rng = np.random.default_rng(5)
    net = small_net()
    params = init_toy_params(net, 5, 3)
    x, parts, objects = random_scene(rng)
    out = toy_forward(x, one_hot(objects, 3), net, params)
    assert out.num_classes == 5
    assert np.abs(out.probs.sum(axis=2) - 1.0).max() < 1e-6


def test_toy_forward_rejects_bad_shapes():
    net = small_net()
    params = init_toy_params(net, 5, 3)
    with pytest.raises(DomainError, match="stage"):
        toy_forward(np.zeros((3, 10, 10)), ProbMap(np.ones((10, 10, 1))), net, params)
    with pytest.raises(DomainError):
        toy_forward(np.zeros((3, 8, 8)), ProbMap(np.ones((4, 4, 1))), net, params)


def test_toy_forward_head_permutation_equivariance():
    rng = np.random.default_rng(6)
    net = small_net()
    params = init_toy_params(net, 5, 3)
    x, parts, objects = random_scene(rng)
    obj = one_hot(objects, 3)
    base = toy_forward(x, obj, net, params).probs
    perm = np.array([3, 0, 4, 1, 2])
    permuted_params = dict(params)
    permuted_params["head.w"] = params["head.w"][perm]
    permuted_params["head.b"] = params["head.b"][perm]
    out = toy_forward(x, obj, net, permuted_params).probs
    # equal up to reassociation of the softmax denominator sum
    assert np.abs(out - base[:, :, perm]).max() < 1e-14


def test_conditioning_off_ignores_object_input():
    rng = np.random.default_rng(7)
    net = small_net(conditioning="off")
    params = init_toy_params(net, 5, 3)
    x, parts, objects = random_scene(rng)
    a = toy_forward(x, one_hot(objects, 3), net, params).probs
    noise = ProbMap(np.full((8, 8, 3), 1.0 / 3.0))
    b = toy_forward(x, noise, net, params).probs
    assert np.array_equal(a, b)


@pytest.mark.parametrize("conditioning", ["multi", "single", "off"])
def test_full_network_gradient_matches_directional_derivative(conditioning):
    rng = np.random.default_rng(8)
    net = small_net(conditioning=conditioning)
    params = init_toy_params(net, 5, 3)
    x, parts, objects = random_scene(rng)
    obj = one_hot(objects, 3)
    cfg = AdjacencyConfig(soft_mode="smooth_max", beta=20.0)
    weights = LossWeights()

    def loss_at(p):
        probs, _ = _toy_forward_cached(x, obj, net, p)
        report, _ = total_loss(ProbMap(np.moveaxis(probs, 0, 2)), parts, objects,
                               MAPPING, cfg, weights)
        return report.total

    probs, cache = _toy_forward_cached(x, obj, net, params)
    report, grad_probs = total_loss(ProbMap(np.moveaxis(probs, 0, 2)), parts, objects,
                                    MAPPING, cfg, weights)
    grads = toy_backward(cache, np.moveaxis(grad_probs, 2, 0))

    h = 1e-5
    for trial in range(3):
        direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        analytic = sum(float((grads[k] * d).sum()) for k, d in direction.items() if k in grads)
        plus = {k: v + h * direction[k] for k, v in params.items()}
        minus = {k: v - h * direction[k] for k, v in params.items()}
        fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
        assert rel_err(analytic, fd) < 1e-3


def test_softmax_channels_is_stable():
    logits = np.array([[[1000.0]], [[1000.0]]])
    probs = softmax_channels(logits)
    assert np.allclose(probs, 0.5)


def test_train_lr_zero_keeps_params_and_trace_flat():
    rng = np.random.default_rng(9)
    net = small_net()
    scenes = [random_scene(rng)[0:3] for _ in range(2)]
    scenes = [(x, p, o) for x, p, o in scenes]
    cfg = AdjacencyConfig(soft_mode="smooth_max")
    params0 = init_toy_params(net, 5, 3, seed=11)
    params, trace = train_toy(scenes, MAPPING, net, LossWeights(), cfg,
                              steps=3, lr=0.0, seed=11)
    for name in params:
        assert np.array_equal(params[name], params0[name])
    assert trace[0] == trace[1] == trace[2]


def test_train_is_deterministic_given_seed():
    rng = np.random.default_rng(10)
    net = small_net()
    scenes = [random_scene(rng) for _ in range(2)]
    cfg = AdjacencyConfig(soft_mode="smooth_max")
    run1 = train_toy(scenes, MAPPING, net, LossWeights(), cfg, steps=3, lr=0.05, seed=5)
    run2 = train_toy(scenes, MAPPING, net, LossWeights(), cfg, steps=3, lr=0.05, seed=5)
    assert run1[1] == run2[1]
    for name in run1[0]:
        assert np.array_equal(run1[0][name], run2[0][name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic precedes the abort
def test_train_divergence_aborts_with_step_index():
    rng = np.random.default_rng(11)
    net = small_net()
    scenes = [random_scene(rng)]
    cfg = AdjacencyConfig(soft_mode="smooth_max")
    with pytest.raises(NumericError, match="step"):
        train_toy(scenes, MAPPING, net, LossWeights(), cfg, steps=8, lr=1e150, seed=2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_loss_weights_and_learning_rate_must_be_finite_and_nonnegative(value):
    for name in ("lambda1", "lambda2"):
        with pytest.raises(DomainError, match=f"{name} must be finite and >= 0"):
            LossWeights(**{name: value})
    scenes = [random_scene(np.random.default_rng(11))]
    with pytest.raises(DomainError, match="learning rate must be finite and >= 0"):
        train_toy(scenes, MAPPING, small_net(), LossWeights(), AdjacencyConfig(), steps=1,
                  lr=value)


def test_config_validation():
    with pytest.raises(DomainError):
        ToyNetConfig(num_stages=0)
    with pytest.raises(DomainError):
        ToyNetConfig(num_stages=3, encoder_channels=(4, 4), decoder_channels=(4, 4, 4))
    with pytest.raises(DomainError):
        ToyNetConfig(num_stages=3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 4),
                     embedding=EmbeddingConfig.toy(2))
    # but a shallow embedding is fine when conditioning is off
    ToyNetConfig(num_stages=3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 4),
                 embedding=EmbeddingConfig.toy(2), conditioning="off")
    with pytest.raises(DomainError):
        EmbeddingConfig(kernel_sizes=(4,), channel_sizes=(8,))  # even kernel


@pytest.mark.parametrize("conditioning", ["multi", "single", "off"])
@pytest.mark.parametrize("extra", [0, 1], ids=["depth-equal", "depth-greater"])
@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_parameters_are_exactly_the_layers_the_backward_reaches(stages, extra, conditioning):
    depth = stages + extra
    net = ToyNetConfig(num_stages=stages, encoder_channels=(3,) * stages,
                       decoder_channels=(3,) * stages,
                       embedding=EmbeddingConfig((5, 3, 3, 3, 3)[:depth], (4, 4, 6, 6, 8)[:depth]),
                       conditioning=conditioning)
    params = init_toy_params(net, 5, 3)
    x, _, objects = random_scene(np.random.default_rng(13), 16, 16)
    probs, cache = _toy_forward_cached(x, one_hot(objects, 3), net, params)
    grads = toy_backward(cache, np.ones_like(probs))
    assert grads.keys() == params.keys()
    assert all(grads[name].shape == p.shape for name, p in params.items())


def test_three_stages_train_on_the_default_embedding():
    net = ToyNetConfig(num_stages=3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 4))
    scenes = [random_scene(np.random.default_rng(14))]
    params, trace = train_toy(scenes, MAPPING, net, LossWeights(), AdjacencyConfig(),
                              steps=1, lr=0.1)
    assert len(trace) == 1 and np.isfinite(trace[0].total)
    assert sorted(name for name in params if name.startswith("emb")) == [
        f"emb{i}.{kind}" for i in (1, 2, 3) for kind in ("b", "w")]
    for i in (1, 2, 3):
        assert params[f"emb{i}.w"].shape[0] == EmbeddingConfig().channel_sizes[i - 1]
