"""Toy-scale tensor engine: object-conditioned part decoder with full backprop.

Tensors are plain numpy arrays, channels first: (C, H, W) for one scene and
(C, N, H, W) for a block of N scenes of equal size. The network is an
autoencoder for part probabilities whose decoder is conditioned on
object-level predictions: the object map is pushed through the first ``k``
layers of a small convolutional embedding cascade, and each decoder stage
concatenates the embedding level at its own resolution (deepest level first),

    stage i output = relu(conv(stage input))  ++  pyramid[k - i]

with ``k`` encoder stages mirrored by ``k`` decoder stages and a final 1x1
classifier + per-pixel softmax + upsample. The encoder and the embedding are
chains of relu(stride-2 conv) layers, both run by one forward/backward pair,
so embedding level k - i has decoder stage i's size; the network's parameters
are exactly the layers its forward runs.

Conditioning modes: ``multi`` concatenates at every decoder stage, ``single``
only at the deepest stage, ``off`` not at all (the object input is then
irrelevant to the output).

Everything here is deliberately small and explicit: convolutions are SAME
zero-padded cross-correlations, each one matrix product of the weights with
the im2col columns of a whole block, gradients are hand-derived, and training
is plain gradient descent with a polynomial learning-rate decay of power
0.9. The single-scene entry points (``conv2d_forward``, ``toy_forward``,
``toy_backward``) run the same code on (C, H, W); ``train_toy`` and
``mean_gm_loss`` run their scenes in blocks, and a scene's probabilities do
not depend on its block. Training and held-out scoring take the loss terms of
each (C, N, H, W) block as it comes out of the network, into one gradient
buffer per block; a scene's loss and gradient do not depend on its block.
Given a seed, runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyConfig, _graph_matching
from .core import PartsToObjectsMapping, ProbMap, one_hot
from .errors import DomainError, NumericError
from .losses import LossReport, LossWeights, _block_loss, reference_graph
from .losses import total_loss  # noqa: F401  (bench/run.py --trace 1 patches this name here)
from .rng import Xorshift64Star

CONDITIONING_MODES = ("multi", "single", "off")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
# The kernels work on (C, ..., H, W) tensors: one scene is (C, H, W), a block
# of N scenes is (C, N, H, W). Forward sums run over channels within a pixel,
# so a scene's values do not depend on the block it is in; the backward sums
# weight and bias gradients over the whole block.

def _padded(x: np.ndarray, kh: int, kw: int, stride: int):
    """``x`` zero-padded for a SAME conv, with the output height and width."""
    h, w = x.shape[-2:]
    oh, ow = -(-h // stride), -(-w // stride)
    pad_h, pad_w = max((oh - 1) * stride + kh - h, 0), max((ow - 1) * stride + kw - w, 0)
    if not pad_h and not pad_w:
        return x, oh, ow
    xp = np.zeros(x.shape[:-2] + (h + pad_h, w + pad_w), dtype=np.float64)
    xp[..., pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
    return xp, oh, ow


def _check_conv(x: np.ndarray, weights: np.ndarray, bias, stride: int) -> None:
    if weights.ndim != 4 or x.ndim < 3 or x.shape[0] != weights.shape[1]:
        raise DomainError(f"conv expects (F, C, kh, kw) weights and a (C, ..., H, W) input, "
                          f"got {weights.shape} and {x.shape}")
    if bias is not None and np.shape(bias) != weights.shape[:1]:
        raise DomainError(f"conv bias must have shape {weights.shape[:1]}, got {np.shape(bias)}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")


def _columns(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """The (C*kh*kw, ...*oh*ow) im2col matrix of a padded (C, ..., Hp, Wp) tensor.

    Row (c, ki, kj) holds what tap (ki, kj) of channel c meets at each output pixel.
    """
    if kh == kw == stride == 1:
        return xp.reshape(xp.shape[0], -1)
    cols = np.empty((xp.shape[0], kh, kw) + xp.shape[1:-2] + (oh, ow), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xp[..., ki : ki + stride * oh : stride,
                                 kj : kj + stride * ow : stride]
    return cols.reshape(xp.shape[0] * kh * kw, -1)


def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
                  stride: int = 1) -> np.ndarray:
    """SAME-padded cross-correlation of a (C, ..., H, W) tensor: one product with its columns."""
    _check_conv(x, weights, bias, stride)
    f, _, kh, kw = weights.shape
    xp, oh, ow = _padded(x, kh, kw, stride)
    out = weights.reshape(f, -1) @ _columns(xp, kh, kw, stride, oh, ow)
    out = out.reshape((f,) + x.shape[1:-2] + (oh, ow))
    if bias is not None:
        out += bias.reshape((f,) + (1,) * (x.ndim - 1))
    return out


def _conv_backward(x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray,
                   stride: int = 1, input_grad: bool = True):
    """Gradients of :func:`_conv_forward`: (input grad or None, weight grad, bias grad).

    The weight gradient is one product with the rebuilt columns. The input
    gradient of a stride-1 conv with odd kernels is a conv of the output
    gradient; otherwise each kernel row's taps are added back into the
    padded input (col2im).
    """
    _check_conv(x, weights, None, stride)
    f, cin, kh, kw = weights.shape
    xp, oh, ow = _padded(x, kh, kw, stride)
    if grad_out.shape != (f,) + x.shape[1:-2] + (oh, ow):
        raise DomainError(f"grad shape {grad_out.shape} does not match output "
                          f"{(f,) + x.shape[1:-2] + (oh, ow)}")
    g = grad_out.reshape(f, -1)
    grad_w = (g @ _columns(xp, kh, kw, stride, oh, ow).T).reshape(weights.shape)
    grad_b = g.sum(axis=1)
    if not input_grad:
        return None, grad_w, grad_b
    if stride == 1 and kh % 2 and kw % 2:  # odd kernels pad both sides alike
        flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv_forward(grad_out, flipped, None), grad_w, grad_b
    grad_xp = np.zeros_like(xp)
    for ki in range(kh):
        taps = (weights[:, :, ki].reshape(f, -1).T @ g).reshape((cin, kw) + grad_out.shape[1:])
        for kj in range(kw):
            grad_xp[..., ki : ki + stride * oh : stride,
                    kj : kj + stride * ow : stride] += taps[:, kj]
    h, w = x.shape[-2:]
    top, left = (xp.shape[-2] - h) // 2, (xp.shape[-1] - w) // 2
    return grad_xp[..., top : top + h, left : left + w], grad_w, grad_b


def _check_single(x: np.ndarray) -> None:
    if x.ndim != 3:
        raise DomainError(f"conv expects a (C, H, W) tensor, got shape {x.shape}")


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None,
                   stride: int = 1) -> np.ndarray:
    """SAME-padded cross-correlation of a (C, H, W) tensor with (F, C, kh, kw) weights."""
    _check_single(x)
    return _conv_forward(x, weights, bias, stride)


def conv2d_backward(x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray,
                    stride: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d_forward`: (input grad, weight grad, bias grad)."""
    _check_single(x)
    return _conv_backward(x, weights, grad_out, stride)


def upsample2(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor x2 upsampling of a (C, ..., H, W) tensor."""
    return np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)


def upsample2_backward(grad_out: np.ndarray) -> np.ndarray:
    out = grad_out[..., 0::2, 0::2] + grad_out[..., 1::2, 0::2]
    out += grad_out[..., 0::2, 1::2]
    out += grad_out[..., 1::2, 1::2]
    return out


def softmax_channels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the channel axis of a (C, ..., H, W) tensor."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def softmax_backward(grad_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    inner = (grad_probs * probs).sum(axis=0, keepdims=True)
    return probs * (grad_probs - inner)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingConfig:
    """Kernel sizes and channel counts of the object embedding's relu(stride-2 conv) layers."""

    kernel_sizes: tuple[int, ...] = (7, 5, 3, 3)
    channel_sizes: tuple[int, ...] = (8, 16, 32, 64)

    def __post_init__(self):
        n = len(self.kernel_sizes)
        if n < 1 or len(self.channel_sizes) != n:
            raise DomainError("embedding layer plans must be nonempty and equal length")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
            raise DomainError(f"kernel sizes must be odd, got {self.kernel_sizes}")
        if min(self.channel_sizes) < 1:
            raise DomainError(f"embedding channel counts must be >= 1, got {self.channel_sizes}")
        for name in ("kernel_sizes", "channel_sizes"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))

    @property
    def num_layers(self) -> int:
        return len(self.kernel_sizes)

    @classmethod
    def toy(cls, num_layers: int = 4) -> "EmbeddingConfig":
        """The first ``num_layers`` layers of the default cascade."""
        full = cls()
        if not 1 <= num_layers <= full.num_layers:
            raise DomainError(
                f"toy embedding supports 1..{full.num_layers} layers, got {num_layers}")
        return cls(full.kernel_sizes[:num_layers], full.channel_sizes[:num_layers])


@dataclass(frozen=True)
class ToyNetConfig:
    """Shape of the toy network, which runs the first ``num_stages`` layers of ``embedding``."""

    num_stages: int = 2
    encoder_channels: tuple[int, ...] = (8, 16)
    decoder_channels: tuple[int, ...] = (16, 8)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    conditioning: str = "multi"
    seed: int = 0

    def __post_init__(self):
        if self.num_stages < 1:
            raise DomainError(f"need at least one stage, got {self.num_stages}")
        for part, plan in (("encoder", self.encoder_channels), ("decoder", self.decoder_channels)):
            if len(plan) != self.num_stages:
                raise DomainError(
                    f"{part} plan has {len(plan)} entries for {self.num_stages} stages")
            if min(plan) < 1:
                raise DomainError(f"{part} channel counts must be >= 1, got {plan}")
        if self.conditioning not in CONDITIONING_MODES:
            raise DomainError(
                f"conditioning must be one of {CONDITIONING_MODES}, got {self.conditioning!r}"
            )
        if self.conditioning != "off" and self.embedding.num_layers < self.num_stages:
            raise DomainError(
                f"conditioning needs >= {self.num_stages} embedding layers, "
                f"got {self.embedding.num_layers}"
            )
        object.__setattr__(self, "encoder_channels", tuple(int(c) for c in self.encoder_channels))
        object.__setattr__(self, "decoder_channels", tuple(int(c) for c in self.decoder_channels))

    def stage_conditioned(self, stage: int) -> bool:
        """Whether decoder ``stage`` (1-based, 1 = deepest) receives a concatenation."""
        if self.conditioning == "multi":
            return True
        if self.conditioning == "single":
            return stage == 1
        return False


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _conv_shapes(net: ToyNetConfig, num_parts: int, num_objects: int):
    """Ordered (name, (F, C, kh, kw)) for every conv the forward runs.

    The encoder has 3x3 layers; the embedding, unless conditioning is off,
    runs its first ``num_stages`` layers.
    """
    k, emb = net.num_stages, net.embedding
    chains = [("enc", 3, (3,) * k, net.encoder_channels)]
    if net.conditioning != "off":
        chains.append(("emb", num_objects, emb.kernel_sizes[:k], emb.channel_sizes[:k]))
    shapes: list[tuple[str, tuple[int, int, int, int]]] = []
    for prefix, cin, kernels, channels in chains:
        for i, (size, cout) in enumerate(zip(kernels, channels), start=1):
            shapes.append((f"{prefix}{i}", (cout, cin, size, size)))
            cin = cout
    cin = net.encoder_channels[-1]
    for i in range(1, k + 1):
        shapes.append((f"dec{i}", (net.decoder_channels[i - 1], cin, 3, 3)))
        cin = net.decoder_channels[i - 1]
        if net.stage_conditioned(i):
            cin += emb.channel_sizes[k - i]
    shapes.append(("head", (num_parts, cin, 1, 1)))
    return shapes


def init_toy_params(net: ToyNetConfig, num_parts: int, num_objects: int,
                    seed: int | None = None) -> dict[str, np.ndarray]:
    """Seeded weight initialization: uniform in +-1/sqrt(fan_in), zero biases."""
    shapes = _conv_shapes(net, num_parts, num_objects)
    sizes = [int(np.prod(shape)) for _, shape in shapes]
    u = Xorshift64Star(net.seed if seed is None else seed).uniform_array(sum(sizes))
    params: dict[str, np.ndarray] = {}
    for (name, shape), draws in zip(shapes, np.split(u, np.cumsum(sizes)[:-1])):
        bound = 1.0 / np.sqrt(shape[1] * shape[2] * shape[3])
        # scaled as uniform(-bound, bound) scales its draw
        params[f"{name}.w"] = (-bound + (bound - -bound) * draws).reshape(shape)
        params[f"{name}.b"] = np.zeros(shape[0], dtype=np.float64)
    return params


# ---------------------------------------------------------------------------
# Conv-relu chains
# ---------------------------------------------------------------------------

def as_tensor(prob_map: ProbMap) -> np.ndarray:
    """(H, W, C) probability map as a (C, H, W) tensor."""
    return np.ascontiguousarray(np.moveaxis(prob_map.probs, 2, 0))


def _chain_forward(x: np.ndarray, prefix: str, n: int, params: dict[str, np.ndarray]):
    """Run layers ``{prefix}1 .. {prefix}n``, each relu(stride-2 conv), on a (C, ..., H, W) tensor.

    Returns the (input, activation) of every layer, which is what
    :func:`_chain_backward` needs. Each relu output is positive exactly where
    its pre-activation is, and a layer's activation is the next one's input.
    """
    layers = []
    for i in range(1, n + 1):
        out = np.maximum(_conv_forward(x, params[f"{prefix}{i}.w"], params[f"{prefix}{i}.b"], 2),
                         0.0)
        layers.append((x, out))
        x = out
    return layers


def _chain_backward(layers: list, prefix: str, params: dict[str, np.ndarray],
                    grads: dict[str, np.ndarray], g: np.ndarray,
                    joins: dict[int, np.ndarray] | None = None) -> None:
    """Parameter gradients of a :func:`_chain_forward` chain, written into ``grads``.

    ``g`` is the gradient at the last activation; ``joins`` maps a 0-based
    layer index to a gradient that joins at that layer's activation, as a
    concatenated pyramid level's does. The first layer's input is data and
    gets no gradient. Consumes ``layers``.
    """
    for i in range(len(layers), 0, -1):
        h_in, out = layers.pop()
        if joins and i - 1 in joins:
            g = g + joins[i - 1]
        g, grads[f"{prefix}{i}.w"], grads[f"{prefix}{i}.b"] = _conv_backward(
            h_in, params[f"{prefix}{i}.w"], g * (out > 0.0), 2, input_grad=i > 1)


# ---------------------------------------------------------------------------
# Full network
# ---------------------------------------------------------------------------

def _check_input(x: np.ndarray, object_probs: ProbMap, net: ToyNetConfig) -> None:
    if x.ndim != 3 or x.shape[0] != 3:
        raise DomainError(f"input image must be (3, H, W), got shape {x.shape}")
    _, h, w = x.shape
    if (object_probs.height, object_probs.width) != (h, w):
        raise DomainError(f"object probabilities are {object_probs.height}x"
                          f"{object_probs.width} but the image is {h}x{w}")
    scale = 2 ** net.num_stages
    if h % scale or w % scale:
        raise DomainError(f"encoder stage {net.num_stages}: input {h}x{w} is not divisible "
                          f"by {scale}")


def _forward(x: np.ndarray, objects: np.ndarray, net: ToyNetConfig,
             params: dict[str, np.ndarray]):
    """Probabilities and backward cache for (3, ..., H, W) images and object maps.

    The encoder and the embedding are :func:`_chain_forward` chains; pyramid
    level i (0-based) is the activation of embedding layer i + 1, at decoder
    stage k - i's size as H and W divide by 2^k (:func:`_check_input`). Each
    cached decoder entry keeps the relu output, as the chains do. The 1x1 head
    and the softmax run before the last upsample, with which both commute.
    """
    k = net.num_stages
    cache: dict = {"net": net, "params": params}
    cache["enc"] = _chain_forward(x, "enc", k, params)
    h = cache["enc"][-1][1]  # the last encoder activation
    if net.conditioning != "off":
        cache["emb"] = _chain_forward(objects, "emb", k, params)
    pyramid = cache["pyramid"] = [out for _, out in cache.get("emb", [])]

    dec_cache = cache["dec"] = []
    for i in range(1, k + 1):
        if i > 1:
            h = upsample2(h)
        out = np.maximum(_conv_forward(h, params[f"dec{i}.w"], params[f"dec{i}.b"]), 0.0)
        dec_cache.append((h, out))
        h = out
        if net.stage_conditioned(i):
            h = np.concatenate([out, pyramid[k - i]], axis=0)

    probs = softmax_channels(_conv_forward(h, params["head.w"], params["head.b"]))
    cache["head_in"] = h
    cache["probs"] = probs
    return upsample2(probs), cache


def _toy_forward_cached(x: np.ndarray, object_probs: ProbMap, net: ToyNetConfig,
                        params: dict[str, np.ndarray]):
    _check_input(x, object_probs, net)
    return _forward(x, as_tensor(object_probs), net, params)


def toy_forward(x: np.ndarray, object_probs: ProbMap, net: ToyNetConfig,
                params: dict[str, np.ndarray]) -> ProbMap:
    """Run the toy network; the result is a valid per-pixel probability map."""
    probs, _ = _toy_forward_cached(x, object_probs, net, params)
    return ProbMap(np.moveaxis(probs, 0, 2))


def toy_backward(cache: dict, grad_probs: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients of the toy network given d(loss)/d(probabilities).

    ``grad_probs`` has the layout of the forward output: (C, H, W) for one
    scene, (C, N, H, W) for a block, whose gradients are summed over its
    scenes. The object input is treated as fixed, so no gradient flows past
    the first embedding layer, and none into the images. The backward
    consumes the cache: each layer's entry is released once used.
    """
    net: ToyNetConfig = cache["net"]
    params: dict[str, np.ndarray] = cache["params"]
    k = net.num_stages
    grads: dict[str, np.ndarray] = {}

    g = softmax_backward(upsample2_backward(grad_probs), cache.pop("probs"))
    g, grads["head.w"], grads["head.b"] = _conv_backward(cache.pop("head_in"),
                                                         params["head.w"], g)

    # gradients flowing into each pyramid level (0-based index) via concatenation
    pyramid_grads: dict[int, np.ndarray] = {}
    dec_cache = cache.pop("dec")
    for i in range(k, 0, -1):
        h_in, out = dec_cache.pop()
        if net.stage_conditioned(i):
            pyramid_grads[k - i] = g[out.shape[0]:]
            g = g[:out.shape[0]]
        g, grads[f"dec{i}.w"], grads[f"dec{i}.b"] = _conv_backward(h_in, params[f"dec{i}.w"],
                                                                   g * (out > 0.0))
        if i > 1:
            g = upsample2_backward(g)

    _chain_backward(cache.pop("enc"), "enc", params, grads, g)
    if "emb" in cache:
        # every mode but off conditions stage 1, which takes the deepest level
        _chain_backward(cache.pop("emb"), "emb", params, grads,
                        pyramid_grads.pop(k - 1), pyramid_grads)
    return grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# Scenes per block of the training forward and backward. A block runs each
# conv as one matrix product over all its scenes, but keeps every scene's
# activations live until its backward. On the 20-scene 32x32 set (2-core
# x86 VM, numpy 2.4, bench/run.py train_toy32, mean of two runs), blocks of
# 1, 2, 4, 5, 10 and 20 scenes took 60.5, 54.6, 50.0, 48.7, 50.0 and 51.6 ms
# per step at reference speed with peak RSS 44.3, 45.5, 47.5, 48.6, 53.4 and
# 63.6 MB. 4 keeps most of the gain within 7% of the memory of one scene.
_TRAIN_BLOCK = 4


def _training_blocks(scenes, mapping: PartsToObjectsMapping, net: ToyNetConfig,
                     adj_cfg: AdjacencyConfig):
    """Everything a training step reuses: per block, its stacked inputs and per-scene targets.

    Consecutive scenes of equal size share a block of at most ``_TRAIN_BLOCK``
    scenes. Each block is (images (3, N, H, W), object one-hots (K, N, H, W),
    [(parts, objects, normalized reference graph)] per scene).
    """
    groups: list[list] = []
    for scene in scenes:
        if (not groups or len(groups[-1]) == _TRAIN_BLOCK
                or groups[-1][0][0].shape != scene[0].shape):
            groups.append([])
        groups[-1].append(scene)
    blocks = []
    for group in groups:
        images, objs, targets = [], [], []
        for rgb, parts, objects in group:
            obj_probs = one_hot(objects, mapping.num_objects)
            _check_input(rgb, obj_probs, net)
            images.append(rgb)
            objs.append(as_tensor(obj_probs))
            targets.append((parts, objects, reference_graph(parts, mapping.num_parts, adj_cfg)))
        blocks.append((np.stack(images, axis=1), np.stack(objs, axis=1), targets))
    return blocks


def _train_step(blocks, mapping: PartsToObjectsMapping, net: ToyNetConfig,
                params: dict[str, np.ndarray], weights: LossWeights,
                adj_cfg: AdjacencyConfig, t: int):
    """Per-term loss sums and parameter gradients summed over every scene, at ``params``."""
    sums = [0.0, 0.0, 0.0]
    grad_acc = {name: np.zeros_like(p) for name, p in params.items()}
    for images, objs, targets in blocks:
        probs, cache = _forward(images, objs, net, params)
        if not np.isfinite(probs).all():
            raise NumericError(f"non-finite activations at step {t}")
        values, grad_probs = _block_loss(probs, targets, mapping, adj_cfg, weights)
        for k, value in enumerate(values):
            sums[k] += value
        del probs
        for name, g in toy_backward(cache, grad_probs).items():
            grad_acc[name] += g
    return sums, grad_acc


def _check_schedule(steps: int, lr: float) -> None:
    """The step count and learning rate :func:`train_toy` accepts."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if not (np.isfinite(lr) and lr >= 0.0):
        raise DomainError(f"learning rate must be finite and >= 0, got {lr}")


def train_toy(scenes, mapping: PartsToObjectsMapping, net: ToyNetConfig,
              weights: LossWeights, adj_cfg: AdjacencyConfig, steps: int, lr: float,
              seed: int | None = None):
    """Gradient descent on the total loss over a list of (rgb, parts, objects) scenes.

    Each step takes the mean loss and gradient over all scenes, then updates
    with the polynomially decayed learning rate lr * (1 - t/steps)**0.9.
    Returns (params, trace) where trace[t] is the batch loss before update t.
    A non-finite loss aborts with the offending step index.

    The scenes run through the network in blocks of consecutive scenes of
    equal size; stacking them, their object one-hots and their reference
    graphs is done once, before the first step.
    """
    _check_schedule(steps, lr)
    if not scenes:
        raise DomainError("need at least one training scene")
    params = init_toy_params(net, mapping.num_parts, mapping.num_objects, seed=seed)
    blocks = _training_blocks(scenes, mapping, net, adj_cfg)
    n = len(scenes)
    trace: list[LossReport] = []
    for t in range(steps):
        sums, grad_acc = _train_step(blocks, mapping, net, params, weights, adj_cfg, t)
        report = LossReport.combine(sums[0] / n, sums[1] / n, sums[2] / n, weights)
        if not np.isfinite(report.total):
            raise NumericError(f"non-finite loss at step {t}")
        trace.append(report)
        lr_t = lr * (1.0 - t / steps) ** 0.9
        for name in params:
            params[name] = params[name] - (lr_t / n) * grad_acc[name]
    return params, trace


def mean_gm_loss(scenes, mapping: PartsToObjectsMapping, net: ToyNetConfig,
                 params: dict[str, np.ndarray], adj_cfg: AdjacencyConfig) -> float:
    """Mean graph-matching loss of the network's predictions over held-out scenes.

    The scenes run in the blocks that training uses, each with its reference
    graph built once.
    """
    if not scenes:
        raise DomainError("need at least one held-out scene")
    losses = []
    for images, objs, targets in _training_blocks(scenes, mapping, net, adj_cfg):
        probs, _ = _forward(images, objs, net, params)
        if not np.isfinite(probs).all():
            raise NumericError("non-finite activations on held-out scenes")
        losses.extend(_graph_matching(probs, adj_cfg, [ref for _, _, ref in targets])[1])
    return float(np.cumsum(losses)[-1]) / len(scenes)  # summed in scene order
