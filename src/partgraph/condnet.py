"""Toy-scale tensor engine: object-conditioned part decoder with full backprop.

Tensors are plain numpy arrays, channels first: (C, H, W) for one scene and
(C, N, H, W) for a block of N scenes of equal size. The network is an
autoencoder for part probabilities whose decoder is conditioned on
object-level predictions: the object map is pushed through a small
convolutional embedding cascade, and each decoder stage concatenates the
embedding level at its own resolution (deepest level first),

    stage i output = relu(conv(stage input))  ++  pyramid[levels - i]

with ``k`` stride-2 encoder stages mirrored by ``k`` decoder stages and a
final 1x1 classifier + per-pixel softmax + upsample.

Conditioning modes: ``multi`` concatenates at every decoder stage, ``single``
only at the deepest stage, ``off`` not at all (the object input is then
irrelevant to the output).

Everything here is deliberately small and explicit: convolutions are SAME
zero-padded cross-correlations evaluated one kernel tap at a time, each tap
one tensordot over a whole block, gradients are hand-derived, and training
is plain gradient descent with a polynomial learning-rate decay of power
0.9. The single-scene entry points (``conv2d_forward``, ``toy_forward``,
``toy_backward``) run the same code on (C, H, W); ``train_toy`` runs its
scenes in blocks, and a scene's probabilities do not depend on its block.
Given a seed, runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyConfig, gm_value
from .core import PartsToObjectsMapping, ProbMap, one_hot
from .errors import DomainError, NumericError
from .losses import LossReport, LossWeights, reference_graph, total_loss
from .rng import Xorshift64Star

CONDITIONING_MODES = ("multi", "single", "off")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
# The kernels work on (C, ..., H, W) tensors: one scene is (C, H, W), a block
# of N scenes is (C, N, H, W). Forward sums run over channels within a pixel,
# so a scene's values do not depend on the block it is in; the backward sums
# weight and bias gradients over the whole block.

def _same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)
    pad = max((out - 1) * stride + kernel - size, 0)
    return out, pad


def _padded(x: np.ndarray, kh: int, kw: int, stride: int):
    """``x`` zero-padded for a SAME conv, with the output height and width."""
    h, w = x.shape[-2:]
    oh, pad_h = _same_padding(h, kh, stride)
    ow, pad_w = _same_padding(w, kw, stride)
    if not pad_h and not pad_w:
        return x, oh, ow
    xp = np.zeros(x.shape[:-2] + (h + pad_h, w + pad_w), dtype=np.float64)
    xp[..., pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
    return xp, oh, ow


def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
                  stride: int) -> np.ndarray:
    """SAME-padded cross-correlation of a (C, ..., H, W) tensor, one tensordot per tap."""
    f, cin, kh, kw = weights.shape
    if x.shape[0] != cin:
        raise DomainError(f"conv expects {cin} input channels, got {x.shape[0]}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    xp, oh, ow = _padded(x, kh, kw, stride)
    out = np.zeros((f,) + x.shape[1:-2] + (oh, ow), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            win = xp[..., ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            out += np.tensordot(weights[:, :, ki, kj], win, axes=([1], [0]))
    if bias is not None:
        out += bias.reshape((f,) + (1,) * (x.ndim - 1))
    return out


def _conv_backward(x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray, stride: int,
                   input_grad: bool = True):
    """Gradients of :func:`_conv_forward`: (input grad or None, weight grad, bias grad).

    Weight and bias gradients are summed over every axis but the channels,
    so over all scenes of a block.
    """
    f, _, kh, kw = weights.shape
    xp, oh, ow = _padded(x, kh, kw, stride)
    if grad_out.shape != (f,) + x.shape[1:-2] + (oh, ow):
        raise DomainError(f"grad shape {grad_out.shape} does not match output "
                          f"{(f,) + x.shape[1:-2] + (oh, ow)}")
    rest = list(range(1, x.ndim))
    grad_w = np.zeros_like(weights)
    grad_xp = np.zeros_like(xp) if input_grad else None
    for ki in range(kh):
        for kj in range(kw):
            rows = slice(ki, ki + stride * oh, stride)
            cols = slice(kj, kj + stride * ow, stride)
            grad_w[:, :, ki, kj] = np.tensordot(grad_out, xp[..., rows, cols], axes=(rest, rest))
            if input_grad:
                grad_xp[..., rows, cols] += np.tensordot(weights[:, :, ki, kj], grad_out,
                                                         axes=([0], [0]))
    grad_b = grad_out.sum(axis=tuple(rest))
    if not input_grad:
        return None, grad_w, grad_b
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
    *lead, h2, w2 = grad_out.shape
    return grad_out.reshape(*lead, h2 // 2, 2, w2 // 2, 2).sum(axis=(-3, -1))


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
    """Layer plan of the object-embedding cascade (one conv + relu per layer)."""

    kernel_sizes: tuple[int, ...] = (7, 5, 3, 3)
    strides: tuple[int, ...] = (2, 2, 2, 2)
    channel_sizes: tuple[int, ...] = (8, 16, 32, 64)

    def __post_init__(self):
        n = len(self.kernel_sizes)
        if n < 1 or len(self.strides) != n or len(self.channel_sizes) != n:
            raise DomainError("embedding layer plans must be nonempty and equal length")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
            raise DomainError(f"kernel sizes must be odd, got {self.kernel_sizes}")
        if any(s < 1 for s in self.strides):
            raise DomainError(f"strides must be >= 1, got {self.strides}")
        object.__setattr__(self, "kernel_sizes", tuple(int(k) for k in self.kernel_sizes))
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        object.__setattr__(self, "channel_sizes", tuple(int(c) for c in self.channel_sizes))

    @property
    def num_layers(self) -> int:
        return len(self.kernel_sizes)

    @classmethod
    def reference(cls) -> "EmbeddingConfig":
        """The full-scale plan: kernels 7,5,3,3, stride 2, channels 128..1024."""
        return cls((7, 5, 3, 3), (2, 2, 2, 2), (128, 256, 512, 1024))

    @classmethod
    def toy(cls, num_layers: int = 4) -> "EmbeddingConfig":
        """Desk-scale plan with the same kernel cascade and small channel counts."""
        if not 1 <= num_layers <= 4:
            raise DomainError(f"toy embedding supports 1..4 layers, got {num_layers}")
        return cls((7, 5, 3, 3)[:num_layers], (2,) * num_layers, (8, 16, 32, 64)[:num_layers])


@dataclass(frozen=True)
class ToyNetConfig:
    """Shape of the toy part-segmentation network."""

    num_stages: int = 2
    encoder_channels: tuple[int, ...] = (8, 16)
    decoder_channels: tuple[int, ...] = (16, 8)
    embedding: EmbeddingConfig = field(default_factory=lambda: EmbeddingConfig.toy(2))
    conditioning: str = "multi"
    seed: int = 0

    def __post_init__(self):
        if self.num_stages < 1:
            raise DomainError(f"need at least one stage, got {self.num_stages}")
        if len(self.encoder_channels) != self.num_stages:
            raise DomainError(
                f"encoder plan has {len(self.encoder_channels)} entries for "
                f"{self.num_stages} stages"
            )
        if len(self.decoder_channels) != self.num_stages:
            raise DomainError(
                f"decoder plan has {len(self.decoder_channels)} entries for "
                f"{self.num_stages} stages"
            )
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
    """Ordered (name, (F, C, kh, kw), stride) for every conv in the network."""
    shapes: list[tuple[str, tuple[int, int, int, int], int]] = []
    k = net.num_stages
    cin = 3
    for i, cout in enumerate(net.encoder_channels, start=1):
        shapes.append((f"enc{i}", (cout, cin, 3, 3), 2))
        cin = cout
    emb = net.embedding
    if net.conditioning != "off":
        cin_e = num_objects
        for i in range(1, emb.num_layers + 1):
            shapes.append((f"emb{i}", (emb.channel_sizes[i - 1], cin_e,
                                       emb.kernel_sizes[i - 1], emb.kernel_sizes[i - 1]),
                           emb.strides[i - 1]))
            cin_e = emb.channel_sizes[i - 1]
    cin_d = net.encoder_channels[-1]
    for i in range(1, k + 1):
        shapes.append((f"dec{i}", (net.decoder_channels[i - 1], cin_d, 3, 3), 1))
        cin_d = net.decoder_channels[i - 1]
        if net.stage_conditioned(i):
            cin_d += emb.channel_sizes[k - i]
    shapes.append(("head", (num_parts, cin_d, 1, 1), 1))
    return shapes


def init_toy_params(net: ToyNetConfig, num_parts: int, num_objects: int,
                    seed: int | None = None) -> dict[str, np.ndarray]:
    """Seeded weight initialization: uniform in +-1/sqrt(fan_in), zero biases."""
    rng = Xorshift64Star(net.seed if seed is None else seed)
    params: dict[str, np.ndarray] = {}
    for name, shape, _stride in _conv_shapes(net, num_parts, num_objects):
        fan_in = shape[1] * shape[2] * shape[3]
        bound = 1.0 / np.sqrt(fan_in)
        flat = np.array([rng.uniform(-bound, bound) for _ in range(int(np.prod(shape)))])
        params[f"{name}.w"] = flat.reshape(shape)
        params[f"{name}.b"] = np.zeros(shape[0], dtype=np.float64)
    return params


# ---------------------------------------------------------------------------
# Embedding pyramid
# ---------------------------------------------------------------------------

def as_tensor(prob_map: ProbMap) -> np.ndarray:
    """(H, W, C) probability map as a (C, H, W) tensor."""
    return np.ascontiguousarray(np.moveaxis(prob_map.probs, 2, 0))


def _embed_forward(x: np.ndarray, cfg: EmbeddingConfig, params: dict[str, np.ndarray],
                   num_levels: int):
    """The first ``num_levels`` levels of the embedding pyramid of a (C, ..., H, W) tensor.

    Level i (1-based) is relu(conv(level i - 1)) with the kernel, stride and
    channel count of embedding layer i, so with stride 2 it sits at 1/2**i of
    the input resolution. Returns the levels and the per-layer (input,
    activation) pairs the backward pass needs.
    """
    levels = []
    cache = []
    h = x
    for i in range(1, num_levels + 1):
        out = np.maximum(_conv_forward(h, params[f"emb{i}.w"], params[f"emb{i}.b"],
                                       cfg.strides[i - 1]), 0.0)
        cache.append((h, out))
        levels.append(out)
        h = out
    return levels, cache


# ---------------------------------------------------------------------------
# Full network
# ---------------------------------------------------------------------------

def _check_input(x: np.ndarray, object_probs: ProbMap, net: ToyNetConfig) -> None:
    if x.ndim != 3 or x.shape[0] != 3:
        raise DomainError(f"input image must be (3, H, W), got shape {x.shape}")
    _, h, w = x.shape
    if (object_probs.height, object_probs.width) != (h, w):
        raise DomainError(
            f"object probabilities are {object_probs.height}x{object_probs.width} "
            f"but the image is {h}x{w}"
        )
    scale = 2 ** net.num_stages
    if h % scale or w % scale:
        raise DomainError(
            f"encoder stage {net.num_stages}: input {h}x{w} is not divisible by {scale}"
        )


def _forward(x: np.ndarray, objects: np.ndarray, net: ToyNetConfig,
             params: dict[str, np.ndarray]):
    """Probabilities and backward cache for (3, ..., H, W) images and object maps.

    Each cached (input, activation) pair keeps the relu output, which is
    positive exactly where the pre-activation is, so a layer's activation and
    the next layer's input are one array. The 1x1 head and the softmax run
    before the last upsample, with which both commute.
    """
    k = net.num_stages
    cache: dict = {"net": net, "params": params}

    h = x
    enc_cache = []
    for i in range(1, k + 1):
        out = np.maximum(_conv_forward(h, params[f"enc{i}.w"], params[f"enc{i}.b"], 2), 0.0)
        enc_cache.append((h, out))
        h = out
    cache["enc"] = enc_cache

    pyramid: list[np.ndarray] = []
    if net.conditioning != "off":
        pyramid, cache["emb"] = _embed_forward(objects, net.embedding, params, k)
    cache["pyramid"] = pyramid

    dec_cache = []
    for i in range(1, k + 1):
        upsampled = i > 1
        if upsampled:
            h = upsample2(h)
        out = np.maximum(_conv_forward(h, params[f"dec{i}.w"], params[f"dec{i}.b"], 1), 0.0)
        if net.stage_conditioned(i):
            level = pyramid[k - i]
            if level.shape[-2:] != out.shape[-2:]:
                raise DomainError(
                    f"decoder stage {i}: features are {out.shape[-2:]} but conditioning "
                    f"level is {level.shape[-2:]}"
                )
            merged = np.concatenate([out, level], axis=0)
        else:
            merged = out
        dec_cache.append((h, out, out.shape[0], upsampled))
        h = merged
    cache["dec"] = dec_cache

    probs = softmax_channels(_conv_forward(h, params["head.w"], params["head.b"], 1))
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
                                                         params["head.w"], g, 1)

    # gradients flowing into each pyramid level (0-based index) via concatenation
    pyramid_grads: dict[int, np.ndarray] = {}
    dec_cache = cache.pop("dec")
    for i in range(k, 0, -1):
        h_in, out, own_channels, upsampled = dec_cache.pop()
        if net.stage_conditioned(i):
            pyramid_grads[k - i] = g[own_channels:]
            g = g[:own_channels]
        g = g * (out > 0.0)
        g, grads[f"dec{i}.w"], grads[f"dec{i}.b"] = _conv_backward(
            h_in, params[f"dec{i}.w"], g, 1)
        if upsampled:
            g = upsample2_backward(g)

    enc_cache = cache.pop("enc")
    for i in range(k, 0, -1):
        h_in, out = enc_cache.pop()
        g = g * (out > 0.0)
        g, grads[f"enc{i}.w"], grads[f"enc{i}.b"] = _conv_backward(
            h_in, params[f"enc{i}.w"], g, 2, input_grad=i > 1)

    if net.conditioning != "off":
        emb_cache = cache.pop("emb")
        carried = pyramid_grads[k - 1]  # every mode but off conditions stage 1
        for i in range(k, 0, -1):
            h_in, out = emb_cache.pop()
            g_e = carried * (out > 0.0)
            g_e, grads[f"emb{i}.w"], grads[f"emb{i}.b"] = _conv_backward(
                h_in, params[f"emb{i}.w"], g_e, net.embedding.strides[i - 1],
                input_grad=i > 1)
            if i > 1:
                carried = g_e + pyramid_grads.get(i - 2, 0.0)
    return grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# Scenes per block of the training forward and backward. A block runs each
# conv tap as one tensordot over all its scenes, but keeps every scene's
# activations live until its backward. On the 20-scene 32x32 set (2-core
# x86 VM, numpy 2.4, bench/run.py train_toy32, one run each), blocks of 1, 2,
# 4, 5, 10 and 20 scenes took 134, 89, 74, 68, 67 and 66 ms per step at
# reference speed with peak RSS 44.3, 44.6, 45.6, 46.2, 49.2 and 55.0 MB.
# 4 keeps most of the gain within 3% of the memory of one scene at a time.
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
        grad_probs = np.empty_like(probs)
        for j, (parts, objects, reference) in enumerate(targets):
            pm = ProbMap(np.moveaxis(probs[:, j], 0, 2))
            report, grad = total_loss(pm, parts, objects, mapping, adj_cfg, weights,
                                      reference=reference)
            sums[0] += report.ce
            sums[1] += report.rec
            sums[2] += report.gm
            grad_probs[:, j] = np.moveaxis(grad, 2, 0)
        del probs
        for name, g in toy_backward(cache, grad_probs).items():
            grad_acc[name] += g
    return sums, grad_acc


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
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if lr < 0.0:
        raise DomainError(f"learning rate must be >= 0, got {lr}")
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
    """Mean graph-matching loss of the network's predictions over held-out scenes."""
    total = 0.0
    for rgb, parts, objects in scenes:
        obj_probs = one_hot(objects, mapping.num_objects)
        pred = toy_forward(rgb, obj_probs, net, params)
        reference = reference_graph(parts, mapping.num_parts, adj_cfg)
        total += gm_value(pred.probs, reference, adj_cfg)
    return total / len(scenes)
