"""Toy-scale tensor engine: object-conditioned part decoder with full backprop.

Tensors are plain numpy arrays with a (channels, height, width) convention.
The network is an autoencoder for part probabilities whose decoder is
conditioned on object-level predictions: the object map is pushed through a
small convolutional embedding cascade, and each decoder stage concatenates
the embedding level at its own resolution (deepest level first),

    stage i output = relu(conv(stage input))  ++  pyramid[levels - i]

with ``k`` stride-2 encoder stages mirrored by ``k`` decoder stages and a
final upsample + 1x1 classifier + per-pixel softmax.

Conditioning modes: ``multi`` concatenates at every decoder stage, ``single``
only at the deepest stage, ``off`` not at all (the object input is then
irrelevant to the output).

Everything here is deliberately small and explicit: convolutions are SAME
zero-padded cross-correlations evaluated one kernel tap at a time, gradients
are hand-derived, and training is plain gradient descent with a polynomial
learning-rate decay of power 0.9. Given a seed, runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyConfig, adjacency_from_labels, gm_value, normalize_rows
from .core import PartsToObjectsMapping, ProbMap, one_hot
from .errors import DomainError, NumericError
from .losses import LossReport, LossWeights, total_loss
from .rng import Xorshift64Star

CONDITIONING_MODES = ("multi", "single", "off")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)
    pad = max((out - 1) * stride + kernel - size, 0)
    return out, pad


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None,
                   stride: int = 1) -> np.ndarray:
    """SAME-padded cross-correlation of a (C, H, W) tensor with (F, C, kh, kw) weights."""
    f, cin, kh, kw = weights.shape
    c, h, w = x.shape
    if c != cin:
        raise DomainError(f"conv expects {cin} input channels, got {c}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    oh, pad_h = _same_padding(h, kh, stride)
    ow, pad_w = _same_padding(w, kw, stride)
    xp = np.zeros((c, h + pad_h, w + pad_w), dtype=np.float64)
    xp[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
    out = np.zeros((f, oh, ow), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            win = xp[:, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            out += np.tensordot(weights[:, :, ki, kj], win, axes=([1], [0]))
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv2d_backward(x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray,
                    stride: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d_forward`: (input grad, weight grad, bias grad)."""
    f, cin, kh, kw = weights.shape
    c, h, w = x.shape
    oh, pad_h = _same_padding(h, kh, stride)
    ow, pad_w = _same_padding(w, kw, stride)
    if grad_out.shape != (f, oh, ow):
        raise DomainError(f"grad shape {grad_out.shape} does not match output ({f}, {oh}, {ow})")
    xp = np.zeros((c, h + pad_h, w + pad_w), dtype=np.float64)
    xp[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
    grad_w = np.zeros_like(weights)
    grad_xp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            win = xp[:, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            grad_w[:, :, ki, kj] = np.tensordot(grad_out, win, axes=([1, 2], [1, 2]))
            grad_xp[:, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += (
                np.tensordot(weights[:, :, ki, kj], grad_out, axes=([0], [0]))
            )
    grad_x = grad_xp[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w]
    grad_b = grad_out.sum(axis=(1, 2))
    return grad_x, grad_w, grad_b


def upsample2(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor x2 upsampling of a (C, H, W) tensor."""
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def upsample2_backward(grad_out: np.ndarray) -> np.ndarray:
    c, h2, w2 = grad_out.shape
    return grad_out.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4))


def softmax_channels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the channel axis of a (C, H, W) tensor."""
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
    """The first ``num_levels`` levels of the object-embedding pyramid of a (C, H, W) tensor.

    Level i (1-based) is relu(conv(level i - 1)) with the kernel, stride and
    channel count of embedding layer i, so with stride 2 it sits at 1/2**i of
    the input resolution. Returns the levels and the per-layer (input,
    pre-activation) pairs the backward pass needs.
    """
    levels = []
    cache = []
    h = x
    for i in range(1, num_levels + 1):
        w_i, b_i = params[f"emb{i}.w"], params[f"emb{i}.b"]
        z = conv2d_forward(h, w_i, b_i, stride=cfg.strides[i - 1])
        out = np.maximum(z, 0.0)
        cache.append((h, z))
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


def _toy_forward_cached(x: np.ndarray, object_probs: ProbMap, net: ToyNetConfig,
                        params: dict[str, np.ndarray]):
    _check_input(x, object_probs, net)
    k = net.num_stages
    cache: dict = {"x": x, "net": net, "params": params}

    h = x
    enc_cache = []
    for i in range(1, k + 1):
        z = conv2d_forward(h, params[f"enc{i}.w"], params[f"enc{i}.b"], stride=2)
        out = np.maximum(z, 0.0)
        enc_cache.append((h, z))
        h = out
    cache["enc"] = enc_cache

    pyramid: list[np.ndarray] = []
    if net.conditioning != "off":
        obj = as_tensor(object_probs)
        pyramid, emb_cache = _embed_forward(obj, net.embedding, params, k)
        cache["emb"] = emb_cache
    cache["pyramid"] = pyramid

    dec_cache = []
    for i in range(1, k + 1):
        upsampled = i > 1
        if upsampled:
            h = upsample2(h)
        z = conv2d_forward(h, params[f"dec{i}.w"], params[f"dec{i}.b"], stride=1)
        out = np.maximum(z, 0.0)
        if net.stage_conditioned(i):
            level = pyramid[k - i]
            if level.shape[1:] != out.shape[1:]:
                raise DomainError(
                    f"decoder stage {i}: features are {out.shape[1:]} but conditioning "
                    f"level is {level.shape[1:]}"
                )
            merged = np.concatenate([out, level], axis=0)
        else:
            merged = out
        dec_cache.append((h, z, out.shape[0], upsampled))
        h = merged
    cache["dec"] = dec_cache

    h = upsample2(h)
    logits = conv2d_forward(h, params["head.w"], params["head.b"], stride=1)
    probs = softmax_channels(logits)
    cache["head_in"] = h
    cache["probs"] = probs
    return probs, cache


def toy_forward(x: np.ndarray, object_probs: ProbMap, net: ToyNetConfig,
                params: dict[str, np.ndarray]) -> ProbMap:
    """Run the toy network; the result is a valid per-pixel probability map."""
    probs, _ = _toy_forward_cached(x, object_probs, net, params)
    return ProbMap(np.moveaxis(probs, 0, 2))


def toy_backward(cache: dict, grad_probs: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients of the toy network given d(loss)/d(probabilities).

    ``grad_probs`` is (C, H, W), matching the forward output tensor. The
    object input is treated as fixed, so no gradient flows past the first
    embedding layer.
    """
    net: ToyNetConfig = cache["net"]
    params: dict[str, np.ndarray] = cache["params"]
    k = net.num_stages
    grads: dict[str, np.ndarray] = {}

    g = softmax_backward(grad_probs, cache["probs"])
    g, grads["head.w"], grads["head.b"] = conv2d_backward(
        cache["head_in"], params["head.w"], g, stride=1)
    g = upsample2_backward(g)

    # gradients flowing into each pyramid level (0-based index) via concatenation
    pyramid_grads: dict[int, np.ndarray] = {}
    for i in range(k, 0, -1):
        h_in, z, own_channels, upsampled = cache["dec"][i - 1]
        if net.stage_conditioned(i):
            pyramid_grads[k - i] = g[own_channels:]
            g = g[:own_channels]
        g = g * (z > 0.0)
        g, grads[f"dec{i}.w"], grads[f"dec{i}.b"] = conv2d_backward(
            h_in, params[f"dec{i}.w"], g, stride=1)
        if upsampled:
            g = upsample2_backward(g)

    for i in range(k, 0, -1):
        h_in, z = cache["enc"][i - 1]
        g = g * (z > 0.0)
        g, grads[f"enc{i}.w"], grads[f"enc{i}.b"] = conv2d_backward(
            h_in, params[f"enc{i}.w"], g, stride=2)

    if net.conditioning != "off":
        emb_cache = cache["emb"]
        carried = pyramid_grads.get(k - 1, np.zeros_like(cache["pyramid"][k - 1]))
        for i in range(k, 0, -1):
            h_in, z = emb_cache[i - 1]
            g_e = carried * (z > 0.0)
            g_e, grads[f"emb{i}.w"], grads[f"emb{i}.b"] = conv2d_backward(
                h_in, params[f"emb{i}.w"], g_e, stride=net.embedding.strides[i - 1])
            if i > 1:
                carried = g_e + pyramid_grads.get(i - 2, 0.0)
    return grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_toy(scenes, mapping: PartsToObjectsMapping, net: ToyNetConfig,
              weights: LossWeights, adj_cfg: AdjacencyConfig, steps: int, lr: float,
              seed: int | None = None):
    """Gradient descent on the total loss over a list of (rgb, parts, objects) scenes.

    Each step takes the mean loss and gradient over all scenes, then updates
    with the polynomially decayed learning rate lr * (1 - t/steps)**0.9.
    Returns (params, trace) where trace[t] is the batch loss before update t.
    A non-finite loss aborts with the offending step index.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if lr < 0.0:
        raise DomainError(f"learning rate must be >= 0, got {lr}")
    if not scenes:
        raise DomainError("need at least one training scene")
    num_parts = mapping.num_parts
    num_objects = mapping.num_objects
    params = init_toy_params(net, num_parts, num_objects, seed=seed)

    prepared = [(rgb, parts, objects, one_hot(objects, num_objects))
                for rgb, parts, objects in scenes]
    trace: list[LossReport] = []
    for t in range(steps):
        sums = {"ce": 0.0, "rec": 0.0, "gm": 0.0}
        grad_acc = {name: np.zeros_like(p) for name, p in params.items()}
        for rgb, parts, objects, obj_probs in prepared:
            probs, cache = _toy_forward_cached(rgb, obj_probs, net, params)
            if not np.isfinite(probs).all():
                raise NumericError(f"non-finite activations at step {t}")
            pm = ProbMap(np.moveaxis(probs, 0, 2))
            report, grad_probs = total_loss(pm, parts, objects, mapping, adj_cfg, weights)
            sums["ce"] += report.ce
            sums["rec"] += report.rec
            sums["gm"] += report.gm
            grads = toy_backward(cache, np.moveaxis(grad_probs, 2, 0))
            for name, g in grads.items():
                grad_acc[name] += g
        n = len(prepared)
        report = LossReport.combine(sums["ce"] / n, sums["rec"] / n, sums["gm"] / n, weights)
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
        reference = normalize_rows(adjacency_from_labels(parts, mapping.num_parts, adj_cfg))
        total += gm_value(pred.probs, reference, adj_cfg)
    return total / len(scenes)
