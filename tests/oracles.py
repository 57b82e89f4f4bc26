"""Independent brute-force oracles for the test suite.

Everything here is written directly from the definitions (pixel-pair
distance scans, per-pixel loops, per-tap conv loops, flat sums) and
deliberately shares no code with the package's vectorized implementations.
The training and held-out oracles are the exception: they are the per-scene
loops that the blocked engine replaced, built on the package's single-scene
entry points. So are the two adapters that run a channel-first loss kernel on
one unchecked (H, W, C) scene, for finite-difference checks off the simplex,
and the scalar-stream oracles, which take one draw per call from the package's
scalar ``Xorshift64Star`` (whose integer outputs known-answer tests pin).
"""

from __future__ import annotations

import numpy as np

from partgraph import ProbMap, Xorshift64Star, init_toy_params, one_hot, toy_forward
from partgraph.adjacency import gm_value
from partgraph.condnet import _conv_shapes, _toy_forward_cached, toy_backward
from partgraph.losses import (
    LossReport,
    _cross_entropy_raw,
    _reconstruction_raw,
    reference_graph,
    total_loss,
)
from partgraph.synth import _COLOR_SALT, _NOISE_AMPLITUDE


def pixel_distance(dy: int, dx: int, shape: str) -> int:
    if shape == "square":
        return max(abs(dy), abs(dx))
    return abs(dy) + abs(dx)


def dilate_oracle(bits: np.ndarray, shape: str, radius: int) -> np.ndarray:
    """A pixel is set iff some set input pixel lies within ``radius`` of it: the
    OR over every offset (dy, dx) within ``radius`` of the mask shifted by it,
    out[y, x] |= bits[y + dy, x + dx], with the pixels shifted past the border
    dropped."""
    h, w = bits.shape
    out = np.zeros((h, w), dtype=bool)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if pixel_distance(dy, dx, shape) > radius or abs(dy) >= h or abs(dx) >= w:
                continue
            out[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)] |= (
                bits[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)] != 0)
    return out


def window_max_oracle(field: np.ndarray, shape: str, radius: int) -> np.ndarray:
    """Sliding-window maximum with border clipping."""
    h, w = field.shape
    out = np.empty_like(field)
    for y in range(h):
        for x in range(w):
            best = -np.inf
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    if pixel_distance(dy, dx, shape) > radius:
                        continue
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        best = max(best, field[yy, xx])
            out[y, x] = best
    return out


def dilate_intersect_oracle(labels: np.ndarray, num_parts: int, shape: str,
                            radius: int) -> np.ndarray:
    """Counts of pixels lying in both dilated part masks, for every part pair."""
    dilated = {}
    for part in range(num_parts):
        mask = labels == part
        if mask.any():
            dilated[part] = dilate_oracle(mask, shape, radius)
    raw = np.zeros((num_parts, num_parts))
    for i in dilated:
        for j in dilated:
            if i != j:
                raw[i, j] = int(np.sum(dilated[i] & dilated[j]))
    return raw


def exact_distance_oracle(labels: np.ndarray, num_parts: int, shape: str,
                          threshold: int) -> np.ndarray:
    """Counts of pixels of part i within ``threshold`` of some pixel of part j."""
    coords = {}
    for part in range(num_parts):
        ys, xs = np.nonzero(labels == part)
        if ys.size:
            coords[part] = (ys, xs)
    raw = np.zeros((num_parts, num_parts))
    for i in coords:
        for j in coords:
            if i == j:
                continue
            count = 0
            for y, x in zip(*coords[i]):
                if shape == "square":
                    d = np.maximum(np.abs(coords[j][0] - y), np.abs(coords[j][1] - x))
                else:
                    d = np.abs(coords[j][0] - y) + np.abs(coords[j][1] - x)
                if np.any(d <= threshold):
                    count += 1
            raw[i, j] = count
    return raw


def cross_entropy_oracle(probs: np.ndarray, labels: np.ndarray, eps: float = 1e-12) -> float:
    h, w, _ = probs.shape
    total = 0.0
    for y in range(h):
        for x in range(w):
            total += -np.log(max(probs[y, x, labels[y, x]], eps))
    return total / (h * w)


def group_sum_oracle(probs: np.ndarray, boundaries) -> np.ndarray:
    h, w, _ = probs.shape
    num_objects = len(boundaries) - 1
    out = np.zeros((h, w, num_objects))
    for y in range(h):
        for x in range(w):
            for j in range(num_objects):
                s = 0.0
                for part in range(boundaries[j], boundaries[j + 1]):
                    s += probs[y, x, part]
                out[y, x, j] = s
    return out


def frobenius_oracle(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += (a[i, j] - b[i, j]) ** 2
    return float(np.sqrt(total))


def confusion_oracle(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for y in range(gt.shape[0]):
        for x in range(gt.shape[1]):
            counts[gt[y, x], pred[y, x]] += 1
    return counts


def rel_err(a: float, b: float, floor: float = 1e-7) -> float:
    """Relative disagreement; values both below ``floor`` count as agreeing."""
    denom = max(abs(a), abs(b))
    if denom < floor:
        return 0.0
    return abs(a - b) / denom


def fd_check(f, x: np.ndarray, grad: np.ndarray, coords, h: float = 1e-4) -> float:
    """Worst relative error between ``grad`` and central differences of ``f`` at ``coords``."""
    worst = 0.0
    for idx in coords:
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        fd = (f(xp) - f(xm)) / (2.0 * h)
        worst = max(worst, rel_err(float(grad[idx]), float(fd)))
    return worst


def random_probs(rng: np.random.Generator, h: int, w: int, c: int,
                 floor: float = 0.05) -> np.ndarray:
    """Random simplex-valued (H, W, C) array with entries bounded away from 0."""
    raw = rng.random((h, w, c)) + floor
    return raw / raw.sum(axis=2, keepdims=True)


def sample_coords(rng: np.random.Generator, shape, count: int):
    return [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(count)]


def _shift_slices(shape, dy: int, dx: int):
    """Output/input slice pair so that out[sl_out] aligns with in[sl_in] shifted by (dy, dx)."""
    h, w = shape

    def _axis(n: int, d: int):
        out_start = max(0, -d)
        out_stop = max(out_start, min(n, n - d))
        in_start = max(0, d)
        in_stop = max(in_start, min(n, n + d))
        return slice(out_start, out_stop), slice(in_start, in_stop)

    ys_out, ys_in = _axis(h, dy)
    xs_out, xs_in = _axis(w, dx)
    return (ys_out, xs_out), (ys_in, xs_in)


def element_offsets(shape: str, radius: int):
    """(dy, dx) offsets within ``radius`` in lexicographic order."""
    return [(dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)
            if pixel_distance(dy, dx, shape) <= radius]


def soft_dilate_forward_oracle(field: np.ndarray, shape: str, radius: int,
                               mode: str = "hard_max", beta: float = 20.0):
    """Soft dilation of one (H, W) field by a loop over the window offsets.

    Returns (output, cache) for :func:`soft_dilate_backward_oracle`. hard_max
    routes to the first offset (lexicographic order) attaining the window
    maximum; smooth_max is the log-sum-exp shifted by the window peak,
    clamped at 1.
    """
    x = np.asarray(field, dtype=np.float64)
    offsets = element_offsets(shape, radius)
    peak = np.full_like(x, -np.inf)
    for dy, dx in offsets:
        sl_out, sl_in = _shift_slices(x.shape, dy, dx)
        np.maximum(peak[sl_out], x[sl_in], out=peak[sl_out])
    if mode == "hard_max":
        winner = np.full(x.shape, -1, dtype=np.int64)
        for idx, (dy, dx) in enumerate(offsets):
            sl_out, sl_in = _shift_slices(x.shape, dy, dx)
            hit = (x[sl_in] == peak[sl_out]) & (winner[sl_out] < 0)
            winner[sl_out][hit] = idx
        return peak, ("hard_max", x.shape, offsets, winner)
    expsum = np.zeros_like(x)
    for dy, dx in offsets:
        sl_out, sl_in = _shift_slices(x.shape, dy, dx)
        expsum[sl_out] += np.exp(beta * (x[sl_in] - peak[sl_out]))
    raw = peak + np.log(expsum) / beta
    return np.minimum(raw, 1.0), ("smooth_max", x.shape, offsets,
                                  (x, peak, expsum, raw <= 1.0, beta))


def soft_dilate_backward_oracle(grad_out: np.ndarray, cache) -> np.ndarray:
    """Gradient of :func:`soft_dilate_forward_oracle` by the same offset loop."""
    mode, shape, offsets, data = cache
    grad_in = np.zeros(shape, dtype=np.float64)
    if mode == "hard_max":
        for idx, (dy, dx) in enumerate(offsets):
            sl_out, sl_in = _shift_slices(shape, dy, dx)
            grad_in[sl_in] += grad_out[sl_out] * (data[sl_out] == idx)
        return grad_in
    x, peak, expsum, open_mask, beta = data
    g = grad_out * open_mask
    for dy, dx in offsets:
        sl_out, sl_in = _shift_slices(shape, dy, dx)
        grad_in[sl_in] += g[sl_out] * np.exp(beta * (x[sl_in] - peak[sl_out])) / expsum[sl_out]
    return grad_in


def _same_padded(x: np.ndarray, kh: int, kw: int, stride: int):
    """``x`` zero-padded for a SAME conv (the odd pixel of padding goes last), with (oh, ow)."""
    h, w = x.shape[-2:]
    oh, ow = -(-h // stride), -(-w // stride)
    pad_h = max((oh - 1) * stride + kh - h, 0)
    pad_w = max((ow - 1) * stride + kw - w, 0)
    pads = [(0, 0)] * (x.ndim - 2) + [(pad_h // 2, pad_h - pad_h // 2),
                                      (pad_w // 2, pad_w - pad_w // 2)]
    return np.pad(x, pads), oh, ow


def conv_forward_oracle(x: np.ndarray, weights: np.ndarray, bias=None,
                        stride: int = 1) -> np.ndarray:
    """SAME cross-correlation of a (C, ..., H, W) tensor, one tensordot per kernel tap."""
    f, _, kh, kw = weights.shape
    xp, oh, ow = _same_padded(x, kh, kw, stride)
    out = np.zeros((f,) + x.shape[1:-2] + (oh, ow))
    for ki in range(kh):
        for kj in range(kw):
            win = xp[..., ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            out += np.tensordot(weights[:, :, ki, kj], win, axes=([1], [0]))
    if bias is not None:
        out += bias.reshape((f,) + (1,) * (x.ndim - 1))
    return out


def conv_backward_oracle(x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray,
                         stride: int = 1, input_grad: bool = True):
    """(input grad or None, weight grad, bias grad) of :func:`conv_forward_oracle`, tap by tap."""
    _, _, kh, kw = weights.shape
    xp, oh, ow = _same_padded(x, kh, kw, stride)
    rest = list(range(1, x.ndim))
    grad_w = np.zeros_like(weights)
    grad_xp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            rows = slice(ki, ki + stride * oh, stride)
            cols = slice(kj, kj + stride * ow, stride)
            grad_w[:, :, ki, kj] = np.tensordot(grad_out, xp[..., rows, cols], axes=(rest, rest))
            grad_xp[..., rows, cols] += np.tensordot(weights[:, :, ki, kj], grad_out,
                                                     axes=([0], [0]))
    grad_b = grad_out.sum(axis=tuple(rest))
    if not input_grad:
        return None, grad_w, grad_b
    h, w = x.shape[-2:]
    top, left = (xp.shape[-2] - h) // 2, (xp.shape[-1] - w) // 2
    return grad_xp[..., top : top + h, left : left + w], grad_w, grad_b


def upsample2_backward_oracle(grad_out: np.ndarray) -> np.ndarray:
    """Each input pixel's gradient: the sum over its 2x2 block of the upsampled gradient."""
    *lead, h2, w2 = grad_out.shape
    return grad_out.reshape(*lead, h2 // 2, 2, w2 // 2, 2).sum(axis=(-3, -1))


def scene_rgb_oracle(spec, parts: np.ndarray) -> np.ndarray:
    """The (3, H, W) rendering of ``parts`` for ``spec``, one scalar draw at a time.

    The scene stream spends two ``randint(2)`` jitters per object on the
    rectangles, then one noise draw per value in (c, y, x) order; each part
    color is three draws of its own salted stream.
    """
    rng = Xorshift64Star(spec.seed)
    for _ in range(2 * spec.num_objects):
        rng.randint(2)
    h, w = parts.shape
    noise = [rng.uniform(-_NOISE_AMPLITUDE, _NOISE_AMPLITUDE) for _ in range(3 * h * w)]
    palette = [np.array([0.08, 0.08, 0.08])]
    for part in range(1, spec.num_parts):
        color = Xorshift64Star(_COLOR_SALT ^ (part * 0x9E3779B97F4A7C15))
        palette.append(np.array([color.uniform(0.2, 0.95) for _ in range(3)]))
    rgb = np.array(noise).reshape(3, h, w) + np.moveaxis(np.stack(palette)[parts], 2, 0)
    return np.clip(rgb, 0.0, 1.0)


def init_toy_params_oracle(net, num_parts: int, num_objects: int, seed: int) -> dict:
    """``init_toy_params`` with one scalar ``uniform(-bound, bound)`` draw per weight."""
    rng = Xorshift64Star(seed)
    params = {}
    for name, shape in _conv_shapes(net, num_parts, num_objects):
        bound = 1.0 / np.sqrt(shape[1] * shape[2] * shape[3])
        flat = [rng.uniform(-bound, bound) for _ in range(int(np.prod(shape)))]
        params[f"{name}.w"] = np.array(flat).reshape(shape)
        params[f"{name}.b"] = np.zeros(shape[0])
    return params


def train_step_oracle(scenes, mapping, net, params, weights, adj_cfg):
    """Per-term loss sums and parameter gradients summed over ``scenes``, one scene at a time.

    Every scene runs alone through the network and rebuilds its reference
    graph inside ``total_loss``.
    """
    sums = [0.0, 0.0, 0.0]
    grad_acc = {name: np.zeros_like(p) for name, p in params.items()}
    for rgb, parts, objects in scenes:
        probs, cache = _toy_forward_cached(rgb, one_hot(objects, mapping.num_objects), net,
                                           params)
        report, grad_probs = total_loss(ProbMap(np.moveaxis(probs, 0, 2)), parts, objects,
                                        mapping, adj_cfg, weights)
        sums[0] += report.ce
        sums[1] += report.rec
        sums[2] += report.gm
        for name, g in toy_backward(cache, np.moveaxis(grad_probs, 2, 0)).items():
            grad_acc[name] += g
    return sums, grad_acc


def train_toy_oracle(scenes, mapping, net, weights, adj_cfg, steps, lr, seed=None):
    """``train_toy`` as a per-scene loop: the same (params, trace), up to summation order."""
    params = init_toy_params(net, mapping.num_parts, mapping.num_objects, seed=seed)
    n = len(scenes)
    trace = []
    for t in range(steps):
        sums, grad_acc = train_step_oracle(scenes, mapping, net, params, weights, adj_cfg)
        trace.append(LossReport.combine(sums[0] / n, sums[1] / n, sums[2] / n, weights))
        lr_t = lr * (1.0 - t / steps) ** 0.9
        for name in params:
            params[name] = params[name] - (lr_t / n) * grad_acc[name]
    return params, trace


def mean_gm_loss_oracle(scenes, mapping, net, params, adj_cfg):
    """``mean_gm_loss`` as a per-scene loop over the single-scene forward."""
    total = 0.0
    for rgb, parts, objects in scenes:
        pred = toy_forward(rgb, one_hot(objects, mapping.num_objects), net, params)
        reference = reference_graph(parts, mapping.num_parts, adj_cfg)
        total += gm_value(pred.probs, reference, adj_cfg)
    return total / len(scenes)


def _scene_block(a: np.ndarray) -> np.ndarray:
    return np.moveaxis(a, 2, 0)[:, None]


def cross_entropy_kernel(probs: np.ndarray, labels: np.ndarray):
    """``_cross_entropy_raw`` on one (H, W, C) scene: (loss, (H, W, C) gradient)."""
    grad = np.zeros_like(probs)
    return _cross_entropy_raw(_scene_block(probs), labels[None], _scene_block(grad)), grad


def reconstruction_kernel(probs: np.ndarray, objects: np.ndarray, mapping):
    """``_reconstruction_raw`` on one (H, W, C) scene: (loss, (H, W, C) gradient)."""
    grad = np.zeros_like(probs)
    loss = _reconstruction_raw(_scene_block(probs), objects[None], mapping, _scene_block(grad))
    return loss, grad
