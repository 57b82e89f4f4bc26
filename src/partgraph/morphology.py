"""Binary and soft 2D morphological dilation.

Dilation grows a mask by a structuring element: a pixel of the output is set
when any input pixel within the element's neighborhood is set. Square
elements use the Chebyshev ball (max(|dy|, |dx|) <= r), diamond elements the
Manhattan ball (|dy| + |dx| <= r). The image border clips the neighborhood:
nothing outside the image participates, not even as zeros.

``soft_dilate`` extends dilation to real-valued fields in [0, 1] so it can
sit inside a differentiable pipeline. ``hard_max`` takes the windowed
maximum (which reduces to plain dilation on 0/1 fields); ``smooth_max``
takes the log-sum-exp (1/beta) * log(sum exp(beta * x)) over the window,
clamped to [0, 1]. Because inputs lie in [0, 1], smooth_max uses the fixed
shift 1 in place of the window's peak, 1 + log(sum exp(beta * (x - 1))) /
beta, which stays finite for 0 < beta <= 700 (exp(-beta) is then a normal
float); other values of beta are rejected.

Every dilation is one window reduction over the last two axes of a
(..., H, W) array, so a stack of channels dilates in one call: a row pass
grows each row segment to its half-width, then a column pass combines the
row segments of the window. A square's segments all have half-width r; a
diamond's has half-width r - |dy| at row offset dy. The cost grows linearly
with the radius, up to the image's size. Each chunk of fields is copied once
into a buffer padded with the reduction's identity, so that every shift is
one contiguous 1-D ufunc call over the flattened chunk: ~20 us per 256 x 256
float64 field, against ~90 us over a 2-D strided slice (Xeon VM, numpy 2.4).

Each reduction is one stock ufunc: ``np.bitwise_or``, which dilates each bit
of an unsigned-integer bitset as its own mask; ``np.add`` for smooth_max;
and ``np.maximum`` of x - i * index for hard_max. numpy orders complex
numbers by real part, then imaginary part, so the window maximum wins and a
tie goes to the lowest index, the first pixel in row-major order.

A dilation allocates its output and cache once, at the stack's size, and
fills them a chunk of whole fields at a time, so that every pass finds its
chunk in cache and the padded buffers stay chunk-sized. smooth_max works in
place: its cache's ``weight`` holds exp(beta * (x - 1)) and ``inv_open`` the
window sums, then their reciprocals (0 where the output clamps at 1), then
the input gradient, so a cache serves one backward. hard_max caches each
output's winning input index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ELEMENT_SHAPES = ("square", "diamond")
SOFT_MODES = ("hard_max", "smooth_max")
# smooth_max shifts by 1 instead of the window peak; exp(-beta) must stay normal
MAX_BETA = 700.0
# Bytes per chunk of a dilation, one 256 x 256 float64 field: it stays in L2 cache
_CHUNK_BYTES = 512 * 1024


@dataclass(frozen=True)
class StructuringElement:
    shape: str = "square"
    radius: int = 1

    def __post_init__(self):
        if self.shape not in ELEMENT_SHAPES:
            raise DomainError(f"element shape must be one of {ELEMENT_SHAPES}, got {self.shape!r}")
        object.__setattr__(self, "radius", whole_number(self.radius, "radius"))


def whole_number(value, what: str) -> int:
    """``value`` as an int if it is a whole number >= 0, else a DomainError (NaN, inf too)."""
    if not (0 <= value < np.inf and value == int(value)):
        raise DomainError(f"{what} must be a nonnegative integer, got {value}")
    return int(value)


def check_soft_mode(mode: str) -> None:
    """Reject a soft-dilation mode outside SOFT_MODES."""
    if mode not in SOFT_MODES:
        raise DomainError(f"soft mode must be one of {SOFT_MODES}, got {mode!r}")


def check_beta(beta: float) -> None:
    """Reject a smooth-max sharpness outside (0, MAX_BETA], NaN included."""
    if not 0.0 < beta <= MAX_BETA:
        raise DomainError(f"beta must be finite, > 0 and <= {MAX_BETA:g}, got {beta}")


def _combine_shifted(acc, src, d: int, op) -> None:
    """Combine flat ``src`` shifted by -d, then by +d, into ``acc`` with ``op``; the ends clip."""
    op(acc[d:], src[:len(src) - d], out=acc[d:])
    if d:  # at d = 0 both shifts are src itself
        op(acc[:-d], src[d:], out=acc[:-d])


def _window_reduce(x: np.ndarray, elem: StructuringElement, op, start, out) -> np.ndarray:
    """Reduce each pixel's border-clipped window over an (F, H, W) chunk ``x`` into ``out``.

    ``op`` is a ufunc, associative and commutative, with ``start`` as its
    identity, which pads each field by min(r, H - 1) rows and min(r, W - 1)
    columns: a shift of the flat chunk reaches only pad beyond its field. A
    row pass grows running row segments, and a column pass combines those of
    every row offset dy, farthest first, as a diamond's half-width r - |dy|
    only grows on the way; a square's are grown at the first dy, so its
    padded x then holds the column pass. Offsets past the image are skipped.
    """
    _, h, w = x.shape
    r = elem.radius
    ph, pw, acc_at = min(r, h - 1), min(r, w - 1), 2 * (elem.shape == "diamond")
    # one block for padded x, row segments and a diamond's column pass: separate blocks went
    # back to the system when freed, then faulted in again (~230 per 256 x 256 float64 field)
    buf = np.empty((3 if acc_at else 2, len(x), h + ph, w + pw), dtype=x.dtype)
    buf[0, :, :h, :w] = x
    buf[0, :, h:] = buf[0, :, :h, w:] = start  # only the pad: rows below x, columns right of it
    buf[1] = buf[0]  # x reduced over row segments of half-width `grown`
    src, rows, acc = (buf[i].reshape(-1) for i in (0, 1, acc_at))
    grown = 0
    for dy in range(ph, -1, -1):
        half = min(r if elem.shape == "square" else r - dy, pw)
        for dx in range(grown + 1, half + 1):
            _combine_shifted(rows, src, dx, op)
        grown = max(grown, half)
        if dy == ph:
            acc.fill(start)
        _combine_shifted(acc, rows, dy * (w + pw), op)
    out[...] = buf[acc_at, :, :h, :w]
    return out


def dilate_array(bits: np.ndarray, elem: StructuringElement) -> np.ndarray:
    """Binary dilation by ``elem``, border-clipped, of a (..., H, W) stack of
    masks, or of unsigned-integer bitsets, which keep their dtype."""
    bits = np.asarray(bits)
    if bits.ndim < 2:
        raise DomainError(f"expected (..., H, W) masks, got shape {bits.shape}")
    bits = bits if bits.dtype.kind == "u" else bits.astype(bool, copy=False)
    out = np.empty(bits.shape, dtype=bits.dtype)
    if bits.size:  # a zero-size stack has no fields to chunk
        fields, grown = (a.reshape((-1,) + bits.shape[-2:]) for a in (bits, out))
        for part in _chunks(fields):
            _window_reduce(fields[part], elem, np.bitwise_or, 0, grown[part])
    return out


def soft_dilate(channel: np.ndarray, elem: StructuringElement,
                mode: str = "hard_max", beta: float = 20.0) -> np.ndarray:
    """Dilate a real-valued field, or a (..., H, W) stack of them, in [0, 1].

    See the module docstring for the modes.
    """
    out, _ = soft_dilate_forward(channel, elem, mode, beta)
    return out


def _chunks(fields: np.ndarray):
    """Slices of an (F, H, W) stack of about _CHUNK_BYTES each, one field at least."""
    step = max(1, _CHUNK_BYTES // fields[0].nbytes)
    return [slice(lo, lo + step) for lo in range(0, len(fields), step)]


def soft_dilate_forward(stack: np.ndarray, elem: StructuringElement,
                        mode: str = "hard_max", beta: float = 20.0):
    """Dilate every (H, W) field of a (..., H, W) stack.

    Returns (output, cache) where cache feeds :func:`soft_dilate_backward`.
    """
    x = np.asarray(stack, dtype=np.float64)
    if x.ndim < 2 or x.size == 0:
        raise DomainError(f"expected nonempty (..., H, W) fields, got shape {x.shape}")
    # written so that NaN fails it: np.maximum would carry NaN through hard_max
    if not (x.min() >= 0.0 and x.max() <= 1.0 + 1e-6):
        raise DomainError("soft dilation expects values in [0, 1]")
    check_soft_mode(mode)
    fields = x.reshape((-1,) + x.shape[-2:])
    # smooth_max's inv_open outlives the other arrays, as the gradient the backward returns:
    # allocated first, below them on the heap, it leaves their freed space reusable (the
    # other way round, a train_toy call had 2 to 5 times the page faults)
    inv_open = np.empty(fields.shape) if mode == "smooth_max" else None
    out = np.empty(fields.shape)

    if mode == "hard_max":
        # key x - i * index: its window maximum holds the value and the winner
        winner = np.empty(fields.shape, dtype=np.intp)
        for part in _chunks(fields):
            first = part.start * fields[0].size
            key = np.arange(-first, -first - out[part].size, -1).reshape(out[part].shape) * 1j
            key += fields[part]
            best = _window_reduce(key, elem, np.maximum, complex(-np.inf, -np.inf), key)
            out[part], winner[part] = best.real, -best.imag
        return out.reshape(x.shape), ("hard_max", winner.reshape(x.shape))

    check_beta(beta)
    weight = np.empty(fields.shape)
    for part in _chunks(fields):
        chunk = np.subtract(fields[part], 1.0, out=weight[part])
        chunk *= beta
        np.exp(chunk, out=chunk)
        expsum = _window_reduce(chunk, elem, np.add, 0.0, inv_open[part])
        raw = np.log(expsum, out=out[part])
        raw /= beta
        raw += 1.0
        # clamped pixels pass no gradient
        np.divide(1.0, expsum, out=expsum)
        expsum *= raw <= 1.0
        np.minimum(raw, 1.0, out=raw)
    return out.reshape(x.shape), ("smooth_max", weight, inv_open, elem)


def soft_dilate_backward(grad_out: np.ndarray, cache) -> np.ndarray:
    """Gradient of :func:`soft_dilate_forward` with respect to the input stack.

    hard_max routes each output pixel's gradient to its window argmax;
    smooth_max distributes it with softmax weights. Output pixels clamped at
    1 pass no gradient. A smooth_max cache serves one backward: the gradient
    is written into its ``inv_open`` buffer.
    """
    if cache[0] == "hard_max":
        winner = cache[1]
        return np.bincount(winner.ravel(), weights=np.ravel(grad_out),
                           minlength=winner.size).reshape(winner.shape)
    # d out[y] / d x[p] = weight[p] / expsum[y] on p's window; windows are symmetric
    _, weight, inv_open, elem = cache
    grad = np.reshape(grad_out, weight.shape)
    for part in _chunks(weight):
        _window_reduce(grad[part] * inv_open[part], elem, np.add, 0.0, inv_open[part])
        inv_open[part] *= weight[part]
    return inv_open.reshape(np.shape(grad_out))
