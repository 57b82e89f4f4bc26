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
row segments of the window, each a handful of shifted slices. A square's
segments all have half-width r; a diamond's has half-width r - |dy| at row
offset dy. The cost grows linearly with the radius, and no further than the
image reaches, so a radius beyond the image costs what the image costs.

Each reduction is one stock ufunc: ``np.bitwise_or``, which dilates each bit
of an unsigned-integer bitset as its own mask; ``np.add`` for smooth_max;
and ``np.maximum`` of x - i * index for hard_max. numpy orders complex
numbers by real part, then imaginary part, so the window maximum wins and a
tie goes to the lowest index, the first pixel in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ELEMENT_SHAPES = ("square", "diamond")
SOFT_MODES = ("hard_max", "smooth_max")
# smooth_max shifts by 1 instead of the window peak; exp(-beta) must stay normal
MAX_BETA = 700.0


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


@dataclass(frozen=True)
class BinaryMask:
    """H x W boolean mask, row-major."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DomainError(f"mask must be 2D with positive dims, got shape {arr.shape}")
        arr = arr.astype(bool, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)


def check_beta(beta: float) -> None:
    """Reject a smooth-max sharpness outside (0, MAX_BETA], NaN included."""
    if not 0.0 < beta <= MAX_BETA:
        raise DomainError(f"beta must be finite, > 0 and <= {MAX_BETA:g}, got {beta}")


def _combine_shifted(acc, src, d: int, axis: int, op) -> None:
    """Combine ``src`` shifted by -d and by +d along ``axis`` (-1 or -2) into ``acc`` with ``op``.

    Shifted-in pixels from beyond the border do not exist, so the slices clip.
    """
    tail = (slice(None),) * (-1 - axis)
    lo, hi = (..., slice(None, -d or None)) + tail, (..., slice(d, None)) + tail
    op(acc[hi], src[lo], out=acc[hi])
    if d:  # at d = 0 both shifts are src itself
        op(acc[lo], src[hi], out=acc[lo])


def _window_reduce(x: np.ndarray, elem: StructuringElement, op, start) -> np.ndarray:
    """Reduce each pixel's border-clipped window over the last two axes of ``x``.

    ``op`` is a ufunc, associative and commutative, with ``start`` as its
    identity. A row pass grows running row segments, and a column pass
    combines the segment of every row offset dy, from the farthest offset
    inward, since a diamond's segment half-width r - |dy| only grows on the
    way. Offsets beyond the image reach nothing and are skipped, which bounds
    the work by the image size whatever the radius.
    """
    h, w = x.shape[-2:]
    r = elem.radius
    rows = x.copy()  # x reduced over row segments of half-width `grown`
    grown = 0
    out = np.full_like(x, start)
    for dy in range(min(r, h - 1), -1, -1):
        half = min(r if elem.shape == "square" else r - dy, w - 1)
        for dx in range(grown + 1, half + 1):
            _combine_shifted(rows, x, dx, -1, op)
        grown = max(grown, half)
        _combine_shifted(out, rows, dy, -2, op)
    return out


def dilate(mask: BinaryMask, elem: StructuringElement) -> BinaryMask:
    """Binary dilation of ``mask`` by ``elem``, border-clipped."""
    return BinaryMask(dilate_array(mask.bits, elem))


def dilate_array(bits: np.ndarray, elem: StructuringElement) -> np.ndarray:
    """Array-in, array-out :func:`dilate` of a (..., H, W) stack of masks, or of
    unsigned-integer bitsets, which keep their dtype."""
    bits = np.asarray(bits)
    return _window_reduce(bits if bits.dtype.kind == "u" else bits.astype(bool), elem,
                          np.bitwise_or, 0)


def soft_dilate(channel: np.ndarray, elem: StructuringElement,
                mode: str = "hard_max", beta: float = 20.0) -> np.ndarray:
    """Dilate a real-valued field, or a (..., H, W) stack of them, in [0, 1].

    See the module docstring for the modes.
    """
    out, _ = soft_dilate_forward(channel, elem, mode, beta)
    return out


def soft_dilate_forward(stack: np.ndarray, elem: StructuringElement,
                        mode: str = "hard_max", beta: float = 20.0):
    """Dilate every (H, W) field of a (..., H, W) stack.

    Returns (output, cache) where cache feeds :func:`soft_dilate_backward`.
    """
    # contiguous, so that every array derived from x is laid out row-major too
    x = np.ascontiguousarray(stack, dtype=np.float64)
    if x.ndim < 2 or x.size == 0:
        raise DomainError(f"expected nonempty (..., H, W) fields, got shape {x.shape}")
    # written so that NaN fails it: np.maximum would carry NaN through hard_max
    if not (x.min() >= 0.0 and x.max() <= 1.0 + 1e-6):
        raise DomainError("soft dilation expects values in [0, 1]")
    if mode not in SOFT_MODES:
        raise DomainError(f"mode must be one of {SOFT_MODES}, got {mode!r}")

    if mode == "hard_max":
        # key x - i * index: its window maximum holds the value and the winner
        key = np.arange(0, -x.size, -1).reshape(x.shape) * 1j
        key += x
        best = _window_reduce(key, elem, np.maximum, complex(-np.inf, -np.inf))
        return best.real, ("hard_max", (-best.imag).astype(np.intp))

    check_beta(beta)
    weight = np.exp(beta * (x - 1.0))
    expsum = _window_reduce(weight, elem, np.add, 0.0)
    raw = 1.0 + np.log(expsum) / beta
    # clamped pixels pass no gradient
    inv_open = np.divide(1.0, expsum, out=np.zeros_like(expsum), where=raw <= 1.0)
    return np.minimum(raw, 1.0), ("smooth_max", weight, inv_open, elem)


def soft_dilate_backward(grad_out: np.ndarray, cache) -> np.ndarray:
    """Gradient of :func:`soft_dilate_forward` with respect to the input stack.

    hard_max routes each output pixel's gradient to its window argmax;
    smooth_max distributes it with softmax weights. Output pixels clamped at
    1 pass no gradient.
    """
    if cache[0] == "hard_max":
        winner = cache[1]
        return np.bincount(winner.ravel(), weights=np.ravel(grad_out),
                           minlength=winner.size).reshape(winner.shape)
    # d out[y] / d x[p] = weight[p] / expsum[y] on p's window; windows are symmetric
    _, weight, inv_open, elem = cache
    grad_in = _window_reduce(grad_out * inv_open, elem, np.add, 0.0)
    return np.multiply(grad_in, weight, out=grad_in)
