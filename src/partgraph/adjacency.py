"""Weighted part-adjacency graphs and the graph-matching loss.

A part-adjacency matrix measures, for every pair of part classes, how
strongly the two parts touch in an image. Raw entry (i, j) counts pixels in
the intersection of the two part masks after each is dilated by half the
distance threshold, so parts separated by a thin gap still register: the
pixels whose window holds both parts. The discrete path numbers the present
parts from a label histogram and dilates per-pixel part bitsets once, so
each pixel holds the set of parts in its window. Pixels next in raster order
with equal sets merge into runs; sorted on all their words, the runs fall
into one group per distinct set, whose lengths sum to the set's pixel count.
Unpacked into 0/1 part-membership rows M, the sets give every pair's count
as an entry of (M * counts)^T M, summed over chunks of sets whose size
follows from the image size. Rows are then L2-normalized into proximity
ratios, and the graph-matching loss is the Frobenius distance between the
reference and predicted normalized matrices.

The prediction-side path is differentiable: part masks are replaced by
soft-dilated probability channels and the count becomes a sum of products.
On a one-hot prediction with hard-max dilation it equals the discrete
counts, so a perfect prediction scores exactly 0.

All of it is one private function over a (C, N, H, W) block of N scenes, the
layout the network emits, that returns the raw adjacencies, the losses and the
gradient, each only when asked for; the gradient comes back in the buffer the
dilation backward owns. Every channel dilates as given; without background,
channel 0's rows of D and grad_D are zeroed, so its gradient is exactly 0. The
public (H, W, C) entries wrap the function on a block of one scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelMap, ProbMap, _check_fits, _freeze
from .errors import DomainError
from .morphology import (
    StructuringElement,
    check_beta,
    check_soft_mode,
    dilate_array,
    soft_dilate_backward,
    soft_dilate_forward,
    whole_number,
)

WEIGHTINGS = ("weighted", "unweighted")

RAW_COUNTS = "raw_counts"
NORMALIZED = "normalized"
NORM_TOL = 1e-9
# Pixel columns per product in the graph-matching backward, which writes
# (G + G^T) D over D a chunk at a time: the product's temporary is C x 8 KiB
_GRAD_COLUMNS = 1024


@dataclass(frozen=True)
class AdjacencyMatrix:
    """N_p x N_p nonnegative adjacency weights with a zero diagonal.

    ``kind`` is either ``raw_counts`` (dilated-intersection counts, possibly
    binarized) or ``normalized`` (every nonzero row has unit L2 norm). A contiguous
    float64 array is stored itself, not a copy, and becomes read-only.
    """

    entries: np.ndarray
    kind: str = RAW_COUNTS

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DomainError(f"adjacency matrix must be square, got shape {arr.shape}")
        if self.kind not in (RAW_COUNTS, NORMALIZED):
            raise DomainError(f"unknown adjacency kind {self.kind!r}")
        if not np.isfinite(arr).all():
            raise DomainError("adjacency entries must be finite")
        if arr.min() < 0.0:
            raise DomainError("adjacency entries must be nonnegative")
        if np.abs(np.diag(arr)).max(initial=0.0) != 0.0:
            raise DomainError("adjacency diagonal must be zero (no self-connections)")
        if self.kind == NORMALIZED:
            norms = np.linalg.norm(arr, axis=1)
            bad = norms[norms > 0.0]
            if bad.size and np.abs(bad - 1.0).max() > NORM_TOL:
                raise DomainError("normalized rows must have unit L2 norm or be all zero")
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class AdjacencyConfig:
    """How adjacency graphs are built.

    ``distance_threshold`` is the pixel distance T under which two parts
    count as adjacent; the dilation radius is ceil(T / 2). ``weighting``
    switches between proximity counts and a binarized (unweighted) graph.
    ``soft_mode``/``beta`` select the soft-dilation flavor used on the
    prediction side (smooth_max is the differentiable choice).
    """

    distance_threshold: int = 4
    element_shape: str = "square"
    weighting: str = "weighted"
    include_background: bool = True
    soft_mode: str = "smooth_max"
    beta: float = 20.0

    def __post_init__(self):
        object.__setattr__(self, "distance_threshold",
                           whole_number(self.distance_threshold, "distance threshold"))
        if self.weighting not in WEIGHTINGS:
            raise DomainError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        check_soft_mode(self.soft_mode)
        check_beta(self.beta)
        StructuringElement(self.element_shape, 0)  # rejects an unknown shape

    @property
    def dilation_radius(self) -> int:
        return (self.distance_threshold + 1) // 2

    @property
    def element(self) -> StructuringElement:
        return StructuringElement(self.element_shape, self.dilation_radius)


def _apply_weighting(raw: np.ndarray, weighting: str) -> np.ndarray:
    """Weighted graphs keep the counts; unweighted graphs saturate them at 1.

    min(x, 1) equals the positive-count indicator on integer counts and stays
    defined (with subgradient 0 above 1) on the soft path.
    """
    if weighting == "unweighted":
        return np.minimum(raw, 1.0)
    return raw


def _run_starts(sets: np.ndarray) -> np.ndarray:
    """First column of each run of equal columns, on all the words of (words, n) bitsets."""
    return np.flatnonzero(np.r_[True, (sets[:, 1:] != sets[:, :-1]).any(axis=0)])


def adjacency_from_labels(label_map: LabelMap, num_parts: int,
                          cfg: AdjacencyConfig) -> AdjacencyMatrix:
    """Raw-count adjacency matrix of a discrete label map."""
    if num_parts < 1:
        raise DomainError(f"num_parts must be >= 1, got {num_parts}")
    _check_fits(label_map, num_parts)
    labels = label_map.labels

    # present part k is bit k % 64 of word k // 64 of each pixel's bitset; the
    # histogram numbers the present parts and is as long as the largest label
    hist = np.bincount(labels.ravel())
    present = np.flatnonzero(hist)
    part = (np.cumsum(hist > 0) - 1)[labels.ravel()]
    sets = np.where(part >> 6 == np.arange(-(-present.size // 64))[:, None],
                    np.uint64(1) << (part & 63).astype(np.uint64), np.uint64(0))
    del hist, part
    sets = dilate_array(sets.reshape((-1,) + labels.shape), cfg.element).reshape(sets.shape)
    # raster runs of equal sets, as (first pixel, length); sorted on all their
    # words, the runs fall into one group per distinct set, whose lengths sum to
    # the set's pixel count
    heads = _run_starts(sets)
    lengths = np.diff(np.r_[heads, labels.size])
    sets = sets[:, heads]
    order = np.lexsort(sets)
    sets, lengths = sets[:, order], lengths[order]
    starts = _run_starts(sets)
    counts = np.add.reduceat(lengths, starts).astype(np.float64)
    windows = np.ascontiguousarray(sets[:, starts].T, dtype="<u8")
    del heads, order, lengths, sets  # freed before the matrices are built, for the peak memory
    # block[i, j] sums the counts of the sets that hold present parts i and j: a
    # product of 0/1 membership rows, H * W / 64 sets at a time, so that a chunk's
    # float rows take about the bytes of the bitsets
    block = np.zeros((present.size, present.size))
    chunk = max(1, labels.size // 64)
    for lo in range(0, counts.size, chunk):
        members = np.unpackbits(windows[lo:lo + chunk].view(np.uint8), axis=1,
                                count=present.size, bitorder="little").astype(np.float64)
        block += (members * counts[lo:lo + chunk, None]).T @ members
    raw = np.zeros((num_parts, num_parts))
    raw[np.ix_(present, present)] = block
    np.fill_diagonal(raw, 0.0)
    if not cfg.include_background:
        raw[0] = raw[:, 0] = 0.0
    return AdjacencyMatrix(_apply_weighting(raw, cfg.weighting), RAW_COUNTS)


def normalize_rows(matrix: AdjacencyMatrix) -> AdjacencyMatrix:
    """Row-wise L2 normalization into proximity ratios. Zero rows stay zero."""
    if matrix.kind != RAW_COUNTS:
        raise DomainError("normalize_rows expects a raw-counts matrix")
    return AdjacencyMatrix(_unit_rows(matrix.entries)[0], NORMALIZED)


def _unit_rows(raw: np.ndarray):
    """``raw`` with every nonzero row (last axis) scaled to unit L2 norm, and the row norms."""
    norms = np.linalg.norm(raw, axis=-1)
    return raw / np.where(norms > 0.0, norms, 1.0)[..., None], norms


def soft_adjacency(pred: ProbMap, cfg: AdjacencyConfig):
    """Adjacency of a probability map via soft dilation and channel products.

    Returns (raw, normalized) matrices. Raw entry (i, j), i != j, is the sum
    over pixels of the product of the soft-dilated channels i and j. On a
    one-hot input with hard_max this reproduces the discrete counts of the
    argmax map exactly.
    """
    raw, _, _ = _graph_matching(np.moveaxis(pred.probs, 2, 0)[:, None], cfg)
    raw_m = AdjacencyMatrix(raw[0], RAW_COUNTS)
    return raw_m, normalize_rows(raw_m)


def gm_value_and_grad(probs: np.ndarray, reference: AdjacencyMatrix, cfg: AdjacencyConfig):
    """(loss, gradient) of the graph-matching loss for an (H, W, C) probability array."""
    _, losses, grad = _graph_matching(np.moveaxis(probs, 2, 0)[:, None], cfg, [reference], 1.0)
    return float(losses[0]), np.moveaxis(grad[:, 0], 0, 2)


def gm_value(probs: np.ndarray, reference: AdjacencyMatrix, cfg: AdjacencyConfig) -> float:
    """Loss-only variant of :func:`gm_value_and_grad` (used by finite-difference checks)."""
    return float(_graph_matching(np.moveaxis(probs, 2, 0)[:, None], cfg, [reference])[1][0])


def _graph_matching(block: np.ndarray, cfg: AdjacencyConfig, references=None, scale=None):
    """Graph matching on a (C, N, H, W) block of N scenes: (raw, losses, grad).

    ``raw`` holds the N raw soft adjacencies. Given a normalized C x C reference
    per scene, ``losses`` holds their Frobenius distances to the row-normalized
    ``raw``; given also ``scale``, ``grad`` is ``scale`` times each scene's loss
    gradient as a (C, N, H, W) block. A result not asked for is None, so a
    loss-only call never runs the dilation backward.

    The gradient differentiates loss -> row normalization -> soft adjacency ->
    soft dilation. With ``smooth_max`` the chain is smooth; with ``hard_max``
    the window-argmax subgradient is used. A scene at a loss of exactly 0 gets
    the zero gradient, and without background channel 0 gets exactly 0. D is
    overwritten by grad_D, and ``grad`` is the dilation backward's own buffer
    (smooth-max's ``inv_open``, hard-max's ``bincount`` output), scaled in place.
    """
    c, n, h, w = block.shape
    for reference in references or ():
        if reference.kind != NORMALIZED:
            raise DomainError("reference adjacency matrix must be normalized")
        if reference.size != c:
            raise DomainError(f"reference matrix is {reference.size} x {reference.size} but "
                              f"the prediction has {c} channels")
    # every channel dilates as given, so the gradient fills a buffer of the block's size;
    # without background, D's zeroed row 0 keeps channel 0 out of the products
    first = 0 if cfg.include_background else 1
    fields, state = soft_dilate_forward(block, cfg.element, cfg.soft_mode, cfg.beta)
    fields[:first] = 0.0
    dilated = fields.reshape(c, n, h * w).swapaxes(0, 1)  # a C x HW matrix D per scene
    counts = dilated @ dilated.swapaxes(1, 2)
    counts[:, range(c), range(c)] = 0.0
    raw = _apply_weighting(counts, cfg.weighting)
    if references is None:
        return raw, None, None
    unit, norms = _unit_rows(raw)
    diff = unit - np.stack([reference.entries for reference in references])
    # per scene the dot product np.linalg.norm takes of one flattened matrix
    flat = diff.reshape(n, 1, c * c)
    losses = np.sqrt(flat @ flat.swapaxes(1, 2)).ravel()
    if scale is None:
        return raw, losses, None

    scene_losses = losses[:, None, None]
    grad_norm = diff / np.where(scene_losses > 0.0, scene_losses, np.inf)
    # through row normalization: for nonzero rows u with n = u / |u|, grad_u = (grad_n
    # - n (n . grad_n)) / |u|, zero on the diagonal as n and grad_n are; zero rows pass nothing
    norms = norms[..., None]
    inner = np.sum(unit * grad_norm, axis=-1, keepdims=True)
    grad_raw = np.divide(grad_norm - unit * inner, norms, out=np.zeros_like(unit),
                         where=norms > 0.0)
    if cfg.weighting == "unweighted":
        grad_raw *= counts < 1.0
    # counts = D D^T, so grad_D = (G + G^T) D, written over D a column chunk at a time
    sym = grad_raw + grad_raw.swapaxes(1, 2)
    for lo in range(0, h * w, _GRAD_COLUMNS):
        columns = dilated[..., lo:lo + _GRAD_COLUMNS]
        columns[...] = sym @ columns
    fields[:first] = 0.0  # a background column of G would reach channel 0
    grad = soft_dilate_backward(fields, state)
    return raw, losses, np.multiply(grad, scale, out=grad)
