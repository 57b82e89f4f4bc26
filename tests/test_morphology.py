import numpy as np
import pytest

from partgraph import DomainError, StructuringElement, soft_dilate
from partgraph.morphology import _chunks, dilate_array, soft_dilate_backward, soft_dilate_forward

from oracles import (
    dilate_oracle,
    fd_check,
    rel_err,
    sample_coords,
    soft_dilate_backward_oracle,
    soft_dilate_forward_oracle,
    window_max_oracle,
)


def test_element_neighborhoods():
    center = np.zeros((5, 5), dtype=bool)
    center[2, 2] = True
    square = dilate_array(center, StructuringElement("square", 1))
    assert square.sum() == 9 and square[1:4, 1:4].all()
    diamond = dilate_array(center, StructuringElement("diamond", 1))
    assert sorted(zip(*np.nonzero(diamond))) == [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]
    with pytest.raises(DomainError):
        StructuringElement("circle", 1)
    with pytest.raises(DomainError):
        StructuringElement("square", -1)


@pytest.mark.parametrize("shape", [(), (5,)])
def test_dilate_array_rejects_fewer_than_two_dimensions(shape):
    with pytest.raises(DomainError, match=r"\(\.\.\., H, W\)"):
        dilate_array(np.zeros(shape, dtype=bool), StructuringElement("square", 1))


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 2.5])
def test_element_rejects_a_radius_that_is_not_a_whole_number(radius):
    with pytest.raises(DomainError, match="radius must be a nonnegative integer"):
        StructuringElement("square", radius)


def test_dilate_empty_and_identity():
    empty = np.zeros((4, 5), dtype=bool)
    for shape in ("square", "diamond"):
        out = dilate_array(empty, StructuringElement(shape, 3))
        assert not out.any()
    rng = np.random.default_rng(0)
    mask = rng.random((6, 6)) < 0.4
    out = dilate_array(mask, StructuringElement("square", 0))
    assert np.array_equal(out, mask)


def test_dilate_center_pixel_fills_canvas():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 2] = True
    out = dilate_array(bits, StructuringElement("square", 2))
    want = dilate_oracle(bits, "square", 2)
    assert want.all()  # radius 2 from the center covers the 5x5 canvas
    assert np.array_equal(out, want)


@pytest.mark.parametrize("shape", ["square", "diamond"])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_dilate_matches_neighborhood_scan(shape, radius):
    rng = np.random.default_rng(radius * 11 + (shape == "diamond"))
    for _ in range(5):
        bits = rng.random((9, 7)) < 0.25
        out = dilate_array(bits, StructuringElement(shape, radius))
        assert np.array_equal(out, dilate_oracle(bits, shape, radius))


def test_dilate_extensive_and_monotone():
    rng = np.random.default_rng(5)
    elem = StructuringElement("diamond", 2)
    small = rng.random((8, 8)) < 0.3
    large = small | (rng.random((8, 8)) < 0.2)
    d_small = dilate_array(small, elem)
    d_large = dilate_array(large, elem)
    assert np.all(d_small >= small)  # extensivity
    assert np.all(d_large >= d_small)  # monotonicity


def test_square_dilations_compose_additively():
    rng = np.random.default_rng(6)
    bits = rng.random((10, 10)) < 0.15
    twice = dilate_array(dilate_array(bits, StructuringElement("square", 1)),
                         StructuringElement("square", 2))
    once = dilate_array(bits, StructuringElement("square", 3))
    assert np.array_equal(twice, once)


def test_soft_hard_max_equals_dilate_on_binary_fields():
    rng = np.random.default_rng(7)
    bits = rng.random((7, 7)) < 0.3
    elem = StructuringElement("square", 2)
    soft = soft_dilate(bits.astype(float), elem, mode="hard_max")
    hard = dilate_array(bits, elem)
    assert np.array_equal(soft, hard.astype(float))


def test_soft_constant_field_is_fixed_point():
    field = np.full((5, 6), 0.37)
    out = soft_dilate(field, StructuringElement("diamond", 2), mode="hard_max")
    assert np.array_equal(out, field)


def test_soft_hard_max_matches_window_oracle():
    rng = np.random.default_rng(8)
    field = rng.random((6, 6))
    out = soft_dilate(field, StructuringElement("square", 1), mode="hard_max")
    assert np.allclose(out, window_max_oracle(field, "square", 1), atol=0)


def test_soft_hard_max_bounds():
    rng = np.random.default_rng(9)
    field = rng.random((8, 8))
    out = soft_dilate(field, StructuringElement("square", 2), mode="hard_max")
    assert np.all(out >= field)
    assert np.all(out <= 1.0)


def test_smooth_max_rejects_bad_beta():
    field = np.zeros((3, 3))
    elem = StructuringElement("square", 1)
    for beta in (0.0, -1.0, float("nan"), float("inf"), 700.5):
        with pytest.raises(DomainError):
            soft_dilate(field, elem, mode="smooth_max", beta=beta)
    with pytest.raises(DomainError):
        soft_dilate(field, elem, mode="bogus")
    # the largest accepted beta keeps every output finite
    assert np.isfinite(soft_dilate(field, elem, mode="smooth_max", beta=700.0)).all()


@pytest.mark.parametrize("mode", ["hard_max", "smooth_max"])
@pytest.mark.parametrize("bad", [float("nan"), -0.25, 1.5])
def test_soft_dilate_rejects_values_outside_unit_range(mode, bad):
    # NaN must fail the range check too: hard_max's np.maximum would carry it
    field = np.full((6, 6), 0.5)
    field[2, 3] = bad
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        soft_dilate(field, StructuringElement("square", 1), mode=mode)


@pytest.mark.parametrize("mode", ["hard_max", "smooth_max"])
@pytest.mark.parametrize("shape", [(0, 4, 4), (4, 0), (3, 4, 0)])
def test_soft_dilate_rejects_zero_size_stacks(mode, shape):
    # the range check reduces over the stack, which numpy refuses for zero size
    with pytest.raises(DomainError, match="nonempty"):
        soft_dilate(np.zeros(shape), StructuringElement("square", 1), mode=mode)


def test_smooth_max_dominates_hard_max_until_clamp():
    rng = np.random.default_rng(10)
    field = rng.random((6, 6)) * 0.5
    elem = StructuringElement("square", 1)
    smooth = soft_dilate(field, elem, mode="smooth_max", beta=20.0)
    hard = soft_dilate(field, elem, mode="hard_max")
    assert np.all(smooth >= hard - 1e-12)
    assert np.all(smooth <= 1.0)


def test_smooth_max_clamps_to_one():
    field = np.full((4, 4), 0.999)
    out = soft_dilate(field, StructuringElement("square", 1), mode="smooth_max", beta=20.0)
    assert np.all(out == 1.0)


@pytest.mark.parametrize("mode,beta", [("smooth_max", 20.0), ("smooth_max", 5.0)])
def test_smooth_backward_matches_finite_differences(mode, beta):
    rng = np.random.default_rng(11)
    field = (rng.random((6, 6)) * 0.8 + 0.05)
    elem = StructuringElement("square", 1)
    out, cache = soft_dilate_forward(field, elem, mode, beta)
    probe = rng.standard_normal(out.shape)
    grad = soft_dilate_backward(probe, cache)

    def objective(x):
        y, _ = soft_dilate_forward(x, elem, mode, beta)
        return float((y * probe).sum())

    coords = sample_coords(rng, field.shape, 20)
    assert fd_check(objective, field, grad, coords) < 1e-5


def test_hard_backward_routes_to_first_argmax():
    # two equal maxima in one window: the lower row-major index wins
    field = np.array([[0.5, 0.5], [0.1, 0.1]])
    out, cache = soft_dilate_forward(field, StructuringElement("square", 1), "hard_max")
    grad = soft_dilate_backward(np.ones_like(out), cache)
    # every window's max is 0.5; pixel (0,0) is the first maximum for all four windows
    assert grad[0, 0] == 4.0
    assert grad[0, 1] == 0.0
    assert grad[1, 0] == 0.0


def test_hard_backward_matches_finite_differences_off_ties():
    rng = np.random.default_rng(12)
    field = rng.random((6, 6)) * 0.9 + 0.05
    elem = StructuringElement("diamond", 1)
    out, cache = soft_dilate_forward(field, elem, "hard_max")
    probe = rng.standard_normal(out.shape)
    grad = soft_dilate_backward(probe, cache)

    def objective(x):
        y, _ = soft_dilate_forward(x, elem, "hard_max")
        return float((y * probe).sum())

    coords = sample_coords(rng, field.shape, 20)
    assert fd_check(objective, field, grad, coords) < 1e-6


# radii 0, 1, 2 and two beyond the 5 x 7 fields: max(H, W) and past H + W - 2
@pytest.mark.parametrize("radius", [0, 1, 2, 7, 15])
@pytest.mark.parametrize("shape", ["square", "diamond"])
@pytest.mark.parametrize("mode", ["binary", "hard_max", "smooth_max"])
def test_stacked_kernel_matches_offset_loop_oracle(mode, shape, radius):
    rng = np.random.default_rng(13 + radius)
    stack = rng.random((3, 5, 7))
    stack[1, 1:3, 2:5] = stack[1].max()  # a plateau, so hard_max has ties to break
    elem = StructuringElement(shape, radius)
    if mode == "binary":
        out = dilate_array(stack < 0.3, elem)
        assert out.dtype == bool
        for ch in range(stack.shape[0]):
            assert np.array_equal(out[ch], dilate_oracle(stack[ch] < 0.3, shape, radius))
        # a uint64 bitset stack, each bit set with probability 1/8: every bit
        # dilates as its own mask, and the dtype stays
        draws = rng.integers(0, 2**64, (3,) + stack.shape, dtype=np.uint64)
        bitsets = draws[0] & draws[1] & draws[2]
        out = dilate_array(bitsets, elem)
        assert out.dtype == np.uint64
        for bit in np.arange(64, dtype=np.uint64):
            got = (out >> bit) & np.uint64(1)
            for ch in range(stack.shape[0]):
                want = dilate_oracle(((bitsets[ch] >> bit) & np.uint64(1)) == 1, shape, radius)
                assert np.array_equal(got[ch] == 1, want), (int(bit), ch)
        return
    probe = rng.standard_normal(stack.shape)
    out, cache = soft_dilate_forward(stack, elem, mode, 20.0)
    grad = soft_dilate_backward(probe, cache)
    for ch in range(stack.shape[0]):
        want, want_cache = soft_dilate_forward_oracle(stack[ch], shape, radius, mode, 20.0)
        want_grad = soft_dilate_backward_oracle(probe[ch], want_cache)
        if mode == "hard_max":
            assert np.array_equal(out[ch], want)
        else:
            np.testing.assert_allclose(out[ch], want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad[ch], want_grad, rtol=1e-12, atol=0)
    # a stack of three chunks of two fields, whose second chunk straddles the
    # leading axis: every field comes out as if dilated alone
    stack = rng.random((2, 3, 128, 256))
    assert len(_chunks(stack.reshape(-1, 128, 256))) == 3
    probe = rng.standard_normal(stack.shape)
    out, cache = soft_dilate_forward(stack, elem, mode, 20.0)
    grad = soft_dilate_backward(probe, cache)
    for field in np.ndindex(stack.shape[:2]):
        want, want_cache = soft_dilate_forward(stack[field], elem, mode, 20.0)
        assert np.array_equal(out[field], want)
        assert np.array_equal(grad[field], soft_dilate_backward(probe[field], want_cache))


@pytest.mark.parametrize("shape", [(5, 0), (0, 5), (0, 0), (3, 0, 4)])
@pytest.mark.parametrize("dtype", [bool, np.uint64])
def test_dilate_array_keeps_zero_size_stacks(shape, dtype):
    out = dilate_array(np.zeros(shape, dtype=dtype), StructuringElement("square", 2))
    assert out.shape == shape and out.dtype == dtype


# the window reduction shifts whole flattened chunks: set pixels only in the last
# row and column of each field, where a shift that ran past the field's pad would
# land in the next row or the next field of the same chunk
@pytest.mark.parametrize("field", [(6, 5), (1, 7), (7, 1)])
@pytest.mark.parametrize("shape", ["square", "diamond"])
def test_shifts_never_wrap_into_the_next_row_or_field(field, shape):
    h, w = field
    rng = np.random.default_rng(h * 10 + w)
    edge = np.zeros((3, h, w), dtype=bool)
    edge[:, -1, :] = edge[:, :, -1] = True
    stack = np.where(edge, 0.9 + 0.1 * rng.random(edge.shape), 0.05 * rng.random(edge.shape))
    assert len(_chunks(stack)) == 1
    bits = np.array([1, 2**40, 2**63], dtype=np.uint64)[:, None, None] * edge
    probe = rng.standard_normal(stack.shape)
    for radius in sorted({1, 2, w - 1, w + 3, h - 1, h + 3}):
        elem = StructuringElement(shape, radius)
        masks, words = dilate_array(edge, elem), dilate_array(bits, elem)
        for f in range(len(stack)):
            want = dilate_oracle(edge[f], shape, radius)
            assert np.array_equal(masks[f], want), (radius, f)
            assert np.array_equal(words[f], np.where(want, bits[f].max(), 0)), (radius, f)
        for mode in ("hard_max", "smooth_max"):
            out, cache = soft_dilate_forward(stack, elem, mode, 20.0)
            grad = soft_dilate_backward(probe, cache)
            for f in range(len(stack)):
                want, want_cache = soft_dilate_forward_oracle(stack[f], shape, radius, mode, 20.0)
                if mode == "hard_max":
                    assert np.array_equal(out[f], want), (radius, f)
                else:
                    np.testing.assert_allclose(out[f], want, rtol=1e-12, atol=0)
                np.testing.assert_allclose(grad[f], soft_dilate_backward_oracle(probe[f], want_cache),
                                           rtol=1e-12, atol=0)
