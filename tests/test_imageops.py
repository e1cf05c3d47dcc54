import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vprkit.imageops import _overlap_weights, resize_area


def oracle_resize_area(img, height, width):
    """resize_area through its two products at every size, as it was
    before the same-size path."""
    wy = _overlap_weights(img.shape[0], height)
    wx = _overlap_weights(img.shape[1], width)
    flat = np.atleast_3d(img)
    out = np.tensordot(wy, flat, axes=(1, 0))  # (height, W, C)
    out = np.tensordot(out, wx, axes=(1, 1)).transpose(0, 2, 1)  # (height, width, C)
    return out.reshape(height, width, *img.shape[2:])


@settings(max_examples=300, deadline=None)
@given(src=st.integers(1, 300), dst=st.integers(1, 300))
@example(src=32, dst=64)  # upsampling, divisible
@example(src=256, dst=64)  # downsampling, divisible
@example(src=100, dst=64)  # downsampling, not divisible
@example(src=40, dst=64)  # upsampling, not divisible
@example(src=64, dst=64)  # same size: no identity short-cut
def test_cached_weights_are_a_read_only_copy_of_a_fresh_build(src, dst):
    w = _overlap_weights(src, dst)
    fresh = _overlap_weights.__wrapped__(src, dst)
    assert w.shape == (dst, src) and w.dtype == fresh.dtype
    assert w.tobytes() == fresh.tobytes()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert _overlap_weights(src, dst) is w
    with pytest.raises(ValueError):
        w[0, 0] = 0.5
    with pytest.raises(ValueError):
        w *= 1.0


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 80),
    w=st.integers(1, 80),
    channels=st.sampled_from([(3,), ()]),
    values=st.sampled_from(["uniform", "k/255", "signed zeros"]),
)
@example(seed=0, h=64, w=64, channels=(3,), values="uniform")
@example(seed=0, h=64, w=64, channels=(), values="signed zeros")
def test_same_size_resize_has_the_products_bits(seed, h, w, channels, values):
    rng = np.random.default_rng(seed)
    shape = (h, w, *channels)
    if values == "uniform":
        img = rng.random(shape)
    elif values == "k/255":
        img = rng.integers(0, 256, shape) / 255.0
    else:
        img = rng.choice([0.0, -0.0, 0.5], shape)
    before = img.tobytes()
    want = oracle_resize_area(img, h, w)
    got = resize_area(img, h, w)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert img.tobytes() == before and not np.shares_memory(got, img)
