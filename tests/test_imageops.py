import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vprkit.imageops import _overlap_weights


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
