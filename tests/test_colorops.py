import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vprkit.colorops import _hsv_planes, _rgb_planes, rotate_hue


# The (H, W, 3) hue rotation that the channel-plane rotate_hue replaced,
# kept verbatim as the oracle it must match bit for bit.
def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """RGB in [0,1] to HSV with hue in [0,1)."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.max(rgb, axis=-1)
    minc = np.min(rgb, axis=-1)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.maximum(maxc, 1e-20), 0.0)
    h = np.zeros_like(maxc)
    nonzero = delta > 0
    safe = np.maximum(delta, 1e-20)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(nonzero & (maxc == r), bc - gc, h)
    h = np.where(nonzero & (maxc == g) & (maxc != r), 2.0 + rc - bc, h)
    h = np.where(nonzero & (maxc == b) & (maxc != r) & (maxc != g), 4.0 + gc - rc, h)
    h = np.mod(h / 6.0, 1.0)
    return np.stack([h, s, v], axis=-1)


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """HSV (hue in [0,1)) back to RGB in [0,1]."""
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def oracle_rotate_hue(rgb: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate hue by the given angle, preserving saturation and value."""
    hsv = rgb_to_hsv(np.clip(rgb, 0.0, 1.0))
    hsv[..., 0] = np.mod(hsv[..., 0] + degrees / 360.0, 1.0)
    return hsv_to_rgb(hsv)


# Quarter and 8-bit steps make ties between channels (the where-chain's
# order decides them) and values on the sector edges of the hue wheel.
channel_values = (
    st.floats(-0.5, 1.5)
    | st.integers(-2, 6).map(lambda k: k / 4)
    | st.integers(-127, 382).map(lambda k: k / 255)
)
degrees = (
    st.floats(-1000.0, 1000.0)
    | st.integers(-3, 3).map(lambda k: 360.0 * k)
    | st.sampled_from([0.0, -0.0, 35.0, -40.0, 180.0])
)


@settings(max_examples=300, deadline=None)
@given(
    rgb=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6).map(
            lambda shape: shape + (3,)
        ),
        elements=channel_values,
    ),
    deg=degrees,
    fortran=st.booleans(),
)
@example(
    rgb=np.array([[0.0, -0.0, -0.0], [0.25, 0.25, 0.5], [1.0, 1.0, 1.0]]),
    deg=0.0,
    fortran=False,
)
def test_rotate_hue_matches_oracle_bit_for_bit(rgb, deg, fortran):
    if fortran:
        rgb = np.asfortranarray(rgb)
    want = oracle_rotate_hue(rgb, deg)
    got = rotate_hue(rgb, deg)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides  # C-contiguous, as luma's matmul needs
    assert got.tobytes() == want.tobytes()


def test_rotate_hue_on_a_rendered_size_image_matches_oracle():
    rgb = np.random.default_rng(0).uniform(-0.1, 1.1, (64, 64, 3))
    for deg in (35.0, -40.0, 360.0):
        assert rotate_hue(rgb, deg).tobytes() == oracle_rotate_hue(rgb, deg).tobytes()


# _hsv_planes and the hue step of rotate_hue as they were before the hue
# fold became x - floor(x), kept verbatim as the oracle.
def oracle_hsv_planes(r, g, b):
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.maximum(maxc, 1e-20), 0.0)
    nonzero = delta > 0
    safe = np.maximum(delta, 1e-20)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(nonzero & (maxc == r), bc - gc, 0.0)
    h = np.where(nonzero & (maxc == g) & (maxc != r), 2.0 + rc - bc, h)
    h = np.where(nonzero & (maxc == b) & (maxc != r) & (maxc != g), 4.0 + gc - rc, h)
    return np.mod(h / 6.0, 1.0), s, maxc


def oracle_rotated_hue(rgb, degrees):
    planes = np.ascontiguousarray(np.moveaxis(np.clip(rgb, 0.0, 1.0), -1, 0))
    h, s, v = oracle_hsv_planes(*planes)
    return np.mod(h + degrees / 360.0, 1.0), s, v


channel_planes = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6).map(
        lambda shape: (3,) + shape
    ),
    elements=channel_values | st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=300, deadline=None)
@given(planes=channel_planes, deg=degrees | st.floats(-720.0, 720.0))
@example(planes=np.array([[0.0, -0.0], [-0.0, 0.25], [-0.0, 0.0]]), deg=-360.0)
def test_hue_fold_matches_the_mod_oracle(planes, deg):
    """Signed zeros, out-of-range channels and whole turns: the folded hue
    has np.mod's bytes, and so does what rotate_hue feeds _rgb_planes."""
    for got, want in zip(_hsv_planes(*planes), oracle_hsv_planes(*planes)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    rgb = np.moveaxis(planes, 0, -1)
    h, s, v = oracle_rotated_hue(rgb, deg)
    want = np.stack(_rgb_planes(h, s, v), axis=-1)
    assert rotate_hue(rgb, deg).tobytes() == want.tobytes()


@settings(max_examples=500, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-0.0)
@example(x=-1e-300)
@example(x=-2.0**-60)
@example(x=-(1.0 - 2.0**-53))
def test_x_minus_floor_is_mod_one(x):
    a = np.array([x])
    a -= np.floor(a)
    assert a.tobytes() == np.mod(np.array([x]), 1.0).tobytes()


def oracle_rgb_planes(h, s, v):
    """_rgb_planes as it was before it took from the stacked planes: one
    np.choose per channel."""
    h6 = h * 6.0
    i = np.floor(h6)
    f = h6 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    return (
        np.choose(i, [v, q, p, p, t, v]),
        np.choose(i, [t, v, v, q, p, p]),
        np.choose(i, [p, p, t, v, v, q]),
    )


# Hue on and next to the sector edges k/6, and past [0, 1), where the
# sector index wraps.
hues = st.floats(-1.0, 2.0) | st.integers(-6, 12).map(lambda k: k / 6)


@settings(max_examples=300, deadline=None)
@given(
    hsv=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6).map(
            lambda shape: (3,) + shape
        ),
        elements=hues,
    ),
)
def test_rgb_planes_match_the_choose_oracle(hsv):
    h, s, v = hsv[0], np.clip(hsv[1], 0.0, 1.0), np.clip(hsv[2], 0.0, 1.0)
    for got, want in zip(_rgb_planes(h, s, v), oracle_rgb_planes(h, s, v)):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
