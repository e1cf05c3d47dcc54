import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vprkit as vk
from vprkit.augmentation import (
    _OPS,
    AugmentationOp,
    AugmentationSpec,
    _box_blur,
    _crop_resize,
    _warp_perspective,
)
from vprkit.colorops import adjust_contrast, luma, rotate_hue
from vprkit.errors import ShapeError, VprError
from vprkit.imageops import sample_bilinear


def rng_for(seed):
    return np.random.default_rng(seed)


def constant_image(value=0.5, size=24):
    return vk.ImageRecord(
        id="c", pixels=np.full((size, size, 3), value), pose=vk.Pose(1.0, 2.0)
    )


class TestSampleOp:
    def test_same_seed_same_sequence(self):
        spec = AugmentationSpec()
        a = rng_for(7)
        b = rng_for(7)
        seq_a = [vk.sample_op(spec, a).tag() for _ in range(30)]
        seq_b = [vk.sample_op(spec, b).tag() for _ in range(30)]
        assert seq_a == seq_b

    def test_kind_frequencies_roughly_uniform(self):
        spec = AugmentationSpec(categories=frozenset({"viewpoint"}))
        kinds = spec.enabled_kinds()
        assert len(kinds) == 2
        rng = rng_for(123)
        counts = {k: 0 for k in kinds}
        n = 12000
        for _ in range(n):
            counts[vk.sample_op(spec, rng).kind] += 1
        for k in kinds:
            assert abs(counts[k] / n - 1 / 2) < 0.05

    def test_none_category_set_yields_identity(self):
        spec = AugmentationSpec.from_string("none")
        assert vk.sample_op(spec, rng_for(0)).kind == "identity"

    def test_bad_category_string(self):
        with pytest.raises(VprError):
            AugmentationSpec.from_string("appearance,weather")

    @pytest.mark.parametrize("text", ["", " , ", "appearance,", ",viewpoint"])
    def test_empty_entry_is_refused(self, text):
        """Only 'none' names the no-augmentation baseline."""
        with pytest.raises(VprError, match="unknown augmentation category ''"):
            AugmentationSpec.from_string(text)

    def test_sampled_sequence_is_pinned(self):
        """Tag and exact parameters of two draws per seed, for every spec
        the CLI offers. A change to the menu, its order, the ranges or the
        order of random draws changes the digest."""
        h = hashlib.sha256()
        for text in ("none", "appearance", "viewpoint", "appearance,viewpoint"):
            spec = AugmentationSpec.from_string(text)
            for seed in range(1000):
                rng = rng_for(seed)
                for _ in range(2):
                    op = vk.sample_op(spec, rng)
                    h.update(f"{op.tag()} {op.params!r}\n".encode())
        assert h.hexdigest() == (
            "d376438399dbb566ab4ce92530b28698f35aad559ea78d087bf2d78fa4807c02"
        )


ALL_KINDS = sorted(_OPS)


def op_for(kind):
    params = {
        "brightness": (0.2,),
        "contrast": (1.3,),
        "hue_shift": (30.0,),
        "gamma": (1.5,),
        "gaussian_noise": (0.05,),
        "box_blur": (2,),
        "crop_resize": (0.8, 0.1, 0.05),
        "perspective_jitter": tuple(np.linspace(-0.08, 0.08, 8)),
    }.get(kind, ())
    return AugmentationOp(kind, params)


class TestApply:
    def test_identity_is_bitwise(self):
        img = constant_image()
        out = vk.apply(img, AugmentationOp("identity"), rng_for(0))
        np.testing.assert_array_equal(out.pixels, img.pixels)
        assert out.pose == img.pose

    def test_brightness_hand_arithmetic(self):
        out = vk.apply(constant_image(0.5), AugmentationOp("brightness", (0.2,)), rng_for(0))
        np.testing.assert_allclose(out.pixels, 0.7, atol=1e-12)

    def test_brightness_clamps_at_one(self):
        out = vk.apply(constant_image(0.5), AugmentationOp("brightness", (0.9,)), rng_for(0))
        np.testing.assert_array_equal(out.pixels, np.ones_like(out.pixels))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_op_preserves_pose_dims_and_range(self, kind):
        rng = rng_for(11)
        img = vk.ImageRecord(id="x", pixels=rng.random((20, 20, 3)), pose=vk.Pose(3.0, -4.0))
        out = vk.apply(img, op_for(kind), rng_for(5))
        assert out.pose == img.pose
        assert out.pixels.shape == img.pixels.shape
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0
        assert out.id.startswith("x#")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_replay_is_bit_identical(self, kind):
        img = vk.ImageRecord(id="x", pixels=rng_for(1).random((20, 20, 3)), pose=vk.Pose(0, 0))
        a = vk.apply(img, op_for(kind), rng_for(9))
        b = vk.apply(img, op_for(kind), rng_for(9))
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_grayscale_has_equal_channels(self):
        img = vk.ImageRecord(id="x", pixels=rng_for(3).random((8, 8, 3)), pose=None)
        out = vk.apply(img, AugmentationOp("grayscale"), rng_for(0))
        np.testing.assert_array_equal(out.pixels[..., 0], out.pixels[..., 1])
        np.testing.assert_array_equal(out.pixels[..., 1], out.pixels[..., 2])


def oracle_sample_bilinear(img, ys, xs):
    """sample_bilinear as it was before it gathered from channel planes:
    four fancy-index gathers on (H, W, C)."""
    h, w = img.shape[:2]
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[..., None]
    fx = (xs - x0)[..., None]
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def oracle_warp_perspective(img, disp):
    """_warp_perspective as it was before its grid was broadcast and its
    system built with array ops; it samples with the oracle sampler."""
    h, w = img.shape[:2]
    side = float(min(h, w))
    corners_dst = np.array([[0, 0], [w - 1, 0], [w - 1, h - 1], [0, h - 1]], float)
    corners_src = corners_dst + np.asarray(disp, dtype=np.float64).reshape(4, 2) * side
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(corners_dst, corners_src)):
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        b[2 * i] = u
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i + 1] = v
    hom = np.append(np.linalg.solve(a, b), 1.0).reshape(3, 3)
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    denom = hom[2, 0] * xs + hom[2, 1] * ys + hom[2, 2]
    u = (hom[0, 0] * xs + hom[0, 1] * ys + hom[0, 2]) / denom
    v = (hom[1, 0] * xs + hom[1, 1] * ys + hom[1, 2]) / denom
    return oracle_sample_bilinear(img, v, u)


def oracle_crop_resize(img, scale, ox, oy):
    """_crop_resize as it was before it became separable: the oracle
    sampler on the full crop grid."""
    h, w = img.shape[:2]
    y0, x0 = oy * (h - 1), ox * (w - 1)
    ys = y0 + np.linspace(0.0, scale * (h - 1), h)
    xs = x0 + np.linspace(0.0, scale * (w - 1), w)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return oracle_sample_bilinear(img, grid_y, grid_x)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


unit = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 99),
    w=st.integers(1, 99),
    scale=st.floats(0.01, 1.0) | st.just(1.0),
    ox=unit,
    oy=unit,
)
@example(seed=0, h=64, w=64, scale=0.8, ox=0.1, oy=0.05)
@example(seed=1, h=64, w=64, scale=1.0, ox=0.0, oy=0.0)
def test_crop_resize_equals_the_full_grid_oracle(seed, h, w, scale, ox, oy):
    img = rng_for(seed).random((h, w, 3))
    assert_same_array(_crop_resize(img, scale, ox, oy), oracle_crop_resize(img, scale, ox, oy))


# Coordinates reach past both edges, so the clamp is exercised.
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 80),
    w=st.integers(1, 80),
    grid=st.lists(st.integers(0, 9), min_size=0, max_size=3).map(tuple),
    layout=st.sampled_from(["C", "F", "strided"]),
)
@example(seed=0, h=1, w=1, grid=(1, 1), layout="C")
@example(seed=0, h=64, w=64, grid=(64, 64), layout="C")
def test_sample_bilinear_equals_the_fancy_index_oracle(seed, h, w, grid, layout):
    """Bytes, on 1-pixel images and axes and any input layout."""
    rng = rng_for(seed)
    img = rng.random((h, w, 3))
    if layout == "F":
        img = np.asfortranarray(img)
    elif layout == "strided":
        img = rng.random((h, 2 * w, 3))[:, ::2]
    ys = rng.uniform(-2.0, h + 1.0, grid)
    xs = rng.uniform(-2.0, w + 1.0, grid)
    assert_same_array(sample_bilinear(img, ys, xs), oracle_sample_bilinear(img, ys, xs))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 80),
    w=st.integers(1, 80),
    disp=st.lists(st.floats(-0.2, 0.2), min_size=8, max_size=8).map(tuple),
)
@example(seed=0, h=64, w=64, disp=tuple(np.linspace(-0.08, 0.08, 8)))
@example(seed=0, h=1, w=8, disp=(0.0,) * 8)
@example(seed=0, h=8, w=1, disp=(0.0,) * 8)
@example(seed=0, h=1, w=1, disp=(0.0,) * 8)
def test_warp_perspective_equals_the_oracle_or_names_the_size(seed, h, w, disp):
    img = rng_for(seed).random((h, w, 3))
    try:
        want = oracle_warp_perspective(img, disp)
    except np.linalg.LinAlgError:  # two corners coincide on a 1-pixel side
        with pytest.raises(ShapeError, match=f"at least 2x2, got {h}x{w}"):
            _warp_perspective(img, disp)
        return
    assert_same_array(_warp_perspective(img, disp), want)


# The menu, ranges, sample_op and apply as they were before the kinds
# became one table: the oracles of the table-driven code.  The apply
# oracle warps with the oracle warp and never shares a raw.
APPEARANCE_KINDS = (
    "identity",
    "brightness",
    "contrast",
    "hue_shift",
    "grayscale",
    "gamma",
    "gaussian_noise",
    "box_blur",
)
VIEWPOINT_KINDS = ("identity", "crop_resize", "perspective_jitter")

DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "brightness": (-0.3, 0.3),
    "contrast": (0.6, 1.6),
    "hue_shift": (-40.0, 40.0),
    "gamma": (0.5, 2.0),
    "gaussian_noise": (0.01, 0.08),
    "box_blur": (1, 2),
    "crop_scale": (0.7, 1.0),
    "perspective": (0.0, 0.10),  # corner displacement as fraction of side
}


def oracle_enabled_kinds(spec):
    kinds: list[str] = []
    if "appearance" in spec.categories:
        kinds += [k for k in APPEARANCE_KINDS if k != "identity"]
    if "viewpoint" in spec.categories:
        kinds += ["crop_resize", "perspective_jitter"]
    return kinds


def oracle_sample_op(spec, rng):
    kinds = oracle_enabled_kinds(spec)
    if not kinds:
        return AugmentationOp("identity")
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind in ("brightness", "contrast", "hue_shift", "gamma", "gaussian_noise"):
        lo, hi = DEFAULT_RANGES[kind]
        return AugmentationOp(kind, (float(rng.uniform(lo, hi)),))
    if kind == "box_blur":
        lo, hi = DEFAULT_RANGES[kind]
        return AugmentationOp(kind, (float(rng.integers(int(lo), int(hi) + 1)),))
    if kind == "crop_resize":
        lo, hi = DEFAULT_RANGES["crop_scale"]
        scale = float(rng.uniform(lo, hi))
        ox = float(rng.uniform(0.0, 1.0 - scale))
        oy = float(rng.uniform(0.0, 1.0 - scale))
        return AugmentationOp(kind, (scale, ox, oy))
    if kind == "perspective_jitter":
        _, hi = DEFAULT_RANGES["perspective"]
        disp = rng.uniform(-hi, hi, size=8)
        return AugmentationOp(kind, tuple(float(d) for d in disp))
    return AugmentationOp(kind)  # grayscale


def oracle_apply(image, op, rng):
    img = image.pixels
    kind = op.kind
    if kind == "identity":
        out = img.copy()
    elif kind == "brightness":
        out = img + op.params[0]
    elif kind == "contrast":
        out = adjust_contrast(img, op.params[0])
    elif kind == "hue_shift":
        out = rotate_hue(img, op.params[0])
    elif kind == "grayscale":
        out = np.repeat(luma(img)[..., None], 3, axis=-1)
    elif kind == "gamma":
        out = np.clip(img, 0.0, 1.0) ** op.params[0]
    elif kind == "gaussian_noise":
        out = img + rng.normal(0.0, op.params[0], size=img.shape)
    elif kind == "box_blur":
        out = _box_blur(img, int(op.params[0]))
    elif kind == "crop_resize":
        out = _crop_resize(img, *op.params)
    elif kind == "perspective_jitter":
        out = oracle_warp_perspective(img, op.params)
    else:
        raise VprError(f"unknown augmentation kind {kind!r}")
    return vk.ImageRecord(
        id=f"{image.id}#{op.tag()}",
        pixels=np.clip(out, 0.0, 1.0),
        pose=image.pose,
    )


SPEC_TEXTS = ("none", "appearance", "viewpoint", "appearance,viewpoint")


def test_the_table_holds_the_ten_kinds():
    assert set(_OPS) == set(APPEARANCE_KINDS) | set(VIEWPOINT_KINDS)
    assert len(_OPS) == 10


@pytest.mark.parametrize("text", SPEC_TEXTS)
def test_enabled_kinds_equal_the_oracle_menu(text):
    spec = AugmentationSpec.from_string(text)
    assert spec.enabled_kinds() == oracle_enabled_kinds(spec)


@st.composite
def free_ops(draw):
    """An op of any kind, its parameters drawn freely in their domain."""
    kind = draw(st.sampled_from(ALL_KINDS))
    one = {
        "brightness": st.floats(-1.0, 1.0),
        "contrast": st.floats(0.0, 3.0),
        "hue_shift": st.floats(-400.0, 400.0),
        "gamma": st.floats(0.1, 3.0),
        "gaussian_noise": st.floats(0.0, 0.2),
        "box_blur": st.integers(0, 4).map(float),
    }
    if kind in one:
        params = (draw(one[kind]),)
    elif kind == "crop_resize":
        params = (draw(st.floats(0.01, 1.0)), draw(unit), draw(unit))
    elif kind == "perspective_jitter":
        params = tuple(draw(st.lists(st.floats(-0.2, 0.2), min_size=8, max_size=8)))
    else:
        params = ()
    return AugmentationOp(kind, params)


# (spec, seed): the op that the spec's menu draws from the seed.
spec_draws = st.tuples(st.sampled_from(SPEC_TEXTS), st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None)
@given(
    op=free_ops() | spec_draws,
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 80),
    w=st.integers(1, 80),
    posed=st.booleans(),
)
@example(op=AugmentationOp("identity"), seed=0, h=64, w=64, posed=True)
def test_sample_and_apply_equal_the_oracles(op, seed, h, w, posed):
    """Same op, same draws consumed, and the same record: pixel bytes,
    dtype, id and pose; or, where the oracle's warp is singular,
    a VprError."""
    rng_new, rng_old = rng_for(seed), rng_for(seed)
    if isinstance(op, tuple):
        text, draw_seed = op
        spec = AugmentationSpec.from_string(text)
        rng_new, rng_old = rng_for(draw_seed), rng_for(draw_seed)
        op = oracle_sample_op(spec, rng_old)
        got = vk.sample_op(spec, rng_new)
        assert got == op and repr(got.params) == repr(op.params)
    pixels = rng_for(seed).random((h, w, 3)) * 1.4 - 0.2
    image = vk.ImageRecord(id="r7", pixels=pixels, pose=vk.Pose(3.0, -4.0) if posed else None)
    try:
        want = oracle_apply(image, op, rng_old)
    except np.linalg.LinAlgError:  # the singular warp of a 1-pixel-wide image
        with pytest.raises(VprError, match=f"got {h}x{w}"):
            vk.apply(image, op, rng_new)
        return
    got = vk.apply(image, op, rng_new)
    assert got.pixels.dtype == want.pixels.dtype
    assert got.pixels.shape == want.pixels.shape
    assert got.pixels.tobytes() == want.pixels.tobytes()
    assert (got.id, got.pose) == (want.id, want.pose)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    op=free_ops(),
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(2, 40),
    w=st.integers(2, 40),
    values=st.sampled_from(["in range", "out of range", "signed zeros"]),
    layout=st.sampled_from(["C", "F"]),
    read_first=st.booleans(),
)
@example(op=AugmentationOp("identity"), seed=0, h=64, w=64, values="in range",
         layout="C", read_first=True)
@example(op=AugmentationOp("identity"), seed=0, h=8, w=8, values="out of range",
         layout="C", read_first=True)
@example(op=AugmentationOp("identity"), seed=0, h=8, w=8, values="in range",
         layout="F", read_first=True)
def test_every_record_raw_is_its_own_extraction(op, seed, h, w, values, layout, read_first):
    """apply is a pure transform: it neither extracts the source nor hands
    the copy a raw, so each raw, an identity copy's too, has the bits of
    extracting the copy itself."""
    rng = rng_for(seed)
    if values == "in range":
        pixels = rng.random((h, w, 3))
    elif values == "out of range":
        pixels = rng.random((h, w, 3)) * 1.4 - 0.2
    else:
        pixels = rng.choice([0.0, -0.0, 0.5], (h, w, 3))
    image = vk.ImageRecord(id="r", pixels=np.asarray(pixels, order=layout))
    if read_first:
        image.raw
    got = vk.apply(image, op, rng)
    assert ("raw" in vars(image)) == read_first  # apply never extracts the source
    assert "raw" not in vars(got)
    assert got.raw.tobytes() == vk.extract_raw(got).tobytes()


def _strided(pixels):
    h, w, _ = pixels.shape
    big = np.zeros((2 * h, 2 * w, 4))
    big[::2, ::2, :3] = pixels
    return big[::2, ::2, :3]


# The same pixel values in four memory layouts.
PIXEL_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "planar": lambda pixels: np.ascontiguousarray(pixels.transpose(2, 0, 1)).transpose(1, 2, 0),
    "strided": _strided,
}


def assert_one_value(by_layout, what):
    differ = [name for name, value in by_layout.items() if value != by_layout["C"]]
    assert not differ, f"{what}: {differ} differ from C-order"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 70), w=st.integers(2, 70))
@example(seed=0, h=64, w=64)
@example(seed=0, h=2, w=2)
def test_no_memory_layout_changes_a_bit(seed, h, w):
    """The same pixel values give the same raw bytes and, for every kind from
    equal generator seeds, the same augmented bytes, whether they are held
    C-order, F-order, planar or strided."""
    pixels = rng_for(seed).random((h, w, 3)) * 1.4 - 0.2
    records = {name: vk.ImageRecord(id="r", pixels=make(pixels))
               for name, make in PIXEL_LAYOUTS.items()}
    assert_one_value({name: vk.extract_raw(r).tobytes() for name, r in records.items()},
                     "extract_raw")
    for kind, entry in _OPS.items():
        op = AugmentationOp(kind, entry.draw(rng_for(seed)))
        assert_one_value(
            {name: vk.apply(r, op, rng_for(seed)).pixels.tobytes() for name, r in records.items()},
            kind,
        )


@pytest.mark.parametrize("kind", ["sepia", "horizontal_flip"])
def test_unknown_kind_is_a_vpr_error(kind):
    with pytest.raises(VprError, match=f"unknown augmentation kind '{kind}'"):
        vk.apply(constant_image(), AugmentationOp(kind), rng_for(0))
