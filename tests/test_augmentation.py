import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vprkit as vk
from vprkit.augmentation import (
    APPEARANCE_KINDS,
    VIEWPOINT_KINDS,
    AugmentationOp,
    AugmentationSpec,
    _crop_resize,
)
from vprkit.errors import VprError
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


ALL_KINDS = sorted(set(APPEARANCE_KINDS) | set(VIEWPOINT_KINDS))


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

    def test_horizontal_flip_flips(self):
        img = vk.ImageRecord(id="x", pixels=rng_for(2).random((8, 8, 3)), pose=None)
        out = vk.apply(img, AugmentationOp("horizontal_flip"), rng_for(0))
        np.testing.assert_array_equal(out.pixels, img.pixels[:, ::-1, :])

    def test_grayscale_has_equal_channels(self):
        img = vk.ImageRecord(id="x", pixels=rng_for(3).random((8, 8, 3)), pose=None)
        out = vk.apply(img, AugmentationOp("grayscale"), rng_for(0))
        np.testing.assert_array_equal(out.pixels[..., 0], out.pixels[..., 1])
        np.testing.assert_array_equal(out.pixels[..., 1], out.pixels[..., 2])


def oracle_crop_resize(img, scale, ox, oy):
    """_crop_resize as it was before it became separable: sample_bilinear
    on the full crop grid."""
    h, w = img.shape[:2]
    y0, x0 = oy * (h - 1), ox * (w - 1)
    ys = y0 + np.linspace(0.0, scale * (h - 1), h)
    xs = x0 + np.linspace(0.0, scale * (w - 1), w)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return sample_bilinear(img, grid_y, grid_x)


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
    want = oracle_crop_resize(img, scale, ox, oy)
    got = _crop_resize(img, scale, ox, oy)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()
