import numpy as np
import pytest

import vprkit as vk
from vprkit.errors import InvalidSpec


def _spec(**overrides):
    base = dict(
        place_count=5,
        spacing=30.0,
        reference_style=vk.StyleParams(texture_family="blocks"),
        query_style=vk.StyleParams(texture_family="blocks"),
        queries_per_place=1,
        image_size=32,
        seed=1,
    )
    base.update(overrides)
    return vk.SynthWorldSpec(**base)


def test_determinism_bit_identical():
    a = vk.generate_synthetic(_spec())
    b = vk.generate_synthetic(_spec())
    for ra, rb in zip(a.references + a.queries, b.references + b.queries):
        assert ra.id == rb.id
        np.testing.assert_array_equal(ra.pixels, rb.pixels)


def test_spacing_above_radius_gives_unique_match():
    ds = vk.generate_synthetic(_spec(place_count=10, spacing=30.0))
    # enumerate all pairwise pose distances: 30 > 25 forces uniqueness
    for qpose in ds.query_poses:
        within = [
            rp for rp in ds.reference_poses if qpose.distance(rp) <= 25.0
        ]
        assert len(within) == 1
        assert qpose.distance(within[0]) == 0.0


def test_identity_style_zero_jitter_reproduces_references():
    style = vk.StyleParams(texture_family="gradients")
    ds = vk.generate_synthetic(
        _spec(reference_style=style, query_style=style, jitter_px=0)
    )
    for place, ref in enumerate(ds.references):
        np.testing.assert_array_equal(ds.queries[place].pixels, ref.pixels)


def test_texture_families_render_distinct_images():
    styles = {f: vk.StyleParams(texture_family=f) for f in ("blocks", "stripes", "gradients")}
    imgs = {
        f: vk.generate_synthetic(_spec(reference_style=s, query_style=s)).references[0].pixels
        for f, s in styles.items()
    }
    assert not np.array_equal(imgs["blocks"], imgs["stripes"])
    assert not np.array_equal(imgs["blocks"], imgs["gradients"])


def test_pixel_range_and_shapes():
    ds = vk.generate_synthetic(
        _spec(query_style=vk.StyleParams(brightness_offset=0.5, noise_sigma=0.3))
    )
    for rec in ds.references + ds.queries:
        assert rec.pixels.shape == (32, 32, 3)
        assert rec.pixels.min() >= 0.0 and rec.pixels.max() <= 1.0


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        _spec(image_size=8)
    with pytest.raises(InvalidSpec):
        _spec(place_count=1)
    with pytest.raises(InvalidSpec):
        _spec(spacing=0.0)
    for spacing in (float("nan"), float("inf")):
        with pytest.raises(InvalidSpec, match="spacing"):
            _spec(spacing=spacing)
    with pytest.raises(InvalidSpec, match="seed"):
        _spec(seed=-1)
    with pytest.raises(InvalidSpec):
        vk.StyleParams(texture_family="paisley")
