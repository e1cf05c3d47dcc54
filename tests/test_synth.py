import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vprkit as vk
from vprkit import presets, synth
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


@pytest.mark.parametrize("family", ["blocks", "stripes"])
def test_query_palette_is_rendered(family):
    """Queries in the reference family but another palette do not reuse
    the reference texture: their pixels follow the query palette."""
    def queries(palette):
        spec = _spec(
            reference_style=vk.StyleParams(palette_id=0, texture_family=family),
            query_style=vk.StyleParams(palette_id=palette, texture_family=family),
        )
        return [q.pixels for q in vk.generate_synthetic(spec).queries]

    same, other, wrapped = queries(0), queries(2), queries(4)
    assert all(np.array_equal(a, b) for a, b in zip(same, wrapped))  # ids wrap mod 4
    assert not any(np.array_equal(a, b) for a, b in zip(same, other))


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
    with pytest.raises(InvalidSpec, match="poses must be finite"):
        _spec(place_count=3, spacing=1e308)  # the third pose, 2e308, overflows
    with pytest.raises(InvalidSpec, match="seed"):
        _spec(seed=-1)
    for jitter_px in (-1, 32, 1000):  # _spec has image_size 32
        with pytest.raises(InvalidSpec, match="jitter_px"):
            _spec(jitter_px=jitter_px)
    with pytest.raises(InvalidSpec):
        vk.StyleParams(texture_family="paisley")


# The (H, W, 3) rasterizer that the channel-plane _render_base replaced,
# kept verbatim as the oracle it must match bit for bit.
def oracle_render_base(
    prims: list, palette: np.ndarray, size: int, seed: int, place: int
) -> np.ndarray:
    """Rasterize the place texture over a gradient background."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, place, 0xB4C6]))
    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, size), indexing="ij"
    )
    top = palette[int(rng.integers(0, 4))] * 0.6 + 0.2
    bottom = palette[int(rng.integers(0, 4))] * 0.6 + 0.2
    img = top[None, None, :] * (1 - yy[..., None]) + bottom[None, None, :] * yy[..., None]
    for p in prims:
        color = palette[p.color_idx]
        dx, dy = xx - p.cx, yy - p.cy
        cos_a, sin_a = np.cos(p.angle), np.sin(p.angle)
        u = dx * cos_a + dy * sin_a
        v = -dx * sin_a + dy * cos_a
        if p.kind == "blocks":
            mask = ((np.abs(u) <= p.w / 2) & (np.abs(v) <= p.h / 2)).astype(np.float64)
        elif p.kind == "stripes":
            period = max(p.h, 0.08)
            band = (np.mod(u / period, 1.0) < 0.5) & (np.abs(v) <= p.w)
            mask = band.astype(np.float64)
        else:  # gradients
            r = np.sqrt((u / (p.w / 2)) ** 2 + (v / (p.h / 2)) ** 2)
            mask = np.clip(1.0 - r, 0.0, 1.0)
        alpha = (p.strength * mask)[..., None]
        img = img * (1 - alpha) + color[None, None, :] * alpha
    return np.clip(img, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    place=st.integers(0, 100_000),
    family=st.sampled_from(synth.TEXTURE_FAMILIES),
    palette_id=st.integers(0, len(synth._PALETTES) - 1),
    size=st.integers(16, 128),
)
def test_render_base_matches_oracle_bit_for_bit(seed, place, family, palette_id, size):
    prims = synth._place_primitives(seed, place, family)
    palette = synth._PALETTES[palette_id]
    want = oracle_render_base(prims, palette, size, seed, place)
    got = synth._render_base(prims, palette, size, seed, place)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides  # C-contiguous, as luma's matmul needs
    assert got.tobytes() == want.tobytes()


def oracle_place_primitives(seed: int, place: int, family: str) -> list:
    """_place_primitives as it was before one call drew the five shape
    values: a scalar rng.uniform per value."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, place, 0x7E47]))
    prims = []
    for _ in range(12):
        prims.append(
            synth._Primitive(
                kind=family,
                cx=rng.uniform(0.05, 0.95),
                cy=rng.uniform(0.05, 0.95),
                w=rng.uniform(0.10, 0.45),
                h=rng.uniform(0.10, 0.45),
                angle=rng.uniform(0.0, np.pi),
                color_idx=int(rng.integers(0, 4)),
                strength=rng.uniform(0.5, 1.0),
            )
        )
    return prims


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    place=st.integers(0, 100_000),
    family=st.sampled_from(synth.TEXTURE_FAMILIES),
)
def test_place_primitives_match_the_scalar_draws(seed, place, family):
    got = synth._place_primitives(seed, place, family)
    assert repr(got) == repr(oracle_place_primitives(seed, place, family))


def pixel_digest(*datasets):
    h = hashlib.sha256()
    for ds in datasets:
        for rec in ds.references + ds.queries:
            assert rec.pixels.flags.c_contiguous
            h.update(rec.id.encode())
            h.update(rec.pixels.tobytes())
    return h.hexdigest()


def test_domain_gap_pair_pixels_are_pinned():
    assert pixel_digest(*presets.domain_gap_pair()) == (
        "97338558ad9f5b4e0ab21e0f5945a0ef3c8cb66aa2ad327fddfd2198a7bf0048"
    )


def test_localize_style_stripes_world_pixels_are_pinned():
    """A stripes world in the query style of the localize benchmarks."""
    style = dict(palette_id=1, texture_family="stripes")
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=40,
            spacing=30.0,
            reference_style=vk.StyleParams(**style),
            query_style=vk.StyleParams(
                **style, hue_shift=35.0, brightness_offset=-0.2,
                contrast_gain=0.7, noise_sigma=0.04,
            ),
            queries_per_place=1,
            image_size=64,
            seed=7,
        )
    )
    assert pixel_digest(world) == (
        "4c2d141ac0c1ad285d938f73a3459feeebfd16e8f146f51f4c92567f755c45b8"
    )
