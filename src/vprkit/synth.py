"""Synthetic world generation with controllable appearance domain gaps.

A world is a 1-D track of places at regular spacing. Each place gets a
deterministic base texture (a function of the world seed and the place
index alone), and every rendered image applies a style: palette, hue
rotation, brightness, contrast, additive noise. Rendering the same spec
twice is bit-identical, which makes end-to-end experiments reproducible
at the byte level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .colorops import adjust_contrast, rotate_hue
from .dataset import Dataset, ImageRecord, Pose
from .errors import InvalidSpec

TEXTURE_FAMILIES = ("blocks", "stripes", "gradients")

# Small deterministic palettes; palette_id selects one, wrapping around.
_PALETTES = np.array(
    [
        [[0.85, 0.30, 0.25], [0.25, 0.55, 0.85], [0.95, 0.80, 0.30], [0.30, 0.70, 0.40]],
        [[0.55, 0.35, 0.75], [0.90, 0.55, 0.20], [0.20, 0.65, 0.65], [0.80, 0.25, 0.55]],
        [[0.35, 0.45, 0.25], [0.75, 0.70, 0.55], [0.45, 0.30, 0.20], [0.60, 0.75, 0.35]],
        [[0.20, 0.30, 0.55], [0.65, 0.75, 0.90], [0.85, 0.45, 0.40], [0.50, 0.50, 0.60]],
    ]
)


@dataclass(frozen=True)
class StyleParams:
    """Global appearance of one rendering domain."""

    palette_id: int = 0
    hue_shift: float = 0.0  # degrees
    brightness_offset: float = 0.0  # in [-1, 1]
    contrast_gain: float = 1.0  # > 0
    noise_sigma: float = 0.0  # >= 0
    texture_family: str = "blocks"

    def __post_init__(self) -> None:
        for name in ("hue_shift", "brightness_offset", "contrast_gain", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite, got {getattr(self, name)}")
        if self.texture_family not in TEXTURE_FAMILIES:
            raise InvalidSpec(f"unknown texture family {self.texture_family!r}")
        if self.contrast_gain <= 0:
            raise InvalidSpec("contrast_gain must be positive")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be non-negative")


@dataclass(frozen=True)
class SynthWorldSpec:
    """Recipe for one synthetic world."""

    place_count: int
    spacing: float  # meters between consecutive places
    reference_style: StyleParams
    query_style: StyleParams
    queries_per_place: int = 1
    image_size: int = 64
    seed: int = 0
    jitter_px: int = 2  # max query pixel-translation jitter per axis

    def __post_init__(self) -> None:
        if self.place_count < 2:
            raise InvalidSpec("place_count must be at least 2")
        if not 0 < self.spacing < math.inf:  # also rejects nan
            raise InvalidSpec(f"spacing must be positive and finite, got {self.spacing}")
        if not math.isfinite((self.place_count - 1) * self.spacing):
            raise InvalidSpec(
                f"place poses must be finite: {self.place_count} places at spacing {self.spacing}"
            )
        if self.queries_per_place < 1:
            raise InvalidSpec("queries_per_place must be at least 1")
        if self.image_size < 16:
            raise InvalidSpec("image_size must be at least 16")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.jitter_px < self.image_size:
            raise InvalidSpec(
                f"jitter_px must be in [0, image_size), got {self.jitter_px}"
            )


@dataclass(frozen=True)
class _Primitive:
    kind: str
    cx: float
    cy: float
    w: float
    h: float
    angle: float
    color_idx: int
    strength: float


# Bounds of each primitive's first five draws: cx, cy, w, h and angle.
_SHAPE_LO = np.array([0.05, 0.05, 0.10, 0.10, 0.0])
_SHAPE_RANGE = np.array([0.95, 0.95, 0.45, 0.45, np.pi]) - _SHAPE_LO


def _place_primitives(seed: int, place: int, family: str) -> list[_Primitive]:
    """12 seeded primitives; depends only on (seed, place, family).

    A primitive's five shape values take five consecutive doubles u, each
    as lo + (hi - lo) * u, which is how five scalar ``rng.uniform(lo, hi)``
    calls draw them."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, place, 0x7E47]))
    # Arguments are evaluated, and so drawn, left to right.
    return [
        _Primitive(
            family,
            *(_SHAPE_LO + _SHAPE_RANGE * rng.random(5)).tolist(),  # cx, cy, w, h, angle
            color_idx=int(rng.integers(0, 4)),
            strength=rng.uniform(0.5, 1.0),
        )
        for _ in range(12)
    ]


def _render_base(
    prims: list[_Primitive], palette: np.ndarray, size: int, seed: int, place: int
) -> np.ndarray:
    """Rasterize the place texture over a gradient background.

    Blends into contiguous (3, size, size) planes and returns a
    C-contiguous (size, size, 3) array. Pixel (i, j) sits at x = lin[j],
    y = lin[i], so u and v are each a column term plus a row term; each
    pixel still gets exactly two rounded products and one rounded sum.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, place, 0xB4C6]))
    lin = np.linspace(0.0, 1.0, size)
    top = palette[int(rng.integers(0, 4))] * 0.6 + 0.2
    bottom = palette[int(rng.integers(0, 4))] * 0.6 + 0.2
    y = lin[:, None]
    img = np.empty((3, size, size))
    img[...] = top[:, None, None] * (1 - y) + bottom[:, None, None] * y
    for p in prims:
        dx, dy = lin - p.cx, (lin - p.cy)[:, None]
        cos_a, sin_a = np.cos(p.angle), np.sin(p.angle)
        u = dx * cos_a + dy * sin_a
        v = -dx * sin_a + dy * cos_a
        if p.kind == "blocks":
            mask = ((np.abs(u) <= p.w / 2) & (np.abs(v) <= p.h / 2)).astype(np.float64)
        elif p.kind == "stripes":
            period = max(p.h, 0.08)
            # x - floor(x) rounds the exact fraction once, as np.mod(x, 1.0) does.
            x = u / period
            band = (x - np.floor(x) < 0.5) & (np.abs(v) <= p.w)
            mask = band.astype(np.float64)
        else:  # gradients
            r = np.sqrt((u / (p.w / 2)) ** 2 + (v / (p.h / 2)) ** 2)
            mask = np.clip(1.0 - r, 0.0, 1.0)
        alpha = p.strength * mask
        img *= 1 - alpha
        img += palette[p.color_idx][:, None, None] * alpha
    out = np.empty((size, size, 3))
    np.clip(img, 0.0, 1.0, out=out.transpose(2, 0, 1))
    return out


def _apply_style(
    base: np.ndarray, style: StyleParams, rng: np.random.Generator
) -> np.ndarray:
    img = base
    if style.hue_shift != 0.0:
        img = rotate_hue(img, style.hue_shift)
    img = adjust_contrast(img, style.contrast_gain)
    img = img + style.brightness_offset
    if style.noise_sigma > 0:
        img = img + rng.normal(0.0, style.noise_sigma, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _translate(img: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift by whole pixels with edge replication."""
    out = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
    if dy > 0:
        out[:dy] = out[dy : dy + 1]
    elif dy < 0:
        out[dy:] = out[dy - 1 : dy]
    if dx > 0:
        out[:, :dx] = out[:, dx : dx + 1]
    elif dx < 0:
        out[:, dx:] = out[:, dx - 1 : dx]
    return out


def generate_synthetic(spec: SynthWorldSpec) -> Dataset:
    """Render a full synthetic world as a Dataset.

    References sit at poses (i * spacing, 0) in the reference style;
    each place also gets `queries_per_place` queries at the same pose in
    the query style with a small seeded pixel-translation jitter.
    """
    family_r, family_q = spec.reference_style.texture_family, spec.query_style.texture_family
    palette_r = spec.reference_style.palette_id % len(_PALETTES)
    palette_q = spec.query_style.palette_id % len(_PALETTES)
    width = len(str(spec.place_count - 1))

    references, queries = [], []
    for place in range(spec.place_count):
        pose = Pose(place * spec.spacing, 0.0)
        base_r = _render_base(
            _place_primitives(spec.seed, place, family_r),
            _PALETTES[palette_r],
            spec.image_size,
            spec.seed,
            place,
        )
        rng_ref = np.random.default_rng(np.random.SeedSequence([spec.seed, place, 1]))
        ref_img = _apply_style(base_r, spec.reference_style, rng_ref)
        rid = f"r{place:0{width}d}"
        references.append(ImageRecord(id=rid, pixels=ref_img, pose=pose))

        base_q = (
            base_r
            if (family_q, palette_q) == (family_r, palette_r)
            else _render_base(
                _place_primitives(spec.seed, place, family_q),
                _PALETTES[palette_q],
                spec.image_size,
                spec.seed,
                place,
            )
        )
        for j in range(spec.queries_per_place):
            rng_q = np.random.default_rng(
                np.random.SeedSequence([spec.seed, place, 2, j])
            )
            if spec.jitter_px > 0:
                dx = int(rng_q.integers(-spec.jitter_px, spec.jitter_px + 1))
                dy = int(rng_q.integers(-spec.jitter_px, spec.jitter_px + 1))
            else:
                dx = dy = 0
            q_img = _apply_style(_translate(base_q, dx, dy), spec.query_style, rng_q)
            qid = f"q{place:0{width}d}_{j}"
            queries.append(ImageRecord(id=qid, pixels=q_img, pose=pose))

    return Dataset(references, queries)
