"""Seeded image augmentations for synthetic query generation.

Appearance ops change photometry only; viewpoint ops resample the
geometry and always return an image of the original size. Every op
preserves the source pose, which is what makes augmented images usable
as training queries whose ground-truth place is known for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .colorops import adjust_contrast, luma, rotate_hue
from .dataset import ImageRecord
from .errors import ShapeError, VprError
from .imageops import sample_bilinear


@dataclass(frozen=True)
class AugmentationOp:
    """One fully parameterized transform."""

    kind: str
    params: tuple[float, ...] = ()

    def tag(self) -> str:
        if not self.params:
            return self.kind
        return self.kind + "(" + ",".join(f"{p:.3g}" for p in self.params) + ")"


@dataclass(frozen=True)
class AugmentationSpec:
    """Which op categories are enabled.

    ``categories`` is a subset of {"appearance", "viewpoint"}; the empty
    set is the explicit no-augmentation baseline (sample_op then always
    yields identity).
    """

    categories: frozenset[str] = frozenset({"appearance", "viewpoint"})

    def __post_init__(self) -> None:
        bad = self.categories - {"appearance", "viewpoint"}
        if bad:
            raise VprError(f"unknown augmentation category {sorted(bad)[0]!r}")

    @classmethod
    def from_string(cls, text: str) -> "AugmentationSpec":
        """Parse the config-file form: 'appearance,viewpoint' | 'none' etc.
        Only 'none' names the baseline; an empty entry is an unknown
        category."""
        text = text.strip().lower()
        if text == "none":
            return cls(categories=frozenset())
        return cls(categories=frozenset(p.strip() for p in text.split(",")))

    def enabled_kinds(self) -> list[str]:
        """The sampled menu: the enabled categories' kinds in table order."""
        return [kind for kind, op in _OPS.items() if op.category in self.categories]


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    h, w = img.shape[:2]
    pad = np.pad(img, ((radius, radius), (radius, radius), (0, 0)), mode="edge")
    integral = np.zeros((h + 2 * radius + 1, w + 2 * radius + 1, img.shape[2]))
    integral[1:, 1:] = np.cumsum(np.cumsum(pad, axis=0), axis=1)
    k = 2 * radius + 1
    out = (
        integral[k:, k:]
        - integral[:-k, k:]
        - integral[k:, :-k]
        + integral[:-k, :-k]
    )
    return out / (k * k)


def _homography_from_corners(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """3x3 matrix mapping each dst corner (x, y) to its src corner (u, v).

    Corner i gives rows 2i and 2i + 1 of the 8x8 system:
    [x, y, 1, 0, 0, 0, -u x, -u y] = u and [0, 0, 0, x, y, 1, -v x, -v y] = v.
    """
    a = np.zeros((4, 2, 8))
    a[:, 0, :3] = a[:, 1, 3:6] = np.column_stack([dst, np.ones(4)])
    a[:, :, 6:] = -src[:, :, None] * dst[:, None, :]
    h = np.linalg.solve(a.reshape(8, 8), src.reshape(8))
    return np.append(h, 1.0).reshape(3, 3)


def _warp_perspective(img: np.ndarray, disp: tuple[float, ...]) -> np.ndarray:
    h, w = img.shape[:2]
    if h < 2 or w < 2:
        # Two destination corners would coincide and the system be singular.
        raise ShapeError(f"perspective_jitter needs an image at least 2x2, got {h}x{w}")
    side = float(min(h, w))
    corners_dst = np.array([[0, 0], [w - 1, 0], [w - 1, h - 1], [0, h - 1]], float)
    d = np.asarray(disp, dtype=np.float64).reshape(4, 2) * side
    corners_src = corners_dst + d
    hom = _homography_from_corners(corners_dst, corners_src)
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)
    denom = hom[2, 0] * xs + hom[2, 1] * ys + hom[2, 2]
    u = (hom[0, 0] * xs + hom[0, 1] * ys + hom[0, 2]) / denom
    v = (hom[1, 0] * xs + hom[1, 1] * ys + hom[1, 2]) / denom
    return sample_bilinear(img, v, u)


def _crop_resize(img: np.ndarray, scale: float, ox: float, oy: float) -> np.ndarray:
    # sample_bilinear on the crop grid, which is separable: each source row
    # is gathered once, then the columns, with every pixel's float
    # operations unchanged.
    h, w = img.shape[:2]
    ys = np.clip(oy * (h - 1) + np.linspace(0.0, scale * (h - 1), h), 0.0, h - 1.0)
    xs = np.clip(ox * (w - 1) + np.linspace(0.0, scale * (w - 1), w), 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[:, None]
    top, bot = img[y0], img[y1]
    # np.take keeps the gathered columns C-contiguous, as the grid's were.
    top = np.take(top, x0, axis=1) * (1 - fx) + np.take(top, x1, axis=1) * fx
    bot = np.take(bot, x0, axis=1) * (1 - fx) + np.take(bot, x1, axis=1) * fx
    return top * (1 - fy) + bot * fy


# The draws return Python floats: the sampled-sequence digest hashes their repr.
def _uniform(lo: float, hi: float) -> Callable:
    return lambda rng: (float(rng.uniform(lo, hi)),)


def _no_params(rng: np.random.Generator) -> tuple[float, ...]:
    return ()


def _crop_params(rng: np.random.Generator) -> tuple[float, ...]:
    """The crop's side as a fraction of the image's, then its x and y offsets."""
    scale = float(rng.uniform(0.7, 1.0))
    return scale, float(rng.uniform(0.0, 1.0 - scale)), float(rng.uniform(0.0, 1.0 - scale))


def _corner_shifts(rng: np.random.Generator) -> tuple[float, ...]:
    """Each corner's (x, y) displacement as a fraction of the shorter side."""
    return tuple(float(d) for d in rng.uniform(-0.10, 0.10, size=8))


class _Op(NamedTuple):
    """One kind: the category whose menu samples it (None: applied only),
    its parameter draw and its transform of (pixels, params, rng)."""

    category: str | None
    draw: Callable[[np.random.Generator], tuple[float, ...]]
    transform: Callable[[np.ndarray, tuple[float, ...], np.random.Generator], np.ndarray]


# In menu order.
_OPS: dict[str, _Op] = {
    "identity": _Op(None, _no_params, lambda img, p, rng: img.copy()),
    "brightness": _Op("appearance", _uniform(-0.3, 0.3), lambda img, p, rng: img + p[0]),
    "contrast": _Op("appearance", _uniform(0.6, 1.6),
                    lambda img, p, rng: adjust_contrast(img, p[0])),
    "hue_shift": _Op("appearance", _uniform(-40.0, 40.0),
                     lambda img, p, rng: rotate_hue(img, p[0])),
    "grayscale": _Op("appearance", _no_params,
                     lambda img, p, rng: np.repeat(luma(img)[..., None], 3, axis=-1)),
    "gamma": _Op("appearance", _uniform(0.5, 2.0),
                 lambda img, p, rng: np.clip(img, 0.0, 1.0) ** p[0]),
    "gaussian_noise": _Op("appearance", _uniform(0.01, 0.08),
                          lambda img, p, rng: img + rng.normal(0.0, p[0], size=img.shape)),
    "box_blur": _Op("appearance", lambda rng: (float(rng.integers(1, 3)),),  # radius 1 or 2
                    lambda img, p, rng: _box_blur(img, int(p[0]))),
    "crop_resize": _Op("viewpoint", _crop_params, lambda img, p, rng: _crop_resize(img, *p)),
    "perspective_jitter": _Op("viewpoint", _corner_shifts,
                              lambda img, p, rng: _warp_perspective(img, p)),
}


def sample_op(spec: AugmentationSpec, rng: np.random.Generator) -> AugmentationOp:
    """Uniformly pick an enabled kind, then draw its parameters."""
    kinds = spec.enabled_kinds()
    if not kinds:
        return AugmentationOp("identity")
    kind = kinds[int(rng.integers(0, len(kinds)))]
    return AugmentationOp(kind, _OPS[kind].draw(rng))


def apply(
    image: ImageRecord, op: AugmentationOp, rng: np.random.Generator
) -> ImageRecord:
    """Apply one op; same dimensions, pixels clamped to [0, 1], pose kept."""
    if op.kind not in _OPS:
        raise VprError(f"unknown augmentation kind {op.kind!r}")
    out = _OPS[op.kind].transform(image.pixels, op.params, rng)
    return ImageRecord(
        id=f"{image.id}#{op.tag()}",
        pixels=np.clip(out, 0.0, 1.0),
        pose=image.pose,
    )
