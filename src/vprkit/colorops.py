"""Vectorized color-space helpers shared by rendering and augmentation."""

from __future__ import annotations

import numpy as np

# ITU-R BT.601 luma weights; chroma channels are R-Y and B-Y.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


def _hsv_planes(
    r: np.ndarray, g: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """HSV planes (hue in [0,1)) of RGB planes in [0,1].

    maxc / minc chain np.maximum / np.minimum in r, g, b order, which is
    the order (and the signed-zero tie rule) of np.max / np.min over a
    trailing length-3 axis.
    """
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
    h /= 6.0
    h -= np.floor(h)  # np.mod(h, 1.0), as in rotate_hue
    return h, s, maxc


# Per sector of the hue wheel, the index into (v, q, p, t) of r, g and b.
_SECTOR_PLANES = np.array([[0, 1, 2, 2, 3, 0], [3, 0, 0, 1, 2, 2], [2, 2, 3, 0, 0, 1]])


def _rgb_planes(
    h: np.ndarray, s: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RGB planes of HSV planes (hue in [0,1))."""
    h6 = h * 6.0
    i = np.floor(h6)
    f = h6 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    sector = i.astype(np.int64) % 6
    # Each channel takes, per pixel, the sector's plane of the stacked
    # (v, q, p, t) planes: one flat `take` instead of an np.choose.
    stacked = np.stack([v, q, p, t]).reshape(-1)
    cols = np.arange(v.size).reshape(v.shape)
    return tuple(stacked.take(plane_of[sector] * v.size + cols) for plane_of in _SECTOR_PLANES)


def rotate_hue(rgb: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate hue by the given angle, preserving saturation and value."""
    planes = np.ascontiguousarray(np.moveaxis(np.clip(rgb, 0.0, 1.0), -1, 0))
    h, s, v = _hsv_planes(*planes)
    # np.mod(h, 1.0) in place: x - floor(x) rounds the exact fraction once,
    # as np.mod does (its fmod is exact, and below zero both round
    # x - trunc(x) + 1), and a zero fraction is +0.0 in both.
    h += degrees / 360.0
    h -= np.floor(h)
    return np.stack(_rgb_planes(h, s, v), axis=-1)


def adjust_contrast(rgb: np.ndarray, gain: float) -> np.ndarray:
    """Scale contrast about mid-gray 0.5."""
    return (rgb - 0.5) * gain + 0.5


def luma(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma channel, with the bits of a C-contiguous copy: `@` gives
    other bits for the same values in another memory layout."""
    return np.ascontiguousarray(rgb) @ LUMA_WEIGHTS
