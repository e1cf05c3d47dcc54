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
    return np.mod(h / 6.0, 1.0), s, maxc


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
    i = i.astype(np.int64) % 6
    return (
        np.choose(i, [v, q, p, p, t, v]),
        np.choose(i, [t, v, v, q, p, p]),
        np.choose(i, [p, p, t, v, v, q]),
    )


def rotate_hue(rgb: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate hue by the given angle, preserving saturation and value.

    Works on contiguous channel planes and returns a C-contiguous
    (..., 3) array; luma's matmul bits depend on that layout.
    """
    planes = np.ascontiguousarray(np.moveaxis(np.clip(rgb, 0.0, 1.0), -1, 0))
    h, s, v = _hsv_planes(*planes)
    h = np.mod(h + degrees / 360.0, 1.0)
    return np.stack(_rgb_planes(h, s, v), axis=-1)


def adjust_contrast(rgb: np.ndarray, gain: float) -> np.ndarray:
    """Scale contrast about mid-gray 0.5."""
    return (rgb - 0.5) * gain + 0.5


def luma(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma channel."""
    return rgb @ LUMA_WEIGHTS
