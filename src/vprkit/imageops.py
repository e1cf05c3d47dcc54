"""Resampling primitives: area-average resize and bilinear warping."""

from __future__ import annotations

import functools

import numpy as np


# Real inputs have a handful of (src, dst) size pairs; the bound only
# keeps odd callers from growing the cache without limit.
@functools.lru_cache(maxsize=32)
def _overlap_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) matrix of interval-overlap weights for 1-D area averaging.

    Row i holds the fraction of destination cell i covered by each source
    cell; rows sum to 1 for any src/dst pair.  Cached per size pair, so
    the array is read-only.
    """
    w = np.zeros((dst, src))
    scale = src / dst
    for i in range(dst):
        lo, hi = i * scale, (i + 1) * scale
        j0, j1 = int(np.floor(lo)), int(np.ceil(hi))
        for j in range(j0, min(j1, src)):
            w[i, j] = min(hi, j + 1) - max(lo, j)
    w /= scale
    w.flags.writeable = False
    return w


def resize_area(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Resize (H, W, C) or (H, W) by exact area averaging.

    At the same size the weights are the identity and the two products
    are skipped.  For finite input the result has the products' bits:
    the values unchanged, with -0.0 turned into 0.0.  A single value
    still goes through the products, which are then one multiplication
    and keep -0.0.
    """
    flat = np.atleast_3d(img)
    if img.shape[:2] == (height, width) and img.size > 1:
        out = np.add(flat, 0.0, dtype=np.float64)
    else:
        wy = _overlap_weights(img.shape[0], height)
        wx = _overlap_weights(img.shape[1], width)
        out = np.tensordot(wy, flat, axes=(1, 0))  # (height, W, C)
        out = np.tensordot(out, wx, axes=(1, 1)).transpose(0, 2, 1)  # (height, width, C)
    return out.reshape(height, width, *img.shape[2:])


def sample_bilinear(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) at fractional coordinates with edge clamping.

    ys/xs are arrays of the same shape; the result has that shape plus
    the channel axis.  The four neighbours are gathered with `take` from
    contiguous channel planes, which is several times faster than
    fancy-indexing (H, W, C), and blended on (C, ...) planes with the
    float operations of a per-pixel blend.
    """
    h, w, c = img.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    fy = ys - y0
    fx = xs - x0
    planes = np.ascontiguousarray(np.moveaxis(img, -1, 0)).reshape(c, h * w)
    top = planes.take(row0 + x0, axis=1) * (1 - fx) + planes.take(row0 + x1, axis=1) * fx
    bot = planes.take(row1 + x0, axis=1) * (1 - fx) + planes.take(row1 + x1, axis=1) * fx
    return np.moveaxis(top * (1 - fy) + bot * fy, 0, -1)
