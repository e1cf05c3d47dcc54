"""Binary PPM (P6, maxval 255) reading and writing.

PPM is the mandatory interchange format for all image files in this
toolkit: trivially decodable anywhere, no external dependencies.
Pixels are exchanged with the rest of the toolkit as float64 arrays of
shape (H, W, 3) with values in [0, 1].
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DecodeError, NonFiniteValue, ShapeError
from .manifest import atomic_write_bytes

# P6, then width, height and maxval, then exactly one whitespace byte.
# Separators are whitespace or '#' comments running to a newline: any
# number after the magic, at least one between numbers (so '2255' is
# never split into '2' and '255').
_SEP = rb"(?:\s|#[^\n]*\n)"
_HEADER = re.compile(rb"P6%s*(\d+)%s+(\d+)%s+(\d+)\s" % (_SEP, _SEP, _SEP))


def read_ppm(path: str | Path) -> np.ndarray:
    """Decode a binary PPM file into a (H, W, 3) float64 array in [0, 1]; a
    file it cannot read, or an image with zero width or height, is a DecodeError."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DecodeError(f"{path.name}: cannot read: {exc.strerror}") from None
    header = _HEADER.match(data)
    if header is None:
        raise DecodeError(f"{path.name}: not a binary PPM (bad or missing P6 header)")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:  # more digits than int() accepts
        raise DecodeError(f"{path.name}: header number too long") from None
    if maxval != 255:
        raise DecodeError(f"{path.name}: unsupported maxval {maxval}")
    if width == 0 or height == 0:
        raise DecodeError(f"{path.name}: empty image ({width} x {height})")
    expected, body = width * height * 3, len(data) - header.end()
    if body < expected:
        raise DecodeError(f"{path.name}: pixel data truncated ({body} of {expected} bytes)")
    raster = np.frombuffer(data, np.uint8, expected, header.end())
    return raster.reshape(height, width, 3).astype(np.float64) / 255.0


def check_pixels(pixels: np.ndarray, name: str) -> np.ndarray:
    """``pixels`` as an array, if it is an image: a ShapeError unless it is
    a non-empty (H, W, 3) array, a NonFiniteValue if it holds NaN or
    infinity.  Each message starts with ``name``."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.size == 0:
        raise ShapeError(f"{name}: expected non-empty (H, W, 3) pixels, got {pixels.shape}")
    if not np.isfinite(pixels).all():
        raise NonFiniteValue(f"{name} has a NaN or infinite pixel")
    return pixels


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Encode a (H, W, 3) float array in [0, 1] as binary PPM.  Pixels
    that ``check_pixels`` refuses, as read_ppm would an empty image, raise
    its error naming the path before anything is written.
    """
    pixels = check_pixels(pixels, str(path))
    height, width = pixels.shape[:2]
    raster = quantize(pixels)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    atomic_write_bytes(Path(path), [header, np.ascontiguousarray(raster)])


def quantize(pixels: np.ndarray) -> np.ndarray:
    """Map float pixels in [0, 1] to uint8 with round-half-away behaviour."""
    return np.clip(np.floor(pixels * 255.0 + 0.5), 0, 255).astype(np.uint8)
