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

_MAGIC = b"P6"


def _read_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Parse `count` whitespace/comment separated ASCII integers.

    Returns the integers and the offset of the first byte after the
    single whitespace character that terminates the last token.
    """
    tokens: list[int] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise DecodeError("header ended prematurely")
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise DecodeError("unterminated comment in header")
            pos = nl + 1
        else:
            m = re.match(rb"\d+", data[pos:])
            if m is None:
                raise DecodeError(f"expected integer at byte {pos}")
            tokens.append(int(m.group(0)))
            pos += len(m.group(0))
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DecodeError("missing whitespace after maxval")
    return tokens, pos + 1


def read_ppm(path: str | Path) -> np.ndarray:
    """Decode a binary PPM file into a (H, W, 3) float64 array in [0, 1];
    an image with zero width or height is a DecodeError."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(_MAGIC):
        raise DecodeError(f"{path.name}: not a binary PPM (missing P6 magic)")
    try:
        (width, height, maxval), offset = _read_tokens(data[2:], 3)
    except DecodeError as exc:
        raise DecodeError(f"{path.name}: {exc}") from None
    if maxval != 255:
        raise DecodeError(f"{path.name}: unsupported maxval {maxval}")
    if width == 0 or height == 0:
        raise DecodeError(f"{path.name}: empty image ({width} x {height})")
    body = data[2 + offset :]
    expected = width * height * 3
    if len(body) < expected:
        raise DecodeError(
            f"{path.name}: pixel data truncated ({len(body)} of {expected} bytes)"
        )
    raster = np.frombuffer(body[:expected], dtype=np.uint8)
    return raster.reshape(height, width, 3).astype(np.float64) / 255.0


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Encode a (H, W, 3) float array in [0, 1] as binary PPM.

    Raises ShapeError for any other shape, including an empty image,
    which read_ppm would refuse, and NonFiniteValue for NaN or infinite
    pixels; both name the path.
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.size == 0:
        raise ShapeError(f"{path}: expected non-empty (H, W, 3) array, got {pixels.shape}")
    if not np.isfinite(pixels).all():
        raise NonFiniteValue(f"{path}: pixels hold NaN or infinity")
    height, width = pixels.shape[:2]
    raster = quantize(pixels)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


def quantize(pixels: np.ndarray) -> np.ndarray:
    """Map float pixels in [0, 1] to uint8 with round-half-away behaviour."""
    return np.clip(np.floor(pixels * 255.0 + 0.5), 0, 255).astype(np.uint8)
