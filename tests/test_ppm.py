import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vprkit.errors import DecodeError, NonFiniteValue, ShapeError, VprError
from vprkit.ppm import quantize, read_ppm, write_ppm


def test_round_trip_is_exact_on_quantized_values(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((20, 17, 3))
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (20, 17, 3)
    np.testing.assert_array_equal(quantize(back), quantize(img))
    # second round trip is bit-stable
    write_ppm(tmp_path / "y.ppm", back)
    assert (tmp_path / "y.ppm").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda a: a[::-1, ::2], lambda a: a.transpose(1, 0, 2)],
    ids=["fortran", "strided", "transposed"],
)
def test_any_memory_layout_writes_the_c_order_bytes(tmp_path, layout):
    pixels = layout(np.random.default_rng(4).random((6, 10, 3)))
    write_ppm(tmp_path / "a.ppm", pixels)
    header = f"P6\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    assert (tmp_path / "a.ppm").read_bytes() == header + quantize(pixels).tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["a.ppm"]  # no temporary file left


def test_header_comments_are_skipped(tmp_path):
    body = bytes(range(2 * 2 * 3))
    (tmp_path / "c.ppm").write_bytes(b"P6\n# a comment\n2 2\n# more\n255\n" + body)
    img = read_ppm(tmp_path / "c.ppm")
    assert img.shape == (2, 2, 3)
    assert img[0, 0, 0] == 0.0


def test_bad_magic_raises(tmp_path):
    (tmp_path / "bad.ppm").write_bytes(b"P3\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(DecodeError, match="bad.ppm"):
        read_ppm(tmp_path / "bad.ppm")


def test_truncated_pixel_data_raises(tmp_path):
    (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
    with pytest.raises(DecodeError, match="truncated"):
        read_ppm(tmp_path / "t.ppm")


def test_unsupported_maxval_raises(tmp_path):
    (tmp_path / "m.ppm").write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
    with pytest.raises(DecodeError, match="maxval"):
        read_ppm(tmp_path / "m.ppm")


@pytest.mark.parametrize("size", [b"0 5", b"5 0", b"0 0"])
def test_empty_image_raises(tmp_path, size):
    (tmp_path / "e.ppm").write_bytes(b"P6\n" + size + b"\n255\n")
    with pytest.raises(DecodeError, match="e.ppm"):
        read_ppm(tmp_path / "e.ppm")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite_pixels(tmp_path, value):
    pixels = np.full((4, 5, 3), 0.5)
    pixels[1, 2, 0] = value
    path = tmp_path / "nan.ppm"
    with pytest.raises(NonFiniteValue, match="nan.ppm"):
        write_ppm(path, pixels)
    assert not path.exists()


@pytest.mark.parametrize(
    "shape", [(4, 5), (4, 5, 4), (4, 5, 3, 1), (0, 5, 3), (4, 0, 3)]
)
def test_write_rejects_non_image_shapes(tmp_path, shape):
    path = tmp_path / "shape.ppm"
    with pytest.raises(ShapeError, match="shape.ppm"):
        write_ppm(path, np.zeros(shape))
    assert not path.exists()


@settings(max_examples=500, deadline=None)
@given(
    head=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from([b"\n", b" # c\n"])),
    body=st.binary(max_size=64),
)
def test_any_bytes_decode_to_a_non_empty_image_or_raise(head, body):
    """Arbitrary bytes, or a P6 header of small, possibly zero width and
    height followed by a body of any length."""
    data = body
    if head is not None:
        width, height, sep = head
        data = b"P6" + sep + f"{width} {height}".encode() + sep + b"255\n" + body
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.ppm"
        path.write_bytes(data)
        try:
            img = read_ppm(path)
        except VprError:
            return
    assert img.ndim == 3 and img.shape[2] == 3 and img.size > 0
    assert np.isfinite(img).all() and img.min() >= 0.0 and img.max() <= 1.0


PIXELS = bytes(range(1, 13))  # a 2 x 2 body


@pytest.mark.parametrize(
    "header",
    [
        b"P6# right after the magic\n2 2 255\n",
        b"P62 2 255\n",
        b"P6 2#glued to a number\n2 255\n",
        b"P6\r2\n2\t255\n",
        b"P6\x0b2\x0c2 \r\n255\n",
        b"P6 2 2 255\t",
    ],
    ids=["comment-after-magic", "no-separator-after-magic", "comment-glued", "cr-lf-tab",
         "vt-ff-crlf", "tab-ends-header"],
)
def test_header_grammar_accepts(tmp_path, header):
    """Separators are whitespace or comments; none is needed after P6."""
    (tmp_path / "h.ppm").write_bytes(header + PIXELS)
    img = read_ppm(tmp_path / "h.ppm")
    np.testing.assert_array_equal(quantize(img).ravel(), np.frombuffer(PIXELS, np.uint8))


@pytest.mark.parametrize(
    "data",
    [
        b"P6 1 2255\nabcdef",  # '2255' is one number, never '2' then '255'
        b"P6 2 2 255" + PIXELS,  # no whitespace after maxval
        b"P6 2 2 255#c\n" + PIXELS,  # a comment does not end the header
        b"P6 2 2 # no newline ends this comment",
        b"P6 2 2",
        b"P6 2 x 255\n" + PIXELS,
        # More digits than int() parses by default (4,300).
        b"P6 " + b"1" * 5000 + b" 2 255\n" + PIXELS,
        b"P6 2 2 " + b"0" * 5000 + b"255\n" + PIXELS,
    ],
    ids=["2255-is-one-number", "no-whitespace-after-maxval", "comment-after-maxval",
         "unterminated-comment", "no-maxval", "not-a-number", "overlong-width",
         "overlong-maxval"],
)
def test_header_grammar_rejects(tmp_path, data):
    (tmp_path / "h.ppm").write_bytes(data)
    with pytest.raises(DecodeError, match="h.ppm"):
        read_ppm(tmp_path / "h.ppm")
