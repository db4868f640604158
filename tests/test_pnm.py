import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcompose import Image, read_image, write_image

from synth import synthetic_clean


def test_round_trip_within_half_quantization_step(tmp_path):
    img = synthetic_clean(30, width=17, height=13)
    path = tmp_path / "img.pgm"
    write_image(img, path)
    back = read_image(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back.data - img.data)) <= 1.0 / 510.0 + 1e-12


def test_round_trip_color_binary_and_ascii(tmp_path):
    img = synthetic_clean(31, width=9, height=8, channels=3)
    for ascii_format, name in ((False, "img.ppm"), (True, "img_ascii.ppm")):
        path = tmp_path / name
        write_image(img, path, ascii_format=ascii_format)
        back = read_image(path)
        assert np.max(np.abs(back.data - img.data)) <= 1.0 / 510.0 + 1e-12


def test_ascii_and_binary_encodings_read_identically(tmp_path):
    img = synthetic_clean(32, width=12, height=10)
    binary = tmp_path / "p5.pgm"
    ascii_ = tmp_path / "p2.pgm"
    write_image(img, binary, ascii_format=False)
    write_image(img, ascii_, ascii_format=True)
    assert read_image(binary) == read_image(ascii_)


def test_8bit_content_round_trips_byte_exactly(tmp_path):
    # value/255 on read, round half-up on write: files survive unchanged.
    rng = np.random.default_rng(33)
    raw = rng.integers(0, 256, size=(6, 7), dtype=np.uint8)
    path = tmp_path / "q.pgm"
    path.write_bytes(b"P5\n7 6\n255\n" + raw.tobytes())
    img = read_image(path)
    out = tmp_path / "q2.pgm"
    write_image(img, out)
    assert out.read_bytes() == path.read_bytes()


@st.composite
def _grid_images(draw):
    """Images of k/255 values snapped to the intensity grid, gray or colour."""
    channels = draw(st.sampled_from([1, 3]))
    height = draw(st.integers(1, 6))
    width = draw(st.integers(1, 6))
    levels = draw(st.lists(st.integers(0, 255), min_size=channels * height * width,
                           max_size=channels * height * width))
    return Image(np.array(levels, dtype=np.float64).reshape(channels, height, width) / 255.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(img=_grid_images(), ascii_format=st.booleans())
def test_write_read_round_trip_is_byte_idempotent(img, ascii_format):
    magic = {(1, True): b"P2", (3, True): b"P3", (1, False): b"P5", (3, False): b"P6"}
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write_image(img, first, ascii_format=ascii_format)
        back = read_image(first)
        write_image(back, second, ascii_format=ascii_format)
        assert first.read_bytes()[:2] == magic[img.channels, ascii_format]
        assert back == img
        assert second.read_bytes() == first.read_bytes()


def test_red_pixel_scale_definition(tmp_path):
    path = tmp_path / "red.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = read_image(path)
    assert img.data[:, 0, 0].tolist() == [1.0, 0.0, 0.0]


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # binary gray\n# size next\n2 2 # dims\n255\n" + bytes([0, 64, 128, 255]))
    img = read_image(path)
    assert img.width == 2 and img.height == 2
    assert img.data[0, 0, 1] == pytest.approx(64 / 255, abs=1e-12)


def test_ascii_values_with_comments_and_whitespace(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n2 2\n255\n0 # zero\n 10\n20\t30\n")
    img = read_image(path)
    assert np.allclose(img.data[0].ravel() * 255, [0, 10, 20, 30], atol=1e-9)


def test_unsupported_magic_raises(tmp_path):
    path = tmp_path / "x.pbm"
    path.write_bytes(b"P4\n2 2\n\x00\x00")
    with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported magic b'P4'")):
        read_image(path)


def test_png_signature_raises_unsupported(tmp_path):
    path = tmp_path / "x.png"
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + b"0" * 16)
    with pytest.raises(ValueError, match=re.escape(f"{path}: PNG input is not supported")):
        read_image(path)


def test_unsupported_maxval_raises(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match=re.escape(f"{path}: only maxval 255 is supported, got 65535")):
        read_image(path)


def test_malformed_header_raises(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\ntwo 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match=re.escape(f"{path}: non-numeric width: b'two'")):
        read_image(path)


def test_truncated_binary_payload_raises(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload holds 7 bytes, expected 16")):
        read_image(path)


def test_truncated_ascii_payload_raises(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_text("P2\n3 3\n255\n1 2 3 4\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: file ended after 4 of 9 expected values")):
        read_image(path)


def test_out_of_range_ascii_sample_raises(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_text("P2\n2 1\n255\n12 300\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: sample 300 outside 0..255")):
        read_image(path)


_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.builds(
    lambda text, end: b"#" + text.encode() + end,
    st.text(" 0123456789#x", max_size=6),
    st.sampled_from([b"\n", b"\r", b"\r\n"]),
)
_SEPARATOR = st.lists(st.one_of(_SPACE, _COMMENT), min_size=1, max_size=3).map(b"".join)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(img=_grid_images(), data=st.data())
def test_ascii_layout_reads_through_whitespace_and_comments(img, data):
    # Every gap of a P2/P3 file, header and samples alike, takes any mix of the
    # six whitespace bytes and line comments; a comment right after a token
    # ends it.  Cut short, the file names how many values it held, and the
    # digits of a trailing comment are not values.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img"
        write_image(img, path, ascii_format=True)
        tokens = path.read_bytes().split()  # magic, width, height, maxval, samples
        gaps = data.draw(st.lists(_SEPARATOR, min_size=len(tokens), max_size=len(tokens)))
        decorated = [token + gap for token, gap in zip(tokens, gaps)]
        path.write_bytes(b"".join(decorated))
        assert read_image(path) == img

        kept = data.draw(st.integers(1, len(tokens) - 1))
        tail = data.draw(st.sampled_from([b"", b" "])) + b"# 7 8 9"
        tail += data.draw(st.sampled_from([b"", b"\n", b"\r", b"\r\n"]))
        path.write_bytes(b"".join(decorated[: kept - 1]) + tokens[kept - 1] + tail)
        total = len(tokens) - 4
        expected = f"{kept - 1} of 3" if kept < 4 else f"{kept - 4} of {total}"
        message = f"{path}: file ended after {expected} expected values"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_image(path)


def test_binary_payload_needs_whitespace_not_a_comment_after_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5 2 2 255#c\n" + bytes(4))
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing whitespace before binary payload")):
        read_image(path)
