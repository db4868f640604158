"""Bit-exact PGM/PPM reading and writing (P2/P3/P5/P6, maxval 255).

8-bit samples map to value/255 on read and round half-up on write, so an
8-bit file survives a read/write round trip byte-for-byte.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .image import Image


_MAGIC_CHANNELS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
_ASCII_MAGICS = {b"P2", b"P3"}
# A comment runs from '#' to the end of its line.  The lookahead keeps a failed
# header match from backtracking into the comment and reading its text.
_COMMENT = re.compile(rb"#[^\n\r]*(?![^\n\r])")
_HEADER_TOKEN = re.compile(rb"(?:\s|" + _COMMENT.pattern + rb")*([^\s#]+)")


def _parse_int(token: bytes, what: str, path) -> int:
    """ASCII decimal digits only: ``int`` alone would also read b"1_0" and b"+5"."""
    if not token.isdigit():
        raise ValueError(f"{path}: non-numeric {what}: {token!r}")
    return int(token)


def read_image(path) -> Image:
    """Load a PGM (P2/P5) or PPM (P3/P6) file with maxval 255.  Every error
    names ``path``."""
    blob = Path(path).read_bytes()
    if blob[:8] == b"\x89PNG\r\n\x1a\n":
        raise ValueError(f"{path}: PNG input is not supported; use PGM/PPM")
    magic = blob[:2]
    if magic not in _MAGIC_CHANNELS:
        raise ValueError(f"{path}: unsupported magic {magic!r}; expected P2/P3/P5/P6")
    channels = _MAGIC_CHANNELS[magic]

    header, offset = [], 2
    while len(header) < 3:
        token = _HEADER_TOKEN.match(blob, offset)
        if token is None:
            raise ValueError(f"{path}: file ended after {len(header)} of 3 expected values")
        header.append(token[1])
        offset = token.end()
    width, height, maxval = map(_parse_int, header, ("width", "height", "maxval"), [path] * 3)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")

    total = width * height * channels
    if magic in _ASCII_MAGICS:
        tokens = _COMMENT.sub(b" ", blob[offset:]).split()
        if len(tokens) < total:
            raise ValueError(f"{path}: file ended after {len(tokens)} of {total} expected values")
        samples = np.empty(total, dtype=np.float64)
        for pos in range(total):
            value = _parse_int(tokens[pos], "sample", path)
            if not 0 <= value <= 255:
                raise ValueError(f"{path}: sample {value} outside 0..255")
            samples[pos] = value
    else:
        # Binary payload starts after exactly one whitespace byte.
        if not blob[offset : offset + 1].isspace():
            raise ValueError(f"{path}: missing whitespace before binary payload")
        payload = blob[offset + 1 : offset + 1 + total]
        if len(payload) < total:
            raise ValueError(f"{path}: payload holds {len(payload)} bytes, expected {total}")
        samples = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)

    pixels = samples.reshape(height, width, channels)
    return Image(pixels.transpose(2, 0, 1) / 255.0)


def write_image(img: Image, path, ascii_format: bool = False) -> None:
    """Write ``img`` as PGM (1 channel) or PPM (3 channels), maxval 255.

    Binary encodings (P5/P6) by default; ``ascii_format`` selects P2/P3.
    Samples are quantized by round half-up.
    """
    samples = np.floor(img.data * 255.0 + 0.5).astype(np.uint8)
    interleaved = samples.transpose(1, 2, 0)  # (h, w, c)
    if ascii_format:
        magic = "P2" if img.channels == 1 else "P3"
        lines = [magic, f"{img.width} {img.height}", "255"]
        flat = interleaved.reshape(-1)
        for begin in range(0, flat.size, 12):  # keep ASCII lines short
            lines.append(" ".join(str(v) for v in flat[begin : begin + 12]))
        Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    else:
        magic = "P5" if img.channels == 1 else "P6"
        header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
        Path(path).write_bytes(header + interleaved.tobytes())
