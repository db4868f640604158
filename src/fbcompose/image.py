"""Planar raster type shared by every stage of the pipeline."""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

# Intensities are snapped onto a fixed dyadic grid (multiples of 2**-48).
# With both operands on the grid, the difference and the sum of two rasters
# are exactly representable in float64 (the integer numerators stay below
# 2**53), so a residual plane satisfies plane + residual == source
# bit-for-bit.  The grid step (~3.6e-15) sits far below every tolerance used
# anywhere else in the package.
GRID_BITS = 48
# Doubles in [16, 17] are exactly 2**-GRID_BITS apart, so x + 16 - 16 for x in [0, 1]
# is rint(x * 2**48) / 2**48 (ties to even) bit for bit, except that -0.0 gives +0.0.
_ROUNDER = float(1 << (52 - GRID_BITS))


def snap_unit(values, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp to [0, 1] and round to the nearest intensity grid point, into one new
    C-contiguous array or into ``out`` (float64, same shape, may be ``values``); raises
    ValueError on non-finite data.  ``values`` is not otherwise written."""
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN makes min() and max() NaN
        raise ValueError("image data must be finite")
    if lo < 0.0 or hi > 1.0:
        arr = out = np.clip(arr, 0.0, 1.0, out=out, order="C")
    arr = np.add(arr, _ROUNDER, out=out, order="C")
    arr -= _ROUNDER
    return arr


@dataclass(frozen=True, eq=False)
class Image:
    """Immutable multi-channel image.

    ``data`` has shape (channels, height, width) with float64 intensities in
    [0, 1]; grayscale images carry one channel, color images three.  A 2-D
    array is accepted and treated as grayscale.  Values are clamped and
    grid-snapped on construction and the backing array is frozen, so every
    public operation that returns an Image also returns in-range data.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[np.newaxis, :, :]
        if arr.ndim != 3:
            raise ValueError(f"image data must be 2-D or 3-D, got {arr.ndim}-D")
        channels, height, width = arr.shape
        if channels not in (1, 3):
            raise ValueError(f"channel count must be 1 or 3, got {channels}")
        if height < 1 or width < 1:
            raise ValueError(f"empty image: {height}x{width}")
        arr = snap_unit(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Image":
        """An Image over ``data`` without a copy.  ``data`` must already hold
        what the constructor would store: a read-only (channels, height,
        width) float64 array of grid values, such as a slice of a stack of
        Image data."""
        img = object.__new__(cls)
        object.__setattr__(img, "data", data)
        return img

    @functools.cached_property
    def _digest(self) -> str:
        """sha256 of the shape and C-order bytes (fed as a view), taken once: the data is frozen."""
        digest = hashlib.sha256(repr(self.shape).encode())
        digest.update(memoryview(np.ascontiguousarray(self.data)).cast("B"))
        return digest.hexdigest()

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __eq__(self, other: object):
        if not isinstance(other, Image):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def to_gray(self) -> "Image":
        """Channel-mean grayscale version of this image."""
        if self.channels == 1:
            return self
        return Image(self.data.mean(axis=0))

    @staticmethod
    def constant(width: int, height: int, value: float, channels: int = 1) -> "Image":
        return Image(np.full((channels, height, width), float(value)))
