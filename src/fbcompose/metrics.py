"""Image quality measures used for calibration, training and reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .filters import _correlate_valid, gaussian_kernel1d
from .image import Image

# Zero-MSE pairs report this finite sentinel instead of infinity so reports
# stay sortable.
PSNR_CAP_DB = 100.0

SSIM_SIGMA = 1.5
_SSIM_TAPS = gaussian_kernel1d(SSIM_SIGMA)
SSIM_WINDOW = _SSIM_TAPS.size  # 11: radius ceil(3 * sigma)
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a: Image, b: Image) -> float:
    """Peak signal-to-noise ratio in dB for data in [0, 1] (peak 1), MSE
    taken over all channels jointly."""
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    diff = a.data - b.data
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(1.0 / mse))


def _windowed_valid(plane: np.ndarray) -> np.ndarray:
    """Gaussian-weighted means over every full window, as two 1-D passes."""
    return _correlate_valid(_correlate_valid(plane, _SSIM_TAPS, 0), _SSIM_TAPS, 1)


def ssim(a: Image, b: Image) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    Follows the common convention: Gaussian window sigma 1.5, stabilizers
    K1 = 0.01 and K2 = 0.03, dynamic range 1.0.  Color inputs are reduced to
    grayscale by channel averaging first.  The mean is clamped to [-1, 1] to
    absorb last-ulp float noise; structurally inverted inputs go negative.
    """
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.height < SSIM_WINDOW or a.width < SSIM_WINDOW:
        raise ValueError(
            f"ssim: image {a.height}x{a.width} smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    x = a.to_gray().data[0]
    y = b.to_gray().data[0]

    mu_x = _windowed_valid(x)
    mu_y = _windowed_valid(y)
    var_x = np.maximum(_windowed_valid(x * x) - mu_x * mu_x, 0.0)
    var_y = np.maximum(_windowed_valid(y * y) - mu_y * mu_y, 0.0)
    cov = _windowed_valid(x * y) - mu_x * mu_y

    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    value = float(np.mean(num / den))
    return min(1.0, max(-1.0, value))


def tv_of_array(arr: np.ndarray) -> float:
    """Anisotropic total variation of a (channels, h, w) array, per pixel.

    Sum of absolute horizontal and vertical forward differences over all
    channels, divided by the pixel count h*w.
    """
    height, width = arr.shape[-2], arr.shape[-1]
    dx = float(np.abs(arr[..., :, 1:] - arr[..., :, :-1]).sum())
    dy = float(np.abs(arr[..., 1:, :] - arr[..., :-1, :]).sum())
    return (dx + dy) / (height * width)


@dataclass(frozen=True)
class MetricReport:
    """Aggregate PSNR/SSIM plus the per-image breakdown behind the means."""

    psnr: float
    ssim: float
    per_image: tuple[tuple[str, float, float], ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "MetricReport":
        frozen = tuple((str(i), float(p), float(s)) for i, p, s in rows)
        if not frozen:
            raise ValueError("metric report needs at least one image")
        mean_psnr = float(np.mean([row[1] for row in frozen]))
        mean_ssim = float(np.mean([row[2] for row in frozen]))
        return MetricReport(mean_psnr, mean_ssim, frozen)
