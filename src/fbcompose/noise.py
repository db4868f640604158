"""Deterministic noise synthesis for building degraded/clean pairs.

All draws use numpy's PCG64 stream via ``default_rng(seed)``.  The draw
order is part of the contract so outputs stay reproducible:

* gaussian: one normal draw per sample in planar (channel, row, column) order
* impulse:  one uniform (height, width) replacement field, then one uniform
  (height, width) salt-vs-pepper field
"""

from __future__ import annotations

import numpy as np

from .image import Image


def check_amount(kind: str, amount: float) -> float:
    """``amount`` itself if it lies in the range of degradation ``kind``: a
    gaussian ``sigma255`` finite and >= 0, an impulse ``density`` in [0, 1]."""
    if kind == "gaussian" and not (np.isfinite(amount) and amount >= 0):
        raise ValueError(f"sigma255 must be finite and >= 0, got {amount}")
    if kind == "impulse" and not 0.0 <= amount <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {amount}")
    return amount


def add_gaussian_noise(a: Image, sigma255: float, seed: int) -> Image:
    """Add i.i.d. Gaussian noise of standard deviation sigma255/255.

    ``sigma255`` is expressed on the conventional 0-255 scale; the result is
    clamped back into [0, 1].
    """
    check_amount("gaussian", sigma255)
    rng = np.random.default_rng(seed)
    noisy = a.data + rng.normal(0.0, sigma255 / 255.0, size=a.data.shape)
    return Image(noisy)


def add_impulse_noise(a: Image, density: float, seed: int) -> Image:
    """Replace each pixel with probability ``density`` by pure black or white.

    A replaced pixel gets the same extreme on every channel; black and white
    are equally likely.
    """
    check_amount("impulse", density)
    rng = np.random.default_rng(seed)
    replace = rng.random((a.height, a.width)) < density
    extremes = np.where(rng.random((a.height, a.width)) < 0.5, 1.0, 0.0)
    out = np.array(a.data)
    out[:, replace] = extremes[replace]
    return Image(out)


# The noise function of each manifest degradation, looked up by name per call.
DEGRADATIONS = {"gaussian": "add_gaussian_noise", "impulse": "add_impulse_noise"}
