"""Seeded synthetic inputs for the benchmark.

Images are smooth backgrounds (a gradient plus a soft sinusoid) with blocky
constant-filled rectangles and discs, so edge-preserving filters have both
edges and flats to work on.  Noise is drawn here, not by the program under
test, and every file is written as binary PGM/PPM with maxval 255.  The same
seed always gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def clean_image(rng: np.random.Generator, height: int, width: int, channels: int = 1) -> np.ndarray:
    """One clean (channels, height, width) image in [0, 1]."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    yy /= max(height - 1, 1)
    xx /= max(width - 1, 1)
    planes = []
    for _ in range(channels):
        gx, gy = rng.uniform(-0.35, 0.35, 2)
        plane = 0.5 + gx * (xx - 0.5) + gy * (yy - 0.5)
        fx, fy = rng.uniform(1.0, 3.0, 2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
        plane += 0.06 * np.sin(2 * np.pi * fx * xx + px) * np.sin(2 * np.pi * fy * yy + py)
        for _ in range(int(rng.integers(4, 8))):
            value = rng.uniform(0.12, 0.88)
            if rng.random() < 0.5:
                y0, x0 = int(rng.integers(0, height)), int(rng.integers(0, width))
                hh = int(rng.integers(max(2, height // 8), max(3, height // 2)))
                ww = int(rng.integers(max(2, width // 8), max(3, width // 2)))
                plane[y0 : y0 + hh, x0 : x0 + ww] = value
            else:
                cy, cx = rng.uniform(0, height - 1), rng.uniform(0, width - 1)
                radius = rng.uniform(min(height, width) / 10, min(height, width) / 4)
                inside = (yy * (height - 1) - cy) ** 2 + (xx * (width - 1) - cx) ** 2 <= radius**2
                plane[inside] = value
        planes.append(plane)
    return np.clip(np.stack(planes), 0.03, 0.97)


def gaussian_noise(rng: np.random.Generator, clean: np.ndarray, sigma255: float) -> np.ndarray:
    return np.clip(clean + rng.normal(0.0, sigma255 / 255.0, clean.shape), 0.0, 1.0)


def impulse_noise(rng: np.random.Generator, clean: np.ndarray, density: float) -> np.ndarray:
    """Salt-and-pepper: each pixel becomes black or white with probability ``density``."""
    _, height, width = clean.shape
    replace = rng.random((height, width)) < density
    extremes = np.where(rng.random((height, width)) < 0.5, 1.0, 0.0)
    out = clean.copy()
    out[:, replace] = extremes[replace]
    return out


def write_pnm(data: np.ndarray, path: Path) -> None:
    """Binary PGM (one channel) or PPM (three channels), maxval 255."""
    channels, height, width = data.shape
    samples = np.floor(data * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)
    magic = "P5" if channels == 1 else "P6"
    Path(path).write_bytes(f"{magic}\n{width} {height}\n255\n".encode("ascii") + samples.tobytes())


def noisy(rng: np.random.Generator, clean: np.ndarray, kind: str, amount: float) -> np.ndarray:
    """``kind`` is "gaussian" (sigma on the 0-255 scale) or "impulse" (density)."""
    if kind == "gaussian":
        return gaussian_noise(rng, clean, amount)
    return impulse_noise(rng, clean, amount)


def write_pairs(
    rng: np.random.Generator,
    directory: Path,
    prefix: str,
    count: int,
    shape: tuple[int, int],
    kind: str,
    amount: float,
) -> Path:
    """``count`` gray noisy/clean pairs and a ``pair`` manifest listing them."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for index in range(count):
        clean = clean_image(rng, *shape)
        name = f"{prefix}{index:02d}"
        write_pnm(clean, directory / f"{name}_clean.pgm")
        write_pnm(noisy(rng, clean, kind, amount), directory / f"{name}_noisy.pgm")
        lines.append(f"pair {name}_noisy.pgm {name}_clean.pgm")
    manifest = directory / f"{prefix}.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def write_recipes(
    rng: np.random.Generator,
    directory: Path,
    prefix: str,
    count: int,
    shape: tuple[int, int],
    sigma255: float,
    channels: int,
) -> Path:
    """``count`` clean images and a ``clean`` manifest that asks the program
    to draw Gaussian noise of ``sigma255`` itself."""
    directory.mkdir(parents=True, exist_ok=True)
    suffix = "pgm" if channels == 1 else "ppm"
    lines = []
    for index in range(count):
        name = f"{prefix}{index:02d}_clean.{suffix}"
        write_pnm(clean_image(rng, *shape, channels), directory / name)
        lines.append(f"clean {name} gaussian {sigma255:g}")
    manifest = directory / f"{prefix}.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
