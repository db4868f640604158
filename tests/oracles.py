"""Independent brute-force references for kernel verification.

Each function re-derives its definition with explicit per-pixel loops and
separately evaluated spatial/range kernels; ``oracle_joint_bilateral``,
``oracle_gaussian_2d`` and ``oracle_windowed_gaussian`` run the same
per-pixel arithmetic for all pixels at once, each pinned to its ``_literal``
loop form.  None of them call the library kernels, so agreement is
meaningful evidence of correctness.  All operate on raw (channels, height,
width) float64 arrays with clamp-to-edge borders.
The bit-identity references near the end are the exception: see there.
The last section solves the "mse" training objective exactly, from the
parameter layout alone, as the optimum ``train`` is measured against.
"""

import math

import numpy as np

from fbcompose import Image
from fbcompose.image import GRID_BITS


def _clamp(v: int, hi: int) -> int:
    return min(max(v, 0), hi)


def _normalized_gaussian_2d(sigma: float) -> np.ndarray:
    """The normalized radius-ceil(3*sigma) 2-D Gaussian kernel."""
    radius = math.ceil(3.0 * sigma)
    axis = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(axis[:, None] ** 2 + axis[None, :] ** 2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def oracle_gaussian_2d(data: np.ndarray, sigma: float) -> np.ndarray:
    """The direct 2-D convolution of ``oracle_gaussian_2d_literal`` with every
    pixel at once: the same taps added in the same raster order."""
    kernel = _normalized_gaussian_2d(sigma)
    radius = kernel.shape[0] // 2
    _, height, width = data.shape
    padded = np.pad(data, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    out = np.zeros_like(data)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out += kernel[dy, dx] * padded[:, dy:dy + height, dx:dx + width]
    return out


def oracle_gaussian_2d_literal(data: np.ndarray, sigma: float) -> np.ndarray:
    """Direct 2-D convolution with the normalized radius-ceil(3*sigma) kernel."""
    kernel = _normalized_gaussian_2d(sigma)
    radius = kernel.shape[0] // 2
    channels, height, width = data.shape
    out = np.zeros_like(data)
    for ch in range(channels):
        for y in range(height):
            for x in range(width):
                acc = 0.0
                for dy in range(-radius, radius + 1):
                    for dx in range(-radius, radius + 1):
                        yy = _clamp(y + dy, height - 1)
                        xx = _clamp(x + dx, width - 1)
                        acc += kernel[dy + radius, dx + radius] * data[ch, yy, xx]
                out[ch, y, x] = acc
    return out


def oracle_joint_bilateral(
    src: np.ndarray,
    guide: np.ndarray,
    sigma_spatial: float,
    sigma_range: float,
    window: int,
) -> np.ndarray:
    """The per-pixel normalized double sum of ``oracle_joint_bilateral_literal``
    with every pixel at once: the full window in raster order, separate f and
    g kernels, ``num += f*g*src`` and ``den += f*g``."""
    radius = window // 2
    _, height, width = src.shape
    pad = ((0, 0), (radius, radius), (radius, radius))
    padded_src = np.pad(src, pad, mode="edge")
    padded_guide = np.pad(guide, pad, mode="edge")
    num = np.zeros_like(src)
    den = np.zeros((height, width))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            rows = slice(radius + dy, radius + dy + height)
            cols = slice(radius + dx, radius + dx + width)
            f = math.exp(-(dy * dy + dx * dx) / (2.0 * sigma_spatial**2))
            delta = padded_guide[:, rows, cols] - guide
            g = np.exp(-np.sum(delta * delta, axis=0) / (2.0 * sigma_range**2))
            num += f * g * padded_src[:, rows, cols]
            den += f * g
    return num / den


def oracle_joint_bilateral_literal(
    src: np.ndarray,
    guide: np.ndarray,
    sigma_spatial: float,
    sigma_range: float,
    window: int,
) -> np.ndarray:
    """Literal per-pixel normalized double sum with separate f and g kernels."""
    radius = window // 2
    channels, height, width = src.shape
    out = np.zeros_like(src)
    for y in range(height):
        for x in range(width):
            num = np.zeros(channels)
            den = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = _clamp(y + dy, height - 1)
                    xx = _clamp(x + dx, width - 1)
                    f = math.exp(-(dy * dy + dx * dx) / (2.0 * sigma_spatial**2))
                    delta = guide[:, yy, xx] - guide[:, y, x]
                    g = math.exp(-float(np.dot(delta, delta)) / (2.0 * sigma_range**2))
                    num += f * g * src[:, yy, xx]
                    den += f * g
            out[:, y, x] = num / den
    return out


def oracle_bilateral(
    src: np.ndarray, sigma_spatial: float, sigma_range: float, window: int
) -> np.ndarray:
    return oracle_joint_bilateral(src, src, sigma_spatial, sigma_range, window)


def oracle_windowed_gaussian(src: np.ndarray, sigma_spatial: float, window: int) -> np.ndarray:
    """``oracle_windowed_gaussian_literal`` with every pixel at once: the same
    weights added to ``num`` and ``den`` in the same raster order."""
    radius = window // 2
    _, height, width = src.shape
    padded = np.pad(src, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    num = np.zeros_like(src)
    den = 0.0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            f = math.exp(-(dy * dy + dx * dx) / (2.0 * sigma_spatial**2))
            num += f * padded[:, radius + dy:radius + dy + height, radius + dx:radius + dx + width]
            den += f
    return num / den


def oracle_windowed_gaussian_literal(
    src: np.ndarray, sigma_spatial: float, window: int
) -> np.ndarray:
    """Spatial-only normalized window average (range weights all one)."""
    radius = window // 2
    channels, height, width = src.shape
    out = np.zeros_like(src)
    for y in range(height):
        for x in range(width):
            num = np.zeros(channels)
            den = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = _clamp(y + dy, height - 1)
                    xx = _clamp(x + dx, width - 1)
                    f = math.exp(-(dy * dy + dx * dx) / (2.0 * sigma_spatial**2))
                    num += f * src[:, yy, xx]
                    den += f
            out[:, y, x] = num / den
    return out


def oracle_median(data: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """Sort-based order statistic over the k1 x k2 window."""
    r1, r2 = k1 // 2, k2 // 2
    channels, height, width = data.shape
    out = np.zeros_like(data)
    mid = (k1 * k2) // 2
    for ch in range(channels):
        for y in range(height):
            for x in range(width):
                values = []
                for dy in range(-r1, r1 + 1):
                    for dx in range(-r2, r2 + 1):
                        yy = _clamp(y + dy, height - 1)
                        xx = _clamp(x + dx, width - 1)
                        values.append(data[ch, yy, xx])
                values.sort()
                out[ch, y, x] = values[mid]
    return out


def oracle_ssim(x: np.ndarray, y: np.ndarray, window: int = 11, sigma: float = 1.5,
                k1: float = 0.01, k2: float = 0.03) -> float:
    """Per-window SSIM over valid positions with Gaussian-weighted statistics."""
    half = window // 2
    coords = np.arange(window, dtype=np.float64) - half
    taps = np.exp(-(coords[:, None] ** 2 + coords[None, :] ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    height, width = x.shape
    values = []
    for y0 in range(height - window + 1):
        for x0 in range(width - window + 1):
            px = x[y0 : y0 + window, x0 : x0 + window]
            py = y[y0 : y0 + window, x0 : x0 + window]
            mu_x = float((taps * px).sum())
            mu_y = float((taps * py).sum())
            var_x = float((taps * (px - mu_x) ** 2).sum())
            var_y = float((taps * (py - mu_y) ** 2).sum())
            cov = float((taps * (px - mu_x) * (py - mu_y)).sum())
            values.append(
                ((2 * mu_x * mu_y + c1) * (2 * cov + c2))
                / ((mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2))
            )
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# Bit-identity references: the vectorised kernels as they stood before the
# joint bilateral loop reused its buffers and shared each weight between
# opposite offsets (but adding the offsets in that loop's order and
# leaving out the pairs it leaves out, KERNEL_VERSION 4), before the median
# took one partition, and before rolling-guidance configs shared one chain.
# Unlike the oracles above they take and return Images (so outputs are
# grid-snapped like the library's), and the library must match them bit
# for bit, not within a tolerance.
# ---------------------------------------------------------------------------


def _half_window(window: int) -> list:
    """The offsets ``(dy, dx)`` with ``dy > 0``, or ``dy == 0`` and ``dx > 0``,
    in raster order: one of each pair of opposite offsets."""
    radius = window // 2
    return [
        (dy, dx) for dy in range(radius + 1) for dx in range(-radius if dy else 1, radius + 1)
    ]


def reference_left_out_weight(sigma_spatial: float, window: int, cut: float) -> float:
    """The spatial weight of every window offset at squared distance ``cut``
    or beyond, each pair's two opposite offsets summed one by one."""
    weights = []
    for dy, dx in _half_window(window):
        if dy * dy + dx * dx >= cut:
            weight = math.exp(-(dy * dy + dx * dx) / (2.0 * sigma_spatial**2))
            weights += [weight, weight]
    return math.fsum(weights)


def reference_cut(sigma_spatial: float, window: int) -> float:
    """The least squared distance whose pairs, with all farther ones, weigh
    at most a quarter grid step, 2**-(GRID_BITS + 2), or ``inf`` if none
    does.  The bound is written from the grid here rather than imported, so
    that moving the kernel's constant fails the identity tests."""
    for cut in sorted({dy * dy + dx * dx for dy, dx in _half_window(window)}):
        if reference_left_out_weight(sigma_spatial, window, cut) <= 2.0 ** -(GRID_BITS + 2):
            return cut
    return math.inf


def _reference_correlate_edge(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    radius = taps.size // 2
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(arr, pad, mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, taps.size, axis=axis)
    return view @ taps


def reference_gaussian_blur(a: Image, sigma_spatial: float) -> Image:
    radius = math.ceil(3.0 * sigma_spatial)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(xs * xs) / (2.0 * sigma_spatial * sigma_spatial))
    taps = taps / taps.sum()
    return Image(_reference_correlate_edge(_reference_correlate_edge(a.data, taps, 2), taps, 1))


def reference_offset_pairs(sigma_spatial: float, window: int, skip: bool = True) -> list:
    """The half-window offsets ``(dy, dx)`` whose pair of opposite offsets the
    bilateral sums take in; with ``skip``, those at ``reference_cut`` or
    beyond are left out."""
    cut = reference_cut(sigma_spatial, window) if skip else math.inf
    return [(dy, dx) for dy, dx in _half_window(window) if dy * dy + dx * dx < cut]


def reference_joint_bilateral(
    a: Image, guide: Image, sigma_spatial: float, sigma_range: float, window: int,
    skip: bool = True,
) -> Image:
    """The centre, then each offset of ``reference_offset_pairs`` followed by
    its opposite, every weight computed on its own with freshly allocated
    arrays.  ``skip=False`` takes in every pair: the sums of version 2."""
    radius = window // 2
    src = a.data
    ref = guide.data
    _, height, width = src.shape
    pad = ((0, 0), (radius, radius), (radius, radius))
    padded_src = np.pad(src, pad, mode="edge")
    padded_ref = np.pad(ref, pad, mode="edge")
    inv_ss = 1.0 / (2.0 * sigma_spatial * sigma_spatial)
    inv_sr = 1.0 / (2.0 * sigma_range * sigma_range)

    offsets = [(0, 0)]
    for dy, dx in reference_offset_pairs(sigma_spatial, window, skip):
        offsets += [(dy, dx), (-dy, -dx)]
    accum = np.zeros_like(src)
    norm = np.zeros((height, width))
    for dy, dx in offsets:
        rows = slice(radius + dy, radius + dy + height)
        cols = slice(radius + dx, radius + dx + width)
        values = padded_src[:, rows, cols]
        shifted_ref = padded_ref[:, rows, cols]
        delta = shifted_ref - ref
        dist2 = np.einsum("chw,chw->hw", delta, delta)
        weight = np.exp(-(dy * dy + dx * dx) * inv_ss - dist2 * inv_sr)
        accum += weight[np.newaxis] * values
        norm += weight
    return Image(accum / norm[np.newaxis])


def reference_median(a: Image, k1: int, k2: int) -> Image:
    """``np.median`` over every k1 x k2 window, per channel."""
    r1, r2 = k1 // 2, k2 // 2
    padded = np.pad(a.data, ((0, 0), (r1, r1), (r2, r2)), mode="edge")
    out = np.empty(a.data.shape)
    for c in range(a.channels):
        windows = np.lib.stride_tricks.sliding_window_view(padded[c], (k1, k2))
        out[c] = np.median(windows, axis=(2, 3))
    return Image(out)


def reference_rolling_guidance(
    a: Image, sigma_range: float, sigma_spatial: float, window: int, iterations: int
) -> Image:
    """One whole chain per config: Gaussian start, then the joint passes."""
    guide = reference_gaussian_blur(a, sigma_spatial)
    for _ in range(iterations):
        guide = reference_joint_bilateral(a, guide, sigma_spatial, sigma_range, window)
    return guide


# ---------------------------------------------------------------------------
# The "mse" optimum by alternating exact least squares
# ---------------------------------------------------------------------------


def oracle_mean_gram(bases, targets) -> np.ndarray:
    """Mean over samples of X^T X / rows for X = [p_1..p_n, source, 1, target],
    one row per pixel and channel: the data of the mean "mse" objective."""
    grams = []
    for basis, target in zip(bases, targets):
        columns = [plane.data.ravel() for plane in basis.planes]
        columns += [basis.source.data.ravel(), np.ones(target.data.size), target.data.ravel()]
        x = np.stack(columns, axis=1)
        grams.append(x.T @ x / x.shape[0])
    return np.mean(grams, axis=0)


def _oracle_errors(params: np.ndarray) -> np.ndarray:
    """The content, restored and merged errors as rows over the Gram
    columns, from the layout [wc (n), bc, wr (n), br, w1, w2, bm]."""
    n = (params.size - 5) // 2
    wc, bc, wr, br = params[:n], params[n], params[n + 1 : 2 * n + 1], params[2 * n + 1]
    w1, w2, bm = params[2 * n + 2 :]
    content = np.concatenate([wc, [0.0, bc]])
    restored = np.concatenate([wr, [1.0 - wr.sum(), -br]])
    merged = w1 * content + w2 * restored
    merged[-1] += bm
    return np.column_stack([np.stack([content, restored, merged]), np.full(3, -1.0)])


def oracle_mse_loss(params: np.ndarray, gram: np.ndarray, weights) -> float:
    """alpha, lam, gamma-weighted sum of the three mean squared errors."""
    errors = _oracle_errors(params)
    return float(np.asarray(weights) @ np.einsum("ki,ij,kj->k", errors, gram, errors))


def _exact_block_solve(params, free, gram, weights) -> np.ndarray:
    """Minimise over ``params[free]`` with the rest fixed; every error is
    affine in the free block, so this is one least-squares solve."""
    base = params.copy()
    base[free] = 0.0
    e0 = _oracle_errors(base)
    slopes = []
    for index in free:
        unit = base.copy()
        unit[index] = 1.0
        slopes.append(_oracle_errors(unit) - e0)
    slopes = np.array(slopes)  # (free, 3 errors, Gram columns)
    weighted = np.asarray(weights)[:, None] * (slopes @ gram)
    hessian = np.einsum("aki,bki->ab", weighted, slopes)
    rhs = np.einsum("aki,ki->a", weighted, e0)
    out = params.copy()
    out[free] = np.linalg.lstsq(hessian, -rhs, rcond=None)[0]
    return out


def oracle_als_mse(gram: np.ndarray, weights, start: np.ndarray, iterations: int = 200) -> np.ndarray:
    """Alternating exact least squares on the mean "mse" objective: the
    branch parameters and bm for fixed (w1, w2), then (w1, w2, bm) for fixed
    branches.  Neither half raises the loss."""
    params = np.array(start, dtype=np.float64)
    n = (params.size - 5) // 2
    branches = [*range(2 * n + 2), 2 * n + 4]
    merge = [2 * n + 2, 2 * n + 3, 2 * n + 4]
    for _ in range(iterations):
        params = _exact_block_solve(params, branches, gram, weights)
        params = _exact_block_solve(params, merge, gram, weights)
    return params
