"""Classical smoothing kernels and their tagged parameter sets.

Every kernel is a pure function from image to image: clamp-to-edge borders,
dimensions preserved, exact (non-accelerated) evaluation.  Each config type
has a canonical one-line form shared by preset manifests, model files and
the CLI, e.g. ``bilateral:ss=0.5,sr=1.5,k=15`` or ``median:3x5``.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import re
import sys
from typing import Any, Callable, ClassVar, Hashable, Mapping, Sequence

import numpy as np

from .image import GRID_BITS, Image


def _fmt_num(x: float) -> str:
    value = float(x)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _check_sigma(name: str, value: float) -> None:
    """Every kernel divides by 2*sigma*sigma, so that must be a normal float."""
    if not (0 < value < math.inf):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    if 2.0 * value * value < sys.float_info.min:
        raise ValueError(
            f"{name} is too small: 2*{name}^2 must be at least {sys.float_info.min!r}, got {value}"
        )


def _check_odd(name: str, value: int) -> None:
    if not 1 <= value < math.inf or int(value) != value or value % 2 == 0:
        raise ValueError(f"{name} must be an odd integer >= 1, got {value}")


def _check_count(name: str, value: int) -> None:
    if not 0 <= value < math.inf or int(value) != value:
        raise ValueError(f"{name} must be an integer >= 0, got {value}")


class FilterConfig:
    """One filter kind: the base of every tagged parameter set.

    Each subclass is made a frozen dataclass and declares its kind once:
    ``KIND`` names it, ``PARAMS`` holds one ``(short name, check)`` row per
    field in field order, which is also canonical order, and ``apply`` calls
    its kernel.  ``_TABLE``, built once per class, maps each short name to
    its field's ``(attribute, is-integer, check)``; a field annotated ``int``
    is an integer.  Construction runs every check, then stores integers as
    ``int`` so that a config has one canonical form.  That form and
    ``from_params``, the one builder behind ``parse_config`` and
    ``basis.parse_grid``, read ``_TABLE``.  ``apply`` looks its kernel up as
    a module global per call, so rebinding ``filters.bilateral`` reaches it.

    Configs whose ``group()`` keys are equal share one kernel run through
    ``apply_group``; by default every config is its own group.
    """

    KIND: ClassVar[str]
    PARAMS: ClassVar[tuple[tuple[str, Callable[[str, Any], None]], ...]]
    _TABLE: ClassVar[dict[str, tuple[str, bool, Callable[[str, Any], None]]]]

    def __init_subclass__(cls):
        dataclasses.dataclass(frozen=True)(cls)
        cls._TABLE = {
            short: (field.name, field.type in ("int", int), check)
            for (short, check), field in zip(cls.PARAMS, dataclasses.fields(cls), strict=True)
        }

    def __post_init__(self):
        for name, is_int, check in self._TABLE.values():
            value = getattr(self, name)
            check(name, value)
            if is_int and type(value) is not int:
                object.__setattr__(self, name, int(value))

    def group(self) -> Hashable:
        return self

    @classmethod
    def apply_group(cls, a: Image, cfgs: Sequence["FilterConfig"]) -> list[Image]:
        """The plane of every config of one group, in order."""
        return [cfg.apply(a) for cfg in cfgs]

    def canonical(self) -> str:
        parts = []
        for short, (name, is_int, _) in self._TABLE.items():
            value = getattr(self, name)
            parts.append(f"{short}={value if is_int else _fmt_num(value)}")
        return f"{self.KIND}:{','.join(parts)}"

    @classmethod
    def parse(cls, body: str) -> "FilterConfig":
        """Build from the ``name=value,...`` body of the canonical form."""
        return cls.from_params(_split_fields(body))

    @classmethod
    def from_params(cls, params: Mapping[str, float | str]) -> "FilterConfig":
        """Build from canonical short parameter names; an unknown or missing
        name is an error, and an integer parameter accepts a value that float
        rounding left just off an integer, as grid steps do."""
        for name in params:
            if name not in cls._TABLE:
                raise ValueError(f"unknown parameter {name!r} for filter kind {cls.KIND!r}")
        values = []
        for short, (_, is_int, _) in cls._TABLE.items():
            if short not in params:
                raise ValueError(f"missing parameter {short!r} for filter kind {cls.KIND!r}")
            try:
                value = float(params[short])
            except ValueError:
                raise ValueError(f"bad value {params[short]!r} for {short!r}") from None
            if is_int:
                if not math.isfinite(value) or abs(value - round(value)) > 1e-9:
                    raise ValueError(f"parameter {short!r} must be an integer, got {value}")
                value = int(round(value))
            values.append(value)
        return cls(*values)


class Bilateral(FilterConfig):
    """Edge-preserving weighted average with spatial and range Gaussians."""

    KIND = "bilateral"
    PARAMS = (("ss", _check_sigma), ("sr", _check_sigma), ("k", _check_odd))

    sigma_spatial: float
    sigma_range: float
    window: int = 15

    def apply(self, a: Image) -> Image:
        return bilateral(a, self.sigma_spatial, self.sigma_range, self.window)


class Median(FilterConfig):
    """Order-statistic filter over a k1 (rows) x k2 (columns) window.

    Its text form is ``median:K1xK2`` rather than ``key=value`` pairs.
    """

    KIND = "median"
    PARAMS = (("k1", _check_odd), ("k2", _check_odd))

    k1: int
    k2: int

    def canonical(self) -> str:
        return f"{self.KIND}:{self.k1}x{self.k2}"

    @classmethod
    def parse(cls, body: str) -> "Median":
        match = re.fullmatch(r"(\d+)x(\d+)", body.strip())
        if not match:
            raise ValueError("expected 'median:K1xK2'")
        return cls(int(match.group(1)), int(match.group(2)))

    def apply(self, a: Image) -> Image:
        return median(a, self.k1, self.k2)


class RollingGuidance(FilterConfig):
    """Gaussian-initialized guide refined by iterated joint bilateral passes."""

    KIND = "rgf"
    PARAMS = (("sr", _check_sigma), ("ss", _check_sigma), ("k", _check_odd), ("t", _check_count))

    sigma_range: float
    sigma_spatial: float
    window: int = 9
    iterations: int = 2

    def apply(self, a: Image) -> Image:
        return rolling_guidance(a, self)

    def group(self) -> Hashable:
        return dataclasses.replace(self, iterations=0)  # one chain per (sr, ss, k)

    @classmethod
    def apply_group(cls, a: Image, cfgs: Sequence["RollingGuidance"]) -> list[Image]:
        """Every iteration count read off one run of the longest chain."""
        longest = max(cfgs, key=lambda cfg: cfg.iterations)
        return rolling_guidance(a, longest, at=[cfg.iterations for cfg in cfgs])


class Gaussian(FilterConfig):
    """Plain Gaussian blur."""

    KIND = "gauss"
    PARAMS = (("ss", _check_sigma),)

    sigma_spatial: float

    def apply(self, a: Image) -> Image:
        return gaussian_blur(a, self.sigma_spatial)


KINDS: dict[str, type[FilterConfig]] = {cls.KIND: cls for cls in FilterConfig.__subclasses__()}


def _split_fields(body: str) -> dict[str, str]:
    """The ``name=value`` parts of a comma-separated body, in order.  A part
    without ``=`` or a name given twice is an error."""
    fields: dict[str, str] = {}
    for part in body.split(","):
        name, eq, value = part.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"expected name=value, got {part!r}")
        if name in fields:
            raise ValueError(f"parameter {name!r} appears twice")
        fields[name] = value.strip()
    return fields


def _kind(name: str) -> type[FilterConfig]:
    """The config class a kind name (any case) declares."""
    kind = name.strip().lower()
    if kind not in KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    return KINDS[kind]


def parse_config(text: str) -> FilterConfig:
    """Parse a canonical config string back into its tagged form; every error names it."""
    head, sep, body = text.strip().partition(":")
    try:
        if not sep:
            raise ValueError("missing ':'")
        return _kind(head).parse(body)
    except ValueError as exc:
        raise ValueError(f"bad filter config {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

# Version of the kernels' output: bump it whenever any kernel's result
# changes, so planes an older kernel wrote to a plane cache miss instead of
# being served (``basis.FBCache`` salts its keys with it).  2: the bilateral
# loop adds the centre first and then each pair of opposite offsets, which
# moves some planes by one grid step from version 1's offset order.  3: it
# skipped offset pairs whose spatial weight was below 2**-(GRID_BITS + 54).
# 4: it leaves out every pair at or beyond a squared distance cut, chosen so
# that the pairs left out weigh ``_CUT_WEIGHT`` at most; a plane moves by at
# most one grid step from version 3's.
KERNEL_VERSION = 4

# The most that the offset pairs a bilateral sum leaves out may weigh in
# all, both offsets of each pair counted: a quarter of a grid step.
_CUT_WEIGHT = 2.0 ** -(GRID_BITS + 2)
# Bytes of window copies the median partitions at once: one core's L2.
_MEDIAN_BAND_BYTES = 2 << 20


def gaussian_kernel1d(sigma_spatial: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps with radius ceil(3*sigma)."""
    _check_sigma("sigma_spatial", sigma_spatial)
    radius = math.ceil(3.0 * sigma_spatial)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(xs * xs) / (2.0 * sigma_spatial * sigma_spatial))
    return taps / taps.sum()


def _correlate_valid(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """1-D correlation along ``axis`` over every full window: that axis
    shrinks by ``taps.size - 1``."""
    return np.lib.stride_tricks.sliding_window_view(arr, taps.size, axis=axis) @ taps


def _correlate_edge(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    radius = taps.size // 2
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (radius, radius)
    return _correlate_valid(np.pad(arr, pad, mode="edge"), taps, axis)


def gaussian_blur(a: Image, sigma_spatial: float) -> Image:
    """Separable 2-D Gaussian convolution, clamp-to-edge borders.

    The normalized 2-D kernel factors exactly into the outer product of the
    normalized 1-D taps, so this equals direct 2-D convolution.
    """
    taps = gaussian_kernel1d(sigma_spatial)
    out = _correlate_edge(_correlate_edge(a.data, taps, axis=2), taps, axis=1)
    return Image(out)


def _offset_pairs(sigma_spatial: float, window: int) -> list[tuple[int, int, float]]:
    """The ``(dy, dx, spatial exponent)`` of each pair of opposite offsets a
    bilateral sum takes in, in the half window's raster order (dy > 0, or
    dy == 0 and dx > 0): those nearer than the cut D, the least squared
    distance such that the pairs at D or beyond weigh ``_CUT_WEIGHT`` at most.

    That bounds what leaving them out can do.  The denominator starts at the
    centre's weight 1, every range weight is at most 1 and every value lies
    in [0, 1], so adding back left-out weight w moves the quotient by at
    most w: a quarter grid step, one grid step at most once snapped.
    """
    radius = window // 2
    inv_ss = 1.0 / (2.0 * sigma_spatial * sigma_spatial)
    half = [
        (dy, dx, dy * dy + dx * dx)
        for dy in range(radius + 1)
        for dx in range(-radius if dy else 1, radius + 1)
    ]
    rings = collections.Counter(d2 for _, _, d2 in half)
    cut, left_out = math.inf, 0.0
    for d2 in sorted(rings, reverse=True):
        left_out += 2 * rings[d2] * math.exp(-d2 * inv_ss)
        if left_out > _CUT_WEIGHT:
            break
        cut = d2
    return [(dy, dx, -d2 * inv_ss) for dy, dx, d2 in half if d2 < cut]


def joint_bilateral(
    a: Image, guide: Image, sigma_spatial: float, sigma_range: float, window: int
) -> Image:
    """Window-limited bilateral average of ``a`` with range weights from ``guide``.

    For every pixel p the output is the per-pixel normalized sum over the
    window x window neighborhood of f(spatial distance) * g(range distance)
    * a(q), where f and g are Gaussians of the given sigmas and the range
    distance is the Euclidean distance over guide's channel vector.

    The weight is symmetric, w(p, p+o) == w(p+o, p), so each pair +o/-o of
    ``_offset_pairs`` computes its weights once.  Both sums start at the
    centre, whose weight is exactly 1, and add each pair in order, +o first.

    Pixels are addressed along whole padded rows of length ``row``, so the
    neighbour (y+dy, x+dx) of every output pixel lies ``dy*row + dx`` further
    on and each shifted operand is one contiguous run; the 2*radius columns
    between output rows are computed alongside and cropped at the end.
    """
    if a.shape != guide.shape:
        raise ValueError(f"joint_bilateral: image {a.shape} vs guide {guide.shape}")
    _check_sigma("sigma_spatial", sigma_spatial)
    _check_sigma("sigma_range", sigma_range)
    _check_odd("window", window)

    radius = window // 2
    channels, height, width = a.shape
    row = width + 2 * radius
    first = radius * row + radius
    span = (height - 1) * row + width
    pad = ((0, 0), (radius, radius), (radius, radius))
    flat_src = np.pad(a.data, pad, mode="edge").reshape(channels, -1)
    flat_ref = flat_src if guide is a else np.pad(guide.data, pad, mode="edge").reshape(channels, -1)
    inv_sr = 1.0 / (2.0 * sigma_range * sigma_range)

    # One run of weights over the centres [first - o, first + span) serves
    # both offsets of a pair: entries [o, o + span) weigh the +o neighbours
    # of the output pixels, entries [0, span) the -o ones.  Row 0 of ``step``
    # holds the weights, rows 1.. one side's weighted values, so each side
    # adds to both running sums with one ``+=``.
    sums = np.zeros((channels + 1, height * row))
    sums[0, :span] = 1.0  # the centre's weight is exactly 1
    sums[1:, :span] = flat_src[:, first:first + span]
    step = np.empty((channels + 1, span + first))
    delta = np.empty((channels, span + first)) if channels > 1 else None
    for dy, dx, spatial in _offset_pairs(sigma_spatial, window):
        o = dy * row + dx
        weight = step[0, :span + o]
        ahead, behind = flat_ref[:, first:first + span + o], flat_ref[:, first - o:first + span]
        if delta is None:  # gray: the difference is squared where it lies
            np.subtract(ahead[0], behind[0], out=weight)
            np.multiply(weight, weight, out=weight)
        else:
            diff = delta[:, :span + o]
            np.subtract(ahead, behind, out=diff)
            np.einsum("cn,cn->n", diff, diff, out=weight)
        np.multiply(weight, inv_sr, out=weight)
        np.subtract(spatial, weight, out=weight)
        np.exp(weight, out=weight)
        for lo, start in ((o, first + o), (0, first - o)):
            side = step[:, lo:lo + span]
            np.multiply(side[0], flat_src[:, start:start + span], out=side[1:])
            sums[:, :span] += side
    sums = sums.reshape(channels + 1, height, row)[:, :, :width]
    return Image(sums[1:] / sums[0])


def bilateral(a: Image, sigma_spatial: float, sigma_range: float, window: int) -> Image:
    """Bilateral filter: range weights taken from the image itself."""
    return joint_bilateral(a, a, sigma_spatial, sigma_range, window)


def median(a: Image, k1: int, k2: int) -> Image:
    """Exact k1 (rows) x k2 (columns) median per channel, its windows copied
    and partitioned a band of at most ``_MEDIAN_BAND_BYTES`` (or one row) at a time."""
    _check_odd("k1", k1)
    _check_odd("k2", k2)
    r1, r2 = k1 // 2, k2 // 2
    _, height, width = a.shape
    mid = k1 * k2 // 2  # odd window, finite data: the median is one order statistic
    band = max(1, min(height, _MEDIAN_BAND_BYTES // (width * k1 * k2 * 8)))
    padded = np.pad(a.data, ((0, 0), (r1, r1), (r2, r2)), mode="edge")
    buffer = np.empty((band, width, k1, k2))
    out = np.empty(a.data.shape)
    for c in range(a.channels):
        windows = np.lib.stride_tricks.sliding_window_view(padded[c], (k1, k2))
        for y in range(0, height, band):
            rows = min(band, height - y)
            buffer[:rows] = windows[y:y + rows]
            flat = buffer[:rows].reshape(rows, width, k1 * k2)  # a view: rows are contiguous
            flat.partition(mid, axis=-1)
            out[c, y:y + rows] = flat[..., mid]
    return Image(out)


def rolling_guidance(
    a: Image, cfg: RollingGuidance, at: Sequence[int] | None = None
) -> Image | list[Image]:
    """Gaussian initialization, then `iterations` joint bilateral passes of
    the input under the evolving guide.

    The passes form one chain, so a shorter chain is a prefix of it: with
    ``at``, a sequence of counts up to ``cfg.iterations``, the guides after
    each of those counts are returned, as a list in that order.
    """
    chain = [gaussian_blur(a, cfg.sigma_spatial)]
    for _ in range(cfg.iterations):
        chain.append(joint_bilateral(a, chain[-1], cfg.sigma_spatial, cfg.sigma_range, cfg.window))
    return chain[-1] if at is None else [chain[t] for t in at]
