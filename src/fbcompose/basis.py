"""Filtered-basis construction and the two parameter-sampling procedures.

A filtered basis is an ordered stack of one filter family's outputs over a
single source image under several parameter configurations.  The residual
stack holds the signed differences source - plane.  Direct isometric
sampling (``dis_grid``) spaces parameter values evenly; indirect isometric
sampling (``calibrate`` + ``iis_select``) spaces the resulting quality
scores evenly instead, which removes near-duplicate configurations.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import filters
from .filters import FilterConfig, parse_config
from .image import Image
from .metrics import psnr


@dataclass(frozen=True)
class ParamRange:
    """One sampling axis: a [lo, hi] interval or an explicit value set."""

    name: str
    lo: float = 0.0
    hi: float = 0.0
    values: tuple[float, ...] | None = None

    @staticmethod
    def continuous(name: str, lo: float, hi: float) -> "ParamRange":
        if lo > hi:
            raise ValueError(f"range {name}: lo {lo} > hi {hi}")
        return ParamRange(name, float(lo), float(hi))

    @staticmethod
    def discrete(name: str, values: Iterable[float]) -> "ParamRange":
        frozen = tuple(float(v) for v in values)
        if not frozen:
            raise ValueError(f"range {name}: discrete value set must be non-empty")
        return ParamRange(name, values=frozen)

    def sample(self, count: int) -> tuple[float, ...]:
        """``count`` evenly spaced values including both endpoints.

        A count of 1 collapses to the midpoint; discrete axes always
        contribute their listed values.
        """
        if self.values is not None:
            return self.values
        if count < 1:
            raise ValueError(f"range {self.name}: count must be >= 1, got {count}")
        if count == 1:
            return ((self.lo + self.hi) / 2.0,)
        return tuple(float(v) for v in np.linspace(self.lo, self.hi, count))


def make_config(kind: str, params: Mapping[str, float]) -> FilterConfig:
    """Build a FilterConfig from canonical short parameter names.

    Integer parameters accept grid values within 1e-9 of an integer; extra
    names are ignored.
    """
    kind = kind.lower()
    if kind not in filters.KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    cls = filters.KINDS[kind]
    values = []
    for short, _, is_int in cls.PARAMS:
        if short not in params:
            raise ValueError(f"missing parameter {short!r} for filter kind {kind!r}")
        value = float(params[short])
        if is_int:
            if abs(value - round(value)) > 1e-9:
                raise ValueError(f"parameter {short!r} must be an integer, got {value}")
            value = int(round(value))
        values.append(value)
    return cls(*values)


def dis_grid(
    kind: str,
    ranges: Sequence[ParamRange],
    counts: Sequence[int],
    fixed: Mapping[str, float] | None = None,
) -> list[FilterConfig]:
    """Uniform per-parameter sampling combined as a full Cartesian product.

    The first range varies slowest (lexicographic order).  ``fixed`` holds
    parameters shared by every configuration.
    """
    if len(ranges) != len(counts):
        raise ValueError(f"{len(ranges)} ranges but {len(counts)} counts")
    axes = [axis.sample(int(count)) for axis, count in zip(ranges, counts)]
    base = dict(fixed or {})
    configs = []
    for combo in itertools.product(*axes):
        params = dict(base)
        params.update({axis.name: value for axis, value in zip(ranges, combo)})
        configs.append(make_config(kind, params))
    return configs


# ---------------------------------------------------------------------------
# Calibration and indirect isometric sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    config: FilterConfig
    score: float  # mean calibration PSNR, dB


class CalibrationError(ValueError):
    """A candidate could not be scored; the message names the config."""


def _ordered_map(fn: Callable, items: list, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def calibrate(
    candidates: Sequence[FilterConfig],
    calib_pairs: Sequence[tuple[Image, Image]],
    threads: int = 1,
) -> list[Candidate]:
    """Score each candidate by mean PSNR of apply(degraded, cfg) vs clean.

    Returns candidates sorted ascending by score; ties keep input order.
    """
    if not candidates:
        raise ValueError("no candidates to calibrate")
    if not calib_pairs:
        raise ValueError("no calibration pairs")

    def score_one(cfg: FilterConfig) -> float:
        try:
            values = [psnr(filters.apply(degraded, cfg), clean) for degraded, clean in calib_pairs]
        except Exception as exc:
            raise CalibrationError(f"calibration failed for {cfg.canonical()}: {exc}") from exc
        return float(np.mean(values))

    scores = _ordered_map(score_one, list(candidates), threads)
    ranked = [Candidate(cfg, score) for cfg, score in zip(candidates, scores)]
    ranked.sort(key=lambda cand: cand.score)
    return ranked


def iis_select(scored: Sequence[Candidate], m: int) -> list[FilterConfig]:
    """Pick m configs whose scores spread evenly over the observed range.

    Targets are m equally spaced scores across [min, max] (m == 1 uses the
    max).  Each target claims the still-unclaimed candidate nearest in
    score, ties resolved toward the higher score.  Selections are distinct
    and returned in non-decreasing score order.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > len(scored):
        raise ValueError(f"cannot select {m} configs from {len(scored)} candidates")
    lo = min(cand.score for cand in scored)
    hi = max(cand.score for cand in scored)
    targets = [hi] if m == 1 else [float(t) for t in np.linspace(lo, hi, m)]

    remaining = list(range(len(scored)))
    picked: list[int] = []
    for target in targets:
        best = min(
            remaining,
            key=lambda i: (abs(scored[i].score - target), -scored[i].score, i),
        )
        remaining.remove(best)
        picked.append(best)
    # Nearest-unclaimed can go non-monotone on pathological score sets, so
    # the result is ordered by score (identical to target order otherwise).
    picked.sort(key=lambda i: (scored[i].score, i))
    return [scored[i].config for i in picked]


# ---------------------------------------------------------------------------
# Basis stacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FilteredBasis:
    """Ordered stack of filter outputs over one source image."""

    source: Image
    configs: tuple[FilterConfig, ...]
    planes: tuple[Image, ...]

    def __post_init__(self):
        if not self.configs:
            raise ValueError("a filtered basis needs at least one config")
        if len(self.configs) != len(self.planes):
            raise ValueError(
                f"{len(self.configs)} configs vs {len(self.planes)} planes"
            )
        for plane in self.planes:
            if plane.shape != self.source.shape:
                raise ValueError(
                    f"plane shape {plane.shape} != source shape {self.source.shape}"
                )

    @property
    def magnitude(self) -> int:
        return len(self.configs)

    def tensor(self) -> np.ndarray:
        """Planes stacked to (n, channels, height, width)."""
        return np.stack([plane.data for plane in self.planes])


@dataclass(frozen=True, eq=False)
class ResidualBasis:
    """Signed, unclamped planes source - filtered[i].

    Kept as raw float64 arrays (not Images) so no clamping is applied;
    plane + residual reproduces the source exactly because every stored
    intensity sits on the dyadic grid.  The model derives its residual
    branch from the basis and never builds this stack.
    """

    planes: tuple[np.ndarray, ...]

    @property
    def magnitude(self) -> int:
        return len(self.planes)

    def tensor(self) -> np.ndarray:
        return np.stack(self.planes)


def build_basis(
    source: Image,
    configs: Sequence[FilterConfig],
    threads: int = 1,
    cache: "FBCache | None" = None,
) -> FilteredBasis:
    """Filter ``source`` under every config; plane order matches config order.

    Planes may be computed concurrently (``threads``); results are assembled
    in input order, so the output is identical for any thread count.
    """
    if not configs:
        raise ValueError("a filtered basis needs at least one config")

    def one(cfg: FilterConfig) -> Image:
        if cache is not None:
            hit = cache.get(source, cfg)
            if hit is not None:
                return hit
        plane = filters.apply(source, cfg)
        if cache is not None:
            cache.put(source, cfg, plane)
        return plane

    planes = _ordered_map(one, list(configs), threads)
    return FilteredBasis(source, tuple(configs), tuple(planes))


def build_residuals(basis: FilteredBasis) -> ResidualBasis:
    source = basis.source.data
    planes = []
    for plane in basis.planes:
        residual = source - plane.data  # exact: both operands on the grid
        residual.setflags(write=False)
        planes.append(residual)
    return ResidualBasis(tuple(planes))


# ---------------------------------------------------------------------------
# Shipped presets
# ---------------------------------------------------------------------------

# Nine bilateral configurations selected by indirect isometric sampling:
# the 77-candidate grid below was calibrated on a seeded synthetic
# denoising suite (Gaussian noise, sigma255=25) and nine evenly spaced
# scores were sampled.  Regenerate with the `calibrate` CLI command.
_BILATERAL_PRESET_9 = (
    "bilateral:ss=0.1,sr=0.5,k=15",
    "bilateral:ss=0.4,sr=0.5,k=15",
    "bilateral:ss=0.4,sr=3.5,k=15",
    "bilateral:ss=0.5,sr=0.5,k=15",
    "bilateral:ss=0.5,sr=3.5,k=15",
    "bilateral:ss=0.6,sr=0.5,k=15",
    "bilateral:ss=0.7000000000000001,sr=0.5,k=15",
    "bilateral:ss=0.8,sr=1,k=15",
    "bilateral:ss=1.1,sr=0.5,k=15",
)

_MEDIAN_SHAPES = ((3, 3), (3, 5), (3, 7), (3, 9), (5, 5), (5, 7), (5, 9), (7, 7))


def bilateral_candidate_grid() -> list[FilterConfig]:
    """The dense 77-candidate bilateral grid used for calibration."""
    ranges = [
        ParamRange.continuous("ss", 0.1, 1.1),
        ParamRange.continuous("sr", 0.5, 3.5),
    ]
    return dis_grid("bilateral", ranges, (11, 7), fixed={"k": 15})


def bilateral_preset() -> list[FilterConfig]:
    """Magnitude-9 bilateral basis selected by indirect isometric sampling."""
    return [parse_config(text) for text in _BILATERAL_PRESET_9]


def median_preset() -> list[FilterConfig]:
    """The eight median window shapes."""
    return [filters.Median(k1, k2) for k1, k2 in _MEDIAN_SHAPES]


def rgf_preset() -> list[FilterConfig]:
    """Eight rolling-guidance combinations: sr x ss x iterations, window 9."""
    return [
        filters.RollingGuidance(sigma_range=sr, sigma_spatial=ss, window=9, iterations=t)
        for sr in (0.2, 0.5)
        for ss in (3.0, 6.0)
        for t in (2, 4)
    ]


BUILTIN_PRESETS: dict[str, Callable[[], list[FilterConfig]]] = {
    "bilateral9": bilateral_preset,
    "median8": median_preset,
    "rgf8": rgf_preset,
}


# ---------------------------------------------------------------------------
# Preset manifests and calibration reports
# ---------------------------------------------------------------------------


def write_preset(configs: Sequence[FilterConfig], path) -> None:
    """One canonical config string per line; '#' starts a comment."""
    lines = ["# fbcompose preset"]
    lines.extend(cfg.canonical() for cfg in configs)
    Path(path).write_text("\n".join(lines) + "\n")


def read_preset(path) -> list[FilterConfig]:
    configs = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            configs.append(parse_config(line))
    if not configs:
        raise ValueError(f"preset {path} lists no configs")
    return configs


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row and then ``rows`` with the csv module's defaults."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_calibration_report(scored: Sequence[Candidate], path) -> None:
    """CSV of `config,score_db` rows (config strings are quoted)."""
    rows = ([cand.config.canonical(), repr(cand.score)] for cand in scored)
    write_csv(path, ["config", "score_db"], rows)


# ---------------------------------------------------------------------------
# Disk cache for basis planes
# ---------------------------------------------------------------------------


class FBCache:
    """Content-addressed plane cache: one ``.npy`` file per (source, config).

    Layout: ``<root>/<sha256(image)[:16]>/<sha256(config)[:16]>.npy``.  The
    image key hashes the raw float64 bytes plus dimensions, so any change to
    either source or config misses cleanly.  Planes are stored losslessly;
    the 8-bit file formats would quantize them and make cached and fresh
    runs diverge.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _image_key(img: Image) -> str:
        digest = hashlib.sha256()
        digest.update(repr(img.shape).encode())
        digest.update(img.data.tobytes())
        return digest.hexdigest()[:16]

    @staticmethod
    def _config_key(cfg: FilterConfig) -> str:
        return hashlib.sha256(cfg.canonical().encode()).hexdigest()[:16]

    def path_for(self, img: Image, cfg: FilterConfig) -> Path:
        return self.root / self._image_key(img) / (self._config_key(cfg) + ".npy")

    def get(self, img: Image, cfg: FilterConfig) -> Image | None:
        path = self.path_for(img, cfg)
        if not path.exists():
            return None
        try:
            arr = np.load(path)
        except (OSError, ValueError):
            return None
        if arr.shape != img.shape:
            return None
        return Image(arr)

    def put(self, img: Image, cfg: FilterConfig, plane: Image) -> None:
        path = self.path_for(img, cfg)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A temp file per writer: concurrent puts of one key (threads or
        # processes sharing the directory) must not write into one file.
        tmp = path.with_name(f"{path.stem}.{os.getpid()}-{threading.get_ident()}.tmp.npy")
        try:
            np.save(tmp, plane.data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
