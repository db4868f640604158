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
import functools
import hashlib
import io
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import filters
from .filters import FilterConfig, parse_config
from .image import Image, snap_unit
from .metrics import psnr


def dis_grid(kind: str, axes: Mapping[str, Sequence[float]]) -> list[FilterConfig]:
    """Direct isometric sampling: the Cartesian product of per-parameter value axes.

    The first axis varies slowest (lexicographic order); a one-value axis
    fixes that parameter for every configuration.  A product that holds one
    config twice (a repeated axis value, or values equal after the integer
    snap) is a ValueError naming that config.
    """
    names, cls = list(axes), filters._kind(kind)
    configs = [cls.from_params(dict(zip(names, c))) for c in itertools.product(*axes.values())]
    seen: set[FilterConfig] = set()
    for cfg in configs:
        if cfg in seen:
            raise ValueError(f"config {cfg.canonical()} appears twice in the grid")
        seen.add(cfg)
    return configs


def parse_grid(spec: str) -> list[FilterConfig]:
    """The configs of a grid ``kind:name=lo:hi:count,name=v1|v2,name=value,...``.

    ``lo:hi:count`` is ``count`` evenly spaced values including both
    endpoints (the midpoint when count is 1), ``v1|v2`` the listed values
    and a plain value a one-value axis; the axes combine as in ``dis_grid``.
    A malformed part, a repeated name, lo > hi, a count below 1 or a
    repeated config is a ValueError.
    """
    head, sep, body = spec.strip().partition(":")
    if not sep:
        raise ValueError(f"bad grid {spec!r}: missing ':'")
    try:
        fields = filters._split_fields(body)
    except ValueError as exc:
        raise ValueError(f"{exc} in grid {spec!r}") from None
    axes: dict[str, tuple[float, ...]] = {}

    def number(text: str, parse=float):
        try:
            return parse(text)
        except ValueError:
            raise ValueError(f"bad number {text!r} for {name!r} in grid part '{name}={value}'") from None
    for name, value in fields.items():
        if "|" in value:
            axes[name] = tuple(number(v) for v in value.split("|"))
        elif ":" in value:
            ends = value.split(":")
            if len(ends) != 3:
                raise ValueError(f"bad grid range '{name}={value}': expected lo:hi:count")
            lo, hi, count = number(ends[0]), number(ends[1]), number(ends[2], int)
            if lo > hi:
                raise ValueError(f"range {name}: lo {lo} > hi {hi}")
            if count < 1:
                raise ValueError(f"range {name}: count must be >= 1, got {count}")
            if count == 1:
                axes[name] = ((lo + hi) / 2.0,)
            else:
                axes[name] = tuple(float(v) for v in np.linspace(lo, hi, count))
        else:
            axes[name] = (number(value),)
    return dis_grid(head.strip(), axes)


# ---------------------------------------------------------------------------
# Calibration and indirect isometric sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    config: FilterConfig
    score: float  # mean calibration PSNR, dB


def _ordered_map(fn: Callable, items: list, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _groups(configs: Sequence[FilterConfig]) -> list[list[int]]:
    """Index lists of the configs sharing a ``FilterConfig.group``, first-seen order."""
    groups: dict[object, list[int]] = {}
    for index, cfg in enumerate(configs):
        groups.setdefault(cfg.group(), []).append(index)
    return list(groups.values())


def calibrate(
    candidates: Sequence[FilterConfig],
    calib_pairs: Sequence[tuple[Image, Image]],
    threads: int = 1,
) -> list[Candidate]:
    """Score each candidate by mean PSNR of cfg.apply(degraded) vs clean;
    candidates that share a kernel run are scored from one basis per pair.

    Returns candidates sorted ascending by score; ties keep input order.
    A group that cannot be scored is a ``ValueError`` naming its configs.
    """
    if not candidates:
        raise ValueError("no candidates to calibrate")
    if not calib_pairs:
        raise ValueError("no calibration pairs")

    def score_group(indices: list[int]) -> list[float]:
        group = [candidates[i] for i in indices]
        try:
            per_pair = [
                [psnr(plane, clean) for plane in build_basis(degraded, group).planes]
                for degraded, clean in calib_pairs
            ]
        except Exception as exc:
            names = "; ".join(cfg.canonical() for cfg in group)
            raise ValueError(f"calibration failed for {names}: {exc}") from exc
        return [float(np.mean(values)) for values in zip(*per_pair)]

    groups = _groups(candidates)
    scores: dict[int, float] = {}
    for indices, found in zip(groups, _ordered_map(score_group, groups, threads)):
        scores.update(zip(indices, found))
    ranked = [Candidate(cfg, scores[i]) for i, cfg in enumerate(candidates)]
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
    """Ordered stack of filter outputs over one source image.

    ``stack`` is an (n, channels, height, width) float64 array of grid values,
    one plane per config, such as ``build_basis`` fills.  The basis takes it
    over without a copy and makes it read-only; each plane is a view into it.
    """

    source: Image
    configs: tuple[FilterConfig, ...]
    stack: np.ndarray
    planes: tuple[Image, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.configs:
            raise ValueError("a filtered basis needs at least one config")
        want = (len(self.configs), *self.source.shape)
        if self.stack.dtype != np.float64 or self.stack.shape != want:
            raise ValueError(
                f"basis stack is {self.stack.dtype} {self.stack.shape}, not float64 {want}: "
                f"one plane of source shape {self.source.shape} per config"
            )
        self.stack.setflags(write=False)
        object.__setattr__(self, "planes", tuple(Image._wrap(s) for s in self.stack))

    @property
    def magnitude(self) -> int:
        return len(self.configs)

    def tensor(self) -> np.ndarray:
        """The planes stacked to (n, channels, height, width): the read-only
        array the basis was built over, returned by every call."""
        return self.stack


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

    Configs that share a kernel run (``FilterConfig.group``) form one task;
    each task snaps its ``cache`` hits into their slots of the basis array
    and computes only the misses.  Tasks may run concurrently (``threads``);
    they fill disjoint slots, so the output is identical for any thread count.
    """
    configs = tuple(configs)
    stack = np.empty((len(configs), *source.shape))

    def one(indices: list[int]) -> None:
        misses = [
            i for i in indices if cache is None or cache.get(source, configs[i], stack[i]) is None
        ]
        if misses:
            cfgs = [configs[i] for i in misses]
            for i, cfg, plane in zip(misses, cfgs, type(cfgs[0]).apply_group(source, cfgs)):
                stack[i] = plane.data
                if cache is not None:
                    cache.put(source, cfg, plane)

    _ordered_map(one, _groups(configs), threads)
    return FilteredBasis(source, configs, stack)


def build_residuals(basis: FilteredBasis) -> ResidualBasis:
    stack = basis.source.data - basis.tensor()  # exact: both operands on the grid
    stack.setflags(write=False)
    return ResidualBasis(tuple(stack))


# ---------------------------------------------------------------------------
# Shipped presets
# ---------------------------------------------------------------------------

# The 77-candidate calibration grid: 11 spatial x 7 range sigmas at k=15.
BILATERAL_CANDIDATE_GRID = "bilateral:ss=0.1:1.1:11,sr=0.5:3.5:7,k=15"

# Nine bilateral configurations selected by indirect isometric sampling:
# that grid was calibrated on a seeded synthetic denoising suite (Gaussian
# noise, sigma255=25) and nine evenly spaced scores were sampled.
# Regenerate with the `calibrate` CLI command.
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


# Each preset is built afresh by a zero-argument call: bilateral9 the nine
# configs above, median8 the eight window shapes, rgf8 the rolling-guidance
# combinations sr x ss x iterations at window 9.
BUILTIN_PRESETS: dict[str, Callable[[], list[FilterConfig]]] = {
    "bilateral9": lambda: [parse_config(text) for text in _BILATERAL_PRESET_9],
    "median8": lambda: [filters.Median(k1, k2) for k1, k2 in _MEDIAN_SHAPES],
    "rgf8": lambda: parse_grid("rgf:sr=0.2|0.5,ss=3|6,k=9,t=2|4"),
}


# ---------------------------------------------------------------------------
# Preset manifests and calibration reports
# ---------------------------------------------------------------------------


def write_preset(configs: Sequence[FilterConfig], path) -> None:
    """One canonical config string per line; '#' starts a comment."""
    lines = ["# fbcompose preset"]
    lines.extend(cfg.canonical() for cfg in configs)
    Path(path).write_text("\n".join(lines) + "\n")


def _read_text(path) -> str:
    """The text of a manifest or model file; one that is not UTF-8 is a
    ValueError naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_preset(path) -> list[FilterConfig]:
    """The configs of a preset manifest; a malformed config or one listed
    twice is an error naming the file and line."""
    lines: dict[FilterConfig, int] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            cfg = parse_config(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if cfg in lines:
            raise ValueError(
                f"{path}:{lineno}: config {cfg.canonical()} repeats line {lines[cfg]}"
            )
        lines[cfg] = lineno
    if not lines:
        raise ValueError(f"preset {path} lists no configs")
    return list(lines)


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


@functools.cache
def _npy_header(shape: tuple[int, ...]) -> bytes:
    """The version-1.0 header ``np.save`` writes for a C-order float64 array of ``shape``."""
    header = io.BytesIO()
    descr = np.lib.format.dtype_to_descr(np.dtype(np.float64))
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": shape}
    )
    return header.getvalue()


class FBCache:
    """Content-addressed plane cache: one ``.npy`` file per (source, config).

    Layout: ``<root>/<sha256(image)[:16]>/<sha256(config)[:16]>.npy``.  The
    image key hashes the raw float64 bytes plus dimensions (once per Image),
    the config key the canonical form salted with ``filters.KERNEL_VERSION``,
    so a change to source, config or kernel version misses cleanly.  Planes
    are stored losslessly; the 8-bit file formats would quantize them and
    make cached and fresh runs diverge.  Each file is exactly what ``np.save``
    writes for the plane as a C-order float64 array: the ``_npy_header`` of its
    shape, then its bytes.  Any other file is a miss.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _config_key(cfg: FilterConfig) -> str:
        salted = f"kernels/{filters.KERNEL_VERSION}:{cfg.canonical()}"
        return hashlib.sha256(salted.encode()).hexdigest()[:16]

    def path_for(self, img: Image, cfg: FilterConfig) -> Path:
        return self.root / img._digest[:16] / (self._config_key(cfg) + ".npy")

    def get(self, img: Image, cfg: FilterConfig, out: np.ndarray | None = None) -> Image | None:
        """The stored plane, or None unless the file is ``_npy_header(img.shape)``
        followed by exactly one plane of bytes.  A hit is read straight into
        ``out`` (a writeable C-contiguous float64 array of ``img.shape``, else a
        ValueError) or a new array, then snapped in place as Image snaps, which
        raises on non-finite data.  On a miss ``out`` holds no defined values."""
        if out is not None and not (
            out.dtype == np.float64 and out.shape == img.shape
            and out.flags.c_contiguous and out.flags.writeable
        ):
            raise ValueError(f"out must be a writeable C-contiguous float64 array of {img.shape}")
        path = self.path_for(img, cfg)
        header = _npy_header(img.shape)
        try:
            with open(path, "rb") as file:
                if file.read(len(header)) != header:
                    return None
                plane = np.empty(img.shape) if out is None else out
                if file.readinto(plane) != plane.nbytes or file.read(1):
                    return None
        except OSError:  # missing or unreadable
            return None
        try:
            snap_unit(plane, out=plane)
        except ValueError as err:  # non-finite data
            raise ValueError(f"cache file {path}: {err}") from None
        plane.setflags(write=False)
        return Image._wrap(plane)

    def put(self, img: Image, cfg: FilterConfig, plane: Image) -> None:
        """Store ``plane`` as ``np.save`` would store its C-order copy."""
        path = self.path_for(img, cfg)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = np.ascontiguousarray(plane.data)
        # A temp file per writer: concurrent puts of one key (threads or
        # processes sharing the directory) must not write into one file.
        tmp = path.with_name(f"{path.stem}.{os.getpid()}-{threading.get_ident()}.tmp.npy")
        try:
            with open(tmp, "wb") as file:
                file.write(_npy_header(data.shape))
                file.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
