"""Dataset plumbing, Adam, the per-sample training loop under one ``Loss``, and evaluation."""

from __future__ import annotations

import shlex
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import noise
from .basis import FBCache, FilteredBasis, _ordered_map, _read_text, build_basis, write_csv
from .filters import FilterConfig
from .image import Image
from .metrics import MetricReport, psnr, ssim
from .model import (
    CompositionModel,
    ForwardOutputs,
    Loss,
    forward,
    gradients,
    gram_gradients,
    gram_matrix,
    init_model,
    model_to_vector,
    vector_to_model,
)
from .pnm import read_image


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization recipe.

    Defaults follow the standard recipe for this model family: 250 epochs
    of one Adam step per sample, learning rate 0.1 divided by 5 every 50
    epochs, and the default ``Loss``: mse with term weights (0.1, 0.1, 1.0).
    """

    epochs: int = 250
    lr0: float = 0.1
    lr_divisor: float = 5.0
    lr_period: int = 50
    loss: Loss = Loss()
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 < self.lr0 < np.inf):
            raise ValueError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not (1 < self.lr_divisor < np.inf):
            raise ValueError(f"lr_divisor must be finite and > 1, got {self.lr_divisor}")
        if self.lr_period < 1:
            raise ValueError(f"lr_period must be >= 1, got {self.lr_period}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def lr_at(epoch: int, cfg: TrainingConfig) -> float:
    """Step schedule: lr0 / divisor**(epoch // period)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 / cfg.lr_divisor ** (epoch // cfg.lr_period)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM = (0.9, 0.999, 1e-8)  # beta1, beta2, epsilon


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(n_params: int) -> "AdamState":
        return AdamState(np.zeros(n_params), np.zeros(n_params), 0)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update with ``ADAM``; returns (new_params, new_state)."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("adam_step: parameter/gradient/state shapes disagree")
    beta1, beta2, epsilon = ADAM
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * (grads * grads)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + epsilon)
    return new_params, AdamState(m, v, t)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One training pair: the degraded model input and its clean target."""

    sample_id: str
    degraded: Image
    clean: Image

    def __post_init__(self):
        if self.degraded.shape != self.clean.shape:
            raise ValueError(
                f"sample {self.sample_id!r}: degraded {self.degraded.shape} "
                f"vs clean {self.clean.shape}"
            )


def derive_seed(global_seed: int, index: int) -> int:
    """Stable per-sample seed stream: SeedSequence([global_seed, index])."""
    return int(np.random.SeedSequence([int(global_seed), int(index)]).generate_state(1)[0])


@dataclass(frozen=True)
class PairEntry:
    input_path: str
    target_path: str


@dataclass(frozen=True)
class RecipeEntry:
    clean_path: str
    kind: str  # "gaussian" (sigma on 0-255 scale) or "impulse" (density)
    amount: float


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative pair list plus the train/validation split fraction.

    Manifest format (one entry per line, '#' comments, paths relative to the
    manifest, at most one ``split`` line)::

        split 0.1
        pair noisy/01.pgm clean/01.pgm
        clean clean/02.pgm gaussian 25
        clean clean/03.pgm impulse 0.4
    """

    entries: tuple
    val_fraction: float = 0.1
    base_dir: str = "."

    @staticmethod
    def read(path) -> "DatasetSpec":
        manifest = Path(path)
        entries: list = []
        val_fraction = 0.1
        split_line = None
        for lineno, raw in enumerate(_read_text(manifest).splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:  # every error on a line, number parsing included, names file:line
                tokens = shlex.split(line)
                if tokens[0] == "split" and len(tokens) == 2:
                    if split_line is not None:
                        raise ValueError(f"split repeats the one on line {split_line}")
                    split_line = lineno
                    val_fraction = float(tokens[1])
                    if not 0.0 <= val_fraction < 1.0:
                        raise ValueError("split must lie in [0, 1)")
                elif tokens[0] == "pair" and len(tokens) == 3:
                    entries.append(PairEntry(tokens[1], tokens[2]))
                elif tokens[0] == "clean" and len(tokens) == 4:
                    kind = tokens[2]
                    if kind not in noise.DEGRADATIONS:
                        raise ValueError(f"unknown degradation {kind!r}")
                    amount = noise.check_amount(kind, float(tokens[3]))
                    entries.append(RecipeEntry(tokens[1], kind, amount))
                else:
                    raise ValueError(f"unrecognized manifest line {line!r}")
            except ValueError as exc:
                raise ValueError(f"{manifest}:{lineno}: {exc}") from exc
        if not entries:
            raise ValueError(f"dataset manifest {manifest} lists no samples")
        return DatasetSpec(tuple(entries), val_fraction, str(manifest.parent))

    def load(self, seed: int = 0) -> list[Sample]:
        """Read every entry; degradation recipes synthesize noise once per
        sample with a seed derived from (seed, entry index)."""
        base = Path(self.base_dir)
        samples = []
        for index, entry in enumerate(self.entries):
            if isinstance(entry, PairEntry):
                degraded = read_image(base / entry.input_path)
                clean = read_image(base / entry.target_path)
                sample_id = entry.input_path
            else:
                clean = read_image(base / entry.clean_path)
                add_noise = getattr(noise, noise.DEGRADATIONS[entry.kind])
                degraded = add_noise(clean, entry.amount, derive_seed(seed, index))
                sample_id = entry.clean_path
            samples.append(Sample(sample_id, degraded, clean))
        return samples


def split_validation(samples: Sequence[Sample], val_fraction: float) -> tuple[list, list]:
    """Hold out the trailing fraction, which must lie in [0, 1).  When that
    rounds to no sample (tiny datasets), warn and validate on the training
    set itself."""
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction!r}")
    samples = list(samples)
    n_val = min(int(len(samples) * val_fraction), len(samples) - 1)
    if n_val <= 0:
        warnings.warn(
            f"validation fraction {val_fraction!r} holds out none of {len(samples)} "
            "samples; validating on the training set",
            UserWarning,
            stacklevel=2,
        )
        return samples, list(samples)
    return samples[: len(samples) - n_val], samples[len(samples) - n_val :]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_psnr: float


@dataclass(frozen=True, eq=False)
class TrainHistory:
    records: tuple[EpochRecord, ...]

    @property
    def best(self) -> EpochRecord:
        """The first record with the highest validation PSNR."""
        return max(self.records, key=lambda record: record.val_psnr)


def history_to_csv(history: TrainHistory, path) -> None:
    rows = ([r.epoch, repr(r.lr), repr(r.train_loss), repr(r.val_psnr)] for r in history.records)
    write_csv(path, ["epoch", "lr", "train_loss", "val_psnr"], rows)


def _prepare(
    samples: Sequence[Sample], configs: Sequence[FilterConfig], threads: int, cache: FBCache | None,
    reduce: Callable[[Sample, FilteredBasis], object] | None = None,
) -> list:
    """One basis over each sample's degraded image, in sample order.  With
    ``reduce``, ``reduce(sample, basis)`` is kept instead and the basis freed."""

    def one(sample: Sample):
        basis = build_basis(sample.degraded, configs, threads=1, cache=cache)
        return basis if reduce is None else reduce(sample, basis)

    return _ordered_map(one, list(samples), threads)


def _prepare_training(
    samples: Sequence[Sample], configs: Sequence[FilterConfig], cfg: TrainingConfig,
    val_samples: Sequence[Sample] | None, val_fraction: float, threads: int, cache: FBCache | None,
) -> tuple[list, list, list, list]:
    """Split off validation and build each distinct sample's basis once.
    Returns the training samples, their ``step(model, loss)`` functions, each
    holding only its Gram matrix ("mse") or basis, and the validation ones."""
    samples = list(samples)
    if not samples:
        raise ValueError("training needs at least one sample")
    if val_samples is None:
        train_part, val_part = split_validation(samples, val_fraction)
    else:
        train_part, val_part = samples, list(val_samples)
        if not val_part:
            raise ValueError("explicit validation set is empty")

    def keep(sample: Sample, basis: FilteredBasis) -> Callable:
        if cfg.loss.kind == "mse":
            gram = gram_matrix(basis, sample.clean)
            return lambda model, loss: gram_gradients(model, gram, loss)
        return lambda model, loss: gradients(model, basis, sample.clean, loss)

    # Training-only samples go first, while no validation basis is held; the rest reuse theirs.
    val_ids = {id(sample) for sample in val_part}
    rest = [sample for sample in train_part if id(sample) not in val_ids]
    built = iter(_prepare(rest, configs, threads, cache, keep))
    val_bases = _prepare(val_part, configs, threads, cache)
    held = {id(sample): basis for sample, basis in zip(val_part, val_bases)}
    steps = [keep(s, held[id(s)]) if id(s) in held else next(built) for s in train_part]
    return train_part, steps, val_part, val_bases


def _mean_psnr(
    model: CompositionModel, samples: list, bases: list, output: Callable = ForwardOutputs.merged_image
) -> float:
    values = []
    for sample, basis in zip(samples, bases):
        try:
            values.append(psnr(output(forward(model, basis)), sample.clean))
        except ValueError as exc:  # finite parameters, non-finite output
            raise ValueError(f"validation sample {sample.sample_id!r}: {exc}") from exc
    return float(np.mean(values))


def _fit(
    cfg: TrainingConfig, configs: Sequence[FilterConfig],
    train_part: list, steps: list, val_part: list, val_bases: list,
) -> tuple[CompositionModel, TrainHistory]:
    """Train's Adam loop under ``cfg``'s schedule, seed and objective over
    ``_prepare_training``'s data; each step is given ``cfg.loss``."""
    model = init_model(configs)
    params = model_to_vector(model)
    state = AdamState.zeros(params.size)
    rng = np.random.default_rng(cfg.seed)

    records = []
    # A diverging run overflows before the finite checks name it; the error
    # is the report, so numpy's overflow warnings are not printed too.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg)
            losses = []
            for idx in rng.permutation(len(train_part)):
                loss, grads = steps[idx](model, cfg.loss)
                params, state = adam_step(params, grads, state, lr)
                try:
                    model = vector_to_model(params, configs)
                except ValueError as exc:  # a non-finite parameter: the run diverged
                    raise ValueError(
                        f"training diverged at epoch {epoch} (lr {lr!r}) "
                        f"after the step on sample {train_part[idx].sample_id}: {exc}"
                    ) from exc
                losses.append(loss)
            try:
                val_psnr = _mean_psnr(model, val_part, val_bases)
            except ValueError as exc:
                raise ValueError(f"training diverged at epoch {epoch} (lr {lr!r}) on {exc}") from exc
            records.append(EpochRecord(epoch, lr, float(np.mean(losses)), val_psnr))
    return model, TrainHistory(tuple(records))


def train(
    samples: Sequence[Sample],
    basis_configs: Sequence[FilterConfig],
    cfg: TrainingConfig = TrainingConfig(),
    val_samples: Sequence[Sample] | None = None,
    val_fraction: float = 0.1,
    threads: int = 1,
    cache: FBCache | None = None,
) -> tuple[CompositionModel, TrainHistory]:
    """Adam-train a composition model; returns (final_model, history).

    One Adam step per training sample, in a permutation drawn each epoch
    from the generator seeded with ``cfg.seed``; the whole run is
    deterministic given (sample order, cfg.seed) and independent of
    ``threads``, which only parallelizes basis construction.  Without an
    explicit validation set the trailing ``val_fraction`` of samples is held
    out.

    The "mse" objective is quadratic, so each training sample is reduced to
    its ``gram_matrix`` once and every step takes ``gram_gradients`` from
    it; "l1_tv" keeps the bases and steps with the pixel ``gradients``.
    Validation always scores the clamped merged image.
    """
    data = _prepare_training(samples, basis_configs, cfg, val_samples, val_fraction, threads, cache)
    return _fit(cfg, basis_configs, *data)


def evaluate(
    model: CompositionModel, samples: Sequence[Sample], threads: int = 1, cache: FBCache | None = None
) -> MetricReport:
    """Score the model on (degraded, clean) pairs.

    Each sample's basis is built, run forward, and its clamped merged output
    scored by PSNR/SSIM in one task, so at most ``threads`` bases are held at
    once.  A per-sample error names the sample.
    """

    def score(sample: Sample, basis: FilteredBasis) -> tuple:
        try:
            img = forward(model, basis).merged_image()
            return sample.sample_id, psnr(img, sample.clean), ssim(img, sample.clean)
        except ValueError as exc:
            raise ValueError(f"sample {sample.sample_id!r}: {exc}") from exc

    return MetricReport.from_rows(_prepare(samples, model.basis_configs, threads, cache, score))


# ---------------------------------------------------------------------------
# Residual-branch ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationReport:
    """Validation PSNR with the full objective vs the content-only arm."""

    dual_branch_psnr: float
    content_only_psnr: float

    @property
    def gap(self) -> float:
        return self.dual_branch_psnr - self.content_only_psnr


def ablate_residual(
    samples: Sequence[Sample],
    basis_configs: Sequence[FilterConfig],
    cfg: TrainingConfig = TrainingConfig(),
    val_samples: Sequence[Sample] | None = None,
    val_fraction: float = 0.1,
    threads: int = 1,
    cache: FBCache | None = None,
) -> AblationReport:
    """Train twice under identical seeds and data order on one set of bases:
    the full objective, scored by the final epoch's validation PSNR, and a
    content-only arm (lam = gamma = tv_weight = 0, scored on the clamped
    content output).  Any PSNR difference is attributable to the objective."""
    data = _prepare_training(samples, basis_configs, cfg, val_samples, val_fraction, threads, cache)
    content_cfg = replace(cfg, loss=replace(cfg.loss, lam=0.0, gamma=0.0, tv_weight=0.0))
    _, dual = _fit(cfg, basis_configs, *data)
    content_model, _ = _fit(content_cfg, basis_configs, *data)
    content = _mean_psnr(content_model, *data[2:], ForwardOutputs.content_image)
    return AblationReport(dual.records[-1].val_psnr, content)
