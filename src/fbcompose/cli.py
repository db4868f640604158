"""Command-line pipeline.

Subcommands: ``noise``, ``filter``, ``calibrate``, ``train``, ``apply``,
``eval``, ``ablate``, ``bench``.  Exit codes: 0 success, 1 usage error,
2 data/processing error.  Diagnostics go to stderr; data goes to files or
stdout.  ``apply`` is the parameter-free entry point: model in, image in,
image out, no filter parameters accepted.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import filters
from .basis import (
    BILATERAL_CANDIDATE_GRID,
    BUILTIN_PRESETS,
    Candidate,
    FBCache,
    build_basis,
    calibrate,
    iis_select,
    parse_grid,
    read_preset,
    write_calibration_report,
    write_csv,
    write_preset,
)
from .filters import FilterConfig, parse_config
from .image import Image
from .metrics import MetricReport
from .model import LossWeights, forward, init_model, load_model, save_model
from .noise import add_gaussian_noise, add_impulse_noise
from .pnm import read_image, write_image
from .trainer import (
    ADAM,
    DatasetSpec,
    TrainingConfig,
    ablate_residual,
    evaluate,
    history_to_csv,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Shared argument helpers
# ---------------------------------------------------------------------------


def _load_preset(spec: str) -> list[FilterConfig]:
    """A preset argument is a manifest path or ``builtin:<name>``."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in BUILTIN_PRESETS:
            raise ValueError(
                f"unknown builtin preset {name!r}; available: {sorted(BUILTIN_PRESETS)}"
            )
        return BUILTIN_PRESETS[name]()
    return read_preset(spec)


def _load_dataset(path: str, seed: int) -> list:
    return DatasetSpec.read(path).load(seed)


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"thread count must be >= 1, got {value}")
    return value


def _check_output_dirs(*paths) -> None:
    """Fail before any input is read when an output's directory is missing
    or the output is a directory, so a command with several outputs never
    leaves some of them written."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"{path}: directory {Path(path).parent} does not exist")
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path}: is a directory")


def _training_inputs(args, outputs):
    """Preset configs, training samples, optional validation samples, the
    manifest's validation fraction (unused with ``--val``), the training
    recipe and the plane cache shared by ``train`` and ``ablate``.
    The recipe is checked first, so a bad recipe flag is a usage error
    whatever the data; then the directories of ``outputs``."""
    cfg = _training_config(args)
    _check_output_dirs(*outputs)
    configs = _load_preset(args.preset)
    spec = DatasetSpec.read(args.data)
    samples = spec.load(args.seed)
    val_samples = _load_dataset(args.val, args.seed) if args.val else None
    cache = FBCache(args.cache) if args.cache else None
    return configs, samples, val_samples, spec.val_fraction, cfg, cache


def _training_config(args) -> TrainingConfig:
    """The recipe flags as a TrainingConfig; a value it or LossWeights
    rejects is a usage error."""
    try:
        return TrainingConfig(
            epochs=args.epochs,
            lr0=args.lr0,
            lr_divisor=args.lr_divisor,
            lr_period=args.lr_period,
            loss=LossWeights(args.alpha, args.lam, args.gamma),
            loss_kind=args.loss,
            tv_weight=args.tv_weight,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(f"{args.command}: {exc}") from exc


def _add_training_flags(parser) -> None:
    parser.add_argument("--epochs", type=int, default=250)
    parser.add_argument("--lr0", type=float, default=0.1)
    parser.add_argument("--lr-divisor", type=float, default=5.0)
    parser.add_argument("--lr-period", type=int, default=50)
    parser.add_argument("--loss", choices=("mse", "l1_tv"), default="mse")
    parser.add_argument("--tv-weight", type=float, default=0.0)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--lam", type=float, default=0.1)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--val", help="separate validation dataset manifest")
    parser.add_argument("--cache", help="basis plane cache directory")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_noise(args) -> int:
    if (args.gaussian is None) == (args.impulse is None):
        raise _UsageError("noise: exactly one of --gaussian or --impulse is required")
    img = read_image(args.input)
    if args.gaussian is not None:
        out = add_gaussian_noise(img, args.gaussian, args.seed)
    else:
        out = add_impulse_noise(img, args.impulse, args.seed)
    write_image(out, args.output, ascii_format=args.ascii)
    return EXIT_OK


def _cmd_filter(args) -> int:
    cfg = parse_config(args.config)
    img = read_image(args.input)
    write_image(filters.apply(img, cfg), args.output, ascii_format=args.ascii)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    try:
        candidates = parse_grid(args.grid)
    except ValueError as exc:
        raise _UsageError(f"calibrate: --grid: {exc}") from exc
    if not 1 <= args.select <= len(candidates):
        raise _UsageError(
            f"calibrate: --select must lie in [1, {len(candidates)}] for this grid, "
            f"got {args.select}"
        )
    _check_output_dirs(args.out, args.report)
    samples = _load_dataset(args.pairs, args.seed)
    pairs = [(s.degraded, s.clean) for s in samples]
    scored = calibrate(candidates, pairs, threads=args.threads)
    selected = iis_select(scored, args.select)
    write_preset(selected, args.out)
    if args.report:
        write_calibration_report(scored, args.report)
    print(f"scored {len(scored)} candidates, selected {len(selected)} -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    configs, samples, val_samples, val_fraction, cfg, cache = _training_inputs(
        args, (args.out, args.history)
    )
    model, history = train(
        samples, configs, cfg, val_samples=val_samples,
        val_fraction=val_fraction, threads=args.threads, cache=cache,
    )
    training_info = {
        "loss_kind": cfg.loss_kind,
        "alpha": cfg.loss.alpha,
        "lambda": cfg.loss.lam,
        "gamma": cfg.loss.gamma,
        "tv_weight": cfg.tv_weight,
        "adam": list(ADAM),
        "epochs": cfg.epochs,
        "batch_size": 1,  # one step per sample; recorded so model files keep their format
        "lr0": cfg.lr0,
        "lr_divisor": cfg.lr_divisor,
        "lr_period": cfg.lr_period,
        "seed": cfg.seed,
        "best_epoch": history.best_epoch,
        "best_val_psnr": history.best_val_psnr,
    }
    save_model(model, args.out, training=training_info)
    if args.history:
        history_to_csv(history, args.history)
    final = history.records[-1]
    print(
        f"trained {cfg.epochs} epochs: final loss {final.train_loss:.6g}, "
        f"val PSNR {final.val_psnr:.2f} dB (best {history.best_val_psnr:.2f} "
        f"at epoch {history.best_epoch}) -> {args.out}"
    )
    return EXIT_OK


def _cmd_apply(args) -> int:
    model = load_model(args.model)
    img = read_image(args.input)
    basis = build_basis(img, model.basis_configs, threads=args.threads)
    out = forward(model, basis)
    write_image(out.merged_image(), args.output, ascii_format=args.ascii)
    return EXIT_OK


def _print_report(report: MetricReport) -> None:
    for sample_id, p, s in report.per_image:
        print(f"{sample_id}: psnr={p:.4f} dB ssim={s:.4f}")
    print(f"mean: psnr={report.psnr:.4f} dB ssim={report.ssim:.4f}")


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    samples = _load_dataset(args.data, args.seed)
    cache = FBCache(args.cache) if args.cache else None
    report = evaluate(model, samples, threads=args.threads, cache=cache)
    _print_report(report)
    if args.csv:
        rows = ([sample_id, repr(p), repr(s)] for sample_id, p, s in report.per_image)
        write_csv(args.csv, ["image", "psnr_db", "ssim"], rows)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    configs, samples, val_samples, val_fraction, cfg, cache = _training_inputs(args, (args.out,))
    report = ablate_residual(
        samples, configs, cfg, val_samples=val_samples,
        val_fraction=val_fraction, threads=args.threads, cache=cache,
    )
    lines = [
        f"dual_branch_psnr_db={report.dual_branch_psnr!r}",
        f"content_only_psnr_db={report.content_only_psnr!r}",
        f"gap_db={report.gap!r}",
    ]
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchReport:
    """Median wall times for single filters, basis construction and forward."""

    image_shape: tuple[int, int, int]
    repetitions: int
    single_seconds: tuple[tuple[str, float], ...]
    fb_serial_seconds: float
    fb_parallel_seconds: float
    forward_seconds: float

    @property
    def magnitude(self) -> int:
        return len(self.single_seconds)

    @property
    def linearity_ratio(self) -> float:
        """Serial basis time over magnitude * mean single-filter time; near
        1.0 when basis cost is linear in the number of configs.  Kinds whose
        configs share one kernel run (``FilterConfig.group``), such as rgf,
        read below 1."""
        mean_single = statistics.fmean(t for _, t in self.single_seconds)
        return self.fb_serial_seconds / (self.magnitude * mean_single)


def bench(
    configs: Sequence[FilterConfig],
    image: Image,
    repetitions: int = 5,
    threads: int = 4,
) -> BenchReport:
    """Time each single filter, serial and parallel basis construction, and
    one composition forward pass; medians over ``repetitions`` runs."""
    if repetitions < 3:
        raise ValueError(f"repetitions must be >= 3, got {repetitions}")
    configs = list(configs)
    if not configs:
        raise ValueError("bench needs at least one config")

    def timed(fn) -> float:
        times = []
        for _ in range(repetitions):
            begin = time.perf_counter()
            fn()
            times.append(time.perf_counter() - begin)
        return float(statistics.median(times))

    singles = tuple(
        (cfg.canonical(), timed(lambda cfg=cfg: filters.apply(image, cfg))) for cfg in configs
    )
    fb_serial = timed(lambda: build_basis(image, configs, threads=1))
    fb_parallel = timed(lambda: build_basis(image, configs, threads=threads))
    basis = build_basis(image, configs, threads=threads)
    model = init_model(configs)
    forward_s = timed(lambda: forward(model, basis))
    return BenchReport(image.shape, repetitions, singles, fb_serial, fb_parallel, forward_s)


def _cmd_bench(args) -> int:
    if args.reps < 3:
        raise _UsageError(f"bench: --reps must be >= 3, got {args.reps}")
    configs = _load_preset(args.preset)
    image = read_image(args.image)
    report = bench(configs, image, repetitions=args.reps, threads=args.threads)
    print(f"image {report.image_shape}, {report.repetitions} repetitions (median times)")
    for name, seconds in report.single_seconds:
        print(f"  {name}: {seconds:.6f} s")
    print(f"basis serial:   {report.fb_serial_seconds:.6f} s")
    print(f"basis parallel: {report.fb_parallel_seconds:.6f} s ({args.threads} threads)")
    print(f"forward:        {report.forward_seconds:.6f} s")
    print(f"linearity ratio fb/(K*single): {report.linearity_ratio:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="fbcompose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("noise", help="synthesize a degraded image")
    p.add_argument("--gaussian", type=float, help="sigma on the 0-255 scale")
    p.add_argument("--impulse", type=float, help="replacement density in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ascii", action="store_true", help="write P2/P3 instead of P5/P6")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("filter", help="apply a single filter config")
    p.add_argument("config", help="e.g. 'bilateral:ss=0.5,sr=1.5,k=15'")
    p.add_argument("--ascii", action="store_true")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("calibrate", help="score a sampling grid and select a preset")
    p.add_argument(
        "--grid",
        default=BILATERAL_CANDIDATE_GRID,
        help="kind:name=lo:hi:count,name=value,name=v1|v2,...",
    )
    p.add_argument("--pairs", required=True, help="calibration dataset manifest")
    p.add_argument("--select", type=int, required=True, help="preset magnitude")
    p.add_argument("--out", required=True, help="preset manifest to write")
    p.add_argument("--report", help="CSV of all candidate scores")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_thread_count, default=1)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("train", help="train a composition model")
    p.add_argument("--preset", required=True, help="preset manifest or builtin:<name>")
    p.add_argument("--data", required=True, help="training dataset manifest")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--history", help="per-epoch CSV to write")
    p.add_argument("--threads", type=_thread_count, default=1)
    _add_training_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("apply", help="run a trained model on one image (no parameters)")
    p.add_argument("--model", required=True)
    p.add_argument("--ascii", action="store_true")
    p.add_argument("--threads", type=_thread_count, default=1)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("eval", help="evaluate a model over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--csv", help="per-image CSV to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache", help="basis plane cache directory")
    p.add_argument("--threads", type=_thread_count, default=1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="compare the full objective vs content-only")
    p.add_argument("--preset", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="report file to write")
    p.add_argument("--threads", type=_thread_count, default=1)
    _add_training_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("bench", help="time filters, basis construction and forward")
    p.add_argument("--preset", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--threads", type=_thread_count, default=4)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        print(f"run '{parser.prog} --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help paths
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
