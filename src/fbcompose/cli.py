"""Command-line pipeline.

Subcommands: ``noise``, ``filter``, ``calibrate``, ``train``, ``apply``,
``eval``, ``ablate``.  Exit codes: 0 success, 1 usage error,
2 data/processing error.  Diagnostics go to stderr; data goes to files or
stdout.  ``apply`` is the parameter-free entry point: model in, image in,
image out, no filter parameters accepted.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path
from typing import Sequence

from . import noise
from .basis import (
    BILATERAL_CANDIDATE_GRID,
    BUILTIN_PRESETS,
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
from .metrics import MetricReport
from .model import LOSS_KINDS, LossWeights, forward, load_model, save_model
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


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"thread count must be >= 1, got {value}")
    return value


_OUTPUTS = ("output", "out", "history", "report", "csv")


def _check_outputs(args) -> None:
    """Fail before any input is read when an output's directory is missing or
    it is a directory (exit 2), or it names an input or an earlier output by
    any path or link (a usage error): so no command overwrites what it reads,
    and one with several outputs never leaves some of them written."""
    claimed: dict = {}  # file identity -> the argument that names it first
    for name in ("input", "model", "preset", "data", "val", "pairs", *_OUTPUTS):
        path = getattr(args, name, None)
        if not path or path.startswith("builtin:"):
            continue
        flag, file = (name if name in ("input", "output") else f"--{name}"), Path(path)
        key = (file.stat().st_dev, file.stat().st_ino) if file.exists() else file.resolve()
        if name in _OUTPUTS:
            if not file.parent.is_dir():
                raise FileNotFoundError(f"{path}: directory {file.parent} does not exist")
            if file.is_dir():
                raise IsADirectoryError(f"{path}: is a directory")
            if key in claimed:
                raise _UsageError(f"{args.command}: {flag} {path} is the {claimed[key]} file")
        claimed.setdefault(key, flag)


def _run_training(args, run):
    """The recipe and ``run(samples, configs, cfg, ...)``, that is ``train``
    or ``ablate_residual``, over the flags' preset, data, validation set,
    recipe and plane cache.  The recipe is checked first, so a bad recipe
    flag is a usage error whatever the data; then the outputs, before any
    data is read."""
    cfg = _training_config(args)
    _check_outputs(args)
    configs = _load_preset(args.preset)
    spec = DatasetSpec.read(args.data)
    samples = spec.load(args.seed)
    val_samples = DatasetSpec.read(args.val).load(args.seed) if args.val else None
    cache = FBCache(args.cache) if args.cache else None
    return cfg, run(
        samples, configs, cfg, val_samples=val_samples,
        val_fraction=spec.val_fraction, threads=args.threads, cache=cache,
    )


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
    """The recipe flags, each defaulting to the field of ``TrainingConfig()``."""
    recipe = TrainingConfig()
    parser.add_argument("--epochs", type=int, default=recipe.epochs)
    parser.add_argument("--lr0", type=float, default=recipe.lr0)
    parser.add_argument("--lr-divisor", type=float, default=recipe.lr_divisor)
    parser.add_argument("--lr-period", type=int, default=recipe.lr_period)
    parser.add_argument("--loss", choices=LOSS_KINDS, default=recipe.loss_kind)
    parser.add_argument("--tv-weight", type=float, default=recipe.tv_weight)
    parser.add_argument("--alpha", type=float, default=recipe.loss.alpha)
    parser.add_argument("--lam", type=float, default=recipe.loss.lam)
    parser.add_argument("--gamma", type=float, default=recipe.loss.gamma)
    parser.add_argument("--seed", type=int, default=recipe.seed)
    parser.add_argument("--val", help="separate validation dataset manifest")
    parser.add_argument("--cache", help="basis plane cache directory")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_noise(args) -> int:
    if (args.gaussian is None) == (args.impulse is None):
        raise _UsageError("noise: exactly one of --gaussian or --impulse is required")
    _check_outputs(args)
    kind = "gaussian" if args.gaussian is not None else "impulse"  # each flag names its degradation
    add_noise = getattr(noise, noise.DEGRADATIONS[kind])
    out = add_noise(read_image(args.input), getattr(args, kind), args.seed)
    write_image(out, args.output, ascii_format=args.ascii)
    return EXIT_OK


def _cmd_filter(args) -> int:
    _check_outputs(args)
    cfg = parse_config(args.config)
    img = read_image(args.input)
    write_image(cfg.apply(img), args.output, ascii_format=args.ascii)
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
    _check_outputs(args)
    samples = DatasetSpec.read(args.pairs).load(args.seed)
    pairs = [(s.degraded, s.clean) for s in samples]
    scored = calibrate(candidates, pairs, threads=args.threads)
    selected = iis_select(scored, args.select)
    write_preset(selected, args.out)
    if args.report:
        write_calibration_report(scored, args.report)
    print(f"scored {len(scored)} candidates, selected {len(selected)} -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg, (model, history) = _run_training(args, train)
    best = history.best
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
        "best_epoch": best.epoch,
        "best_val_psnr": best.val_psnr,
    }
    save_model(model, args.out, training=training_info)
    if args.history:
        history_to_csv(history, args.history)
    final = history.records[-1]
    print(
        f"trained {cfg.epochs} epochs: final loss {final.train_loss:.6g}, "
        f"val PSNR {final.val_psnr:.2f} dB (best {best.val_psnr:.2f} "
        f"at epoch {best.epoch}) -> {args.out}"
    )
    return EXIT_OK


def _cmd_apply(args) -> int:
    _check_outputs(args)
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
    _check_outputs(args)
    model = load_model(args.model)
    samples = DatasetSpec.read(args.data).load(args.seed)
    cache = FBCache(args.cache) if args.cache else None
    report = evaluate(model, samples, threads=args.threads, cache=cache)
    _print_report(report)
    if args.csv:
        rows = ([sample_id, repr(p), repr(s)] for sample_id, p, s in report.per_image)
        write_csv(args.csv, ["image", "psnr_db", "ssim"], rows)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    _, report = _run_training(args, ablate_residual)
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
    show = warnings.showwarning

    def print_warning(message, category, *where):
        # The library's own fallbacks warn with UserWarning; the command
        # prints them as one line, as it does errors.
        if category is UserWarning:
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where)

    try:
        with warnings.catch_warnings():
            warnings.showwarning = print_warning
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
