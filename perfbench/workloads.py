"""The three benchmark workloads, run in-process through ``fbcompose.cli.run``.

Each workload is a closed loop with one client: one command at a time, the
next only after the previous returns.  A workload has

* ``setup``   -- the program's own set-up (inputs, trained models, a filled
  cache), timed and repeated to give ``setup_s``;
* ``prepare`` -- the benchmark's references for the correctness checks,
  made once and not timed;
* ``requests`` -- the endless, seeded command stream the loop draws from;
* ``check``   -- validates one command's result and returns its output bytes;
* ``quality`` -- deterministic quality metrics, computed after the timed loop.

Why each workload exists is written beside it and in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import fbcompose.cli
from fbcompose import filters
from fbcompose.basis import BUILTIN_PRESETS, FBCache, build_basis
from fbcompose.metrics import psnr, ssim
from fbcompose.basis import build_residuals
from fbcompose.model import (
    forward,
    init_model,
    load_model,
    load_model_document,
    model_to_vector,
    save_model,
    vector_to_model,
)
from fbcompose.pnm import read_image
from fbcompose.trainer import DatasetSpec, evaluate

import synth

SIGMA255 = 25.0
IMPULSE_DENSITY = 0.2


@dataclass(frozen=True)
class Request:
    """One command of the stream; ``argv`` maps an output directory to argv."""

    index: int
    argv: Callable[[Path], list[str]]
    images: int
    tag: str


class Session:
    """Runs CLI commands in-process and counts checked operations."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, argv: list[str]) -> tuple[int, float, str]:
        """Run one command; returns (exit code, wall seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = fbcompose.cli.run(argv)  # looked up per call, so tracing sees it
            except Exception:  # a crash is a failed operation, not a dead benchmark
                traceback.print_exc()
                code = -1
            elapsed = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return code, elapsed, out.getvalue()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


def _program_seed(seed: int) -> int:
    return seed % (2**31)


def _best_plane_psnr(noisy, clean, configs, threads: int, cache=None) -> float:
    basis = build_basis(noisy, configs, threads=threads, cache=cache)
    return max(psnr(plane, clean) for plane in basis.planes)


def fit_gains(model_path: Path, manifest: Path, threads: int) -> list[float]:
    """Merged PSNR minus best-plane PSNR of a model on each pair of a manifest."""
    model = load_model(model_path)
    gains = []
    for sample in DatasetSpec.read(manifest).load():
        basis = build_basis(sample.degraded, model.basis_configs, threads=threads)
        merged = forward(model, basis, build_residuals(basis)).merged_image()
        gains.append(psnr(merged, sample.clean) - max(psnr(p, sample.clean) for p in basis.planes))
    return gains


def setup_train(
    workload: "Workload", rng: np.random.Generator, preset: str, kind: str, amount: float, out: Path
) -> Path:
    """Train a set-up model briefly on two small pairs (one more for
    validation) and return its training manifest.  The learning rate decays
    every 100 epochs instead of 50, so 500 steps fit the pairs reliably."""
    data = synth.write_pairs(rng, out.parent / "train", out.stem + "_", 2, workload.train_shape, kind, amount)
    val = synth.write_pairs(rng, out.parent / "train", out.stem + "_val", 1, workload.val_shape, kind, amount)
    workload.run_checked(
        [
            "train", "--preset", f"builtin:{preset}", "--data", str(data), "--val", str(val),
            "--out", str(out), "--threads", str(workload.threads), "--lr-period", "100",
            "--seed", str(_program_seed(workload.seed)),
        ],
        f"set-up train {out.name}",
    )
    return data


class Workload:
    name = ""
    trace_requests = 0  # fixed request count of each pass of a traced run

    def __init__(self, seed: int, tiny: bool, session: Session) -> None:
        self.seed = seed
        self.tiny = tiny
        self.session = session
        self.threads = session.threads
        self.dir = Path()

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def run_checked(self, argv: list[str], what: str) -> None:
        code, _, _ = self.session.run(argv)
        self.session.check(code == 0, f"{what}: exit {code}")

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    def check(self, request: Request, code: int, stdout: str, out: Path) -> bytes:
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        raise NotImplementedError

    def expected_taps(self, requests: list[Request]) -> dict[str, int]:
        """Bilateral and median taps the requests must compute, from configs
        and shapes alone; a traced run has to observe exactly these."""
        return {"bilateral": 0, "median": 0}

    def check_trace(self, requests: list[Request], metrics: dict[str, float]) -> None:
        for kind, expected in self.expected_taps(requests).items():
            observed = metrics[f"filters.{kind}.taps"]
            self.session.check(observed == expected, f"traced {kind} taps {observed} != computed {expected}")


def _taps(preset: str, shape: tuple[int, int]) -> dict[str, int]:
    """Taps of one gray image through every config of a builtin preset."""
    pixels = shape[0] * shape[1]
    taps = {"bilateral": 0, "median": 0}
    for cfg in BUILTIN_PRESETS[preset]():
        if isinstance(cfg, filters.Bilateral):
            taps["bilateral"] += cfg.window * cfg.window * pixels
        elif isinstance(cfg, filters.Median):
            taps["median"] += cfg.k1 * cfg.k2 * pixels
    return taps


class ApplyStream(Workload):
    """The paper's run-time path: one ``apply --threads 2`` per gray noisy
    PGM.  Nearly all time is in ``filters`` and ``basis.build_basis``.  Two
    shapes show per-call overhead (small) and per-pixel and threading work
    (large); small images come four times as often, so p50 sits on small
    requests and p90 on large ones.  Each block of 15 requests gives every
    (model, image) pair its exact share, in a seeded order."""

    name = "apply-stream"
    trace_requests = 30
    # (preset, noise kind) -- the three models take turns.
    MODELS = (("bilateral9", "gaussian"), ("rgf8", "gaussian"), ("median8", "impulse"))

    def __init__(self, seed, tiny, session):
        super().__init__(seed, tiny, session)
        self.small, self.large = ((24, 24), (32, 40)) if tiny else ((128, 128), (192, 256))
        self.train_shape, self.val_shape = ((16, 16), (16, 16)) if tiny else ((64, 64), (32, 32))
        # Two distinct small images and one large; each small one is sent
        # twice per block, so the shape mix is 4:1.
        self.images = (("small0", self.small, 2), ("small1", self.small, 2), ("large0", self.large, 1))

    def setup(self, directory: Path) -> None:
        self.dir = directory
        rng = self.rng(1)
        inputs = directory / "inputs"
        inputs.mkdir(parents=True)
        for name, shape, _ in self.images:
            clean = synth.clean_image(rng, *shape)
            synth.write_pnm(clean, inputs / f"{name}_clean.pgm")
            synth.write_pnm(synth.gaussian_noise(rng, clean, SIGMA255), inputs / f"{name}_gaussian.pgm")
            synth.write_pnm(synth.impulse_noise(rng, clean, IMPULSE_DENSITY), inputs / f"{name}_impulse.pgm")
        amounts = {"gaussian": SIGMA255, "impulse": IMPULSE_DENSITY}
        self.train_data = {
            preset: setup_train(self, rng, preset, kind, amounts[kind], directory / f"{preset}.cfmodel")
            for preset, kind in self.MODELS
        }

    def combos(self):
        for preset, kind in self.MODELS:
            for name, shape, weight in self.images:
                yield preset, kind, name, shape, weight

    def _apply_argv(self, preset, kind, name, threads):
        def argv(out: Path) -> list[str]:
            return [
                "apply", "--model", str(self.dir / f"{preset}.cfmodel"), "--threads", str(threads),
                str(self.dir / "inputs" / f"{name}_{kind}.pgm"), str(out / f"{preset}_{name}.pgm"),
            ]
        return argv

    def prepare(self) -> None:
        """A ``--threads 1`` reference output of every (model, image) pair."""
        self.references = {}
        ref_dir = self.dir / "reference"
        ref_dir.mkdir()
        for preset, kind, name, _, _ in self.combos():
            self.run_checked(self._apply_argv(preset, kind, name, 1)(ref_dir), f"reference {preset} {name}")
            path = ref_dir / f"{preset}_{name}.pgm"
            self.references[(preset, name)] = path.read_bytes() if path.exists() else b""

    def requests(self) -> Iterator[Request]:
        block = [c for c in self.combos() for _ in range(c[4])]
        order = self.rng(2)
        for index in itertools.count():
            if index % len(block) == 0:
                shuffled = [block[i] for i in order.permutation(len(block))]
            preset, kind, name, shape, _ = shuffled[index % len(block)]
            yield Request(index, self._apply_argv(preset, kind, name, self.threads), 1, f"{preset}:{name}")

    def check(self, request, code, stdout, out) -> bytes:
        preset, name = request.tag.split(":")
        path = out / f"{preset}_{name}.pgm"
        data = path.read_bytes() if code == 0 and path.exists() else b""
        self.session.check(
            code == 0 and data == self.references[(preset, name)],
            f"apply {request.tag} (request {request.index}) differs from its --threads 1 reference",
        )
        return data

    def quality(self) -> dict[str, float]:
        """PSNR and SSIM of the served images; the gain of each model over
        its best plane on the pairs it was fitted to (a model trained this
        briefly is not reliably better than its best plane on unseen images)."""
        psnrs, ssims = [], []
        for preset, kind, name, _, _ in self.combos():
            clean = read_image(self.dir / "inputs" / f"{name}_clean.pgm")
            merged = read_image(self.dir / "reference" / f"{preset}_{name}.pgm")
            psnrs.append(psnr(merged, clean))
            ssims.append(ssim(merged, clean))
        gains = []
        for preset, data in self.train_data.items():
            values = fit_gains(self.dir / f"{preset}.cfmodel", data, self.threads)
            self.session.check(
                float(np.mean(values)) > 0,
                f"{preset}: blend does not beat its best plane (gain {np.mean(values):.3f} dB)",
            )
            gains.extend(values)
        return {
            "mean_psnr_db": float(np.mean(psnrs)),
            "mean_ssim": float(np.mean(ssims)),
            "psnr_gain_db": float(np.mean(gains)),
        }

    def expected_taps(self, requests):
        total = {"bilateral": 0, "median": 0}
        shapes = {name: shape for name, shape, _ in self.images}
        for request in requests:
            preset, name = request.tag.split(":")
            for kind, count in _taps(preset, shapes[name]).items():
                total[kind] += count
        return total


class TrainCold(Workload):
    """One ``train`` with the default recipe (250 epochs, Adam, bilateral9)
    on 8 gray 128x128 pairs, validated on a separate ``--val`` manifest so the
    holdout fallback never runs, with ``--cache`` on a fresh empty directory.
    About three quarters of the time is the epoch loop (gradients, basis
    tensors, Adam, validation PSNR); the rest is basis build and cache
    writes.  Gram-matrix training shows here; kernel gains only by their
    share of the basis build."""

    name = "train-cold"
    trace_requests = 1

    def __init__(self, seed, tiny, session):
        super().__init__(seed, tiny, session)
        self.shape = (32, 32) if tiny else (128, 128)
        self.n_train, self.n_val = (4, 1) if tiny else (8, 2)
        self.epochs = 250  # the default recipe; images_per_s counts gradient steps

    def setup(self, directory: Path) -> None:
        self.dir = directory
        rng = self.rng(1)
        self.train_data = synth.write_pairs(
            rng, directory / "data", "train", self.n_train, self.shape, "gaussian", SIGMA255
        )
        self.val_data = synth.write_pairs(
            rng, directory / "data", "val", self.n_val, self.shape, "gaussian", SIGMA255
        )
        self.first_output = None

    def requests(self) -> Iterator[Request]:
        for index in itertools.count():
            def argv(out: Path, index=index) -> list[str]:
                return [
                    "train", "--preset", "builtin:bilateral9",
                    "--data", str(self.train_data), "--val", str(self.val_data),
                    "--out", str(out / f"model{index}.cfmodel"),
                    "--history", str(out / f"history{index}.csv"),
                    "--threads", str(self.threads), "--seed", str(_program_seed(self.seed)),
                    "--cache", str(out / f"cache{index}"),
                ]
            yield Request(index, argv, self.n_train * self.epochs, f"train{index}")

    def check(self, request, code, stdout, out) -> bytes:
        model_path = out / f"model{request.index}.cfmodel"
        history_path = out / f"history{request.index}.csv"
        shutil.rmtree(out / f"cache{request.index}", ignore_errors=True)
        if not self.session.check(code == 0 and model_path.exists(), f"train {request.index} failed"):
            return b""
        data = model_path.read_bytes() + history_path.read_bytes()
        if self.first_output is None:
            self.first_output = (model_path, data)
        self.session.check(
            data == self.first_output[1], f"train {request.index} output differs from train 0"
        )
        return data

    def quality(self) -> dict[str, float]:
        """Re-load the first trained model and re-apply it to the validation
        images; quality is measured on those outputs."""
        model_path = self.first_output[0]
        model = load_model(model_path)
        self.best_val_psnr = float(load_model_document(model_path)["training"]["best_val_psnr"])
        spec = DatasetSpec.read(self.val_data)
        rows = []
        for index, entry in enumerate(spec.entries):
            noisy_path = self.val_data.parent / entry.input_path
            out_path = self.dir / f"reapplied{index}.pgm"
            self.run_checked(
                ["apply", "--model", str(model_path), "--threads", str(self.threads),
                 str(noisy_path), str(out_path)],
                f"re-apply trained model to {entry.input_path}",
            )
            clean = read_image(self.val_data.parent / entry.target_path)
            merged = read_image(out_path)
            best = _best_plane_psnr(read_image(noisy_path), clean, model.basis_configs, self.threads)
            merged_psnr = psnr(merged, clean)
            rows.append((merged_psnr, ssim(merged, clean), merged_psnr - best))
        psnrs, ssims, gains = zip(*rows)
        self.session.check(float(np.mean(gains)) > 0, "trained model does not beat its best plane")
        return {
            "mean_psnr_db": float(np.mean(psnrs)),
            "mean_ssim": float(np.mean(ssims)),
            "psnr_gain_db": float(np.mean(gains)),
        }

    def expected_taps(self, requests):
        per_image = _taps("bilateral9", self.shape)["bilateral"]
        return {"bilateral": len(requests) * (self.n_train + self.n_val) * per_image, "median": 0}


class EvalWarm(Workload):
    """A sweep of ``eval --cache DIR`` commands, one per model, over the same
    colour 128x128 images; all models are bilateral9 and differ only in
    weights, and set-up fills the cache first.  The basis layer is reached
    only through cache reads, so no filter kernel runs: kernel changes
    should read "no change" here, while SSIM and cache-read changes show.
    The manifest asks the program to draw the noise itself, so ``noise`` is
    exercised too.  It is the only workload with colour input."""

    name = "eval-warm"
    trace_requests = 30

    def __init__(self, seed, tiny, session):
        super().__init__(seed, tiny, session)
        self.shape = (24, 24) if tiny else (128, 128)
        self.n_images = 2 if tiny else 3
        self.n_models = 2 if tiny else 3
        self.train_shape, self.val_shape = ((16, 16), (16, 16)) if tiny else ((64, 64), (32, 32))

    def _eval_argv(self, model: int):
        def argv(out: Path) -> list[str]:
            return [
                "eval", "--model", str(self.dir / f"model{model}.cfmodel"), "--data", str(self.data),
                "--cache", str(self.dir / "cache"), "--seed", str(_program_seed(self.seed)),
                "--threads", str(self.threads), "--csv", str(out / f"eval{model}.csv"),
            ]
        return argv

    def setup(self, directory: Path) -> None:
        self.dir = directory
        rng = self.rng(1)
        self.data = synth.write_recipes(rng, directory / "eval", "eval", self.n_images, self.shape, SIGMA255, 3)
        # One trained model; the others move part of the way back towards the
        # uniform start, so the sweep's models differ only in weights.
        setup_train(self, rng, "bilateral9", "gaussian", SIGMA255, directory / "model0.cfmodel")
        trained = load_model(directory / "model0.cfmodel")
        uniform = init_model(trained.basis_configs)
        for model in range(1, self.n_models):
            share = 0.1 * model
            save_model(
                vector_to_model(
                    (1 - share) * model_to_vector(trained) + share * model_to_vector(uniform),
                    trained.basis_configs,
                ),
                directory / f"model{model}.cfmodel",
            )
        fill = directory / "fill"
        fill.mkdir()
        self.run_checked(self._eval_argv(0)(fill), "set-up cache fill")

    def prepare(self) -> None:
        """Cold-cache ``evaluate`` of every model: the exact per-image rows
        every warm ``eval`` must reproduce."""
        samples = DatasetSpec.read(self.data).load(_program_seed(self.seed))
        self.samples = samples
        self.references = []
        for model in range(self.n_models):
            report = evaluate(load_model(self.dir / f"model{model}.cfmodel"), samples, threads=self.threads)
            self.references.append(report)

    def requests(self) -> Iterator[Request]:
        for index in itertools.count():
            model = index % self.n_models
            yield Request(index, self._eval_argv(model), self.n_images, str(model))

    def check(self, request, code, stdout, out) -> bytes:
        path = out / f"eval{request.tag}.csv"
        data = path.read_bytes() if code == 0 and path.exists() else b""
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        expected = self.references[int(request.tag)].per_image
        same = len(rows) == len(expected) and all(
            row[0] == name and float(row[1]) == p and float(row[2]) == s
            for row, (name, p, s) in zip(rows, expected)
        )
        self.session.check(
            code == 0 and same,
            f"eval of model {request.tag} (request {request.index}) differs from the cold-cache evaluate",
        )
        return data + stdout.encode()

    def check_trace(self, requests, metrics):
        super().check_trace(requests, metrics)
        filter_calls = sum(metrics[f"filters.{k}.calls"] for k in ("bilateral", "median", "rolling_guidance"))
        self.session.check(
            metrics["basis.cache.misses"] == 0 and filter_calls == 0,
            "eval-warm ran a filter kernel: the cache was bypassed",
        )

    def quality(self) -> dict[str, float]:
        cache = FBCache(self.dir / "cache")
        configs = load_model(self.dir / "model0.cfmodel").basis_configs
        best = [
            _best_plane_psnr(s.degraded, s.clean, configs, self.threads, cache) for s in self.samples
        ]
        gains = [
            p - b for report in self.references for (_, p, _), b in zip(report.per_image, best)
        ]
        return {
            "mean_psnr_db": float(np.mean([r.psnr for r in self.references])),
            "mean_ssim": float(np.mean([r.ssim for r in self.references])),
            "psnr_gain_db": float(np.mean(gains)),
        }


WORKLOADS = {cls.name: cls for cls in (ApplyStream, TrainCold, EvalWarm)}
