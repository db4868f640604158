"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on passing runs.  Criteria 3/4 share a module-scoped desk-scale
training suite; criterion 8 times real kernels on a 481x321 image, so the
whole module takes a few minutes single-threaded.
"""

import os
import time

import numpy as np
import pytest

from fbcompose import (
    Candidate,
    Loss,
    TrainingConfig,
    ablate_residual,
    bilateral,
    build_basis,
    evaluate,
    forward,
    gradients,
    iis_select,
    init_model,
    joint_bilateral,
    lr_at,
    median,
    psnr,
    read_image,
    rolling_guidance,
    total_loss,
    train,
    write_image,
)
from fbcompose.basis import BILATERAL_CANDIDATE_GRID, BUILTIN_PRESETS, FilteredBasis, parse_grid
from fbcompose.cli import run
from fbcompose.filters import Gaussian, RollingGuidance, _offset_pairs
from fbcompose.image import Image
from fbcompose.model import CompositionModel

from oracles import oracle_gaussian_2d, oracle_joint_bilateral, oracle_median
from synth import denoising_samples, synthetic_clean
from test_model import fd_gradients, _relative_error


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: kernel oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(1001)
    worst_bilateral = 0.0
    images_checked = 0

    # 50 bilateral + 50 joint-bilateral random instances, sizes 5x5..9x9.
    for trial in range(50):
        channels = 1 if trial % 3 else 3
        h, w = rng.integers(5, 10, 2)
        img = Image(rng.random((channels, int(h), int(w))))
        ss = float(rng.uniform(0.5, 3.0))
        sr = float(rng.uniform(0.05, 1.0))
        window = int(rng.choice([3, 5, 7]))
        got = bilateral(img, ss, sr, window).data
        expected = oracle_joint_bilateral(img.data, img.data, ss, sr, window)
        worst_bilateral = max(worst_bilateral, float(np.max(np.abs(got - expected))))
        images_checked += 1

    for trial in range(50):
        channels = 1 if trial % 3 else 3
        h, w = rng.integers(5, 10, 2)
        img = Image(rng.random((channels, int(h), int(w))))
        guide = Image(rng.random(img.shape))
        ss = float(rng.uniform(0.5, 3.0))
        sr = float(rng.uniform(0.05, 1.0))
        window = int(rng.choice([3, 5, 7]))
        got = joint_bilateral(img, guide, ss, sr, window).data
        expected = oracle_joint_bilateral(img.data, guide.data, ss, sr, window)
        worst_bilateral = max(worst_bilateral, float(np.max(np.abs(got - expected))))
        images_checked += 1

    median_exact = True
    for trial in range(10):
        channels = 1 if trial % 2 else 3
        h, w = rng.integers(5, 10, 2)
        img = Image(rng.random((channels, int(h), int(w))))
        k1, k2 = [int(v) for v in rng.choice([1, 3, 5], 2)]
        if not np.array_equal(median(img, k1, k2).data, oracle_median(img.data, k1, k2)):
            median_exact = False

    worst_rgf = 0.0
    for _ in range(5):
        img = Image(rng.random((1, 7, 7)))
        ss = float(rng.uniform(0.6, 1.5))
        sr = float(rng.uniform(0.1, 0.6))
        cfg = RollingGuidance(sigma_range=sr, sigma_spatial=ss, window=5, iterations=1)
        got = rolling_guidance(img, cfg).data
        expected = oracle_joint_bilateral(
            img.data, oracle_gaussian_2d(img.data, ss), ss, sr, 5
        )
        worst_rgf = max(worst_rgf, float(np.max(np.abs(got - expected))))

    ok = worst_bilateral < 1e-6 and median_exact and worst_rgf < 1e-6
    _criterion(
        1,
        ok,
        f"{images_checked} bilateral/joint images max abs err {worst_bilateral:.2e} "
        f"(< 1e-6), median exact: {median_exact}, rgf(t=1) max err {worst_rgf:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 2: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_2_gradients_match_finite_differences():
    rng = np.random.default_rng(1002)
    worst = 0.0
    instances = 0
    for n in (1, 2, 3, 9):
        for _ in range(13):  # 52 instances total
            h, w = [int(v) for v in rng.integers(3, 9, 2)]
            channels = 1 if instances % 4 else 3
            source = Image(rng.random((channels, h, w)))
            planes = tuple(Image(rng.random((channels, h, w))) for _ in range(n))
            configs = tuple(Gaussian(0.5 + 0.05 * i) for i in range(n))
            basis = FilteredBasis(source, configs, np.stack([p.data for p in planes]))
            gt_clean = Image(rng.random((channels, h, w)))
            # Layout [wc (n), bc, wr (n), br, w1, w2, bm], drawn in that order.
            params = np.concatenate([
                rng.normal(0, 0.7, n), [rng.normal(0, 0.3)],
                rng.normal(0, 0.7, n), [rng.normal(0, 0.3)],
                [rng.normal(0.5, 0.4), rng.normal(0.5, 0.4), rng.normal(0, 0.3)],
            ])
            model = CompositionModel(configs, params)
            _, grads = gradients(model, basis, gt_clean, Loss())
            fd = fd_gradients(model, basis, gt_clean, Loss())
            worst = max(worst, float(_relative_error(grads, fd)))
            instances += 1
    ok = worst < 1e-5 and instances >= 50
    _criterion(
        2, ok, f"{instances} instances, worst relative error {worst:.2e} (< 1e-5), h=1e-4"
    )


# ---------------------------------------------------------------------------
# Criteria 3 and 4: desk-scale training suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_suite():
    train_samples = denoising_samples(20, seed=31, sigma255=25.0)
    held_out = denoising_samples(10, seed=77, sigma255=25.0)
    return train_samples, held_out


def test_criterion_3_beats_best_basis_plane(desk_suite):
    train_samples, held_out = desk_suite
    configs = BUILTIN_PRESETS["bilateral9"]()
    begin = time.perf_counter()
    model, history = train(train_samples, configs, TrainingConfig(seed=5), val_samples=held_out)
    elapsed = time.perf_counter() - begin

    merged = evaluate(model, held_out).psnr
    plane_means = []
    for index in range(len(configs)):
        values = []
        for sample in held_out:
            plane = build_basis(sample.degraded, [configs[index]]).planes[0]
            values.append(psnr(plane, sample.clean))
        plane_means.append(float(np.mean(values)))
    best_plane = max(plane_means)

    loss_ok = history.records[-1].train_loss <= history.records[0].train_loss
    ok = merged >= best_plane + 0.3 and elapsed < 600 and loss_ok
    _criterion(
        3,
        ok,
        f"merged {merged:.3f} dB vs best plane {best_plane:.3f} dB "
        f"(gap {merged - best_plane:+.3f}, need >= +0.3); trained in {elapsed:.0f}s; "
        f"final loss <= first-epoch loss: {loss_ok}",
    )


def test_criterion_4_residual_branch_ablation_trend(desk_suite):
    train_samples, held_out = desk_suite
    configs = BUILTIN_PRESETS["bilateral9"]()
    report = ablate_residual(
        train_samples, configs, TrainingConfig(seed=5), val_samples=held_out
    )
    ok = report.gap >= -0.05
    _criterion(
        4,
        ok,
        f"dual-branch {report.dual_branch_psnr:.3f} dB, content-only "
        f"{report.content_only_psnr:.3f} dB, gap {report.gap:+.3f} dB (need >= -0.05)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: IIS structure on the 77-candidate grid
# ---------------------------------------------------------------------------


def test_criterion_5_iis_structure_on_77_grid():
    configs = parse_grid(BILATERAL_CANDIDATE_GRID)
    assert len(configs) == 77
    # Synthetic calibration scores spanning exactly (20, 45) dB.
    rng = np.random.default_rng(1005)
    raw = rng.random(77)
    raw = (raw - raw.min()) / (raw.max() - raw.min())
    scores = 20.0 + 25.0 * raw
    scored = sorted(
        (Candidate(cfg, float(s)) for cfg, s in zip(configs, scores)),
        key=lambda cand: cand.score,
    )
    spacing = 5.0
    m = int(round((scores.max() - scores.min()) / spacing)) + 1
    selected = iis_select(scored, m)
    by_config = {cand.config: cand.score for cand in scored}
    picked_scores = [by_config[cfg] for cfg in selected]
    targets = np.linspace(20.0, 45.0, m)
    within = np.max(np.abs(np.array(picked_scores) - targets))
    increasing = all(a < b for a, b in zip(picked_scores, picked_scores[1:]))
    ok = m == 6 and within <= 2.5 and increasing
    _criterion(
        5,
        ok,
        f"6 configs selected from 77, worst |score-target| {within:.2f} dB (<= 2.5), "
        f"strictly increasing: {increasing}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: schedule and loss constants
# ---------------------------------------------------------------------------


def test_criterion_6_schedule_and_loss_constants():
    cfg = TrainingConfig()
    schedule_ok = (
        lr_at(0, cfg) == 0.1 and lr_at(50, cfg) == 0.02 and lr_at(100, cfg) == 0.004
    )
    # Components engineered to be exactly (1.0, 2.0, 3.0); the source is 0,
    # so restored = source - residual for a residual of (2,2,0,0).
    from fbcompose.model import ForwardOutputs

    source = np.zeros((1, 2, 2))
    outputs = ForwardOutputs(
        content=np.full((1, 2, 2), 1.0),
        restored=source - np.array([[[2.0, 2.0], [0.0, 0.0]]]),
        merged=np.array([[[2.0, 2.0], [2.0, 0.0]]]),
    )
    total, components = total_loss(outputs, Image(np.zeros((1, 2, 2))))
    loss_ok = components == (1.0, 2.0, 3.0) and total == 0.1 * 1.0 + 0.1 * 2.0 + 1.0 * 3.0
    loss_ok = loss_ok and abs(total - 3.3) < 1e-12
    ok = schedule_ok and loss_ok
    _criterion(
        6,
        ok,
        f"lr(0)={lr_at(0, cfg)!r}, lr(50)={lr_at(50, cfg)!r}, lr(100)={lr_at(100, cfg)!r}; "
        f"total_loss(1,2,3)={total!r}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: thread-count determinism through the CLI
# ---------------------------------------------------------------------------


def test_criterion_7_thread_determinism(tmp_path):
    for i in range(4):
        write_image(synthetic_clean(400 + i, width=16, height=16), tmp_path / f"c{i}.pgm")
    manifest = tmp_path / "data.txt"
    manifest.write_text("".join(f"clean c{i}.pgm gaussian 25\n" for i in range(4)))

    models = []
    outputs = []
    for threads in ("1", "8"):
        model_path = tmp_path / f"model_{threads}.cfmodel"
        rc = run(
            [
                "train",
                "--preset", "builtin:median8",
                "--data", str(manifest),
                "--out", str(model_path),
                "--epochs", "10",
                "--seed", "4",
                "--threads", threads,
            ]
        )
        assert rc == 0
        out_path = tmp_path / f"out_{threads}.pgm"
        rc = run(
            [
                "apply", "--model", str(model_path), "--threads", threads,
                str(tmp_path / "c0.pgm"), str(out_path),
            ]
        )
        assert rc == 0
        models.append(model_path.read_bytes())
        outputs.append(out_path.read_bytes())
    ok = models[0] == models[1] and outputs[0] == outputs[1]
    _criterion(
        7,
        ok,
        f"--threads 1 vs 8: model bytes identical: {models[0] == models[1]}, "
        f"output bytes identical: {outputs[0] == outputs[1]}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: cost model
# ---------------------------------------------------------------------------


def _median_seconds(fn, clock, repetitions=3) -> float:
    """Median of ``repetitions`` spans of ``fn()`` on ``clock``."""
    spans = []
    for _ in range(repetitions):
        begin = clock()
        fn()
        spans.append(clock() - begin)
    return float(np.median(spans))


def test_criterion_8_cost_model_linearity():
    image = synthetic_clean(500, width=481, height=321)
    configs = BUILTIN_PRESETS["bilateral9"]()
    magnitudes = (1, 3, 9)
    # A serial build runs in the calling thread, so its thread CPU time is
    # the whole build and other processes do not move it.  forward's matmul
    # runs partly in BLAS threads, so it keeps wall time.
    serial_times = [
        _median_seconds(lambda k=k: build_basis(image, configs[:k], threads=1), time.thread_time)
        for k in magnitudes
    ]
    basis = build_basis(image, configs, threads=1)
    model = init_model(configs)
    forward_seconds = _median_seconds(lambda: forward(model, basis), time.perf_counter)

    # A bilateral plane costs in proportion to the offset pairs its kernel
    # computes (0 to 110 across bilateral9), so the line is fitted to the
    # declared pairs of each prefix, not to its plane count.
    pairs = np.array(
        [sum(len(_offset_pairs(c.sigma_spatial, c.window)) for c in configs[:k]) for k in magnitudes],
        dtype=np.float64,
    )
    times = np.array(serial_times)
    slope, intercept = np.polyfit(pairs, times, 1)
    fitted = slope * pairs + intercept
    ss_res = float(np.sum((times - fitted) ** 2))
    ss_tot = float(np.sum((times - times.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    forward_fraction = forward_seconds / serial_times[-1]
    ok = r_squared > 0.98 and forward_fraction < 0.05
    _criterion(
        8,
        ok,
        f"serial FB seconds for K={magnitudes} ({pairs.astype(int).tolist()} offset pairs): "
        f"{[f'{t:.3f}' for t in serial_times]}, R^2 over pairs {r_squared:.5f} (> 0.98); "
        f"forward {forward_seconds * 1e3:.1f} ms = {forward_fraction:.2%} of FB(9) (< 5%)",
    )


# ---------------------------------------------------------------------------
# Criterion 9: optional full-scale check (non-gating, needs BSD data)
# ---------------------------------------------------------------------------


def test_criterion_9_optional_full_scale_bsd():
    """Full-scale check against the published 30.22 dB (sigma=25, magnitude-9
    IIS) within +/-0.5 dB.  Not desk-scale: requires local BSD300/BSD68
    copies as PGM files, pointed to by FBCOMPOSE_BSD300_DIR (training) and
    FBCOMPOSE_BSD68_DIR (evaluation)."""
    train_dir = os.environ.get("FBCOMPOSE_BSD300_DIR")
    eval_dir = os.environ.get("FBCOMPOSE_BSD68_DIR")
    if not train_dir or not eval_dir:
        pytest.skip("BSD300/BSD68 not available; set FBCOMPOSE_BSD300_DIR and FBCOMPOSE_BSD68_DIR")

    from fbcompose import Sample, add_gaussian_noise
    from pathlib import Path

    def load_pairs(directory, seed_base):
        pairs = []
        for index, path in enumerate(sorted(Path(directory).glob("*.pgm"))):
            clean = read_image(path)
            noisy = add_gaussian_noise(clean, 25.0, seed=seed_base + index)
            pairs.append(Sample(path.name, noisy, clean))
        return pairs

    train_samples = load_pairs(train_dir, 10_000)
    eval_samples = load_pairs(eval_dir, 20_000)
    model, _ = train(
        train_samples, BUILTIN_PRESETS["bilateral9"](), TrainingConfig(seed=0),
        val_samples=eval_samples, threads=8,
    )
    report = evaluate(model, eval_samples, threads=8)
    ok = abs(report.psnr - 30.22) <= 0.5
    _criterion(9, ok, f"BSD68 sigma=25 mean PSNR {report.psnr:.2f} dB vs 30.22 +/- 0.5")
