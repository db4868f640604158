import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fbcompose import (
    AblationReport,
    AdamState,
    DatasetSpec,
    Gaussian,
    Image,
    Loss,
    Median,
    Sample,
    TrainingConfig,
    ablate_residual,
    adam_step,
    add_gaussian_noise,
    BUILTIN_PRESETS,
    build_basis,
    evaluate,
    lr_at,
    psnr,
    train,
    write_image,
)
from fbcompose.model import (
    CompositionModel,
    forward,
    gradients,
    gram_gradients,
    init_model,
    model_to_vector,
    vector_to_model,
)
from fbcompose import trainer
from fbcompose.trainer import (
    EpochRecord,
    PairEntry,
    RecipeEntry,
    derive_seed,
    history_to_csv,
    split_validation,
)

from oracles import oracle_als_mse, oracle_mean_gram, oracle_mse_loss
from synth import denoising_samples, synthetic_clean


def _identity_suite(count=8, size=16):
    samples = []
    for i in range(count):
        img = synthetic_clean(200 + i, width=size, height=size)
        samples.append(Sample(f"s{i}", img, img))
    return samples


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_exact_values():
    cfg = TrainingConfig()
    assert lr_at(0, cfg) == 0.1
    assert lr_at(49, cfg) == 0.1
    assert lr_at(50, cfg) == 0.02
    assert lr_at(100, cfg) == 0.004
    assert lr_at(249, cfg) == 0.00016


def test_lr_schedule_non_increasing_piecewise_constant():
    cfg = TrainingConfig()
    values = [lr_at(e, cfg) for e in range(260)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for epoch in range(0, 250, 50):
        block = values[epoch : epoch + 50]
        assert all(v == block[0] for v in block)


def test_lr_schedule_past_the_float_range():
    # 5.0 ** 441 is finite and 5.0 ** 442 overflows: the schedule keeps its
    # values up to there and then stays at 0.0, never rising.
    cfg = TrainingConfig(lr_period=1)
    values = [lr_at(e, cfg) for e in range(500)] + [lr_at(10**9, cfg)]
    assert values[:442] == [0.1 / 5.0**e for e in range(442)]
    assert values[442:] == [0.0] * (len(values) - 442)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_at(-1, TrainingConfig())


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(lr_divisor=1.0)
    for field in ("lr0", "lr_divisor"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                TrainingConfig(**{field: bad})
    with pytest.raises(ValueError, match="seed"):
        TrainingConfig(seed=-1)
    with pytest.raises(ValueError, match="kind"):
        Loss(kind="huber")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tv_weight": 0.5},  # the mse objective never reads it
        {"kind": "l1_tv", "tv_weight": -0.1},
        {"kind": "l1_tv", "tv_weight": float("nan")},
        {"kind": "l1_tv", "tv_weight": float("inf")},
    ],
)
def test_training_config_rejects_tv_weight(kwargs):
    with pytest.raises(ValueError, match="tv_weight"):
        Loss(**kwargs)


def test_training_config_accepts_tv_weight_for_l1_tv():
    assert TrainingConfig(loss=Loss(kind="l1_tv", tv_weight=0.5)).loss.tv_weight == 0.5


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_matches_hand_evaluation():
    params = np.zeros(3)
    grads = np.ones(3)
    state = AdamState.zeros(3)
    new_params, new_state = adam_step(params, grads, state, lr=0.1)
    # Bias corrections cancel at t=1: step = -lr * 1 / (1 + eps).
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert np.allclose(new_params, expected, atol=1e-15)
    assert new_state.t == 1


def test_adam_zero_gradient_leaves_params_and_decays_moments():
    # From a fresh state, zero gradients never move parameters.
    rng = np.random.default_rng(210)
    params = rng.normal(0, 1, 4)
    new_params, state = adam_step(params, np.zeros(4), AdamState.zeros(4), lr=0.1)
    assert np.array_equal(new_params, params)
    assert np.all(state.m == 0.0) and np.all(state.v == 0.0)
    # Accumulated moments decay geometrically under zero gradients.
    state = AdamState(np.full(4, 0.5), np.full(4, 0.25), t=3)
    _, decayed = adam_step(params, np.zeros(4), state, lr=0.1)
    assert np.all(decayed.m == 0.9 * 0.5)
    assert np.all(decayed.v == 0.999 * 0.25)


def test_adam_identical_sequences_identical_trajectories():
    rng = np.random.default_rng(211)
    grads = [rng.normal(0, 1, 5) for _ in range(10)]

    def run():
        params = np.zeros(5)
        state = AdamState.zeros(5)
        for g in grads:
            params, state = adam_step(params, g, state, lr=0.05)
        return params

    assert np.array_equal(run(), run())


def test_adam_update_magnitude_bound_under_extreme_gradients():
    params = np.zeros(2)
    state = AdamState.zeros(2)
    bound = 0.1 / (1.0 - 0.9)  # lr / (1 - beta1)
    for scale in (1e12, -1e9):
        step_params, state = adam_step(params, np.full(2, scale), state, lr=0.1)
        assert np.all(np.abs(step_params - params) <= bound + 1e-12)
        params = step_params


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(2), AdamState.zeros(3), lr=0.1)


# ---------------------------------------------------------------------------
# Samples and datasets
# ---------------------------------------------------------------------------


def test_sample_shape_mismatch_names_sample():
    a = Image.constant(4, 4, 0.5)
    b = Image.constant(5, 4, 0.5)
    with pytest.raises(ValueError) as err:
        Sample("bad-sample", a, b)
    assert "bad-sample" in str(err.value)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(8, 0) != derive_seed(7, 0)


def test_dataset_manifest_pairs_and_recipes(tmp_path):
    clean = synthetic_clean(220, width=12, height=12)
    noisy = add_gaussian_noise(clean, 25.0, seed=1)
    write_image(clean, tmp_path / "clean.pgm")
    write_image(noisy, tmp_path / "noisy.pgm")
    manifest = tmp_path / "data.txt"
    manifest.write_text(
        "# demo dataset\n"
        "split 0.25\n"
        "pair noisy.pgm clean.pgm\n"
        "clean clean.pgm gaussian 25\n"
        "clean clean.pgm impulse 0.4\n"
    )
    spec = DatasetSpec.read(manifest)
    assert spec.val_fraction == 0.25
    assert spec.entries == (
        PairEntry("noisy.pgm", "clean.pgm"),
        RecipeEntry("clean.pgm", "gaussian", 25.0),
        RecipeEntry("clean.pgm", "impulse", 0.4),
    )
    samples = spec.load(seed=3)
    assert len(samples) == 3
    assert samples[0].degraded.shape == samples[0].clean.shape
    # Recipes are deterministic given the global seed.
    again = spec.load(seed=3)
    for a, b in zip(samples, again):
        assert a.degraded == b.degraded
    different = spec.load(seed=4)
    assert samples[1].degraded != different[1].degraded
    # Impulse recipe produced extremes.
    assert np.any(np.isin(samples[2].degraded.data, [0.0, 1.0]))


def test_dataset_manifest_rejects_bad_lines(tmp_path):
    manifest = tmp_path / "bad.txt"
    manifest.write_text("pair only_one.pgm\n")
    with pytest.raises(ValueError):
        DatasetSpec.read(manifest)
    manifest.write_text("clean x.pgm saltpepper 0.1\n")
    with pytest.raises(ValueError):
        DatasetSpec.read(manifest)
    manifest.write_text("# empty\n")
    with pytest.raises(ValueError):
        DatasetSpec.read(manifest)


@pytest.mark.parametrize(
    "line",
    [
        "split x",
        "clean clean.pgm gaussian x",
        "clean clean.pgm impulse 0.1.2",
        "clean c.pgm impulse 2",
        "clean c.pgm gaussian -5",
        "clean c.pgm gaussian nan",
    ],
)
def test_dataset_manifest_number_errors_name_file_and_line(tmp_path, line):
    manifest = tmp_path / "bad.txt"
    manifest.write_text(f"pair a.pgm b.pgm\n{line}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}:2: "):
        DatasetSpec.read(manifest)


def test_dataset_manifest_rejects_a_repeated_split(tmp_path):
    manifest = tmp_path / "two_splits.txt"
    manifest.write_text("split 0.25\npair a.pgm b.pgm\n# note\nsplit 0.5\n")
    with pytest.raises(
        ValueError, match=rf"^{re.escape(str(manifest))}:4: split repeats the one on line 1"
    ):
        DatasetSpec.read(manifest)


def test_split_validation_behavior():
    samples = _identity_suite(10, size=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_part, val_part = split_validation(samples, 0.1)
    assert len(train_part) == 9 and len(val_part) == 1
    assert val_part[0] is samples[-1]
    # Tiny datasets validate on the training set itself, and say so.
    with pytest.warns(UserWarning, match="validating on the training set"):
        train_part, val_part = split_validation(samples[:3], 0.1)
    assert train_part == samples[:3] and val_part == samples[:3]


@pytest.mark.parametrize("fraction", [1.0, 1.5, -0.5, float("nan"), float("inf")])
def test_split_validation_rejects_fraction_outside_unit_interval(fraction):
    samples = _identity_suite(10, size=8)
    with pytest.raises(ValueError, match="val_fraction"):
        split_validation(samples, fraction)
    with pytest.raises(ValueError, match="val_fraction"):
        train(samples, [Median(1, 1)], val_fraction=fraction)
    with pytest.raises(ValueError, match="val_fraction"):
        ablate_residual(samples, [Median(1, 1)], val_fraction=fraction)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_train_identity_basis_drives_convex_loss_below_1e6():
    # Convex configuration (content branch only): least squares has the
    # exact solution w=(1,0), b=0, and the optimizer must approach it.
    samples = _identity_suite()
    configs = [Median(1, 1), Gaussian(1.0)]
    cfg = TrainingConfig(seed=1, loss=Loss(alpha=1.0, lam=0.0, gamma=0.0))
    model, history = train(samples, configs, cfg, val_samples=samples)
    assert history.records[-1].train_loss < 1e-6
    assert len(history.records) == 250


def test_train_single_sample_identity_plane_recovers_unit_weight():
    img = synthetic_clean(230, width=16, height=16)
    samples = [Sample("only", img, img)]
    model, _ = train(samples, [Median(1, 1)], TrainingConfig(seed=2), val_samples=samples)
    wc, bc = model.params[:2]  # n = 1: [wc[0], bc, ...]
    assert abs(wc - 1.0) < 1e-2
    assert abs(bc) < 1e-2


def test_train_same_seed_bitwise_identical_history():
    samples = _identity_suite(4, size=12)
    configs = [Median(3, 3), Gaussian(1.0)]
    cfg = TrainingConfig(seed=9, epochs=12)
    model_a, hist_a = train(samples, configs, cfg, val_samples=samples)
    model_b, hist_b = train(samples, configs, cfg, val_samples=samples)
    assert hist_a.records == hist_b.records
    assert np.array_equal(model_to_vector(model_a), model_to_vector(model_b))
    # A different seed shuffles differently.
    _, hist_c = train(samples, configs, TrainingConfig(seed=10, epochs=12), val_samples=samples)
    assert hist_a.records != hist_c.records


def test_train_thread_count_does_not_change_bits():
    samples = _identity_suite(4, size=12)
    configs = [Median(3, 3), Gaussian(1.0)]
    cfg = TrainingConfig(seed=3, epochs=10)
    model_a, hist_a = train(samples, configs, cfg, val_samples=samples, threads=1)
    model_b, hist_b = train(samples, configs, cfg, val_samples=samples, threads=8)
    assert np.array_equal(model_to_vector(model_a), model_to_vector(model_b))
    assert hist_a.records == hist_b.records


def test_train_default_split_holds_out_trailing_samples():
    samples = _identity_suite(10, size=12)
    configs = [Median(1, 1)]
    cfg = TrainingConfig(seed=4, epochs=5)
    _, history = train(samples, configs, cfg)  # no explicit validation set
    assert len(history.records) == 5
    assert np.isfinite(history.records[-1].val_psnr)


def test_train_noisy_final_loss_not_above_first():
    rng_samples = []
    for i in range(6):
        clean = synthetic_clean(240 + i, width=16, height=16)
        rng_samples.append(Sample(f"n{i}", add_gaussian_noise(clean, 25.0, seed=i), clean))
    configs = [Median(3, 3), Gaussian(1.0)]
    _, history = train(rng_samples, configs, TrainingConfig(seed=5, epochs=60), val_samples=rng_samples)
    assert history.records[-1].train_loss <= history.records[0].train_loss


def test_train_best_model_retained_in_history():
    samples = _identity_suite(4, size=12)
    cfg = TrainingConfig(seed=6, epochs=15)
    _, history = train(samples, [Median(3, 3)], cfg, val_samples=samples)
    top = max(r.val_psnr for r in history.records)
    assert history.best is next(r for r in history.records if r.val_psnr == top)


def test_train_history_best_is_the_first_of_tied_records():
    records = (
        trainer.EpochRecord(0, 0.1, 2.0, 30.0),
        trainer.EpochRecord(1, 0.1, 1.0, 31.5),
        trainer.EpochRecord(2, 0.1, 0.5, 31.5),
    )
    assert trainer.TrainHistory(records).best is records[1]


def test_train_divergence_is_the_error_even_with_runtime_warnings_as_errors():
    clean = synthetic_clean(300, width=16, height=16)
    samples = [Sample("only", add_gaussian_noise(clean, 25.0, seed=1), clean)]
    cfg = TrainingConfig(epochs=2, lr0=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="training diverged at epoch 0"):
            train(samples, BUILTIN_PRESETS["median8"](), cfg, val_samples=samples)


def _reference_train(samples, configs, cfg, val_samples):
    """The training loop written out on the pixel ``gradients``: the same
    draw order, one Adam step per sample and validation as ``train``."""
    bases = [build_basis(s.degraded, configs) for s in samples]
    val_bases = [build_basis(s.degraded, configs) for s in val_samples]
    params = model_to_vector(init_model(configs))
    state = AdamState.zeros(params.size)
    rng = np.random.default_rng(cfg.seed)
    records = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        losses = []
        for idx in rng.permutation(len(samples)):
            model = vector_to_model(params, configs)
            loss, grads = gradients(model, bases[idx], samples[idx].clean, cfg.loss)
            params, state = adam_step(params, grads, state, lr)
            losses.append(loss)
        model = vector_to_model(params, configs)
        val_psnr = float(np.mean([
            psnr(forward(model, basis).merged_image(), sample.clean)
            for sample, basis in zip(val_samples, val_bases)
        ]))
        records.append(EpochRecord(epoch, lr, float(np.mean(losses)), val_psnr))
    return params, records


def _noisy_suite(count, size, seed):
    samples = []
    for i in range(count):
        clean = synthetic_clean(seed + i, width=size, height=size)
        samples.append(Sample(f"e{i}", add_gaussian_noise(clean, 25.0, seed=seed + i), clean))
    return samples


def test_train_mse_matches_pixel_gradient_reference():
    samples = _noisy_suite(5, 16, 280)
    val = _noisy_suite(2, 16, 290)
    configs = [Median(3, 3), Gaussian(1.0), Median(1, 1)]
    cfg = TrainingConfig(seed=12, epochs=20)
    model, history = train(samples, configs, cfg, val_samples=val)
    ref_params, ref_records = _reference_train(samples, configs, cfg, val)
    assert np.max(np.abs(model_to_vector(model) - ref_params)) <= 1e-6
    for got, want in zip(history.records, ref_records, strict=True):
        assert (got.epoch, got.lr) == (want.epoch, want.lr)
        assert abs(got.val_psnr - want.val_psnr) <= 1e-6
        assert got.train_loss == pytest.approx(want.train_loss, rel=1e-9)


def test_train_l1_tv_is_the_pixel_gradient_reference():
    samples = _noisy_suite(5, 16, 300)
    val = _noisy_suite(2, 16, 310)
    configs = [Median(3, 3), Gaussian(1.0), Median(1, 1)]
    cfg = TrainingConfig(seed=13, epochs=20, loss=Loss(kind="l1_tv", tv_weight=0.05))
    model, history = train(samples, configs, cfg, val_samples=val)
    ref_params, ref_records = _reference_train(samples, configs, cfg, val)
    assert np.array_equal(model_to_vector(model), ref_params)
    assert list(history.records) == ref_records


# Measured on the desk suite below: the default recipe at seed 5 ends 11.1 %
# above the optimum of the mean "mse" objective.  Never widen this margin.
DESK_MSE_EXCESS_MARGIN = 0.115


@pytest.fixture(scope="module")
def desk_mse_optimum():
    """The desk-scale training suite, its mean Gram matrix and the optimum
    that alternating exact least squares reaches from the uniform start."""
    samples = denoising_samples(20, seed=31, sigma255=25.0)
    configs = BUILTIN_PRESETS["bilateral9"]()
    bases = [build_basis(s.degraded, configs) for s in samples]
    gram = oracle_mean_gram(bases, [s.clean for s in samples])
    loss = Loss()
    weights = (loss.alpha, loss.lam, loss.gamma)
    optimum = oracle_als_mse(gram, weights, init_model(configs).params)
    return samples, configs, gram, weights, optimum


def test_gram_gradients_vanish_at_the_least_squares_optimum(desk_mse_optimum):
    _, configs, gram, weights, optimum = desk_mse_optimum
    loss, grads = gram_gradients(CompositionModel(configs, optimum), gram)
    assert np.max(np.abs(grads)) <= 1e-8
    assert loss == pytest.approx(oracle_mse_loss(optimum, gram, weights), rel=1e-9)


def test_default_recipe_train_ends_near_the_mse_optimum(desk_mse_optimum):
    samples, configs, gram, weights, optimum = desk_mse_optimum
    # Validation only scores epochs, so one sample of it keeps the run short.
    model, _ = train(samples, configs, TrainingConfig(seed=5), val_samples=samples[:1])
    best = oracle_mse_loss(optimum, gram, weights)
    reached = oracle_mse_loss(model.params, gram, weights)
    assert best <= reached <= (1.0 + DESK_MSE_EXCESS_MARGIN) * best


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train([], [Median(1, 1)], TrainingConfig())


def test_history_csv_round_trip(tmp_path):
    samples = _identity_suite(3, size=12)
    _, history = train(samples, [Median(1, 1)], TrainingConfig(seed=7, epochs=4), val_samples=samples)
    path = tmp_path / "history.csv"
    history_to_csv(history, path)
    import csv

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["epoch", "lr", "train_loss", "val_psnr"]
    assert len(rows) == 5
    for row, rec in zip(rows[1:], history.records):
        assert int(row[0]) == rec.epoch
        assert float(row[1]) == rec.lr
        assert float(row[2]) == rec.train_loss
        assert float(row[3]) == rec.val_psnr


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_perfect_model_reports_cap():
    img = synthetic_clean(250, width=16, height=16)
    samples = [Sample("p", img, img)]
    # Layout [wc (n), bc, wr (n), br, w1, w2, bm] with n = 1.
    model = CompositionModel((Median(1, 1),), np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    report = evaluate(model, samples)
    assert report.psnr == 100.0
    assert report.ssim == pytest.approx(1.0, abs=1e-9)


def test_evaluate_one_hot_selector_matches_plane_psnr():
    clean = synthetic_clean(251, width=16, height=16)
    noisy = add_gaussian_noise(clean, 25.0, seed=3)
    samples = [Sample("x", noisy, clean)]
    configs = (Median(3, 3), Gaussian(1.0))
    for hot in range(2):
        weights = np.zeros(2)
        weights[hot] = 1.0
        model = CompositionModel(
            configs, np.concatenate([weights, [0.0], np.zeros(2), [0.0, 1.0, 0.0, 0.0]])
        )
        report = evaluate(model, samples)
        plane = build_basis(noisy, [configs[hot]]).planes[0]
        assert report.psnr == psnr(plane, clean)


def test_evaluate_is_read_only_and_reports_per_image():
    samples = _identity_suite(3, size=12)
    model = init_model((Median(3, 3), Gaussian(1.0)))
    before = model_to_vector(model)
    report = evaluate(model, samples, threads=2)
    assert np.array_equal(model_to_vector(model), before)
    assert len(report.per_image) == 3
    assert report.psnr == pytest.approx(np.mean([r[1] for r in report.per_image]), abs=1e-12)
    assert [r[0] for r in report.per_image] == ["s0", "s1", "s2"]


@pytest.mark.parametrize("threads", (1, 2))
def test_evaluate_working_set_does_not_grow_with_the_sample_count(threads):
    # 16 planes over gray 64x64: a basis is 512 KiB, so holding every basis
    # until the last is scored would add six of them (3 MiB) from 2 to 8
    # samples.  Each rise is the least of three runs, which drops the rare
    # one-off allocation spike of a single run.
    configs = tuple(Gaussian(0.5 + 0.25 * k) for k in range(16))
    model = init_model(configs)
    samples = _noisy_suite(8, 64, 600)
    evaluate(model, samples, threads=threads)

    def peak_rise(count):
        rises = []
        for _ in range(3):
            tracemalloc.start()
            try:
                evaluate(model, samples[:count], threads=threads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rises.append(peak)
        return min(rises)

    basis_bytes = 8 * len(configs) * 64 * 64
    assert peak_rise(8) < peak_rise(2) + basis_bytes


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------


def test_ablate_residual_record_fields_and_gap():
    samples = []
    for i in range(4):
        clean = synthetic_clean(260 + i, width=16, height=16)
        samples.append(Sample(f"a{i}", add_gaussian_noise(clean, 25.0, seed=50 + i), clean))
    configs = [Median(3, 3), Gaussian(1.0)]
    cfg = TrainingConfig(seed=11, epochs=40)
    report = ablate_residual(samples, configs, cfg, val_samples=samples)
    assert np.isfinite(report.dual_branch_psnr)
    assert np.isfinite(report.content_only_psnr)
    assert report.gap == report.dual_branch_psnr - report.content_only_psnr
    # Identical call is reproducible (controlled experiment contract).
    again = ablate_residual(samples, configs, cfg, val_samples=samples)
    assert again == report


def _ablation_split(case):
    """(samples, val_samples, expected train/val parts) of one split case."""
    samples = _noisy_suite(3, 16, 620)
    if case == "distinct":
        val = _noisy_suite(2, 16, 630)
        return samples, val, samples, val
    if case == "shared":
        return samples, samples[1:], samples, samples[1:]
    return samples, None, samples, samples  # 0.1 of 3 holds out none


@pytest.mark.parametrize("loss_kind", ("mse", "l1_tv"))
@pytest.mark.parametrize("case", ("distinct", "shared", "fallback"))
@pytest.mark.parametrize("threads", (1, 2))
def test_ablate_builds_each_sample_once(monkeypatch, threads, case, loss_kind):
    samples, val_samples, train_part, val_part = _ablation_split(case)
    configs = [Median(3, 3), Gaussian(1.0)]
    tv_weight = 0.05 if loss_kind == "l1_tv" else 0.0
    cfg = TrainingConfig(seed=13, epochs=6, loss=Loss(kind=loss_kind, tv_weight=tv_weight))
    built = []

    def counting_build_basis(source, *args, **kwargs):
        built.append(id(source))
        return build_basis(source, *args, **kwargs)

    monkeypatch.setattr(trainer, "build_basis", counting_build_basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the fallback split's warning
        report = ablate_residual(samples, configs, cfg, val_samples=val_samples, threads=threads)
    distinct = {id(s.degraded) for s in train_part + val_part}
    assert sorted(built) == sorted(distinct)

    dual_model, _ = train(train_part, configs, cfg, val_samples=val_part)
    content_cfg = replace(cfg, loss=replace(cfg.loss, lam=0.0, gamma=0.0, tv_weight=0.0))
    content_model, _ = train(train_part, configs, content_cfg, val_samples=val_part)
    content = float(np.mean([
        psnr(Image(forward(content_model, build_basis(s.degraded, configs)).content), s.clean)
        for s in val_part
    ]))
    assert report == AblationReport(evaluate(dual_model, val_part).psnr, content)


def test_ablate_content_arm_ignores_the_tv_weight():
    # The content-only arm trains on the content term alone, so no TV(merged)
    # term may reach its content weights through the merge weight w1.
    samples = _noisy_suite(4, 16, 640)
    configs = [Median(3, 3), Gaussian(1.0), Median(1, 1)]
    dual, content = set(), set()
    for tv_weight in (0.0, 0.05):
        cfg = TrainingConfig(seed=14, epochs=30, loss=Loss(kind="l1_tv", tv_weight=tv_weight))
        report = ablate_residual(samples, configs, cfg, val_samples=samples[:2])
        dual.add(report.dual_branch_psnr)
        content.add(report.content_only_psnr)
    assert len(dual) == 2  # the TV weight moves the full objective's arm
    assert len(content) == 1
