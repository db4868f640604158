from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fbcompose import (
    Bilateral,
    Candidate,
    FBCache,
    Gaussian,
    Image,
    Median,
    RollingGuidance,
    add_impulse_noise,
    bilateral_candidate_grid,
    bilateral_preset,
    build_basis,
    build_residuals,
    calibrate,
    dis_grid,
    iis_select,
    make_config,
    median,
    median_preset,
    parse_config,
    read_preset,
    rgf_preset,
    write_preset,
)
from fbcompose.basis import CalibrationError, ParamRange, write_calibration_report
from fbcompose.filters import KINDS

from synth import synthetic_clean


# ---------------------------------------------------------------------------
# Direct isometric sampling
# ---------------------------------------------------------------------------


def _bilateral_ranges():
    return [ParamRange.continuous("ss", 0.1, 1.1), ParamRange.continuous("sr", 0.5, 3.5)]


def test_dis_grid_77_candidates():
    configs = dis_grid("bilateral", _bilateral_ranges(), (11, 7), fixed={"k": 15})
    assert len(configs) == 77
    assert configs == bilateral_candidate_grid()
    # Endpoints included, first range varies slowest.
    assert configs[0] == Bilateral(0.1, 0.5, 15)
    assert configs[1] == Bilateral(0.1, 1.0, 15)
    assert configs[-1] == Bilateral(1.1, 3.5, 15)
    assert len(set(configs)) == 77


def test_dis_grid_single_count_takes_midpoints():
    configs = dis_grid("bilateral", _bilateral_ranges(), (1, 1), fixed={"k": 15})
    assert configs == [Bilateral(0.6000000000000001, 2.0, 15)]
    # Midpoints: (0.1 + 1.1)/2 and (0.5 + 3.5)/2.
    assert configs[0].sigma_spatial == pytest.approx(0.6, abs=1e-12)
    assert configs[0].sigma_range == pytest.approx(2.0, abs=1e-12)


def test_dis_grid_two_counts_give_corners():
    configs = dis_grid("bilateral", _bilateral_ranges(), (2, 2), fixed={"k": 15})
    assert configs == [
        Bilateral(0.1, 0.5, 15),
        Bilateral(0.1, 3.5, 15),
        Bilateral(1.1, 0.5, 15),
        Bilateral(1.1, 3.5, 15),
    ]


def test_dis_grid_size_is_product_of_counts():
    rng = np.random.default_rng(60)
    for _ in range(5):
        c1, c2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        configs = dis_grid("bilateral", _bilateral_ranges(), (c1, c2), fixed={"k": 5})
        assert len(configs) == c1 * c2


def test_dis_grid_discrete_set_contributes_values():
    ranges = [ParamRange.discrete("k1", [3, 5]), ParamRange.discrete("k2", [3, 7, 9])]
    configs = dis_grid("median", ranges, (1, 1))
    assert len(configs) == 6
    assert configs[0] == Median(3, 3)
    assert configs[-1] == Median(5, 9)


def test_dis_grid_count_mismatch():
    with pytest.raises(ValueError):
        dis_grid("bilateral", _bilateral_ranges(), (3,), fixed={"k": 5})


def test_param_range_validation():
    with pytest.raises(ValueError):
        ParamRange.continuous("x", 2.0, 1.0)
    with pytest.raises(ValueError):
        ParamRange.discrete("x", [])
    with pytest.raises(ValueError):
        ParamRange.continuous("x", 0.0, 1.0).sample(0)


def test_make_config_errors():
    with pytest.raises(ValueError):
        make_config("bilateral", {"ss": 1.0})  # missing params
    with pytest.raises(ValueError):
        make_config("nope", {"ss": 1.0})
    with pytest.raises(ValueError):
        make_config("median", {"k1": 3.5, "k2": 3})  # non-integer window
    for kind, cls in KINDS.items():
        params = {short: 3.0 if is_int else 0.75 for short, _, is_int in cls.PARAMS}
        assert make_config(kind.upper(), params) == cls(*params.values())
        for short, _, is_int in cls.PARAMS:
            missing = {k: v for k, v in params.items() if k != short}
            with pytest.raises(ValueError, match=repr(short)):
                make_config(kind, missing)
            if is_int:
                with pytest.raises(ValueError, match="must be an integer"):
                    make_config(kind, {**params, short: 3.5})
                # Grid values within 1e-9 of an integer snap to it.
                assert make_config(kind, {**params, short: 3.0 + 1e-10}) == cls(
                    *params.values()
                )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_calibrate_identity_candidate_hits_cap():
    img = synthetic_clean(61, width=12, height=12)
    scored = calibrate([Median(1, 1)], [(img, img)])
    assert scored[0].score == 100.0


def test_calibrate_median_beats_tiny_gaussian_on_impulse_noise():
    clean = synthetic_clean(62, width=24, height=24)
    noisy = add_impulse_noise(clean, 0.1, seed=5)
    scored = calibrate([Median(3, 3), Gaussian(0.1)], [(noisy, clean)])
    by_config = {cand.config: cand.score for cand in scored}
    assert by_config[Median(3, 3)] > by_config[Gaussian(0.1)]


def test_calibrate_sorts_ascending_and_is_stable():
    img = synthetic_clean(63, width=16, height=16)
    noisy = add_impulse_noise(img, 0.2, seed=6)
    candidates = [Median(3, 3), Median(1, 1), Gaussian(0.6), Median(3, 5)]
    scored = calibrate(candidates, [(noisy, img)], threads=2)
    scores = [cand.score for cand in scored]
    assert scores == sorted(scores)
    assert len(scored) == len(candidates)


def test_calibrate_mean_over_pairs():
    a = synthetic_clean(64, width=12, height=12)
    b = synthetic_clean(65, width=12, height=12)
    scored = calibrate([Median(1, 1)], [(a, a), (b, b)])
    assert scored[0].score == 100.0


def test_calibrate_names_offending_config_on_failure():
    a = Image.constant(8, 8, 0.5)
    wrong = Image.constant(9, 8, 0.5)  # shape mismatch surfaces inside psnr
    with pytest.raises(CalibrationError) as err:
        calibrate([Median(3, 3)], [(a, wrong)])
    assert "median:3x3" in str(err.value)


def test_calibrate_rejects_empty_inputs():
    img = Image.constant(8, 8, 0.5)
    with pytest.raises(ValueError):
        calibrate([], [(img, img)])
    with pytest.raises(ValueError):
        calibrate([Median(1, 1)], [])


# ---------------------------------------------------------------------------
# Indirect isometric sampling
# ---------------------------------------------------------------------------


def _candidates_from_scores(scores):
    # Distinct dummy configs so selections are distinguishable.
    return [
        Candidate(Gaussian(0.1 + 0.01 * i), float(s)) for i, s in enumerate(scores)
    ]


def test_iis_select_hand_example():
    scored = _candidates_from_scores([21, 22, 28, 29, 35])
    picked = iis_select(scored, 3)
    picked_scores = [
        next(c.score for c in scored if c.config == cfg) for cfg in picked
    ]
    assert picked_scores == [21.0, 28.0, 35.0]


def test_iis_select_six_targets_at_5db_spacing():
    # 26 evenly spread scores over (20, 45): targets 20,25,...,45 each have
    # an exact match.
    scored = _candidates_from_scores(np.linspace(20, 45, 26))
    picked = iis_select(scored, 6)
    picked_scores = sorted(
        next(c.score for c in scored if c.config == cfg) for cfg in picked
    )
    assert picked_scores == [20.0, 25.0, 30.0, 35.0, 40.0, 45.0]


def test_iis_select_m1_takes_best():
    scored = _candidates_from_scores([20, 30, 40])
    picked = iis_select(scored, 1)
    assert picked == [scored[-1].config]


def test_iis_select_all_returns_everything():
    scored = _candidates_from_scores([20, 25, 30])
    picked = iis_select(scored, 3)
    assert sorted(cfg.sigma_spatial for cfg in picked) == sorted(
        c.config.sigma_spatial for c in scored
    )


def test_iis_select_rejects_oversized_m():
    scored = _candidates_from_scores([20, 30])
    with pytest.raises(ValueError):
        iis_select(scored, 3)
    with pytest.raises(ValueError):
        iis_select(scored, 0)


def test_iis_select_tie_prefers_higher_score():
    scored = _candidates_from_scores([10.0, 20.0, 30.0])
    picked = iis_select(scored, 2)  # targets 10 and 30; trivial
    assert len(picked) == 2
    # Equidistant case: target 20 with candidates at 19 and 21 -> 21 wins.
    scored = _candidates_from_scores([19.0, 21.0])
    picked = iis_select(scored, 1)
    # m=1 targets max, so force the tie through a 3-candidate spread.
    scored = _candidates_from_scores([0.0, 19.0, 21.0, 40.0])
    picked = iis_select(scored, 3)  # targets 0, 20, 40
    picked_scores = [next(c.score for c in scored if c.config == cfg) for cfg in picked]
    assert picked_scores == [0.0, 21.0, 40.0]


def test_iis_selection_scores_monotone_even_on_pathological_sets():
    rng = np.random.default_rng(66)
    for _ in range(20):
        scores = rng.uniform(0, 50, size=int(rng.integers(4, 12)))
        scored = _candidates_from_scores(scores)
        m = int(rng.integers(1, len(scores) + 1))
        picked = iis_select(scored, m)
        assert len(picked) == m
        assert len(set(picked)) == m  # distinct
        picked_scores = [
            next(c.score for c in scored if c.config == cfg) for cfg in picked
        ]
        assert picked_scores == sorted(picked_scores)
    # The adversarial cluster that breaks naive greedy ordering.
    scored = _candidates_from_scores([0.0, 0.1, 0.2, 30.0])
    picked = iis_select(scored, 4)
    picked_scores = [next(c.score for c in scored if c.config == cfg) for cfg in picked]
    assert picked_scores == sorted(picked_scores)


# ---------------------------------------------------------------------------
# Basis stacks
# ---------------------------------------------------------------------------


def test_build_basis_single_config_matches_kernel():
    img = synthetic_clean(67, width=14, height=12)
    basis = build_basis(img, [Median(3, 3)])
    assert basis.magnitude == 1
    assert basis.planes[0] == median(img, 3, 3)


def test_build_basis_preserves_order_and_shape():
    img = synthetic_clean(68, width=10, height=10)
    configs = [Median(3, 3), Gaussian(1.0), Median(1, 1)]
    basis = build_basis(img, configs)
    assert basis.configs == tuple(configs)
    assert all(plane.shape == img.shape for plane in basis.planes)
    assert basis.tensor().shape == (3, 1, 10, 10)


def test_build_basis_constant_source_gives_constant_planes():
    img = Image.constant(9, 9, 0.42)
    basis = build_basis(img, [Median(3, 3), Gaussian(1.2), Bilateral(1.0, 0.5, 5)])
    for plane in basis.planes:
        assert plane == img


def test_build_basis_thread_count_does_not_change_bits():
    img = synthetic_clean(69, width=16, height=16)
    configs = [Median(3, 3), Gaussian(1.0), Bilateral(0.8, 0.4, 5), Median(3, 5)]
    serial = build_basis(img, configs, threads=1)
    threaded = build_basis(img, configs, threads=4)
    for a, b in zip(serial.planes, threaded.planes):
        assert a == b


def test_build_basis_rejects_empty_configs():
    with pytest.raises(ValueError):
        build_basis(Image.constant(4, 4, 0.5), [])


def test_residuals_zero_when_plane_equals_source():
    img = synthetic_clean(70, width=12, height=12)
    basis = build_basis(img, [Median(1, 1)])  # identity filter
    residuals = build_residuals(basis)
    assert np.all(residuals.planes[0] == 0.0)


def test_residual_reconstruction_is_bitwise_exact():
    img = synthetic_clean(71, width=16, height=16)
    configs = [Median(3, 3), Gaussian(1.5), Bilateral(1.0, 0.4, 7)]
    basis = build_basis(img, configs)
    residuals = build_residuals(basis)
    for plane, residual in zip(basis.planes, residuals.planes):
        assert np.array_equal(plane.data + residual, img.data)
        assert np.array_equal(residual, img.data - plane.data)
    # Residuals are genuinely signed.
    assert min(res.min() for res in residuals.planes) < 0.0


def test_residual_constant_offset_plane():
    base = np.clip(np.linspace(0.3, 0.7, 36).reshape(1, 6, 6), 0.2, 0.8)
    img = Image(base)
    offset_plane = Image(img.data - 0.1)  # stays inside [0, 1]: no clamping
    from fbcompose.basis import FilteredBasis

    basis = FilteredBasis(img, (Gaussian(1.0),), (offset_plane,))
    residuals = build_residuals(basis)
    assert np.max(np.abs(residuals.planes[0] - 0.1)) < 1e-12


# ---------------------------------------------------------------------------
# Presets and manifests
# ---------------------------------------------------------------------------


def test_preset_magnitudes():
    assert len(bilateral_preset()) == 9
    assert len(median_preset()) == 8
    assert len(rgf_preset()) == 8


def test_median_preset_window_shapes():
    shapes = [(cfg.k1, cfg.k2) for cfg in median_preset()]
    assert shapes == [(3, 3), (3, 5), (3, 7), (3, 9), (5, 5), (5, 7), (5, 9), (7, 7)]


def test_rgf_preset_parameter_combinations():
    combos = {
        (cfg.sigma_range, cfg.sigma_spatial, cfg.window, cfg.iterations)
        for cfg in rgf_preset()
    }
    assert combos == {
        (sr, ss, 9, t) for sr in (0.2, 0.5) for ss in (3.0, 6.0) for t in (2, 4)
    }


def test_bilateral_preset_is_from_candidate_grid():
    grid = set(bilateral_candidate_grid())
    for cfg in bilateral_preset():
        assert cfg in grid
        assert cfg.window == 15


def test_preset_round_trip_via_manifest(tmp_path):
    path = tmp_path / "preset.txt"
    configs = bilateral_preset()
    write_preset(configs, path)
    assert read_preset(path) == configs
    # Comment lines and blanks are ignored.
    text = path.read_text() + "\n# trailing comment\n\n"
    path.write_text(text)
    assert read_preset(path) == configs


def test_read_preset_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n")
    with pytest.raises(ValueError):
        read_preset(path)


def test_calibration_report_round_trips_through_csv(tmp_path):
    import csv

    img = synthetic_clean(72, width=12, height=12)
    noisy = add_impulse_noise(img, 0.2, seed=3)
    scored = calibrate([Median(3, 3), Gaussian(0.5)], [(noisy, img)])
    path = tmp_path / "scores.csv"
    write_calibration_report(scored, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["config", "score_db"]
    assert len(rows) == 3
    for row, cand in zip(rows[1:], scored):
        assert parse_config(row[0]) == cand.config
        assert float(row[1]) == cand.score


# ---------------------------------------------------------------------------
# Plane cache
# ---------------------------------------------------------------------------


def test_fb_cache_round_trips_planes_bitwise(tmp_path):
    img = synthetic_clean(73, width=12, height=12)
    cache = FBCache(tmp_path / "cache")
    configs = [Median(3, 3), Gaussian(1.0)]
    first = build_basis(img, configs, cache=cache)
    second = build_basis(img, configs, cache=cache)
    for a, b in zip(first.planes, second.planes):
        assert a == b
    assert cache.path_for(img, configs[0]).exists()


def test_fb_cache_hit_skips_recomputation(tmp_path, monkeypatch):
    from fbcompose import basis as basis_mod

    img = synthetic_clean(74, width=10, height=10)
    cache = FBCache(tmp_path / "cache")
    configs = [Median(3, 3)]
    build_basis(img, configs, cache=cache)

    calls = {"n": 0}
    real_apply = basis_mod.filters.apply

    def counting_apply(*args, **kwargs):
        calls["n"] += 1
        return real_apply(*args, **kwargs)

    monkeypatch.setattr(basis_mod.filters, "apply", counting_apply)
    build_basis(img, configs, cache=cache)
    assert calls["n"] == 0


def test_fb_cache_concurrent_puts_of_one_key(tmp_path):
    img = synthetic_clean(76, width=10, height=10)
    cfg = Median(3, 3)
    plane = build_basis(img, [cfg]).planes[0]
    cache = FBCache(tmp_path / "cache")

    def put_repeatedly(_):
        for _ in range(50):
            cache.put(img, cfg, plane)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(put_repeatedly, range(8)))  # re-raises any worker error
    assert cache.get(img, cfg) == plane
    path = cache.path_for(img, cfg)
    assert list(path.parent.iterdir()) == [path]


def test_fb_cache_recomputes_when_file_removed(tmp_path):
    img = synthetic_clean(75, width=10, height=10)
    cache = FBCache(tmp_path / "cache")
    configs = [Median(3, 3)]
    basis = build_basis(img, configs, cache=cache)
    cache.path_for(img, configs[0]).unlink()
    again = build_basis(img, configs, cache=cache)
    assert again.planes[0] == basis.planes[0]
