import io
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fbcompose import (
    Bilateral,
    Candidate,
    FBCache,
    FilteredBasis,
    Gaussian,
    Image,
    Median,
    RollingGuidance,
    add_gaussian_noise,
    add_impulse_noise,
    build_basis,
    build_residuals,
    calibrate,
    dis_grid,
    iis_select,
    median,
    parse_config,
    parse_grid,
    psnr,
    read_preset,
    write_preset,
)
from fbcompose.basis import BILATERAL_CANDIDATE_GRID, BUILTIN_PRESETS, write_calibration_report
from fbcompose.filters import KINDS

from synth import synthetic_clean


# ---------------------------------------------------------------------------
# Direct isometric sampling
# ---------------------------------------------------------------------------


def _bilateral_grid(c1, c2, k=15):
    return parse_grid(f"bilateral:ss=0.1:1.1:{c1},sr=0.5:3.5:{c2},k={k}")


def test_dis_grid_77_candidates():
    configs = _bilateral_grid(11, 7)
    assert len(configs) == 77
    assert configs == parse_grid(BILATERAL_CANDIDATE_GRID)
    # Endpoints included, first range varies slowest.
    assert configs[0] == Bilateral(0.1, 0.5, 15)
    assert configs[1] == Bilateral(0.1, 1.0, 15)
    assert configs[-1] == Bilateral(1.1, 3.5, 15)
    assert len(set(configs)) == 77


def test_dis_grid_single_count_takes_midpoints():
    configs = _bilateral_grid(1, 1)
    assert configs == [Bilateral(0.6000000000000001, 2.0, 15)]
    # Midpoints: (0.1 + 1.1)/2 and (0.5 + 3.5)/2.
    assert configs[0].sigma_spatial == pytest.approx(0.6, abs=1e-12)
    assert configs[0].sigma_range == pytest.approx(2.0, abs=1e-12)


def test_dis_grid_two_counts_give_corners():
    corners = [
        Bilateral(0.1, 0.5, 15),
        Bilateral(0.1, 3.5, 15),
        Bilateral(1.1, 0.5, 15),
        Bilateral(1.1, 3.5, 15),
    ]
    assert _bilateral_grid(2, 2) == corners
    assert dis_grid("bilateral", {"ss": (0.1, 1.1), "sr": (0.5, 3.5), "k": (15,)}) == corners


def test_dis_grid_size_is_product_of_counts():
    rng = np.random.default_rng(60)
    for _ in range(5):
        c1, c2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        configs = _bilateral_grid(c1, c2, k=5)
        assert len(configs) == c1 * c2


def test_dis_grid_discrete_set_contributes_values():
    configs = parse_grid("median:k1=3|5,k2=3|7|9")
    assert len(configs) == 6
    assert configs[0] == Median(3, 3)
    assert configs[-1] == Median(5, 9)
    assert dis_grid("median", {"k1": (3, 5), "k2": (3, 7, 9)}) == configs


def test_parse_grid_validation():
    for grid, message in [
        ("bilateral:ss=2.0:1.0:3,sr=1,k=5", "range ss: lo 2.0 > hi 1.0"),
        ("bilateral:ss=0.0:1.0:0,sr=1,k=5", "range ss: count must be >= 1, got 0"),
        ("bilateral:ss=0.0:1.0:-1,sr=1,k=5", "range ss: count must be >= 1, got -1"),
        ("median:k1=,k2=3", "bad number '' for 'k1'"),
        ("median:k1=3|,k2=3", "bad number '' for 'k1'"),
        # A repeated name is an error, not a merge that duplicates or drops values.
        ("median:k1=1|3,k1=5|7,k2=3", "parameter 'k1' appears twice"),
        ("median:k1=3,k1=5,k2=3", "parameter 'k1' appears twice"),
        ("median:k1=1|3,k1=5,k2=3", "parameter 'k1' appears twice"),
        # So is a product holding one config twice: a value listed twice,
        # lo == hi with count > 1, values equal after the integer snap.
        ("median:k1=3|3,k2=3|5", "config median:3x3 appears twice in the grid"),
        ("bilateral:ss=0.5:0.5:3,sr=1,k=5", "config bilateral:ss=0.5,sr=1,k=5 appears twice"),
        ("median:k1=3|3.0000000001,k2=5", "config median:3x5 appears twice"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_grid(grid)


def test_dis_grid_rejects_repeated_configs():
    with pytest.raises(ValueError, match=re.escape("config median:5x3 appears twice")):
        dis_grid("median", {"k1": (5, 5), "k2": (3,)})


def _one_config(kind, params):
    """The single config of a grid whose every axis holds one value."""
    (cfg,) = dis_grid(kind, {name: (value,) for name, value in params.items()})
    return cfg


def test_dis_grid_config_errors():
    with pytest.raises(ValueError):
        _one_config("bilateral", {"ss": 1.0})  # missing params
    with pytest.raises(ValueError):
        _one_config("nope", {"ss": 1.0})
    with pytest.raises(ValueError):
        _one_config("median", {"k1": 3.5, "k2": 3})  # non-integer window
    for kind, cls in KINDS.items():
        params = {short: 3.0 if is_int else 0.75 for short, (_, is_int, _) in cls._TABLE.items()}
        assert _one_config(kind.upper(), params) == cls(*params.values())
        for short, (_, is_int, _) in cls._TABLE.items():
            missing = {k: v for k, v in params.items() if k != short}
            with pytest.raises(ValueError, match=repr(short)):
                _one_config(kind, missing)
            if is_int:
                for bad in (3.5, float("inf"), float("nan")):
                    with pytest.raises(ValueError, match=f"{short!r} must be an integer"):
                        _one_config(kind, {**params, short: bad})
                # Grid values within 1e-9 of an integer snap to it.
                assert _one_config(kind, {**params, short: 3.0 + 1e-10}) == cls(
                    *params.values()
                )
        with pytest.raises(ValueError, match="unknown parameter 'kk'"):
            _one_config(kind, {**params, "kk": 3.0})


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
    with pytest.raises(ValueError, match="^calibration failed for median:3x3: ") as err:
        calibrate([Median(3, 3)], [(a, wrong)])
    assert "median:3x3" in str(err.value)
    # Configs scored from one kernel run fail together, and all are named.
    chain = [RollingGuidance(0.2, 1.0, 3, 1), RollingGuidance(0.2, 1.0, 3, 2)]
    with pytest.raises(ValueError, match="^calibration failed for ") as err:
        calibrate(chain, [(a, a), (a, wrong)])
    assert all(cfg.canonical() in str(err.value) for cfg in chain)


@pytest.mark.parametrize("threads", [1, 2])
def test_calibrate_mixed_grid_equals_per_config_reference(threads):
    clean_a = synthetic_clean(66, width=14, height=12)
    clean_b = synthetic_clean(67, width=14, height=12)
    pairs = [
        (add_gaussian_noise(clean_a, 25, seed=1), clean_a),
        (add_impulse_noise(clean_b, 0.1, seed=2), clean_b),
    ]

    def rgf(sr, t):
        return RollingGuidance(sr, 2.0, 5, t)

    # Two rgf chains interleaved with other kinds; Median(3, 3) twice ties
    # with itself, and rgf t=0 is Gaussian(2.0)'s plane, a tie of two
    # distinct configs that must keep input order.
    candidates = [
        rgf(0.2, 3), Median(3, 3), rgf(0.5, 1), Gaussian(2.0), rgf(0.2, 1), Median(3, 5),
        rgf(0.5, 4), rgf(0.2, 0), rgf(0.2, 4), rgf(0.5, 2), Median(3, 3), rgf(0.2, 2),
        rgf(0.5, 3),
    ]
    expected = [
        Candidate(cfg, float(np.mean([psnr(cfg.apply(d), c) for d, c in pairs])))
        for cfg in candidates
    ]
    expected.sort(key=lambda cand: cand.score)
    scored = calibrate(candidates, pairs, threads=threads)
    assert [cand.config for cand in scored] == [cand.config for cand in expected]
    assert [cand.score for cand in scored] == [cand.score for cand in expected]
    ties = [cand.config for cand in scored if cand.config in (Gaussian(2.0), rgf(0.2, 0))]
    assert ties == [Gaussian(2.0), rgf(0.2, 0)]


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


def test_basis_holds_one_read_only_stack():
    img = synthetic_clean(70, width=9, height=7, channels=3)
    planes = [median(img, 3, 3), median(img, 1, 3)]
    given_stack = np.stack([p.data for p in planes])
    basis = FilteredBasis(img, (Median(3, 3), Median(1, 3)), given_stack)
    stack = basis.tensor()
    assert stack is given_stack and stack is basis.tensor()
    assert stack.shape == (2, 3, 7, 9) and not stack.flags.writeable
    for i, (given, plane) in enumerate(zip(planes, basis.planes)):
        assert plane == given
        assert np.shares_memory(plane.data, stack) and np.array_equal(stack[i], given.data)
        assert not plane.data.flags.writeable


def test_basis_rejects_empty_configs():
    img = Image.constant(4, 4, 0.5)
    with pytest.raises(ValueError, match="needs at least one config"):
        FilteredBasis(img, (), np.empty((0, 1, 4, 4)))


@pytest.mark.parametrize(
    "stack, message",
    [
        (np.zeros((3, 1, 4, 5)), r"is float64 \(3, 1, 4, 5\), not float64 \(2, 1, 4, 5\)"),
        (np.zeros((2, 1, 5, 4)), r"is float64 \(2, 1, 5, 4\), not float64 \(2, 1, 4, 5\)"),
        (
            np.zeros((2, 1, 4, 5), np.float32),
            r"is float32 \(2, 1, 4, 5\), not float64 \(2, 1, 4, 5\)",
        ),
    ],
    ids=["plane-count", "plane-shape", "dtype"],
)
def test_basis_rejects_a_stack_that_does_not_fit(stack, message):
    img = Image.constant(5, 4, 0.5)
    with pytest.raises(ValueError, match=message + r".*source shape \(1, 4, 5\)"):
        FilteredBasis(img, (Median(3, 3), Median(1, 3)), stack)
    assert stack.flags.writeable  # a rejected stack is left as it was


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
    basis = FilteredBasis(img, (Gaussian(1.0),), np.stack([offset_plane.data]))
    residuals = build_residuals(basis)
    assert np.max(np.abs(residuals.planes[0] - 0.1)) < 1e-12


# ---------------------------------------------------------------------------
# Presets and manifests
# ---------------------------------------------------------------------------


def test_preset_magnitudes():
    assert len(BUILTIN_PRESETS["bilateral9"]()) == 9
    assert len(BUILTIN_PRESETS["median8"]()) == 8
    assert len(BUILTIN_PRESETS["rgf8"]()) == 8


def test_median_preset_window_shapes():
    shapes = [(cfg.k1, cfg.k2) for cfg in BUILTIN_PRESETS["median8"]()]
    assert shapes == [(3, 3), (3, 5), (3, 7), (3, 9), (5, 5), (5, 7), (5, 9), (7, 7)]


def test_rgf_preset_parameter_combinations():
    combos = {
        (cfg.sigma_range, cfg.sigma_spatial, cfg.window, cfg.iterations)
        for cfg in BUILTIN_PRESETS["rgf8"]()
    }
    assert combos == {
        (sr, ss, 9, t) for sr in (0.2, 0.5) for ss in (3.0, 6.0) for t in (2, 4)
    }


def test_rgf_preset_order_and_canonical_strings():
    configs = BUILTIN_PRESETS["rgf8"]()
    assert configs == [
        RollingGuidance(sigma_range=sr, sigma_spatial=ss, window=9, iterations=t)
        for sr in (0.2, 0.5)
        for ss in (3.0, 6.0)
        for t in (2, 4)
    ]
    assert [cfg.canonical() for cfg in configs] == [
        f"rgf:sr={sr},ss={ss},k=9,t={t}" for sr in (0.2, 0.5) for ss in (3, 6) for t in (2, 4)
    ]


def test_bilateral_preset_is_from_candidate_grid():
    grid = set(parse_grid(BILATERAL_CANDIDATE_GRID))
    for cfg in BUILTIN_PRESETS["bilateral9"]():
        assert cfg in grid
        assert cfg.window == 15


def test_preset_round_trip_via_manifest(tmp_path):
    path = tmp_path / "preset.txt"
    configs = BUILTIN_PRESETS["bilateral9"]()
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


def test_read_preset_rejects_a_config_listed_twice(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("median:3x3\nmedian:3x5\n\nmedian:3x3  # again\n")
    message = rf"^{re.escape(str(path))}:4: config median:3x3 repeats line 1$"
    with pytest.raises(ValueError, match=message):
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
    real_median = basis_mod.filters.median

    def counting_median(*args, **kwargs):
        calls["n"] += 1
        return real_median(*args, **kwargs)

    monkeypatch.setattr(basis_mod.filters, "median", counting_median)
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


def _mixed_configs():
    return [
        Median(3, 3), Gaussian(1.0), Bilateral(0.8, 0.4, 5), Median(3, 5),
        RollingGuidance(0.3, 1.0, 3, 1), RollingGuidance(0.3, 1.0, 3, 2),
    ]


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("threads", [1, 2])
def test_fb_cache_warm_equals_cold_bitwise(tmp_path, channels, threads):
    img = synthetic_clean(78, width=13, height=11, channels=channels)
    configs = _mixed_configs()
    cold = build_basis(img, configs, threads=threads).tensor()
    cache = FBCache(tmp_path / "cache")
    build_basis(img, configs[1::2], cache=cache)  # a partly filled cache
    for _ in range(2):  # partly warm, then fully warm
        source = Image(img.data)  # a fresh instance, as a new command reads it
        basis = build_basis(source, configs, threads=threads, cache=cache)
        assert basis.tensor().tobytes() == cold.tobytes()
    for cfg, plane in zip(configs, basis.planes):
        assert np.load(cache.path_for(img, cfg)).tobytes() == plane.data.tobytes()


def test_fb_cache_warm_basis_is_one_read_only_stack(tmp_path):
    img = synthetic_clean(79, width=9, height=7, channels=3)
    configs = [Median(3, 3), Gaussian(1.0), Median(1, 3)]
    cache = FBCache(tmp_path / "cache")
    for _ in range(2):  # cold, then warm
        basis = build_basis(img, configs, cache=cache)
        stack = basis.tensor()
        assert stack is basis.tensor() and not stack.flags.writeable
        assert stack.shape == (3, 3, 7, 9)
        for i, plane in enumerate(basis.planes):
            assert np.shares_memory(plane.data, stack) and np.array_equal(plane.data, stack[i])
            assert not plane.data.flags.writeable


def test_fb_cache_digests_the_source_once_per_warm_build(tmp_path, monkeypatch):
    import hashlib

    img = synthetic_clean(80, width=12, height=10, channels=3)
    configs = BUILTIN_PRESETS["bilateral9"]()
    cache = FBCache(tmp_path / "cache")
    build_basis(img, configs, threads=2, cache=cache)

    real_sha256 = hashlib.sha256
    image_digests = []

    class Counting:
        def __init__(self, data=b""):
            self._hash = real_sha256()
            self._fed = 0
            self.update(data)

        def update(self, data):
            self._fed += len(data)
            if self._fed >= img.data.nbytes:
                image_digests.append(self)
            self._hash.update(data)

        def hexdigest(self):
            return self._hash.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Counting)
    source = Image(img.data)  # a fresh instance, as a new command reads it
    warm = build_basis(source, configs, threads=2, cache=cache)
    assert len(set(map(id, image_digests))) == 1
    assert warm.tensor().tobytes() == build_basis(img, configs).tensor().tobytes()


def test_fb_cache_truncated_file_is_a_miss_and_recomputed(tmp_path):
    img = synthetic_clean(81, width=10, height=10)
    cfg = Median(3, 3)
    cache = FBCache(tmp_path / "cache")
    fresh = build_basis(img, [cfg], cache=cache).planes[0]
    path = cache.path_for(img, cfg)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert cache.get(img, cfg) is None
    assert build_basis(img, [cfg], cache=cache).planes[0] == fresh
    assert cache.get(img, cfg) == fresh  # the put rewrote the file


def test_fb_cache_empty_file_is_a_miss_and_rewritten(tmp_path):
    img = synthetic_clean(84, width=10, height=10)
    cfg = Median(3, 3)
    cache = FBCache(tmp_path / "cache")
    build_basis(img, [cfg], cache=cache)
    path = cache.path_for(img, cfg)
    written = path.read_bytes()
    path.write_bytes(b"")
    assert cache.get(img, cfg) is None
    build_basis(img, [cfg], cache=cache)
    assert path.read_bytes() == written


def test_fb_cache_wrong_shape_file_is_a_miss(tmp_path):
    img = synthetic_clean(82, width=10, height=10)
    cfg = Median(3, 3)
    cache = FBCache(tmp_path / "cache")
    fresh = build_basis(img, [cfg]).planes[0]
    cache.put(img, cfg, Image.constant(10, 9, 0.5))
    assert cache.get(img, cfg) is None
    assert build_basis(img, [cfg], cache=cache).planes[0] == fresh
    assert cache.get(img, cfg) == fresh


def test_fb_cache_snaps_off_grid_values_as_image_does(tmp_path):
    img = synthetic_clean(83, width=8, height=6)
    cfg = Median(3, 3)
    cache = FBCache(tmp_path / "cache")
    raw = np.random.default_rng(84).uniform(-0.5, 1.5, size=img.shape)
    raw[0, 0, :3] = [0.5 * 2.0**-48, 1.5 * 2.0**-48, 1 - 2.5 * 2.0**-48]  # grid halves
    path = cache.path_for(img, cfg)
    path.parent.mkdir(parents=True)
    np.save(path, raw)
    expected = Image(raw)
    served = cache.get(img, cfg)
    assert served.data.tobytes() == expected.data.tobytes()
    assert not served.data.flags.writeable
    assert build_basis(img, [cfg], cache=cache).planes[0].data.tobytes() == expected.data.tobytes()
    assert np.load(path).tobytes() == raw.tobytes()  # a hit does not rewrite the file


def test_fb_cache_non_finite_file_is_an_error_naming_it(tmp_path):
    img = synthetic_clean(85, width=8, height=6)
    cfg = Median(3, 3)
    cache = FBCache(tmp_path / "cache")
    path = cache.path_for(img, cfg)
    path.parent.mkdir(parents=True)
    for value in (np.nan, np.inf, -np.inf):
        bad = np.full(img.shape, 0.5)
        bad[0, 2, 3] = value
        np.save(path, bad)
        for read in (lambda: cache.get(img, cfg), lambda: build_basis(img, [cfg], cache=cache)):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == f"cache file {path}: image data must be finite"


def test_fb_cache_serves_a_negative_zero_as_positive_zero(tmp_path):
    img = synthetic_clean(86, width=8, height=6)
    cfg = Median(3, 3)
    cache = FBCache(tmp_path / "cache")
    stored = build_basis(img, [cfg]).planes[0].data.copy()
    stored[0, 1, 2] = -0.0
    path = cache.path_for(img, cfg)
    path.parent.mkdir(parents=True)
    np.save(path, stored)
    expected = stored.copy()
    expected[0, 1, 2] = 0.0
    for served in (cache.get(img, cfg), build_basis(img, [cfg], cache=cache).planes[0]):
        assert not np.signbit(served.data[0, 1, 2])
        assert served.data.tobytes() == expected.tobytes()
    assert np.load(path).tobytes() == stored.tobytes()  # a hit does not rewrite the file


def test_fb_cache_key_covers_kernel_version(tmp_path, monkeypatch):
    from fbcompose import filters as filters_mod

    img = synthetic_clean(77, width=10, height=10)
    cfg = Median(3, 3)
    plane = build_basis(img, [cfg]).planes[0]
    cache = FBCache(tmp_path / "cache")
    cache.put(img, cfg, plane)
    assert cache.get(img, cfg) == plane
    monkeypatch.setattr(filters_mod, "KERNEL_VERSION", filters_mod.KERNEL_VERSION + 1)
    assert cache.get(img, cfg) is None
    cache.put(img, cfg, plane)
    monkeypatch.undo()
    # Each version keeps its own entry.
    assert len(list(cache.path_for(img, cfg).parent.iterdir())) == 2
    assert cache.get(img, cfg) == plane


def test_fb_cache_warm_build_reads_planes_straight_into_the_stack(tmp_path):
    import tracemalloc

    img = synthetic_clean(86, width=64, height=64, channels=3)
    configs = BUILTIN_PRESETS["bilateral9"]()
    cache = FBCache(tmp_path / "cache")
    build_basis(img, configs, cache=cache)  # also takes the source digest
    tracemalloc.start()
    try:
        warm = build_basis(img, configs, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # No plane-sized buffer per hit: only the stack and small temporaries.
    assert peak < warm.stack.nbytes + img.data.nbytes / 2


def _npy_bytes(arr: np.ndarray) -> bytes:
    handle = io.BytesIO()
    np.save(handle, arr)
    return handle.getvalue()


@pytest.mark.parametrize("channels", [1, 3])
def test_fb_cache_file_is_what_np_save_writes(tmp_path, channels):
    img = synthetic_clean(87, width=11, height=7, channels=channels)
    cfg = Median(3, 3)
    plane = build_basis(img, [cfg]).planes[0]
    cache = FBCache(tmp_path / "cache")
    cache.put(img, cfg, plane)
    assert cache.path_for(img, cfg).read_bytes() == _npy_bytes(plane.data)


@pytest.mark.parametrize(
    "layout", [np.asfortranarray, lambda data: np.repeat(data, 2, axis=2)[:, :, ::2]],
    ids=["fortran", "strided"],
)
def test_fb_cache_puts_any_plane_layout_in_c_order(tmp_path, layout):
    img = synthetic_clean(88, width=9, height=8, channels=3)
    cfg = Median(3, 3)
    fresh = build_basis(img, [cfg]).planes[0]
    plane = Image._wrap(layout(fresh.data))
    assert not plane.data.flags.c_contiguous and plane == fresh
    cache = FBCache(tmp_path / "cache")
    cache.put(img, cfg, plane)
    assert cache.path_for(img, cfg).read_bytes() == _npy_bytes(fresh.data)
    assert cache.get(img, cfg) == fresh


def _float32(path, plane):
    np.save(path, plane.astype(np.float32))


def _fortran(path, plane):
    np.save(path, np.asfortranarray(plane))


def _version_2(path, plane):
    with open(path, "wb") as handle:
        np.lib.format.write_array(handle, plane, version=(2, 0))


def _trailing_byte(path, plane):
    path.write_bytes(_npy_bytes(plane) + b"\0")


def _short_payload(path, plane):
    path.write_bytes(_npy_bytes(plane)[:-1])


@pytest.mark.parametrize(
    "write", [_float32, _fortran, _version_2, _trailing_byte, _short_payload],
    ids=lambda write: write.__name__.lstrip("_"),
)
def test_fb_cache_foreign_file_is_a_miss_and_rewritten(tmp_path, write):
    img = synthetic_clean(89, width=10, height=9, channels=3)
    cfg = Median(3, 3)
    cold = build_basis(img, [cfg]).planes[0]
    cache = FBCache(tmp_path / "cache")
    path = cache.path_for(img, cfg)
    path.parent.mkdir(parents=True)
    write(path, cold.data)
    assert path.read_bytes() != _npy_bytes(cold.data)
    assert cache.get(img, cfg) is None
    assert build_basis(img, [cfg], cache=cache).planes[0].data.tobytes() == cold.data.tobytes()
    assert path.read_bytes() == _npy_bytes(cold.data)


@pytest.mark.parametrize(
    "out", [np.empty((3, 9, 20))[:, :, ::2], np.empty((3, 10, 9)), np.empty((1, 9, 10))],
    ids=["strided", "wrong_shape", "gray"],
)
def test_fb_cache_get_into_a_wrong_out_is_an_error(tmp_path, out):
    img = synthetic_clean(90, width=10, height=9, channels=3)
    cfg = Median(3, 3)
    cache = FBCache(tmp_path / "cache")
    build_basis(img, [cfg], cache=cache)
    with pytest.raises(ValueError, match="out must be"):
        cache.get(img, cfg, out)
