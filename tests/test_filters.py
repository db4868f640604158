import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcompose import (
    Bilateral,
    FBCache,
    FilterConfig,
    Gaussian,
    Image,
    Median,
    RollingGuidance,
    add_gaussian_noise,
    bilateral,
    filters,
    gaussian_blur,
    init_model,
    joint_bilateral,
    load_model,
    median,
    parse_config,
    parse_grid,
    read_preset,
    rolling_guidance,
    save_model,
    write_preset,
)
from fbcompose.basis import BUILTIN_PRESETS
from fbcompose.filters import KINDS, gaussian_kernel1d
from fbcompose.image import GRID_BITS

from oracles import (
    oracle_bilateral,
    oracle_gaussian_2d,
    oracle_gaussian_2d_literal,
    oracle_joint_bilateral,
    oracle_joint_bilateral_literal,
    oracle_median,
    oracle_windowed_gaussian,
    oracle_windowed_gaussian_literal,
    reference_joint_bilateral,
    reference_median,
)
from synth import denoising_samples, synthetic_clean


def _random_image(rng, channels=1, lo=5, hi=9):
    h = int(rng.integers(lo, hi + 1))
    w = int(rng.integers(lo, hi + 1))
    return Image(rng.random((channels, h, w)))


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------


def _declared_examples():
    """One config of every declared kind, built from its field table alone."""
    examples = []
    for cls in KINDS.values():
        cfg = cls(*[3 if is_int else 0.75 for _, is_int, _ in cls._TABLE.values()])
        examples.append((cfg.canonical(), cfg))
    return examples


@pytest.mark.parametrize(
    "text,expected",
    [
        ("bilateral:ss=0.5,sr=1.5,k=15", Bilateral(0.5, 1.5, 15)),
        ("median:3x5", Median(3, 5)),
        ("rgf:sr=0.2,ss=3,k=9,t=2", RollingGuidance(0.2, 3.0, 9, 2)),
        ("gauss:ss=2", Gaussian(2.0)),
    ]
    + _declared_examples(),
)
def test_canonical_round_trip(text, expected):
    cfg = parse_config(text)
    assert cfg == expected
    assert cfg.canonical() == text
    assert parse_config(cfg.canonical()) == cfg
    assert KINDS[text.partition(":")[0]] is type(cfg)


def test_canonical_preserves_full_float_precision():
    cfg = Bilateral(0.30000000000000004, 1.1, 15)
    assert parse_config(cfg.canonical()) == cfg


@st.composite
def _any_config(draw):
    """A valid config of any declared kind: odd ints, and finite floats from
    2^-511, whose 2*v*v is the smallest normal float, up."""
    cls = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    values = [
        draw(st.integers(0, 10**6).map(lambda k: 2 * k + 1))
        if is_int
        else draw(st.floats(min_value=math.sqrt(sys.float_info.min), allow_infinity=False))
        for _, is_int, _ in cls._TABLE.values()
    ]
    return cls(*values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_any_config())
def test_canonical_round_trip_property(cfg):
    text = cfg.canonical()
    parsed = parse_config(text)
    assert parsed == cfg and type(parsed) is type(cfg)
    assert parsed.canonical() == text
    if not isinstance(cfg, Median):  # every key=value form is a one-config grid
        assert parse_grid(text) == [cfg]


@pytest.mark.parametrize(
    "text",
    [
        "bilateral",                       # missing body
        "median:3x4x5",
        "median:3,5",
        "bilateral:ss=0.5,sr=1.5",         # missing k
        "bilateral:ss=0.5,sr=1.5,k=15,z=1",
        "rgf:sr=0.2,ss=3,k=9",
        "warp:ss=1",
        "gauss:ss=abc",
        "bilateral:ss=0.5,sr=1.5,k=15.5",  # integer field
        "rgf:sr=0.2,ss=3,k=9,t=inf",
        "bilateral:ss=0.5,ss=0.9,sr=1.5,k=15",  # a name given twice
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError) as err:
        parse_config(text)
    message = str(err.value)  # the text is named once, in front
    assert message.startswith(f"bad filter config {text!r}: ")
    assert message.count(repr(text)) == 1


def test_parse_snaps_integer_fields_as_grids_do():
    cfg = parse_config("bilateral:ss=0.5,sr=1.5,k=15.0000000001")
    assert cfg == Bilateral(0.5, 1.5, 15) and type(cfg.window) is int
    assert cfg.canonical() == "bilateral:ss=0.5,sr=1.5,k=15"
    assert parse_grid("bilateral:ss=0.5,sr=1.5,k=15.0000000001") == [cfg]
    with pytest.raises(ValueError, match="parameter 'k' must be an integer, got 15.5"):
        parse_config("bilateral:ss=0.5,sr=1.5,k=15.5")


@pytest.mark.parametrize(
    "text, field",
    [
        ("gauss:ss=inf", "sigma_spatial"),
        ("gauss:ss=nan", "sigma_spatial"),
        ("bilateral:ss=inf,sr=1,k=5", "sigma_spatial"),
        ("bilateral:ss=1,sr=inf,k=5", "sigma_range"),
        ("rgf:sr=0.2,ss=inf,k=9,t=1", "sigma_spatial"),
        ("rgf:sr=-inf,ss=3,k=9,t=1", "sigma_range"),
    ],
)
def test_parse_rejects_non_finite_sigma_naming_the_field(text, field):
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        parse_config(text)


def test_config_validation():
    cases = [
        (lambda: Bilateral(0.0, 1.0, 15), "sigma_spatial must be finite and > 0, got 0.0"),
        (lambda: Bilateral(1.0, -1.0, 15), "sigma_range must be finite and > 0, got -1.0"),
        (lambda: Bilateral(1.0, 1.0, 14), "window must be an odd integer >= 1, got 14"),
        (lambda: Median(2, 3), "k1 must be an odd integer >= 1, got 2"),
        (lambda: Median(3, 0), "k2 must be an odd integer >= 1, got 0"),
        (lambda: RollingGuidance(0.2, 3.0, 9, -1), "iterations must be an integer >= 0, got -1"),
        (lambda: RollingGuidance(0.2, 3.0, 9, 1.5), "iterations must be an integer >= 0, got 1.5"),
        (lambda: Gaussian(0.0), "sigma_spatial must be finite and > 0, got 0.0"),
        # Non-finite integer fields are rejected before any int() conversion.
        (lambda: Bilateral(1.0, 1.0, math.inf), "window must be an odd integer >= 1, got inf"),
        (lambda: Bilateral(1.0, 1.0, -math.inf), "window must be an odd integer >= 1, got -inf"),
        (lambda: Bilateral(1.0, 1.0, math.nan), "window must be an odd integer >= 1, got nan"),
        (lambda: Median(math.inf, 3), "k1 must be an odd integer >= 1, got inf"),
        (lambda: Median(3, math.nan), "k2 must be an odd integer >= 1, got nan"),
        (lambda: RollingGuidance(0.2, 3.0, 9, math.nan),
         "iterations must be an integer >= 0, got nan"),
        (lambda: RollingGuidance(0.2, 3.0, 9, math.inf),
         "iterations must be an integer >= 0, got inf"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def _sigma_bounds():
    """The least sigma whose 2*sigma*sigma, the denominator of every kernel,
    is a normal float, and the float just below it."""
    least = math.sqrt(sys.float_info.min / 2.0)
    while 2.0 * least * least < sys.float_info.min:
        least = math.nextafter(least, math.inf)
    while 2.0 * math.nextafter(least, 0.0) * math.nextafter(least, 0.0) >= sys.float_info.min:
        least = math.nextafter(least, 0.0)
    return least, math.nextafter(least, 0.0)


# Saturated colour edges: every guide difference is 0 or 1 per channel, so
# the range exponent reaches its largest value, 3 / (2 sigma_range^2).
_EDGES = Image(np.indices((3, 6, 7)).sum(axis=0) % 2 * 1.0)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("kind", list(KINDS))
def test_sigma_boundary_for_every_kind(kind, channels):
    least, rejected = _sigma_bounds()
    cls, table = KINDS[kind], list(KINDS[kind]._TABLE.values())
    base = [3 if is_int else 0.75 for _, is_int, _ in table]
    sigmas = [(i, name) for i, (name, _, check) in enumerate(table) if check is filters._check_sigma]
    assert bool(sigmas) == (kind != "median")
    img = Image(_EDGES.data[:channels])
    for index, name in sigmas:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane = cls(*base[:index], least, *base[index + 1:]).apply(img)
        assert np.isfinite(plane.data).all()
        with pytest.raises(ValueError, match=f"{name} is too small.*got {re.escape(repr(rejected))}"):
            cls(*base[:index], rejected, *base[index + 1:])


@pytest.mark.parametrize("channels", [1, 3])
def test_sigma_boundary_for_every_kernel(channels):
    least, rejected = _sigma_bounds()
    img = Image(_EDGES.data[:channels])
    guide = Image(1.0 - img.data)
    kernels = [
        ("sigma_spatial", lambda s: gaussian_blur(img, s)),
        ("sigma_spatial", lambda s: bilateral(img, s, 0.5, 5)),
        ("sigma_range", lambda s: bilateral(img, 1.0, s, 5)),
        ("sigma_spatial", lambda s: joint_bilateral(img, guide, s, 0.5, 5)),
        ("sigma_range", lambda s: joint_bilateral(img, guide, 1.0, s, 5)),
    ]
    for name, kernel in kernels:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(kernel(least).data).all()
        with pytest.raises(ValueError, match=f"{name} is too small.*got {re.escape(repr(rejected))}"):
            kernel(rejected)


@pytest.mark.parametrize("kind", list(KINDS))
def test_equal_configs_have_one_canonical_string(kind, tmp_path):
    # Integer fields are stored as int, so a config built from 3.0 is the
    # config built from 3 in every form it is written or keyed in.
    cls = KINDS[kind]
    as_float = cls(*[3.0 if is_int else 0.75 for _, is_int, _ in cls._TABLE.values()])
    as_int = cls(*[3 if is_int else 0.75 for _, is_int, _ in cls._TABLE.values()])
    assert as_float == as_int and as_float.canonical() == as_int.canonical()
    for name, is_int, _ in cls._TABLE.values():
        assert not is_int or type(getattr(as_float, name)) is int
    img = Image.constant(4, 5, 0.5)
    cache = FBCache(tmp_path / "cache")
    assert cache.path_for(img, as_float) == cache.path_for(img, as_int)
    write_preset([as_float], tmp_path / "preset.txt")
    assert read_preset(tmp_path / "preset.txt") == [as_int]
    save_model(init_model([as_float]), tmp_path / "model.json")
    assert load_model(tmp_path / "model.json").basis_configs == (as_int,)


def test_bool_integer_field_is_written_as_int():
    cfg = Bilateral(0.5, 1.0, True)
    assert type(cfg.window) is int and cfg.canonical() == "bilateral:ss=0.5,sr=1,k=1"


class _Toy(FilterConfig):
    """A kind declared only here, by its fields, KIND, PARAMS and apply."""

    KIND = "toy"
    PARAMS = (("s", filters._check_sigma), ("n", filters._check_count))

    scale: float
    count: int

    def apply(self, a: Image) -> Image:
        return a


def test_kinds_are_the_declared_subclasses():
    assert list(KINDS) == ["bilateral", "median", "rgf", "gauss"]
    assert "toy" not in KINDS and _Toy not in KINDS.values()
    with pytest.raises(ValueError, match="unknown filter kind 'toy'"):
        parse_config("toy:s=0.5,n=3")


def test_declaration_is_the_whole_kind():
    cfg = _Toy(0.5, 3.0)
    assert cfg == _Toy(0.5, 3) and type(cfg.count) is int
    assert cfg.canonical() == "toy:s=0.5,n=3"
    assert _Toy.parse("s=0.5,n=3") == cfg
    assert _Toy.from_params({"s": "0.5", "n": "3.0000000001"}) == cfg
    assert _Toy.from_params({"s": 0.5, "n": 3 - 1e-10}) == cfg
    checks = [
        (lambda: _Toy(0.0, 3), "scale must be finite and > 0, got 0.0"),
        (lambda: _Toy(0.5, -1), "count must be an integer >= 0, got -1"),
        (lambda: _Toy.parse("s=0.5,n=3.5"), "parameter 'n' must be an integer, got 3.5"),
        (lambda: _Toy.parse("s=0.5"), "missing parameter 'n' for filter kind 'toy'"),
        (lambda: _Toy.parse("s=0.5,n=3,k=1"), "unknown parameter 'k' for filter kind 'toy'"),
    ]
    for build, message in checks:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Gaussian blur
# ---------------------------------------------------------------------------


def test_gaussian_kernel_radius_and_normalization():
    taps = gaussian_kernel1d(1.0)
    assert taps.size == 2 * 3 + 1  # radius ceil(3*sigma)
    assert taps.sum() == pytest.approx(1.0, abs=1e-12)
    assert gaussian_kernel1d(0.34).size == 2 * 2 + 1  # ceil(1.02) == 2


def test_gaussian_constant_image_unchanged():
    img = Image.constant(11, 9, 0.4, channels=3)
    assert gaussian_blur(img, 1.7) == img


def test_gaussian_impulse_reproduces_tabulated_kernel():
    size = 15
    arr = np.zeros((1, size, size))
    arr[0, size // 2, size // 2] = 1.0
    out = gaussian_blur(Image(arr), 1.0)
    radius = 3
    axis = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(axis[:, None] ** 2 + axis[None, :] ** 2) / 2.0)
    kernel /= kernel.sum()
    center = out.data[0, size // 2 - radius : size // 2 + radius + 1,
                      size // 2 - radius : size // 2 + radius + 1]
    assert np.max(np.abs(center - kernel)) < 1e-12
    # Nothing escapes the kernel support.
    assert out.data.sum() == pytest.approx(kernel.sum(), abs=1e-9)


def test_gaussian_separable_matches_direct_2d():
    rng = np.random.default_rng(40)
    for sigma in (0.5, 1.0, 1.6):
        img = Image(rng.random((1, 9, 9)))
        direct = oracle_gaussian_2d(img.data, sigma)
        assert np.max(np.abs(gaussian_blur(img, sigma).data - direct)) < 1e-6


def test_gaussian_rejects_bad_sigma():
    img = Image.constant(4, 4, 0.5)
    with pytest.raises(ValueError):
        gaussian_blur(img, 0.0)


# ---------------------------------------------------------------------------
# Bilateral and joint bilateral
# ---------------------------------------------------------------------------


def test_bilateral_constant_image_unchanged():
    img = Image.constant(8, 8, 0.35)
    assert bilateral(img, 2.0, 0.1, 5) == img


def test_bilateral_huge_sigma_range_degenerates_to_windowed_gaussian():
    rng = np.random.default_rng(41)
    img = Image(rng.random((1, 8, 8)))
    out = bilateral(img, 2.0, 1e6, 5)
    expected = oracle_windowed_gaussian(img.data, 2.0, 5)
    assert np.max(np.abs(out.data - expected)) < 1e-4


def test_bilateral_matches_brute_force():
    rng = np.random.default_rng(42)
    for channels in (1, 3):
        for _ in range(4):
            img = _random_image(rng, channels)
            ss = float(rng.uniform(0.5, 3.0))
            sr = float(rng.uniform(0.05, 1.0))
            window = int(rng.choice([3, 5, 7]))
            expected = oracle_bilateral(img.data, ss, sr, window)
            assert np.max(np.abs(bilateral(img, ss, sr, window).data - expected)) < 1e-6


def test_bilateral_rejects_even_window():
    img = Image.constant(6, 6, 0.5)
    with pytest.raises(ValueError):
        bilateral(img, 1.0, 1.0, 4)


def test_joint_bilateral_with_self_guide_equals_bilateral():
    rng = np.random.default_rng(43)
    for _ in range(5):
        img = _random_image(rng)
        out_a = joint_bilateral(img, img, 1.5, 0.2, 5)
        out_b = bilateral(img, 1.5, 0.2, 5)
        assert out_a == out_b


def test_joint_bilateral_constant_guide_is_windowed_gaussian():
    rng = np.random.default_rng(44)
    img = Image(rng.random((1, 7, 7)))
    guide = Image.constant(7, 7, 0.5)
    out = joint_bilateral(img, guide, 1.2, 0.3, 5)
    expected = oracle_windowed_gaussian(img.data, 1.2, 5)
    assert np.max(np.abs(out.data - expected)) < 1e-6


def test_joint_bilateral_matches_brute_force():
    rng = np.random.default_rng(45)
    for channels in (1, 3):
        for _ in range(3):
            img = _random_image(rng, channels)
            guide = Image(rng.random(img.shape))
            ss = float(rng.uniform(0.5, 3.0))
            sr = float(rng.uniform(0.05, 1.0))
            expected = oracle_joint_bilateral(img.data, guide.data, ss, sr, 5)
            out = joint_bilateral(img, guide, ss, sr, 5)
            assert np.max(np.abs(out.data - expected)) < 1e-6


def test_joint_bilateral_shape_mismatch():
    a = Image.constant(6, 6, 0.5)
    b = Image.constant(7, 6, 0.5)
    with pytest.raises(ValueError):
        joint_bilateral(a, b, 1.0, 1.0, 3)


# Shapes where addressing the padded rows as one flat run could go wrong: a
# single pixel, a single row or column, and windows wider and taller than the
# image, so every neighbour lies in the clamped border.
FLAT_EDGE_CASES = [
    (1, 1, 3), (1, 1, 15), (1, 13, 5), (11, 1, 5), (3, 2, 15), (2, 9, 7), (6, 5, 3),
]


@pytest.mark.parametrize("height,width,window", FLAT_EDGE_CASES)
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("self_guided", [True, False], ids=["self-guide", "separate-guide"])
def test_joint_bilateral_edge_shapes_equal_previous_kernel(height, width, window, channels, self_guided):
    rng = np.random.default_rng(height * 100 + width * 10 + window + channels)
    img = Image(rng.random((channels, height, width)))
    guide = img if self_guided else Image(rng.random((channels, height, width)))
    img_before, guide_before = img.data.copy(), guide.data.copy()
    for ss, sr in ((3.0, 0.2), (0.4, 1.5)):
        got = joint_bilateral(img, guide, ss, sr, window)
        want = reference_joint_bilateral(img, guide, ss, sr, window)
        assert got.shape == img.shape
        assert np.array_equal(got.data, want.data), (ss, sr)
    assert np.array_equal(img.data, img_before)
    assert np.array_equal(guide.data, guide_before)


# The bilateral loop adds opposite offsets in pairs and leaves out the pairs
# beyond its squared distance cut (KERNEL_VERSION 4), so beyond matching the
# reference of that order bit for bit, its planes are pinned to the exact
# maths at the shipped presets' windows and sigmas, on gray and colour,
# self-guided and not.  ss 0.1-0.8 at k=15 are where the cut leaves out the
# most pairs.
def _oracle_cases():
    sigmas = [
        (0.1, 0.5, 15), (0.4, 3.5, 15), (0.5, 0.5, 15), (0.6, 0.5, 15), (0.7, 0.5, 15),
        (0.8, 1.0, 15), (1.1, 0.5, 15), (3.0, 0.2, 9), (6.0, 0.5, 9),
    ]
    for ss, sr, window in sigmas:
        for channels in (1, 3):
            for guide in ("self-guide", "separate-guide"):
                name = f"{ss}-{sr}-{window}-{channels}-{guide}"
                yield pytest.param(ss, sr, window, channels, guide == "self-guide", id=name)


@pytest.mark.parametrize("ss,sr,window,channels,self_guided", list(_oracle_cases()))
def test_joint_bilateral_within_two_grid_steps_of_oracle(ss, sr, window, channels, self_guided):
    clean = synthetic_clean(60 + channels, width=64, height=48, channels=channels)
    img = add_gaussian_noise(clean, 25.0, seed=61)
    guide = img if self_guided else Image(np.random.default_rng(62).random(img.shape))
    got = joint_bilateral(img, guide, ss, sr, window).data
    want = oracle_joint_bilateral(img.data, guide.data, ss, sr, window)
    assert np.max(np.abs(got - want)) <= 2 * 2.0**-GRID_BITS


@pytest.mark.parametrize("channels", [1, 3])
def test_vectorised_oracle_matches_literal_loop(channels):
    # The per-pixel loop is the definition; the vectorised oracle the bound
    # above checks against does the same arithmetic in the same order, so
    # the two agree to a fraction of a grid step (exp and the channel sum
    # may round differently).
    rng = np.random.default_rng(65 + channels)
    src = Image(rng.random((channels, 9, 11))).data
    guide = Image(rng.random((channels, 9, 11))).data
    fast = oracle_joint_bilateral(src, guide, 0.7, 0.3, 7)
    literal = oracle_joint_bilateral_literal(src, guide, 0.7, 0.3, 7)
    assert np.max(np.abs(fast - literal)) <= 0.25 * 2.0**-GRID_BITS


@pytest.mark.parametrize("channels", [1, 3])
def test_vectorised_gaussian_oracles_match_literal_loops(channels):
    # Same taps, same products, added in the same raster order: bit for bit.
    src = Image(np.random.default_rng(67 + channels).random((channels, 9, 11))).data
    assert np.array_equal(oracle_gaussian_2d(src, 1.6), oracle_gaussian_2d_literal(src, 1.6))
    assert np.array_equal(
        oracle_windowed_gaussian(src, 1.2, 7), oracle_windowed_gaussian_literal(src, 1.2, 7)
    )


def test_bilateral_window_1_returns_source():
    rng = np.random.default_rng(63)
    for channels in (1, 3):
        img = Image(rng.random((channels, 9, 7)))
        guide = Image(rng.random(img.shape))
        assert joint_bilateral(img, guide, 0.5, 0.1, 1) == img
        assert bilateral(img, 3.0, 0.1, 1) == img


def test_bilateral9_sharpest_plane_equals_its_source():
    # Its nearest spatial weight, exp(-50), lies below the 2**-48 grid.
    cfg = BUILTIN_PRESETS["bilateral9"]()[0]
    assert cfg == Bilateral(0.1, 0.5, 15)
    for sample in denoising_samples(5, seed=64):
        assert cfg.apply(sample.degraded) == sample.degraded


# ---------------------------------------------------------------------------
# Median
# ---------------------------------------------------------------------------


def test_median_constant_image_unchanged():
    img = Image.constant(6, 5, 0.77, channels=3)
    assert median(img, 3, 3) == img


def test_median_center_is_fifth_order_statistic():
    arr = (np.arange(1, 10, dtype=np.float64) / 9.0).reshape(1, 3, 3)
    img = Image(arr)
    out = median(img, 3, 3)
    assert out.data[0, 1, 1] == np.sort(img.data[0].ravel())[4]


def test_median_removes_single_salt_pixel():
    arr = np.zeros((1, 7, 7))
    arr[0, 3, 3] = 1.0
    out = median(Image(arr), 3, 3)
    assert np.all(out.data == 0.0)


def test_median_matches_sort_oracle_exactly():
    rng = np.random.default_rng(46)
    for channels in (1, 3):
        img = _random_image(rng, channels, lo=5, hi=8)
        for k1, k2 in ((3, 3), (3, 5), (5, 3)):
            assert np.array_equal(median(img, k1, k2).data, oracle_median(img.data, k1, k2))


@pytest.mark.parametrize("channels", (1, 3))
@pytest.mark.parametrize("k1, k2", ((3, 5), (5, 3)))
@pytest.mark.parametrize(
    "budget_rows",
    (1.0, 3.5, 0.5),
    ids=("one-row-bands", "bands-not-dividing-height", "row-over-budget"),
)
def test_median_row_bands_are_bit_identical(monkeypatch, channels, k1, k2, budget_rows):
    # 11 rows: bands of 3 leave a last band of 2; a budget under one row
    # still partitions one row at a time.
    rng = np.random.default_rng(54)
    img = Image(rng.random((channels, 11, 9)))
    monkeypatch.setattr(filters, "_MEDIAN_BAND_BYTES", int(budget_rows * 9 * k1 * k2 * 8))
    out = median(img, k1, k2).data
    assert np.array_equal(out, oracle_median(img.data, k1, k2))
    assert np.array_equal(out, reference_median(img, k1, k2).data)


def test_median_working_set_is_bounded_by_the_band_budget():
    # A whole-image window copy for this 7x7 median would take
    # 2048 * 64 * 49 * 8 bytes, about 51 MB.
    img = Image(np.random.default_rng(55).random((1, 2048, 64)))
    median(img, 7, 7)
    tracemalloc.start()
    try:
        out = median(img, 7, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    padded = (2048 + 6) * (64 + 6) * 8
    outputs = 2 * out.data.nbytes  # the kernel's output and the Image's snapped copy
    assert peak < filters._MEDIAN_BAND_BYTES + padded + outputs + (256 << 10)


def test_median_rejects_even_windows():
    img = Image.constant(6, 6, 0.5)
    with pytest.raises(ValueError):
        median(img, 4, 3)
    with pytest.raises(ValueError):
        median(img, 3, 6)


def test_median_invariant_under_neighborhood_permutation():
    # The order statistic only sees the multiset of window values.
    rng = np.random.default_rng(47)
    base = Image(rng.random(9).reshape(1, 3, 3)).data.ravel()
    expected = np.sort(base)[4]
    for permutation in (np.arange(9), rng.permutation(9), rng.permutation(9)):
        arr = base[permutation].reshape(1, 3, 3)
        out = median(Image(arr), 3, 3)
        assert out.data[0, 1, 1] == expected


# ---------------------------------------------------------------------------
# Rolling guidance
# ---------------------------------------------------------------------------


def test_rgf_zero_iterations_is_gaussian_blur():
    img = synthetic_clean(48, width=12, height=10)
    cfg = RollingGuidance(sigma_range=0.2, sigma_spatial=2.0, window=5, iterations=0)
    assert rolling_guidance(img, cfg) == gaussian_blur(img, 2.0)


def test_rgf_constant_image_unchanged():
    img = Image.constant(9, 9, 0.6)
    cfg = RollingGuidance(sigma_range=0.3, sigma_spatial=1.5, window=5, iterations=3)
    assert rolling_guidance(img, cfg) == img


def test_rgf_single_iteration_matches_oracle_composition():
    rng = np.random.default_rng(49)
    img = Image(rng.random((1, 7, 7)))
    cfg = RollingGuidance(sigma_range=0.25, sigma_spatial=1.0, window=5, iterations=1)
    out = rolling_guidance(img, cfg)
    guide = oracle_gaussian_2d(img.data, 1.0)
    expected = oracle_joint_bilateral(img.data, guide, 1.0, 0.25, 5)
    assert np.max(np.abs(out.data - expected)) < 1e-6


@pytest.mark.parametrize("channels", [1, 3])
def test_rgf8_chains_match_chained_oracle_passes(channels):
    # Every (sr, ss) chain of rgf8 at t = 2 and 4, each oracle guide snapped
    # as Image snaps the library's, within criterion 1's bound.
    img = Image(np.random.default_rng(68 + channels).random((channels, 10, 12)))
    configs = BUILTIN_PRESETS["rgf8"]()
    assert sorted({cfg.iterations for cfg in configs}) == [2, 4]
    for cfg in configs:
        guide = Image(oracle_gaussian_2d(img.data, cfg.sigma_spatial))
        for _ in range(cfg.iterations):
            guide = Image(oracle_joint_bilateral(
                img.data, guide.data, cfg.sigma_spatial, cfg.sigma_range, cfg.window
            ))
        assert np.max(np.abs(cfg.apply(img).data - guide.data)) < 1e-6, cfg.canonical()


def test_rgf_library_composition_is_bitwise():
    img = synthetic_clean(50, width=9, height=9)
    cfg = RollingGuidance(sigma_range=0.25, sigma_spatial=1.0, window=5, iterations=1)
    expected = joint_bilateral(img, gaussian_blur(img, 1.0), 1.0, 0.25, 5)
    assert rolling_guidance(img, cfg) == expected


# ---------------------------------------------------------------------------
# Dispatch and shared properties
# ---------------------------------------------------------------------------


def test_apply_dispatch_identities():
    img = synthetic_clean(51, width=10, height=9)
    assert Median(3, 3).apply(img) == median(img, 3, 3)
    assert Bilateral(1.0, 0.5, 5).apply(img) == bilateral(img, 1.0, 0.5, 5)
    assert Gaussian(1.3).apply(img) == gaussian_blur(img, 1.3)
    cfg = RollingGuidance(0.2, 1.5, 5, 1)
    assert cfg.apply(img) == rolling_guidance(img, cfg)


def _window_bounds(data, ry, rx):
    padded = np.pad(data, ((0, 0), (ry, ry), (rx, rx)), mode="edge")
    lo = np.full_like(data, np.inf)
    hi = np.full_like(data, -np.inf)
    h, w = data.shape[1:]
    for dy in range(2 * ry + 1):
        for dx in range(2 * rx + 1):
            block = padded[:, dy : dy + h, dx : dx + w]
            lo = np.minimum(lo, block)
            hi = np.maximum(hi, block)
    return lo, hi


def test_outputs_stay_within_neighborhood_bounds():
    rng = np.random.default_rng(52)
    img = Image(rng.random((1, 10, 11)))
    slack = 1e-12
    out = bilateral(img, 1.0, 0.3, 5)
    lo, hi = _window_bounds(img.data, 2, 2)
    assert np.all(out.data >= lo - slack) and np.all(out.data <= hi + slack)
    out = median(img, 3, 5)
    lo, hi = _window_bounds(img.data, 1, 2)
    assert np.all(out.data >= lo - slack) and np.all(out.data <= hi + slack)
    out = gaussian_blur(img, 1.0)
    lo, hi = _window_bounds(img.data, 3, 3)
    assert np.all(out.data >= lo - slack) and np.all(out.data <= hi + slack)


def test_filters_preserve_shape_and_are_pure():
    img = synthetic_clean(53, width=11, height=8, channels=3)
    before = img.data.copy()
    for cfg in (Bilateral(1.0, 0.5, 5), Median(3, 3), Gaussian(0.8), RollingGuidance(0.2, 1.0, 3, 1)):
        out = cfg.apply(img)
        assert out.shape == img.shape
        assert cfg.apply(img) == out  # deterministic
    assert np.array_equal(img.data, before)
