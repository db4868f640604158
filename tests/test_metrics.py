import math

import numpy as np
import pytest

from fbcompose import Image, MetricReport, psnr, ssim, total_variation
from fbcompose.metrics import PSNR_CAP_DB

from oracles import oracle_ssim
from synth import synthetic_clean


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------


def test_psnr_identical_hits_cap():
    img = synthetic_clean(0, width=16, height=16)
    assert psnr(img, img) == PSNR_CAP_DB == 100.0


def test_psnr_constant_half_closed_form():
    a = Image.constant(8, 8, 0.0)
    b = Image.constant(8, 8, 0.5)
    # MSE is exactly 0.25, so the closed form 10*log10(1/0.25) is exact.
    assert psnr(a, b) == pytest.approx(10.0 * math.log10(1.0 / 0.25), abs=1e-12)


def test_psnr_constant_tenth_closed_form():
    a = Image.constant(8, 8, 0.0)
    b = Image.constant(8, 8, 0.1)
    # 0.1 is quantized to the intensity grid, hence the loose-ish tolerance.
    assert psnr(a, b) == pytest.approx(10.0 * math.log10(1.0 / 0.01), abs=1e-5)


def test_psnr_shape_mismatch_names_both_shapes():
    a = Image.constant(4, 4, 0.5)
    b = Image.constant(5, 4, 0.5)
    with pytest.raises(ValueError) as err:
        psnr(a, b)
    assert "(1, 4, 4)" in str(err.value) and "(1, 4, 5)" in str(err.value)


def test_psnr_is_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = Image(rng.random((1, 7, 9)))
        b = Image(rng.random((1, 7, 9)))
        assert psnr(a, b) == psnr(b, a)


def test_psnr_decreases_with_perturbation_magnitude():
    base = Image.constant(16, 16, 0.4)
    values = []
    for delta in (0.01, 0.02, 0.05, 0.1, 0.2):  # stays inside [0, 1]: no clamping
        values.append(psnr(base, Image.constant(16, 16, 0.4 + delta)))
    assert all(earlier > later for earlier, later in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_self_similarity():
    img = synthetic_clean(1, width=24, height=20)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)


def test_ssim_constant_pair_closed_form():
    a = Image.constant(16, 16, 0.2)
    b = Image.constant(16, 16, 0.8)
    # Constant patches: variances and covariance vanish, so each window is
    # (2*0.2*0.8 + K1^2) / (0.2^2 + 0.8^2 + K1^2); the contrast factor is
    # C2/C2 = 1.
    c1 = 0.01**2
    expected = (2 * 0.2 * 0.8 + c1) / (0.2**2 + 0.8**2 + c1)
    assert ssim(a, b) == pytest.approx(expected, abs=1e-9)


def test_ssim_checkerboard_inversion_goes_negative():
    yy, xx = np.mgrid[0:12, 0:12]
    board = np.where((yy + xx) % 2 == 0, 0.25, 0.75).astype(np.float64)
    a = Image(board)
    b = Image(1.0 - board)
    value = ssim(a, b)
    reference = oracle_ssim(a.data[0], b.data[0])
    assert value < 0.0
    assert value == pytest.approx(reference, abs=1e-9)


def test_ssim_matches_reference_on_random_images():
    rng = np.random.default_rng(12)
    for _ in range(3):
        a = Image(rng.random((1, 13, 14)))
        b = Image(rng.random((1, 13, 14)))
        assert ssim(a, b) == pytest.approx(oracle_ssim(a.data[0], b.data[0]), abs=1e-9)


def test_ssim_color_uses_channel_mean():
    rng = np.random.default_rng(13)
    a = Image(rng.random((3, 12, 12)))
    b = Image(rng.random((3, 12, 12)))
    assert ssim(a, b) == ssim(a.to_gray(), b.to_gray())


def test_ssim_rejects_images_smaller_than_window():
    a = Image.constant(10, 12, 0.5)
    with pytest.raises(ValueError):
        ssim(a, a)


def test_ssim_bounded_in_magnitude():
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = Image(rng.random((1, 12, 12)))
        b = Image(rng.random((1, 12, 12)))
        assert abs(ssim(a, b)) <= 1.0


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def test_tv_constant_is_zero():
    assert total_variation(Image.constant(9, 7, 0.3, channels=3)) == 0.0


def test_tv_1x2_hand_value():
    img = Image(np.array([[0.0, 1.0]]))
    assert total_variation(img) == pytest.approx(0.5, abs=1e-12)


def test_tv_2x2_hand_value():
    img = Image(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert total_variation(img) == pytest.approx(0.5, abs=1e-12)


def test_tv_zero_iff_constant_per_channel():
    arr = np.zeros((3, 4, 4))
    arr[0] = 0.2
    arr[1] = 0.5
    arr[2] = 0.9
    assert total_variation(Image(arr)) == 0.0
    rng = np.random.default_rng(15)
    for _ in range(10):
        img = Image(rng.random((1, 5, 5)))
        if np.ptp(img.data) > 0:
            assert total_variation(img) > 0.0


# ---------------------------------------------------------------------------
# MetricReport
# ---------------------------------------------------------------------------


def test_metric_report_means_match_rows():
    rows = [("a", 30.0, 0.9), ("b", 32.0, 0.8), ("c", 28.0, 0.7)]
    report = MetricReport.from_rows(rows)
    assert report.psnr == pytest.approx(30.0, abs=1e-12)
    assert report.ssim == pytest.approx(0.8, abs=1e-12)
    assert report.per_image == (("a", 30.0, 0.9), ("b", 32.0, 0.8), ("c", 28.0, 0.7))


def test_metric_report_rejects_empty():
    with pytest.raises(ValueError):
        MetricReport.from_rows([])
