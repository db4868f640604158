import numpy as np
import pytest

from fbcompose import DatasetSpec, Image, add_gaussian_noise, add_impulse_noise, noise, write_image
from fbcompose.cli import run

from synth import synthetic_clean


def test_gaussian_zero_sigma_is_identity():
    img = synthetic_clean(20, width=16, height=16)
    assert add_gaussian_noise(img, 0.0, seed=1) == img


def test_gaussian_rejects_negative_sigma():
    img = Image.constant(4, 4, 0.5)
    for sigma255 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma255"):
            add_gaussian_noise(img, sigma255, seed=0)


def test_gaussian_empirical_std_matches_sigma():
    # Mid-gray keeps clamping negligible at sigma 25/255 ~ 0.098.
    img = Image.constant(256, 256, 0.5)
    noisy = add_gaussian_noise(img, 25.0, seed=7)
    measured = float(np.std(noisy.data - img.data))
    expected = 25.0 / 255.0
    assert abs(measured - expected) <= 0.05 * expected


def test_gaussian_same_seed_is_bitwise_identical():
    img = synthetic_clean(21, width=32, height=32)
    a = add_gaussian_noise(img, 25.0, seed=123)
    b = add_gaussian_noise(img, 25.0, seed=123)
    assert a == b
    assert a != add_gaussian_noise(img, 25.0, seed=124)


def test_gaussian_does_not_mutate_input():
    img = Image.constant(8, 8, 0.5)
    before = img.data.copy()
    add_gaussian_noise(img, 50.0, seed=3)
    assert np.array_equal(img.data, before)


def test_impulse_zero_density_is_identity():
    img = synthetic_clean(22, width=16, height=16)
    assert add_impulse_noise(img, 0.0, seed=1) == img


def test_impulse_full_density_is_all_extremes():
    img = Image.constant(32, 32, 0.5)
    noisy = add_impulse_noise(img, 1.0, seed=5)
    assert np.all((noisy.data == 0.0) | (noisy.data == 1.0))
    # Both extremes actually occur.
    assert np.any(noisy.data == 0.0) and np.any(noisy.data == 1.0)


def test_impulse_density_fraction_within_binomial_bound():
    img = Image.constant(200, 200, 0.5)
    noisy = add_impulse_noise(img, 0.4, seed=9)
    corrupted = float(np.mean(noisy.data[0] != 0.5))
    assert abs(corrupted - 0.4) <= 0.02


def test_impulse_rejects_bad_density():
    img = Image.constant(4, 4, 0.5)
    with pytest.raises(ValueError):
        add_impulse_noise(img, 1.5, seed=0)
    with pytest.raises(ValueError):
        add_impulse_noise(img, -0.1, seed=0)


def test_impulse_replaces_whole_pixels_on_color():
    img = Image.constant(64, 64, 0.5, channels=3)
    noisy = add_impulse_noise(img, 0.3, seed=11)
    changed = noisy.data != 0.5
    # A replaced pixel is replaced on every channel with the same extreme.
    assert np.array_equal(changed[0], changed[1])
    assert np.array_equal(changed[0], changed[2])
    assert np.array_equal(noisy.data[0][changed[0]], noisy.data[1][changed[1]])


def test_impulse_same_seed_is_bitwise_identical():
    img = synthetic_clean(23, width=24, height=24)
    assert add_impulse_noise(img, 0.25, seed=42) == add_impulse_noise(img, 0.25, seed=42)


def test_degradations_reach_the_noise_module_attribute_per_call(tmp_path, monkeypatch):
    # A tracer rebinds noise.add_gaussian_noise and noise.add_impulse_noise,
    # so the manifest loader and the CLI must call through the module name.
    clean = tmp_path / "clean.pgm"
    write_image(synthetic_clean(24, width=12, height=10), clean)
    manifest = tmp_path / "data.txt"
    manifest.write_text("clean clean.pgm gaussian 25\nclean clean.pgm impulse 0.3\n")
    flags = {"add_gaussian_noise": ["--gaussian", "25"], "add_impulse_noise": ["--impulse", "0.3"]}

    def degraded():
        return [sample.degraded.data.tobytes() for sample in DatasetSpec.read(manifest).load(5)]

    def command(name, tag):
        out = tmp_path / f"{tag}-{name}.pgm"
        assert run(["noise", *flags[name], "--seed", "3", str(clean), str(out)]) == 0
        return out.read_bytes()

    want_degraded = degraded()
    want_written = {name: command(name, "plain") for name in flags}

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in flags:
        monkeypatch.setattr(noise, name, counting(name, getattr(noise, name)))
    assert degraded() == want_degraded
    assert calls == ["add_gaussian_noise", "add_impulse_noise"]
    for name in flags:
        calls.clear()
        assert command(name, "traced") == want_written[name]
        assert calls == [name]
