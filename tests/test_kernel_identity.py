"""The fast exact kernels against their previous forms, bit for bit, the
offset pairs the bilateral kernel declares and computes, and the call
pattern that per-kernel tracing relies on.

Every plane of the three shipped presets must equal the reference kernels of
``oracles`` exactly (``np.array_equal``), alone and through ``build_basis``
with any thread count and a partly filled plane cache.  The bilateral
kernel computes only the offset pairs nearer than its squared distance cut
(version 4), and every plane stays within one grid step of the sums that
leave out no pair (version 2).
"""

import threading

import numpy as np
import pytest

from fbcompose import FBCache, Image, build_basis, calibrate, filters
from fbcompose.basis import BILATERAL_CANDIDATE_GRID, BUILTIN_PRESETS, parse_grid
from fbcompose.filters import Bilateral, Median, RollingGuidance
from fbcompose.image import GRID_BITS

from oracles import (
    reference_cut,
    reference_joint_bilateral,
    reference_left_out_weight,
    reference_offset_pairs,
    reference_median,
    reference_rolling_guidance,
)
from synth import synthetic_clean


def _reference(img: Image, cfg) -> Image:
    if isinstance(cfg, Bilateral):
        return reference_joint_bilateral(img, img, cfg.sigma_spatial, cfg.sigma_range, cfg.window)
    if isinstance(cfg, Median):
        return reference_median(img, cfg.k1, cfg.k2)
    assert isinstance(cfg, RollingGuidance)
    return reference_rolling_guidance(
        img, cfg.sigma_range, cfg.sigma_spatial, cfg.window, cfg.iterations
    )


def _images():
    rng = np.random.default_rng(20)
    return {
        "gray": Image(rng.random((1, 23, 19))),
        "colour": synthetic_clean(21, width=17, height=14, channels=3),
    }


@pytest.mark.parametrize("preset", sorted(BUILTIN_PRESETS))
@pytest.mark.parametrize("image", ["gray", "colour"])
def test_preset_planes_equal_previous_kernels(preset, image):
    img = _images()[image]
    configs = BUILTIN_PRESETS[preset]()
    basis = build_basis(img, configs)
    for cfg, plane in zip(configs, basis.planes):
        expected = _reference(img, cfg).data
        assert np.array_equal(cfg.apply(img).data, expected), cfg.canonical()
        assert np.array_equal(plane.data, expected), cfg.canonical()


@pytest.mark.parametrize("channels", [1, 3])
def test_joint_bilateral_with_separate_guide_equals_previous_kernel(channels):
    rng = np.random.default_rng(22 + channels)
    img = Image(rng.random((channels, 16, 21)))
    guide = Image(rng.random((channels, 16, 21)))
    # ss=0.1 computes no pair of the 15x15 window; ss=3 leaves out none of 9x9.
    for ss, sr, window in ((0.1, 0.5, 15), (3.0, 0.2, 9), (0.7, 3.5, 5)):
        got = filters.joint_bilateral(img, guide, ss, sr, window)
        want = reference_joint_bilateral(img, guide, ss, sr, window)
        assert np.array_equal(got.data, want.data), (ss, sr, window)


def _bound_images(channels):
    """Noise, a smooth image, the extremes {2**-GRID_BITS, 1} and noise half
    of whose values are 0."""
    rng = np.random.default_rng(26 + channels)
    tiny = 2.0**-GRID_BITS
    shape = (channels, 13, 16)
    return [
        Image(np.clip(rng.random(shape), tiny, 1.0)),
        Image(np.clip(synthetic_clean(27, width=16, height=13, channels=channels).data, tiny, 1.0)),
        Image(rng.choice([tiny, 1.0], size=shape)),
        Image(np.where(rng.random(shape) < 0.5, 0.0, rng.random(shape))),
    ]


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("self_guided", [True, False], ids=["self-guide", "separate-guide"])
def test_cut_moves_no_value_by_more_than_a_grid_step(channels, self_guided):
    # The denominator starts at the centre's weight 1, range weights are at
    # most 1 and values lie in [0, 1], so adding back the left-out weight w
    # moves each quotient by at most w, a quarter grid step: once snapped,
    # no value is more than one grid step from version 2's.
    configs = BUILTIN_PRESETS["bilateral9"]() + parse_grid(BILATERAL_CANDIDATE_GRID)
    sigmas = sorted({(cfg.sigma_spatial, cfg.sigma_range, cfg.window) for cfg in configs})
    images = _bound_images(channels)
    step = 2.0**-GRID_BITS
    for img, other in zip(images, images[1:] + images[:1]):
        guide = img if self_guided else other
        for ss, sr, window in sigmas:
            got = filters.joint_bilateral(img, guide, ss, sr, window)
            want = reference_joint_bilateral(img, guide, ss, sr, window, skip=False)
            assert np.max(np.abs(got.data - want.data)) <= step, (ss, sr, window)


class _CountingNumpy:
    """Stands in for ``numpy`` in ``filters`` and counts ``exp`` calls, one
    per offset pair the bilateral loop computes."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)


def test_skip_threshold_keeps_and_skips_the_pair_at_its_edge(monkeypatch):
    # At ss_edge the offsets (7, 0) and (0, 7) of a 15x15 window, d2 = 49,
    # and every farther pair weigh exactly the quarter grid step the cut
    # allows: just above it they are computed, just below it the cut falls
    # to 49 and leaves them out.  The kernel's exp calls, one per pair
    # computed, count them; the image is half zeros.
    lo, hi = 0.5, 2.0  # the weight at d2 >= 49 rises with ss
    for _ in range(100):
        mid = (lo + hi) / 2
        if reference_left_out_weight(mid, 15, 49) > 2.0 ** -(GRID_BITS + 2):
            hi = mid
        else:
            lo = mid
    ss_edge = (lo + hi) / 2
    rng = np.random.default_rng(28)
    img = Image(np.where(rng.random((1, 17, 19)) < 0.5, 0.0, rng.random((1, 17, 19))))
    counted = []
    for ss in (ss_edge * (1 + 1e-9), ss_edge * (1 - 1e-9)):
        pairs = reference_offset_pairs(ss, 15)
        counting = _CountingNumpy()
        monkeypatch.setattr(filters, "np", counting)
        got = filters.joint_bilateral(img, img, ss, 0.5, 15)
        monkeypatch.undo()
        assert counting.exp_calls == len(pairs), ss
        assert np.array_equal(got.data, reference_joint_bilateral(img, img, ss, 0.5, 15).data), ss
        counted.append(set(pairs))
    kept, skipped = counted
    assert reference_cut(ss_edge * (1 - 1e-9), 15) == 49 < reference_cut(ss_edge * (1 + 1e-9), 15)
    assert kept - skipped == {(0, 7), (7, 0)}
    assert skipped < kept


def test_bilateral9_narrowest_plane_is_its_source(monkeypatch):
    # At ss=0.1 every pair of the 15x15 window weighs under the cut's bound,
    # so the sums keep only the centre and the plane is its input.
    cfg = BUILTIN_PRESETS["bilateral9"]()[0]
    assert cfg == Bilateral(0.1, 0.5, 15)
    rng = np.random.default_rng(30)
    half_zero = np.where(rng.random((1, 14, 17)) < 0.5, 0.0, rng.random((1, 14, 17)))
    counting = _CountingNumpy()
    monkeypatch.setattr(filters, "np", counting)
    for img in (*_images().values(), Image(half_zero)):
        assert np.array_equal(cfg.apply(img).data, img.data)
    assert counting.exp_calls == 0


def _declared(cfg) -> list:
    return filters._offset_pairs(cfg.sigma_spatial, cfg.window)


def test_declared_offset_pairs_are_the_reference_pairs():
    bilateral9 = BUILTIN_PRESETS["bilateral9"]()
    grid = parse_grid(BILATERAL_CANDIDATE_GRID)
    rgf8 = BUILTIN_PRESETS["rgf8"]()
    assert [len(_declared(cfg)) for cfg in bilateral9] == [0, 18, 18, 30, 30, 44, 54, 72, 110]
    assert sum(len(_declared(cfg)) for cfg in bilateral9) == 376  # of 9 * 112
    assert sum(len(_declared(cfg)) for cfg in grid) == 3752  # of 77 * 112
    assert [len(_declared(cfg)) for cfg in rgf8] == [40] * len(rgf8)  # window 9 leaves out none
    for cfg in bilateral9 + grid + rgf8:
        declared = [(dy, dx) for dy, dx, _ in _declared(cfg)]
        assert declared == reference_offset_pairs(cfg.sigma_spatial, cfg.window), cfg.canonical()


@pytest.mark.parametrize("image", ["gray", "colour"])
def test_kernel_computes_exactly_the_declared_pairs(monkeypatch, image):
    img = _images()[image]
    guide = Image(np.random.default_rng(29).random(img.shape))
    rgf = BUILTIN_PRESETS["rgf8"]()[0]
    cases = [(img, cfg) for cfg in BUILTIN_PRESETS["bilateral9"]()] + [(guide, rgf)]
    counting = _CountingNumpy()
    monkeypatch.setattr(filters, "np", counting)
    for ref, cfg in cases:
        counting.exp_calls = 0
        filters.joint_bilateral(img, ref, cfg.sigma_spatial, cfg.sigma_range, cfg.window)
        assert counting.exp_calls == len(_declared(cfg)), cfg.canonical()


def test_rolling_guidance_prefixes_equal_whole_chains():
    img = _images()["gray"]
    longest = RollingGuidance(0.5, 3.0, 9, 4)
    prefixes = filters.rolling_guidance(img, longest, at=[4, 0, 2, 1])
    for t, got in zip([4, 0, 2, 1], prefixes):
        want = reference_rolling_guidance(img, 0.5, 3.0, 9, t)
        assert np.array_equal(got.data, want.data), t
    assert filters.rolling_guidance(img, longest) == prefixes[0]


def _mixed_configs():
    """rgf8 with bilateral and median configs between its chains."""
    bil = BUILTIN_PRESETS["bilateral9"]()
    med = BUILTIN_PRESETS["median8"]()
    rgf = BUILTIN_PRESETS["rgf8"]()
    return [rgf[0], bil[0], med[0], rgf[3], rgf[1], med[5], bil[4], rgf[2], *rgf[4:], bil[8]]


@pytest.mark.parametrize("threads", [1, 2])
def test_build_basis_with_partial_cache_equals_previous_kernels(tmp_path, threads, monkeypatch):
    img = synthetic_clean(23, width=20, height=17)
    configs = _mixed_configs()
    cache = FBCache(tmp_path / "cache")
    t2 = RollingGuidance(0.2, 3.0, 9, 2)  # cached; its t=4 chain is not
    assert t2 in configs and RollingGuidance(0.2, 3.0, 9, 4) in configs
    for cfg in (t2, configs[1], configs[2]):
        cache.put(img, cfg, _reference(img, cfg))

    joint_calls = []
    real_joint = filters.joint_bilateral

    def counting_joint(*args, **kwargs):
        joint_calls.append(args[2:])
        return real_joint(*args, **kwargs)

    monkeypatch.setattr(filters, "joint_bilateral", counting_joint)
    basis = build_basis(img, configs, threads=threads, cache=cache)
    for cfg, plane in zip(configs, basis.planes):
        assert np.array_equal(plane.data, _reference(img, cfg).data), cfg.canonical()
        assert cache.get(img, cfg) == plane
    # The (sr=0.2, ss=3) chain runs once, to t=4, even with its t=2 cached;
    # the three other chains run once each; bilateral configs add one call each.
    rgf_calls = [c for c in joint_calls if c == (3.0, 0.2, 9)]
    assert len(rgf_calls) == 4
    assert len(joint_calls) == 4 * 4 + 2  # two bilateral configs missed
    monkeypatch.undo()

    again = build_basis(img, configs, threads=3 - threads, cache=FBCache(tmp_path / "cold"))
    assert all(a == b for a, b in zip(again.planes, basis.planes))


# ---------------------------------------------------------------------------
# What span tracing relies on: kernels reached through module globals
# ---------------------------------------------------------------------------


class _Recorder:
    """Rebinds the kernel globals of ``filters`` with call counters, the way
    an external tracer wraps them, and notes each call's enclosing kernel."""

    NAMES = ("bilateral", "joint_bilateral", "median", "rolling_guidance", "gaussian_blur")

    def __init__(self, monkeypatch):
        self.calls = []
        self._local = threading.local()
        self._lock = threading.Lock()
        for name in self.NAMES:
            monkeypatch.setattr(filters, name, self._wrap(name, getattr(filters, name)))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                self.calls.append((name, tuple(stack), args, kwargs))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    def named(self, name):
        return [call for call in self.calls if call[0] == name]


@pytest.mark.parametrize("threads", [1, 2])
def test_build_basis_calls_traced_kernels_once_per_config(monkeypatch, threads):
    img = synthetic_clean(24, width=12, height=10)
    recorder = _Recorder(monkeypatch)

    configs = BUILTIN_PRESETS["bilateral9"]()
    build_basis(img, configs, threads=threads)
    calls = recorder.named("bilateral")
    assert len(calls) == len(configs)
    expected = {(cfg.sigma_spatial, cfg.sigma_range, cfg.window) for cfg in configs}
    assert {call[2][1:] for call in calls} == expected
    assert all(call[2][0] is img and not call[3] and not call[1] for call in calls)

    recorder.calls.clear()
    configs = BUILTIN_PRESETS["median8"]()
    build_basis(img, configs, threads=threads)
    calls = recorder.named("median")
    assert sorted(call[2][1:] for call in calls) == sorted((c.k1, c.k2) for c in configs)
    assert all(call[2][0] is img and not call[3] and not call[1] for call in calls)
    assert len(recorder.calls) == len(configs)

    recorder.calls.clear()
    build_basis(img, BUILTIN_PRESETS["rgf8"](), threads=threads)
    assert len(recorder.named("rolling_guidance")) == 4
    assert len(recorder.named("joint_bilateral")) == 16
    assert len(recorder.named("gaussian_blur")) == 4
    assert len(recorder.calls) == 24
    for name, enclosing, _, _ in recorder.calls:
        assert enclosing == (() if name == "rolling_guidance" else ("rolling_guidance",))


@pytest.mark.parametrize("threads", [1, 2])
def test_calibrate_runs_each_rgf_chain_once_per_pair(monkeypatch, threads):
    img = synthetic_clean(25, width=12, height=10)
    candidates = [
        RollingGuidance(sr, ss, 9, t)
        for sr in (0.1, 0.2, 0.5) for ss in (2.0, 3.0) for t in (1, 2, 3, 4)
    ]
    recorder = _Recorder(monkeypatch)
    calibrate(candidates, [(img, img)], threads=threads)
    assert len(recorder.named("joint_bilateral")) == 24
    assert len(recorder.named("rolling_guidance")) == 6
    assert len(recorder.named("gaussian_blur")) == 6
