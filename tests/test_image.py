import hashlib

import numpy as np
import pytest

from fbcompose import Image
from fbcompose.image import GRID_BITS, snap_unit


def test_2d_input_becomes_grayscale():
    img = Image(np.zeros((4, 5)))
    assert img.shape == (1, 4, 5)
    assert img.channels == 1 and img.height == 4 and img.width == 5


def test_rejects_bad_rank_and_channels():
    with pytest.raises(ValueError):
        Image(np.zeros(10))
    with pytest.raises(ValueError):
        Image(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        Image(np.zeros((1, 0, 4)))
    with pytest.raises(ValueError):
        Image(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_clamps_on_construction():
    img = Image(np.array([[-0.5, 0.25], [1.5, 1.0]]))
    assert img.data.min() == 0.0
    assert img.data.max() == 1.0
    assert img.data[0, 0, 1] == 0.25


def test_backing_array_is_frozen():
    img = Image(np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 1.0


def test_grid_snap_is_idempotent():
    rng = np.random.default_rng(3)
    img = Image(rng.random((3, 6, 7)))
    again = Image(img.data)
    assert img == again
    assert np.array_equal(snap_unit(img.data), img.data)


def _snap_reference(values):
    arr = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    return np.rint(arr * 2.0**GRID_BITS) / 2.0**GRID_BITS


def test_snap_unit_matches_reference_and_leaves_input_alone():
    rng = np.random.default_rng(6)
    step = 2.0**-GRID_BITS
    values = rng.uniform(-0.5, 1.5, size=(3, 5, 7))
    values[0, 0, :6] = [0.5 * step, 1.5 * step, 2.5 * step, 1 - 0.5 * step, -step, 1 + step]
    before = values.copy()
    expected = _snap_reference(values)
    assert snap_unit(values).tobytes() == expected.tobytes()
    assert values.tobytes() == before.tobytes()
    out = np.full(values.shape, np.nan)
    assert snap_unit(values, out=out) is out and out.tobytes() == expected.tobytes()
    assert values.tobytes() == before.tobytes()
    # Other real dtypes are converted, as before.
    ints = np.array([[-1, 0], [1, 2]])
    assert snap_unit(ints).tobytes() == _snap_reference(ints).tobytes()
    assert ints.tolist() == [[-1, 0], [1, 2]]


def _snap_cases():
    rng = np.random.default_rng(7)
    step = 2.0**-GRID_BITS
    tiny = np.nextafter(0.0, 1.0)
    halves = (np.arange(35) + 0.5) * step  # ties at even and odd grid numerators
    cases = {
        "uniform": rng.uniform(-0.5, 1.5, size=35),
        "above_one": rng.uniform(0.0, 1.5, size=35),
        "below_zero": rng.uniform(-0.5, 1.0, size=35),
        "ties_low": halves,
        "ties_high": 1.0 - halves,
        "subnormal": np.array([tiny, 3 * tiny, 7 * tiny, 2.0**-1030, 2.0**-1040] * 7),
        "subnormal_negative": np.array([tiny, -tiny, 7 * tiny, 2.0**-1030, -(2.0**-1040)] * 7),
        "edges": np.array([1 - 2.0**-53, 0.0, 1.0, 0.5 * step, 1.5 * step] * 7),
        "edges_above_one": np.array([1 - 2.0**-53, 1 + 2.0**-52, 0.0, 1.0, 0.5 * step] * 7),
        "in_range": rng.random(35),
        "mixed": np.where(rng.random(35) < 0.2, rng.uniform(-2.0, 3.0, 35), rng.random(35)),
    }
    # "ties_*", "subnormal", "edges" and "in_range" lie in [0, 1], so snap_unit
    # skips the clamp on them; the other cases take the clamp.
    return {name: values.reshape(5, 7) for name, values in cases.items()}


_SNAP_CASES = _snap_cases()
_LAYOUTS = {
    "gray": lambda v: v[np.newaxis],
    "colour": lambda v: np.stack([v, v[::-1], 1.0 - v]),
    "transposed": lambda v: np.stack([v, v[::-1], 1.0 - v]).transpose(0, 2, 1),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("case", sorted(_SNAP_CASES))
def test_snap_unit_is_the_reference_bit_for_bit(case, layout):
    values = _LAYOUTS[layout](_SNAP_CASES[case])
    assert not np.signbit(values[values == 0]).any()  # -0.0 has its own test
    before = values.copy()
    expected = _snap_reference(values).tobytes()
    fresh = snap_unit(values)
    assert fresh.tobytes() == expected and fresh.flags.c_contiguous
    out = np.full(values.shape, np.nan)
    assert snap_unit(values, out=out) is out and out.tobytes() == expected
    assert values.tobytes() == before.tobytes()
    in_place = values.copy(order="C")  # the gray layout is a view of a shared case
    assert snap_unit(in_place, out=in_place) is in_place and in_place.tobytes() == expected
    assert Image(values).data.tobytes() == expected and Image(values).data.flags.c_contiguous


def test_snap_unit_reads_negative_zero_as_positive_zero():
    values = np.array([[-0.0, 0.25], [1.0, -0.0]])
    for snapped in (snap_unit(values), snap_unit(values.copy(), out=values.copy()),
                    Image(values).data[0]):
        assert snapped.tobytes() == np.array([[0.0, 0.25], [1.0, 0.0]]).tobytes()
    assert Image(values) == Image(np.abs(values))
    assert Image(values)._digest == Image(np.abs(values))._digest


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_data_raises_from_snap_unit_and_image(bad):
    for values in (np.array([[0.5, bad]]), np.array([[bad, 2.0], [-1.0, 0.5]])):
        before = values.copy()
        with pytest.raises(ValueError, match="image data must be finite"):
            snap_unit(values)
        with pytest.raises(ValueError, match="image data must be finite"):
            snap_unit(values, out=values)
        with pytest.raises(ValueError, match="image data must be finite"):
            Image(values)
        assert values.tobytes() == before.tobytes()  # raised before any write


def test_snap_unit_of_an_empty_array_is_empty():
    for shape in [(0,), (1, 0, 4), (3, 2, 0)]:
        snapped = snap_unit(np.empty(shape))
        assert snapped.shape == shape and snapped.dtype == np.float64
    with pytest.raises(ValueError, match="empty image"):
        Image(np.empty((1, 0, 4)))


def _reference_digest(data):
    return hashlib.sha256(repr(data.shape).encode() + data.tobytes()).hexdigest()


def test_digest_is_sha256_of_shape_and_c_order_bytes():
    rng = np.random.default_rng(8)
    colour = Image(rng.random((3, 4, 6)))
    stack = np.stack([colour.data, Image(rng.random((3, 4, 6))).data])
    stack.setflags(write=False)
    images = [
        Image(rng.random((5, 7))),
        colour,
        Image(rng.random((3, 6, 4)).transpose(0, 2, 1)),
        Image._wrap(stack[1]),
        Image._wrap(np.asfortranarray(colour.data)),  # a non-C-order wrap digests its C-order bytes
    ]
    for img in images:
        assert img._digest == _reference_digest(img.data)
    assert images[-1]._digest == colour._digest
    # Cache directory names are this digest's prefix: it must not drift.
    golden = Image(np.arange(6.0).reshape(2, 3) / 8)
    assert golden._digest == "3478b48bbd06886639638b383561e8983a7c55cd87b0c1503926782d66984d89"


def test_grid_makes_differences_exact():
    # Core invariant behind residual stacks: for any two images a and b,
    # (a - b) + b reproduces a bit-for-bit.
    rng = np.random.default_rng(4)
    a = Image(rng.random((1, 32, 32)) * 0.01)   # tiny values
    b = Image(rng.random((1, 32, 32)))          # generic values
    diff = a.data - b.data
    assert np.array_equal(diff + b.data, a.data)
    assert diff.min() < 0  # genuinely signed


def test_grid_step_is_negligible():
    rng = np.random.default_rng(5)
    raw = rng.random((1, 16, 16))
    img = Image(raw)
    assert np.max(np.abs(img.data - raw)) <= 2.0 ** -(GRID_BITS + 1)


def test_equality_semantics():
    a = Image(np.full((1, 2, 2), 0.5))
    b = Image(np.full((1, 2, 2), 0.5))
    c = Image(np.full((1, 2, 2), 0.25))
    assert a == b
    assert a != c
    assert a != "not an image"


def test_to_gray_averages_channels():
    arr = np.zeros((3, 2, 2))
    arr[0] = 0.3
    arr[1] = 0.6
    arr[2] = 0.9
    gray = Image(arr).to_gray()
    assert gray.channels == 1
    assert np.allclose(gray.data, 0.6, atol=1e-12)


def test_constant_helper():
    img = Image.constant(4, 3, 0.25, channels=3)
    assert img.shape == (3, 3, 4)
    assert np.all(img.data == 0.25)
