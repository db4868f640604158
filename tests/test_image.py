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
