import numpy as np
import pytest

from ringpiv import BinaryImage, ConfigError, DimensionError, GrayImage, InputFormatError, PivConfig, tile_windows
from ringpiv.piv import _pack_window_rows
from ringpiv.synth import FlowSpec, RenderConfig, seed_particles


def test_gray_rejects_out_of_range():
    with pytest.raises(InputFormatError, match="intensity 1024"):
        GrayImage.from_array(np.full((4, 4), 1024, dtype=np.int32))
    with pytest.raises(InputFormatError, match="intensity 70000"):
        GrayImage.from_array(np.full((4, 4), 70000, dtype=np.int32))


@pytest.mark.parametrize(
    "values, message",
    [
        ([[1.7, 2.0]], "dtype float64"),
        ([[np.nan, 2.0]], "dtype float64"),
        ([[True, False]], "dtype bool"),
        ([[-1, 2]], "intensity -1 is negative"),
    ],
)
def test_gray_rejects_non_integer_and_negative(values, message):
    data = np.array(values)
    with pytest.raises(InputFormatError, match=message):
        GrayImage.from_array(data)
    with pytest.raises(InputFormatError, match=message):
        GrayImage(data=data)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GrayImage(data=[[1, 2]]), "data must be a numpy array, got list"),
        (lambda: GrayImage(data="x"), "data must be a numpy array, got str"),
        (lambda: BinaryImage(bits=[[True]]), "bits must be a numpy array, got list"),
        (lambda: GrayImage.from_array([[1], [2, 3]]), "data must be a rectangular array: "),
        (lambda: BinaryImage.from_bool([[1], [2, 3]]), "bits must be a rectangular array: "),
    ],
    ids=["gray-list", "gray-str", "binary-list", "gray-ragged", "binary-ragged"],
)
def test_constructors_reject_what_is_not_an_array(make, message):
    with pytest.raises(InputFormatError, match=message):
        make()


def test_gray_rejects_non_2d_and_empty():
    with pytest.raises(DimensionError, match="non-empty 2-D"):
        GrayImage(data=np.zeros(16, dtype=np.uint16))
    with pytest.raises(DimensionError, match="non-empty 2-D"):
        GrayImage(data=np.zeros((0, 4), dtype=np.uint16))
    img = GrayImage(data=np.zeros((3, 5), dtype=np.uint16))
    assert (img.width, img.height) == (5, 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GrayImage.from_array(np.arange(6).reshape(2, 3)),
        lambda: BinaryImage.from_bool(np.eye(3, dtype=bool)),
    ],
    ids=["GrayImage", "BinaryImage"],
)
def test_images_compare_by_identity(make):
    a, b = make(), make()
    assert a == a
    assert (a == b) is False and a != b
    assert len({a, b}) == 2


def test_binary_roundtrip_random():
    rng = np.random.default_rng(7)
    for h, w in [(1, 1), (3, 5), (32, 32), (17, 41), (256, 320)]:
        bits = rng.random((h, w)) < 0.5
        img = BinaryImage.from_bool(bits)
        assert img.width == w and img.height == h
        np.testing.assert_array_equal(img.to_bool(), bits)


@pytest.mark.parametrize(
    "bits",
    [
        np.ones((4, 4), dtype=np.uint8),
        np.ones(16, dtype=bool),
        np.ones((0, 4), dtype=bool),
    ],
    ids=["uint8", "1-D", "empty"],
)
def test_binary_rejects_non_bool_non_2d_and_empty(bits):
    with pytest.raises(DimensionError):
        BinaryImage(bits=bits)


def test_binary_from_bool_copies_and_to_bool_is_read_only():
    bits = np.zeros((3, 5), dtype=bool)
    img = BinaryImage.from_bool(bits)
    bits[1, 2] = True
    assert not img.to_bool().any()
    with pytest.raises(ValueError):
        img.to_bool()[0, 0] = True


@pytest.mark.parametrize(
    "make, field, dtype",
    [
        (lambda a: GrayImage(data=a), "data", np.uint16),
        (lambda a: BinaryImage(bits=a), "bits", bool),
    ],
    ids=["GrayImage", "BinaryImage"],
)
def test_constructors_leave_the_callers_array_writable(make, field, dtype):
    arr = np.zeros((2, 2), dtype=dtype)
    img = make(arr)
    arr[0, 0] = 1
    assert not getattr(img, field).any()
    with pytest.raises(ValueError):
        getattr(img, field)[0, 0] = 1


def reference_row_words(bits):
    """Per-bit reference: sum of bit x << x over each row."""
    w = bits.shape[-1]
    return (bits.astype(np.uint64) << np.arange(w, dtype=np.uint64)).sum(axis=-1)


def test_pack_rows_equals_per_bit_reference():
    rng = np.random.default_rng(11)
    for w in range(1, 65):
        bits = rng.random((5, w)) < 0.5
        np.testing.assert_array_equal(_pack_window_rows(bits), reference_row_words(bits), f"w={w}")
        # Strided views: the (rows, cols, w, w) windows of a frame and the
        # centred pattern slice of them.
        frame = rng.random((2 * w, 3 * w)) < 0.5
        # The contiguous raster compute_field packs: each image row split into its windows' rows.
        raster = frame.reshape(2 * w, 3, w)
        np.testing.assert_array_equal(_pack_window_rows(raster), reference_row_words(raster), f"w={w}")
        windows = frame.reshape(2, w, 3, w).transpose(0, 2, 1, 3)
        np.testing.assert_array_equal(_pack_window_rows(windows), reference_row_words(windows), f"w={w}")
        p = max(1, w // 2)
        off = (w - p) // 2
        pattern = windows[..., off : off + p, off : off + p]
        np.testing.assert_array_equal(_pack_window_rows(pattern), reference_row_words(pattern), f"w={w}")


_BIG = 10**5000  # past the default 4300-digit limit of str(), where the interpreter has one
_HUGE_INT_CASES = {
    "piv-window-size": (lambda: PivConfig(window_size=-_BIG), ConfigError, "window_size"),
    "piv-pattern-size": (lambda: PivConfig(pattern_size=_BIG), ConfigError, "pattern_size"),
    "piv-adaptive-threshold": (lambda: PivConfig(threshold=_BIG), ConfigError, "threshold"),
    "piv-global-threshold": (lambda: PivConfig(binarization="global", threshold=_BIG), ConfigError, "threshold"),
    "tile-not-divisible": (lambda: tile_windows(_BIG + 1, 32, 32), DimensionError, "width"),
    "tile-negative": (lambda: tile_windows(-_BIG, 32, 32), DimensionError, "width"),
    "render-background": (lambda: RenderConfig(background=_BIG), ConfigError, "background"),
    "render-width": (lambda: RenderConfig(width=-_BIG), ConfigError, "width"),
    "seed": (lambda: seed_particles(32, 32, 1.0, -_BIG), ConfigError, "seed"),
    "flow-dx": (lambda: FlowSpec.uniform(_BIG, 0), ConfigError, "dx"),
    "flow-kind": (lambda: FlowSpec(kind=_BIG), ConfigError, "kind"),
    "flow-center": (lambda: FlowSpec.vortex(_BIG, 0.1), ConfigError, "center"),
}


@pytest.mark.parametrize("make, error, name", _HUGE_INT_CASES.values(), ids=_HUGE_INT_CASES.keys())
def test_a_huge_int_is_rejected_with_the_package_error(make, error, name):
    with pytest.raises(error, match=rf"\b{name}\b"):
        make()
