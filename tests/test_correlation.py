import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from _reference import xnor_plane
from ringpiv import piv


def packed_plane(search: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """The package's correlator on one bool search window and pattern: the (s, s) plane."""
    planes = piv._packed_xcorr_batch(
        piv._pack_window_rows(search[:, None]),
        piv._pack_window_rows(pattern[:, None]),
        search.shape[0],
        pattern.shape[0],
    )
    return planes[0]


def test_binary_identical_block_scores_p_squared():
    rng = np.random.default_rng(4)
    bits = rng.random((32, 32)) < 0.5
    plane = packed_plane(bits, bits[8:24, 8:24])
    # Aligned placement is (iy, ix) = (8, 8): all 256 bits match.
    assert plane[8, 8] == 256
    assert plane.max() == 256


def test_binary_complement_block_scores_zero():
    rng = np.random.default_rng(5)
    bits = rng.random((32, 32)) < 0.5
    plane = packed_plane(bits, ~bits[8:24, 8:24])
    assert plane[8, 8] == 0


@settings(max_examples=120, deadline=None)
@given(
    sizes=st.integers(1, 64).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))),
    n=st.integers(1, 9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(sizes=(32, 16), n=1, seed=6)  # the paper geometry
@example(sizes=(64, 48), n=5, seed=1)  # p > 32: one pattern row per word
@example(sizes=(32, 13), n=4, seed=2)  # the last row group holds 1 of 4 rows
@example(sizes=(8, 5), n=1, seed=3)  # one window
@example(sizes=(16, 3), n=3, seed=7)  # k = 3: two doublings, lane 3 masked off
@example(sizes=(32, 5), n=3, seed=8)  # k = 5: three doublings, lanes 5-7 masked off
@example(sizes=(64, 10), n=3, seed=9)  # k = 6: three doublings, bits past lane 5 masked off
@example(sizes=(40, 7), n=3, seed=10)  # k = 7: three doublings, lane 7 masked off
@example(sizes=(32, 8), n=3, seed=11)  # k = 8: three doublings, the deepest, no mask
def test_packed_batch_matches_per_bit_oracle_per_window(sizes, n, seed):
    # Distinct windows side by side: a mix-up of the window and row axes
    # would correlate one window's rows against another's.
    w, p = sizes
    rng = np.random.default_rng(seed)
    search = rng.random((n, w, w)) < rng.uniform(0.1, 0.9, size=(n, 1, 1))
    pattern = rng.random((n, p, p)) < rng.uniform(0.1, 0.9, size=(n, 1, 1))
    planes = piv._packed_xcorr_batch(
        piv._pack_window_rows(search.transpose(1, 0, 2)),
        piv._pack_window_rows(pattern.transpose(1, 0, 2)),
        w,
        p,
    )
    assert planes.shape == (n, w - p + 1, w - p + 1) and planes.dtype == np.uint16
    for i in range(n):
        np.testing.assert_array_equal(planes[i], xnor_plane(search[i], pattern[i]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_binary_bound_and_complement_symmetry(seed):
    rng = np.random.default_rng(seed)
    bits = rng.random((24, 24)) < rng.uniform(0.05, 0.95)
    pat = rng.random((9, 9)) < rng.uniform(0.05, 0.95)
    plane = packed_plane(bits, pat)
    assert plane.min() >= 0
    assert plane.max() <= 81
    comp = packed_plane(bits, ~pat)
    np.testing.assert_array_equal(comp, 81 - plane)


def test_gray_binary_argmax_consistency_in_balanced_regime():
    # On {0,1}-valued inputs with ones-density near 0.5, the product
    # correlation and the match-count correlation agree on the peak.
    rng = np.random.default_rng(99)
    agree = checked = 0
    for _ in range(40):
        bits = rng.random((32, 32)) < 0.5
        shift = rng.integers(-6, 7, size=2)
        rolled = np.roll(bits, (shift[0], shift[1]), axis=(0, 1))
        pat_bits = rolled[8:24, 8:24]
        dens_s = bits.mean()
        dens_p = pat_bits.mean()
        if not (0.4 <= dens_s <= 0.6 and 0.4 <= dens_p <= 0.6):
            continue
        checked += 1
        windows = sliding_window_view(bits.astype(np.int64), pat_bits.shape)
        product = np.einsum("ijkl,kl->ij", windows, pat_bits.astype(np.int64))
        b = packed_plane(bits, pat_bits)
        if np.argmax(product) == np.argmax(b):
            agree += 1
    assert checked > 10
    assert agree == checked
