import itertools
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import lexsort_peak, xnor_plane
from ringpiv import ConfigError, DimensionError, GrayImage, InputFormatError, PivConfig, compute_field
from ringpiv import piv
from ringpiv.piv import binarize_frame, tile_windows
from ringpiv.synth import FlowSpec, RenderConfig, render_pair, seed_particles


def test_identical_frames_give_zero_field():
    rng = np.random.default_rng(21)
    data = rng.integers(0, 1024, size=(64, 96)).astype(np.uint16)
    img = GrayImage.from_array(data)
    field = compute_field(img, img, PivConfig())
    assert all((v.dx, v.dy) == (0, 0) for v in field.vectors)


def test_paper_geometry_gives_80_vectors():
    rng = np.random.default_rng(22)
    a = GrayImage.from_array(rng.integers(0, 1024, size=(256, 320)).astype(np.uint16))
    b = GrayImage.from_array(rng.integers(0, 1024, size=(256, 320)).astype(np.uint16))
    field = compute_field(a, b, PivConfig())
    assert len(field.vectors) == 80
    assert [v.window_index for v in field.vectors] == list(range(80))


def test_size_mismatch_rejected():
    a = GrayImage.from_array(np.zeros((64, 64), dtype=np.uint16))
    b = GrayImage.from_array(np.zeros((64, 96), dtype=np.uint16))
    with pytest.raises(DimensionError):
        compute_field(a, b, PivConfig())


@pytest.mark.parametrize(
    "bad", [np.zeros((64, 64), dtype=np.uint16), None, {}], ids=["ndarray", "None", "dict"]
)
@pytest.mark.parametrize("position", [0, 1, 2], ids=["frame1", "frame2", "cfg"])
def test_inputs_of_the_wrong_type_are_rejected_by_name(position, bad):
    img = GrayImage.from_array(np.zeros((64, 64), dtype=np.uint16))
    args = [img, img, PivConfig()]
    args[position] = bad
    kind = type(bad).__name__
    if position == 2:
        error, message = ConfigError, f"^cfg must be a PivConfig, got {kind}$"
    else:
        error = InputFormatError
        message = f"^frame{position + 1} must be a GrayImage, got {kind}; see GrayImage.from_array$"
    with pytest.raises(error, match=message):
        compute_field(*args)


def test_uniform_translation_recovered_on_synthetic_pair():
    field = seed_particles(320, 256, density=10, seed=42)
    flow = FlowSpec.uniform(3, 1)
    f1, f2 = render_pair(field, flow, RenderConfig())
    result = compute_field(f1, f2, PivConfig())
    hits = sum(1 for v in result.vectors if (v.dx, v.dy) == (3, 1))
    assert hits >= 76  # >= 95% of 80 windows


@pytest.mark.parametrize(
    "flow",
    [FlowSpec.shear(0.02), FlowSpec.vortex((160.0, 128.0), 0.02)],
    ids=["shear", "vortex"],
)
def test_varying_flow_recovered_at_window_centres(flow):
    f1, f2 = render_pair(seed_particles(320, 256, density=10, seed=42), flow, RenderConfig())
    result = compute_field(f1, f2, PivConfig())
    grid = result.grid
    wy, wx = np.divmod(np.arange(grid.count), grid.cols)
    centres = (np.column_stack([wx, wy]) + 0.5) * grid.window_size
    ux, uy = flow.displacement_at(centres[:, 0], centres[:, 1])
    got = np.array([(v.dx, v.dy) for v in result.vectors])
    hits = np.count_nonzero((np.abs(got - np.column_stack([ux, uy])) <= 1).all(axis=1))
    assert hits >= 76  # >= 95% of 80 windows, as for the uniform flow


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_size": 32.0},
        {"pattern_size": 16.5},
        {"window_size": True},
        {"binarization": "global", "threshold": 500.5},
        {"binarization": "global", "threshold": True},
        {"threshold": "500"},
    ],
)
def test_config_rejects_non_integer_sizes_and_thresholds(kwargs):
    with pytest.raises(ConfigError, match="must be an integer"):
        PivConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"threshold": 5000}, "adaptive binarization takes no threshold"),
        ({"binarization": "adaptive", "threshold": 0}, "adaptive binarization takes no threshold"),
        ({"binarization": "global"}, "requires a threshold"),
        ({"binarization": "global", "threshold": 1024}, "outside 0..1023"),
    ],
    ids=["adaptive-5000", "adaptive-0", "global-none", "global-1024"],
)
def test_config_rejects_a_threshold_that_does_not_fit_the_mode(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        PivConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"pattern_size": 33}, "pattern_size 33 exceeds window_size 32"),
        ({"window_size": 65}, "window_size above 64"),
        ({"window_size": 0}, "must be positive"),
        ({"pattern_size": -16}, "must be positive"),
    ],
    ids=["pattern-over-window", "window-over-64", "window-0", "pattern-negative"],
)
def test_config_rejects_sizes_the_correlator_cannot_run(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        PivConfig(**kwargs)


def test_config_stores_numpy_integers_as_int():
    cfg = PivConfig(
        window_size=np.int64(32), pattern_size=np.int32(16), binarization="global", threshold=np.uint16(500)
    )
    assert all(type(v) is int for v in (cfg.window_size, cfg.pattern_size, cfg.threshold))
    img = GrayImage.from_array(np.zeros((32, 32), dtype=np.uint16))
    d = compute_field(img, img, cfg).vectors[0]
    assert type(d.dx) is int and type(d.dy) is int


def per_window_vectors(f1, f2, cfg):
    """(dx, dy, peak, index) of each window from bool slices, the XNOR plane and the lexsort peak.

    Only the binarizer and the tiling are the package's; no packer,
    correlator or peak of ``ringpiv.piv`` runs here.
    """
    w, p = cfg.window_size, cfg.pattern_size
    grid = tile_windows(f1.width, f1.height, w)
    b1 = binarize_frame(f1.data, cfg)
    b2 = binarize_frame(f2.data, cfg)
    off = (w - p) // 2
    vectors = []
    for idx in range(grid.count):
        wy, wx = divmod(idx, grid.cols)
        x0, y0 = wx * w, wy * w
        search = b1[y0 : y0 + w, x0 : x0 + w]
        pattern = b2[y0 + off : y0 + off + p, x0 + off : x0 + off + p]
        vectors.append((*lexsort_peak(xnor_plane(search, pattern), off), idx))
    return vectors


def test_batched_field_matches_per_window_path():
    # The batched pipeline must equal window-by-window correlation.
    field = seed_particles(96, 64, density=12, seed=7)
    flow = FlowSpec.uniform(-2, 4)
    f1, f2 = render_pair(field, flow, RenderConfig(width=96, height=64))
    cfg = PivConfig()
    out = compute_field(f1, f2, cfg)
    got = [(v.dx, v.dy, v.peak_value, v.window_index) for v in out.vectors]
    assert got == per_window_vectors(f1, f2, cfg)


# One worker, one round and the package's block size: the serial path.
SERIAL = {"workers": 1, "chunk_bytes": piv._CHUNK_BYTES, "round_bytes": piv._ROUND_BYTES}


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.integers(2, 64).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))),
    tiles=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    binarization=st.sampled_from(["adaptive", "global"]),
    seed=st.integers(min_value=0, max_value=2**31),
    workers=st.integers(1, 3),
    chunk_bytes=st.sampled_from([piv._CHUNK_BYTES, 1]),  # 1: every block is one window
    round_bytes=st.sampled_from([piv._ROUND_BYTES, 1]),  # 1: every block is its own round
)
@example(sizes=(33, 16), tiles=(2, 1), binarization="adaptive", seed=1, **SERIAL)  # asymmetric centring
@example(sizes=(64, 64), tiles=(1, 2), binarization="adaptive", seed=2, **SERIAL)  # the w = 64 limit
@example(sizes=(64, 48), tiles=(2, 1), binarization="global", seed=3, **SERIAL)  # p > 32: one row per word
@example(sizes=(32, 13), tiles=(2, 2), binarization="adaptive", seed=4, **SERIAL)  # last row group has 1 row
@example(sizes=(8, 5), tiles=(17, 16), binarization="adaptive", seed=5, **SERIAL)  # 272 windows: partial chunk
# Nine one-window blocks on three workers, then six on two with one block per round.
@example(
    sizes=(32, 13), tiles=(3, 3), binarization="adaptive", seed=6, workers=3, chunk_bytes=1,
    round_bytes=piv._ROUND_BYTES,
)
@example(sizes=(16, 5), tiles=(3, 2), binarization="global", seed=7, workers=2, chunk_bytes=1, round_bytes=1)
def test_field_matches_per_window_path_over_random_geometry(
    sizes, tiles, binarization, seed, workers, chunk_bytes, round_bytes
):
    w, p = sizes
    cols, rows = tiles
    rng = np.random.default_rng(seed)
    levels = int(rng.choice([2, 4, 1024]))  # few levels make tied peaks common
    a = rng.integers(0, levels, size=(rows * w, cols * w)) * (1023 // (levels - 1))
    b = np.roll(a, tuple(rng.integers(-3, 4, size=2)), axis=(0, 1))
    f1, f2 = GrayImage.from_array(a), GrayImage.from_array(b)
    threshold = int(rng.integers(0, 1024)) if binarization == "global" else None
    cfg = PivConfig(window_size=w, pattern_size=p, binarization=binarization, threshold=threshold)
    with mock.patch.multiple(piv, _WORKERS=workers, _CHUNK_BYTES=chunk_bytes, _ROUND_BYTES=round_bytes):
        out = compute_field(f1, f2, cfg)
    got = [(v.dx, v.dy, v.peak_value, v.window_index) for v in out.vectors]
    assert got == per_window_vectors(f1, f2, cfg)


def chunk_boundary_vectors(w, p, cols, rows=1):
    """compute_field and the per-window path on a frame of rows x cols windows."""
    rng = np.random.default_rng(cols)
    a = rng.integers(0, 1024, size=(rows * w, cols * w))
    b = np.roll(a, (1, -2), axis=(0, 1))
    f1, f2 = GrayImage.from_array(a), GrayImage.from_array(b)
    cfg = PivConfig(window_size=w, pattern_size=p)
    out = compute_field(f1, f2, cfg)
    assert out.grid.count == rows * cols
    got = [(v.dx, v.dy, v.peak_value, v.window_index) for v in out.vectors]
    return got, per_window_vectors(f1, f2, cfg)


# One full block and one more window make two blocks, so two workers run.
WORKERS_AT_THE_CHUNK_BOUNDARY = pytest.mark.parametrize(
    "extra, workers",
    [(-1, 1), (0, 1), (1, 1), (1, 2)],
    ids=["one-short", "exact", "one-over", "one-over-2-workers"],
)


@WORKERS_AT_THE_CHUNK_BOUNDARY
def test_field_matches_per_window_path_at_the_chunk_boundary(monkeypatch, extra, workers):
    # One window short of a full chunk, one full chunk, a full chunk and one
    # window; 8/5 packs k = 5 pattern rows per word.
    monkeypatch.setattr(piv, "_WORKERS", workers)
    got, expected = chunk_boundary_vectors(8, 5, piv._chunk_windows(8, 5) + extra)
    assert got == expected


@WORKERS_AT_THE_CHUNK_BOUNDARY
def test_field_matches_per_window_path_at_a_one_row_per_word_chunk_boundary(monkeypatch, extra, workers):
    # p > 32: k = 1, so the search words are the row slices themselves.
    monkeypatch.setattr(piv, "_WORKERS", workers)
    got, expected = chunk_boundary_vectors(64, 40, piv._chunk_windows(64, 40) + extra)
    assert got == expected


@pytest.mark.parametrize(
    "w, p, rows, cols, workers, round_bytes",
    [
        (8, 5, 2, 4097, 1, piv._ROUND_BYTES),
        (64, 40, 2, 82, 1, piv._ROUND_BYTES),
        (8, 5, 9, 1000, 1, piv._ROUND_BYTES),
        (64, 40, 3, 40, 1, piv._ROUND_BYTES),
        (8, 5, 2, 4097, 3, piv._ROUND_BYTES),
        (64, 40, 2, 82, 2, 1),
        (8, 5, 9, 1000, 3, piv._ROUND_BYTES),
        (64, 40, 3, 40, 2, 1),
    ],
    ids=[
        "8-5-split-rows",
        "64-40-split-rows",
        "8-5-whole-rows",
        "64-40-whole-rows",
        "8-5-split-rows-3-workers",
        "64-40-split-rows-2-workers-block-rounds",
        "8-5-whole-rows-3-workers",
        "64-40-whole-rows-2-workers-block-rounds",
    ],
)
def test_field_matches_per_window_path_over_block_boundaries(
    monkeypatch, w, p, rows, cols, workers, round_bytes
):
    # A row one window wider than a block (8/5 and 64/40 blocks hold 4096 and
    # 81 windows) is split in two; otherwise a block is 4 or 2 whole rows,
    # and the last block is shorter.  A round of 1 byte holds one block.
    monkeypatch.setattr(piv, "_WORKERS", workers)
    monkeypatch.setattr(piv, "_ROUND_BYTES", round_bytes)
    correlate = piv._packed_xcorr_batch
    sizes = []

    def spy(search_rows, pattern_rows, w, p):
        sizes.append(search_rows.shape[1])
        return correlate(search_rows, pattern_rows, w, p)

    monkeypatch.setattr(piv, "_packed_xcorr_batch", spy)
    got, expected = chunk_boundary_vectors(w, p, cols, rows)
    assert got == expected
    assert sum(sizes) == rows * cols
    assert max(sizes) <= piv._chunk_windows(w, p)


def test_chunk_is_the_most_windows_whose_slice_buffer_fits_the_budget():
    for w in range(1, 65):
        for p in range(1, w + 1):
            n = piv._chunk_windows(w, p)
            k = min(64 // p, p)
            per_window = 8 * (w + (-p % k)) * (w - p + 1)  # (w + pad, s) uint64 slices
            assert n >= 1
            assert n * per_window <= piv._CHUNK_BYTES < (n + 1) * per_window, (w, p)


@pytest.mark.parametrize("windows", [50, 1000])
@pytest.mark.parametrize(
    "w, p, binarization, threshold",
    [
        (32, 16, "adaptive", None),
        (64, 48, "global", 500),
        (32, 5, "adaptive", None),
        (16, 3, "adaptive", None),
        (32, 8, "adaptive", None),
    ],
    ids=["32-16", "64-48", "32-5", "16-3", "32-8"],
)
def test_correlate_memory_is_bounded_by_the_chunk_budget(monkeypatch, w, p, binarization, threshold, windows):
    # The benchmark geometries and three deep search-word builds (k = 5, 3
    # and 8): one correlate call allocates under four budgets at its peak,
    # whatever the frame size.  One worker, because tracemalloc's peak is
    # the whole process's and would add the blocks other threads hold.
    monkeypatch.setattr(piv, "_WORKERS", 1)
    correlate = piv._packed_xcorr_batch
    peaks = []

    def measured(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = correlate(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    rng = np.random.default_rng(windows)
    a = rng.integers(0, 1024, size=(w, w * windows), dtype=np.uint16)
    f1, f2 = GrayImage.from_array(a), GrayImage.from_array(np.roll(a, 1, axis=1))
    cfg = PivConfig(window_size=w, pattern_size=p, binarization=binarization, threshold=threshold)
    monkeypatch.setattr(piv, "_packed_xcorr_batch", measured)
    tracemalloc.start()
    try:
        compute_field(f1, f2, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == -(-windows // piv._chunk_windows(w, p))
    assert max(peaks) < 4 * piv._CHUNK_BYTES


def test_compute_field_memory_on_a_2048_frame():
    # With every usable CPU: one round of planes (2.3 MiB for these 4096
    # windows) plus one block per worker.
    rng = np.random.default_rng(13)
    a = rng.integers(0, 1024, size=(2048, 2048), dtype=np.uint16)
    f1, f2 = GrayImage.from_array(a), GrayImage.from_array(np.roll(a, (2, -1), axis=(0, 1)))
    del a
    tracemalloc.start()
    try:
        compute_field(f1, f2, PivConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_compute_field_memory_on_a_4096_frame():
    # Four times the pixels of the 2048 frame under the same bound: memory
    # is one round's and one block per worker's, not the frame's.
    rng = np.random.default_rng(14)
    a = rng.integers(0, 1024, size=(4096, 4096), dtype=np.uint16)
    f1, f2 = GrayImage.from_array(a), GrayImage.from_array(np.roll(a, (2, -1), axis=(0, 1)))
    del a
    tracemalloc.start()
    try:
        compute_field(f1, f2, PivConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_a_one_block_frame_starts_no_thread(monkeypatch):
    monkeypatch.setattr(piv, "_WORKERS", 4)
    correlate = piv._packed_xcorr_batch
    callers = []

    def spy(*args):
        callers.append((threading.current_thread(), threading.active_count()))
        return correlate(*args)

    monkeypatch.setattr(piv, "_packed_xcorr_batch", spy)
    rng = np.random.default_rng(23)
    a = GrayImage.from_array(rng.integers(0, 1024, size=(256, 320)).astype(np.uint16))
    before = threading.active_count()
    compute_field(a, a, PivConfig())
    assert callers == [(threading.main_thread(), before)]


def test_a_worker_failure_propagates_and_every_thread_is_joined(monkeypatch):
    # 1-byte chunks make each of the 16 windows a block, so three workers run.
    monkeypatch.setattr(piv, "_WORKERS", 3)
    monkeypatch.setattr(piv, "_CHUNK_BYTES", 1)
    correlate = piv._packed_xcorr_batch
    calls = itertools.count()
    failure = RuntimeError("the second block fails")

    def failing(*args):
        if next(calls) == 1:
            raise failure
        return correlate(*args)

    monkeypatch.setattr(piv, "_packed_xcorr_batch", failing)
    rng = np.random.default_rng(24)
    a = GrayImage.from_array(rng.integers(0, 1024, size=(128, 128)).astype(np.uint16))
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        compute_field(a, a, PivConfig())
    assert raised.value is failure
    assert threading.active_count() == before


def test_each_block_is_claimed_once_by_more_workers_than_cpus(monkeypatch):
    # 64 one-window blocks on eight workers that switch every microsecond: a
    # block claimed twice adds a correlate call, a block missed loses a vector.
    rng = np.random.default_rng(25)
    a = rng.integers(0, 1024, size=(256, 256))
    f1, f2 = GrayImage.from_array(a), GrayImage.from_array(np.roll(a, (1, 2), axis=(0, 1)))
    monkeypatch.setattr(piv, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(piv, "_WORKERS", 1)
    serial = compute_field(f1, f2, PivConfig()).vectors
    correlate = piv._packed_xcorr_batch
    calls = []

    def counted(*args):
        calls.append(None)
        return correlate(*args)

    monkeypatch.setattr(piv, "_packed_xcorr_batch", counted)
    monkeypatch.setattr(piv, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = compute_field(f1, f2, PivConfig()).vectors
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 64
    assert threaded == serial


def test_vector_field_requires_its_vectors():
    with pytest.raises(TypeError):
        piv.VectorField(grid=tile_windows(32, 32, 32))


def test_compute_field_deterministic():
    field = seed_particles(320, 256, density=10, seed=3)
    f1, f2 = render_pair(field, FlowSpec.uniform(5, -2), RenderConfig())
    a = compute_field(f1, f2, PivConfig())
    b = compute_field(f1, f2, PivConfig())
    assert a.vectors == b.vectors


def test_global_threshold_mode():
    field = seed_particles(64, 64, density=10, seed=9)
    f1, f2 = render_pair(field, FlowSpec.uniform(2, 2), RenderConfig(width=64, height=64))
    cfg = PivConfig(binarization="global", threshold=500)
    out = compute_field(f1, f2, cfg)
    hits = sum(1 for v in out.vectors if (v.dx, v.dy) == (2, 2))
    assert hits >= 3  # 4 windows; allow one sparse window
