import inspect
import re

import numpy as np
import pytest

from ringpiv import ConfigError, PivConfig, compute_field
from ringpiv.synth import (
    FlowSpec,
    ParticleField,
    RenderConfig,
    advect,
    render,
    render_pair,
    seed_particles,
)


def test_seeding_deterministic():
    a = seed_particles(320, 256, 10, seed=42)
    b = seed_particles(320, 256, 10, seed=42)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_seeding_count_statistics():
    counts = [seed_particles(320, 256, 10, seed=s).count for s in range(100)]
    mean = np.mean(counts)
    assert 720 <= mean <= 880  # 800 +/- 10%


def test_seeding_bounds():
    f = seed_particles(32, 32, 1, seed=123)
    if f.count:
        assert (f.positions[:, 0] >= 0).all() and (f.positions[:, 0] < 32).all()
        assert (f.positions[:, 1] >= 0).all() and (f.positions[:, 1] < 32).all()


def test_zero_density_rejected():
    with pytest.raises(ConfigError):
        seed_particles(320, 256, 0, seed=1)


@pytest.mark.parametrize("density", [float("nan"), float("inf"), -1.0, pytest.param(10**400, id="10**400")])
def test_seeding_rejects_a_density_that_is_not_positive_and_finite(density):
    with pytest.raises(ConfigError, match="density must be a positive finite number"):
        seed_particles(320, 256, density, seed=1)


@pytest.mark.parametrize("width, height", [(0, 256), (320, -1)])
def test_seeding_rejects_a_frame_that_is_not_positive(width, height):
    name, value = ("width", width) if width <= 0 else ("height", height)
    with pytest.raises(ConfigError, match=f"{name} {value} must be positive"):
        seed_particles(width, height, 10, seed=1)


@pytest.mark.parametrize(
    "width, height, name",
    [(32.5, 32, "width"), (True, 32, "width"), (32, 32.0, "height"), (32, "32", "height")],
)
def test_seeding_rejects_a_frame_size_that_is_not_an_integer(width, height, name):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        seed_particles(width, height, 10, seed=0)


@pytest.mark.parametrize("density", ["10", None, True])
def test_seeding_rejects_a_density_that_is_not_a_number(density):
    with pytest.raises(ConfigError, match="density must be a number"):
        seed_particles(32, 32, density, seed=0)


def test_seeding_accepts_numpy_numbers():
    f = seed_particles(np.int64(64), np.uint16(32), np.float32(10), seed=0, radius=np.float32(2.5))
    assert f.positions.shape[1] == 2 and f.count > 0
    # density and radius are used and stored as Python floats.
    assert type(f.radius) is float and f.radius == 2.5
    np.testing.assert_array_equal(f.positions, seed_particles(64, 32, 10.0, seed=0).positions)
    assert type(ParticleField(positions=np.zeros((1, 2)), radius=np.int64(2)).radius) is float


@pytest.mark.parametrize(
    "width, height, density, seed",
    [(320, 256, 10.0, 42), (64, 32, np.float32(2.5), 7), (33, 17, 3, 0)],
    ids=["paper", "float32-density", "odd-size"],
)
def test_seeding_draws_the_count_then_every_x_then_every_y(width, height, density, seed):
    # A check that drew from the generator, or a reordered draw, would change every frame.
    rng = np.random.default_rng(seed)
    n = rng.poisson(float(density) * (width * height) / 1024)
    expected = np.column_stack([rng.uniform(0, width, n), rng.uniform(0, height, n)])
    np.testing.assert_array_equal(seed_particles(width, height, density, seed).positions, expected)


@pytest.mark.parametrize(
    "positions, message",
    [
        (np.zeros((3, 3)), r"\(n, 2\) array, got shape \(3, 3\)"),
        (np.zeros(4), r"\(n, 2\) array, got shape \(4,\)"),
        (np.zeros((2, 2, 2)), r"\(n, 2\) array, got shape \(2, 2, 2\)"),
        (np.array([[1.0, 2.0], [np.nan, 3.0]]), "positions must be finite"),
        (np.array([[1.0, np.inf]]), "positions must be finite"),
        ([["a", "b"]], "positions must be numeric"),
    ],
    ids=["three-columns", "1-d", "3-d", "nan", "inf", "strings"],
)
def test_particle_field_rejects_positions_that_are_not_a_finite_n_by_2_array(positions, message):
    with pytest.raises(ConfigError, match=message):
        ParticleField(positions=positions, radius=1.0)


@pytest.mark.parametrize("kwargs", [{"width": 0}, {"height": -8}])
def test_render_config_rejects_a_frame_that_is_not_positive(kwargs):
    ((name, value),) = kwargs.items()
    with pytest.raises(ConfigError, match=f"{name} {value} must be positive"):
        RenderConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"background": 1024},
        {"background": -1},
        {"particle_intensity": -1},
        {"particle_intensity": 1024},
    ],
    ids=["background-1024", "background--1", "particle-intensity--1", "particle-intensity-1024"],
)
def test_render_config_rejects_a_level_outside_10_bits(kwargs):
    ((name, value),) = kwargs.items()
    with pytest.raises(ConfigError, match=rf"^{name} {value} outside 0\.\.1023$"):
        RenderConfig(**kwargs)
    RenderConfig(**{name: 0})
    RenderConfig(**{name: 1023})


_RADIUS_NOT_POSITIVE = "radius must be a positive finite number"


@pytest.mark.parametrize(
    "radius, message",
    [
        (-2.0, _RADIUS_NOT_POSITIVE),
        (0.0, _RADIUS_NOT_POSITIVE),
        (float("nan"), _RADIUS_NOT_POSITIVE),
        (float("inf"), _RADIUS_NOT_POSITIVE),
        (10**400, _RADIUS_NOT_POSITIVE),
        (True, "radius must be a number, got True"),
    ],
    ids=["-2.0", "0.0", "nan", "inf", "10**400", "True"],
)
def test_particle_field_rejects_a_radius_that_is_not_positive_and_finite(radius, message):
    with pytest.raises(ConfigError, match=message):
        seed_particles(64, 64, 10, seed=1, radius=radius)
    with pytest.raises(ConfigError, match=message):
        ParticleField(positions=np.zeros((1, 2)), radius=radius)


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        ("3", "seed must be an integer, got '3'"),
    ],
)
def test_seed_must_be_a_non_negative_integer(seed, message):
    with pytest.raises(ConfigError, match=message):
        seed_particles(32, 32, 10, seed)


def test_a_numpy_seed_is_stored_as_int():
    f = seed_particles(64, 64, 10, seed=np.uint64(3))
    np.testing.assert_array_equal(f.positions, seed_particles(64, 64, 10, seed=3).positions)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"background": 100.7}, "background"),
        ({"particle_intensity": 900.9}, "particle_intensity"),
        ({"width": 320.0}, "width"),
        ({"height": True}, "height"),
    ],
    # Each case keeps the id it was first collected under, so test histories stay comparable.
    ids=["kwargs0-background", "kwargs1-particle_intensity", "kwargs3-width", "kwargs4-height"],
)
def test_render_config_rejects_non_integers(kwargs, name):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        RenderConfig(**kwargs)


def test_render_config_stores_numpy_integers_as_int():
    cfg = RenderConfig(width=np.int64(64), background=np.uint16(77), particle_intensity=np.int32(3))
    assert all(type(getattr(cfg, name)) is int for name in ("width", "background", "particle_intensity"))


@pytest.mark.parametrize(
    "kwargs, unused",
    [
        ({"kind": "uniform", "dx": 1, "rate": 0.5}, "rate"),
        ({"kind": "shear", "rate": 0.1, "dx": 1}, "dx"),
        ({"kind": "vortex", "center": (5.0, 5.0), "strength": 0.1, "dy": 2}, "dy"),
    ],
    ids=["uniform", "shear", "vortex"],
)
def test_flow_rejects_a_field_its_kind_does_not_use(kwargs, unused):
    with pytest.raises(ConfigError, match=f"does not use {unused}"):
        FlowSpec(**kwargs)
    # The same field left at its default is accepted.
    FlowSpec(**{**kwargs, unused: 0.0})


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"kind": "uniform", "dx": float("nan")}, "dx"),
        ({"kind": "uniform", "dx": 1.0, "dy": float("-inf")}, "dy"),
        ({"kind": "shear", "rate": float("inf")}, "rate"),
        ({"kind": "vortex", "center": (5.0, 5.0), "strength": float("nan")}, "strength"),
        ({"kind": "vortex", "center": (float("nan"), 5.0), "strength": 0.1}, "center"),
        ({"kind": "uniform", "dx": 10**400}, "dx"),
        ({"kind": "vortex", "center": (1.0, -(10**400)), "strength": 0.1}, "center"),
    ],
    ids=["uniform-dx", "uniform-dy", "shear-rate", "vortex-strength", "vortex-center",
         "uniform-dx-10**400", "vortex-center-10**400"],
)
def test_flow_rejects_a_field_that_is_not_finite(kwargs, name):
    # A NaN displacement would otherwise move every particle out of frame 2.
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        FlowSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "uniform", "dx": "3"}, "dx must be a number, got '3'"),
        ({"kind": "uniform", "dx": None}, "dx must be a number, got None"),
        ({"kind": "uniform", "dx": True}, "dx must be a number, got True"),
        ({"kind": "uniform", "dx": np.array([1.0, 2.0])}, r"dx must be a number, got array\(\[1\., 2\.\]\)"),
        ({"kind": "vortex", "center": 5.0, "strength": 0.1}, r"center must be an \(x, y\) pair, got 5\.0"),
        ({"kind": "vortex", "center": (1.0, 2.0, 3.0), "strength": 0.1}, r"center must be an \(x, y\) pair"),
        ({"kind": "vortex", "center": [[1.0, 2.0], 3.0], "strength": 0.1}, r"center must be an \(x, y\) pair"),
        ({"kind": "vortex", "center": ("a", 1.0), "strength": 0.1}, "center must be a number, got 'a'"),
    ],
    ids=["string", "none", "bool", "array", "scalar-center", "three-centers", "ragged-center", "string-center"],
)
def test_flow_rejects_a_field_that_is_not_a_number(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        FlowSpec(**kwargs)


def test_flow_stores_plain_floats_and_hashes_by_value():
    flow = FlowSpec.vortex([5.0, 6.0], np.float32(0.25))
    assert flow.center == (5.0, 6.0) and type(flow.center) is tuple
    assert all(type(v) is float for v in (flow.dx, flow.dy, flow.rate, flow.strength, *flow.center))
    assert hash(flow) == hash(FlowSpec.vortex((5, 6), 0.25))
    assert flow == FlowSpec.vortex(np.array([5.0, 6.0]), 0.25)
    assert type(FlowSpec.uniform(np.float32(0.5), np.int64(2)).dy) is float
    assert FlowSpec.uniform(10**30, 0).dx == 1e30  # beyond int64, not beyond float


@pytest.mark.parametrize("kind", [None, "spiral", ["uniform"]], ids=["none", "spiral", "list"])
def test_flow_rejects_an_unknown_kind(kind):
    with pytest.raises(ConfigError, match=rf"^unknown flow kind {re.escape(repr(kind))}$"):
        FlowSpec(kind=kind)


def test_flow_compares_an_unused_array_field_by_value():
    FlowSpec(kind="uniform", dx=1, center=np.array([0.0, 0.0]))
    with pytest.raises(ConfigError, match="does not use center"):
        FlowSpec(kind="uniform", dx=1, center=np.array([1.0, 0.0]))


def test_particle_field_copies_the_callers_positions():
    pos = np.array([[1.0, 2.0]])
    f = ParticleField(positions=pos, radius=1.0)
    pos[0, 0] = 3.0
    np.testing.assert_array_equal(f.positions, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        f.positions[0, 0] = 3.0


_ENTRY_ARGUMENTS = [(advect, "field"), (advect, "flow"), (render, "field"), (render, "cfg"),
                    (render_pair, "field"), (render_pair, "flow"), (render_pair, "cfg")]


@pytest.mark.parametrize(
    "function, name", _ENTRY_ARGUMENTS, ids=[f"{f.__name__}-{name}" for f, name in _ENTRY_ARGUMENTS]
)
def test_synth_entry_points_reject_an_argument_of_the_wrong_type(function, name):
    good = {"field": seed_particles(32, 32, 2, seed=0), "flow": FlowSpec.uniform(1, 0), "cfg": RenderConfig(32, 32)}
    kwargs = {arg: good[arg] for arg in inspect.signature(function).parameters}
    kind = type(kwargs[name]).__name__
    for wrong in (np.zeros((3, 2)), {"kind": "uniform"}, None):
        kwargs[name] = wrong
        with pytest.raises(ConfigError, match=f"^{name} must be a {kind}, got {type(wrong).__name__}$"):
            function(**kwargs)


def test_advect_identity_flow():
    f = seed_particles(64, 64, 5, seed=8)
    moved = advect(f, FlowSpec.uniform(0, 0))
    np.testing.assert_array_equal(moved.positions, f.positions)


def test_advect_uniform_shift():
    f = seed_particles(64, 64, 5, seed=8)
    moved = advect(f, FlowSpec.uniform(3, 1))
    np.testing.assert_allclose(moved.positions, f.positions + [3, 1])


def test_advect_shear_definition():
    f = ParticleField(positions=np.array([[50.0, 100.0]]), radius=2.0)
    moved = advect(f, FlowSpec.shear(0.1))
    np.testing.assert_allclose(moved.positions, [[60.0, 100.0]])


def test_advect_vortex_rotates_about_center():
    f = ParticleField(positions=np.array([[20.0, 10.0]]), radius=2.0)
    moved = advect(f, FlowSpec.vortex((10.0, 10.0), np.pi / 2))
    np.testing.assert_allclose(moved.positions, [[10.0, 20.0]], atol=1e-12)


def test_render_no_particles_constant_background():
    f = ParticleField(positions=np.empty((0, 2)), radius=2.0)
    cfg = RenderConfig(width=48, height=40, background=77)
    f1, f2 = render_pair(f, FlowSpec.uniform(3, 0), cfg)
    assert (f1.data == 77).all() and (f2.data == 77).all()


@pytest.mark.parametrize(
    "flow", [FlowSpec.uniform(3, 1), FlowSpec.shear(0.1), FlowSpec.vortex((5.0, 5.0), 0.1)],
    ids=["uniform", "shear", "vortex"],
)
def test_an_empty_field_advects_and_renders_under_every_flow(flow):
    moved = advect(ParticleField(positions=np.empty((0, 2)), radius=2.0), flow)
    assert moved.positions.shape == (0, 2)
    cfg = RenderConfig(width=48, height=40, background=77)
    img = render(moved, cfg)
    assert img.shape == (40, 48) and (img == 77).all()


def test_render_disc_moves_with_flow():
    f = ParticleField(positions=np.array([[16.0, 16.0]]), radius=1.0)
    cfg = RenderConfig(width=32, height=32)
    f1, f2 = render_pair(f, FlowSpec.uniform(3, 0), cfg)
    assert f1.data[16, 16] == cfg.particle_intensity
    assert f2.data[16, 19] == cfg.particle_intensity
    assert f2.data[16, 16] == cfg.background


def test_render_pair_paints_only_the_two_levels():
    # Overlapping discs and discs cut by every frame edge still paint no third level.
    edges = [[-1.0, 20.0], [20.0, -2.5], [47.5, 20.0], [20.0, 40.2], [0.0, 0.0], [47.9, 39.9]]
    overlapping = [[24.0, 20.0], [25.0, 20.5], [24.5, 21.0]]
    dense = seed_particles(48, 40, 40, seed=4, radius=3.0).positions
    field = ParticleField(positions=np.vstack([edges, overlapping, dense]), radius=3.0)
    cfg = RenderConfig(width=48, height=40)
    for frame in render_pair(field, FlowSpec.vortex((24.0, 20.0), 0.2), cfg):
        assert set(np.unique(frame.data)) == {cfg.background, cfg.particle_intensity}


def test_partial_exit_keeps_particles():
    f = ParticleField(positions=np.array([[30.0, 16.0]]), radius=2.0)
    moved = advect(f, FlowSpec.uniform(10, 0))
    assert moved.count == 1  # kept even though it leaves a 32px frame
    small = RenderConfig(width=32, height=32)
    assert (render(moved, small) == small.background).all()  # x = 40 lies outside
    large = RenderConfig(width=64, height=64)
    assert (render(moved, large) > large.background).any()


def test_recovery_rate_uniform_flows():
    # Spot-check of the ground-truth recovery property on a few flows.
    cfg = PivConfig()
    for dx, dy in [(0, 0), (8, 8), (-8, 8), (5, -3)]:
        total = hits = 0
        for seed in range(3):
            field = seed_particles(320, 256, 10, seed=seed)
            flow = FlowSpec.uniform(dx, dy)
            f1, f2 = render_pair(field, flow, RenderConfig())
            out = compute_field(f1, f2, cfg)
            total += len(out.vectors)
            hits += sum(1 for v in out.vectors if (v.dx, v.dy) == (dx, dy))
        assert hits / total >= 0.95, f"flow ({dx},{dy}): {hits}/{total}"


def interior_particle_counts(
    field: ParticleField, flow: FlowSpec, window_size: int, pattern_size: int,
    width: int, height: int,
) -> np.ndarray:
    """Per-window count of particles whose disc lies fully inside the
    frame-1 block that sources the frame-2 pattern.

    Only meaningful for uniform integer flows, where that block is the
    centered pattern block shifted back by the displacement.
    """
    cols = width // window_size
    rows = height // window_size
    off = (window_size - pattern_size) // 2
    counts = np.zeros(rows * cols, dtype=int)
    if field.count == 0:
        return counts
    x, y = field.positions[:, 0], field.positions[:, 1]
    r = field.radius
    for wy in range(rows):
        for wx in range(cols):
            bx = wx * window_size + off - flow.dx
            by = wy * window_size + off - flow.dy
            ok = (
                (x - r >= bx)
                & (x + r <= bx + pattern_size - 1)
                & (y - r >= by)
                & (y + r <= by + pattern_size - 1)
            )
            counts[wy * cols + wx] = int(ok.sum())
    return counts


def test_windows_with_three_interior_particles_recover_exactly():
    cfg = PivConfig()
    for seed, (dx, dy) in [(0, (4, 2)), (1, (-8, 8)), (2, (8, -8)), (3, (0, 0))]:
        field = seed_particles(320, 256, 10, seed=seed)
        flow = FlowSpec.uniform(dx, dy)
        f1, f2 = render_pair(field, flow, RenderConfig())
        out = compute_field(f1, f2, cfg)
        interior = interior_particle_counts(field, flow, 32, 16, 320, 256)
        for idx, v in enumerate(out.vectors):
            if interior[idx] >= 3:
                assert (v.dx, v.dy) == (dx, dy), f"window {idx} seed {seed}"
