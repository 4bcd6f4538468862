import numpy as np
import pytest

from ringpiv import (
    ConfigError,
    FlowSpec,
    PivConfig,
    RenderConfig,
    advect,
    compute_field,
    render_pair,
    seed_particles,
)
from ringpiv.synth import ParticleField, render


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


@pytest.mark.parametrize("density", [float("nan"), float("inf"), -1.0])
def test_seeding_rejects_a_density_that_is_not_positive_and_finite(density):
    with pytest.raises(ConfigError, match="density must be a positive finite number"):
        seed_particles(320, 256, density, seed=1)


@pytest.mark.parametrize("width, height", [(0, 256), (320, -1)])
def test_seeding_rejects_a_frame_that_is_not_positive(width, height):
    with pytest.raises(ConfigError, match="width and height must be positive"):
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
    f = seed_particles(np.int64(64), np.uint16(32), np.float32(10), seed=0)
    assert f.positions.shape[1] == 2 and f.count > 0


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
        ParticleField(positions=positions, radius=1.0, seed=0)


@pytest.mark.parametrize("kwargs", [{"width": 0}, {"height": -8}])
def test_render_config_rejects_a_frame_that_is_not_positive(kwargs):
    with pytest.raises(ConfigError, match="width and height must be positive"):
        RenderConfig(**kwargs)


@pytest.mark.parametrize("radius", [-2.0, 0.0, float("nan"), float("inf")])
def test_particle_field_rejects_a_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(ConfigError, match="radius must be a positive finite number"):
        seed_particles(64, 64, 10, seed=1, radius=radius)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"background": 100.7}, "background"),
        ({"particle_intensity": 900.9}, "particle_intensity"),
        ({"noise_amplitude": 2.5}, "noise_amplitude"),
        ({"width": 320.0}, "width"),
        ({"height": True}, "height"),
    ],
)
def test_render_config_rejects_non_integers(kwargs, name):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        RenderConfig(**kwargs)


def test_render_config_stores_numpy_integers_as_int():
    cfg = RenderConfig(width=np.int64(64), background=np.uint16(77), noise_amplitude=np.int32(3))
    assert all(type(getattr(cfg, name)) is int for name in ("width", "background", "noise_amplitude"))


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
    FlowSpec(**{**kwargs, unused: FlowSpec.__dataclass_fields__[unused].default})


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"kind": "uniform", "dx": float("nan")}, "dx"),
        ({"kind": "uniform", "dx": 1.0, "dy": float("-inf")}, "dy"),
        ({"kind": "shear", "rate": float("inf")}, "rate"),
        ({"kind": "vortex", "center": (5.0, 5.0), "strength": float("nan")}, "strength"),
        ({"kind": "vortex", "center": (float("nan"), 5.0), "strength": 0.1}, "center"),
    ],
    ids=["uniform-dx", "uniform-dy", "shear-rate", "vortex-strength", "vortex-center"],
)
def test_flow_rejects_a_field_that_is_not_finite(kwargs, name):
    # A NaN displacement would otherwise move every particle out of frame 2.
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        FlowSpec(**kwargs)


def test_flow_compares_an_unused_array_field_by_value():
    FlowSpec(kind="uniform", dx=1, center=np.array([0.0, 0.0]))
    with pytest.raises(ConfigError, match="does not use center"):
        FlowSpec(kind="uniform", dx=1, center=np.array([1.0, 0.0]))


def test_particle_field_copies_the_callers_positions():
    pos = np.array([[1.0, 2.0]])
    f = ParticleField(positions=pos, radius=1.0, seed=0)
    pos[0, 0] = 3.0
    np.testing.assert_array_equal(f.positions, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        f.positions[0, 0] = 3.0


def test_advect_identity_flow():
    f = seed_particles(64, 64, 5, seed=8)
    moved = advect(f, FlowSpec.uniform(0, 0))
    np.testing.assert_array_equal(moved.positions, f.positions)


def test_advect_uniform_shift():
    f = seed_particles(64, 64, 5, seed=8)
    moved = advect(f, FlowSpec.uniform(3, 1))
    np.testing.assert_allclose(moved.positions, f.positions + [3, 1])


def test_advect_shear_definition():
    f = ParticleField(positions=np.array([[50.0, 100.0]]), radius=2.0, seed=0)
    moved = advect(f, FlowSpec.shear(0.1))
    np.testing.assert_allclose(moved.positions, [[60.0, 100.0]])


def test_advect_vortex_rotates_about_center():
    f = ParticleField(positions=np.array([[20.0, 10.0]]), radius=2.0, seed=0)
    moved = advect(f, FlowSpec.vortex((10.0, 10.0), np.pi / 2))
    np.testing.assert_allclose(moved.positions, [[10.0, 20.0]], atol=1e-12)


def test_render_no_particles_constant_background():
    f = ParticleField(positions=np.empty((0, 2)), radius=2.0, seed=0)
    cfg = RenderConfig(width=48, height=40, background=77)
    f1, f2 = render_pair(f, FlowSpec.uniform(3, 0), cfg)
    assert (f1.data == 77).all() and (f2.data == 77).all()


def test_render_disc_moves_with_flow():
    f = ParticleField(positions=np.array([[16.0, 16.0]]), radius=1.0, seed=0)
    cfg = RenderConfig(width=32, height=32)
    f1, f2 = render_pair(f, FlowSpec.uniform(3, 0), cfg)
    assert f1.data[16, 16] == cfg.particle_intensity
    assert f2.data[16, 19] == cfg.particle_intensity
    assert f2.data[16, 16] == cfg.background


def test_render_pair_reproducible_with_noise():
    f = seed_particles(96, 64, 8, seed=5)
    cfg = RenderConfig(width=96, height=64, noise_amplitude=30)
    a1, a2 = render_pair(f, FlowSpec.uniform(2, 2), cfg)
    b1, b2 = render_pair(f, FlowSpec.uniform(2, 2), cfg)
    np.testing.assert_array_equal(a1.data, b1.data)
    np.testing.assert_array_equal(a2.data, b2.data)


def test_partial_exit_keeps_particles():
    f = ParticleField(positions=np.array([[30.0, 16.0]]), radius=2.0, seed=0)
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
