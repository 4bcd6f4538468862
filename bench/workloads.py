"""Benchmark workloads and the seeded inputs they are rendered from.

Each workload is one fixed geometry, binarization mode and synthetic flow.
Frames come from ``ringpiv.synth`` and are rendered once per run, before
anything is timed; ``compute_field`` only ever sees the finished frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from oracle import oracle_vectors, window_centres


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    window: int
    pattern: int
    binarization: str
    threshold: int | None
    flow: dict = field(hash=False)
    pairs: int = 4  # distinct frame pairs, cycled through by the timed loop
    density: float = 10.0  # particles per 32x32 px
    default_seed: int = 1
    heldout_seed: int = 2

    @property
    def windows(self) -> int:
        return (self.width // self.window) * (self.height // self.window)

    @property
    def placements(self) -> int:
        """Correlation placements per window, s * s with s = w - p + 1."""
        return (self.window - self.pattern + 1) ** 2

    @property
    def tolerance(self) -> int:
        """Pixels a vector may differ from the flow at its window centre.

        A uniform flow is the same everywhere in the window, so it must be
        matched exactly; shear and vortex vary across the pattern.
        """
        return 0 if self.flow["kind"] == "uniform" else 1

    def piv_config(self) -> dict:
        return {
            "window_size": self.window,
            "pattern_size": self.pattern,
            "binarization": self.binarization,
            "threshold": self.threshold,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper", width=320, height=256, window=32, pattern=16,
            binarization="adaptive", threshold=None,
            flow={"kind": "uniform", "dx": 3, "dy": 1}, pairs=16,
        ),
        Workload(
            name="large", width=2048, height=2048, window=32, pattern=16,
            binarization="adaptive", threshold=None,
            flow={"kind": "vortex", "center": (1024.0, 1024.0), "strength": 0.004}, pairs=3,
        ),
        Workload(
            name="wide", width=1280, height=1024, window=64, pattern=48,
            binarization="global", threshold=500,
            flow={"kind": "shear", "rate": 0.005}, pairs=4,
        ),
    )
}


def pair_seed(seed: int, index: int) -> int:
    """Particle seed of the index-th distinct pair of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_inputs(workload: Workload, seed: int) -> dict[str, np.ndarray]:
    """Render the workload's frame pairs and everything they are checked against.

    Returns frames1/frames2 of shape (pairs, height, width) uint16, the flow
    at each window centre (windows, 2), and the oracle's (dx, dy, peak) for
    every window of every pair (pairs, windows, 3).
    """
    from ringpiv.synth import FlowSpec, RenderConfig, render_pair, seed_particles

    flow = FlowSpec(**workload.flow)
    render = RenderConfig(width=workload.width, height=workload.height)
    frames1, frames2 = [], []
    for k in range(workload.pairs):
        particles = seed_particles(
            workload.width, workload.height, workload.density, pair_seed(seed, k)
        )
        f1, f2 = render_pair(particles, flow, render)
        frames1.append(f1.data)
        frames2.append(f2.data)
    cx, cy = window_centres(workload.width, workload.height, workload.window)
    ux, uy = flow.displacement_at(cx, cy)
    cfg = workload.piv_config()
    oracle = [oracle_vectors(a, b, cfg) for a, b in zip(frames1, frames2)]
    return {
        "frames1": np.stack(frames1),
        "frames2": np.stack(frames2),
        "truth": np.column_stack([ux, uy]),
        "oracle": np.stack(oracle),
    }
