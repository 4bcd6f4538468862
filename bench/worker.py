"""Measuring processes started by run.py, each in a fresh interpreter.

    python3 bench/worker.py setup|timed|memory|traced WORKDIR

WORKDIR holds ``inputs.npz`` and ``spec.json`` written by run.py.  The
result is printed as one JSON line on stdout.  numpy is imported here, at
start-up; ``ringpiv`` is imported only once a mode begins, so that ``setup``
can time the import.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from oracle import MIN_HIT_RATE, field_array, gate


class Pairs:
    """The workload's frame pairs, the closed loop that calls them, and its correctness tally.

    One caller: the next pair goes in only after the previous ``VectorField``
    has returned.  Every output is gated against the oracle outside the timed
    call.
    """

    def __init__(self, spec: dict, inputs: dict):
        from ringpiv import GrayImage, PivConfig

        # The raw arrays are dropped once copied, so that peak RSS holds the frames once.
        self.frames = [
            (GrayImage.from_array(a), GrayImage.from_array(b))
            for a, b in zip(inputs.pop("frames1"), inputs.pop("frames2"))
        ]
        self.cfg = PivConfig(**spec["config"])
        self.oracle = inputs["oracle"]
        self.truth = inputs["truth"]
        self.tolerance = spec["tolerance"]
        self.attempted = self.failed = self.hits = self.windows = 0
        self.below_hit_bound = 0
        self.min_pair_hit_rate = 1.0
        self.error = None

    def check(self, field, k: int) -> None:
        matches, hits = gate(field_array(field), self.oracle[k], self.truth, self.tolerance)
        n = len(self.truth)
        self.failed += not matches
        self.hits += hits
        self.windows += n
        self.below_hit_bound += hits < MIN_HIT_RATE * n
        self.min_pair_hit_rate = min(self.min_pair_hit_rate, hits / n)

    def run(self, call, seconds: float, min_calls: int) -> list[int]:
        """Call ``call(frame1, frame2, cfg)`` until both limits are met; ns per call."""
        latencies = []
        deadline = time.perf_counter() + seconds
        for calls in itertools.count():
            if calls >= min_calls and time.perf_counter() >= deadline:
                return latencies
            k = calls % len(self.frames)
            f1, f2 = self.frames[k]
            self.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                field = call(f1, f2, self.cfg)
            except Exception:  # a failed pair is tallied; the loop goes on
                self.failed += 1
                self.error = self.error or traceback.format_exc()
                continue
            latencies.append(time.perf_counter_ns() - t0)
            self.check(field, k)

    def tally(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "hits": self.hits,
            "windows": self.windows,
            "pairs_below_hit_bound": self.below_hit_bound,
            "min_pair_hit_rate": self.min_pair_hit_rate,
            "error": self.error,
        }


def warmed_pairs(spec: dict, inputs: dict) -> Pairs:
    """Pairs after one checked, untimed call on each distinct pair."""
    from ringpiv import compute_field

    pairs = Pairs(spec, inputs)
    pairs.run(compute_field, 0.0, len(pairs.frames))
    return pairs


def setup(spec: dict, inputs: dict, workdir: Path) -> dict:
    """``import ringpiv`` plus one cold ``compute_field`` on the first pair."""
    f1, f2 = inputs["frames1"][0], inputs["frames2"][0]
    t0 = time.perf_counter()
    import ringpiv

    field = ringpiv.compute_field(
        ringpiv.GrayImage.from_array(f1),
        ringpiv.GrayImage.from_array(f2),
        ringpiv.PivConfig(**spec["config"]),
    )
    seconds = time.perf_counter() - t0
    matches, hits = gate(field_array(field), inputs["oracle"][0], inputs["truth"], spec["tolerance"])
    return {"setup_s": seconds, "matches_oracle": matches, "hits": hits}


def timed(spec: dict, inputs: dict, workdir: Path) -> dict:
    """Closed loop over the pairs for ``seconds``, no instrumentation."""
    from ringpiv import compute_field

    pairs = warmed_pairs(spec, inputs)
    latencies = pairs.run(compute_field, spec["seconds"], spec["min_calls"])
    return {"latencies_ns": latencies, **pairs.tally()}


def memory(spec: dict, inputs: dict, workdir: Path) -> dict:
    """Peak RSS over two checked passes through the pairs.

    run.py starts this process with a fixed glibc mmap threshold, so that
    the peak follows what numpy holds, not where malloc left its heap top.
    """
    from ringpiv import compute_field

    pairs = warmed_pairs(spec, inputs)
    pairs.run(compute_field, 0.0, len(pairs.frames))
    return {"peak_rss_mb": peak_rss_mb(), **pairs.tally()}


def peak_rss_mb() -> float:
    """High-water RSS of this process image (VmHWM), in MiB.

    Not ru_maxrss: Linux carries that over from the parent through fork and
    exec, so it would report run.py's own footprint whenever that is larger.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def traced(spec: dict, inputs: dict, workdir: Path) -> dict:
    """Untraced loop, traced loop, one tracemalloc pass and the PGM round trip."""
    from ringpiv import compute_field

    from tracing import ROOT, STAGES, SpanRecorder, instrument, layer_metrics

    pairs = warmed_pairs(spec, inputs)
    half = spec["seconds"] / 2
    untraced = pairs.run(compute_field, half, spec["min_traced_calls"])
    recorder = SpanRecorder()
    with instrument(recorder) as absent:
        pairs.run(recorder.wrap(compute_field, ROOT), half, spec["min_traced_calls"])
    calls = recorder.durations(ROOT)
    metrics = layer_metrics(recorder, STAGES, len(calls), spec["windows"], spec["placements"])
    metrics["trace.overhead"] = float(np.median(calls) / np.median(untraced))
    metrics.update(alloc_peaks(pairs))
    pgm_metrics, pgm_ok = pgm_round_trip(pairs.frames[0], workdir)
    metrics.update(pgm_metrics)
    recorder.save(workdir / "spans.npz")
    return {
        "metrics": metrics,
        "absent": absent,
        "traced_calls": len(calls),
        "untraced_calls": len(untraced),
        "pgm_round_trip_ok": pgm_ok,
        **pairs.tally(),
    }


def alloc_peaks(pairs: Pairs) -> dict:
    """tracemalloc peak, in MiB, of one compute_field call and of its correlate stage.

    Two calls, because the inner measurement resets the peak the outer one reads.
    """
    import tracemalloc

    from ringpiv import compute_field

    from tracing import patched

    peaks = {"piv.compute_field": 0, "piv.correlate": 0}

    def measured(fn, name):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1] - base)

        return wrapper

    f1, f2 = pairs.frames[0]
    tracemalloc.start()
    try:
        measured(compute_field, "piv.compute_field")(f1, f2, pairs.cfg)
        correlate = [("ringpiv.piv", "_packed_xcorr_batch", lambda fn: measured(fn, "piv.correlate"))]
        with patched(correlate):
            compute_field(f1, f2, pairs.cfg)
    finally:
        tracemalloc.stop()
    return {f"{name}.alloc_peak_mb": peak / 2**20 for name, peak in peaks.items()}


PGM_REPEATS = 5


def pgm_round_trip(images, workdir: Path) -> tuple[dict, bool]:
    """Median ms to write and to read one frame of the first pair as P5.

    Each write goes to a new file: rewriting a file that was just written
    makes ext4 flush it on close, which would time the disk, not write_pgm.
    """
    from ringpiv.pgm import read_pgm, write_pgm

    writes, reads, ok = [], [], True
    for img in images:
        for _ in range(PGM_REPEATS):
            path = workdir / "frame.pgm"
            t0 = time.perf_counter_ns()
            write_pgm(path, img)
            t1 = time.perf_counter_ns()
            back = read_pgm(path)
            t2 = time.perf_counter_ns()
            path.unlink()
            writes.append(t1 - t0)
            reads.append(t2 - t1)
            ok &= bool(np.array_equal(back.data, img.data))
    metrics = {"pgm.write_pgm.ms": np.median(writes) / 1e6, "pgm.read_pgm.ms": np.median(reads) / 1e6}
    return {k: float(v) for k, v in metrics.items()}, ok


MODES = {"setup": setup, "timed": timed, "memory": memory, "traced": traced}


def main(argv: list[str]) -> None:
    mode, workdir = MODES[argv[0]], Path(argv[1])
    spec = json.loads((workdir / "spec.json").read_text())
    with np.load(workdir / "inputs.npz") as npz:
        inputs = {key: npz[key] for key in npz.files}
    print(json.dumps(mode(spec, inputs, workdir)))


if __name__ == "__main__":
    main(sys.argv[1:])
