"""Spans around the package functions that ``compute_field`` calls.

The wrappers live here, not in ``src/``: ``instrument`` swaps each attribute
in ``STAGES`` for a recording wrapper and puts the original back on exit.
An attribute that no longer exists is reported absent and skipped; the time
it would have covered then stays in the self time of ``compute_field``,
reported as ``piv.other``.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

ROOT = "piv.compute_field"

# (owner, attribute, stage): the names compute_field looks up while it runs.
STAGES = (
    ("ringpiv.piv", "binarize_frame", "piv.binarize"),
    ("ringpiv.piv", "_split_windows", "piv.split"),
    ("ringpiv.piv", "_pack_window_rows", "piv.pack"),
    ("ringpiv.piv", "_packed_xcorr_batch", "piv.correlate"),
    ("ringpiv.piv", "peak_displacement", "piv.peak"),
    ("ringpiv.images:BinaryImage", "from_bool", "images.from_bool"),
    ("ringpiv.images:BinaryImage", "to_bool", "images.to_bool"),
)


class SpanRecorder:
    """Spans (name, start, end, parent) kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0)
            open_.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str) -> np.ndarray:
        """Duration in ns of every span called name, in call order."""
        nid = self._ids[name]
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return dur[ids == nid]

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per name: (total self time in ns, number of spans).

        Self time is a span's duration minus the durations of its direct
        children, so the self times of one root's tree sum to the root's
        duration.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - children.astype(np.int64)
        return {
            name: (int(own[ids == i].sum()), int(np.count_nonzero(ids == i)))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _owner(spec: str):
    module, _, qualname = spec.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


@contextmanager
def patched(targets):
    """Set each (owner, attribute, make_replacement) for the duration of the block.

    ``make_replacement`` receives the current function and returns its
    stand-in; classmethods and staticmethods keep their descriptor type.
    Yields the (owner spec, attribute) pairs that could not be found.
    Every attribute that was replaced is restored on exit.
    """
    saved, missing = [], []
    try:
        for spec, attr, make in targets:
            try:
                owner = _owner(spec)
            except (ImportError, AttributeError):
                missing.append((spec, attr))
                continue
            raw = vars(owner).get(attr)
            if raw is None:
                missing.append((spec, attr))
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield missing
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


@contextmanager
def instrument(recorder: SpanRecorder, stages=STAGES):
    """Record a span around every stage function; yields the absent stage names."""
    stage_of = {(spec, attr): stage for spec, attr, stage in stages}
    targets = [
        (spec, attr, lambda fn, stage=stage: recorder.wrap(fn, stage))
        for spec, attr, stage in stages
    ]
    with patched(targets) as missing:
        yield [stage_of[m] for m in missing]


def layer_metrics(
    recorder: SpanRecorder, stages, pairs: int, windows: int, placements: int
) -> dict[str, float]:
    """Per-pair self time and call count of every stage, plus ``piv.other``.

    ``piv.other.self_ms`` is the root's own time: what ``compute_field``
    spent outside every wrapped stage.  Self times are means per pair so that
    the stages and ``piv.other`` add up to ``piv.compute_field.ms``.
    """
    totals = recorder.totals()
    root_ns, _ = totals[ROOT]
    out = {
        "piv.compute_field.ms": float(recorder.durations(ROOT).sum()) / pairs / 1e6,
        "piv.other.self_ms": root_ns / pairs / 1e6,
    }
    for _, _, stage in stages:
        own_ns, calls = totals.get(stage, (0, 0))
        out[f"{stage}.self_ms"] = own_ns / pairs / 1e6
        out[f"{stage}.calls"] = calls / pairs
    own_ns, _ = totals.get("piv.correlate", (0, 0))
    out["piv.correlate.ns_per_placement"] = own_ns / (pairs * windows * placements)
    return out
