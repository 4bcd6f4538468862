"""Tests of the benchmark itself: metrics emitted, gate, oracle and tracing."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from oracle import field_array, gate, oracle_vectors  # noqa: E402
from tracing import ROOT, STAGES, SpanRecorder, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

from ringpiv import Displacement, GrayImage, PivConfig, VectorField, compute_field  # noqa: E402
from ringpiv import piv  # noqa: E402
from ringpiv.images import BinaryImage  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# The three workloads at a few windows each: same modes, flows and geometry rules.
SCALED = {
    "paper": dataclasses.replace(WORKLOADS["paper"], width=128, height=64, pairs=2),
    "large": dataclasses.replace(
        WORKLOADS["large"], width=256, height=256, pairs=2,
        flow={"kind": "vortex", "center": (128.0, 128.0), "strength": 0.004},
    ),
    "wide": dataclasses.replace(WORKLOADS["wide"], width=256, height=128, pairs=2),
}


def frames(workload, seed=3):
    """The first pair of a workload as GrayImages, its config and all its inputs."""
    inputs = make_inputs(workload, seed)
    f1 = GrayImage.from_array(inputs["frames1"][0])
    f2 = GrayImage.from_array(inputs["frames2"][0])
    return f1, f2, PivConfig(**workload.piv_config()), inputs


@pytest.mark.parametrize("name", sorted(SCALED))
@pytest.mark.parametrize("trace", [0, 1])
def test_scaled_workload_emits_every_declared_metric(name, trace, tmp_path):
    record = run.run_workload(SCALED[name], seed=5, seconds=0.2, trace=trace, setup_repeats=1, out=tmp_path)
    result = record["result"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads((tmp_path / f"{name}-trace{trace}" / "result.json").read_text())["result"] == result
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        stages = sum(m[f"{stage}.self_ms"] for _, _, stage in STAGES)
        assert stages + m["piv.other.self_ms"] == pytest.approx(m["piv.compute_field.ms"])
        assert record["absent"] == []
    else:
        assert record["samples"]["pair_ms"] >= run.MIN_CALLS


def test_gate_rejects_one_corrupted_vector():
    workload = SCALED["large"]
    f1, f2, cfg, inputs = frames(workload)
    field = compute_field(f1, f2, cfg)
    oracle, truth = inputs["oracle"][0], inputs["truth"]
    assert gate(field_array(field), oracle, truth, workload.tolerance)[0]
    for bad in (
        lambda v: Displacement(v.dx, v.dy, v.peak_value - 1, v.window_index),
        lambda v: Displacement(v.dx + 1, v.dy, v.peak_value, v.window_index),
    ):
        vectors = list(field.vectors)
        vectors[17] = bad(vectors[17])
        corrupted = VectorField(grid=field.grid, vectors=vectors)
        assert not gate(field_array(corrupted), oracle, truth, workload.tolerance)[0]


def test_oracle_breaks_ties_toward_the_centre():
    flat = np.full((64, 64), 500, dtype=np.uint16)
    cfg = {"window_size": 32, "pattern_size": 16, "binarization": "adaptive", "threshold": None}
    np.testing.assert_array_equal(oracle_vectors(flat, flat, cfg), [[0, 0, 256]] * 4)


def originals():
    return [
        piv.binarize_frame, piv._split_windows, piv._pack_window_rows,
        piv._packed_xcorr_batch, piv.peak_displacement,
        vars(BinaryImage)["from_bool"], vars(BinaryImage)["to_bool"],
    ]


def test_traced_run_reports_a_vanished_name_as_absent():
    workload = SCALED["paper"]
    f1, f2, cfg, _ = frames(workload)
    stages = STAGES + (
        ("ringpiv.piv", "_no_such_stage", "piv.gone"),
        ("ringpiv.images:NoSuchClass", "to_bool", "images.gone"),
    )
    recorder = SpanRecorder()
    with instrument(recorder, stages) as absent:
        field = recorder.wrap(compute_field, ROOT)(f1, f2, cfg)
    assert absent == ["piv.gone", "images.gone"]
    assert len(field.vectors) == workload.windows
    m = layer_metrics(recorder, stages, 1, workload.windows, workload.placements)
    assert m["piv.gone.self_ms"] == 0 and m["piv.gone.calls"] == 0
    assert m["piv.peak.calls"] == workload.windows


def test_wrappers_are_restored_after_the_traced_run():
    before = originals()
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with instrument(recorder):
            assert piv._packed_xcorr_batch is not before[3]
            raise RuntimeError("stop mid-run")
    assert all(a is b for a, b in zip(originals(), before))
