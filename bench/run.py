"""ringpiv benchmark: frame pairs through ``compute_field`` in a closed loop.

    python3 bench/run.py --workload paper|large|wide|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; ``ringpiv`` is imported from ``src/``.  Frames
are rendered from the seed before anything is timed (default: the workload's
own seed).  Each measurement runs in a fresh process with one caller that
sends the next pair only after the previous ``VectorField`` returned.  Every
output is compared with an independent oracle and with the synthetic flow.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the traced
pass in its own process and reports the per-stage metrics.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; machine and
run facts, sample counts and every detail go to
``.bench_out/<workload>-trace<0|1>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from oracle import MIN_HIT_RATE
from workloads import WORKLOADS, Workload, make_inputs

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"

SETUP_REPEATS = 7  # fresh processes timed for setup_s; the median is reported
MIN_CALLS = 100  # so that at least 10 latencies lie beyond the 90th percentile
MIN_TRACED_CALLS = 20
WORKER_TIMEOUT_S = 170
# Every measuring process runs numpy single-threaded.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# For the peak-RSS process only. glibc otherwise raises its mmap threshold as
# large blocks are freed, and the heap it keeps made the same run read
# 100.7 or 109.2 MiB on `wide` from one process to the next.
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def declared() -> dict:
    """The metric names, units and run length that BENCHMARK.json promises."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def worker(mode: str, workdir: Path, extra_env: dict | None = None) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **THREAD_ENV, **(extra_env or {}), "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, str(workdir)],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload: Workload, timed: dict, memory: dict, setups: list[dict]) -> tuple[dict, dict]:
    lat_ms = np.array(timed["latencies_ns"]) / 1e6
    p50, p90 = np.percentile(lat_ms, [50, 90])
    metrics = {
        "vectors_per_s": workload.windows * len(lat_ms) / (lat_ms.sum() / 1e3),
        "pair_ms_p50": p50,
        "pair_ms_p90": p90,
        "peak_rss_mb": memory["peak_rss_mb"],
        "setup_s": float(np.median([s["setup_s"] for s in setups])),
        "hit_rate": timed["hits"] / timed["windows"],
    }
    samples = {
        "pair_ms": len(lat_ms),
        "beyond_p90": int(np.count_nonzero(lat_ms > p90)),
        "setup_s": len(setups),
    }
    return {k: float(v) for k, v in metrics.items()}, samples


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: int,
    setup_repeats: int = SETUP_REPEATS,
    out: Path = OUT,
) -> dict:
    """One run; returns its record, also written to <out>/<workload>-trace<t>/result.json."""
    workdir = out / f"{workload.name}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    np.savez(workdir / "inputs.npz", **make_inputs(workload, seed))
    spec = {
        "config": workload.piv_config(),
        "tolerance": workload.tolerance,
        "windows": workload.windows,
        "placements": workload.placements,
        "seconds": seconds,
        "min_calls": MIN_CALLS,
        "min_traced_calls": MIN_TRACED_CALLS,
    }
    (workdir / "spec.json").write_text(json.dumps(spec))
    try:
        if trace:
            record = worker("traced", workdir)
            metrics = record.pop("metrics")
            pgm_ok = record["pgm_round_trip_ok"]
            attempted, failed = record["attempted"], record["failed"]
        else:
            setups = [worker("setup", workdir) for _ in range(setup_repeats)]
            memory = worker("memory", workdir, MEMORY_ENV)
            record = worker("timed", workdir)
            metrics, record["samples"] = end_to_end(workload, record, memory, setups)
            record.update(setups=setups, memory=memory)
            pgm_ok = True
            attempted = record["attempted"] + memory["attempted"] + len(setups)
            failed = record["failed"] + memory["failed"] + sum(not s["matches_oracle"] for s in setups)
            del record["latencies_ns"]
    finally:
        (workdir / "inputs.npz").unlink()
    hit_rate = record["hits"] / record["windows"] if record["windows"] else 0.0
    doc = declared()
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    correct = failed == 0 and hit_rate >= MIN_HIT_RATE and pgm_ok
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record.update(
        workload=workload.name,
        seed=seed,
        seed_role={workload.default_seed: "default", workload.heldout_seed: "heldout"}.get(seed, "other"),
        seconds=seconds,
        trace=trace,
        error_rate=failed / attempted,
        facts=facts(),
        result=result,
    )
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "threads_env": THREAD_ENV,
        "loop": "closed, 1 caller, 1 process",
    }


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (REPO / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """Identifies the measured code where no git commit is available."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def report(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']}  seed {record['seed']} ({record['seed_role']})  trace {record['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':36s} {record['error_rate']:14.6g} fraction "
          f"({result['failed']} of {result['attempted']} pairs failed)")
    if "samples" in record:
        print(f"  samples: {json.dumps(record['samples'])}")
    if record.get("absent"):
        print(f"  absent stages: {', '.join(record['absent'])}")
    print(f"  facts: {json.dumps(record['facts'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument(
        "--seconds", type=float, default=declared()["run_seconds"], help="length of the timed loop"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ringpiv" / "__init__.py").is_file():
        print(f"ringpiv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        records.append(run_workload(workload, seed, args.seconds, args.trace))
        report(records[-1])
    results = [r["result"] for r in records]
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
