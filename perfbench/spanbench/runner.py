"""Run one workload in this process and assemble its metrics."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import THREAD_VARIABLES, WORKLOADS, workloads
from .tracer import Tracer

# The CPU speed of a shared machine drifts by a quarter or more over seconds,
# and a fixed loop of small numpy calls slows down with the program. The loop
# is therefore timed before and after each set-up and each round, and every
# timing is divided by the interval's slowness: the mean of the two loop times
# over REFERENCE_LOOP_S. A timing then reads as seconds on a machine where the
# loop takes REFERENCE_LOOP_S. Unscaled wall-clock figures go to the result file.
REFERENCE_LOOP_S = 0.015
_LOOP_MATRIX = np.random.default_rng(0).random((64, 64))


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small numpy calls, like the program's own."""
    row = _LOOP_MATRIX[0]
    t0 = time.perf_counter()
    for _ in range(4000):
        (_LOOP_MATRIX @ row).sum()
    return time.perf_counter() - t0


# End-to-end metrics, in output order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "items_per_s": "1/s",
    "infer_items_per_s": "1/s",
    "infer_latency_p50_ms": "ms",
}

# The workload-specific names of the figures, with their units.
PHASE_UNITS = {
    "tagger_train_utt_per_s": "utt/s",
    "tagger_decode_utt_per_s": "utt/s",
    "global_local_train_spans_per_s": "spans/s",
    "span_cnn_train_spans_per_s": "spans/s",
    "classifier_eval_spans_per_s": "spans/s",
    "predict_utt_per_s": "utt/s",
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def _build(name: str, seed: int, sizes: workloads.Sizes, tracer: Tracer, workdir: Path):
    if name == "tagger-train":
        return workloads.TaggerTrain(seed, sizes, tracer)
    if name == "classifier-train":
        return workloads.ClassifierTrain(seed, sizes, tracer)
    return workloads.Predict(seed, sizes, tracer, workdir)


def _slowness(loops: list[float]) -> list[float]:
    """Per interval between loop samples: mean loop time over its reference time."""
    return [(a + b) / (2.0 * REFERENCE_LOOP_S) for a, b in zip(loops[:-1], loops[1:])]


def _figures(setup_times, rounds, latencies, setup_slow, round_slow) -> dict:
    """Medians over set-ups and rounds of times divided by the interval's slowness."""
    def rate(items, seconds):
        return statistics.median(items(r) * k / seconds(r) for r, k in zip(rounds, round_slow))

    lat_ms = np.concatenate([np.asarray(lat) / k for lat, k in zip(latencies, round_slow)]) * 1000.0
    latency = {"samples": int(lat_ms.size), "p50_ms": float(np.percentile(lat_ms, 50))}
    if lat_ms.size >= 1000:  # at least ten samples beyond the 99th percentile
        latency["p99_ms"] = float(np.percentile(lat_ms, 99))
    return {
        "setup_s": statistics.median(t / k for t, k in zip(setup_times, setup_slow)),
        "items_per_s": rate(lambda r: r.items, lambda r: r.seconds),
        "infer_items_per_s": rate(lambda r: r.infer_items, lambda r: r.infer_seconds),
        "latency": latency,
        "phases": {
            key: rate(lambda r: r.phases[key][0], lambda r: r.phases[key][1]) for key in rounds[0].phases
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 sizes: workloads.Sizes | None = None) -> dict:
    """Set up ``sizes.setups`` times, then run timed rounds and check them.

    Returns the result record: correctness, operation counts, the
    end-to-end metrics (medians, scaled to the reference speed) and, when
    traced, per-layer ones (unscaled).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    sizes = sizes or workloads.Sizes()
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        setup_times, setup_loops = [], [reference_loop()]
        bench = None
        for _ in range(sizes.setups):
            if bench is not None:
                bench.close()
                bench = None
            t0 = time.perf_counter()
            bench = _build(name, seed, sizes, tracer, workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_loops.append(reference_loop())
        try:
            with tracer.pause():
                bench.start()
            rounds, round_loops, latencies, problems = [], [reference_loop()], [], []
            failed = 0
            timed = covered = 0.0
            while len(rounds) < workloads.MIN_ROUNDS or timed < seconds:
                before = tracer.covered_s
                rounds.append(bench.run_round(len(rounds)))
                round_loops.append(reference_loop())
                timed += rounds[-1].seconds
                covered += tracer.covered_s - before
                with tracer.pause():
                    n_failed, found, lat = bench.check_round(len(rounds) - 1)
                failed += n_failed
                problems += found
                latencies.append(lat)
            with tracer.pause():
                found, extra = bench.finish()
            failed += len(found)
            problems += found
        finally:
            bench.close()
    finally:
        tracer.uninstall()

    # slowness of the machine during each set-up and round, 1.0 at reference speed
    setup_slow = _slowness(setup_loops)
    round_slow = _slowness(round_loops)
    wall = _figures(setup_times, rounds, latencies, [1.0] * len(setup_times), [1.0] * len(rounds))
    scaled = _figures(setup_times, rounds, latencies, setup_slow, round_slow)
    metrics = {
        "setup_s": scaled["setup_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": scaled["items_per_s"],
        "infer_items_per_s": scaled["infer_items_per_s"],
        "infer_latency_p50_ms": scaled["latency"]["p50_ms"],
    }
    attempted = sum(r.items for r in rounds)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems[:50],
        "rounds": len(rounds),
        "wall_clock": wall,
        "reference_loop_s": {"set_up": setup_loops, "rounds": round_loops},
        "round_seconds": [[r.seconds, r.infer_seconds] for r in rounds],
        "timed_s": timed,
        "setup_times_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "workload_figures": {k: {"value": v, "unit": PHASE_UNITS[k]} for k, v in scaled["phases"].items()},
        "latency": scaled["latency"],
        "checks": extra,
        "environment": environment(),
    }
    if trace:
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in tracer.per_layer().items()}
        result["trace_coverage"] = covered / timed
        result["tracer"] = tracer
    return result
