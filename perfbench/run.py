"""Benchmark of spanfeat: training, decoding and streaming prediction.

Usage, from the root of a spanfeat checkout:

    python3 perfbench/run.py --workload tagger-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process. ``--trace 1`` wraps the program's layers
and reports per-layer metrics instead of end-to-end ones. ``--workload all``
runs every workload in a fresh process, untraced and traced, and reports the
tracing overhead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spanbench import THREAD_VARIABLES, WORKLOADS  # noqa: E402  (imports no numpy)

# One BLAS/OpenMP thread: the numbers should measure the program, not the
# scheduler. Set before numpy is imported.
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

ROOT = HERE.parent
SOURCE = ROOT / "src"
RESULTS = HERE / "results"
RUN_TIMEOUT_S = 900


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import spanfeat from this checkout's src/, and nothing else."""
    if not (SOURCE / "spanfeat" / "__init__.py").is_file():
        sys.exit(f"error: {SOURCE / 'spanfeat'} not found; run from a spanfeat checkout")
    sys.path.insert(0, str(SOURCE))
    import spanfeat
    import spanfeat.cli  # noqa: F401  (loads every module before any patching)

    if Path(spanfeat.__file__).resolve().parent != (SOURCE / "spanfeat").resolve():
        sys.exit(f"error: imported spanfeat from {spanfeat.__file__}, not from {SOURCE}")


def _show(result: dict) -> None:
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"rounds={result['rounds']} timed_s={result['timed_s']:.2f}")
    for section in ("end_to_end", "workload_figures"):
        for name, m in result[section].items():
            print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")
    lat = result["latency"]
    print(f"  latency samples={lat['samples']} p50_ms={lat['p50_ms']:.4f}"
          + (f" p99_ms={lat['p99_ms']:.4f}" if "p99_ms" in lat else ""))
    print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")
    if result["trace"]:
        print(f"  timed wall time covered by spans below the outermost: {100 * result['trace_coverage']:.1f}%")
        layers = [(k[: -len(".self_s")], m["value"]) for k, m in result["per_layer"].items()
                  if k.endswith(".self_s") and m["value"] > 0]
        for name, value in sorted(layers, key=lambda kv: -kv[1]):
            calls = result["per_layer"][f"{name}.calls"]["value"]
            print(f"  {name:<42} self_s={value:10.4f} calls={calls}")


def _run_one(args) -> int:
    _import_program()
    from spanbench.runner import run_workload

    RESULTS.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), RESULTS)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.trace.npz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    _show(result)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result[section],
    }))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced; report overhead."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        records = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit code {done.returncode}")
                status = 1
                break
            stem = f"{workload}-seed{args.seed}-trace{trace}"
            records[trace] = json.loads((RESULTS / f"{stem}.json").read_text(encoding="utf-8"))
            if not records[trace]["correct"]:
                status = 1
        if len(records) < 2:
            continue
        plain, traced = records[0], records[1]
        overhead = {
            name: traced["end_to_end"][name]["value"] / plain["end_to_end"][name]["value"] - 1.0
            for name in ("items_per_s", "infer_items_per_s")
        }
        summary[workload] = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": {k: m["value"] for k, m in plain["end_to_end"].items()},
            "workload_figures": {k: m["value"] for k, m in plain["workload_figures"].items()},
            "trace_coverage": traced["trace_coverage"],
            "trace_rate_change": overhead,
        }
        print(f"{workload}: tracing changes items_per_s by {100 * overhead['items_per_s']:+.1f}%, "
              f"infer_items_per_s by {100 * overhead['infer_items_per_s']:+.1f}%; "
              f"spans below the outermost cover {100 * traced['trace_coverage']:.1f}% of timed wall time")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        _import_program()  # fail early outside a checkout
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
