"""One workload in one fresh process (started by ``run.py``).

Runs whole rounds of fixed work until ``--seconds`` have passed, then
prints the per-round medians.  With ``--trace 1`` it alternates untraced
and traced rounds: per-layer metrics come from the traced rounds, the
tracing overhead from comparing the two kinds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

import numpy as np

import tracing
from common import median, quantile, usable_cpus

#: end-to-end metrics, in BENCHMARK.json order: name -> unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "join_per_s": "1/s",
    "leave_per_s": "1/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "msgs_per_event": "count",
    "rounds_per_flush": "count",
    "topology_changes_per_event": "count",
    "spectral_gap": "fraction",
    "dht_msgs_per_op": "count",
    "peak_rss_mb": "MB",
}


def hygiene() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = hygiene()
    record = importlib.import_module(workload).run(seed, seconds, trace)
    rounds = record.rounds
    counted = rounds + [record.warmup]
    attempted = sum(r.attempted for r in counted)
    failed = sum(r.failed for r in counted)
    refused = sum(r.refused for r in counted)
    correct = not record.errors

    env["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    env["usable_cpus"] = usable_cpus()
    print(json.dumps({"workload": workload, "seed": seed, "rounds": len(rounds), "env": env}))
    for r in rounds:
        row = {
            "round": "traced" if r.traced else "plain",
            "setup_s": round(r.setup_s, 4),
            "window_s": round(r.window_s, 4),
            "attempted": r.attempted,
            "failed": r.failed,
            "refused": r.refused,
            "metrics": {k: round(v, 4) for k, v in r.metrics.items()},
            "notes": r.notes,
            "failures": r.failures,
        }
        print(json.dumps(row))
    for error in record.errors:
        print(f"# CHECK FAILED: {error}")
    for r in rounds:
        if r.traced:
            print("\n".join(r.tables))
            break
    print(f"# attempted={attempted} failed={failed} refused={refused}")

    plain = [r for r in rounds if not r.traced]
    if trace:
        traced = [r for r in rounds if r.traced]
        metrics = {
            name: {"value": median(r.layers[name] for r in traced), "unit": unit}
            for name, unit in tracing.PER_LAYER_UNITS.items()
        }
        window = median(r.window_s for r in traced) / median(r.window_s for r in plain)
        metrics["obs.trace_overhead_frac"]["value"] = window - 1
        metrics["cpu.busy_frac"]["value"] = median(r.notes["cpu_busy_frac"] for r in plain)
        print(f"# tracing overhead: {window - 1:+.1%} on the measured window (traced vs untraced median)")
    else:
        metrics = {
            name: {"value": median(r.metrics[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        # Percentiles pool the samples of every untraced round: a round's
        # own p99 rests on a few dozen samples and moved by a quarter
        # between runs, where the median of per-round values is no tail.
        pooled = [x for r in plain for x in r.latency]
        metrics["ack_p50_ms"]["value"] = 1e3 * quantile(pooled, 0.50)
        metrics["ack_p99_ms"]["value"] = 1e3 * quantile(pooled, 0.99)
        width = max(len(n) for n in metrics)
        for name, m in metrics.items():
            print(f"# {name:<{width}} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("surge", "serve", "cluster"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
