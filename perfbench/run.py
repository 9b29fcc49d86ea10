"""Fixed-work benchmark of the DEX reproduction: surge, serve, cluster.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload surge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh child process (``workload.py``) with a
fixed ``PYTHONHASHSEED``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The exit code is non-zero when an output check fails,
when the child fails, or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("surge", "serve", "cluster")
#: a run must end within 180 s; the child gets slightly less
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: int, trace: int, capture: bool) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    return done.returncode, done.stdout or ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, _ = run_child(args.workload, args.seed, args.seconds, args.trace, capture=False)
        return code

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, text = run_child(workload, args.seed, args.seconds, args.trace, capture=True)
        print(text, end="")
        lines = text.strip().splitlines()
        if code or not lines:
            worst = worst or code or 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
