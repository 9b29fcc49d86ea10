"""Shared pieces of the three workloads: the per-round result, the
stopwatch that keeps check time out of the measured window, and plain
readers of program state."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Round:
    """One round of fixed work: its set-up time, its measured window,
    its end-to-end metrics and its operation counts."""

    setup_s: float = 0.0
    window_s: float = 0.0
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    #: failed output checks (a failed operation is counted, not listed)
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)
    tables: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)
    #: ack latency samples in seconds; a run's percentiles pool them
    latency: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Count one failed operation, keeping the first few messages."""
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)


@dataclass
class RunRecord:
    """A whole run of one workload: the untimed warm-up round, the
    measured rounds and every failed output check."""

    warmup: Round
    rounds: list[Round] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def run_rounds(
    run_round: Callable[[int, bool, float], Round],
    seed: int,
    seconds: float,
    trace: bool,
    warmup_scale: float,
) -> RunRecord:
    """Whole rounds, each set up from scratch with seed ``1000*seed + i``,
    until ``seconds`` have passed; with ``trace`` every other round is
    traced.  An untimed warm-up round at ``warmup_scale`` runs first."""
    record = RunRecord(warmup=run_round(seed * 1000 + 999, False, warmup_scale))
    record.errors += record.warmup.errors
    start = time.perf_counter()
    while True:
        i = len(record.rounds)
        r = run_round(seed * 1000 + i, trace and i % 2 == 1, 1.0)
        record.rounds.append(r)
        record.errors += r.errors
        if time.perf_counter() - start >= seconds and (not trace or i >= 1):
            return record


class Stopwatch:
    """Accumulates running time; ``paused()`` blocks are excluded."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._since: float | None = None

    def start(self) -> None:
        self._since = time.perf_counter()

    def stop(self) -> float:
        if self._since is not None:
            self.elapsed += time.perf_counter() - self._since
            self._since = None
        return self.elapsed

    def paused(self) -> "_Pause":
        return _Pause(self)


class _Pause:
    def __init__(self, watch: Stopwatch) -> None:
        self.watch = watch

    def __enter__(self) -> None:
        self.watch.stop()

    def __exit__(self, *exc: object) -> None:
        self.watch.start()


class HealClock:
    """CPU seconds spent inside one network's partial-batch heal calls,
    and the events they healed, per kind.  Installed on the instance, so
    every caller (the benchmark, a gateway, a shard) goes through it.
    CPU time of the calling thread, not wall time: another process
    taking the processor does not count as heal time."""

    def __init__(self, net: Any) -> None:
        self.cpu_s = {"join": 0.0, "leave": 0.0}
        self.healed = {"join": 0, "leave": 0}
        for kind, attr in (("join", "insert_batch_partial"), ("leave", "delete_batch_partial")):
            setattr(net, attr, self._timed(kind, getattr(net, attr)))

    def _timed(self, kind: str, call: Callable[[Any], Any]) -> Callable[[Any], Any]:
        def timed(payload: Any) -> Any:
            t = time.thread_time()
            outcome = call(payload)
            self.cpu_s[kind] += time.thread_time() - t
            self.healed[kind] += len(outcome.accepted)
            return outcome

        return timed

    def rates(self) -> dict[str, float]:
        return {
            "join_per_s": self.healed["join"] / self.cpu_s["join"],
            "leave_per_s": self.healed["leave"] / self.cpu_s["leave"],
        }


def quantile(values: Iterable[float], q: float) -> float:
    """Exact quantile by linear interpolation (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    xs = list(values)
    return statistics.median(xs) if xs else 0.0


def adjacency(graph: Any) -> dict[int, list[tuple[int, int]]]:
    """Per-node ``(neighbour, multiplicity)`` lists, self-loop weight as
    stored -- read through the public accessor."""
    return {u: graph.neighbor_multiplicities(u) for u in graph.nodes()}


def distinct_adjacency(graph: Any) -> dict[int, list[int]]:
    return {u: graph.distinct_neighbors(u) for u in graph.nodes()}


def step_row(kind: str, events: int, report: Any) -> list:
    """One healing step: ``[kind, events, messages, rounds, topology
    changes, floods, recovery]`` from its public StepReport."""
    c = report.costs
    return [kind, events, c.messages, c.rounds, c.topology_changes, c.floods, report.recovery.name]


def flush_rows(flushes: Iterable[tuple[str, int]], reports: Sequence[Any]) -> list[list]:
    """Pair ``(kind, accepted)`` flush records with the StepReports they
    produced: a flush that healed something ran exactly one step."""
    healed = [(k, a) for k, a in flushes if a]
    if len(healed) != len(reports):
        raise ValueError(f"{len(healed)} healing flushes but {len(reports)} step reports")
    return [step_row(k, a, r) for (k, a), r in zip(healed, reports)]


def typical_costs(rows: Sequence[list]) -> dict[str, float]:
    """Theorem 1 costs per healed event of the typical step: each kind's
    steps enter at that kind's median, weighted by the kind's share of
    events, since a rare step that pays a type-2 flood or rebuild would
    swing a plain mean by several times between runs (floods are counted
    on their own).  Rounds per step are a plain mean: a step's rounds
    are small integers whose median jumps by whole rounds."""
    out = {
        "msgs_per_event": 0.0,
        "rounds_per_flush": statistics.fmean(r[3] for r in rows),
        "topology_changes_per_event": 0.0,
    }
    events = sum(r[1] for r in rows)
    for kind in ("join", "leave"):
        mine = [r for r in rows if r[0] == kind and r[1]]
        if mine:
            weight = sum(r[1] for r in mine) / events
            out["msgs_per_event"] += weight * statistics.median(r[2] / r[1] for r in mine)
            out["topology_changes_per_event"] += weight * statistics.median(
                r[4] / r[1] for r in mine
            )
    return out


def recovery_counts(rows: Sequence[list]) -> dict[str, float]:
    out = {"floods": float(sum(r[5] for r in rows))}
    for r in rows:
        key = "recovery." + r[6].lower()
        out[key] = out.get(key, 0.0) + 1
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, read from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks
