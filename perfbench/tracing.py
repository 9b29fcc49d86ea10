"""The traced run: span recording from outside the program, self times,
the per-layer table and the per-layer metrics.

The program already records spans for gateway flush phases, the router
handoff, shard flushes, ``core.insert_batch`` / ``core.delete_batch``,
``net.wave``, type-2 simplified rebuilds and checkpoint saves.  The calls
that no span covers are wrapped here, from outside, for traced rounds
only: batch partition/validation, the connectivity check, the CSR view,
the staggered type-2 machinery, per-node type-1 recovery, the
coordinator update and DHT reads/writes.
"""

from __future__ import annotations

import bisect
import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.obs import trace as obs_trace

#: span names of request envelopes and of the router's awaited handoff
#: legs: they overlap every flush in flight and mostly wait, so they are
#: kept out of the self-time tree (their children become roots)
ENVELOPES = frozenset(
    {
        "gateway.request",
        "router.request",
        "router.handoff.reserve",
        "router.handoff.pin",
        "router.handoff.commit",
        "shard.request",
    }
)
#: per-layer metrics, in BENCHMARK.json order: name -> unit
PER_LAYER_UNITS = {
    "core.partition_insert.us_per_join": "us",
    "core.partition_delete.us_per_leave": "us",
    "net.connectivity.us_per_leave": "us",
    "net.wave.us_per_event": "us",
    "net.wave.hops_per_event": "count",
    "net.csr.us_per_event": "us",
    "core.heal.us_per_event": "us",
    "core.type2.ms_total": "ms",
    "core.stagger.batches": "count",
    "core.floods": "count",
    "dht.get.us_per_op": "us",
    "dht.migrated_items": "count",
    "gateway.queue_wait.ms_p50": "ms",
    "gateway.collect.ms_per_flush": "ms",
    "gateway.heal.ms_per_flush": "ms",
    "gateway.resolve.ms_per_flush": "ms",
    "gateway.batch_mean": "count",
    "gateway.unattributed_frac": "fraction",
    "persist.save.ms_per_checkpoint": "ms",
    "persist.checkpoints": "count",
    "router.route_ipc.ms_per_request": "ms",
    "router.handoff.ms_per_handoff": "ms",
    "router.handoffs": "count",
    "shard.heal.ms_per_flush": "ms",
    "shard.batch_mean": "count",
    "shard.queue_wait.ms_p50": "ms",
    "cpu.busy_frac": "fraction",
    "obs.trace_overhead_frac": "fraction",
}


def _wrap(fn: Any, name: str) -> Any:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with obs_trace.span(name):
            return fn(*args, **kwargs)

    return traced


def _targets() -> list[tuple[Any, str, str]]:
    from repro.core import multi
    from repro.core.coordinator import Coordinator
    from repro.core.type2_staggered import StaggeredOp
    from repro.dht.dht import DexDHT
    from repro.net.topology import DynamicMultigraph

    return [
        (multi, "partition_insert_batch", "core.partition_insert"),
        (multi, "partition_delete_batch", "core.partition_delete"),
        (multi, "insertion_recovery", "core.type1"),
        (multi, "adopt_deleted", "core.type1"),
        (DynamicMultigraph, "survivors_connected", "net.connectivity"),
        (DynamicMultigraph, "csr_wave_view", "net.csr"),
        (DynamicMultigraph, "to_sparse_adjacency", "net.csr"),
        (StaggeredOp, "__init__", "core.type2"),
        (StaggeredOp, "advance", "core.type2"),
        (StaggeredOp, "redistribute_after_deletion", "core.type2"),
        (Coordinator, "charge_update", "core.coordinator"),
        (DexDHT, "get", "dht.get"),
        (DexDHT, "put", "dht.put"),
    ]


@contextmanager
def wrapped_calls() -> Iterator[None]:
    """Wrap the uncovered public calls in spans; restore them on exit."""
    saved = []
    for owner, attr, name in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def recording() -> Iterator[obs_trace.SpanRecorder]:
    """An in-memory recorder plus the outside wrappers, for one round."""
    recorder = obs_trace.SpanRecorder(capacity=1 << 21)
    previous = obs_trace.install(recorder)
    try:
        with wrapped_calls():
            yield recorder
    finally:
        obs_trace.install(previous)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: Iterable[dict]) -> list[dict]:
    """Annotate work spans (envelopes dropped) with ``self_s``: duration
    minus the durations of their work-span children.  Children of one
    parent never overlap (synchronous code, or sequential awaits)."""
    work = [s for s in spans if s["name"] not in ENVELOPES]
    child_sum: dict[str, float] = defaultdict(float)
    for s in work:
        if s["parent"] is not None:
            child_sum[s["parent"]] += s["dur_s"]
    for s in work:
        s["self_s"] = max(0.0, s["dur_s"] - child_sum.get(s["span"], 0.0))
    return work


def layer_table(work: list[dict], wall_s: float) -> list[tuple[str, int, float, float]]:
    """``(layer, spans, self seconds, share of wall)`` rows sorted by
    self time, with the remainder no span claims as ``unattributed``."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for s in work:
        by_name[s["name"]].append(s["self_s"])
    rows = [
        (name, len(v), sum(v), sum(v) / wall_s if wall_s > 0 else 0.0)
        for name, v in by_name.items()
    ]
    rows.sort(key=lambda r: -r[2])
    claimed = sum(r[2] for r in rows)
    rest = wall_s - claimed
    rows.append(("unattributed", 0, rest, rest / wall_s if wall_s > 0 else 0.0))
    return rows


def format_table(title: str, rows: list[tuple[str, int, float, float]]) -> str:
    lines = [f"# per-layer self time: {title}", f"#   {'layer':<28}{'spans':>8}{'self_ms':>12}{'share':>8}"]
    for name, count, self_s, share in rows:
        lines.append(f"#   {name:<28}{count:>8}{self_s * 1e3:>12.1f}{share:>8.1%}")
    return "\n".join(lines)


def _total(work: list[dict], *names: str) -> float:
    return sum(s["dur_s"] for s in work if s["name"] in names)


def _self(work: list[dict], *names: str) -> float:
    return sum(s["self_s"] for s in work if s["name"] in names)


def _count(work: list[dict], name: str) -> int:
    return sum(1 for s in work if s["name"] == name)


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def _queue_waits(spans: list[dict], request: str, flush: str, heal: str) -> list[float]:
    """Per request: start of the heal of the flush that answered it,
    minus the request's own start.  A request is answered inside its
    flush, so its flush is the one whose interval holds its end."""
    flushes = sorted(
        (s for s in spans if s["name"] == flush), key=lambda s: s["t_s"]
    )
    heal_start = {s["parent"]: s["t_s"] for s in spans if s["name"] == heal}
    starts = [s["t_s"] for s in flushes]
    waits = []
    for r in spans:
        if r["name"] != request:
            continue
        end = r["t_s"] + r["dur_s"]
        i = bisect.bisect_right(starts, end) - 1
        if i < 0:
            continue
        f = flushes[i]
        if end <= f["t_s"] + f["dur_s"] + 1e-6 and f["span"] in heal_start:
            waits.append(heal_start[f["span"]] - r["t_s"])
    return waits


def layer_metrics(
    spans: list[dict],
    work: list[dict],
    *,
    joins: int,
    leaves: int,
    events: int,
    counts: dict[str, float],
    shard_spans: list[list[dict]] = (),
) -> dict[str, float]:
    """Per-layer metrics of one traced round.  ``joins``/``leaves`` are
    the requests that reached the engine, ``events`` the changes healed;
    ``counts`` carries the values read from the program's public state
    (stagger batches, DHT migrations, handoffs, batch means, cpu)."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out["core.partition_insert.us_per_join"] = 1e6 * _per(_self(work, "core.partition_insert"), joins)
    out["core.partition_delete.us_per_leave"] = 1e6 * _per(_self(work, "core.partition_delete"), leaves)
    out["net.connectivity.us_per_leave"] = 1e6 * _per(_self(work, "net.connectivity"), leaves)
    out["net.wave.us_per_event"] = 1e6 * _per(_self(work, "net.wave"), events)
    hops = sum(s.get("attrs", {}).get("hops", 0) for s in work if s["name"] == "net.wave")
    out["net.wave.hops_per_event"] = _per(hops, events)
    out["net.csr.us_per_event"] = 1e6 * _per(_self(work, "net.csr"), events)
    out["core.heal.us_per_event"] = 1e6 * _per(
        _self(work, "core.insert_batch", "core.delete_batch"), events
    )
    out["core.type2.ms_total"] = 1e3 * _total(
        work, "core.type2", "core.type2.inflate", "core.type2.deflate"
    )
    gets = _count(work, "dht.get")
    out["dht.get.us_per_op"] = 1e6 * _per(_total(work, "dht.get"), gets)
    flushes = _count(work, "gateway.flush")
    if flushes:
        waits = _queue_waits(spans, "gateway.request", "gateway.flush", "gateway.flush.heal")
        out["gateway.queue_wait.ms_p50"] = 1e3 * statistics.median(waits) if waits else 0.0
        out["gateway.collect.ms_per_flush"] = 1e3 * _total(work, "gateway.flush.collect") / flushes
        out["gateway.heal.ms_per_flush"] = 1e3 * _total(work, "gateway.flush.heal") / flushes
        out["gateway.resolve.ms_per_flush"] = 1e3 * _total(work, "gateway.flush.resolve") / flushes
        out["gateway.unattributed_frac"] = _per(
            _self(work, "gateway.flush", "gateway.flush.heal"), _total(work, "gateway.flush")
        )
    saves = _count(work, "persist.checkpoint.save")
    out["persist.checkpoints"] = float(saves)
    out["persist.save.ms_per_checkpoint"] = 1e3 * _per(_total(work, "persist.checkpoint.save"), saves)
    if shard_spans:
        out.update(_cluster_metrics(spans, shard_spans))
    for name, value in counts.items():
        out[name] = float(value)
    return out


def _cluster_metrics(router_spans: list[dict], shard_spans: list[list[dict]]) -> dict[str, float]:
    out: dict[str, float] = {}
    shard_request = {}
    heals: list[float] = []
    batches: list[int] = []
    waits: list[float] = []
    for spans in shard_spans:
        for s in spans:
            if s["name"] == "shard.request" and s["parent"] is not None:
                shard_request[s["parent"]] = s["dur_s"]
        heals += [s["dur_s"] for s in spans if s["name"] == "shard.flush.heal"]
        batches += [s["attrs"]["batch"] for s in spans if s["name"] == "shard.flush"]
        waits += _queue_waits(spans, "shard.request", "shard.flush", "shard.flush.heal")
    ipc = [
        s["dur_s"] - shard_request[s["span"]]
        for s in router_spans
        if s["name"] == "router.request" and s["span"] in shard_request
    ]
    handoffs = [
        s["dur_s"]
        for s in router_spans
        if s["name"] == "router.request" and s.get("attrs", {}).get("handoff")
    ]
    out["router.route_ipc.ms_per_request"] = 1e3 * statistics.fmean(ipc) if ipc else 0.0
    out["router.handoff.ms_per_handoff"] = 1e3 * statistics.fmean(handoffs) if handoffs else 0.0
    out["shard.heal.ms_per_flush"] = 1e3 * statistics.fmean(heals) if heals else 0.0
    out["shard.batch_mean"] = statistics.fmean(batches) if batches else 0.0
    out["shard.queue_wait.ms_p50"] = 1e3 * statistics.median(waits) if waits else 0.0
    return out
