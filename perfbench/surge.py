"""``surge``: the Section 5 flash crowd and mass leave, engine-direct.

Seeded batches grow n0 to 4*n0 through ``insert_batch_partial``, then
``delete_batch_partial`` shrinks the network back to n0.  A ``DexDHT``
holds keys, and a slice of them is read after every batch.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext

import checks
import tracing
from common import (
    HealClock,
    Round,
    RunRecord,
    Stopwatch,
    adjacency,
    distinct_adjacency,
    peak_rss_mb,
    quantile,
    recovery_counts,
    run_rounds,
    step_row,
    typical_costs,
    usable_cpus,
)
from repro import DexConfig, DexDHT, DexNetwork

N0 = 1024
BATCH = 32
GROWTH = 4
KEYS = 512
READS_PER_BATCH = 8
#: scale of the untimed warm-up round that loads code paths and caches
WARMUP_SCALE = 0.5


def run(seed: int, seconds: float, trace: bool) -> RunRecord:
    return run_rounds(run_round, seed, seconds, trace, WARMUP_SCALE)


def run_round(seed: int, traced: bool, scale: float = 1.0) -> Round:
    n0 = max(16, int(N0 * scale))
    batch = max(4, int(BATCH * scale))
    rng = random.Random(seed)
    out = Round(traced=traced)

    gc.collect()  # the previous round's garbage is not this round's set-up
    t0 = time.perf_counter()
    net = DexNetwork.bootstrap(n0, DexConfig(seed=seed), seed=seed)
    dht = DexDHT(net)
    stored = {f"key-{seed}-{i}": rng.getrandbits(48) for i in range(KEYS)}
    for key, value in stored.items():
        dht.put(key, value)
    out.setup_s = time.perf_counter() - t0
    gc.collect()
    gc.freeze()

    bootstrap = sorted(net.nodes())
    live = list(bootstrap)  # the benchmark's own ledger, sampled for batches
    position = {u: i for i, u in enumerate(live)}
    next_id = max(bootstrap) + 1
    joined: list[int] = []
    left: list[int] = []
    rows: list[list] = []
    clock = HealClock(net)
    get_latency: list[float] = []
    keys = list(stored)
    reads = 0
    gets0, msgs0 = dht.stats.gets, dht.stats.total_messages

    def drop(u: int) -> None:
        i = position.pop(u)
        last = live.pop()
        if last != u:
            live[i] = last
            position[last] = i

    def read_slice() -> None:
        nonlocal reads
        for _ in range(READS_PER_BATCH):
            key = keys[reads % len(keys)]
            reads += 1
            t = time.thread_time()
            value = dht.get(key)
            get_latency.append(time.thread_time() - t)
            out.attempted += 1
            if value != stored[key]:
                out.fail(f"DHT get {key!r} returned {value!r}")

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    watch = Stopwatch()
    with tracing.recording() if traced else nullcontext() as recorder:
        watch.start()
        while len(live) < GROWTH * n0:
            count = min(batch, GROWTH * n0 - len(live))
            hosts = rng.sample(live, count)
            pairs = [(next_id + j, h) for j, h in enumerate(hosts)]
            next_id += count
            out.attempted += count
            outcome = net.insert_batch_partial(pairs)
            for r in outcome.rejected:
                out.fail(f"join {r.node} rejected: {r.reason}")
            for new_id, _host in outcome.accepted:
                position[new_id] = len(live)
                live.append(new_id)
                joined.append(new_id)
            if outcome.report is not None:
                rows.append(step_row("join", len(outcome.accepted), outcome.report))
            read_slice()
        with watch.paused():
            peak = adjacency(net.graph)
            out.errors += checks.degree_errors(peak, checks.degree_bound(net.staggered))
            del peak
        while len(live) > n0:
            count = min(batch, len(live) - n0)
            victims = rng.sample(live, count)
            out.attempted += count
            with watch.paused():
                before = distinct_adjacency(net.graph)
            outcome = net.delete_batch_partial(victims)
            with watch.paused():
                for r in outcome.rejected:
                    if checks.is_deletion_refusal(r.reason) and checks.refusal_justified(
                        before, outcome.accepted, r.node
                    ):
                        out.refused += 1
                    else:
                        out.fail(f"leave {r.node} rejected: {r.reason}")
                del before
            for u in outcome.accepted:
                drop(u)
                left.append(u)
            if outcome.report is not None:
                rows.append(step_row("leave", len(outcome.accepted), outcome.report))
            read_slice()
        out.window_s = watch.stop()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    adj = adjacency(net.graph)
    out.errors += checks.ledger_errors(bootstrap, joined, left, net.nodes())
    out.errors += checks.symmetry_errors(adj)
    out.errors += checks.connectivity_errors(adj)
    out.errors += checks.degree_errors(adj, checks.degree_bound(net.staggered))
    gap = checks.spectral_gap(adj)
    out.errors += checks.gap_errors(gap)
    read_back = {key: dht.get(key) for key in stored}
    out.errors += checks.dht_errors(stored, read_back)

    costs = recovery_counts(rows)
    events = len(joined) + len(left)
    out.latency = get_latency
    out.metrics = {
        "setup_s": out.setup_s,
        "goodput_per_s": events / out.window_s,
        **clock.rates(),
        "ack_p50_ms": 1e3 * quantile(get_latency, 0.50),
        "ack_p99_ms": 1e3 * quantile(get_latency, 0.99),
        **typical_costs(rows),
        "spectral_gap": gap,
        "dht_msgs_per_op": (dht.stats.total_messages - msgs0) / (dht.stats.gets - gets0),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.notes = {
        "recoveries": costs,
        "leave_batches_staggered": sum(
            1 for r in rows if r[0] == "leave" and r[6] == "TYPE1_DURING_STAGGER"
        ),
        "staggered_at_end": net.staggered is not None,
        "p": net.p,
        "max_degree": checks.max_degree(adj),
    }
    if traced:
        spans = list(recorder.spans)
        work = tracing.self_times(spans)
        out.tables.append(tracing.format_table("surge", tracing.layer_table(work, out.window_s)))
        out.layers = tracing.layer_metrics(
            spans,
            work,
            joins=len(joined),
            leaves=len(left) + out.refused,
            events=events,
            counts={
                "core.stagger.batches": costs.get("recovery.type1_during_stagger", 0.0),
                "core.floods": costs["floods"],
                "dht.migrated_items": dht.stats.migrated_items,
                "cpu.busy_frac": cpu / (wall * usable_cpus()),
            },
        )
    out.notes["cpu_busy_frac"] = cpu / (wall * usable_cpus())
    gc.unfreeze()
    return out
