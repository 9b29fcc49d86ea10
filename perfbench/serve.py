"""``serve``: one ``MembershipGateway`` at n = 16384 with periodic
checkpoints, under a closed loop of peer clients.

Each client owns a slice of the bootstrap nodes and, per request, flips a
seeded coin: join (the gateway picks the id and the attach point) or
leave one of its own nodes.  It sends its next request only after the
ack of the previous one.
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from common import (
    HealClock,
    Round,
    RunRecord,
    adjacency,
    flush_rows,
    peak_rss_mb,
    quantile,
    recovery_counts,
    run_rounds,
    typical_costs,
    usable_cpus,
)
from repro import DexConfig, DexDHT, DexNetwork
from repro.service.gateway import MembershipGateway

N = 16384
CLIENTS = 64
REQUESTS = 6400
JOIN_SHARE = 0.5
MAX_BATCH = 64
WINDOW_MS = 2.0
CHECKPOINT_EVERY = 32
KEYS = 256
#: scale of the untimed warm-up round that loads code paths and caches
WARMUP_SCALE = 0.5
#: checkpoints go under the checkout, never outside it
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"


@dataclass
class _System:
    net: DexNetwork
    dht: DexDHT
    stored: dict[str, int]
    gateway: MembershipGateway
    clock: HealClock
    acks: list[int]


async def _setup(seed: int, n: int, workdir: Path) -> _System:
    rng = random.Random(seed)
    net = DexNetwork.bootstrap(n, DexConfig(seed=seed), seed=seed)
    dht = DexDHT(net)
    clock = HealClock(net)
    stored = {f"key-{seed}-{i}": rng.getrandbits(48) for i in range(KEYS)}
    for key, value in stored.items():
        dht.put(key, value)
    acks = [0]

    def tap(_ack: object) -> None:
        acks[0] += 1

    gateway = MembershipGateway(
        net,
        max_batch=MAX_BATCH,
        batch_window_ms=WINDOW_MS,
        seed=seed,
        checkpoint_dir=workdir,
        checkpoint_every=CHECKPOINT_EVERY,
        on_ack=tap,
    )
    await gateway.start()
    return _System(net, dht, stored, gateway, clock, acks)


def run(seed: int, seconds: float, trace: bool) -> RunRecord:
    return run_rounds(run_round, seed, seconds, trace, WARMUP_SCALE)


def run_round(seed: int, traced: bool, scale: float = 1.0) -> Round:
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=SCRATCH))
    try:
        return asyncio.run(_round(seed, traced, scale, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


async def _round(seed: int, traced: bool, scale: float, workdir: Path) -> Round:
    n = max(64, int(N * scale))
    clients = max(4, int(CLIENTS * scale))
    per_client = max(4, int(REQUESTS * scale) // clients)
    out = Round(traced=traced)
    gc.collect()  # the previous round's garbage is not this round's set-up
    t0 = time.perf_counter()
    system = await _setup(seed, n, workdir)
    out.setup_s = time.perf_counter() - t0
    net, gateway, dht = system.net, system.gateway, system.dht
    gc.collect()
    gc.freeze()

    bootstrap = sorted(net.nodes())
    owned = [bootstrap[i::clients] for i in range(clients)]
    joined: list[int] = []
    left: list[int] = []
    latency: list[float] = []
    answers: Counter = Counter()
    sent = 0

    async def client(c: int) -> None:
        nonlocal sent
        mine = owned[c]
        coin = random.Random(seed * 7919 + c)
        pick = random.Random(seed * 104729 + c)
        for _ in range(per_client):
            rid = sent
            sent += 1
            out.attempted += 1
            t = time.perf_counter()
            if coin.random() < JOIN_SHARE or not mine:
                ack = await gateway.join()
            else:
                ack = await gateway.leave(mine[pick.randrange(len(mine))])
            latency.append(time.perf_counter() - t)
            answers[rid] += 1
            if ack.ok and ack.kind == "join":
                mine.append(ack.node)
                joined.append(ack.node)
            elif ack.ok:
                mine.remove(ack.node)
                left.append(ack.node)
            elif ack.kind == "leave" and checks.is_deletion_refusal(ack.reason):
                out.refused += 1
            else:
                out.fail(f"{ack.kind} {ack.node} answered {ack.reason!r}")

    cpu0 = time.process_time()
    with tracing.recording() if traced else nullcontext() as recorder:
        t = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(clients)))
        out.window_s = time.perf_counter() - t
        busy = (time.process_time() - cpu0) / (out.window_s * usable_cpus())
        await gateway.drain()
    gc.unfreeze()

    adj = adjacency(net.graph)
    errors = out.errors
    errors += checks.ledger_errors(bootstrap, joined, left, net.nodes())
    errors += checks.answered_once_errors(sent, answers)
    if system.acks[0] != sent:
        errors.append(f"gateway issued {system.acks[0]} acks for {sent} requests")
    errors += checks.symmetry_errors(adj)
    errors += checks.connectivity_errors(adj)
    errors += checks.degree_errors(adj, checks.degree_bound(net.staggered))
    gap = checks.spectral_gap(adj)
    errors += checks.gap_errors(gap)
    gets0, msgs0 = dht.stats.gets, dht.stats.total_messages
    read_back = {key: dht.get(key) for key in system.stored}
    errors += checks.dht_errors(system.stored, read_back)
    errors += _checkpoint_errors(workdir, net, adj, gateway)

    flushes = list(gateway.metrics.flushes)
    rows = flush_rows([(f.kind, f.accepted) for f in flushes], net.reports)
    counts = recovery_counts(rows)
    events = len(joined) + len(left)
    out.latency = latency
    out.metrics = {
        "setup_s": out.setup_s,
        "goodput_per_s": events / out.window_s,
        **system.clock.rates(),
        "ack_p50_ms": 1e3 * quantile(latency, 0.50),
        "ack_p99_ms": 1e3 * quantile(latency, 0.99),
        **typical_costs(rows),
        "spectral_gap": gap,
        "dht_msgs_per_op": (dht.stats.total_messages - msgs0) / (dht.stats.gets - gets0),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.notes = {
        "flushes": len(flushes),
        "checkpoints": gateway.checkpoints_written,
        "max_degree": checks.max_degree(adj),
        "cpu_busy_frac": busy,
        **counts,
    }
    if traced:
        spans = list(recorder.spans)
        work = tracing.self_times(spans)
        out.tables.append(tracing.format_table("serve", tracing.layer_table(work, out.window_s)))
        out.layers = tracing.layer_metrics(
            spans,
            work,
            joins=sum(f.submitted for f in flushes if f.kind == "join"),
            leaves=sum(f.submitted for f in flushes if f.kind == "leave"),
            events=events,
            counts={
                "core.stagger.batches": counts.get("recovery.type1_during_stagger", 0.0),
                "core.floods": counts["floods"],
                "dht.migrated_items": dht.stats.migrated_items,
                "gateway.batch_mean": sum(f.submitted for f in flushes) / len(flushes),
                "cpu.busy_frac": busy,
            },
        )
    return out


def _checkpoint_errors(
    workdir: Path, net: DexNetwork, adj: dict, gateway: MembershipGateway
) -> list[str]:
    """The final checkpoint (written by ``drain``) must restore into a
    network with the live node set and edge multiset."""
    from repro.persist.snapshot import restore_latest

    if gateway.checkpoint_errors:
        return [f"{gateway.checkpoint_errors} checkpoints failed"]
    restored, path, skipped = restore_latest(workdir, verify=False)
    if skipped or path != gateway.last_checkpoint:
        return [f"final checkpoint {gateway.last_checkpoint} did not load ({skipped})"]
    return checks.checkpoint_errors(
        net.nodes(),
        checks.edge_multiset(adj),
        restored.nodes(),
        checks.edge_multiset(adjacency(restored.graph)),
    )
