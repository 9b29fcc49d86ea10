"""``cluster``: a 2-shard ``ShardRouter`` at n = 16384 under the same
closed loop of peers as ``serve``, with think time.

Each client thinks for an exponential 30 ms between an ack and its next
request.  A stated share of joins pins a fresh id in one shard's region
with an attach hint in the other shard, so the router runs its reserve ->
pin -> commit handoff under load.  Hints are drawn from anchor nodes that no
client ever removes, so every hint is live.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import checks
import shardproc
import tracing
from common import (
    Round,
    RunRecord,
    peak_rss_mb,
    proc_cpu_s,
    quantile,
    recovery_counts,
    run_rounds,
    typical_costs,
    usable_cpus,
)
from repro.service.router import ProcessShardHandle, ShardRouter, make_worker_cfgs
from repro.service.shard import ShardMap

N = 16384
SHARDS = 2
CLIENTS = 64
REQUESTS = 3200
JOIN_SHARE = 0.5
#: share of joins that pin an id in one shard with a hint in the other
CROSS_SHARE = 0.1
#: mean (exponential) think time between a client's ack and its next
#: request: it holds the cluster near half its capacity, since at
#: saturation its wall-clock figures moved with the host's load
THINK_S = 0.03
ANCHORS_PER_SHARD = 256
MAX_BATCH = 64
WINDOW_MS = 2.0
#: scale of the untimed warm-up round that loads code paths and caches
WARMUP_SCALE = 0.5
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"


def run(seed: int, seconds: float, trace: bool) -> RunRecord:
    return run_rounds(run_round, seed, seconds, trace, WARMUP_SCALE)


def run_round(seed: int, traced: bool, scale: float = 1.0) -> Round:
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cluster-", dir=SCRATCH))
    try:
        return asyncio.run(_round(seed, traced, scale, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


async def _round(seed: int, traced: bool, scale: float, workdir: Path) -> Round:
    n = max(64 * SHARDS, int(N * scale))
    clients = max(4, int(CLIENTS * scale))
    requests = max(clients * 4, int(REQUESTS * scale))
    out = Round(traced=traced)
    smap = ShardMap(SHARDS)

    gc.collect()  # the previous round's garbage is not this round's set-up
    t0 = time.perf_counter()
    cfgs = make_worker_cfgs(n, SHARDS, seed=seed, max_batch=MAX_BATCH, window_ms=WINDOW_MS)
    for cfg in cfgs:
        cfg["bench_out"] = str(workdir / f"shard-{cfg['index']}.json")
        if traced:
            cfg["trace_path"] = str(workdir / f"shard-{cfg['index']}.jsonl")
    spawn = shardproc.SpawnWithWorker()
    handles = [ProcessShardHandle(cfg["index"], cfg, ctx=spawn) for cfg in cfgs]
    try:
        router = ShardRouter(handles, shard_map=smap, cfgs=cfgs)
        with tracing.recording() if traced else nullcontext() as recorder:
            await router.start()
            out.setup_s = time.perf_counter() - t0
            bootstrap = sorted(router.net.nodes())
            per_shard = [[u for u in bootstrap if smap.owner(u) == s] for s in range(SHARDS)]
            anchors = [ids[:ANCHORS_PER_SHARD] for ids in per_shard]
            free = [u for ids in per_shard for u in ids[ANCHORS_PER_SHARD:]]
            owned = [free[i::clients] for i in range(clients)]
            plans = [
                [random.Random(seed * 7919 + c).random() < JOIN_SHARE for _ in range(requests // clients)]
                for c in range(clients)
            ]
            joined: list[int] = []
            left: list[int] = []
            latency: list[float] = []
            answers: Counter = Counter()
            next_rid = 0
            #: pinned ids count down from one id per request: a pinned
            #: join moves the shard's own id minting to just above that
            #: id, so ids below the first pinned one never meet a minted id
            pinned = [requests] * SHARDS

            async def client(c: int) -> None:
                nonlocal next_rid
                mine = owned[c]
                pick = random.Random(seed * 104729 + c)
                for wants_join in plans[c]:
                    rid = next_rid
                    next_rid += 1
                    out.attempted += 1
                    t = time.perf_counter()
                    if (wants_join or not mine) and pick.random() < CROSS_SHARE:
                        home = pick.randrange(SHARDS)
                        pinned[home] -= 1
                        node = smap.id_base(home) + (1 << 39) + pinned[home]
                        hint = pick.choice(anchors[(home + 1) % SHARDS])
                        ack = await router.join(node, hint)
                    elif wants_join or not mine:
                        ack = await router.join()
                    else:
                        ack = await router.leave(mine[pick.randrange(len(mine))])
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
                    await asyncio.sleep(pick.expovariate(1.0 / THINK_S))

            pids = [h.process.pid for h in handles]
            cpu0 = sum(proc_cpu_s(p) for p in pids) + time.process_time()
            t = time.perf_counter()
            await asyncio.gather(*(client(c) for c in range(clients)))
            out.window_s = time.perf_counter() - t
            cpu = sum(proc_cpu_s(p) for p in pids) + time.process_time() - cpu0
            handoffs = router.handoff_stats()
            snapshot = router.metrics.snapshot()
            acked = snapshot["accepted"] + snapshot["rejected"]
            await router.drain()
    finally:
        for h in handles:
            if h.process.is_alive():
                h.process.kill()
                h.process.join(10)
                out.errors.append(f"shard {h.index} outlived the drain")

    dumps = [json.loads((workdir / f"shard-{s}.json").read_text()) for s in range(SHARDS)]
    live = [u for d in dumps for u in d["nodes"]]
    out.errors += checks.ledger_errors(bootstrap, joined, left, live)
    out.errors += checks.answered_once_errors(next_rid, answers)
    if acked != next_rid:
        out.errors.append(f"router recorded {acked} acks for {next_rid} requests")
    out.errors += checks.ownership_errors(
        {s: d["nodes"] for s, d in enumerate(dumps)},
        {s: smap.region(s) for s in range(SHARDS)},
        handoffs,
    )
    gaps = []
    for s, d in enumerate(dumps):
        adj = {u: [tuple(e) for e in nbrs] for u, nbrs in d["adjacency"]}
        out.errors += [f"shard {s}: {e}" for e in checks.symmetry_errors(adj)]
        out.errors += [f"shard {s}: {e}" for e in checks.connectivity_errors(adj)]
        bound = checks.degree_bound(d["staggered"])
        out.errors += [f"shard {s}: {e}" for e in checks.degree_errors(adj, bound)]
        gaps.append(checks.spectral_gap(adj))
        out.errors += [f"shard {s}: {e}" for e in checks.gap_errors(gaps[-1])]
        out.errors += [
            f"shard {s}: {e}"
            for e in checks.dht_errors(shardproc.stored_keys(cfgs[s]["seed"]), d["read_back"])
        ]

    flushes = [f for d in dumps for f in d["flushes"]]
    healed = {k: sum(d["healed"][k] for d in dumps) for k in ("join", "leave")}
    heal_s = {k: sum(d["heal_cpu_s"][k] for d in dumps) for k in ("join", "leave")}
    rows = [row for d in dumps for row in d["rows"]]
    costs = recovery_counts(rows)
    events = len(joined) + len(left)
    out.latency = latency
    out.metrics = {
        "setup_s": out.setup_s,
        "goodput_per_s": events / out.window_s,
        "join_per_s": healed["join"] / heal_s["join"],
        "leave_per_s": healed["leave"] / heal_s["leave"],
        "ack_p50_ms": 1e3 * quantile(latency, 0.50),
        "ack_p99_ms": 1e3 * quantile(latency, 0.99),
        **typical_costs(rows),
        "spectral_gap": min(gaps),
        "dht_msgs_per_op": sum(d["dht_msgs_per_op"] for d in dumps) / SHARDS,
        "peak_rss_mb": peak_rss_mb() + sum(d["maxrss_mb"] for d in dumps),
    }
    busy = cpu / (out.window_s * usable_cpus())
    out.notes = {
        "flushes": len(flushes),
        "handoffs": handoffs,
        "recoveries": costs,
        "cpu_busy_frac": busy,
    }
    if traced:
        spans = list(recorder.spans)
        shard_spans = [_load_jsonl(workdir / f"shard-{s}.jsonl") for s in range(SHARDS)]
        work = tracing.self_times([s for ss in shard_spans for s in ss])
        out.tables.append(
            tracing.format_table(
                f"cluster, {SHARDS} shard workers (share of {SHARDS} x window)",
                tracing.layer_table(work, out.window_s * SHARDS),
            )
        )
        out.layers = tracing.layer_metrics(
            spans,
            work,
            joins=sum(f[1] for f in flushes if f[0] == "join"),
            leaves=sum(f[1] for f in flushes if f[0] == "leave"),
            events=events,
            counts={
                "core.stagger.batches": costs.get("recovery.type1_during_stagger", 0.0),
                "core.floods": costs["floods"],
                "dht.migrated_items": sum(d["dht_migrated"] for d in dumps),
                "router.handoffs": handoffs["attempted"],
                "cpu.busy_frac": busy,
            },
            shard_spans=shard_spans,
        )
    return out


def _load_jsonl(path: Path) -> list[dict]:
    """Spans of one worker's streamed trace (header line skipped; a torn
    last line, which a killed worker may leave, is ignored)."""
    spans = []
    for line in path.read_text().splitlines()[1:]:
        try:
            spans.append(json.loads(line))
        except json.JSONDecodeError:
            break
    return spans
