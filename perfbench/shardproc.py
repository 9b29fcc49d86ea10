"""Shard worker processes for the ``cluster`` workload.

Each worker runs the program's own ``shard_worker_main`` unchanged.
Around it, the benchmark keeps a handle on the shard it builds, stores
DHT keys in it before serving, and after the drain reads the keys back
and writes what the parent needs for its checks and metrics (node set,
adjacency, step costs, flush records, peak RSS) to a JSON file.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import random
import resource
from contextlib import ExitStack
from typing import Any

KEYS = 256


def stored_keys(seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    return {f"key-{seed}-{i}": rng.getrandbits(48) for i in range(KEYS)}


def worker_main(conn: Any, cfg: dict) -> None:
    from repro.dht.dht import DexDHT
    from repro.service import shard

    import tracing
    from common import HealClock, adjacency, flush_rows

    state: dict[str, Any] = {}
    build = shard.build_shard
    stack = ExitStack()

    def build_and_load(c: dict) -> Any:
        server = build(c)
        dht = DexDHT(server.net)
        state["clock"] = HealClock(server.net)
        for key, value in stored_keys(c["seed"]).items():
            dht.put(key, value)
        state.update(server=server, dht=dht)
        if c.get("trace_path"):
            stack.enter_context(tracing.wrapped_calls())  # serving only, not set-up
        return server

    shard.build_shard = build_and_load
    with stack:
        shard.shard_worker_main(conn, cfg)
    if "server" not in state:
        return
    net = state["server"].net
    dht = state["dht"]
    gets0, msgs0 = dht.stats.gets, dht.stats.total_messages
    read_back = {key: dht.get(key) for key in stored_keys(cfg["seed"])}
    flushes = [
        (f.kind, f.submitted, f.accepted) for f in state["server"].metrics.flushes
    ]
    dump = {
        "nodes": sorted(net.nodes()),
        "adjacency": [[u, nbrs] for u, nbrs in adjacency(net.graph).items()],
        "staggered": net.staggered is not None,
        "rows": flush_rows([(f[0], f[2]) for f in flushes], net.reports),
        "flushes": flushes,
        "heal_cpu_s": state["clock"].cpu_s,
        "healed": state["clock"].healed,
        "read_back": read_back,
        "dht_msgs_per_op": (dht.stats.total_messages - msgs0) / (dht.stats.gets - gets0),
        "dht_migrated": dht.stats.migrated_items,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(cfg["bench_out"], "w") as fh:
        json.dump(dump, fh)


class SpawnWithWorker:
    """A spawn context whose ``Process`` runs :func:`worker_main`: handed
    to the program's ``ProcessShardHandle`` through its ``ctx`` argument,
    so the handle, pipe protocol and worker loop stay the program's."""

    def __init__(self) -> None:
        self._ctx = mp.get_context("spawn")

    def Pipe(self) -> Any:  # noqa: N802 - multiprocessing context API
        return self._ctx.Pipe()

    def Process(self, target: Any, args: tuple, daemon: bool) -> Any:  # noqa: N802
        return self._ctx.Process(target=worker_main, args=args, daemon=daemon)
