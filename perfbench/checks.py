"""Independent output checks.

Every check here recomputes its answer from plain data the benchmark
collected itself (edge lists, its own membership ledger, the values it
stored), never from the program's own oracles, and returns a list of
error strings: empty means the check passed.  ``test_perfbench_checks.py``
feeds each check a good input and a corrupted one.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

#: the paper's cloud-size constant (DexConfig.zeta)
ZETA = 8
#: Theorem 1 degree bounds: degree(u) = 3 * load(u) (+ intermediate edges
#: while a staggered type-2 recovery is in flight).  Loads stay <= 4*zeta
#: in steady state (Definition 3) and <= 8*zeta while the two cycles
#: coexist (Lemma 9a); see README.md for the derivation.
DEGREE_BOUND_STEADY = 3 * 4 * ZETA
DEGREE_BOUND_STAGGERED = 3 * 8 * ZETA
#: spectral-gap floor (README.md: the constant this codebase's own
#: expander claims use, far below every measured value)
GAP_FLOOR = 0.01

#: refusal reasons that follow from the Section 5 deletion condition;
#: a leave answered with one of these is a correct answer, not a failure
DELETION_CONDITION_MARKERS = (
    "would have no surviving neighbor",
    "is the last surviving neighbor of batch victim",
    "would disconnect the network",
)


def is_deletion_refusal(reason: str | None) -> bool:
    return reason is not None and any(m in reason for m in DELETION_CONDITION_MARKERS)


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------
def ledger_errors(
    bootstrap: Iterable[int],
    joined: Sequence[int],
    left: Sequence[int],
    live: Iterable[int],
) -> list[str]:
    """The client-side ledger (bootstrap + acked joins - acked leaves)
    must equal the live node set."""
    errors: list[str] = []
    boot = set(bootstrap)
    joined_set = set(joined)
    if len(joined_set) != len(joined):
        errors.append("a node id was acked as joined twice")
    if boot & joined_set:
        errors.append(f"{len(boot & joined_set)} acked joins reused a bootstrap id")
    left_set = set(left)
    if len(left_set) != len(left):
        errors.append("a node id was acked as left twice")
    expected = (boot | joined_set) - left_set
    if not left_set <= boot | joined_set:
        errors.append(f"{len(left_set - boot - joined_set)} acked leaves of unknown ids")
    live_set = set(live)
    if expected != live_set:
        missing = len(expected - live_set)
        extra = len(live_set - expected)
        errors.append(f"ledger differs from live set: {missing} missing, {extra} unexpected")
    return errors


# ----------------------------------------------------------------------
# graph structure
# ----------------------------------------------------------------------
def edge_multiset(adjacency: Mapping[int, Sequence[tuple[int, int]]]) -> Counter:
    """``{(u, v): multiplicity}`` with ``u <= v`` from per-node neighbour
    lists (each off-diagonal edge appears in both endpoints' lists)."""
    out: Counter = Counter()
    for u, nbrs in adjacency.items():
        for v, m in nbrs:
            if u <= v:
                out[(u, v)] += m
    return out


def symmetry_errors(adjacency: Mapping[int, Sequence[tuple[int, int]]]) -> list[str]:
    seen: dict[tuple[int, int], int] = {}
    for u, nbrs in adjacency.items():
        for v, m in nbrs:
            seen[(u, v)] = m
    bad = sum(1 for (u, v), m in seen.items() if seen.get((v, u)) != m)
    return [f"{bad} adjacency entries lack a symmetric twin"] if bad else []


def connectivity_errors(adjacency: Mapping[int, Sequence[tuple[int, int]]]) -> list[str]:
    """Breadth-first search from one node must reach every node."""
    if not adjacency:
        return ["empty overlay"]
    start = next(iter(adjacency))
    seen = {start}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        for v, m in adjacency[u]:
            if m > 0 and v not in seen:
                seen.add(v)
                frontier.append(v)
    if len(seen) != len(adjacency):
        return [f"overlay disconnected: BFS reached {len(seen)} of {len(adjacency)} nodes"]
    return []


def remainder_connected(adjacency: Mapping[int, Sequence[int]], removed: set[int]) -> bool:
    """BFS over ``adjacency`` (distinct neighbour lists) without the
    ``removed`` nodes."""
    alive = [u for u in adjacency if u not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    frontier = deque([alive[0]])
    while frontier:
        u = frontier.popleft()
        for v in adjacency[u]:
            if v not in removed and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(alive)


def refusal_justified(
    adjacency: Mapping[int, Sequence[int]], accepted: Sequence[int], refused: int
) -> bool:
    """A leave refused under the Section 5 deletion condition is correct
    when deleting it together with the accepted victims would break the
    condition in the pre-batch graph: some victim keeps no surviving
    neighbour, or the survivors are disconnected."""
    victims = set(accepted) | {refused}
    for u in victims:
        if not any(v not in victims for v in adjacency[u] if v != u):
            return True
    return not remainder_connected(adjacency, victims)


def degree_errors(
    adjacency: Mapping[int, Sequence[tuple[int, int]]], bound: int
) -> list[str]:
    """Degree = sum of incident multiplicities (self-loop weight as
    stored), which must stay within ``bound``."""
    worst = max_degree(adjacency)
    if worst > bound:
        return [f"max degree {worst} exceeds the Theorem 1 bound {bound}"]
    return []


def degree_bound(staggered: object) -> int:
    """The bound for the state the overlay is in: a staggered type-2
    recovery in flight (truthy ``staggered``) or steady state."""
    return DEGREE_BOUND_STAGGERED if staggered else DEGREE_BOUND_STEADY


def max_degree(adjacency: Mapping[int, Sequence[tuple[int, int]]]) -> int:
    return max((sum(m for _v, m in nbrs) for nbrs in adjacency.values()), default=0)


# ----------------------------------------------------------------------
# spectral gap: the benchmark's own Lanczos solver
# ----------------------------------------------------------------------
def second_eigenvalue(
    adjacency: Mapping[int, Sequence[tuple[int, int]]],
    *,
    steps: int = 400,
    tol: float = 1e-10,
    seed: int = 0,
) -> float:
    """Second-largest eigenvalue of ``D^-1/2 A D^-1/2`` for the multigraph
    (self-loop weights on the diagonal).  The top eigenvector
    ``D^1/2 1`` is known in closed form, so Lanczos with full
    re-orthogonalisation runs in its orthogonal complement and the
    largest Ritz value converges to lambda_2."""
    order = sorted(adjacency)
    index = {u: i for i, u in enumerate(order)}
    n = len(order)
    if n < 2:
        return 0.0
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for u, nbrs in adjacency.items():
        i = index[u]
        for v, m in nbrs:
            rows.append(i)
            cols.append(index[v])
            vals.append(float(m))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    deg = np.asarray(A.sum(axis=1)).ravel()
    if (deg <= 0).any():
        return 1.0  # an isolated node: lambda_2 = 1, gap 0
    scale = 1.0 / np.sqrt(deg)
    top = np.sqrt(deg)
    top /= np.linalg.norm(top)

    def matvec(x: np.ndarray) -> np.ndarray:
        return scale * (A @ (scale * x))

    def project(x: np.ndarray) -> np.ndarray:
        return x - top * (top @ x)

    steps = min(steps, n - 1)
    basis = np.empty((steps + 1, n))
    rng = np.random.default_rng(seed)
    q = project(rng.standard_normal(n))
    basis[0] = q / np.linalg.norm(q)
    alphas: list[float] = []
    betas: list[float] = []
    previous = math.inf
    estimate = 0.0
    for k in range(steps):
        w = project(matvec(basis[k]))
        alphas.append(float(basis[k] @ w))
        Q = basis[: k + 1]
        w -= Q.T @ (Q @ w)  # full re-orthogonalisation, twice for stability
        w -= Q.T @ (Q @ w)
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        estimate = float(np.linalg.eigvalsh(T)[-1])
        if beta < 1e-12 or (k >= 8 and abs(estimate - previous) < tol):
            break
        previous = estimate
        betas.append(beta)
        basis[k + 1] = w / beta
    return estimate


def spectral_gap(adjacency: Mapping[int, Sequence[tuple[int, int]]]) -> float:
    return 1.0 - second_eigenvalue(adjacency)


def gap_errors(gap: float, floor: float = GAP_FLOOR) -> list[str]:
    if not gap > floor:
        return [f"spectral gap {gap:.5f} not above the floor {floor}"]
    return []


# ----------------------------------------------------------------------
# requests, storage, persistence, shard ownership
# ----------------------------------------------------------------------
def dht_errors(stored: Mapping[str, object], read: Mapping[str, object]) -> list[str]:
    """Every stored key must read back the value the benchmark stored."""
    wrong = [k for k, v in stored.items() if k not in read or read[k] != v]
    if wrong:
        return [f"{len(wrong)} of {len(stored)} DHT keys read back wrong (e.g. {wrong[0]!r})"]
    return []


def answered_once_errors(sent: int, answers: Counter) -> list[str]:
    """``answers`` counts answers per request id; every one of the
    ``sent`` ids must appear exactly once."""
    errors: list[str] = []
    if set(answers) != set(range(sent)):
        missing = sent - len(set(answers) & set(range(sent)))
        errors.append(f"{missing} of {sent} requests never answered")
    repeated = sum(1 for c in answers.values() if c != 1)
    if repeated:
        errors.append(f"{repeated} requests answered more than once")
    return errors


def checkpoint_errors(
    live_nodes: Iterable[int],
    live_edges: Counter,
    restored_nodes: Iterable[int],
    restored_edges: Counter,
) -> list[str]:
    errors: list[str] = []
    if set(live_nodes) != set(restored_nodes):
        errors.append("restored checkpoint has a different node set")
    if live_edges != restored_edges:
        errors.append("restored checkpoint has a different edge multiset")
    return errors


def ownership_errors(
    shard_nodes: Mapping[int, Iterable[int]],
    regions: Mapping[int, tuple[int, int]],
    handoffs: Mapping[str, int],
) -> list[str]:
    """Every id inside its owner shard's half-open region, no id on two
    shards, and the handoff ledger balanced."""
    errors: list[str] = []
    owner: dict[int, int] = {}
    for shard, nodes in shard_nodes.items():
        lo, hi = regions[shard]
        for u in nodes:
            if not lo <= u < hi:
                errors.append(f"id {u} on shard {shard} lies outside [{lo}, {hi})")
            if u in owner:
                errors.append(f"id {u} owned by shards {owner[u]} and {shard}")
            owner[u] = shard
    done = handoffs["committed"] + handoffs["rejected"] + handoffs["expired"]
    if handoffs["attempted"] != done:
        errors.append(
            f"handoffs attempted {handoffs['attempted']} != committed + rejected + "
            f"expired {done}"
        )
    return errors
