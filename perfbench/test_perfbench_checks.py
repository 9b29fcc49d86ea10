"""Each output check of the benchmark on a good input and on a corrupted
one that it must catch.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import math
from collections import Counter

import pytest

import checks


def ring(n: int, start: int = 0) -> dict[int, list[tuple[int, int]]]:
    return {
        start + i: [(start + (i - 1) % n, 1), (start + (i + 1) % n, 1)] for i in range(n)
    }


def clique(n: int, start: int = 0) -> dict[int, list[tuple[int, int]]]:
    return {
        start + i: [(start + j, 1) for j in range(n) if j != i] for i in range(n)
    }


def test_ledger_matches_and_catches_a_lost_node():
    assert checks.ledger_errors([1, 2, 3], [4, 5], [2], [1, 3, 4, 5]) == []
    assert checks.ledger_errors([1, 2, 3], [4, 5], [2], [1, 3, 4])
    assert checks.ledger_errors([1, 2, 3], [4, 5], [2], [1, 2, 3, 4, 5])
    assert checks.ledger_errors([1, 2, 3], [3], [], [1, 2, 3])  # join reused an id


def test_connectivity_catches_two_components():
    assert checks.connectivity_errors(ring(12)) == []
    split = {**ring(6), **ring(6, start=6)}
    assert checks.connectivity_errors(split)


def test_symmetry_catches_a_one_sided_edge():
    adj = ring(5)
    assert checks.symmetry_errors(adj) == []
    adj[0] = adj[0] + [(3, 1)]
    assert checks.symmetry_errors(adj)


def test_degree_bound():
    assert checks.degree_errors(ring(8), checks.DEGREE_BOUND_STEADY) == []
    heavy = ring(8)
    heavy[0] = [(0, checks.DEGREE_BOUND_STEADY)] + heavy[0]
    assert checks.degree_errors(heavy, checks.DEGREE_BOUND_STEADY)


def test_eigensolver_matches_closed_forms():
    n = 40
    assert checks.second_eigenvalue(ring(n)) == pytest.approx(math.cos(2 * math.pi / n), abs=1e-8)
    assert checks.second_eigenvalue(clique(9)) == pytest.approx(-1 / 8, abs=1e-8)


def test_eigensolver_matches_the_program_on_a_dex_overlay():
    from common import adjacency
    from repro import DexConfig, DexNetwork
    from repro.analysis.spectral import spectral_gap

    net = DexNetwork.bootstrap(700, DexConfig(seed=3), seed=3)
    for _ in range(20):
        net.insert()
    _order, A = net.graph.to_sparse_adjacency()
    assert checks.spectral_gap(adjacency(net.graph)) == pytest.approx(spectral_gap(A), abs=1e-7)


def test_gap_floor_catches_connected_non_expanders():
    barbell = {**clique(20), **clique(20, start=20)}
    barbell[0] = barbell[0] + [(20, 1)]
    barbell[20] = barbell[20] + [(0, 1)]
    assert checks.connectivity_errors(barbell) == []
    assert checks.gap_errors(checks.spectral_gap(barbell))
    assert checks.gap_errors(checks.spectral_gap(ring(200)))
    assert checks.gap_errors(checks.spectral_gap(clique(12))) == []


def test_refusal_justification():
    star = {0: [1, 2, 3], 1: [0, 4], 2: [0], 3: [0], 4: [1]}
    # deleting the centre disconnects the leaves
    assert checks.refusal_justified(star, [], 0)
    # deleting leaf 2 alone breaks nothing
    assert not checks.refusal_justified(star, [], 2)
    # 4's only neighbour is 1: deleting both strands 4's departure
    assert checks.refusal_justified(star, [1], 4)
    assert checks.is_deletion_refusal("node 7 would disconnect the network")
    assert not checks.is_deletion_refusal("node 7 does not exist")


def test_dht_values():
    stored = {"a": 1, "b": 2}
    assert checks.dht_errors(stored, {"a": 1, "b": 2}) == []
    assert checks.dht_errors(stored, {"a": 1, "b": 3})
    assert checks.dht_errors(stored, {"a": 1})


def test_answered_exactly_once():
    assert checks.answered_once_errors(3, Counter({0: 1, 1: 1, 2: 1})) == []
    assert checks.answered_once_errors(3, Counter({0: 1, 2: 1}))
    assert checks.answered_once_errors(3, Counter({0: 1, 1: 2, 2: 1}))


def test_checkpoint_comparison():
    live = checks.edge_multiset(ring(6))
    assert checks.checkpoint_errors(range(6), live, range(6), Counter(live)) == []
    changed = Counter(live)
    changed[(0, 1)] += 1
    assert checks.checkpoint_errors(range(6), live, range(6), changed)
    assert checks.checkpoint_errors(range(6), live, range(5), Counter(live))


def test_shard_ownership_and_handoff_ledger():
    regions = {0: (0, 10), 1: (10, 20)}
    balanced = {"attempted": 3, "committed": 2, "rejected": 1, "expired": 0}
    assert checks.ownership_errors({0: [1, 2], 1: [11]}, regions, balanced) == []
    assert checks.ownership_errors({0: [1, 12], 1: [11]}, regions, balanced)
    assert checks.ownership_errors({0: [1, 2], 1: [2]}, regions, balanced)
    lost = dict(balanced, committed=1)
    assert checks.ownership_errors({0: [1], 1: [11]}, regions, lost)
