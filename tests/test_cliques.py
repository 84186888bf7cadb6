from itertools import combinations

import pytest

from cliquex import (
    Graph,
    clique_counts_upto,
    construct_krt,
    count_s_cliques,
    deletion_identity_check,
)
from cliquex.cliques import _clique_counts
from conftest import random_graph, run_capped


def brute_count(g: Graph, s: int) -> int:
    """Independent oracle: test all C(n, s) vertex subsets."""
    return sum(
        1
        for subset in combinations(range(g.n), s)
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2))
    )


def test_examples():
    assert count_s_cliques(Graph.complete(5), 3) == 10
    assert count_s_cliques(construct_krt(4, 2), 3) == 5
    assert count_s_cliques(Graph.cycle(7), 3) == 0
    assert count_s_cliques(Graph.complete(3), 7) == 0


def test_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        count_s_cliques(Graph.complete(3), 0)
    with pytest.raises(ValueError):
        clique_counts_upto(Graph.complete(3), 0)


def test_small_orders_count_vertices_and_edges(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12))
        assert count_s_cliques(g, 1) == g.n
        assert count_s_cliques(g, 2) == g.m


def test_matches_subset_oracle(rng):
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        for s in range(3, 6):
            assert count_s_cliques(g, s) == brute_count(g, s)


def test_counts_upto_matches_oracle(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        assert clique_counts_upto(g, 5) == tuple(brute_count(g, s) for s in range(1, 6))


def test_exhaustive_tiny_orders():
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            g = Graph.from_edges(n, [e for i, e in enumerate(slots) if bits >> i & 1])
            for s in (3, 4, 5):
                assert count_s_cliques(g, s) == brute_count(g, s)


def test_exhaustive_connected_classes():
    from cliquex import EnumerationTask, connected_graphs

    for n in range(1, 8):
        for g in connected_graphs(EnumerationTask(n)):
            for s in (3, 4, 5):
                assert count_s_cliques(g, s) == brute_count(g, s)


def test_monotone_under_edge_addition(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9))
        missing = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        u, v = missing[rng.randrange(len(missing))]
        bigger = Graph.from_edges(g.n, list(g.edges()) + [(u, v)])
        for s in range(1, 6):
            assert count_s_cliques(bigger, s) >= count_s_cliques(g, s)


def test_counts_of_any_candidate_mask_match_subset_oracle(rng):
    """The shared counting loop on any candidate mask (empty, one
    vertex, the whole graph, random) and every s_max up to the order,
    against every subset of the mask."""
    for n in range(11):
        for _ in range(4):
            g = random_graph(rng, n, rng.random())
            masks = {0, (1 << n) - 1, *(1 << u for u in range(n))}
            masks |= {rng.randrange(1 << n) for _ in range(6)}
            for mask in sorted(masks):
                inside = [u for u in range(n) if mask >> u & 1]
                oracle = [
                    sum(
                        all(g.has_edge(u, v) for u, v in combinations(subset, 2))
                        for subset in combinations(inside, s)
                    )
                    for s in range(max(n, 1) + 1)
                ]
                for s_max in range(1, len(oracle)):
                    assert _clique_counts(g.adj, mask, s_max) == oracle[: s_max + 1], (mask, s_max)


def test_deletion_identity_examples():
    lhs, rhs = deletion_identity_check(Graph.complete(4), 0, 3)
    assert lhs == rhs == 4
    lhs, rhs = deletion_identity_check(Graph.cycle(5), 2, 3)
    assert lhs == rhs == 0


def test_deletion_identity_randomized(rng):
    for _ in range(1000):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        v = rng.randrange(n)
        s = rng.randint(2, 5)
        lhs, rhs = deletion_identity_check(g, v, s)
        assert lhs == rhs


def test_deletion_identity_sides_match_subset_oracle(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        v = rng.randrange(n)
        s = rng.randint(2, 5)
        lhs, rhs = deletion_identity_check(g, v, s)
        assert lhs == brute_count(g, s)
        without = g.remove_vertex(v)
        neighborhood = [u for u in range(g.n) if g.has_edge(u, v)]
        nbr_count = (
            brute_count(g.induced_subgraph(neighborhood), s - 1) if neighborhood else 0
        )
        assert rhs == brute_count(without, s) + nbr_count


def test_huge_clique_order_counts_zero_at_once():
    # run capped at 512 MB: counting up to s = 10**9 would allocate 8 GB
    proc = run_capped("""
        from cliquex import construct_krt, count_s_cliques, deletion_identity_check
        g = construct_krt(5, 3)
        assert count_s_cliques(g, 10**9) == 0
        for v in range(g.n):
            assert deletion_identity_check(g, v, 10**9) == (0, 0)
    """)
    assert proc.returncode == 0, proc.stderr


def test_deletion_identity_rejects_bad_args():
    with pytest.raises(ValueError):
        deletion_identity_check(Graph.complete(3), 0, 1)
    with pytest.raises(ValueError):
        deletion_identity_check(Graph.complete(3), 5, 3)
