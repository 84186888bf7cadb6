import random
from functools import lru_cache

import pytest

from cliquex import (
    Graph,
    argmax_fold,
    canonical_form,
    choose,
    construct_b1,
    construct_b2,
    construct_bridge,
    construct_extremal_star,
    construct_krt,
    count_s_cliques,
    decompose_connected,
    decompose_erdos,
    erdos_bound,
    is_isomorphic,
    kernel,
    kernel_vertices,
    max_cliques_bound,
    peel_random_order,
)
from conftest import EXTENDED, random_connected_graph, random_graph


# ── decompositions ────────────────────────────────────────────────


@lru_cache(maxsize=None)
def brute_connected_decomposition(excess):
    """Search every (r, t) the definition admits for m - n = excess,
    which is all the definition reads of (m, n)."""
    found = []
    if excess == -1:
        found.append((1, 1))
    for r in range(2, 80):
        for t in range(2, r + 1):
            if excess == choose(r - 1, 2) + t - 2:
                found.append((r, t))
    return tuple(found)


def test_decompose_connected_examples():
    assert decompose_connected(6, 7) == (1, 1)
    assert decompose_connected(10, 7) == (4, 2)
    assert decompose_connected(10, 5) == (4, 4)


def test_decompose_connected_unique_and_exhaustive():
    for n in range(1, 41):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            sols = brute_connected_decomposition(m - n)
            assert len(sols) == 1
            assert decompose_connected(m, n) == sols[0]


def test_decompose_connected_rejects_infeasible():
    for m, n in [(1, 3), (7, 4), (0, 0), (5, 0)]:
        with pytest.raises(ValueError):
            decompose_connected(m, n)


def test_decompose_erdos_examples_and_normalization():
    assert decompose_erdos(7) == (4, 1)
    assert decompose_erdos(10) == (5, 0)
    assert decompose_erdos(0) == (1, 0)
    for m in range(0, 400):
        r, t = decompose_erdos(m)
        assert m == choose(r, 2) + t
        assert 0 <= t < r or (r == 1 and t == 0)
        # r maximal with C(r, 2) <= m
        assert choose(r + 1, 2) > m


def searched_erdos_decomposition(m):
    """The greatest r with C(r, 2) <= m, found by counting up."""
    r = 1
    while choose(r + 1, 2) <= m:
        r += 1
    return r, m - choose(r, 2)


def searched_connected_decomposition(m, n):
    """The least r >= 2 with C(r-1, 2) + r >= m - n + 2, found by counting up."""
    r = 2
    while choose(r - 1, 2) + r < m - n + 2:
        r += 1
    return r, m - n + 2 - choose(r - 1, 2)


def test_decompositions_match_their_searches():
    for m in range(3000):
        assert tuple(decompose_erdos(m)) == searched_erdos_decomposition(m)
    for n in range(1, 61):
        for m in range(n, n * (n - 1) // 2 + 1):
            assert tuple(decompose_connected(m, n)) == searched_connected_decomposition(m, n)


def test_decompositions_of_huge_sizes():
    # counting r up to about 1.4 * 10^15 would not finish
    m = 10**30
    r, t = decompose_erdos(m)
    assert m == choose(r, 2) + t and 0 <= t < r
    n = 2 * 10**15  # C(n, 2) > m
    r, t = decompose_connected(m, n)
    assert m - n == choose(r - 1, 2) + t - 2 and 2 <= t <= r


def test_choose_zero_convention():
    assert choose(3, 5) == 0
    assert choose(-1, 2) == 0
    assert choose(4, -1) == 0
    assert choose(4, 0) == 1


# ── bounds ────────────────────────────────────────────────────────


def test_bound_examples():
    # frozen from the exhaustive enumeration oracle
    assert max_cliques_bound(10, 7, 3) == 5
    assert max_cliques_bound(7, 8, 3) == 0
    assert max_cliques_bound(10, 5, 3) == 10
    assert erdos_bound(6, 3) == 4
    assert erdos_bound(7, 3) == 4
    assert erdos_bound(10, 3) == 10


def test_bound_rejects_small_s():
    with pytest.raises(ValueError):
        max_cliques_bound(10, 7, 2)
    with pytest.raises(ValueError):
        erdos_bound(10, 2)


def test_connected_bound_never_exceeds_erdos():
    for n in range(3, 12):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for s in (3, 4, 5):
                assert max_cliques_bound(m, n, s) <= erdos_bound(m, s)


# ── kernel peeling ────────────────────────────────────────────────


def test_kernel_examples():
    assert kernel(Graph.path(5), 1).n == 0
    k4_pendant = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    assert is_isomorphic(kernel(k4_pendant, 2), Graph.complete(4))
    gstar = construct_extremal_star(10, 7)
    assert is_isomorphic(kernel(gstar, 1), construct_krt(4, 2))


def test_kernel_is_maximal_with_min_degree(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12))
        for s in range(0, 4):
            core = kernel(g, s)
            if core.n:
                assert min(core.degrees()) >= s + 1
            # no larger induced subgraph with that degree floor survives peeling
            keep = kernel_vertices(g, s)
            for v in range(g.n):
                if v in keep:
                    continue
                again = kernel(g.induced_subgraph(sorted(keep | {v})), s) if keep | {v} else None
                if again is not None:
                    assert again.n <= len(keep)


def test_kernel_order_independent(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10))
        s = rng.randint(0, 4)
        expected = kernel_vertices(g, s)
        for _ in range(100):
            assert peel_random_order(g, s, rng) == expected


def test_kernel_rejects_negative_threshold():
    with pytest.raises(ValueError):
        kernel(Graph.complete(3), -1)


def with_pendant_trees(base: Graph, extra: int, rng) -> Graph:
    """``base`` with ``extra`` more vertices, each hung on one earlier vertex."""
    for _ in range(extra):
        base = base.add_vertex([rng.randrange(base.n)])
    return base


def long_peels(rng):
    """Graphs whose peel takes many rounds: long paths and cycles, a path
    ending in K_5, and each of them carrying pendant trees."""
    for length in (12, 30, 59):
        tail = Graph.path(length)
        lollipop = Graph.from_edges(length + 4, list(Graph.complete(5).edges())
                                    + [(i, i + 1) for i in range(4, length + 3)])
        for base in (tail, Graph.cycle(length), lollipop):
            yield base
            yield with_pendant_trees(base, 64 - base.n, rng)


def test_kernel_matches_networkx_core(rng):
    import networkx as nx

    from cliquex import to_graph6

    graphs = [random_graph(rng, rng.randint(1, 12)) for _ in range(200)]
    graphs += [random_graph(rng, rng.randint(13, 64), rng.choice((0.05, 0.1, 0.2)))
               for _ in range(40)]
    graphs += long_peels(rng)
    for g in graphs:
        G = nx.from_graph6_bytes(to_graph6(g).encode())
        for s in range(0, 4):
            assert kernel_vertices(g, s) == set(nx.k_core(G, k=s + 1).nodes())
    for s in range(0, 4):
        assert kernel_vertices(Graph(0, ()), s) == frozenset()


# ── constructors ──────────────────────────────────────────────────


def test_construct_krt_examples():
    assert is_isomorphic(construct_krt(4, 4), Graph.complete(5))
    g = construct_krt(4, 2)
    assert (g.n, g.m) == (5, 8)
    assert count_s_cliques(g, 3) == 5
    k3_pendant = construct_krt(3, 1)
    assert k3_pendant.degree_sequence() == (3, 2, 2, 1)
    with pytest.raises(ValueError):
        construct_krt(4, 5)
    with pytest.raises(ValueError):
        construct_krt(4, 0)


def test_construct_krt_attains_erdos_bound():
    for r in range(3, 9):
        for t in range(1, r + 1):
            g = construct_krt(r, t)
            for s in range(3, 7):
                assert count_s_cliques(g, s) == choose(r, s) + choose(t, s - 1)


def test_extremal_star_examples():
    g = construct_extremal_star(10, 7)
    assert (g.n, g.m) == (7, 10)
    assert count_s_cliques(g, 3) == 5
    # n = r + 1 leaves no pendants
    assert is_isomorphic(construct_extremal_star(8, 5), construct_krt(4, 2))


def test_extremal_star_size_order_audit():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(3, 24)
        m = rng.randint(n, n * (n - 1) // 2)
        g = construct_extremal_star(m, n)
        assert (g.n, g.m) == (n, m)
        assert g.is_connected()


def test_extremal_star_attains_bound():
    for n in range(4, 13):
        for m in range(n, n * (n - 1) // 2 + 1):
            g = construct_extremal_star(m, n)
            for s in (3, 4, 5):
                assert count_s_cliques(g, s) == max_cliques_bound(m, n, s)


def test_extremal_star_rejects_trees():
    with pytest.raises(ValueError):
        construct_extremal_star(5, 6)


def test_bridge_examples():
    b = construct_bridge(4, 3, 0)
    assert (b.n, b.m) == (6, 9)
    assert len(b.articulation_points()) == 1
    b = construct_bridge(3, 3, 1)
    assert (b.n, b.m) == (6, 7)
    with pytest.raises(ValueError):
        construct_bridge(2, 3, 0)
    with pytest.raises(ValueError):
        construct_bridge(3, 2, 0)
    with pytest.raises(ValueError):
        construct_bridge(3, 3, -1)
    for p, q, length in [(10**6, 3, 0), (3, 10**9, 0), (3, 3, 10**9)]:  # fail at once, past 64 vertices
        with pytest.raises(ValueError, match="outside"):
            construct_bridge(p, q, length)


def grown_bridge(p, q, length):
    """The bridge grown one vertex at a time: the labelling that report
    hashes and `cliquex construct --family bridge` pin."""
    g = Graph.complete(p)
    hook = p - 1
    for _ in range(length):
        g = g.add_vertex([hook])
        hook = g.n - 1
    g = g.add_vertex([hook])
    for _ in range(q - 2):
        g = g.add_vertex([g.n - 1])
    return Graph.from_edges(g.n, list(g.edges()) + [(hook, g.n - 1)])


def test_bridge_labelling_matches_vertex_by_vertex_growth():
    for p in range(3, 9):
        for q in range(3, 9):
            for length in range(6):
                assert construct_bridge(p, q, length) == grown_bridge(p, q, length)


def test_bridge_excess_invariant_in_length():
    for p in range(3, 7):
        for q in range(3, 6):
            excesses = {
                construct_bridge(p, q, length).m - construct_bridge(p, q, length).n
                for length in range(5)
            }
            assert excesses == {choose(p - 1, 2)}


def test_b1_b2_pair():
    b1, b2 = construct_b1(11, 8), construct_b2(11, 8)
    assert (b1.n, b1.m) == (8, 11)
    assert (b2.n, b2.m) == (8, 11)
    assert b1.is_connected() and b2.is_connected()
    assert count_s_cliques(b1, 3) == count_s_cliques(b2, 3) == 5
    assert canonical_form(b1) != canonical_form(b2)


def test_b1_b2_reject_wrong_band():
    with pytest.raises(ValueError):
        construct_b1(12, 8)  # t = 3 band
    with pytest.raises(ValueError):
        construct_b2(12, 8)
    with pytest.raises(ValueError):
        construct_b2(8, 5)  # K_4^2 band is too tight to hold B(4, 3)


# ── excess/kernel interplay ───────────────────────────────────────


def test_induced_subgraph_excess_never_larger(rng):
    for _ in range(300):
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n)
        for _ in range(50):
            size = rng.randint(1, n)
            h = g.induced_subgraph(rng.sample(range(n), size))
            if h.is_connected():
                break
        else:
            continue
        k = (g.m - g.n) - (h.m - h.n)
        assert k >= 0
        for s in range(k + 3, k + 6):
            assert canonical_form(kernel(h, s - 2)) == canonical_form(kernel(g, s - 2))


def test_clique_free_band(rng):
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 9))
        for s in (3, 4, 5):
            if g.m - g.n <= choose(s, 2) - s - 1:
                assert count_s_cliques(g, s) == 0


# n: the (m, s) pairs where K_r^t, on r + (t > 0) vertices, fits in n
# vertices, and the (m, s) cells where the connected maximum lies strictly
# below the maximum over all graphs, for s in {3, 4, 5}
KNAPSACK_COUNTS = {1: (3, 0), 2: (6, 0), 3: (12, 0), 4: (21, 1), 5: (33, 4), 6: (48, 11), 7: (66, 23),
                   8: (87, 38), 9: (111, 57)}


def knapsack_counts(n_max: int, workers: int) -> dict[int, tuple[int, int]]:
    """Check the knapsack over the connected maxima against erdos_bound at
    every order up to n_max, and count each order's pairs and cells as
    KNAPSACK_COUNTS does."""
    # k_s adds over components, so the best multiset of connected maxima
    # (isolated vertices included) is the maximum over all (n, m) graphs
    svals = (3, 4, 5)
    folded = argmax_fold(range(1, n_max + 1), svals, workers)
    best = {(0, 0, s): 0 for s in svals}  # (n, m, s): maximum k_s over all graphs
    counts = {}
    for n in range(1, n_max + 1):
        for m in range(choose(n, 2) + 1):
            for s in svals:
                best[n, m, s] = max(best[n - a, m - b, s] + value
                                    for a in range(1, n + 1)
                                    for (b, order), (value, _) in folded[a].items()
                                    if order == s and (n - a, m - b, s) in best)
        fits = [(m, s) for m, (r, t) in enumerate(map(decompose_erdos, range(choose(n, 2) + 1)))
                for s in svals if r + (t > 0) <= n]
        assert all(best[n, m, s] == erdos_bound(m, s) for m, s in fits)
        assert all(value <= best[n, m, s] for (m, s), (value, _) in folded[n].items())
        counts[n] = len(fits), sum(value < best[n, m, s] for (m, s), (value, _) in folded[n].items())
    return counts


def test_erdos_bound_is_the_knapsack_of_connected_maxima():
    assert knapsack_counts(8, 1) == {n: KNAPSACK_COUNTS[n] for n in range(1, 9)}


@pytest.mark.skipif(not EXTENDED, reason="set CLIQUEX_EXTENDED=1 for the n=9 fold")
def test_erdos_bound_is_the_knapsack_of_connected_maxima_at_order_nine():
    assert knapsack_counts(9, 2) == KNAPSACK_COUNTS
