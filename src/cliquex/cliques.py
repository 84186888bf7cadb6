"""Exact s-clique counting on bitmask graphs.

Cliques are counted (never listed) by recursive intersection of
neighborhood bitmasks, visiting each clique once in increasing vertex
order. Counts are exact integers; with n <= 64 they stay far below
any overflow concern.
"""

from __future__ import annotations

from .graphs import Graph


def _count_within(adj: tuple[int, ...], candidates: int, want: int) -> int:
    """want-cliques among the vertices of the candidates mask."""
    if want == 1:
        return candidates.bit_count()
    if candidates.bit_count() < want:
        return 0
    total = 0
    rest = candidates
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        total += _count_within(adj, rest & adj[u], want - 1)
    return total


def count_s_cliques(g: Graph, s: int) -> int:
    """Number of vertex s-subsets inducing a complete subgraph.

    k_1 = n, k_2 = m; s beyond the order simply counts zero.
    """
    if s < 1:
        raise ValueError("clique order must be at least 1")
    if s > g.n:
        return 0
    return _count_within(g.adj, (1 << g.n) - 1, s)


def clique_counts_upto(g: Graph, s_max: int) -> tuple[int, ...]:
    """(k_1, ..., k_{s_max}) in one recursive sweep."""
    if s_max < 1:
        raise ValueError("clique order must be at least 1")
    counts = [0] * (s_max + 1)
    adj = g.adj

    def rec(candidates: int, depth: int) -> None:
        if depth == s_max:
            return
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            counts[depth + 1] += 1
            rec(rest & adj[u], depth + 1)

    rec((1 << g.n) - 1, 0)
    return tuple(counts[1:])


def deletion_identity_check(g: Graph, v: int, s: int) -> tuple[int, int]:
    """Both sides of the one-vertex clique split at v.

    Returns (k_s(g), k_s(g - v) + k_{s-1} of the neighborhood graph);
    the contract is that the two agree for every graph, vertex, and
    s >= 2.
    """
    if s < 2:
        raise ValueError("the deletion identity needs clique order at least 2")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not in graph")
    lhs = count_s_cliques(g, s)
    rhs = count_s_cliques(g.remove_vertex(v), s) + _count_within(g.adj, g.adj[v], s - 1)
    return lhs, rhs
