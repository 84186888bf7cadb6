"""Exact s-clique counting on bitmask graphs.

Cliques are counted (never listed) by one loop over an explicit stack
of neighborhood bitmasks, which grows each clique in increasing vertex
order and so visits it once; every public count reads from it. Counts
are exact integers; with n <= 64 they stay far below any overflow
concern. ``_subset_counts`` tabulates every vertex subset by the deletion identity.
"""

from __future__ import annotations

from .graphs import Graph


def _clique_counts(adj: tuple[int, ...], candidates: int, s_max: int) -> list[int]:
    """[k_0, ..., k_{s_max}] of the graph induced on the candidates
    mask, for s_max >= 1. A stack entry (cands, size) holds the common
    neighbours, above its last vertex, of one (size - 1)-clique; each
    makes a size-clique, already counted. Taken in increasing order, a
    candidate and the later ones adjacent to it give the entry of the
    next size, pushed only below s_max."""
    counts = [1, candidates.bit_count()] + [0] * (s_max - 1)
    stack = [(candidates, 1)] if s_max > 1 else []
    while stack:
        cands, size = stack.pop()
        size += 1
        while cands:
            low = cands & -cands
            cands ^= low
            grown = cands & adj[low.bit_length() - 1]
            counts[size] += grown.bit_count()
            if size < s_max and grown:
                stack.append((grown, size))
    return counts


def _subset_counts(adj: tuple[int, ...]) -> list[int]:
    """table[S]: k_j (k_0 = 1) of the graph induced on each vertex mask S in bits 16j up, exact to 16 vertices. By
    doubling over the vertices, with the deletion identity at each top vertex v: k_j(S + v) = k_j(S) + k_{j-1}(N(v) & S)."""
    table = [1]
    for row in adj:
        table += [counts + (table[row & mask] << 16) for mask, counts in enumerate(table)]
    return table


def _child_counts(table: list[int], mask: int, svals: tuple[int, ...]) -> list[int]:
    """k_s of the table's graph G plus a vertex joined to the mask, k_s(G) + k_{s-1}(G[mask]), per s in svals."""
    counts = table[-1] + (table[mask] << 16)
    return [counts >> 16 * s & 0xFFFF for s in svals]


def count_s_cliques(g: Graph, s: int) -> int:
    """Number of vertex s-subsets inducing a complete subgraph.

    k_1 = n, k_2 = m; s beyond the order simply counts zero.
    """
    if s < 1:
        raise ValueError("clique order must be at least 1")
    if s > g.n:
        return 0
    return _clique_counts(g.adj, (1 << g.n) - 1, s)[s]


def clique_counts_upto(g: Graph, s_max: int) -> tuple[int, ...]:
    """(k_1, ..., k_{s_max}) in one sweep."""
    if s_max < 1:
        raise ValueError("clique order must be at least 1")
    return tuple(_clique_counts(g.adj, (1 << g.n) - 1, s_max)[1:])


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
    nbrs = g.adj[v]
    # a neighborhood smaller than s - 1 holds no (s-1)-clique
    within = _clique_counts(g.adj, nbrs, s - 1)[s - 1] if s - 1 <= nbrs.bit_count() else 0
    return lhs, count_s_cliques(g.remove_vertex(v), s) + within
