"""Arithmetic core: size/order decompositions, sharp clique bounds,
kernel peeling, and the extremal-family constructors.

The connected decomposition writes the excess m - n as
C(r-1, 2) + t - 2 with 2 <= t <= r (and r = t = 1 exactly when
m = n - 1); it is unique and drives every bound and construction
here. The kernel of a graph at level s is what remains after
iteratively deleting vertices of degree <= s, i.e. the (s+1)-core; a
mask peel deletes all of them each round, and any order gives that core.
"""

from __future__ import annotations

import random
from itertools import chain
from math import comb, isqrt

from .graphs import Graph, _bits


def choose(a: int, b: int) -> int:
    """Binomial with the zero convention: 0 when b < 0, b > a, or a < 0."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def feasible_size(m: int, n: int) -> bool:
    """Whether some connected graph has n vertices and m edges."""
    return n >= 1 and n - 1 <= m <= n * (n - 1) // 2


def decompose_connected(m: int, n: int) -> tuple[int, int]:
    """The pair (r, t): unique with m - n = C(r-1, 2) + t - 2 and
    2 <= t <= r, or (1, 1) for trees (m = n - 1)."""
    if not feasible_size(m, n):
        raise ValueError(f"no connected graph has n={n}, m={m}")
    excess = m - n
    if excess == -1:
        return 1, 1
    # the least r >= 2 with C(r-1, 2) + r = C(r, 2) + 1 >= excess + 2
    r = (3 + isqrt(1 + 8 * excess)) // 2
    t = excess + 2 - choose(r - 1, 2)
    assert 2 <= t <= r
    return r, t


def decompose_erdos(m: int) -> tuple[int, int]:
    """The pair (r, t) with m = C(r, 2) + t and r maximal, hence 0 <= t < r.

    Taking r maximal resolves the boundary ambiguity (t = r versus
    t' = 0 one step up); the clique bound is unaffected because
    C(r, s) + C(r, s-1) = C(r+1, s).
    """
    if m < 0:
        raise ValueError("size must be non-negative")
    r = (1 + isqrt(1 + 8 * m)) // 2  # the greatest r with C(r, 2) <= m
    return r, m - choose(r, 2)


def max_cliques_bound(m: int, n: int, s: int) -> int:
    """Sharp maximum of k_s over connected graphs with n vertices, m edges."""
    if s < 3:
        raise ValueError("clique order must be at least 3")
    r, t = decompose_connected(m, n)
    return choose(r, s) + choose(t, s - 1)


def erdos_bound(m: int, s: int) -> int:
    """Classical maximum of k_s over all graphs of size m (order ignored)."""
    if s < 3:
        raise ValueError("clique order must be at least 3")
    r, t = decompose_erdos(m)
    return choose(r, s) + choose(t, s - 1)


# ── kernel (core) peeling ─────────────────────────────────────────


def kernel(g: Graph, s: int) -> Graph:
    """Maximal induced subgraph of minimum degree >= s + 1 (the (s+1)-core).

    May be empty; vertices keep their relative order.
    """
    if s < 0:
        raise ValueError("peeling threshold must be non-negative")
    return g._induced(sorted(kernel_vertices(g, s)))


def kernel_vertices(g: Graph, s: int) -> frozenset[int]:
    """Vertex set of kernel(g, s), in the original labeling: delete every
    live vertex of degree <= s at once, until no such vertex is left."""
    live = (1 << g.n) - 1
    while doomed := sum(1 << v for v in _bits(live) if (g.adj[v] & live).bit_count() <= s):
        live ^= doomed
    return frozenset(_bits(live))


def peel_random_order(g: Graph, s: int, rng: random.Random) -> frozenset[int]:
    """Surviving vertices after deleting degree <= s vertices one at a
    time in a random order. Used to test order-independence of the
    kernel; the production path is the mask peel above.
    """
    live = set(range(g.n))
    deg = list(g.degrees())
    while True:
        removable = sorted(v for v in live if deg[v] <= s)
        if not removable:
            return frozenset(live)
        v = rng.choice(removable)
        live.remove(v)
        for w in _bits(g.adj[v]):
            if w in live:
                deg[w] -= 1


# ── extremal constructions ────────────────────────────────────────


def construct_krt(r: int, t: int) -> Graph:
    """K_r plus one new vertex joined to t of its vertices."""
    if not 1 <= t <= r:
        raise ValueError(f"need 1 <= t <= r, got r={r}, t={t}")
    g = Graph.complete(r)
    return g.add_vertex(range(t))


def construct_extremal_star(m: int, n: int) -> Graph:
    """The bound-attaining graph: K_r^t with n - r - 1 pendant edges on
    one degree-r vertex (a clique vertex adjacent to the extra vertex)."""
    if m < n:
        raise ValueError(f"construction needs m >= n, got n={n}, m={m}")
    r, t = decompose_connected(m, n)
    g = construct_krt(r, t)
    for _ in range(n - r - 1):
        g = g.add_vertex([0])
    return g


def construct_bridge(p: int, q: int, length: int) -> Graph:
    """K_p and C_q joined by a path with ``length`` edges.

    Length 0 identifies one clique vertex with one cycle vertex
    (creating a cut vertex); the excess m - n equals C(p-1, 2) for
    every length.
    """
    if p < 3 or q < 3:
        raise ValueError(f"need p, q >= 3, got p={p}, q={q}")
    if length < 0:
        raise ValueError("path length must be non-negative")
    n = p + length + q - 1
    hook = p - 1 + length  # the path's far end, the cycle's one vertex on it
    clique = ((u, v) for v in range(p) for u in range(v))
    # one chain from the clique's last vertex: the path, then the cycle's other q - 1 vertices
    path_and_cycle = ((v, v + 1) for v in range(p - 1, n - 1))
    # lazy edges: from_edges rejects an order above 64 before reading any
    return Graph.from_edges(n, chain(clique, path_and_cycle, [(hook, n - 1)]))


def construct_b1(m: int, n: int) -> Graph:
    """Pendant-star extremal graph in a t = 2 band (equals the general
    star construction)."""
    r, t = decompose_connected(m, n)
    if t != 2 or r < 3:
        raise ValueError(f"t = 2 and r >= 3 required, got r={r}, t={t}")
    return construct_extremal_star(m, n)


def construct_b2(m: int, n: int) -> Graph:
    """B(r, 3) with all n - r - 2 pendants on its cut vertex."""
    r, t = decompose_connected(m, n)
    if t != 2 or r < 3:
        raise ValueError(f"t = 2 and r >= 3 required, got r={r}, t={t}")
    if n < r + 2:
        raise ValueError(f"order {n} cannot hold B({r}, 3)")
    g = construct_bridge(r, 3, 0)
    for _ in range(n - (r + 2)):
        g = g.add_vertex([r - 1])
    return g
