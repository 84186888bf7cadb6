"""Exact spectral moments, the closed-walk/subgraph identity for the
fourth moment, lexicographic moment-vector comparison, and the
degree-sequence machinery for pendant rearrangement.

Moments are traces of adjacency-matrix powers computed in exact
Python integers; eigenvalues are never touched, so ties in the moment
order are detected exactly, at any order and any power.
"""

from __future__ import annotations

from itertools import combinations
from typing import Literal, NamedTuple

from .extremal import choose, kernel
from .graphs import Graph


class SOrderResult(NamedTuple):
    relation: Literal["before", "after", "equal"]
    first_differing_index: int | None


def _walk_bound(n: int, j_max: int) -> int:
    return n * max(n - 1, 1) ** j_max


def spectral_moments(g: Graph, j_max: int) -> tuple[int, ...]:
    """(S_0, ..., S_j_max) with S_j = tr(A^j), in exact integer
    arithmetic; S_0 is the order n.

    Row u of A^k is one Python int with a lane of ``width`` bits per
    column. Row u of A^(k+1) is the sum of the rows at u's neighbours,
    and no walk count fills a lane, so lanes never carry into each other.
    """
    if not 0 <= j_max <= 63:
        raise ValueError("moment index must lie in 0..63")
    n = g.n
    width = _walk_bound(n, j_max).bit_length() + 1
    lane = (1 << width) - 1
    shifts = [u * width for u in range(n)]
    nbrs = [list(g.neighbors(u)) for u in range(n)]
    rows = [1 << shift for shift in shifts]
    moments = [n]
    for _ in range(j_max):
        rows = [sum([rows[v] for v in nb]) for nb in nbrs]
        moments.append(sum((row >> shift) & lane for row, shift in zip(rows, shifts)))
    return tuple(moments)


def moment_sequence(g: Graph) -> tuple[int, ...]:
    """The full comparison key (S_0, ..., S_{n-1})."""
    return spectral_moments(g, max(g.n - 1, 0))


def count_c4(g: Graph) -> int:
    """4-cycle subgraphs: a vertex pair with c common neighbours is a
    diagonal of C(c, 2) of them, and each 4-cycle has two diagonals.

    Deliberately not derived from traces so the fourth-moment identity
    stays a genuine cross-check between two methods.
    """
    adj = g.adj
    return sum(choose((adj[u] & adj[v]).bit_count(), 2) for u, v in combinations(range(g.n), 2)) // 2


def s4_via_subgraphs(g: Graph) -> int:
    """Fourth moment from subgraph counts: 2*phi(edge) + 4*phi(cherry)
    + 8*phi(C_4). Matches the trace of A^4 on every graph."""
    cherries = sum(choose(d, 2) for d in g.degrees())
    return 2 * g.m + 4 * cherries + 8 * count_c4(g)


def s_order_compare(g1: Graph, g2: Graph) -> SOrderResult:
    """Lexicographic comparison of (S_0, ..., S_{n-1}); graphs of
    different order are not comparable."""
    if g1.n != g2.n:
        raise ValueError(f"moment order is defined within one order, got {g1.n} != {g2.n}")
    s1, s2 = moment_sequence(g1), moment_sequence(g2)
    for j, (a, b) in enumerate(zip(s1, s2)):
        if a != b:
            return SOrderResult("before" if a < b else "after", j)
    return SOrderResult("equal", None)


# ── degree-sequence realization ───────────────────────────────────


def _check_two_core(h: Graph) -> None:
    if h.n == 0 or not h.is_connected():
        raise ValueError("base graph must be connected")
    if min(h.degrees()) < 2:
        raise ValueError("base graph must equal its own 2-core (min degree >= 2)")


def realize_with_kernel(h: Graph, targets: tuple[int, ...], n: int) -> Graph:
    """Connected graph on n vertices whose 2-core is (isomorphic to) h
    and whose degree sequence equals ``targets``.

    Built by attaching a path at the first strict-excess vertex, then
    filling with pendant edges. Preconditions are reported one by one:
    the targets must be nonincreasing and positive, dominate h's
    degrees with strict excess somewhere, and sum to h's degree total
    plus 2(n - k).
    """
    _check_two_core(h)
    k = h.n
    if n <= k:
        raise ValueError(f"target order {n} must exceed the core order {k}")
    targets = tuple(targets)
    if len(targets) != n:
        raise ValueError(f"expected {n} target degrees, got {len(targets)}")
    if any(d < 1 for d in targets):
        raise ValueError("target degrees must be positive")
    if any(targets[i] < targets[i + 1] for i in range(n - 1)):
        raise ValueError("target degrees must be nonincreasing")
    base = h.degree_sequence()
    if any(targets[i] < base[i] for i in range(k)):
        raise ValueError("targets must dominate the core degrees elementwise")
    excess_at = [i for i in range(k) if targets[i] > base[i]]
    if not excess_at:
        raise ValueError("some core position must have strict excess")
    if sum(targets) != sum(base) + 2 * (n - k):
        raise ValueError(
            f"degree total must be {sum(base) + 2 * (n - k)}, got {sum(targets)}"
        )

    # relabel the core so position i carries degree base[i]
    g = h._induced(sorted(range(k), key=lambda v: (-h.degree(v), v)))

    i0 = excess_at[0]
    path_len = sum(1 for i in range(k, n) if targets[i] >= 2)
    attach = i0
    for _ in range(path_len):
        g = g.add_vertex([attach])
        attach = g.n - 1
    for i in range(k + path_len):
        want = targets[i]
        have = g.degree(i)
        for _ in range(want - have):
            g = g.add_vertex([i])
    if g.n != n:
        raise AssertionError("pendant fill did not close the order gap")
    return g


def d_transformation(g: Graph, i0: int) -> Graph:
    """Rebuild g with one degree unit moved from sorted position i0 to
    position 0, keeping the 2-core; the fourth moment strictly grows.

    ``i0`` is a 0-based position into the nonincreasing degree
    sequence, in 1..k-1 where k is the 2-core order, and must sit
    strictly above the core's own degree there.
    """
    h = kernel(g, 1)
    if h.n == 0:
        raise ValueError("graph must have a nonempty 2-core")
    k = h.n
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if k >= g.n:
        raise ValueError("graph must have pendant structure outside its 2-core")
    d = list(g.degree_sequence())
    base = h.degree_sequence()
    if not 1 <= i0 < k:
        raise ValueError(f"position must lie in 1..{k - 1}")
    if d[i0] <= base[i0]:
        raise ValueError(f"position {i0} has no strict excess over the core degree")
    d[0] += 1
    d[i0] -= 1
    targets = tuple(sorted(d, reverse=True))
    return realize_with_kernel(h, targets, g.n)
