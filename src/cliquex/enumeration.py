"""Isomorph-free generation of connected graphs with given order and
size: the brute-force oracle behind every theorem-level check.

The engine grows graphs one vertex at a time. A child produced by
attaching a new vertex is kept only when the parent it came from is
the child's *canonical* parent: the non-cutvertex deletion minimizing
(degree sequence, canonical form). Each isomorphism class therefore
has exactly one production path, so disjoint subtrees emit disjoint
classes and workers can split the tree with no shared state (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

The parent test works on the child's adjacency rows, built from the
parent's rows and a neighbour mask. Degree sequences compare as
integer keys, and a deletion's key follows from the child's by
arithmetic. Most children lose on that key alone, so the cut test
(one bitmask reachability pass) runs only for a deletion whose
sequence is no larger than the parent's, and a canonical search only
for a non-cut deletion that ties it.
Twins (vertices with the same neighbours apart from each other) are
used twice. Swapping two twins of the parent is an automorphism, so
only the least neighbour mask of each twin orbit is tried. A tied
vertex that is a twin of the new vertex in the child needs no search,
since deleting it gives the parent again.
Children and tied deletions of a valid parent are valid by
construction and skip ``Graph`` validation.

``argmax_fold`` is the one fold over an order's classes, and
``map_partitions`` runs slices on at most the CPU count of processes.
It imports the process pool only when ``workers > 1``, so serial
enumeration and every command that does not enumerate never load
``multiprocessing``.
The engine's oracles (labeled enumeration, Pólya counting and the
parent test written out rule by rule) live in the test suite.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Iterator

from .extremal import feasible_size
from .graphs import CanonicalForm, Graph, are_twins, canonical_form, canonical_graph

MAX_EXHAUSTIVE_ORDER = 9

_FRONTIER_CAP = 6  # serial prefix depth; deeper levels are split across workers


class EnumerationTask:
    """One enumeration job; (worker_index, worker_count) picks a
    deterministic slice of the generation tree."""

    def __init__(self, n: int, m: int | None = None, worker_index: int = 0,
                 worker_count: int = 1) -> None:
        if not 1 <= n <= MAX_EXHAUSTIVE_ORDER:
            raise ValueError(f"exhaustive enumeration supports 1 <= n <= {MAX_EXHAUSTIVE_ORDER}")
        if m is not None and not feasible_size(m, n):
            raise ValueError(f"no connected graph has n={n}, m={m}")
        if not 0 <= worker_index < worker_count:
            raise ValueError("worker index outside 0..worker_count-1")
        self.n, self.m, self.worker_index, self.worker_count = n, m, worker_index, worker_count


def _degree_key(degrees: Iterable[int]) -> int:
    """Sum of 16**d over the degrees. Hex digit d counts the degrees
    equal to d, so keys of equally long sequences of fewer than 16
    entries order as the nonincreasing sequences do."""
    return sum(1 << 4 * k for k in degrees)


def _is_canonical_child(rows: tuple[int, ...], parent_key: int,
                        parent_code: CanonicalForm) -> bool:
    """Parent test: did the child with adjacency ``rows`` come from its
    canonical parent (the last vertex deleted, of degree key
    ``parent_key`` and code ``parent_code``)?

    The canonical parent is the deletion of the non-cutvertex u
    minimizing (degree sequence of child - u, canonical form of
    child - u); the new vertex is never a cut vertex. Sequences are
    compared first, as degree keys, so the cut test runs only on a
    vertex whose deletion could beat the parent, and a canonical search
    only on a non-cut vertex that ties it.
    """
    k = len(rows) - 1
    power = [1 << 4 * row.bit_count() for row in rows]
    key = sum(power)
    tied = []
    for u in range(k):
        # child - u: u's term goes, and each neighbour's degree drops by one
        rest = key - power[u]
        nbrs = rows[u]
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            p = power[bit.bit_length() - 1]
            rest -= p - (p >> 4)
        if rest > parent_key:
            continue
        if rest == parent_key:
            tied.append(u)
        elif not _is_cut_vertex(rows, u):
            return False
    return all(
        are_twins(rows, u, k)  # swapping u and k maps child - u onto the parent
        or _is_cut_vertex(rows, u)
        or canonical_form(_without_vertex(rows, u)) >= parent_code
        for u in tied
    )


def _is_cut_vertex(rows: tuple[int, ...], u: int) -> bool:
    """Does deleting u disconnect the connected graph with these rows?"""
    keep = ((1 << len(rows)) - 1) ^ (1 << u)
    reached = frontier = keep & -keep
    while frontier:
        grown = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            grown |= rows[bit.bit_length() - 1]
        frontier = grown & keep & ~reached
        reached |= frontier
    return reached != keep


def _without_vertex(rows: tuple[int, ...], u: int) -> Graph:
    low = (1 << u) - 1
    return Graph._trusted(len(rows) - 1, tuple(
        (row & low) | ((row >> (u + 1)) << u) for w, row in enumerate(rows) if w != u
    ))


def _edge_budget_ok(order: int, size: int, n: int, m: int | None) -> bool:
    if m is None:
        return True
    lo = size + (n - order)
    hi = size + n * (n - 1) // 2 - order * (order - 1) // 2
    return lo <= m <= hi


def _children(parent: Graph, n: int, m: int | None) -> Iterator[Graph]:
    """Accepted children of one parent, deduplicated within the parent."""
    parent_code = canonical_form(parent)
    parent_key = _degree_key(parent.degrees())
    k = parent.n
    e = parent.m
    # Masks in one orbit of the parent's twin swaps give isomorphic children
    # with one verdict; the least of the orbit takes a prefix of each class.
    prefixes: dict[int, list[int]] = {}  # least member of a twin class: its prefix masks
    for u in range(k):
        least = next((r for r in prefixes if are_twins(parent.adj, r, u)), u)
        prefix = prefixes.setdefault(least, [0])
        prefix.append(prefix[-1] | 1 << u)
    masks = [0]
    for prefix in prefixes.values():
        masks = [mask | p for mask in masks for p in prefix]
    seen: set[CanonicalForm] = set()
    for mask in sorted(masks)[1:]:
        if not _edge_budget_ok(k + 1, e + mask.bit_count(), n, m):
            continue
        rows = tuple(row | (((mask >> u) & 1) << k) for u, row in enumerate(parent.adj)) + (mask,)
        if not _is_canonical_child(rows, parent_key, parent_code):
            continue
        child = Graph._trusted(k + 1, rows)
        code = canonical_form(child)
        if code in seen:
            continue
        seen.add(code)
        yield child


def connected_graphs(task: EnumerationTask) -> Iterator[Graph]:
    """Exactly one canonical representative per isomorphism class of
    connected graphs with the requested order (and size, if given)."""
    n, m = task.n, task.m
    frontier = [Graph(1, (0,))]
    for _ in range(1, min(_FRONTIER_CAP, n - 1)):
        frontier = [child for parent in frontier for child in _children(parent, n, m)]
    frontier.sort(key=canonical_form)
    for idx, root in enumerate(frontier):
        if idx % task.worker_count != task.worker_index:
            continue
        stack = [root]
        while stack:
            g = stack.pop()
            if g.n == n:
                if m is None or g.m == m:
                    yield canonical_graph(g)
                continue
            stack.extend(_children(g, n, m))


def map_partitions(fn: Callable[[EnumerationTask], Any], n: int, m: int | None = None,
                   workers: int = 1) -> list:
    """``fn`` applied to each of the ``workers`` slices of the (n, m)
    generation tree, in slice order: in process when ``workers == 1``,
    otherwise on at most the CPU count of processes (``fn`` must then
    be picklable)."""
    tasks = [EnumerationTask(n, m, worker_index=w, worker_count=workers) for w in range(workers)]
    if workers == 1:
        return [fn(tasks[0])]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, so not at import

    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, tasks))


def _keep_max(best: dict, cell: Hashable, value, graphs: list[Graph]) -> None:
    prev = best.get(cell)
    if prev is None or value > prev[0]:
        best[cell] = (value, graphs)
    elif value == prev[0]:
        prev[1].extend(graphs)


def _fold_task(cells: Callable[[Graph], Iterable[tuple[Hashable, Any]]],
               task: EnumerationTask) -> dict:
    best: dict = {}
    for g in connected_graphs(task):
        for cell, value in cells(g):
            _keep_max(best, cell, value, [g])
    return best


def argmax_fold(n: int, cells: Callable[[Graph], Iterable[tuple[Hashable, Any]]],
                workers: int = 1) -> dict:
    """{cell: (maximum value, every graph attaining it)} over all
    connected graphs of order n, where ``cells(g)`` yields the
    (cell, value) pairs of one graph.

    One enumeration pass per slice; slices merge by the same rule, so
    the maxima and the attaining sets do not depend on ``workers``
    (the order of graphs within a set does).
    """
    best: dict = {}
    for part in map_partitions(partial(_fold_task, cells), n, workers=workers):
        for cell, (value, graphs) in part.items():
            _keep_max(best, cell, value, graphs)
    return best
