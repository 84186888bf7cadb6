"""Isomorph-free generation of connected graphs with given order and
size: the brute-force oracle behind every theorem-level check.

The engine grows graphs one vertex at a time. A child produced by
attaching a new vertex is kept only when the parent it came from is
the child's *canonical* parent: the non-cutvertex deletion minimizing
(degree sequence, canonical form). Each isomorphism class therefore
has exactly one production path, so disjoint subtrees emit disjoint
classes and each subtree can be its own task with no shared state
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

The parent test (``_ParentTest``) is decided from the parent and the
child's neighbour mask. Per parent it keeps a table by mask from which
each deletion's degree key (the keys packed in one integer) is read,
and the components of each parent - u, from which the cut verdicts
follow. Most children lose on the key alone, most of them to a first
cut: a non-cut vertex of the parent stays one in a child whose mask
has two or more vertices, so one packed comparison per mask rejects
it if such a vertex's key is below the parent's, before ``child_rows``.
Rows are built only for a mask that passes, and a canonical search
runs only for a non-cut deletion whose key ties the parent's.
Twins (vertices with the same neighbours apart from each other) are
used twice. Swapping two twins of the parent is an automorphism, so
only the least neighbour mask of each twin orbit is tried. A tied
vertex that is a twin of the new vertex in the child needs no search,
since deleting it gives the parent again.
Children and tied deletions of a valid parent are valid by
construction and skip ``Graph`` validation.

Every consumer tests children with ``_accepted``, which keeps the first
of each class in mask order (a class's other children are siblings of
that one), and shares one walk per task, ``_leaf_batches``: every node
below order n - 1 with its accepted children, each a later node, and
each node of order n - 1 untested. ``walk_classes`` (for the lemma
checks) tests all its ``_masks`` and reads every level;
``canonical_codes`` yields the graph6 code of each class of order n,
which ``cliquex enumerate`` prints as is and ``connected_graphs``
decodes. ``argmax_fold`` (the one fold of clique counts) reads every
level from subset tables, tests at order n only the children that reach
a task maximum and canonicalizes only those that attain one, so a class
count per (n, m) must come from ``canonical_codes``, never from it.
The edge budget in ``_masks`` is the only size rule.
``map_partitions`` owns the task layout, the same at every worker count,
and runs the tasks in process or, for ``workers > 1``, on one pool that
it imports only then, so serial runs never load ``multiprocessing``.
The engine's oracles (labeled enumeration, Pólya counting and the
parent test written out rule by rule) live in the test suite.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from operator import ge
from typing import Any, Callable, Hashable, Iterable, Iterator

from .cliques import _child_counts, _subset_counts
from .extremal import feasible_size
from .graphs import (
    CanonicalForm,
    Graph,
    _bits,
    _reach,
    _without_vertex,
    are_twins,
    canonical_form,
    canonical_graph,
    from_graph6,
)

MAX_EXHAUSTIVE_ORDER = 9

_FRONTIER_CAP = 6  # order of the frontier roots, the unit of parallel work


class EnumerationTask:
    """One enumeration job: the classes grown from ``roots``, frontier
    roots of the (n, m) generation tree, or the whole tree when
    ``roots`` is None."""

    def __init__(self, n: int, m: int | None = None,
                 roots: tuple[Graph, ...] | None = None) -> None:
        if not 1 <= n <= MAX_EXHAUSTIVE_ORDER:
            raise ValueError(f"exhaustive enumeration supports 1 <= n <= {MAX_EXHAUSTIVE_ORDER}")
        if m is not None and not feasible_size(m, n):
            raise ValueError(f"no connected graph has n={n}, m={m}")
        if any(root.n != _frontier_order(n) for root in roots or ()):
            raise ValueError(f"frontier roots of order {n} have {_frontier_order(n)} vertices")
        self.n, self.m, self.roots = n, m, roots


def _degree_key(degrees: Iterable[int]) -> int:
    """Sum of 16**d over the degrees. Hex digit d counts the degrees
    equal to d, so keys of equally long sequences of fewer than 16
    entries order as the nonincreasing sequences do."""
    return sum(1 << 4 * k for k in degrees)


@lru_cache(maxsize=None)
def _spreads(k: int) -> tuple[int, ...]:
    """spreads[mask]: bit 64v per v in mask, for every mask of k vertices."""
    spreads = [0]
    for v in range(k):
        spreads += [spread | 1 << 64 * v for spread in spreads]
    return tuple(spreads)


class _ParentTest:
    """Did the child with neighbour mask ``mask`` (vertex k joined to the
    parent's vertices in the mask) come from its canonical parent: is k a
    non-cutvertex u minimizing (degree sequence, canonical form) of
    child - u? Lane u (bits 64u up) of a packed key is child - u's."""

    def __init__(self, parent: Graph) -> None:
        adj, k, degrees = parent.adj, parent.n, parent.degrees()
        self.adj, self.key, self.code = adj, _degree_key(degrees), canonical_form(parent)
        self.ones = sum(1 << 64 * u for u in range(k))
        # every lane's top bit, and the bias that clears it where a lane's key is below the parent's
        self.high, self.bias = self.ones << 63, ((1 << 63) - self.key) * self.ones
        # lane u of weights[v]: 15 times v's term in key(parent - u), its gain when v joins the new vertex
        weights = [sum(15 << 4 * (d - (row >> u & 1)) + 64 * u for u in range(k) if u != v)
                   for v, (d, row) in enumerate(zip(degrees, adj))]
        # sums[mask]: the key of each parent - u plus the weights in mask; spreads: one table per order
        self.sums, self.spreads = [sum(weights) // 15], _spreads(k)
        for weight in weights:
            self.sums += [total + weight for total in self.sums]
        self.parts = []  # parts[u]: the components of parent - u if u is a cut vertex, else none
        for u in range(k):
            left, parts = ((1 << k) - 1) ^ (1 << u), []
            while left:
                parts.append(_reach(adj, left & -left, left))
                left ^= parts[-1]
            self.parts.append(parts if len(parts) > 1 else [])
        # the top bits of the lanes of the parent's non-cut vertices: each stays a non-cut vertex of a
        # child whose mask has two or more vertices, since parent - u is connected and the mask meets it
        self.noncut = sum(1 << 64 * u + 63 for u in range(k) if not self.parts[u])

    def keys(self, mask: int) -> int:
        """Lane u: key(parent - u) + 15 * 16**deg_{parent-u}(v) per v in mask - u + 16**|mask - u|."""
        top = 1 << 4 * mask.bit_count()
        return self.sums[mask] + top * self.ones - (top - (top >> 4)) * self.spreads[mask]

    def is_cut(self, u: int, mask: int) -> bool:
        """Is u a cut vertex of the child: mask - u empty or missing a part of parent - u? Not in K2."""
        rest = mask & ~(1 << u)
        return len(self.adj) > 1 and (not rest or not all(map(rest.__and__, self.parts[u])))

    def child_rows(self, mask: int, keys: int) -> tuple[int, ...] | None:
        """The child's rows if it passes the test, else None; ``keys`` is ``self.keys(mask)``."""
        less = rest = ~(keys + self.bias) & self.high  # the lanes below the parent's key
        while rest:
            bit = rest & -rest
            rest ^= bit
            if not self.is_cut((bit.bit_length() - 1) >> 6, mask):
                return None
        tied = ~(keys + self.bias - self.ones) & self.high ^ less  # the lanes equal to it
        k = len(self.adj)
        rows = tuple(row | (mask >> u & 1) << k for u, row in enumerate(self.adj)) + (mask,)
        for u in (b >> 6 for b in _bits(tied)):
            if not (are_twins(rows, u, k)  # swapping u and k maps child - u onto the parent
                    or self.is_cut(u, mask)
                    or canonical_form(_without_vertex(rows, u)) >= self.code):
                return None
        return rows

    def accepted(self, masks: list[int]) -> dict[int, tuple[int, ...]]:
        """The rows of each child that passes, by mask in mask order. The first cut refutes a mask of
        two or more vertices whose key puts a non-cut vertex's lane below the parent's, as child_rows would."""
        bias, noncut = self.bias, self.noncut
        keyed = ((mask, self.keys(mask)) for mask in masks)
        left = [(mask, keys) for mask, keys in keyed if not (mask & mask - 1 and ~(keys + bias) & noncut)]
        return {mask: rows for mask, keys in left if (rows := self.child_rows(mask, keys)) is not None}


def _masks(parent: Graph, n: int, m: int | None) -> list[int]:
    """The masks tried on one parent, ascending: the least of each twin orbit, in the edge budget."""
    k, e = parent.n, parent.m
    # mask sizes in the edge budget: the n - k - 1 vertices to come add at least
    # one edge each, and at most every edge not among the first k + 1 vertices
    fewest, most = (1, k) if m is None else (m - e - n * (n - 1) // 2 + k * (k + 1) // 2, m - e - n + k + 1)
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
    return [mask for mask in sorted(masks)[1:] if fewest <= mask.bit_count() <= most]


def _accepted(parent: Graph, masks: list[int]) -> list[Graph]:
    """The first accepted child of each class, in mask order: the one place that drops sibling duplicates."""
    firsts: dict[CanonicalForm, Graph] = {}
    for rows in _ParentTest(parent).accepted(masks).values():
        g = Graph._trusted(parent.n + 1, rows)
        firsts.setdefault(canonical_form(g), g)
    return list(firsts.values())


def _frontier_order(n: int) -> int:
    return max(1, min(_FRONTIER_CAP, n - 1))


def _frontier(n: int, m: int | None) -> list[Graph]:
    """The roots of the (n, m) generation tree's subtrees, in canonical order."""
    frontier = [Graph(1, (0,))]
    for _ in range(1, _frontier_order(n)):
        frontier = [child for parent in frontier for child in _accepted(parent, _masks(parent, n, m))]
    return sorted(frontier, key=canonical_form)


def _leaf_batches(task: EnumerationTask) -> Iterator[tuple[Graph, list[Graph] | None]]:
    """The walk of one task: each node below order n - 1 with its ``_accepted`` children, each a later node, and each
    of order n - 1 with None: its consumer tests the masks it needs. No leaf needs a size check: the masks add m - e."""
    n, m = task.n, task.m
    for root in _frontier(n, m) if task.roots is None else task.roots:
        stack = [root]
        while stack:
            g = stack.pop()
            if g.n == n:  # only K1, the one child of the empty graph
                yield Graph._trusted(0, ()), [g]
            elif g.n == n - 1:
                yield g, None
            else:
                accepted = _accepted(g, _masks(g, n, m))
                yield g, accepted
                stack.extend(accepted)


def walk_classes(task: EnumerationTask) -> Iterator[Graph]:
    """Each class's first child as it stands, at every level of the task's walk: per parent, in reverse mask order."""
    return (g for parent, leaves in _leaf_batches(task)
            for g in reversed(_accepted(parent, _masks(parent, task.n, task.m)) if leaves is None else leaves))


def canonical_codes(task: EnumerationTask) -> Iterator[CanonicalForm]:
    """Each class's code, as ``canonical_form`` holds it (``_accepted`` has just
    searched it), in ``connected_graphs`` order: the top level of ``walk_classes``."""
    return (canonical_form(g) for g in walk_classes(task) if g.n == task.n)


def connected_graphs(task: EnumerationTask) -> Iterator[Graph]:
    """Exactly one canonical representative per isomorphism class of
    connected graphs with the requested order (and size, if given)."""
    yield from map(from_graph6, canonical_codes(task))


def map_partitions(fn: Callable[[EnumerationTask], Any], orders: Iterable[int],
                   m: int | None = None, workers: int = 1) -> Iterator[Any]:
    """``fn`` of each task, in task order: one per frontier root of the top
    order and of each order at or below its frontier order, every order
    checked first. The top order's tree holds the orders in between, so
    ``fn`` has to read every level of the walk; a size ``m`` takes one
    order. ``workers`` only picks where the tasks run: in process as the
    stream is read, or on a pool of at most the CPU count (``fn`` must pickle)."""
    whole = [EnumerationTask(n, m) for n in dict.fromkeys(orders)]
    if m is not None and len(whole) > 1:
        raise ValueError("an (n, m) tree holds no other order's classes of size m: ask for one order")
    top = max((t.n for t in whole), default=0)
    tasks = [EnumerationTask(t.n, m, (root,)) for t in whole
             if t.n <= _frontier_order(top) or t.n == top for root in _frontier(t.n, m)]
    if workers == 1:
        yield from map(fn, tasks)
        return
    from multiprocessing import Pool  # not at import: serial runs never load it

    # The default start method forks on Linux, which is safe here: no thread
    # runs yet, and the workers start with the frontier's canonical forms cached.
    with Pool(min(workers, os.cpu_count() or 1)) as pool:
        yield from pool.imap(fn, tasks, chunksize=1)


def _keep_max(best: dict, cell: Hashable, value, graphs: list[Graph]) -> None:
    prev = best.get(cell)
    if prev is None or value > prev[0]:
        best[cell] = (value, graphs)
    elif value == prev[0]:
        prev[1].extend(graphs)


def _fold_task(svals: tuple[int, ...], orders: frozenset[int], task: EnumerationTask) -> dict:
    best: dict = {}
    maxima: dict[int, list[int]] = {}  # m: the most k_s per s of any top-order child so far, tested or not
    kept = []  # (top-order parent, [(mask, m, k_s per s)] of the children that reached maxima as it then stood)
    for parent, leaves in _leaf_batches(task):
        if parent.n + 1 not in orders:  # a level of the walk that nobody asked for
            continue
        table, e, reach = _subset_counts(parent.adj), parent.m, []
        if leaves is not None:  # tested by the walk: a level below the top, or K1
            for g in reversed(leaves):
                for s, value in zip(svals, _child_counts(table, g.adj[-1], svals)):
                    _keep_max(best, (g.n, e + g.adj[-1].bit_count(), s), value, [g])
            continue
        for mask in _masks(parent, task.n, task.m):
            m, values = e + mask.bit_count(), _child_counts(table, mask, svals)
            most = maxima.setdefault(m, values)
            if any(map(ge, values, most)):
                maxima[m] = list(map(max, values, most))
                reach.append((mask, m, values))
        kept.append((parent, reach))
    for parent, reach in kept:  # test only the children that reach a task maximum
        picked = [(mask, m, values) for mask, m, values in reach if any(map(ge, values, maxima[m]))]
        accepted = {g.adj[-1]: g for g in _accepted(parent, [mask for mask, _, _ in picked])} if picked else {}
        for mask, m, values in reversed(picked):
            if (g := accepted.get(mask)) is not None:
                for s, value in zip(svals, values):
                    _keep_max(best, (task.n, m, s), value, [g])
    return {cell: (value, list(map(canonical_graph, graphs))) for cell, (value, graphs) in best.items()}


def argmax_fold(orders: Iterable[int], svals: Iterable[int], workers: int = 1) -> dict[int, dict]:
    """{n: {(m, s): (maximum k_s, every graph attaining it)}} over all
    connected graphs of each order n, for each clique order s >= 1 in
    ``svals``.

    Each graph of order n is its parent P plus one vertex v joined to a
    mask of P, so k_s(G) = k_s(P) + k_{s-1}(P[mask]), the deletion
    identity at v: P's subset table gives every child's counts. A task
    walks every level of its subtree but folds only the orders asked. At
    its top order it bounds before it tests: a first pass takes each
    (m, s) maximum over all children, accepted or not, and a second tests
    and folds only the children that reach one. Some task accepts every
    child's class with the same value, so that maximum lies between the
    task's over its accepted children and the cell's; a cell that no
    accepted child reaches gets nothing from the task that the merge keeps.
    Each task's part merges by the same rule as it arrives, in task order,
    so the maxima and attaining lists, in the yield order of one pass per
    order, depend neither on ``workers`` nor on the other orders asked.
    """
    svals = tuple(svals)
    if not svals or min(svals) < 1:
        raise ValueError("clique orders must be given, and each must be at least 1")
    folded: dict[int, dict] = {n: {} for n in orders}
    for part in map_partitions(partial(_fold_task, svals, frozenset(folded)), folded, workers=workers):
        for (n, m, s), (value, graphs) in part.items():
            _keep_max(folded[n], (m, s), value, graphs)
    return folded
