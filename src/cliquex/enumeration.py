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
follow. Most children lose on the key alone;
rows are built only for a mask that passes, and a canonical search
runs only for a non-cut deletion whose key ties the parent's.
Twins (vertices with the same neighbours apart from each other) are
used twice. Swapping two twins of the parent is an automorphism, so
only the least neighbour mask of each twin orbit is tried. A tied
vertex that is a twin of the new vertex in the child needs no search,
since deleting it gives the parent again.
Children and tied deletions of a valid parent are valid by
construction and skip ``Graph`` validation.

Every consumer shares one walk per task, ``_leaf_batches``, which hands
over every node from the roots' order to n - 1 with its accepted
children and their sibling duplicates, a class's only ones; the first
child of each class is the next node. ``canonical_codes`` reads the
order n - 1 nodes' children and yields each class's canonical graph6
code, which ``cliquex enumerate`` prints as is and ``connected_graphs``
decodes. ``walk_classes`` (for the lemma checks) and ``argmax_fold`` (the
one fold of clique counts) read every level. The fold counts each node's
cliques once and each child's from its new vertex's mask alone, and
canonicalizes only the children that attain a maximum, so a class count
per (n, m) must come from ``canonical_codes``, never from it.
The edge budget in ``_accepted`` is the only size rule.
``map_partitions`` owns the task layout, the same at every worker count,
and runs the tasks in process or, for ``workers > 1``, on one pool that
it imports only then, so serial runs never load ``multiprocessing``.
The engine's oracles (labeled enumeration, Pólya counting and the
parent test written out rule by rule) live in the test suite.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Iterator

from .cliques import _clique_counts
from .extremal import feasible_size
from .graphs import (
    CanonicalForm,
    Graph,
    _bits,
    _reach,
    _without_vertex,
    are_twins,
    canonical_form,
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
        # sums[mask]: the key of each parent - u plus the weights in mask; spreads[mask]: bit 64v per v in mask
        self.sums, self.spreads = [sum(weights) // 15], [0]
        for v, weight in enumerate(weights):
            self.sums += [total + weight for total in self.sums]
            self.spreads += [spread | 1 << 64 * v for spread in self.spreads]
        self.parts = []  # parts[u]: the components of parent - u if u is a cut vertex, else none
        for u in range(k):
            left, parts = ((1 << k) - 1) ^ (1 << u), []
            while left:
                parts.append(_reach(adj, left & -left, left))
                left ^= parts[-1]
            self.parts.append(parts if len(parts) > 1 else [])

    def keys(self, mask: int) -> int:
        """Lane u: key(parent - u) + 15 * 16**deg_{parent-u}(v) per v in mask - u + 16**|mask - u|."""
        top = 1 << 4 * mask.bit_count()
        return self.sums[mask] + top * self.ones - (top - (top >> 4)) * self.spreads[mask]

    def is_cut(self, u: int, mask: int) -> bool:
        """Is u a cut vertex of the child: mask - u empty or missing a part of parent - u? Not in K2."""
        rest = mask & ~(1 << u)
        return len(self.adj) > 1 and (not rest or not all(map(rest.__and__, self.parts[u])))

    def child_rows(self, mask: int) -> tuple[int, ...] | None:
        """The child's rows if it passes the test, else None."""
        keys = self.keys(mask)
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


def _accepted(parent: Graph, n: int, m: int | None) -> list[Graph]:
    """Accepted children of one parent in mask order, sibling duplicates included."""
    test = _ParentTest(parent)
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
    sized = [mask for mask in sorted(masks)[1:] if fewest <= mask.bit_count() <= most]
    return [Graph._trusted(k + 1, rows) for rows in map(test.child_rows, sized) if rows is not None]


def _firsts(graphs: Iterable[Graph]) -> Iterator[Graph]:
    """The first graph of each class, in order."""
    firsts: dict[CanonicalForm, Graph] = {}
    for g in graphs:
        firsts.setdefault(canonical_form(g), g)
    return iter(firsts.values())


def _frontier_order(n: int) -> int:
    return max(1, min(_FRONTIER_CAP, n - 1))


def _frontier(n: int, m: int | None) -> list[Graph]:
    """The roots of the (n, m) generation tree's subtrees, in canonical order."""
    frontier = [Graph(1, (0,))]
    for _ in range(1, _frontier_order(n)):
        frontier = [child for parent in frontier for child in _firsts(_accepted(parent, n, m))]
    return sorted(frontier, key=canonical_form)


def _leaf_batches(task: EnumerationTask) -> Iterator[tuple[Graph, list[Graph]]]:
    """The walk of one task: each node from the roots' order to n - 1 with
    its accepted children in mask order, sibling duplicates included; the
    first child of each class is a later node, so none is tested twice.
    No leaf needs a size check: the last step adds exactly m - e edges."""
    n, m = task.n, task.m
    for root in _frontier(n, m) if task.roots is None else task.roots:
        stack = [root]
        while stack:
            g = stack.pop()
            if g.n == n:  # only K1, the one child of the empty graph
                yield Graph._trusted(0, ()), [g]
                continue
            accepted = _accepted(g, n, m)
            yield g, accepted
            if g.n < n - 1:
                stack.extend(_firsts(accepted))


def canonical_codes(task: EnumerationTask) -> Iterator[CanonicalForm]:
    """Each class's code, as ``canonical_form`` holds it, in ``connected_graphs``
    order: per parent, the first leaf of each class, taken in reverse."""
    for parent, leaves in _leaf_batches(task):
        if parent.n == task.n - 1:
            yield from reversed(dict.fromkeys(map(canonical_form, leaves)))


def connected_graphs(task: EnumerationTask) -> Iterator[Graph]:
    """Exactly one canonical representative per isomorphism class of
    connected graphs with the requested order (and size, if given)."""
    yield from map(from_graph6, canonical_codes(task))


def walk_classes(task: EnumerationTask) -> Iterator[Graph]:
    """Each class's first child as it stands, at every level of the task's walk, in ``canonical_codes`` order."""
    return (g for _, leaves in _leaf_batches(task) for g in reversed(list(_firsts(leaves))))


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
    for parent, leaves in _leaf_batches(task):
        n = parent.n + 1
        if n not in orders:  # a level of the walk that nobody asked for
            continue
        top = min(max(svals), n)  # no clique is larger than the graph
        counts, e = _clique_counts(parent.adj, (1 << parent.n) - 1, top), parent.m
        for g in reversed(leaves):
            mask = g.adj[-1]  # the new vertex's neighbours in the parent
            within = _clique_counts(parent.adj, mask, max(top - 1, 1))  # top is 1 only for K1
            m = e + mask.bit_count()
            for s in svals:
                _keep_max(best, (n, m, s), counts[s] + within[s - 1] if s <= top else 0, [g])
    # a class's duplicates are siblings and attain together; its last sits where connected_graphs has it
    for cell, (value, graphs) in best.items():
        codes = dict.fromkeys(map(canonical_form, reversed(graphs)))
        best[cell] = (value, [from_graph6(code) for code in reversed(codes)])
    return best


def argmax_fold(orders: Iterable[int], svals: Iterable[int], workers: int = 1) -> dict[int, dict]:
    """{n: {(m, s): (maximum k_s, every graph attaining it)}} over all
    connected graphs of each order n, for each clique order s >= 1 in
    ``svals``.

    Each graph of order n is its parent P plus one vertex v joined to a
    mask of P, so k_s(G) = k_s(P) + k_{s-1}(P[mask]), the deletion
    identity at v. P's counts are taken once, each child's from its mask
    alone, and only up to min(max(svals), n): a larger s reads 0.
    A task canonicalizes only its attaining graphs. It walks every level
    of its subtree but folds only the levels of the orders asked. Each
    task's part merges by the same rule as it arrives, in task order, so
    the maxima and the attaining lists, in the yield order of one pass
    per order, depend neither on ``workers`` nor on the other orders asked.
    """
    svals = tuple(svals)
    if not svals or min(svals) < 1:
        raise ValueError("clique orders must be given, and each must be at least 1")
    folded: dict[int, dict] = {n: {} for n in orders}
    for part in map_partitions(partial(_fold_task, svals, frozenset(folded)), folded, workers=workers):
        for (n, m, s), (value, graphs) in part.items():
            _keep_max(folded[n], (m, s), value, graphs)
    return folded
