"""Isomorph-free generation of connected graphs with given order and
size: the brute-force oracle behind every theorem-level check.

The engine grows graphs one vertex at a time. A child produced by
attaching a new vertex is kept only when the parent it came from is
the child's *canonical* parent: the non-cutvertex deletion minimizing
(degree sequence, canonical form). Each isomorphism class therefore
has exactly one production path, so disjoint subtrees emit disjoint
classes and workers can split the tree with no shared state.

The engine's own oracle, labeled enumeration with orbit dedup, lives
in the test suite (``tests/labeled_oracle.py``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Iterator

from .graphs import CanonicalForm, Graph, canonical_form, canonical_graph

MAX_EXHAUSTIVE_ORDER = 9

_FRONTIER_CAP = 6  # serial prefix depth; deeper levels are split across workers


@dataclass(frozen=True)
class EnumerationTask:
    """One enumeration job; (worker_index, worker_count) picks a
    deterministic slice of the generation tree."""

    n: int
    m: int | None = None
    worker_index: int = 0
    worker_count: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_EXHAUSTIVE_ORDER:
            raise ValueError(f"exhaustive enumeration supports 1 <= n <= {MAX_EXHAUSTIVE_ORDER}")
        if self.m is not None and not (self.n - 1 <= self.m <= self.n * (self.n - 1) // 2):
            raise ValueError(f"no connected graph has n={self.n}, m={self.m}")
        if not 0 <= self.worker_index < self.worker_count:
            raise ValueError("worker index outside 0..worker_count-1")


def _deleted_degree_sequence(g: Graph, u: int) -> tuple[int, ...]:
    deg = g.degrees()
    return tuple(
        sorted(
            (deg[w] - ((g.adj[u] >> w) & 1) for w in range(g.n) if w != u),
            reverse=True,
        )
    )


def _is_canonical_child(child: Graph, parent_code: CanonicalForm) -> bool:
    """Parent test: did the child come from its canonical parent?

    The canonical parent is the deletion of the non-cutvertex u
    minimizing (degree sequence of child - u, canonical form of
    child - u); the new vertex (last index) is always deletable.
    """
    cuts = child.articulation_points()
    new_vertex = child.n - 1
    candidates = [u for u in range(child.n) if u not in cuts]
    degseqs = {u: _deleted_degree_sequence(child, u) for u in candidates}
    best_degseq = min(degseqs.values())
    if degseqs[new_vertex] != best_degseq:
        return False
    best_code = min(
        canonical_form(child.remove_vertex(u))
        for u in candidates
        if degseqs[u] == best_degseq
    )
    return parent_code == best_code


def _edge_budget_ok(order: int, size: int, n: int, m: int | None) -> bool:
    if m is None:
        return True
    lo = size + (n - order)
    hi = size + n * (n - 1) // 2 - order * (order - 1) // 2
    return lo <= m <= hi


def _children(parent: Graph, n: int, m: int | None) -> Iterator[Graph]:
    """Accepted children of one parent, deduplicated within the parent."""
    parent_code = canonical_form(parent)
    k = parent.n
    e = parent.m
    seen: set[CanonicalForm] = set()
    for mask in range(1, 1 << k):
        if not _edge_budget_ok(k + 1, e + mask.bit_count(), n, m):
            continue
        child = parent.add_vertex(u for u in range(k) if (mask >> u) & 1)
        if not _is_canonical_child(child, parent_code):
            continue
        code = canonical_form(child)
        if code in seen:
            continue
        seen.add(code)
        yield child


def _levels_until(n: int, m: int | None, depth: int) -> list[Graph]:
    level = [Graph(1, (0,))]
    for k in range(1, depth):
        level = [child for parent in level for child in _children(parent, n, m)]
    return level


def connected_graphs(task: EnumerationTask) -> Iterator[Graph]:
    """Exactly one canonical representative per isomorphism class of
    connected graphs with the requested order (and size, if given)."""
    n, m = task.n, task.m
    if n == 1:
        if task.worker_index == 0 and m in (None, 0):
            yield Graph(1, (0,))
        return
    frontier_depth = min(_FRONTIER_CAP, n - 1)
    frontier = sorted(_levels_until(n, m, frontier_depth), key=canonical_form)
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
    otherwise one process per slice (``fn`` must then be picklable)."""
    tasks = [EnumerationTask(n, m, worker_index=w, worker_count=workers) for w in range(workers)]
    if workers == 1:
        return [fn(tasks[0])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
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


def class_fold(task: EnumerationTask, measure: Callable[[Graph], int]) -> tuple[int, list[Graph]]:
    """Maximum of ``measure`` over the task's slice of the class, with
    every graph attaining it (canonical representatives, sorted by
    canonical form). An empty slice raises ``ValueError``."""
    best = _fold_task(lambda g: ((None, measure(g)),), task)
    if not best:
        raise ValueError(f"empty class for n={task.n}, m={task.m}")
    value, witnesses = best[None]
    witnesses.sort(key=canonical_form)
    return value, witnesses
