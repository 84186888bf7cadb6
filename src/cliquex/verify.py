"""Theorem-level harnesses: closed-form predictions versus exhaustive
enumeration, emitted as machine-readable reports.

A mismatch is report content, never an exception; every grid always
runs to completion. Reports are deterministic for fixed inputs (seed
and worker count included) once the timing field is ignored, and
every witness re-verifies in isolation from its graph6 string.

`_report` builds every report once, from a lazy stream of cells that it
times. `_cell` builds every cell and owns its keys and the witness rule.
A lemma suite is a stream of (ok, witnesses) checks, ok None for no check;
the exhaustive ones check each class of every level of a task's walk as it
stands, and return tallies and families, which `_lemma_rows` merges in task order.

The theorem reports are views of one walk, `_clique_grid`, which checks
the order cap, folds the clique counts with `argmax_fold` and yields each
feasible (n, m, s) point with its maximum and attaining graphs; a view
maps a point to its cell, or to None where its theorem claims nothing.
s-order ranks only the k_3 maximizers by moments: S_0..S_2 are fixed per
(n, m), and S_3 = 6 k_3 is checked. `argmax_fold` and `walk_classes` give
one graph per class, so graphs are counted and compared as they are.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Iterable, Iterator
from itertools import starmap

from .cliques import count_s_cliques, deletion_identity_check
from .enumeration import MAX_EXHAUSTIVE_ORDER, EnumerationTask, argmax_fold, map_partitions, walk_classes
from .extremal import (
    choose,
    construct_b2,
    construct_bridge,
    construct_extremal_star,
    construct_krt,
    decompose_connected,
    kernel,
    kernel_vertices,
    max_cliques_bound,
    peel_random_order,
)
from .graphs import CanonicalForm, Graph, _is_cut_vertex, canonical_form, to_graph6
from .spectral import (
    d_transformation,
    moment_sequence,
    s4_via_subgraphs,
    s_order_compare,
    spectral_moments,
)

WITNESS_CAP = 8  # matched cells keep a deterministic sample; mismatches keep all


class VerificationReport:
    def __init__(self, theorem_id: str, grid: list[dict] | None = None, seed: int = 0,
                 elapsed_ms: int = 0) -> None:
        self.theorem_id = theorem_id
        self.grid = [] if grid is None else grid
        self.seed = seed
        self.elapsed_ms = elapsed_ms

    @property
    def mismatches(self) -> list[dict]:
        return [cell for cell in self.grid if cell["status"] != "match"]

    def to_json(self, timing: bool = True) -> str:
        body = {"theorem_id": self.theorem_id, "grid": self.grid, "seed": self.seed,
                "elapsed_ms": self.elapsed_ms if timing else 0}
        return json.dumps(body, sort_keys=True, indent=2)


def _report(theorem_id: str, seed: int, cells: Iterable[dict | None]) -> VerificationReport:
    """The report over a lazy stream of cells, None meaning no cell, timed while it runs."""
    start = time.perf_counter()
    grid = [cell for cell in cells if cell is not None]
    return VerificationReport(theorem_id, grid, seed, int((time.perf_counter() - start) * 1000))


def _cell(n: int, m: int, s: int, predicted: int, observed: int, ok: bool,
          witnesses: Iterable[Graph], ties: Iterable[Graph] = ()) -> dict:
    """One report cell. Witnesses and ties are listed as sorted graph6
    strings, the first WITNESS_CAP of them if the cell matched."""
    cap = WITNESS_CAP if ok else None
    return {
        "n": n,
        "m": m,
        "s": s,
        "predicted": predicted,
        "observed": observed,
        "status": "match" if ok else "mismatch",
        "witnesses": sorted(map(to_graph6, witnesses))[:cap],
        "ties": sorted(map(to_graph6, ties))[:cap],
    }


def _random_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _random_connected_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    while True:
        g = _random_graph(rng, n, p)
        if g.is_connected():
            return g


# ── argument checks and fold cells (picklable worker payloads) ────


def _check_n_max(n_max: int, lowest: int) -> None:
    """Reject, before any enumeration, an order cap whose grid would be
    empty or that exhaustive enumeration cannot reach."""
    if not lowest <= n_max <= MAX_EXHAUSTIVE_ORDER:
        raise ValueError(
            f"n_max must lie in {lowest}..{MAX_EXHAUSTIVE_ORDER} for this grid, got {n_max}"
        )


def _clique_orders(s_values: set[int]) -> tuple[int, ...]:
    svals = tuple(sorted(s_values))
    if not svals or svals[0] < 3:
        raise ValueError("clique orders must be given, and orders below 3 are out of scope")
    return svals


def _moment_gallery(k3: int, triangles: list[Graph]) -> tuple[list[Graph], list[Graph]]:
    """The moment maxima among one cell's triangle maximizers, and those with S_3 != 6 k_3."""
    keys = [moment_sequence(g) for g in triangles]
    best = max(keys)
    return ([g for g, key in zip(triangles, keys) if key == best],
            [g for g, key in zip(triangles, keys) if key[3] != 6 * k3])


# ── Theorem harness: maximum clique counts ────────────────────────


def _clique_grid(lowest: int, n_max: int, svals: tuple[int, ...], workers: int
                 ) -> Iterator[tuple[int, int, int, int, list[Graph]]]:
    """(n, m, s, maximum k_s, every class attaining it) for each feasible
    cell of orders lowest..n_max, in (n, m, s) order, from one fold."""
    _check_n_max(n_max, lowest)
    folded = argmax_fold(range(lowest, n_max + 1), svals, workers)
    for n, cells in folded.items():
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for s in svals:
                yield n, m, s, *cells[(m, s)]


def _max_cliques_cell(n: int, m: int, s: int, observed: int, attain: list[Graph]) -> dict:
    predicted = max_cliques_bound(m, n, s)
    return _cell(n, m, s, predicted, observed, observed == predicted, attain)


def verify_max_cliques(n_max: int, s_values: set[int], workers: int = 1,
                       seed: int = 0) -> VerificationReport:
    """Enumerated maxima of k_s versus the closed-form bound, for every
    order up to n_max and every feasible size."""
    cells = _clique_grid(3, n_max, _clique_orders(s_values), workers)
    return _report("max-cliques", seed, starmap(_max_cliques_cell, cells))


# ── Theorem harness: kernels of extremal graphs ───────────────────


def _allowed_kernel_codes(n: int, r: int, t: int, s: int) -> set[CanonicalForm]:
    """Canonical forms the (s-2)-kernel of an extremal graph may take."""
    if t <= s - 2:
        return {canonical_form(Graph.complete(r))}
    allowed = {canonical_form(construct_krt(r, t))}
    if s == 3 and t == 2 and r >= 3:  # every bridge B(r, 3, length) with r + 2 + length <= n
        for length in range(n - r - 1):
            allowed.add(canonical_form(construct_bridge(r, 3, length)))
    return allowed


def _kernel_cell(n: int, m: int, s: int, _: int, extremal: list[Graph]) -> dict | None:
    if m - n < choose(s, 2) - s:  # below the excess threshold no kernel is predicted
        return None
    allowed = _allowed_kernel_codes(n, *decompose_connected(m, n), s)
    bad = [g for g in extremal if canonical_form(kernel(g, s - 2)) not in allowed]
    return _cell(n, m, s, len(extremal), len(extremal) - len(bad), not bad, bad or extremal)


def verify_extremal_kernels(n_max: int, s_values: set[int], workers: int = 1,
                            seed: int = 0) -> VerificationReport:
    """Each cell checks that every graph attaining the clique maximum
    peels down to the predicted kernel form: the r-clique, the
    t-augmented r-clique, or (clique order 3, t = 2) a clique-cycle
    bridge. predicted counts the extremal graphs enumeration found (no
    independent count exists yet), observed those in the allowed families."""
    svals = _clique_orders(s_values)  # below order svals[0] no cell reaches the excess threshold
    cells = _clique_grid(svals[0], n_max, svals, workers)
    return _report("extremal-kernels", seed, starmap(_kernel_cell, cells))


# ── Theorem harness: last graph in the moment order ───────────────


def _s_order_cell(n: int, m: int, _: int, k3: int, triangles: list[Graph]) -> dict | None:
    if m < n:  # trees
        return None
    gallery, broken = _moment_gallery(k3, triangles)
    star = construct_extremal_star(m, n)
    ties = gallery if len(gallery) > 1 else ()
    ok = len(gallery) == 1 and to_graph6(gallery[0]) == canonical_form(star) and not broken
    cell = _cell(n, m, 0, 1, len(gallery), ok, broken or gallery, ties)
    r, t = decompose_connected(m, n)
    if t == 2 and r >= 3 and n >= r + 2:
        bridge = construct_b2(m, n)
        rel = s_order_compare(bridge, star)
        cell["b_pair"] = {"b1": to_graph6(star), "b2": to_graph6(bridge), "relation": rel.relation,
                          "first_differing_index": rel.first_differing_index}
    return cell


def verify_s_order_last(n_max: int, workers: int = 1, seed: int = 0) -> VerificationReport:
    """The lexicographic moment-order maximum over each class must be
    attained by the pendant-star construction alone; any tie or foreign
    witness is a mismatch, and so is S_3 != 6 k_3 on a triangle maximizer
    (those are then the witnesses). In t = 2 cells wide enough to host
    it, the bridge competitor is compared and recorded under "b_pair"."""
    cells = _clique_grid(4, n_max, (3,), workers)
    return _report("s-order-last", seed, starmap(_s_order_cell, cells))


# ── Lemma property suites ─────────────────────────────────────────

# one (ok, witnesses) pair per check; ok None means no check was made
_Checks = Iterator[tuple[bool | None, list[Graph]]]


def _suite_excess_kernels(rng: random.Random, iterations: int) -> _Checks:
    """Induced subgraphs never raise the excess, and deep kernels agree.
    An iteration that finds no connected induced subgraph fails."""
    for _ in range(iterations):
        n = rng.randint(3, 8)
        g = _random_connected_graph(rng, n)
        for _ in range(200):
            h = g.induced_subgraph(rng.sample(range(n), rng.randint(1, n)))
            if h.is_connected():
                break
        else:
            yield False, []
            continue
        k = (g.m - g.n) - (h.m - h.n)
        yield k >= 0 and all(
            canonical_form(kernel(h, s - 2)) == canonical_form(kernel(g, s - 2))
            for s in range(k + 3, k + 6)
        ), [g]


def _suite_binomial_rebalance() -> _Checks:
    """C(a,s)+C(b,s) <= C(c,s)+C(a+b-c,s) on the full desk grid, with
    equality exactly when c <= s-1 or c = max(a, b)."""
    for a in range(1, 13):
        for b in range(1, a + 1):
            for s in range(2, 9):
                for c in range(a, a + b + 1):
                    lhs = choose(a, s) + choose(b, s)
                    rhs = choose(c, s) + choose(a + b - c, s)
                    yield lhs <= rhs and (lhs == rhs) == (c <= s - 1 or c == a), []


def _suite_fourth_moment(rng: random.Random, iterations: int) -> _Checks:
    for _ in range(iterations):
        g = _random_graph(rng, rng.randint(1, 10))
        yield s4_via_subgraphs(g) == spectral_moments(g, 4)[4], [g]


def _suite_reorder_domination(rng: random.Random, iterations: int) -> _Checks:
    """Pointwise domination of a nonincreasing prefix survives resorting."""
    for _ in range(iterations):
        k = rng.randint(1, 8)
        n = rng.randint(k, k + 6)
        base = sorted((rng.randint(1, 6) for _ in range(k)), reverse=True)
        prim = [base[i] + rng.randint(0, 4) for i in range(k)]
        prim += [rng.randint(1, 8) for _ in range(n - k)]
        resorted = sorted(prim, reverse=True)
        yield all(resorted[i] >= base[i] for i in range(k)), []


def _suite_pendant_move(rng: random.Random, iterations: int) -> _Checks:
    """A degree move toward the top strictly raises the fourth moment
    while preserving order, size, and the 2-core. A graph with no move
    to make is no check."""
    for _ in range(iterations):
        n = rng.randint(4, 8)
        g = _random_connected_graph(rng, n, 0.4)
        h = kernel(g, 1)
        if not 0 < h.n < g.n:
            continue
        d = g.degree_sequence()
        base = h.degree_sequence()
        spots = [i for i in range(1, h.n) if d[i] > base[i]]
        if not spots:
            continue
        gstar = d_transformation(g, rng.choice(spots))
        old, new = spectral_moments(g, 4), spectral_moments(gstar, 4)
        yield (
            (gstar.n, gstar.m) == (g.n, g.m)
            and new[3] == old[3]
            and new[4] > old[4]
            and canonical_form(kernel(gstar, 1)) == canonical_form(h)
        ), [g]


def _noncut_vertex_holds(g: Graph, core: Graph) -> bool | None:
    """Every 2-core either is the (r+1)-clique or owns a non-cutvertex
    of degree at most r - 1; None outside the r >= 3 domain.

    Holds for r >= 3 only: at r = 2 every unicyclic graph whose cycle
    is longer than a triangle is a counterexample (its 2-core is a
    cycle, all degrees 2 > r - 1, and it is not K_3), so the suite
    checks the r >= 3 domain where the statement is sound.
    """
    r, _ = decompose_connected(g.m, g.n)
    if r < 3:
        return None
    if core.n == r + 1 and core.m == choose(r + 1, 2):  # the (r+1)-clique
        return True
    return any(core.degree(u) <= r - 1 and not _is_cut_vertex(core.adj, u) for u in range(core.n))


def _star_maximizes_s4(h: Graph, family: list[Graph], n: int) -> tuple[bool, list[Graph]]:
    """Among the order-n graphs with 2-core h, the fourth moment is
    maximized exactly by piling every pendant onto the top-degree
    position. Returns whether that holds, and the maximizers."""
    base = h.degree_sequence()
    k = h.n
    fourth = {id(g): spectral_moments(g, 4)[4] for g in family}
    best = max(fourth.values())
    argmax = [g for g in family if fourth[id(g)] == best]
    target = (base[0] + n - k,) + tuple(base[1:]) + (1,) * (n - k)
    expected = [g for g in family if g.degree_sequence() == target]
    return bool(expected) and argmax == expected, argmax  # both in family order


def _tally(row: list, ok: bool | None, witnesses: list[Graph]) -> None:
    """Add one check to a [passes, checks, witnesses of the failed checks] tally; None is no check."""
    if ok is not None:
        row[0] += ok
        row[1] += 1
        row[2] += [] if ok else witnesses


def _exhaustive_task(task: EnumerationTask) -> tuple[dict[str, list], dict]:
    """One root task's noncut-low-degree-vertex and clique-free-band tallies over
    every class its walk reaches, and the pendant-star families of orders <= 7."""
    tallies = {"noncut-low-degree-vertex": [0, 0, []], "clique-free-band": [0, 0, []]}
    families: dict[tuple[int, CanonicalForm], tuple[Graph, list[Graph]]] = {}
    for g in walk_classes(task):
        core = kernel(g, 1)
        _tally(tallies["noncut-low-degree-vertex"], _noncut_vertex_holds(g, core), [g])
        for s in (3, 4, 5):  # below the excess threshold no s-clique can exist
            if g.m - g.n <= choose(s, 2) - s - 1:
                _tally(tallies["clique-free-band"], count_s_cliques(g, s) == 0, [g])
        if g.n <= 7 and 0 < core.n <= 5 and core.n < g.n:
            families.setdefault((g.n, canonical_form(core)), (core, []))[1].append(g)
    return tallies, families


def _suite_kernel_order_independence(rng: random.Random, graphs: int, orders: int) -> _Checks:
    for _ in range(graphs):
        g = _random_graph(rng, rng.randint(1, 10))
        s = rng.randint(0, 4)
        reference = kernel_vertices(g, s)
        yield all(peel_random_order(g, s, rng) == reference for _ in range(orders)), [g]


def _suite_deletion_identity(rng: random.Random, iterations: int) -> _Checks:
    for _ in range(iterations):
        n = rng.randint(2, 9)
        g = _random_graph(rng, n)
        v = rng.randrange(n)
        s = rng.randint(2, 5)
        lhs, rhs = deletion_identity_check(g, v, s)
        yield lhs == rhs, [g]


def verify_lemma_suite(seed: int, iterations: int = 1000, n_max: int = 7,
                       workers: int = 1) -> VerificationReport:
    """Randomized and exhaustive property suites for the supporting
    lemmas, under one fixed seed. One grid row per suite; predicted is
    the number of checks run and observed the number that held. A row
    that ran no check is a mismatch, never a vacuous pass. The exhaustive
    suites run one task per frontier root, on ``workers`` processes."""
    _check_n_max(n_max, 4)
    return _report("lemma-suite", seed, _lemma_rows(random.Random(seed), iterations, n_max, workers))


def _lemma_rows(rng: random.Random, iterations: int, n_max: int, workers: int) -> Iterator[dict]:
    # lemma: its drawn checks, in report order; the root tasks check the three that draw
    # none. The suites draw from rng in this order, each to its end before the next starts.
    suites = {
        "excess-kernel-agreement": _suite_excess_kernels(rng, min(iterations, 300)),
        "noncut-low-degree-vertex": (),
        "binomial-rebalance": _suite_binomial_rebalance(),
        "clique-free-band": (),
        "fourth-moment-identity": _suite_fourth_moment(rng, iterations),
        "reorder-domination": _suite_reorder_domination(rng, iterations),
        "pendant-move-raises-s4": _suite_pendant_move(rng, min(iterations, 400)),
        "pendant-star-maximizes-s4": (),
        "kernel-order-independence": _suite_kernel_order_independence(rng, 100, 100),
        "deletion-identity": _suite_deletion_identity(rng, iterations),
    }
    rows: dict[str, list] = {lemma: [0, 0, []] for lemma in suites}  # [passes, checks, witnesses]
    for lemma, checks in suites.items():
        for ok, witnesses in checks:
            _tally(rows[lemma], ok, witnesses)
    families: dict = {}  # (n, 2-core code): (core, graphs), merged in task order, the yield order
    for tallies, part in map_partitions(_exhaustive_task, range(2, n_max + 1), workers=workers):
        for lemma, tally in tallies.items():
            rows[lemma] = [total + value for total, value in zip(rows[lemma], tally)]
        for key, (core, graphs) in part.items():
            families.setdefault(key, (core, []))[1].extend(graphs)
    for n, code in sorted(families):
        _tally(rows["pendant-star-maximizes-s4"], *_star_maximizes_s4(*families[n, code], n))
    for lemma, (passes, checks, witnesses) in rows.items():
        cell = _cell(n_max, 0, 0, checks, passes, passes == checks > 0, witnesses)
        yield {"lemma": lemma, **cell}
