import hashlib
import itertools
import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquex.enumeration as enumeration
from cliquex import (
    EnumerationTask,
    Graph,
    argmax_fold,
    canonical_form,
    canonical_graph,
    clique_counts_upto,
    connected_graphs,
    construct_extremal_star,
    count_s_cliques,
    to_graph6,
)
from cliquex.enumeration import (
    _accepted,
    _degree_key,
    _fold_task,
    _frontier,
    _masks,
    _ParentTest,
    map_partitions,
)
from cliquex.cliques import _subset_counts
from cliquex.graphs import _is_cut_vertex, _without_vertex, are_twins
from canonical_oracle import reference_canonical_form
from conftest import as_networkx
from labeled_oracle import labeled_classes
from polya_oracle import connected_counts, graph_counts

# connected graph classes per order (OEIS A001349 prefix)
CONNECTED_TOTALS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def without(g: Graph, u: int) -> Graph:
    """g - u by the general induced-subgraph relabelling."""
    return g.induced_subgraph(w for w in range(g.n) if w != u)


def reference_is_canonical_child(child: Graph, parent_code: str) -> bool:
    """The parent test as the rule states it, child by child: among the
    non-cut vertices, the deletions of least sorted degree sequence must
    include the new vertex, and the parent's code must be the least code
    of those deletions. The cut vertices come from networkx and the
    deletions from ``induced_subgraph``, so the rule shares no code with
    the engine's reachability pass or its row deletion."""
    cuts = set(nx.articulation_points(as_networkx(child)))
    candidates = [u for u in range(child.n) if u not in cuts]
    deg = child.degrees()
    degseqs = {
        u: sorted((deg[w] - child.has_edge(u, w) for w in range(child.n) if w != u), reverse=True)
        for u in candidates
    }
    best = min(degseqs.values())
    if degseqs[child.n - 1] != best:
        return False
    return parent_code == min(
        canonical_form(without(child, u)) for u in candidates if degseqs[u] == best
    )


def cut_and_rows(test: _ParentTest, masks: list[int]) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """The masks ``test.accepted`` hands on to ``child_rows``, in call order, and what it returns."""
    reached, child_rows = [], test.child_rows
    test.child_rows = lambda mask, keys: reached.append(mask) or child_rows(mask, keys)
    try:
        return reached, test.accepted(masks)
    finally:
        del test.child_rows


def test_parent_test_matches_reference_rule():
    """Every (parent, neighbour mask) the engine tries for n <= 7 gets the
    reference verdict, every mask the first cut refutes (4980 of them) gets
    the verdict False, and every graph the engine builds without validation is the
    one the validated constructors build."""
    level = [Graph(1, (0,))]
    tried = accepted = refuted = 0
    for k in range(1, 7):
        grown = []
        for parent in level:
            code = canonical_form(parent)
            test = _ParentTest(parent)
            verdicts = {}
            for mask in range(1, 1 << k):
                child = parent.add_vertex(u for u in range(k) if (mask >> u) & 1)
                rows = test.child_rows(mask, test.keys(mask))
                assert rows in (None, child.adj)
                verdicts[mask] = reference_is_canonical_child(child, code)
                assert (rows is not None) == verdicts[mask], (parent, mask)
                tried += 1
                accepted += verdicts[mask]
                for u in range(k):
                    deleted = _without_vertex(child.adj, u)
                    assert deleted == without(child, u)
                    assert Graph(deleted.n, deleted.adj) == deleted
            reached, passed = cut_and_rows(test, list(verdicts))
            cut = set(verdicts) - set(reached)
            assert not any(verdicts[mask] for mask in cut), parent
            assert list(passed) == [mask for mask, verdict in verdicts.items() if verdict]
            refuted += len(cut)
            for child in _accepted(parent, _masks(parent, 7, None)):
                assert child == parent.add_vertex(child.neighbors(k))
                assert Graph(child.n, child.adj) == child
                grown.append(child)
        level = grown
    assert len(level) == CONNECTED_TOTALS[7]
    # tried: sum over orders k <= 6 of (classes of order k) * (2^k - 1)
    assert (tried, accepted, refuted) == (7815, 1628, 4980)


def test_parent_test_arithmetic_matches_the_rows():
    """For every parent of order 1 to 6 in the n = 7 tree, every
    neighbour mask and every parent vertex u, the packed key of child - u
    is the degree key of the deleted rows, and the cut verdict from the
    parent's components is the reachability pass's on the child's rows."""
    level = [Graph(1, (0,))]
    checked = 0
    for k in range(1, 7):
        for parent in level:
            test = _ParentTest(parent)
            for mask in range(1, 1 << k):
                rows = parent.add_vertex(u for u in range(k) if (mask >> u) & 1).adj
                keys = test.keys(mask)
                assert keys >> 64 * k == 0, (parent, mask)
                for u in range(k):
                    lane = keys >> 64 * u & (1 << 64) - 1  # lane u: bits 64u to 64u + 63
                    assert lane == _degree_key(_without_vertex(rows, u).degrees()), (parent, mask, u)
                    assert test.is_cut(u, mask) == _is_cut_vertex(rows, u), (parent, mask, u)
                    checked += 1
        level = [child for parent in level for child in _accepted(parent, _masks(parent, 7, None))]
    assert checked == sum(CONNECTED_TOTALS[k] * ((1 << k) - 1) * k for k in range(1, 7)) == 46000


def test_key_table_at_its_widest_matches_the_rows():
    """The key tables of a fixed sample of order-7 and order-8 parents in
    the n = 9 tree, 2**8 entries at the widest: for every neighbour mask
    and every parent vertex u, the packed key of child - u is the degree
    key of the deleted rows. The first cut refutes only masks that
    ``child_rows`` rejects (7870 of them), and hands it the rest in mask
    order."""
    order_seven = [child for root in _frontier(9, None)[::32]
                   for child in _accepted(root, _masks(root, 9, None))]
    order_eight = [_accepted(parent, _masks(parent, 9, None))[0] for parent in order_seven[::2]]
    checked = refuted = 0
    for parent in order_seven + order_eight:
        k, test = parent.n, _ParentTest(parent)
        assert len(test.sums) == len(test.spreads) == 1 << k
        for mask in range(1, 1 << k):
            rows = parent.add_vertex(u for u in range(k) if (mask >> u) & 1).adj
            keys = test.keys(mask)
            assert keys >> 64 * k == 0, (parent, mask)
            for u in range(k):
                lane = keys >> 64 * u & (1 << 64) - 1
                assert lane == _degree_key(_without_vertex(rows, u).degrees()), (parent, mask, u)
                checked += 1
        masks = list(range(1, 1 << k))
        reached, passed = cut_and_rows(test, masks)
        assert reached == sorted(set(reached)), parent
        cut = set(masks) - set(reached)
        assert all(test.child_rows(mask, test.keys(mask)) is None for mask in cut), parent
        rows = {mask: test.child_rows(mask, test.keys(mask)) for mask in masks}
        assert list(passed.items()) == [(mask, row) for mask, row in rows.items() if row is not None]
        refuted += len(cut)
    assert {parent.n for parent in order_eight} == {8}
    assert checked == len(order_seven) * 127 * 7 + len(order_eight) * 255 * 8
    assert refuted == 7870


@st.composite
def degree_list_pairs(draw):
    n = draw(st.integers(0, 10))
    same_length = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    a = draw(same_length)
    return a, draw(st.one_of(same_length, st.permutations(a)))  # permutations tie


@settings(max_examples=500, deadline=None)
@given(degree_list_pairs())
def test_degree_key_orders_as_sorted_sequences(pair):
    a, b = pair
    ka, kb = _degree_key(a), _degree_key(b)
    sa, sb = sorted(a, reverse=True), sorted(b, reverse=True)
    assert (ka < kb, ka == kb) == (sa < sb, sa == sb)


def test_degree_key_orders_every_short_sequence():
    # exhaustive over lengths <= 10 and entries <= 9, where sampling rarely
    # draws the long runs of one degree that a too-small base would carry
    for n in range(11):
        seqs = [s[::-1] for s in itertools.combinations_with_replacement(range(10), n)]
        keys = [_degree_key(s) for s in sorted(seqs)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def _yield_order_sha256(graphs):
    return hashlib.sha256("\n".join(to_graph6(g) for g in graphs).encode()).hexdigest()


def test_generation_tree_unchanged(order_eight_pass):
    """The number of canonical searches and the unsorted yield order at
    n = 7 and n = 8 pin the generation tree itself, which the sorted
    class digests cannot see."""
    order_eight_classes, order_eight_searches = order_eight_pass
    assert order_eight_searches == 17494
    canonical_form.cache_clear()
    graphs = list(connected_graphs(EnumerationTask(7)))
    assert canonical_form.cache_info().misses == 1598
    assert _yield_order_sha256(graphs) == (
        "03b80f7e2835dacdac9a772ee53dc2c75b2206cee2ea405b0f29ee41f99aed54"
    )
    assert _yield_order_sha256(order_eight_classes) == (
        "f72a468556fe8e24129d53cc77dbb10664d8709fa3f2edade18908ac9409334a"
    )


def reference_children(parent: Graph, n: int, m: int | None) -> list[Graph]:
    """Every neighbour mask in ascending order within the edge budget,
    the reference parent test, and the first child of each class."""
    k, code = parent.n, canonical_form(parent)
    kept, seen = [], set()
    for mask in range(1, 1 << k):
        size = parent.m + mask.bit_count()
        # the n - k - 1 vertices still to come add at least one edge each,
        # and at most every edge not yet among the first k + 1 vertices
        if m is not None and not n - k - 1 <= m - size <= n * (n - 1) // 2 - k * (k + 1) // 2:
            continue
        child = parent.add_vertex(u for u in range(k) if (mask >> u) & 1)
        if reference_is_canonical_child(child, code) and canonical_form(child) not in seen:
            seen.add(canonical_form(child))
            kept.append(child)
    return kept


@pytest.mark.parametrize("m", [None, 10, 15])
def test_twin_pruning_loses_no_child(m):
    """Trying one mask per twin orbit yields the same children, in the
    same order, as trying every mask: for each node of order <= 6 of the
    n = 7 tree, and of its edge-budgeted trees."""
    level = [Graph(1, (0,))]
    for _ in range(1, 7):
        grown = []
        for parent in level:
            children = _accepted(parent, _masks(parent, 7, m))
            assert [c.adj for c in children] == [c.adj for c in reference_children(parent, 7, m)]
            grown.extend(children)
        level = grown
    assert sorted(canonical_form(g) for g in level) == sorted(class_codes(7, m))


def _dropped_siblings(parent: Graph, masks: list[int], children: list[Graph]) -> int:
    """Check that ``children``, ``_accepted(parent, masks)``, are pairwise non-isomorphic, that their
    classes are those of every child the parent test passes, and that each is the first passing child
    of its class in mask order, with classes told apart by the reference search. Return how many
    passing children were dropped as siblings of an earlier one."""
    passed = _ParentTest(parent).accepted(masks)
    firsts: dict = {}  # reference code of each passing class: the rows of its first child in mask order
    for rows in passed.values():
        firsts.setdefault(reference_canonical_form(Graph(parent.n + 1, rows)), rows)
    codes = [reference_canonical_form(g) for g in children]
    assert len(set(codes)) == len(codes), parent
    assert set(codes) == set(firsts), parent
    assert [g.adj for g in children] == [firsts[code] for code in codes], parent
    assert [g.adj[-1] for g in children] == sorted(g.adj[-1] for g in children), parent
    return len(passed) - len(children)


def test_accepted_keeps_the_first_child_of_each_class(monkeypatch):
    """``_accepted`` is the one place that drops sibling duplicates. It
    keeps exactly the first passing child of each class in mask order:
    for every parent of the n = 7 tree, on the masks the walk tries and
    on every mask, and on the top-order picks of the order-8 fold."""
    dropped = 0
    level = [Graph(1, (0,))]
    for k in range(1, 7):
        grown = []
        for parent in level:
            for masks in (_masks(parent, 7, None), list(range(1, 1 << k))):
                dropped += _dropped_siblings(parent, masks, _accepted(parent, masks))
            grown.extend(_accepted(parent, _masks(parent, 7, None)))
        level = grown
    assert len(level) == CONNECTED_TOTALS[7] and dropped

    calls, accepted = [], enumeration._accepted

    def recorded(parent, masks):
        calls.append((parent, masks, accepted(parent, masks)))
        return calls[-1][2]

    monkeypatch.setattr(enumeration, "_accepted", recorded)
    argmax_fold([8], (3,))
    picks = [call for call in calls if call[0].n == 7]
    assert picks and sum(_dropped_siblings(*call) for call in picks)


def _transposition_fixes(g: Graph, a: int, b: int) -> bool:
    perm = list(range(g.n))
    perm[a], perm[b] = b, a
    return g.relabel(perm) == g


def _check_twins(g: Graph) -> None:
    for a, b in itertools.combinations(range(g.n), 2):
        assert are_twins(g.adj, a, b) == are_twins(g.adj, b, a) == _transposition_fixes(g, a, b)
    # _accepted compares each vertex with the least member of a class only
    for a, b, c in itertools.permutations(range(g.n), 3):
        assert not (are_twins(g.adj, a, b) and are_twins(g.adj, b, c)) or are_twins(g.adj, a, c)


def test_twins_are_exactly_the_transpositions_that_fix_the_graph():
    """A pair passes as twins exactly when swapping it is an automorphism,
    over every connected class of order <= 7."""
    for n in range(1, 8):
        for g in connected_graphs(EnumerationTask(n)):
            _check_twins(g)


@st.composite
def graphs_up_to_nine(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_nine())
def test_twins_match_fixing_transpositions_up_to_order_nine(g):
    _check_twins(g)


def test_polya_oracle_totals():
    # all graphs (OEIS A000088) and connected graphs (A001349), n = 1..9
    assert [sum(graph_counts(n)) for n in range(1, 10)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346, 274668
    ]
    counts = connected_counts(9)
    totals = [sum(counts[n, m] for m in range(n * (n - 1) // 2 + 1)) for n in range(1, 10)]
    assert totals == [1, 1, 2, 6, 21, 112, 853, 11117, 261080]
    assert all(counts[n, m] == 0 for n, m in counts if m < n - 1)
    assert counts[9, 8] == 47  # trees on nine vertices


def class_codes(n, m=None, roots=None):
    return {canonical_form(g) for g in connected_graphs(EnumerationTask(n, m, roots))}


def test_totals_per_order():
    for n, expected in CONNECTED_TOTALS.items():
        assert len(class_codes(n)) == expected


def test_known_cells():
    assert len(class_codes(3, 2)) == 1
    assert {len(class_codes(4, m)) for m in (5, 6)} == {1}
    assert len(class_codes(4, 3)) == 2
    assert len(class_codes(4, 4)) == 2
    k5 = list(connected_graphs(EnumerationTask(5, 10)))
    assert len(k5) == 1 and k5[0] == canonical_graph(Graph.complete(5))


def test_emitted_graphs_are_canonical_and_in_cell():
    for n in range(2, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in connected_graphs(EnumerationTask(n, m)):
                assert (g.n, g.m) == (n, m)
                assert g.is_connected()
                assert g == canonical_graph(g)
    # the edge budget alone sizes the leaves, also under roots outside it
    roots = _frontier(7, None)
    assert len(roots) == 112
    total = 0
    for m in range(6, 22):
        codes = []
        for root in roots:
            for g in connected_graphs(EnumerationTask(7, m, (root,))):
                assert (g.n, g.m) == (7, m)
                assert g == canonical_graph(g)
                codes.append(to_graph6(g))
        assert sorted(codes) == sorted(map(to_graph6, connected_graphs(EnumerationTask(7, m))))
        total += len(codes)
    assert total == CONNECTED_TOTALS[7]


def test_order_nine_corner_cells():
    # edge-budget pruning keeps the sparse and dense corners of the
    # supported-order cap instant
    assert len(class_codes(9, 8)) == 47  # trees on nine vertices
    assert len(class_codes(9, 36)) == 1
    assert len(class_codes(9, 35)) == 1
    assert len(class_codes(9, 34)) == 2


def test_task_validation():
    with pytest.raises(ValueError):
        EnumerationTask(10)
    with pytest.raises(ValueError):
        EnumerationTask(0)
    with pytest.raises(ValueError):
        EnumerationTask(5, 11)
    with pytest.raises(ValueError):
        EnumerationTask(5, 3)
    with pytest.raises(ValueError):  # order-5 roots have four vertices
        EnumerationTask(5, 6, roots=(Graph(1, (0,)),))


def _splits(frontier):
    """One task per root, and the roots dealt round-robin into 1, 2, 4
    and 8 tasks: every split of the frontier is a partition."""
    yield [(root,) for root in frontier]
    for k in (1, 2, 4, 8):
        yield [tuple(frontier[w::k]) for w in range(k)]


def test_worker_partition_is_a_partition():
    for n in (1, 6):
        full = class_codes(n)
        for split in _splits(_frontier(n, None)):
            parts = [class_codes(n, roots=roots) for roots in split]
            assert set().union(*parts) == full
            assert sum(len(p) for p in parts) == len(full)
    # K1 is its own single frontier root, so a second task of K1 has no roots
    assert _frontier(1, None) == [Graph(1, (0,))]
    assert class_codes(1, roots=()) == set()
    assert class_codes(1) == {canonical_form(Graph(1, (0,)))}


def _task_key(task):
    return task.n, task.m, task.roots


def _task_codes(task):
    return task.roots, class_codes(task.n, task.m, task.roots)


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch, pool_log):
    import cliquex.enumeration as enumeration

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    parts = list(map_partitions(_task_codes, [5], workers=64))
    # one pool, capped at the CPU count, dealt the tasks one at a time
    assert [entry[:2] for entry in pool_log] == [("pool", 2), ("imap", 1)]
    assert [roots for roots, _ in parts] == [(root,) for root in _frontier(5, None)]
    assert set().union(*(codes for _, codes in parts)) == class_codes(5)
    assert sum(len(codes) for _, codes in parts) == CONNECTED_TOTALS[5]


def test_task_list_does_not_depend_on_workers(pool_log):
    tasks = [(8, None, (root,)) for root in _frontier(8, None)]
    assert len(tasks) == 112
    # in process, the tasks run one by one as the stream is read; on the pool they are dealt out
    serial, few, many = (list(map_partitions(_task_key, [8], workers=w)) for w in (1, 2, 64))
    assert serial == few == many == tasks
    assert [entry[2] for entry in pool_log if entry[0] == "imap"] == [tasks, tasks]
    ran = []
    assert next(map_partitions(ran.append, [8])) is None and len(ran) == 1


def test_the_top_orders_tasks_walk_the_orders_above_its_frontier():
    # orders 7 and 8 share the order-8 tasks, whose roots are the order-7
    # frontier roots in the same order; an order at or below order 8's
    # frontier order (6) keeps its own tasks, in the order asked
    assert _frontier(7, None) == _frontier(8, None)
    for orders, walked in (([8, 5, 7], (8, 5)), (range(2, 10), (2, 3, 4, 5, 6, 9)), ([7], (7,))):
        tasks = [(n, None, (root,)) for n in walked for root in _frontier(n, None)]
        assert list(map_partitions(_task_key, orders)) == tasks, list(orders)
    # a size m is walked by its own order's tree only
    assert len(list(map_partitions(_task_key, [8], 10))) == len(_frontier(8, 10))
    with pytest.raises(ValueError, match="one order"):
        list(map_partitions(_task_key, [7, 8], 10))


def test_every_order_is_checked_before_any_task_runs(pool_log):
    for workers in (1, 2):
        calls = []
        with pytest.raises(ValueError):
            list(map_partitions(calls.append, [5, 10], workers=workers))
        assert calls == [] and pool_log == []


def test_tasks_pickle_for_the_worker_pool():
    roots = tuple(_frontier(7, 10)[1::3])
    tasks = (EnumerationTask(7), EnumerationTask(7, 10, roots),
             EnumerationTask(7, m=10, roots=roots))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for task in tasks:
            back = pickle.loads(pickle.dumps(task, protocol))
            assert type(back) is EnumerationTask
            assert vars(back) == vars(task)
    assert vars(tasks[1]) == vars(tasks[2]) == {"n": 7, "m": 10, "roots": roots}
    assert (tasks[0].m, tasks[0].roots) == (None, None)
    frontier = _frontier(7, 10)
    unpickled = [pickle.loads(pickle.dumps(EnumerationTask(7, 10, tuple(frontier[w::3]))))
                 for w in range(3)]
    codes = [canonical_form(g) for task in unpickled for g in connected_graphs(task)]
    assert sorted(codes) == sorted(class_codes(7, 10))


def test_worker_partition_per_cell():
    for m in (9, 12, 15):
        full = class_codes(7, m)
        for split in _splits(_frontier(7, m)):
            union = set()
            total = 0
            for roots in split:
                part = class_codes(7, m, roots=roots)
                union |= part
                total += len(part)
            assert union == full and total == len(full)


def test_matches_labeled_enumeration_small():
    for n in range(1, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            assert class_codes(n, m) == labeled_classes(n, m)


def test_matches_networkx_atlas_counts():
    # third engine: the published atlas of all graphs up to order 7
    from networkx.generators.atlas import graph_atlas_g

    atlas_counts: dict[tuple[int, int], int] = {}
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n >= 1 and nx.is_connected(G):
            key = (n, G.number_of_edges())
            atlas_counts[key] = atlas_counts.get(key, 0) + 1
    for n in range(1, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            assert len(class_codes(n, m)) == atlas_counts.get((n, m), 0), (n, m)


def test_labeled_classes_includes_disconnected_when_asked():
    # 2 classes of (4, 2): P_3 + isolated vertex, 2K_2; only none connected
    assert labeled_classes(4, 2, connected_only=True) == frozenset()
    assert len(labeled_classes(4, 2, connected_only=False)) == 2


def test_labeled_classes_validation():
    with pytest.raises(ValueError):
        labeled_classes(8, 7)
    with pytest.raises(ValueError):
        labeled_classes(4, 7)


def test_argmax_fold_examples():
    folded = argmax_fold(range(5, 8), (3,))
    assert list(folded) == [5, 6, 7]
    value, witnesses = folded[7][10, 3]
    assert value == 5
    codes = {canonical_form(g) for g in witnesses}
    assert canonical_form(construct_extremal_star(10, 7)) in codes

    value, witnesses = folded[5][10, 3]
    assert value == 10 and len(witnesses) == 1

    value, witnesses = folded[6][5, 3]
    assert value == 0
    assert len(witnesses) == 6  # every tree on six vertices attains zero

    for svals in ((), (0, 3)):
        with pytest.raises(ValueError, match="clique orders"):
            argmax_fold([5], svals)


def test_argmax_fold_partition_invariance():
    graphs = list(connected_graphs(EnumerationTask(6, 8)))
    best = max(count_s_cliques(g, 3) for g in graphs)
    base_codes = sorted(canonical_form(g) for g in graphs if count_s_cliques(g, 3) == best)
    for workers in (1, 2, 4):
        value, witnesses = argmax_fold([6], (3,), workers)[6][8, 3]
        assert value == best
        assert sorted(canonical_form(g) for g in witnesses) == base_codes


def test_a_repeated_order_is_folded_once():
    once = argmax_fold([5], (3,))
    assert len(once[5][8, 3][1]) == 1  # the one triangle maximizer of (5, 8)
    for workers in (1, 2):
        assert argmax_fold([5, 5], (3,), workers) == once


def test_argmax_fold_order_invariance():
    # tasks merge in root order, so even the order within each attaining
    # list is the serial yield order
    serial = argmax_fold([7], (3,))
    assert argmax_fold([7], (3,), 2) == serial
    assert argmax_fold([7], (3,), 3) == serial


def test_argmax_fold_equals_a_fold_over_connected_graphs():
    """The fold reads the walk's leaves as they stand, tests only the top
    order's children that reach a task maximum, and canonicalizes only
    the attaining ones when a task ends. Its maxima and attaining
    lists, order within them included, are those of a fold over the
    classes connected_graphs yields, at 1 and 2 workers: up to n = 7 for
    s in (3, 4, 5), and over the 11,117 classes of order 8, the largest
    tier-1 tree, for s in (3, 4)."""
    for orders, svals in ((range(1, 8), (3, 4, 5)), ([8], (3, 4))):
        reference: dict = {}
        for n in orders:
            best = reference[n] = {}
            classes = list(connected_graphs(EnumerationTask(n)))
            for g in classes:
                for cell, value in (((g.m, s), count_s_cliques(g, s)) for s in svals):
                    if cell not in best or value > best[cell][0]:
                        best[cell] = (value, [g])
                    elif value == best[cell][0]:
                        best[cell][1].append(g)
        for workers in (1, 2):
            assert argmax_fold(orders, svals, workers) == reference, (list(orders), svals, workers)
    assert len(classes) == 11117


def _carried_counts(monkeypatch, task, svals):
    """(leaf, n, m, s, k_s) as one fold task carries them, for every leaf and s."""
    seen = []
    monkeypatch.setattr(enumeration, "_keep_max",
                        lambda best, cell, value, graphs: seen.append((graphs[0], *cell, value)))
    _fold_task(svals, frozenset(range(1, task.n + 1)), task)
    assert {(g, s) for g, _, _, s, _ in seen} == {(g, s) for g, *_ in seen for s in svals}
    return seen


def test_fold_carries_each_leafs_size_and_clique_counts_from_its_parent(monkeypatch):
    """A leaf's n, m and k_s are its parent's plus the new vertex's mask
    term. They equal the from-scratch counts on every leaf the fold
    folds: every accepted child below the top order, and the top order's
    children that reach a task maximum. That is checked up to n = 8 and
    on the first order-9 root task, whose walk folds every order above
    the frontier, 7 to 9, and against the subset oracle up to n = 6 at
    every s from 3 to n + 1."""
    from test_cliques import brute_count

    tasks = [EnumerationTask(n) for n in range(1, 9)]
    tasks.append(EnumerationTask(9, None, _frontier(9, None)[:1]))
    for task in tasks:
        leaves = _carried_counts(monkeypatch, task, (1, 2, 3, 4, 5))
        assert {g.n for g, *_ in leaves} == set(range(min(task.n, 7), task.n + 1))
        for g, n, m, s, value in leaves:
            assert (n, m, value) == (g.n, g.m, clique_counts_upto(g, 5)[s - 1]), (g, s)
    for n in range(2, 7):
        for g, _, _, s, value in _carried_counts(monkeypatch, EnumerationTask(n), tuple(range(3, n + 2))):
            assert value == brute_count(g, s), (g, s)


def test_fold_searches_only_internal_nodes_and_attaining_leaves():
    """An order-8 fold runs a canonical search for the nodes below order 8,
    the tied deletions of the parent tests it runs and the leaves that
    attain a triangle maximum: 2607 searches in all, where canonicalizing
    every leaf, as the one pass over n = 8 does, takes 17494."""
    canonical_form.cache_clear()
    argmax_fold([8], (3,))
    assert canonical_form.cache_info().misses == 2607


def test_fold_tests_only_the_top_orders_children_that_reach_a_task_maximum(monkeypatch):
    """The order-8 fold takes every order-8 child's k_3 from its parent's
    subset table, and hands the parent test only those that reach the
    maximum of their task's (m, 3) cell: 10488 masks and 2607 canonical
    searches, where testing all 85236 children took 5406 searches. The
    first cut refutes all but 5104 of them before ``child_rows``."""
    tested, reached = [], []
    accepted, child_rows = _ParentTest.accepted, _ParentTest.child_rows
    monkeypatch.setattr(_ParentTest, "accepted", lambda test, masks: tested.extend(masks) or accepted(test, masks))
    monkeypatch.setattr(_ParentTest, "child_rows",
                        lambda test, mask, keys: reached.append(mask) or child_rows(test, mask, keys))
    canonical_form.cache_clear()
    argmax_fold([8], (3,))
    assert (len(tested), len(reached), canonical_form.cache_info().misses) == (10488, 5104, 2607)


def test_subset_tables_count_the_cliques_of_every_induced_subgraph():
    """For every node the walks yield up to n = 8 and on the first order-9
    root task, top-order parents included, and for every vertex mask S of
    it, the subset table holds k_j of the graph induced on S in lane j, for
    j up to 5, as the subset oracle counts it."""
    from test_cliques import brute_count

    tasks = [EnumerationTask(n) for n in range(1, 9)]
    tasks.append(EnumerationTask(9, None, _frontier(9, None)[:1]))
    nodes = {parent.adj: parent for task in tasks for parent, _ in enumeration._leaf_batches(task)}
    oracle: dict = {}  # rows of an induced subgraph: its k_0..k_5
    checked = 0
    for parent in nodes.values():
        table = _subset_counts(parent.adj)
        assert len(table) == 1 << parent.n and table[0] == 1  # the empty set holds one 0-clique
        for mask, counts in enumerate(table[1:], 1):
            sub = parent.induced_subgraph(u for u in range(parent.n) if mask >> u & 1)
            if sub.adj not in oracle:
                oracle[sub.adj] = [brute_count(sub, j) for j in range(6)]
            assert [counts >> 16 * j & 0xFFFF for j in range(6)] == oracle[sub.adj], (parent, mask)
            checked += 1
    assert {parent.n for parent in nodes.values()} == set(range(9))
    assert checked == sum((1 << parent.n) - 1 for parent in nodes.values())


def test_the_fold_counts_cliques_only_on_the_orders_asked(monkeypatch):
    """The order-8 tasks also walk the order-7 leaves, but a fold of order
    8 alone counts no clique on them, and its cells are those of order 8
    folded with every order below it."""
    with_lower = argmax_fold(range(3, 9), (3,))[8]
    parents, tables = [], enumeration._subset_counts
    monkeypatch.setattr(enumeration, "_subset_counts", lambda adj: parents.append(len(adj)) or tables(adj))
    assert argmax_fold([8], (3,)) == {8: with_lower}
    assert parents and set(parents) == {7}


def test_orders_above_the_frontier_fold_as_they_do_alone():
    """Orders 7 and 8 fold from one walk of the order-8 tree. Each order's
    maxima and attaining lists, order within them included, are those of
    the order folded alone, at 1 and 2 workers, whichever orders are asked."""
    alone = {n: argmax_fold([n], (3, 4, 5))[n] for n in range(1, 9)}
    for workers in (1, 2):
        for orders in (range(1, 9), [8, 5], [7, 8], [8]):
            folded = argmax_fold(orders, (3, 4, 5), workers)
            assert list(folded) == list(orders)
            assert folded == {n: alone[n] for n in orders}, (list(orders), workers)


def test_one_walk_folds_every_order_above_the_frontier(monkeypatch):
    """Orders 7 and 8 share the order-8 tasks: one per frontier root of
    orders 3..6 and 8, 142 in all where a task list per order has 254. So
    each order-6 node is tested once, not once per order above it, and
    the canonical searches are those of the order-8 fold alone."""
    walked, tested = [], []
    leaf_batches, accepted = enumeration._leaf_batches, enumeration._accepted
    monkeypatch.setattr(enumeration, "_leaf_batches",
                        lambda task: walked.append((task.n, task.roots)) or leaf_batches(task))
    monkeypatch.setattr(enumeration, "_accepted",
                        lambda parent, masks: tested.append(parent) or accepted(parent, masks))
    canonical_form.cache_clear()
    argmax_fold(range(3, 9), (3,))
    assert canonical_form.cache_info().misses == 2607
    assert walked == [(n, (root,)) for n in (3, 4, 5, 6, 8) for root in _frontier(n, None)]
    assert len(walked) == 142
    order_six = [canonical_form(g) for g in tested if g.n == 6]
    assert len(order_six) == len(set(order_six)) == 112
