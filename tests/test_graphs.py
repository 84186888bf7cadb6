import itertools
import pickle
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquex import (
    EnumerationTask,
    Graph,
    Graph6Error,
    canonical_form,
    canonical_graph,
    construct_bridge,
    construct_krt,
    connected_graphs,
    from_edge_list,
    from_graph6,
    is_isomorphic,
    to_graph6,
)
from canonical_oracle import reference_canonical_form
from conftest import MALFORMED_EDGE_LISTS, as_networkx, random_connected_graph, random_graph

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def _nx(g):
    return nx.from_graph6_bytes(to_graph6(g).encode())


# ── value semantics ───────────────────────────────────────────────


def test_graph_is_a_frozen_value():
    g, h = Graph(2, (2, 1)), Graph.from_edges(2, [(0, 1)])
    assert g == h and g is not h and hash(g) == hash(h) == hash((2, (2, 1)))
    assert g != (2, (2, 1)) and g != Graph.empty(2)
    # equality is on the pair (n, adj); only unvalidated rows can tell n apart
    assert Graph._trusted(3, (0, 0)) != Graph._trusted(2, (0, 0))
    assert len({g, h, Graph.path(2), Graph.empty(2)}) == 2
    assert repr(g) == "Graph(n=2, adj=(2, 1))"
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(AttributeError):
        g.adj = (0, 0)
    with pytest.raises(AttributeError):
        del g.adj
    assert g == Graph(2, (2, 1))
    trusted = canonical_graph(Graph.cycle(5))  # decoded without validation
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for value in (g, trusted, Graph(0, ())):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is Graph and back == value and hash(back) == hash(value)
            with pytest.raises(AttributeError):
                back.n = 0


def test_constructor_validates_through_post_init(monkeypatch):
    # the benchmark's tracer counts Graph.__post_init__ as one validated graph
    calls = []
    original = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda g: calls.append(g.n) or original(g))
    Graph.cycle(4)
    Graph._trusted(2, (2, 1))
    assert calls == [4]


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0b00))


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(1, (0b10,))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError):
        Graph(2, (2,))  # one row for two vertices
    with pytest.raises(ValueError):
        Graph.cycle(2)


@pytest.mark.parametrize("build", [Graph.empty, lambda n: Graph.from_edges(n, [(0, n - 1)])])
def test_order_cap_checked_before_allocating(build):
    # one row per vertex would take 8 MB at this order
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="outside \\[0, 64\\]"):
            build(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_random_graphs_stay_symmetric_irreflexive(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 16))
        for u in range(g.n):
            assert not g.has_edge(u, u)
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)
        assert sum(g.degrees()) == 2 * g.m


# ── degrees and subgraphs ─────────────────────────────────────────


def test_degree_sequence_examples():
    assert Graph.complete(4).degree_sequence() == (3, 3, 3, 3)
    assert construct_krt(4, 2).degree_sequence() == (4, 4, 3, 3, 2)
    assert Graph.star(5).degree_sequence() == (4, 1, 1, 1, 1)


def test_connectivity_examples(rng):
    k3_plus_isolated = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert not k3_plus_isolated.is_connected()
    assert Graph.path(6).is_connected()
    c6_minus_edge = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(5)])
    assert c6_minus_edge.is_connected()
    assert not Graph.empty(0).is_connected()
    # sparse to dense, so both verdicts occur at every order above 1
    connected = set()
    for _ in range(600):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.35, 0.6)))
        verdict = g.is_connected()
        assert verdict == nx.is_connected(as_networkx(g)), g
        connected.add((n, verdict))
    assert connected == {(1, True)} | {(n, v) for n in range(2, 13) for v in (False, True)}


def test_induced_subgraph_examples():
    assert is_isomorphic(Graph.complete(5).induced_subgraph([0, 2, 4]), Graph.complete(3))
    assert is_isomorphic(Graph.cycle(5).induced_subgraph([1, 2, 3]), Graph.path(3))
    krt = construct_krt(4, 2)
    assert is_isomorphic(krt.induced_subgraph(range(4)), Graph.complete(4))
    # remove_vertex relabels as induced_subgraph does, down to the empty graph
    assert krt.remove_vertex(2) == krt.induced_subgraph([0, 1, 3, 4])
    assert Graph(1, (0,)).remove_vertex(0) == Graph(0, ())


def test_induced_subgraph_errors():
    with pytest.raises(ValueError):
        Graph.complete(3).induced_subgraph([])
    with pytest.raises(ValueError):
        Graph.complete(3).induced_subgraph([0, 3])
    with pytest.raises(ValueError):
        Graph.complete(3).remove_vertex(3)
    with pytest.raises(ValueError):
        Graph.path(3).add_vertex([5])
    with pytest.raises(ValueError):
        Graph.path(3).relabel([0, 0, 1])


def test_articulation_examples():
    assert Graph.path(3).articulation_points() == frozenset({1})
    assert Graph.cycle(5).articulation_points() == frozenset()
    b43 = construct_bridge(4, 3, 0)
    cuts = b43.articulation_points()
    assert len(cuts) == 1
    (cut,) = cuts
    assert b43.degree(cut) == max(b43.degrees())


def test_articulation_rejects_disconnected():
    with pytest.raises(ValueError):
        Graph.empty(3).articulation_points()


def test_articulation_matches_bruteforce(rng):
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(1, 9), 0.35)
        brute = frozenset(
            v for v in range(g.n) if g.n > 1 and not g.remove_vertex(v).is_connected()
        )
        # networkx's low-link DFS shares no code with the reachability pass
        assert g.articulation_points() == brute == set(nx.articulation_points(as_networkx(g)))


# ── graph6 ────────────────────────────────────────────────────────


def test_graph6_hand_encodings():
    assert to_graph6(Graph.complete(1)) == "@"
    assert to_graph6(Graph.complete(3)) == "Bw"
    # order-3 records are one header byte plus one data byte
    rec = to_graph6(Graph.path(3))
    assert rec.startswith("B") and len(rec) == 2


def test_graph6_round_trip_named():
    for text in ["D?{", "@", "Bw", "?"]:
        assert to_graph6(from_graph6(text)) == text
    g = from_graph6("D?{")
    assert (g.n, g.m) == (5, 4)


def test_graph6_optional_prefix():
    assert from_graph6(">>graph6<<Bw") == Graph.complete(3)


# One row for each check in from_graph6: a pattern that fits its message
# and no other check's, and the records that fail that check.
GRAPH6_CHECKS = [
    (r"^empty record$", [""]),
    (r"^non-ASCII character in record$", ["B\u00e9"]),  # not a replacement-character graph
    (r"^8-byte order field exceeds the 64-vertex cap$", ["~~??????"]),
    (r"^truncated multi-byte order field$", ["~??"]),  # the 4-byte order form cut short
    (r"^order bytes outside graph6 alphabet$", ["~!!!"]),
    (r"^order byte 33 outside graph6 alphabet$", ["!"]),
    (r"^order 65 exceeds the 64-vertex cap$", ["~" + chr(63) + chr(63 + 1) + chr(63 + 1)]),
    (r"^need 2 data bytes, found 1$", ["D?"]),
    (r"^1 trailing bytes after bit field$", ["Bw?", "Bw\x1f"]),  # control bytes are data, not whitespace
    (r"^data byte 3[13] outside graph6 alphabet$", ["B\x1f", "B!"]),  # right length, byte below the alphabet
    (r"^nonzero padding bits$", ["B`", "Bc"]),  # the zero-padding tail must be zero
]


def test_graph6_parse_errors_are_distinct():
    messages = []
    for pattern, records in GRAPH6_CHECKS:
        for text in records:
            with pytest.raises(Graph6Error, match=pattern) as info:
                from_graph6(text)
            messages.append(str(info.value))
    for message in messages:  # the message alone names the check
        assert sum(re.search(pattern, message) is not None for pattern, _ in GRAPH6_CHECKS) == 1


def test_graph6_b_underscore_is_a_valid_record():
    # all three padding bits of "B_" are zero, so it decodes fine:
    # one edge 0-1 plus an isolated vertex
    g = from_graph6("B_")
    assert (g.n, g.m) == (3, 1) and list(g.edges()) == [(0, 1)]
    assert to_graph6(g) == "B_"


def test_graph6_round_trip_randomized(rng):
    for _ in range(10_000):
        n = rng.randint(1, 32)
        g = random_graph(rng, n, rng.random())
        assert from_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 14))
        mine = to_graph6(g)
        theirs = nx.to_graph6_bytes(
            nx.from_graph6_bytes(mine.encode()), header=False
        ).decode().strip()
        assert mine == theirs


def test_graph6_large_orders(rng):
    for n in (62, 63, 64):
        g = random_graph(rng, n, 0.05)
        assert from_graph6(to_graph6(g)) == g


# ── edge-list reader ──────────────────────────────────────────────


def test_edge_list_reader():
    g = from_edge_list("# triangle plus tail\n0 1\n1 2\n0 2\n2 3\n")
    assert (g.n, g.m) == (4, 4)
    with pytest.raises(ValueError):
        from_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        from_edge_list("#nothing\n")
    with pytest.raises(ValueError):
        from_edge_list("3 3\n")
    crlf = from_edge_list("# triangle\r\n0 1\r\n1 2\r\n0 2\r\n")
    assert crlf == Graph.complete(3)
    for bad in MALFORMED_EDGE_LISTS:
        with pytest.raises(ValueError, match="ASCII digits"):
            from_edge_list(bad)


# ── canonical form ────────────────────────────────────────────────


def test_canonical_form_petersen_relabelings(rng):
    pet = Graph.from_edges(10, PETERSEN_EDGES)
    base = canonical_form(pet)
    for _ in range(5):
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_form(pet.relabel(perm)) == base


def test_canonical_form_distinguishes():
    c6 = Graph.cycle(6)
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(c6) != canonical_form(two_triangles)
    assert canonical_form(construct_krt(4, 2)) != canonical_form(construct_bridge(4, 3, 0))


def test_canonical_form_invariant_under_many_permutations(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == base


def test_canonical_graph_is_fixed_point(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9))
        cg = canonical_graph(g)
        assert canonical_form(cg) == canonical_form(g)
        assert canonical_graph(cg) == cg
        assert nx.is_isomorphic(_nx(g), _nx(cg))


def test_one_canonical_search_per_class():
    g = construct_bridge(4, 3, 1)
    canonical_form.cache_clear()
    canonical_form(g)
    canonical_graph(g)
    info = canonical_form.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@st.composite
def graphs_and_relabelings(draw, max_order=9):
    n = draw(st.integers(0, max_order))
    field = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if field >> i & 1])
    return g, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(graphs_and_relabelings())
def test_code_contract(case):
    g, perm = case
    back = from_graph6(to_graph6(g))
    assert back == g
    code = canonical_form(g)
    cg = canonical_graph(g)
    # from_graph6 builds its rows unvalidated; the validating constructor agrees
    assert Graph(back.n, back.adj) == back and Graph(cg.n, cg.adj) == cg
    assert code == to_graph6(cg)
    assert canonical_form(g.relabel(perm)) == code
    assert nx.is_isomorphic(_nx(g), _nx(cg))


def test_isomorphism_agrees_with_networkx(rng):
    for _ in range(300):
        n = rng.randint(2, 7)
        g, h = random_graph(rng, n, 0.5), random_graph(rng, n, 0.5)
        theirs = nx.is_isomorphic(
            nx.from_graph6_bytes(to_graph6(g).encode()),
            nx.from_graph6_bytes(to_graph6(h).encode()),
        )
        assert is_isomorphic(g, h) == theirs


def _complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ (1 << u) ^ row for u, row in enumerate(g.adj)))


def test_canonical_form_matches_reference_on_every_small_class(rng):
    # a graph or its complement is connected, so these cover every class of order <= 7
    for n in range(1, 8):
        for g in connected_graphs(EnumerationTask(n)):
            for h in (g, _complement(g)):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    relabeled = h.relabel(perm)
                    assert canonical_form(relabeled) == reference_canonical_form(relabeled)


@settings(max_examples=200, deadline=None)
@given(graphs_and_relabelings(max_order=10))
def test_canonical_form_matches_reference(case):
    g, perm = case
    relabeled = g.relabel(perm)
    assert canonical_form(relabeled) == reference_canonical_form(relabeled)


def test_canonical_form_matches_reference_at_the_order_cap(rng):
    # a column keeps position 0 at its top bit, and only orders 11 and 12
    # use the widest columns the search allows
    petersen_pendants = Graph.from_edges(12, PETERSEN_EDGES + [(0, 10), (5, 11)])
    k66 = Graph.from_edges(12, [(u, v) for u in range(6) for v in range(6, 12)])
    cases = [Graph.empty(0), Graph.empty(1), k66, Graph.cycle(12), petersen_pendants]
    cases += [random_graph(rng, n, p) for n in (11, 12) for p in (0.3, 0.5, 0.7) for _ in range(2)]
    for g in cases:
        code = reference_canonical_form(g)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = g.relabel(perm)
            assert canonical_form(relabeled) == reference_canonical_form(relabeled) == code


def test_canonical_form_order_cap():
    with pytest.raises(ValueError):
        canonical_form(Graph.empty(13))


def test_canonical_form_exhaustive_small():
    # codes collide exactly on isomorphic pairs for every 4-vertex graph
    graphs = []
    for bits in range(64):
        edges = [
            e for i, e in enumerate(itertools.combinations(range(4), 2)) if bits >> i & 1
        ]
        graphs.append(Graph.from_edges(4, edges))
    for g, h in itertools.combinations(graphs, 2):
        same_code = canonical_form(g) == canonical_form(h)
        theirs = nx.is_isomorphic(
            nx.from_graph6_bytes(to_graph6(g).encode()),
            nx.from_graph6_bytes(to_graph6(h).encode()),
        )
        assert same_code == theirs
