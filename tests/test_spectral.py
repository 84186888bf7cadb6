import pytest

from cliquex import (
    Graph,
    SOrderResult,
    canonical_form,
    construct_b1,
    construct_b2,
    count_c4,
    count_s_cliques,
    d_transformation,
    is_isomorphic,
    kernel,
    moment_sequence,
    realize_with_kernel,
    s4_via_subgraphs,
    s_order_compare,
    spectral_moments,
)
from conftest import random_connected_graph, random_graph


def closed_walk_count(g: Graph, length: int) -> int:
    """Independent oracle: depth-first enumeration of all closed walks."""
    if length == 0:
        return g.n
    total = 0

    def walk(start: int, at: int, left: int) -> None:
        nonlocal total
        if left == 0:
            total += at == start
            return
        for nxt in g.neighbors(at):
            walk(start, nxt, left - 1)

    for v in range(g.n):
        walk(v, v, length)
    return total


# ── moments ───────────────────────────────────────────────────────


def test_cycle_moments():
    assert spectral_moments(Graph.cycle(4), 4) == (4, 0, 8, 0, 32)


def test_first_moments_identities(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10))
        s = spectral_moments(g, 3)
        assert s[0] == g.n
        assert s[1] == 0
        assert s[2] == 2 * g.m
        assert s[3] == 6 * count_s_cliques(g, 3)


def test_moments_match_walk_enumeration(rng):
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 6))
        mv = spectral_moments(g, 6)
        for j in range(7):
            assert mv[j] == closed_walk_count(g, j)
            assert spectral_moments(g, j)[0] == g.n


def test_moments_exact_past_int64():
    # K_20 has eigenvalues 19 (once) and -1 (19 times); S_19 exceeds 2^63
    s = spectral_moments(Graph.complete(20), 19)
    assert s == tuple(19**j + 19 * (-1) ** j for j in range(20))
    assert s[19] > 2**63
    with pytest.raises(ValueError):
        spectral_moments(Graph.complete(3), 64)


# ── fourth-moment identity ────────────────────────────────────────


def test_s4_examples():
    assert s4_via_subgraphs(Graph.star(4)) == 18
    assert s4_via_subgraphs(Graph.cycle(4)) == 32


def test_c4_count_examples():
    assert count_c4(Graph.complete(4)) == 3
    assert count_c4(Graph.cycle(4)) == 1
    assert count_c4(Graph.cycle(5)) == 0


def test_s4_identity_randomized(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10))
        assert s4_via_subgraphs(g) == spectral_moments(g, 4)[4]


# ── moment order ──────────────────────────────────────────────────


def test_s_order_examples():
    c4 = Graph.cycle(4)
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    res = s_order_compare(c4, paw)
    assert res.relation == "before" and res.first_differing_index == 3
    assert s_order_compare(paw, paw).relation == "equal"
    res = s_order_compare(construct_b2(11, 8), construct_b1(11, 8))
    assert res.relation == "before" and res.first_differing_index == 4


def test_result_values_name_their_fields():
    assert spectral_moments(Graph.cycle(4), 2) == (4, 0, 8)
    res = s_order_compare(Graph.cycle(4), Graph.path(4))
    assert (res.relation, res.first_differing_index) == ("after", 2) == tuple(res)
    assert res == SOrderResult(relation="after", first_differing_index=2)
    with pytest.raises(AttributeError):
        res.relation = "before"


def test_s_order_rejects_order_mismatch():
    with pytest.raises(ValueError):
        s_order_compare(Graph.complete(3), Graph.complete(4))


def test_s_order_is_total_preorder(rng):
    for _ in range(100):
        n = rng.randint(2, 7)
        a, b, c = (random_graph(rng, n) for _ in range(3))
        ab, ba = s_order_compare(a, b), s_order_compare(b, a)
        flips = {"before": "after", "after": "before", "equal": "equal"}
        assert ba.relation == flips[ab.relation]
        assert ba.first_differing_index == ab.first_differing_index
        # transitivity through the actual keys
        ka, kb, kc = moment_sequence(a), moment_sequence(b), moment_sequence(c)
        if ka <= kb <= kc:
            assert s_order_compare(a, c).relation in ("before", "equal")


def test_equal_means_identical_vectors(rng):
    for _ in range(200):
        n = rng.randint(2, 7)
        a, b = random_graph(rng, n), random_graph(rng, n)
        res = s_order_compare(a, b)
        assert (res.relation == "equal") == (moment_sequence(a) == moment_sequence(b))


# ── degree-sequence realization ───────────────────────────────────


def test_realize_examples():
    k3 = Graph.complete(3)
    g = realize_with_kernel(k3, (4, 2, 2, 1, 1), 5)
    assert g.degree_sequence() == (4, 2, 2, 1, 1)
    assert is_isomorphic(kernel(g, 1), k3)
    g = realize_with_kernel(k3, (3, 3, 2, 1, 1), 5)
    assert g.degree_sequence() == (3, 3, 2, 1, 1)
    assert is_isomorphic(kernel(g, 1), k3)


def test_realize_error_cases():
    k3 = Graph.complete(3)
    with pytest.raises(ValueError, match="degree total"):
        realize_with_kernel(k3, (4, 2, 2, 2, 1), 5)
    with pytest.raises(ValueError, match="dominate"):
        realize_with_kernel(k3, (4, 2, 1, 1, 1), 5)
    with pytest.raises(ValueError, match="exceed the core order"):
        realize_with_kernel(k3, (2, 2, 2), 3)
    with pytest.raises(ValueError, match="strict excess"):
        realize_with_kernel(k3, (2, 2, 2, 1, 1), 5)
    with pytest.raises(ValueError, match="nonincreasing"):
        realize_with_kernel(k3, (2, 4, 2, 1, 1), 5)
    with pytest.raises(ValueError, match="2-core"):
        realize_with_kernel(Graph.path(3), (3, 2, 2, 1, 1), 5)
    with pytest.raises(ValueError, match="connected"):
        realize_with_kernel(Graph.empty(3), (3, 2, 2, 1, 1), 5)
    with pytest.raises(ValueError, match="expected 5 target degrees"):
        realize_with_kernel(Graph.cycle(3), (3, 2, 2), 5)
    with pytest.raises(ValueError, match="positive"):
        realize_with_kernel(Graph.cycle(3), (4, 2, 2, 1, 0), 5)


def test_realize_randomized_contract(rng):
    for _ in range(200):
        k = rng.randint(3, 6)
        h = random_connected_graph(rng, k, 0.6)
        if min(h.degrees()) < 2:
            continue
        n = k + rng.randint(1, 4)
        base = list(h.degree_sequence())
        targets = base[:]
        extra = 2 * (n - k)
        # sprinkle the new degree onto the core, then pad with pendants
        bumps = rng.randint(1, extra)
        for _ in range(bumps):
            targets[rng.randrange(k)] += 1
        tail = [1] * (n - k)
        budget = extra - bumps
        i = 0
        while budget > 0 and i < len(tail):
            room = rng.randint(0, budget)
            tail[i] += room
            budget -= room
            i += 1
        if budget:
            targets[0] += budget
        seq = tuple(sorted(targets + tail, reverse=True))
        resorted = tuple(sorted(targets, reverse=True))
        if any(resorted[i] < base[i] for i in range(k)) or resorted == tuple(base):
            continue
        if sum(seq) != sum(base) + 2 * (n - k):
            continue
        # domination of the full sorted sequence is what the contract needs
        if any(seq[i] < base[i] for i in range(k)) or all(
            seq[i] == base[i] for i in range(k)
        ):
            continue
        g = realize_with_kernel(h, seq, n)
        assert g.n == n and g.is_connected()
        assert g.degree_sequence() == seq
        assert is_isomorphic(kernel(g, 1), h)


# ── pendant rearrangement ─────────────────────────────────────────


def test_d_transformation_contract(rng):
    checked = 0
    while checked < 150:
        n = rng.randint(4, 8)
        g = random_connected_graph(rng, n, 0.4)
        h = kernel(g, 1)
        if not 0 < h.n < n:
            continue
        d = g.degree_sequence()
        base = h.degree_sequence()
        spots = [i for i in range(1, h.n) if d[i] > base[i]]
        if not spots:
            continue
        result = d_transformation(g, spots[0])
        assert (result.n, result.m) == (g.n, g.m)
        assert canonical_form(kernel(result, 1)) == canonical_form(h)
        old, new = spectral_moments(g, 4), spectral_moments(result, 4)
        assert new[3] == old[3]
        assert new[4] > old[4]
        checked += 1


def test_d_transformation_rejects_inadmissible():
    gstar = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)])
    # degrees (4,2,2,1,1); positions 1..2 sit exactly at the core degrees
    with pytest.raises(ValueError):
        d_transformation(gstar, 1)
    with pytest.raises(ValueError):
        d_transformation(Graph.cycle(4), 1)  # no pendants at all
    with pytest.raises(ValueError):
        d_transformation(Graph.path(4), 1)  # empty 2-core
    triangle_and_edge = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(ValueError, match="graph must be connected"):
        d_transformation(triangle_and_edge, 1)
    triangle_and_path = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    with pytest.raises(ValueError, match=r"position must lie in 1\.\.2"):
        d_transformation(triangle_and_path, 5)
