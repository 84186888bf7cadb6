"""Acceptance suite: every criterion runs at its stated scale and
tolerance (exact integer equality throughout) and prints one pass/fail
line. Run with `pytest tests/test_acceptance.py -s` to see the lines.

The optional n = 8 extended grid, the n = 9 counting sweep and the
pinned n = 9 theorem reports are gated behind CLIQUEX_EXTENDED=1.
"""

import hashlib
import random
import time
from collections import Counter

import pytest

from cliquex import (
    choose,
    decompose_connected,
    deletion_identity_check,
    kernel_vertices,
    peel_random_order,
    s4_via_subgraphs,
    spectral_moments,
    verify_extremal_kernels,
    verify_max_cliques,
    verify_s_order_last,
)
from cliquex.enumeration import EnumerationTask, connected_graphs
from cliquex.graphs import canonical_form, to_graph6
from conftest import EXTENDED, random_graph
from labeled_oracle import labeled_classes
from polya_oracle import connected_counts

# sha256 of `cliquex enumerate --n 8`: the sorted graph6 lines, one per class
ENUMERATE_N8_SHA256 = "8e7075e223c1a2727f8de7b26c35d98364a8c70bcffefd84594ff010a420c738"


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_clique_maximum_grid():
    """Enumerated max k_s equals C(r,s) + C(t,s-1) for 3 <= n <= 7,
    every feasible m, s in {3, 4}; integer equality, under a minute."""
    start = time.perf_counter()
    rep = verify_max_cliques(7, {3, 4})
    elapsed = time.perf_counter() - start
    ok = not rep.mismatches
    report(
        "criterion 1: clique-maximum grid n<=7, s in {3,4}",
        ok,
        f"{len(rep.grid)} cells in {elapsed:.1f}s",
    )
    assert ok, rep.mismatches[:3]
    assert elapsed < 60.0


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set CLIQUEX_EXTENDED=1 for the n=8 grid")
def test_criterion_1_extended_n8():
    start = time.perf_counter()
    rep = verify_max_cliques(8, {3, 4})
    elapsed = time.perf_counter() - start
    ok = not rep.mismatches
    report("criterion 1 (extended): n<=8 grid", ok, f"{elapsed:.0f}s")
    assert ok
    assert elapsed < 600.0


def test_criterion_2_extremal_kernel_forms():
    """Every extremal graph's (s-2)-kernel is the r-clique, the
    t-augmented r-clique, or a clique-cycle bridge; zero mismatches."""
    rep = verify_extremal_kernels(7, {3, 4})
    ok = not rep.mismatches
    report("criterion 2: extremal kernel classification n<=7", ok,
           f"{len(rep.grid)} cells")
    assert ok, rep.mismatches[:3]


def check_moment_order_last_graph(n_max: int, label: str, budget_s: float) -> None:
    start = time.perf_counter()
    rep = verify_s_order_last(n_max)
    elapsed = time.perf_counter() - start
    ok = not rep.mismatches
    pair_cells = [c for c in rep.grid if "b_pair" in c]
    pairs_ok = all(
        c["b_pair"]["relation"] == "before"
        and c["b_pair"]["first_differing_index"] == 4
        for c in pair_cells
    )
    # every t=2 cell wide enough to hold the bridge must carry the comparison
    expected_pairs = 0
    for cell in rep.grid:
        r, t = decompose_connected(cell["m"], cell["n"])
        if t == 2 and r >= 3 and cell["n"] >= r + 2:
            expected_pairs += 1
    report(
        f"criterion 3{label}: moment-order last graph n<={n_max}",
        ok and pairs_ok,
        f"{len(rep.grid)} cells, {len(pair_cells)} bridge duels in {elapsed:.1f}s",
    )
    assert ok, rep.mismatches[:3]
    assert pairs_ok and len(pair_cells) == expected_pairs
    assert elapsed < budget_s


def test_criterion_3_moment_order_last_graph():
    """The moment-order maximum is attained uniquely by the pendant-star
    construction for 4 <= n <= 7, m >= n; every t=2 cell that can hold
    the bridge competitor ranks it strictly earlier, splitting at S_4."""
    check_moment_order_last_graph(7, "", 120.0)


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set CLIQUEX_EXTENDED=1 for the n=8 grid")
def test_criterion_3_extended_n8():
    check_moment_order_last_graph(8, " (extended)", 600.0)


def test_criterion_4_fourth_moment_identity():
    """Subgraph-count S_4 equals walk-count S_4 on 10^3 seeded random
    graphs with n <= 10, exactly."""
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        if s4_via_subgraphs(g) != spectral_moments(g, 4).s[4]:
            failures += 1
    report("criterion 4: fourth-moment identity, 10^3 graphs", failures == 0)
    assert failures == 0


def test_criterion_5_kernel_well_definedness():
    """10^2 seeded random graphs x 10^2 random peeling orders: the
    surviving vertex set never moves."""
    rng = random.Random(515)
    deviations = 0
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        s = rng.randint(0, 4)
        expected = kernel_vertices(g, s)
        for _ in range(100):
            if peel_random_order(g, s, rng) != expected:
                deviations += 1
    report("criterion 5: kernel order-independence 100x100", deviations == 0)
    assert deviations == 0


def test_criterion_6_binomial_rebalancing_grid():
    """Exhaustive 1 <= b <= a <= 12, 2 <= s <= 8, max(a,b) <= c <= a+b:
    the inequality holds and equality happens exactly at c <= s-1 or
    c = max(a,b)."""
    exceptions = []
    cells = 0
    for a in range(1, 13):
        for b in range(1, a + 1):
            for s in range(2, 9):
                for c in range(a, a + b + 1):
                    cells += 1
                    lhs = choose(a, s) + choose(b, s)
                    rhs = choose(c, s) + choose(a + b - c, s)
                    stated = c <= s - 1 or c == a
                    if lhs > rhs or (lhs == rhs) != stated:
                        exceptions.append((a, b, c, s))
    report("criterion 6: binomial rebalancing grid", not exceptions,
           f"{cells} tuples")
    assert not exceptions, exceptions[:5]


def test_criterion_7_deletion_identity():
    """k_s(G) = k_s(G - v) + k_{s-1}(G[N(v)]) on 10^3 seeded random
    (graph, vertex, s) triples with n <= 9, s <= 5."""
    rng = random.Random(333)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        v = rng.randrange(n)
        s = rng.randint(2, 5)
        lhs, rhs = deletion_identity_check(g, v, s)
        failures += lhs != rhs
    report("criterion 7: deletion identity, 10^3 triples", failures == 0)
    assert failures == 0


def test_criterion_8_enumeration_oracle_cross_validation():
    """Canonical-augmentation output equals labeled-enumeration-plus-
    dedup on every (n <= 7, m) cell, its size equals the Pólya count,
    and the n = 4 class counts are (m=3: 2, m=4: 2, m=5: 1, m=6: 1)."""
    start = time.perf_counter()
    polya = connected_counts(7)
    bad_cells = []
    for n in range(1, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            engine = {
                canonical_form(g)
                for g in connected_graphs(EnumerationTask(n, m))
            }
            oracle = labeled_classes(n, m)
            if engine != oracle or len(engine) != polya[n, m]:
                bad_cells.append((n, m, len(engine), len(oracle), polya[n, m]))
    counts4 = {
        m: len(labeled_classes(4, m)) for m in (3, 4, 5, 6)
    }
    counts_ok = counts4 == {3: 2, 4: 2, 5: 1, 6: 1}
    elapsed = time.perf_counter() - start
    report(
        "criterion 8: engine vs labeled and Pólya oracles, all n<=7 cells",
        not bad_cells and counts_ok,
        f"{elapsed:.1f}s",
    )
    assert not bad_cells, bad_cells
    assert counts_ok, counts4


def polya_mismatches(n: int, sizes: Counter) -> list[tuple[int, int, int]]:
    """(m, engine count, Pólya count) for every size m where the engine's
    class count ``sizes[m]`` differs from the oracle's."""
    polya = connected_counts(n)
    return [
        (m, sizes[m], polya[n, m])
        for m in range(n * (n - 1) // 2 + 1)
        if sizes[m] != polya[n, m]
    ]


def test_criterion_8_polya_counts_n8(order_eight_classes):
    """Engine class counts equal the Pólya counts on every (8, m) cell,
    and the sorted graph6 lines hash to the pinned `enumerate --n 8`
    output."""
    bad = polya_mismatches(8, Counter(g.m for g in order_eight_classes))
    lines = sorted(to_graph6(g) for g in order_eight_classes)
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    report(
        "criterion 8: engine vs Pólya oracle, all n=8 cells",
        not bad and digest == ENUMERATE_N8_SHA256,
        f"{len(lines)} classes",
    )
    assert not bad, bad
    assert digest == ENUMERATE_N8_SHA256


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set CLIQUEX_EXTENDED=1 for the n=9 sweep")
def test_criterion_8_extended_polya_counts_n9():
    start = time.perf_counter()
    sizes = Counter(g.m for g in connected_graphs(EnumerationTask(9)))
    bad = polya_mismatches(9, sizes)
    elapsed = time.perf_counter() - start
    total = sum(sizes.values())
    report("criterion 8 (extended): engine vs Pólya oracle, all n=9 cells",
           not bad and total == 261080, f"{total} classes in {elapsed:.0f}s")
    assert not bad, bad
    assert total == 261080


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set CLIQUEX_EXTENDED=1 for the n=9 reports")
def test_criteria_1_to_3_extended_n9_reports_pinned():
    """The three theorem reports at n_max = 9 on 2 workers: no mismatch,
    and each body's cell count and sha256 as first measured."""
    for rep, cells, digest in (
        (verify_max_cliques(9, {3, 4, 5}, workers=2), 273,
         "065303fda207b5d9a88e7b05981ef459bb25f7962be02feae73977764e774f8d"),
        (verify_extremal_kernels(9, {3, 4, 5}, workers=2), 210,
         "8615fef477b6056ae90bc264467d82626964d521f2843f390d3963237a3ade5c"),
        (verify_s_order_last(9, workers=2), 83,
         "449ed951fa8e2eda3cc2875e15dad745d6bb374dabbb5bb85f393f5ba1e128c3"),
    ):
        body = rep.to_json(timing=False).encode()
        ok = (not rep.mismatches and len(rep.grid) == cells
              and hashlib.sha256(body).hexdigest() == digest)
        report(f"criteria 1-3 (extended): {rep.theorem_id} n<=9 report pinned", ok,
               f"{len(rep.grid)} cells")
        assert ok, rep.theorem_id
