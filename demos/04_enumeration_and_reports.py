"""
Exhaustive verification
=======================

Everything the toolkit claims is checked against brute force:
isomorph-free enumeration of whole graph classes, folds over them,
and machine-readable reports pitting the closed forms against the
enumerated truth.
"""

from cliquex import (
    EnumerationTask,
    argmax_fold,
    connected_graphs,
    to_graph6,
    verify_max_cliques,
    verify_s_order_last,
)
# ── one representative per isomorphism class ──────────────────────

# Published totals of connected graphs by order (OEIS A001349); the
# engine shares nothing with the census behind them.
PUBLISHED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

print("connected classes by order:")
for n, published in PUBLISHED.items():
    total = sum(1 for _ in connected_graphs(EnumerationTask(n)))
    print(f"  n={n}: {total} (published {published}, equal: {total == published})")

print("\nthe six connected graphs on 4 vertices:")
for m in range(3, 7):
    for g in connected_graphs(EnumerationTask(4, m)):
        print(f"  m={m}: {to_graph6(g):<6} degrees {g.degree_sequence()}")

# Canonical augmentation grows graphs vertex by vertex, keeping a
# child only when it extends its canonical parent. The test suite
# checks it cell by cell against a second enumerator that lists every
# labeled graph and dedups whole relabeling orbits.

# ── folding a measure over a class ────────────────────────────────

# argmax_fold folds the s-clique counts of every connected graph of each
# order asked for into one cell per (m, s), keeping the maximum and every
# graph attaining it.
value, witnesses = argmax_fold([7], (3,))[7][12, 3]
print(f"\nmax triangles over all connected (12, 7)-graphs: {value}")
print(f"attained by {len(witnesses)} class(es): "
      + ", ".join(sorted(to_graph6(g) for g in witnesses)))

# ── reports ───────────────────────────────────────────────────────
# The harnesses sweep full parameter grids and emit JSON; a mismatch
# anywhere is data in the report, not an exception.

rep = verify_max_cliques(6, {3, 4}, workers=2)
print(f"\nclique-maximum harness n<=6: {len(rep.grid)} cells, "
      f"{len(rep.mismatches)} mismatches, {rep.elapsed_ms} ms")

rep = verify_s_order_last(6)
duels = [c for c in rep.grid if "b_pair" in c]
print(f"moment-order harness n<=6: {len(rep.grid)} cells, "
      f"{len(rep.mismatches)} mismatches, {len(duels)} star-vs-bridge duels")
for cell in duels:
    pair = cell["b_pair"]
    print(f"  (m={cell['m']}, n={cell['n']}): bridge {pair['relation']} star, "
          f"split at S_{pair['first_differing_index']}")
