"""
The moment order and its last graph
===================================

Counting closed walks of each length gives a graph an exact integer
signature (S_0, S_1, ..., S_{n-1}). Ordering graphs lexicographically
by that signature is the moment order; within all connected graphs of
fixed size and order, one graph sits last, and it is the same
pendant-star graph that maximizes the clique counts.
"""

from cliquex import (
    Graph,
    construct_b1,
    construct_b2,
    count_s_cliques,
    moment_sequence,
    s4_via_subgraphs,
    s_order_compare,
    spectral_moments,
    to_graph6,
)

# ── walk signatures ───────────────────────────────────────────────
# S_0 = n, S_1 = 0, S_2 counts edge round trips, S_3 counts triangle
# tours, and S_4 mixes edges, cherries, and 4-cycles.

for name, g in [
    ("path P_5", Graph.path(5)),
    ("cycle C_5", Graph.cycle(5)),
    ("star K_{1,4}", Graph.star(5)),
    ("complete K_5", Graph.complete(5)),
]:
    print(f"{name:<14} {moment_sequence(g)}")

# ── two routes to the fourth moment ───────────────────────────────
# Traces of matrix powers versus 2*phi(edge) + 4*phi(cherry) +
# 8*phi(C_4): independent computations, identical numbers.

g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
print(f"\nS_4 by walks: {spectral_moments(g, 4)[4]}, by subgraphs: {s4_via_subgraphs(g)}")

# ── the duel at t = 2 ─────────────────────────────────────────────
# For sizes with t = 2 two families tie on triangles: the pendant
# star over the augmented clique, and the clique-cycle bridge. Their
# first three moments agree; the fourth splits them, star in front.

b1 = construct_b1(11, 8)
b2 = construct_b2(11, 8)
print(f"\nstar   {to_graph6(b1)}: {moment_sequence(b1)[:6]}")
print(f"bridge {to_graph6(b2)}: {moment_sequence(b2)[:6]}")
print(f"triangles: {count_s_cliques(b1, 3)} vs {count_s_cliques(b2, 3)}")
duel = s_order_compare(b2, b1)
print(f"bridge comes {duel.relation} the star; first difference at index "
      f"{duel.first_differing_index}")

# ── the whole chain for one class ─────────────────────────────────
# Every connected graph with n = 6, m = 7 compared against the star.

from cliquex import EnumerationTask, connected_graphs, construct_extremal_star

star = construct_extremal_star(7, 6)
ranked = sorted(
    connected_graphs(EnumerationTask(6, 7)), key=moment_sequence
)
print(f"\nall {len(ranked)} classes with (m, n) = (7, 6), first to last:")
for g in ranked:
    tag = "  <- the pendant star" if moment_sequence(g) == moment_sequence(star) else ""
    print(f"  {to_graph6(g):<10} {moment_sequence(g)}{tag}")
