"""Labeled-enumeration oracle for the generation engine (n <= 7)."""

from itertools import combinations, permutations

import numpy as np

from cliquex.graphs import CanonicalForm, Graph, canonical_form

MAX_LABELED_ORDER = 7


def _slot_powers(n: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Edge slots in column-major order plus, per vertex permutation,
    the power-of-two each slot's bit contributes after relabeling."""
    slots = [(u, v) for v in range(1, n) for u in range(v)]
    index = {e: i for i, e in enumerate(slots)}
    perms = list(permutations(range(n)))
    table = np.zeros((len(perms), len(slots)), dtype=np.int64)
    for k, p in enumerate(perms):
        for s, (u, v) in enumerate(slots):
            a, b = p[u], p[v]
            table[k, s] = index[(min(a, b), max(a, b))]
    return slots, np.int64(1) << table


def labeled_classes(n: int, m: int, connected_only: bool = True) -> frozenset[CanonicalForm]:
    """Canonical forms of all (n, m) classes found by enumerating every
    labeled graph and deduplicating whole relabeling orbits.

    Entirely independent of the augmentation engine: its only shared
    ingredient is the canonical form used to name classes.
    """
    if not 1 <= n <= MAX_LABELED_ORDER:
        raise ValueError(f"labeled fallback supports 1 <= n <= {MAX_LABELED_ORDER}")
    nslots = n * (n - 1) // 2
    if not 0 <= m <= nslots:
        raise ValueError(f"no graph has n={n}, m={m}")
    slots, powers = _slot_powers(n)
    seen: set[int] = set()
    found: set[CanonicalForm] = set()
    for combo in combinations(range(nslots), m):
        code = 0
        for s in combo:
            code |= 1 << s
        if code in seen:
            continue
        g = Graph.from_edges(n, [slots[s] for s in combo])
        if not connected_only or g.is_connected():
            found.add(canonical_form(g))
        orbit = powers[:, list(combo)].sum(axis=1) if combo else np.zeros(1, dtype=np.int64)
        seen.update(orbit.tolist())
    return frozenset(found)
