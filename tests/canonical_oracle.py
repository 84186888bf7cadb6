"""The canonical search as first written, kept as the reference for
``canonical_form``. This one recurses, builds every candidate's column
bit by bit from all placed vertices, takes the least column with
``min`` and compares chunk lists. ``canonical_form`` keeps no column:
it walks an explicit stack and filters the candidates by each placed
vertex in turn, which leaves those of least column and spells that
column out. The two must return the same code for every graph."""

from cliquex.graphs import MAX_CANONICAL_VERTICES, CanonicalForm, Graph, _graph6


def _twin_skip(g: Graph, candidates: list[int]) -> list[int]:
    """Drop candidates interchangeable with an earlier one by a transposition."""
    kept: list[int] = []
    for c in candidates:
        cb = 1 << c
        for k in kept:
            if g.adj[c] & ~(1 << k) == g.adj[k] & ~cb:
                break
        else:
            kept.append(c)
    return kept


def reference_canonical_form(g: Graph) -> CanonicalForm:
    """Relabeling-invariant code: the graph6 record of the canonical
    labeling, whose upper-triangle bit field is the lexicographically
    minimal one over degree-respecting orderings.

    Positions are pre-assigned degrees (nonincreasing), so only
    permutations listing vertices in sorted-degree order compete; at
    each depth only candidates realizing the minimal adjacency column
    branch. Twins collapse to a single branch. Exact for n <= 12;
    highly symmetric graphs near that cap can be slow.
    """
    n = g.n
    if n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical form limited to n <= {MAX_CANONICAL_VERTICES}")
    seq = g.degree_sequence()
    deg = g.degrees()
    best: list[int] | None = None
    placed: list[int] = []
    chunks: list[int] = []  # chunk d: the column of position d, position 0 first

    def dfs() -> None:
        nonlocal best
        d = len(placed)
        if d == n:
            if best is None or chunks < best:
                best = chunks.copy()
            return
        used = set(placed)
        cands = [u for u in range(n) if u not in used and deg[u] == seq[d]]
        cols = {}
        for u in cands:
            col = 0
            for p in placed:
                col = (col << 1) | ((g.adj[u] >> p) & 1)
            cols[u] = col
        low = min(cols.values())
        if best is not None:
            prefix = chunks + [low]
            if prefix > best[: d + 1]:
                return
        branch = _twin_skip(g, [u for u in cands if cols[u] == low])
        chunks.append(low)
        for u in branch:
            placed.append(u)
            dfs()
            placed.pop()
        chunks.pop()

    dfs()
    assert best is not None
    field = 0
    for d, chunk in enumerate(best):
        field = (field << d) | chunk
    return _graph6(n, field)
