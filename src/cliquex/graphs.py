"""Immutable small-graph values on at most 64 vertices.

A graph is stored as one integer bitmask per vertex, so every set
operation (neighborhood intersection, frontier expansion, candidate
pruning) is a single word-parallel integer op. Graphs are frozen
values: all "mutation" constructs a new graph, which makes them safe
to share across concurrent workers.

The empty graph (n = 0) is a legal value; kernel peeling can empty a
graph out completely and the algebra downstream is simpler if that
result is still a graph.

Every structure query uses one reachability pass, ``_reach`` (the
vertices reached from a start bit inside a vertex mask): connectivity,
``_is_cut_vertex`` for ``articulation_points`` and the lemma checks, and
the components the engine's parent test keeps. ``_without_vertex`` deletes a vertex.

An isomorphism class is named by the graph6 record of its canonical
labeling (``canonical_form``), and ``canonical_graph`` decodes that
record, so one canonical search serves both; the decoder's rows are
simple by construction and skip validation. The search keeps no column
per vertex: at each depth it filters the candidates by the placed
vertices in position order, which leaves exactly those of least column.
One table-driven packer writes every graph6 record. Text input is read
one "\\n"-separated line at a time, with only ASCII whitespace
stripped, so no other control character ever separates or ends a record.
"""

from __future__ import annotations

import re
import string
from functools import lru_cache
from typing import Iterable, Iterator

MAX_VERTICES = 64

# Canonicalization is exact permutation search (pruned); keep it honest.
MAX_CANONICAL_VERTICES = 12
# _SHIFTS[n][d]: the bits of an order-n field after the columns of positions 0..d
_SHIFTS = [[n * (n - 1) // 2 - d * (d + 1) // 2 for d in range(n)]
           for n in range(MAX_CANONICAL_VERTICES + 1)]

#: Relabeling-invariant encoding, equal exactly for isomorphic graphs: the
#: graph6 record of the canonical labeling. Codes of one order sort by
#: their bit fields; codes of different orders sort by order.
CanonicalForm = str


class Graph6Error(ValueError):
    """Malformed graph6 input; the message names the check that failed."""


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"order {n} outside [0, {MAX_VERTICES}]")


class Graph:
    """Simple undirected graph on vertices 0..n-1; ``adj[u]`` is a bitmask."""

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        self.__post_init__()

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        _check_order(n)
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for order {n}")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"vertex {u} has neighbors outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u, row in enumerate(adj):
            for v in _bits(row):
                if not (adj[v] >> u) & 1:
                    raise ValueError(f"asymmetric edge {u}-{v}")

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    def __reduce__(self) -> tuple:
        # the rows came from a valid graph; unpickling cannot assign slots
        return Graph._trusted, (self.n, self.adj)

    # ── construction ──────────────────────────────────────────────

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph built without validation, for rows already known to
        form a simple graph (such as those derived from a valid graph)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _check_order(n)
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_order(n)
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << u) for u in range(n)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, ((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def star(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((0, i) for i in range(1, n)))

    # ── elementary queries ────────────────────────────────────────

    @property
    def m(self) -> int:
        """Edge count."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted nonincreasing."""
        return tuple(sorted(self.degrees(), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, u: int) -> Iterator[int]:
        return _bits(self.adj[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + v

    # ── structure ─────────────────────────────────────────────────

    def is_connected(self) -> bool:
        """One reachability pass from vertex 0 covers everything (False if n = 0)."""
        full = (1 << self.n) - 1
        return self.n > 0 and _reach(self.adj, 1, full) == full

    def articulation_points(self) -> frozenset[int]:
        """Cut vertices of a connected graph: those whose deletion disconnects it."""
        if not self.is_connected():
            raise ValueError("articulation points are defined on connected graphs")
        return frozenset(u for u in range(self.n) if _is_cut_vertex(self.adj, u))

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph on the given vertices, relabeled in increasing order."""
        keep = sorted(set(vertices))
        if not keep:
            raise ValueError("induced subgraph needs a nonempty vertex set")
        if keep[0] < 0 or keep[-1] >= self.n:
            raise ValueError(f"vertex set not within 0..{self.n - 1}")
        return self._induced(keep)

    def remove_vertex(self, v: int) -> "Graph":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} not in graph")
        return _without_vertex(self.adj, v)

    def add_vertex(self, neighbors: Iterable[int]) -> "Graph":
        """New graph with vertex n attached to ``neighbors``."""
        mask = 0
        for u in neighbors:
            if not 0 <= u < self.n:
                raise ValueError(f"vertex {u} not in graph")
            mask |= 1 << u
        rows = [self.adj[u] | (((mask >> u) & 1) << self.n) for u in range(self.n)]
        rows.append(mask)
        return Graph(self.n + 1, tuple(rows))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Apply ``u -> perm[u]`` to every vertex."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        return self._induced(sorted(range(self.n), key=p.__getitem__))

    def _induced(self, order: list[int]) -> "Graph":
        """The subgraph induced on ``order``, vertex order[i] becoming vertex i."""
        pos = {v: i for i, v in enumerate(order)}
        return Graph._trusted(len(order), tuple(
            sum(1 << pos[w] for w in _bits(self.adj[v]) if w in pos) for v in order
        ))


# ── reachability and deletion on adjacency rows ───────────────────


def _reach(adj: tuple[int, ...], start: int, within: int) -> int:
    """The mask of vertices reached from the bit ``start`` by paths that
    stay inside the vertex mask ``within``; one frontier step per round."""
    reached = frontier = start
    while frontier:
        grown = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            grown |= adj[bit.bit_length() - 1]
        frontier = grown & within & ~reached
        reached |= frontier
    return reached


def _is_cut_vertex(adj: tuple[int, ...], u: int) -> bool:
    """Does deleting u disconnect the connected graph with these rows?"""
    keep = ((1 << len(adj)) - 1) ^ (1 << u)
    return _reach(adj, keep & -keep, keep) != keep


def _without_vertex(adj: tuple[int, ...], u: int) -> Graph:
    """The graph with these rows less vertex u, later vertices shifted down."""
    low = (1 << u) - 1
    return Graph._trusted(len(adj) - 1, tuple(
        (row & low) | ((row >> (u + 1)) << u) for w, row in enumerate(adj) if w != u
    ))


# ── canonical form ────────────────────────────────────────────────


def are_twins(adj: tuple[int, ...], a: int, b: int) -> bool:
    """Do a and b have the same neighbours apart from each other? Then
    swapping them is an automorphism. A vertex cannot have both a true
    and a false twin, so twinhood is an equivalence relation."""
    return adj[a] & ~(1 << b) == adj[b] & ~(1 << a)


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> CanonicalForm:
    """Relabeling-invariant code: the graph6 record of the canonical
    labeling, whose upper-triangle bit field is the lexicographically
    minimal one over degree-respecting orderings.

    Positions are pre-assigned degrees (nonincreasing), so only
    permutations listing vertices in sorted-degree order compete; at
    each depth only candidates realizing the minimal adjacency column
    branch. Twins collapse to a single branch. No column is kept: the
    candidates at depth d are filtered by each placed vertex in position
    order, keeping those not adjacent to it if any are (a 0 bit of the
    column) and all of them if none is (a 1 bit), so the survivors are
    exactly the candidates whose column is least, and the d bits are
    that column. A partial bit field is pruned against the best field's
    prefix. The search is one loop over an explicit stack: a node walks
    down its first branch in place and pushes the others, to pop in
    ascending vertex order. One list holds, for each placed vertex of
    the walked path, the vertices not adjacent to it; a popped node
    truncates it to its own depth.
    Exact for n <= 12; highly symmetric graphs near that cap can be slow.
    """
    n = g.n
    if n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical form limited to n <= {MAX_CANONICAL_VERTICES}")
    adj = g.adj
    degs = list(map(int.bit_count, adj))
    by_degree = [0] * n  # by_degree[k]: the vertices of degree k < n
    for u, k in enumerate(degs):
        by_degree[k] |= 1 << u
    cells = [by_degree[k] for k in sorted(degs, reverse=True)]  # cells[d]: position d's candidates
    shift = _SHIFTS[n]
    best = 1 << n * (n - 1) // 2  # above every field until the first leaf
    path: list[int] = []  # path[i]: the vertices not adjacent to the vertex at position i
    # a node: depth d, the unplaced vertices, the field so far, and what follows
    # path[:d - 1] (the vertex at position d - 1's entry; the root's is empty)
    stack = [(0, (1 << n) - 1, 0, ())] if n else []
    while stack:
        d, unplaced, field, path[d - 1:] = stack.pop()
        while True:
            cands, col = cells[d] & unplaced, 0
            for far in path:  # the least column: bit 0 wherever some candidate allows it
                if kept := cands & far:
                    cands, col = kept, col << 1
                else:
                    col = col << 1 | 1
            field = field << d | col
            if field > best >> shift[d]:
                break
            if d == n - 1:
                best = field
                break
            low = cands & -cands
            if cands ^ low:  # a tie: the least of each twin class branches, the later ones pushed
                branch = [low.bit_length() - 1]
                for c in _bits(cands ^ low):
                    for k in branch:
                        if are_twins(adj, k, c):
                            break
                    else:
                        branch.append(c)
                for c in reversed(branch[1:]):
                    stack.append((d + 1, unplaced ^ 1 << c, field, (~adj[c],)))
            unplaced ^= low  # the first branch goes on in place
            path.append(~adj[low.bit_length() - 1])
            d += 1
    return _graph6(n, best)  # n = 0 packs no field bit


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of ``g``: the graph its code encodes."""
    return from_graph6(canonical_form(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# ── graph6 interchange format ─────────────────────────────────────

_G6_HEADER = ">>graph6<<"
_G6_CHARS = [chr(63 + group) for group in range(64)]  # the character of each 6-bit group


def _graph6(n: int, field: int) -> str:
    """The graph6 record of order n whose upper-triangle bit field,
    column by column (v = 1..n-1, u = 0..v-1), is ``field``, most
    significant bit first."""
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    field <<= 6 * need - nbits
    return header + "".join([_G6_CHARS[field >> k & 63] for k in range(6 * need - 6, -1, -6)])


def to_graph6(g: Graph) -> str:
    """Byte-exact graph6 record for the labeling at hand (not canonicalized)."""
    field = 0
    for v in range(1, g.n):
        for u in range(v):
            field = (field << 1) | ((g.adj[u] >> v) & 1)
    return _graph6(g.n, field)


def from_graph6(text: str) -> Graph:
    """Parse one graph6 record; the optional ``>>graph6<<`` prefix is allowed.

    Only ASCII whitespace around the record is ignored; any other
    control character is an error."""
    s = text.strip(string.whitespace)
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("empty record")
    if not s.isascii():
        raise Graph6Error("non-ASCII character in record")
    data = s.encode("ascii")
    if data[0] == 126:  # '~': multi-byte order
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte order field exceeds the 64-vertex cap")
        if len(data) < 4:
            raise Graph6Error("truncated multi-byte order field")
        hi, mid, lo = data[1] - 63, data[2] - 63, data[3] - 63
        if not all(0 <= x < 64 for x in (hi, mid, lo)):
            raise Graph6Error("order bytes outside graph6 alphabet")
        n = (hi << 12) | (mid << 6) | lo
        body = data[4:]
    else:
        n = data[0] - 63
        if n < 0 or data[0] > 126:
            raise Graph6Error(f"order byte {data[0]} outside graph6 alphabet")
        body = data[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"order {n} exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"need {need} data bytes, found {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"{len(body) - need} trailing bytes after bit field")
    field = 0
    for byte in body:
        group = byte - 63
        if not 0 <= group < 64:
            raise Graph6Error(f"data byte {byte} outside graph6 alphabet")
        field = (field << 6) | group
    pad = 6 * need - nbits
    if field & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    # the bits run most significant first, in the column-major order to_graph6 writes
    rows = [0] * n
    bit = nbits + pad
    for v in range(1, n):
        for u in range(v):
            bit -= 1
            if (field >> bit) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    # rows filled from a u < v bit field are symmetric and loop-free
    return Graph._trusted(n, tuple(rows))


def text_lines(text: str) -> list[str]:
    """The lines of ``text``, split on "\\n" only and stripped of ASCII
    whitespace only (so CRLF input reads as LF input)."""
    return [raw.strip(string.whitespace) for raw in text.split("\n")]


#: One stripped edge-list line: "u v" in ASCII digits, a '#' comment, both, or neither.
EDGE_LINE = re.compile(r"(?:(\d+)\s+(\d+))?\s*(?:#.*)?", re.ASCII)


def from_edge_list(text: str) -> Graph:
    """Read a plain 0-indexed "u v" edge list; '#' starts a comment."""
    edges = []
    top = -1
    for lineno, line in enumerate(text_lines(text), start=1):
        match = EDGE_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"line {lineno}: expected 'u v' in ASCII digits, got {line!r}")
        if match[1] is None:
            continue
        u, v = int(match[1]), int(match[2])
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise ValueError("edge list is empty; order cannot be inferred")
    return Graph.from_edges(top + 1, edges)
