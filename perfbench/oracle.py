"""Reference computations that the benchmark's gates hold CLI output to.

None of this imports cliquex. graph6 is decoded and encoded from the
format's definition, kernels are peeled by repeated deletion, and
closed-walk counts come from integer matrix powers, so a gate compares
two methods that share no code.

A graph here is a list of neighbour sets on vertices 0..n-1.
"""

from __future__ import annotations

import random

Adj = list[set[int]]


def decode_graph6(line: str) -> Adj:
    """Parse one graph6 record of order at most 62."""
    data = line.strip().encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 order byte {data[0]} outside 63..125")
    body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} bytes for order {n}")
    adj: Adj = [set() for _ in range(n)]
    k = 0
    for v in range(1, n):
        for u in range(v):
            if ((body[k // 6] - 63) >> (5 - k % 6)) & 1:
                adj[u].add(v)
                adj[v].add(u)
            k += 1
    return adj


def encode_graph6(adj: Adj) -> str:
    n = len(adj)
    bits = [int(v in adj[u]) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    groups = (int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + g) for g in groups)


def edge_count(adj: Adj) -> int:
    return sum(map(len, adj)) // 2


def is_connected(adj: Adj) -> bool:
    if not adj:
        return True
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == len(adj)


def random_graph(rng: random.Random, n: int, p: float) -> Adj:
    adj: Adj = [set() for _ in range(n)]
    for v in range(1, n):
        for u in range(v):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def krt(r: int, t: int) -> Adj:
    """K_r on 0..r-1 plus vertex r joined to 0..t-1."""
    adj: Adj = [set(range(r)) - {u} for u in range(r)] + [set(range(t))]
    for u in range(t):
        adj[u].add(r)
    return adj


def kernel(adj: Adj, s: int) -> Adj:
    """Delete vertices of degree <= s until none is left; the survivors
    keep their relative order."""
    live = set(range(len(adj)))
    while True:
        low = [v for v in live if len(adj[v] & live) <= s]
        if not low:
            break
        live.difference_update(low)
    keep = sorted(live)
    pos = {v: i for i, v in enumerate(keep)}
    return [{pos[w] for w in adj[v] if w in pos} for v in keep]


def closed_walks(adj: Adj, jmax: int) -> list[int]:
    """S_j = trace(A^j) for j = 0..jmax, in Python integers."""
    n = len(adj)
    power = [[int(u == v) for v in range(n)] for u in range(n)]
    walks = [n]
    for _ in range(jmax):
        power = [[sum(row[w] for w in adj[v]) for v in range(n)] for row in power]
        walks.append(sum(power[u][u] for u in range(n)))
    return walks


def moment_relation(a: Adj, b: Adj) -> str:
    """What `cliquex compare` prints for two graphs of one order."""
    sa = closed_walks(a, max(len(a) - 1, 0))
    sb = closed_walks(b, max(len(b) - 1, 0))
    for j, (x, y) in enumerate(zip(sa, sb)):
        if x != y:
            return f"{'before' if x < y else 'after'} {j}"
    return "equal"
