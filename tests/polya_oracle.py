"""Pólya-counting oracle: the number of connected graph classes in each
(n, m) cell, computed without enumerating a single graph.

The cycle index of S_n acting on vertex pairs counts unlabeled graphs
by edge count (Pólya's theorem); the inverse Euler transform in two
variables then separates out the connected ones (Harary and Palmer,
*Graphical Enumeration*, 1973). Pure integer arithmetic; shares no
code with the generation engine or with the labeled oracle.
"""

from math import factorial, gcd
from typing import Iterator


def _partitions(n: int, largest: int | None = None) -> Iterator[list[int]]:
    """Partitions of n into parts of at most ``largest``, parts nonincreasing."""
    if n == 0:
        yield []
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part, *rest]


def _class_size(cycle_type: list[int]) -> int:
    """Permutations of S_n with this cycle type: n! / prod(k^j_k j_k!)."""
    size = factorial(sum(cycle_type))
    for k in set(cycle_type):
        j = cycle_type.count(k)
        size //= k**j * factorial(j)
    return size


def _pair_cycles(cycle_type: list[int]) -> list[int]:
    """Cycle lengths of the induced permutation on unordered vertex pairs."""
    lengths = []
    for i, a in enumerate(cycle_type):
        # pairs inside one vertex cycle of length a
        lengths += [a] * ((a - 1) // 2)
        if a % 2 == 0:
            lengths.append(a // 2)
        # pairs across two vertex cycles
        for b in cycle_type[i + 1:]:
            lengths += [a * b // gcd(a, b)] * gcd(a, b)
    return lengths


def graph_counts(n: int) -> tuple[int, ...]:
    """Entry m: the number of graphs (connected or not) on n unlabeled
    vertices with m edges."""
    slots = n * (n - 1) // 2
    total = [0] * (slots + 1)
    for cycle_type in _partitions(n):
        poly = [1] + [0] * slots  # prod over pair cycles of (1 + x^length)
        for length in _pair_cycles(cycle_type):
            for m in range(slots, length - 1, -1):
                poly[m] += poly[m - length]
        weight = _class_size(cycle_type)
        for m, c in enumerate(poly):
            total[m] += weight * c
    return tuple(c // factorial(n) for c in total)


def _mobius(r: int) -> int:
    sign, p = 1, 2
    while p * p <= r:
        if r % p == 0:
            r //= p
            if r % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if r > 1 else sign


def connected_counts(n_max: int) -> dict[tuple[int, int], int]:
    """{(n, m): number of connected classes} for 1 <= n <= n_max.

    With a(n, m) all graphs and c(n, m) the connected ones, the Euler
    transform gives x dG/dx = G * D, where
    d(n, m) = sum over r dividing both n and m of (n / r) c(n / r, m / r).
    Solve for d cell by cell, then invert the divisor sum by Möbius.
    """
    a = {(n, m): c for n in range(n_max + 1) for m, c in enumerate(graph_counts(n))}
    d: dict[tuple[int, int], int] = {}  # zero outside 0 <= m <= C(n, 2)
    for n in range(1, n_max + 1):
        for m in range(n * (n - 1) // 2 + 1):
            d[n, m] = n * a[n, m] - sum(
                d.get((k, j), 0) * a.get((n - k, m - j), 0)
                for k in range(1, n) for j in range(m + 1)
            )
    counts = {}
    for n, m in d:
        g = gcd(n, m)
        e = sum(_mobius(r) * d.get((n // r, m // r), 0) for r in range(1, g + 1) if g % r == 0)
        assert e % n == 0
        counts[n, m] = e // n
    return counts
