import os
import random

import pytest

from cliquex import EnumerationTask, Graph, canonical_form, connected_graphs

# The slow tests (the n = 8 grids and the n = 9 folds and reports) run only when set.
EXTENDED = os.environ.get("CLIQUEX_EXTENDED") == "1"

# Edge lists that must not parse: records split on "\n" only (RS, FS, VT and
# NEL separate nothing), and endpoints are ASCII digits between ASCII whitespace.
MALFORMED_EDGE_LISTS = [
    *(sep.join(["0 1", "1 2", "0 2"]) + "\n" for sep in ("\x1e", "\x1c", "\x0b", "\x85")),
    "0\x1f1\n",
    "\u0660 \u0661\n",  # Arabic-Indic digits
    "0 1_0\n",
    "+0 +1\n",
    "-1 2\n",
]


def random_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


def as_networkx(g: Graph):
    """The same graph as a networkx graph, for references that share no code with cliquex."""
    import networkx as nx

    G = nx.empty_graph(g.n)
    G.add_edges_from(g.edges())
    return G


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC11C)


@pytest.fixture(scope="session")
def order_eight_pass() -> tuple[list[Graph], int]:
    """Every connected class of order 8, from one enumeration pass that
    starts with an empty canonical cache, and the canonical searches
    (cache misses) that pass ran."""
    canonical_form.cache_clear()
    classes = list(connected_graphs(EnumerationTask(8)))
    return classes, canonical_form.cache_info().misses


@pytest.fixture(scope="session")
def order_eight_classes(order_eight_pass) -> list[Graph]:
    """Every connected class of order 8, from one enumeration pass."""
    return order_eight_pass[0]


@pytest.fixture
def pool_log(monkeypatch) -> list[tuple]:
    """Replaces the process pool with one that runs the tasks, so that
    they are counted, in this process. Logs ("pool", processes) for each
    pool made and ("imap", chunksize, [(n, m, roots) of each task]) for
    each dispatch."""
    import multiprocessing

    log: list[tuple] = []

    class InlinePool:
        def __init__(self, processes):
            log.append(("pool", processes))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            log.append(("imap", chunksize, [(t.n, t.m, t.roots) for t in tasks]))
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    return log
