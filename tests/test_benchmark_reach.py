"""The names in cliquex that perfbench reaches for.

perfbench's tracer wraps functions and ``Graph`` methods by name, and its
runner reads the canonical cache. Each of these must keep existing until
the benchmark stops looking it up. Some also have callers in the package,
which a change that deletes the name must rewire: ``--family b1`` calls
``construct_b1``; every validated ``Graph(...)`` runs ``__post_init__``;
``construct_krt``, ``construct_extremal_star``, ``construct_b2`` and
``realize_with_kernel`` call ``add_vertex``; and ``deletion_identity_check``
calls ``remove_vertex``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from cliquex import Graph
from cliquex.graphs import canonical_form

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    tracing = load_tracing()
    for home, names in tracing.SPANS.items():
        module = importlib.import_module(f"cliquex.{home}")
        for attr in names:
            assert callable(getattr(module, attr, None)), f"cliquex.{home}.{attr}"
    for table in (tracing.GRAPH_SPANS, tracing.GRAPH_TIMED_COUNTERS, tracing.GRAPH_COUNTERS):
        for attr in table:
            assert callable(getattr(Graph, attr, None)), f"Graph.{attr}"
    home, attr, _ = tracing.GENERATOR
    assert inspect.isgeneratorfunction(getattr(importlib.import_module(f"cliquex.{home}"), attr))


def test_canonical_cache_keeps_what_the_runner_calls():
    assert callable(canonical_form.cache_info) and callable(canonical_form.cache_clear)
