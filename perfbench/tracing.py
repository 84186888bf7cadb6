"""In-process tracing of cliquex from outside the package.

`Tracer.install` replaces public functions and `Graph` methods with
wrappers, in every cliquex module that holds a binding to them, and
`uninstall` puts the originals back. Three kinds of wrapper:

- a span records (name, start, end, parent span, run id) and adds the
  span's self time (duration minus the time its child spans cover);
- a timed counter adds its call count and time, and its time counts as
  covered in the enclosing span, but it keeps no span;
- a counter only counts calls.

The hottest calls (`Graph.degrees`, `Graph.__post_init__`) get the two
cheaper kinds so that tracing stays a small share of the wall time.
Spans are kept in one flat array and written out by `write_spans`.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

SPANS = {
    "graphs": {
        "canonical_form": "graphs.canonical_form",
        "to_graph6": "graphs.to_graph6",
        "from_graph6": "graphs.from_graph6",
    },
    "cliques": {
        "count_s_cliques": "cliques.count_s_cliques",
        "clique_counts_upto": "cliques.clique_counts_upto",
        "deletion_identity_check": "cliques.deletion_identity_check",
    },
    "extremal": {
        "kernel": "extremal.kernel",
        "kernel_vertices": "extremal.kernel_vertices",
        "construct_krt": "extremal.construct",
        "construct_extremal_star": "extremal.construct",
        "construct_bridge": "extremal.construct",
        "construct_b1": "extremal.construct",
        "construct_b2": "extremal.construct",
    },
    "spectral": {
        "spectral_moments": "spectral.spectral_moments",
        "s_order_compare": "spectral.s_order_compare",
        "s4_via_subgraphs": "spectral.s4_via_subgraphs",
    },
    "verify": {
        "verify_max_cliques": "verify.max_cliques",
        "verify_extremal_kernels": "verify.extremal_kernels",
        "verify_s_order_last": "verify.s_order",
        "verify_lemma_suite": "verify.lemmas",
    },
    "cli": {"run": "cli.run"},
}
GRAPH_SPANS = {"articulation_points": "graphs.articulation_points"}
GRAPH_TIMED_COUNTERS = {"__post_init__": "graphs.Graph.new"}
GRAPH_COUNTERS = {
    "degrees": "graphs.degrees",
    "add_vertex": "graphs.add_vertex",
    "remove_vertex": "graphs.remove_vertex",
}
GENERATOR = ("enumeration", "connected_graphs", "enumeration.connected_graphs")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._calls: list[int] = []  # by name id
        self._self_s: list[float] = []
        # One row per closed span: (index, name id, start, end, parent index, run id).
        self.rows = array("d")
        self._stack: list[list[float]] = []  # open spans: [index, start, covered]
        self._next_index = 0
        self.run_id = 0
        self.orders: set[int] = set()  # distinct n passed to connected_graphs
        self.classes = 0  # graphs connected_graphs yielded
        self._undo: list[tuple[object, str, object]] = []

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self time) for every installed name, called or not."""
        return {name: (self._calls[i], self._self_s[i]) for i, name in enumerate(self.names)}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
        return self.names.index(name)

    # ── recording ─────────────────────────────────────────────────

    def _open(self) -> list[float]:
        frame = [self._next_index, perf_counter(), 0.0]
        self._next_index += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[float], nid: int) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        index, start, covered = frame
        dur = end - start
        self._self_s[nid] += dur - covered
        if stack:
            parent = stack[-1]
            parent[2] += dur
            self.rows.extend((index, nid, start, end, parent[0], self.run_id))
        else:
            self.rows.extend((index, nid, start, end, -1, self.run_id))

    def span(self, name: str, fn):
        nid = self._name_id(name)
        open_, close, calls = self._open, self._close, self._calls

        def traced(*args, **kwargs):
            calls[nid] += 1
            frame = open_()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, nid)
        return traced

    def generator_span(self, name: str, fn):
        """A span per resumption of the generator, so the consumer's own
        work between items stays in the consumer's self time. Its call
        count is the number of generators made, not of resumptions."""
        nid = self._name_id(name)
        open_, close, calls = self._open, self._close, self._calls

        def traced(task, *args, **kwargs):
            calls[nid] += 1
            self.orders.add(task.n)
            inner = fn(task, *args, **kwargs)
            try:
                while True:
                    frame = open_()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(frame, nid)
                    self.classes += 1
                    yield item
            finally:
                inner.close()
        return traced

    def timed_counter(self, name: str, fn):
        """Counts calls and their time, which the enclosing span counts as
        covered; keeps no span."""
        nid = self._name_id(name)
        calls, self_s, stack = self._calls, self._self_s, self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[nid] += 1
                self_s[nid] += dt
                if stack:
                    stack[-1][2] += dt
        return traced

    def counter(self, name: str, fn):
        nid = self._name_id(name)
        calls = self._calls

        def traced(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)
        return traced

    # ── installing ────────────────────────────────────────────────

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every binding of each traced name in every loaded cliquex module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cliquex" or name.startswith("cliquex."))]
        graph_cls = sys.modules["cliquex.graphs"].Graph
        wrappers = {}  # id(original) -> wrapper
        for mod_name, names in SPANS.items():
            home = sys.modules[f"cliquex.{mod_name}"]
            for attr, name in names.items():
                original = getattr(home, attr)
                wrappers[id(original)] = self.span(name, original)
        mod_name, attr, name = GENERATOR
        original = getattr(sys.modules[f"cliquex.{mod_name}"], attr)
        wrappers[id(original)] = self.generator_span(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for kind, table in ((self.span, GRAPH_SPANS), (self.timed_counter, GRAPH_TIMED_COUNTERS),
                            (self.counter, GRAPH_COUNTERS)):
            for attr, name in table.items():
                self._patch(graph_cls, attr, kind(name, getattr(graph_cls, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ── output ────────────────────────────────────────────────────

    def write_spans(self, path) -> int:
        """Write one tab-separated line per span (index, name, start, end,
        parent index, run id), gzip-compressed; returns the span count."""
        rows = self.rows
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\trun\n")
            for i in range(0, len(rows), 6):
                index, nid, start, end, parent, run = rows[i:i + 6]
                out.write(f"{index:.0f}\t{self.names[int(nid)]}\t{start:.9f}\t{end:.9f}"
                          f"\t{parent:.0f}\t{run:.0f}\n")
        return len(rows) // 6
