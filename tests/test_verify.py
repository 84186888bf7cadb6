import json

from cliquex import (
    Graph,
    VerificationReport,
    count_s_cliques,
    decompose_connected,
    from_graph6,
    kernel,
    moment_sequence,
    verify_extremal_kernels,
    verify_lemma_suite,
    verify_max_cliques,
    verify_s_order_last,
)
from cliquex.enumeration import EnumerationTask, argmax_fold, connected_graphs
from cliquex.graphs import canonical_form, to_graph6
from cliquex.verify import _moment_gallery
from conftest import run_capped

SCHEMA_KEYS = {"n", "m", "s", "predicted", "observed", "status", "witnesses", "ties"}


def test_max_cliques_grid_matches():
    report = verify_max_cliques(6, {3, 4})
    assert report.theorem_id == "max-cliques"
    assert not report.mismatches
    cells = {(c["n"], c["m"], c["s"]): c for c in report.grid}
    assert cells[(5, 10, 3)]["observed"] == 10
    assert cells[(6, 5, 3)]["observed"] == 0  # tree band
    for cell in report.grid:
        assert SCHEMA_KEYS <= set(cell)


def test_clique_orders_above_n_read_zero():
    # counting to the largest order asked would allocate 8 GB per graph,
    # so it runs capped at 512 MB
    proc = run_capped("""
        from cliquex import verify_max_cliques
        report = verify_max_cliques(4, {3, 10**9})
        assert not report.mismatches
        assert len(report.grid) == 2 * 6  # each s at (3, 2..3) and (4, 3..6)
        assert all(c["observed"] == 0 for c in report.grid if c["s"] == 10**9)
    """)
    assert proc.returncode == 0, proc.stderr


def test_max_cliques_witnesses_reverify():
    report = verify_max_cliques(6, {3})
    for cell in report.grid:
        assert cell["witnesses"], cell
        for text in cell["witnesses"]:
            g = from_graph6(text)
            assert (g.n, g.m) == (cell["n"], cell["m"])
            assert count_s_cliques(g, cell["s"]) == cell["observed"]


def test_extremal_kernels_grid_matches():
    report = verify_extremal_kernels(6, {3, 4})
    assert not report.mismatches
    for cell in report.grid:
        n, m, s = cell["n"], cell["m"], cell["s"]
        from cliquex import choose

        assert m - n >= choose(s, 2) - s
        assert cell["observed"] == cell["predicted"]


def test_extremal_kernels_witnesses_have_valid_kernels():
    report = verify_extremal_kernels(6, {3})
    for cell in report.grid:
        r, t = decompose_connected(cell["m"], cell["n"])
        for text in cell["witnesses"]:
            core = kernel(from_graph6(text), cell["s"] - 2)
            assert core.n and min(core.degrees()) >= cell["s"] - 1
            assert core.m - core.n == cell["m"] - cell["n"]


def test_s_order_grid_matches():
    report = verify_s_order_last(6)
    assert not report.mismatches
    for cell in report.grid:
        assert cell["observed"] == 1
        assert len(cell["witnesses"]) == 1
    pairs = [c for c in report.grid if "b_pair" in c]
    assert pairs, "t = 2 cells wide enough for the bridge should exist"
    for cell in pairs:
        r, t = decompose_connected(cell["m"], cell["n"])
        assert t == 2 and r >= 3 and cell["n"] >= r + 2
        assert cell["b_pair"]["relation"] == "before"
        assert cell["b_pair"]["first_differing_index"] == 4


def test_s_order_skips_trees():
    report = verify_s_order_last(5)
    assert all(cell["m"] >= cell["n"] for cell in report.grid)


def test_s_order_witnesses_reverify():
    from cliquex import construct_extremal_star

    report = verify_s_order_last(6)
    for cell in report.grid:
        star_key = moment_sequence(construct_extremal_star(cell["m"], cell["n"]))
        for text in cell["witnesses"]:
            assert moment_sequence(from_graph6(text)) == star_key


def test_triangle_shortcut_matches_all_moments_fold():
    cells_checked = 0
    for n, cells in argmax_fold(range(4, 9), (3,)).items():
        # the reference: every class's full moment sequence, folded per size
        moments: dict = {}
        for g in connected_graphs(EnumerationTask(n)):
            key = moment_sequence(g)
            if g.m not in moments or key > moments[g.m][0]:
                moments[g.m] = (key, [g])
            elif key == moments[g.m][0]:
                moments[g.m][1].append(g)
        for m in range(n, n * (n - 1) // 2 + 1):
            best, attain = moments[m]
            gallery, broken = _moment_gallery(*cells[(m, 3)])
            assert not broken, (n, m)
            assert moment_sequence(gallery[0]) == best, (n, m)
            assert [to_graph6(g) for g in gallery] == [to_graph6(g) for g in attain], (n, m)
            cells_checked += 1
    assert cells_checked == sum(n * (n - 1) // 2 - n + 1 for n in range(4, 9))


def test_s_order_cell_breaking_the_triangle_identity_is_a_mismatch(monkeypatch):
    import cliquex.verify as verify

    fold = verify.argmax_fold

    def one_more_triangle(*args):  # so S_3 = 6 k_3 fails on every triangle maximizer
        return {n: {cell: (value + 1, graphs) for cell, (value, graphs) in cells.items()}
                for n, cells in fold(*args).items()}

    monkeypatch.setattr(verify, "argmax_fold", one_more_triangle)
    report = verify_s_order_last(5)
    assert report.grid and report.mismatches == report.grid
    cells = {(c["n"], c["m"]): c for c in report.grid}
    assert len(cells) == len(report.grid) == 3 + 6  # (4, 4..6) and (5, 5..10)
    for n in (4, 5):
        graphs = list(connected_graphs(EnumerationTask(n)))
        for m in range(n, n * (n - 1) // 2 + 1):
            sized = [g for g in graphs if g.m == m]
            top = max(count_s_cliques(g, 3) for g in sized)
            expected = sorted(to_graph6(g) for g in sized if count_s_cliques(g, 3) == top)
            assert cells[(n, m)]["witnesses"] == expected, (n, m)
    assert len(cells[(5, 5)]["witnesses"]) > cells[(5, 5)]["observed"] == 1


def test_s_order_cells_with_moment_ties_are_mismatches(monkeypatch):
    import cliquex.verify as verify

    full = verify.moment_sequence
    # S_0..S_3 alone leave several triangle maximizers tied in 7 of the 19 cells
    monkeypatch.setattr(verify, "moment_sequence", lambda g: full(g)[:4])
    report = verify_s_order_last(6)
    tied = [cell for cell in report.grid if cell["ties"]]
    assert (len(report.grid), len(tied)) == (19, 7)
    assert report.mismatches == tied
    for cell in tied:
        assert cell["ties"] == cell["witnesses"]
        assert cell["observed"] == len(cell["ties"]) > 1


def test_lemma_suite_all_pass():
    report = verify_lemma_suite(seed=7, iterations=200, n_max=6)
    assert not report.mismatches
    lemmas = {cell["lemma"] for cell in report.grid}
    assert {
        "excess-kernel-agreement",
        "noncut-low-degree-vertex",
        "binomial-rebalance",
        "clique-free-band",
        "fourth-moment-identity",
        "reorder-domination",
        "pendant-move-raises-s4",
        "pendant-star-maximizes-s4",
        "kernel-order-independence",
        "deletion-identity",
    } <= lemmas
    for cell in report.grid:
        assert cell["predicted"] > 0


def test_lemma_row_that_checked_nothing_is_a_mismatch():
    report = verify_lemma_suite(seed=0, iterations=0, n_max=4)
    empty = [cell for cell in report.grid if cell["predicted"] == 0]
    assert {cell["lemma"] for cell in empty} >= {"fourth-moment-identity", "deletion-identity"}
    assert all(cell["status"] == "mismatch" for cell in empty)
    assert all(cell["status"] == "match" for cell in report.grid if cell["predicted"] > 0)


def test_low_excess_band_has_real_exception():
    # the non-cutvertex lemma genuinely fails at r = 2: a plain 4-cycle
    # has 2-core C_4, every degree is 2 > r - 1 = 1, and C_4 is not K_3;
    # the suite therefore tests the r >= 3 domain only
    c4 = Graph.cycle(4)
    r, t = decompose_connected(4, 4)
    assert (r, t) == (2, 2)
    core = kernel(c4, 1)
    assert core.n == 4
    non_cut = [v for v in range(core.n) if v not in core.articulation_points()]
    assert non_cut and all(core.degree(v) > r - 1 for v in non_cut)


def test_noncut_check_needs_the_low_degree_vertex_to_be_no_cut():
    # two K5s joined through one middle vertex: the middle vertex is the
    # only one of degree <= r - 1 = 3, and deleting it splits the core
    from cliquex.verify import _noncut_vertex_holds

    g = Graph.complete(5)
    assert decompose_connected(g.m, g.n)[0] == 4 and _noncut_vertex_holds(4, kernel(g, 1))
    cliques = [(u, v) for base in (0, 6) for u in range(base, base + 5) for v in range(u + 1, base + 5)]
    core = Graph.from_edges(11, cliques + [(4, 5), (5, 6)])
    assert [u for u in range(core.n) if core.degree(u) <= 3] == [5] and 5 in core.articulation_points()
    assert _noncut_vertex_holds(4, core) is False


def test_reports_are_deterministic():
    a = verify_max_cliques(5, {3}).to_json(timing=False)
    b = verify_max_cliques(5, {3}).to_json(timing=False)
    assert a == b
    a = verify_s_order_last(5).to_json(timing=False)
    b = verify_s_order_last(5).to_json(timing=False)
    assert a == b
    a = verify_lemma_suite(seed=3, iterations=100, n_max=5).to_json(timing=False)
    b = verify_lemma_suite(seed=3, iterations=100, n_max=5).to_json(timing=False)
    assert a == b


def test_reports_invariant_under_worker_count():
    for run in (
        lambda workers: verify_max_cliques(6, {3}, workers=workers),
        lambda workers: verify_s_order_last(6, workers=workers),
        lambda workers: verify_extremal_kernels(6, {3, 4}, workers=workers),
        lambda workers: verify_lemma_suite(0, 200, 6, workers),
    ):
        serial = run(1).to_json(timing=False)
        assert run(2).to_json(timing=False) == serial
        assert run(3).to_json(timing=False) == serial


def test_each_harness_enumerates_each_order_once_per_slice(monkeypatch, pool_log):
    import cliquex.enumeration as enumeration

    # the per-task walk behind both the folds and connected_graphs
    original = enumeration._leaf_batches
    calls = []

    def counted(task):
        calls.append((task.n, task.m, task.roots))
        return original(task)

    monkeypatch.setattr(enumeration, "_leaf_batches", counted)
    for workers in (1, 2):
        for run, orders in (
            (lambda: verify_max_cliques(5, {3, 4}, workers), range(3, 6)),
            (lambda: verify_extremal_kernels(5, {3, 4}, workers), range(3, 6)),
            # the walk starts at the least clique order
            (lambda: verify_extremal_kernels(5, {4, 5}, workers), range(4, 6)),
            (lambda: verify_s_order_last(5, workers), range(4, 6)),
            # 1 + 1 + 2 + 6 root tasks, one per frontier root of orders 2..5
            (lambda: verify_lemma_suite(0, 20, 5, workers), range(2, 6)),
        ):
            calls.clear()
            pool_log.clear()
            assert not run().mismatches
            # each frontier root of each order once, on one pool only when workers > 1
            assert calls == [(n, None, (root,)) for n in orders
                             for root in enumeration._frontier(n, None)]
            assert len([entry for entry in pool_log if entry[0] == "pool"]) == (workers > 1)


def test_lemma_task_returns_tallies_and_small_order_families():
    """An order-8 root task checks every class of its subtree, at order 7
    as at order 8, each once and as it stands, and returns the order-7
    pendant-star families: the pendant-star suite stops at order 7."""
    from cliquex.enumeration import _frontier
    from cliquex.verify import _exhaustive_task, _noncut_vertex_holds

    root = next(r for r in _frontier(8, None) if to_graph6(r) == "EqHO")
    sevens, eights = (list(connected_graphs(EnumerationTask(n, None, (root,)))) for n in (7, 8))
    tallies, families = _exhaustive_task(EnumerationTask(8, None, (root,)))
    holds = [_noncut_vertex_holds(decompose_connected(g.m, g.n)[0], kernel(g, 1)) for g in sevens + eights]
    bands = [g for g in sevens + eights for s in (3, 4, 5) if g.m - g.n <= s * (s - 3) // 2 - 1]
    assert tallies == {"noncut-low-degree-vertex": [holds.count(True), len(holds) - holds.count(None), []],
                       "clique-free-band": [len(bands), len(bands), []]}
    assert sevens and eights and bands
    expected = {}
    for g in sevens:
        core = kernel(g, 1)
        if 0 < core.n <= 5 and core.n < 7:
            expected.setdefault((7, canonical_form(core)), []).append(canonical_form(g))
    assert expected
    assert {key: [canonical_form(g) for g in graphs] for key, (_, graphs) in families.items()} == expected
    for (_, code), (core, graphs) in families.items():
        assert canonical_form(core) == code and all(g.n == 7 for g in graphs)


def test_lemma_checks_run_on_the_folds_task_list(monkeypatch):
    """At n_max = 8 the lemma checks share the fold's tasks: one per
    frontier root of orders 2..6 and 8, 143 in all where a task list per
    order has 255. So each order-6 node is tested once, and the report is
    the one a task list per order gives, byte for byte."""
    import hashlib

    import cliquex.enumeration as enumeration

    walked, tested = [], []
    leaf_batches, accepted = enumeration._leaf_batches, enumeration._accepted
    monkeypatch.setattr(enumeration, "_leaf_batches",
                        lambda task: walked.append((task.n, task.roots)) or leaf_batches(task))
    monkeypatch.setattr(enumeration, "_accepted",
                        lambda parent, n, m: tested.append(parent) or accepted(parent, n, m))
    body = verify_lemma_suite(0, 200, 8).to_json(timing=False).encode()
    assert hashlib.sha256(body).hexdigest() == "a91bbdc33bacc2a1992daf82b4b2974293ec39308b35ee9cfc1323452d645fce"
    order_six = [canonical_form(g) for g in tested if g.n == 6]
    assert len(order_six) == len(set(order_six)) == 112
    assert walked == [(n, (root,)) for n in (2, 3, 4, 5, 6, 8) for root in enumeration._frontier(n, None)]
    assert len(walked) == 143


def test_report_json_shape():
    report = verify_max_cliques(4, {3})
    payload = json.loads(report.to_json())
    assert set(payload) == {"theorem_id", "grid", "seed", "elapsed_ms"}
    # a theorem harness draws nothing at random and records seed 0; the lemma suite records its own
    assert payload["seed"] == verify_s_order_last(4).seed == verify_extremal_kernels(4, {3}).seed == 0
    assert verify_lemma_suite(seed=9, iterations=10, n_max=4).seed == 9
    assert payload["theorem_id"] == "max-cliques"
    for cell in payload["grid"]:
        assert SCHEMA_KEYS <= set(cell)
        assert cell["status"] in ("match", "mismatch")
    rows = [(c["n"], c["m"], c["s"]) for c in payload["grid"]]
    assert rows == sorted(rows)
    # each report starts with its own empty grid
    fresh, other = VerificationReport("max-cliques"), VerificationReport("max-cliques")
    fresh.grid.append({})
    assert other.grid == [] and (other.seed, other.elapsed_ms) == (0, 0)


def test_reports_match_pinned_hashes():
    # sha256 of each report body; a change here changes report bytes
    import hashlib

    for report, digest in (
        (verify_max_cliques(6, {3, 4}),
         "5085517f834ca445de7260890294b420ffb536d05e3fee19a7fb1026f95d6312"),
        (verify_extremal_kernels(6, {3, 4}),
         "c169da7553028736d2ae2198ca6804b9e3a219296eaaf5f9f07d72f8af3857e8"),
        (verify_extremal_kernels(6, {4, 5}),
         "3199f19b248edcab3e2c6c685dc42cf2762903d5eaa55250ba87ead9fd2fb99c"),
        (verify_max_cliques(6, {4, 5}),
         "b2256848da403f9288f98db920f6bd7d66c8f71c3e856f1a138c5bf0f225c3c2"),
        (verify_s_order_last(6),
         "3b6dfcff5624f4c0021b3c4151e6e6c4a562ecae7c582dae01f5a2e10189ab96"),
        (verify_s_order_last(7),
         "93507b2f3e768d442f8910101b6d3aa02f4a1535eff2d5d0f72b783262b6ad57"),
        (verify_lemma_suite(0, 200, 6),
         "31e2d64547cee161abdbec0cddcdd8d4375b07346c9df9a369bb8a24f2d7257a"),
    ):
        body = report.to_json(timing=False).encode()
        assert hashlib.sha256(body).hexdigest() == digest, report.theorem_id


def test_excess_iteration_without_connected_subgraph_fails(monkeypatch):
    import random

    import cliquex.verify as verify

    monkeypatch.setattr(Graph, "induced_subgraph", lambda g, vertices: Graph(0, ()))
    assert list(verify._suite_excess_kernels(random.Random(0), 3)) == [(False, [])] * 3


def test_mismatched_lemma_row_keeps_every_witness(monkeypatch):
    import cliquex.verify as verify

    monkeypatch.setattr(verify, "s4_via_subgraphs", lambda g: -1)
    rows = {cell["lemma"]: cell for cell in verify_lemma_suite(0, 50, 4).grid}
    row = rows["fourth-moment-identity"]
    assert (row["status"], row["predicted"], row["observed"]) == ("mismatch", 50, 0)
    assert len(row["witnesses"]) == 50 > verify.WITNESS_CAP
    assert row["witnesses"] == sorted(row["witnesses"])
    assert rows["deletion-identity"]["status"] == "match"


def test_pendant_star_row_fails_when_s4_is_negated_or_flat(monkeypatch):
    import cliquex.verify as verify

    moments = verify.spectral_moments
    # negated, S_4 is minimized by the pendant star; flat, every graph of a
    # family ties, so only families of pendant stars alone still pass
    for fourth, observed, witnesses in ((lambda s4: -s4, 5, 16), (lambda s4: 0, 5, 48)):
        def changed(g, j_max, fourth=fourth):
            s = moments(g, j_max)
            return (*s[:4], fourth(s[4]), *s[5:])

        monkeypatch.setattr(verify, "spectral_moments", changed)
        rows = {cell["lemma"]: cell for cell in verify_lemma_suite(0, 50, 6).grid}
        row = rows["pendant-star-maximizes-s4"]
        assert (row["status"], row["predicted"], row["observed"]) == ("mismatch", 20, observed)
        assert len(row["witnesses"]) == witnesses


def test_pendant_star_families_merge_as_one_whole_order_pass(monkeypatch):
    # families travel back from the root tasks: each must hold every graph
    # with its 2-core once, in the yield order of one pass over the order
    import cliquex.verify as verify
    from cliquex.enumeration import EnumerationTask, connected_graphs

    expected = []
    for n in range(2, 8):
        families = {}
        for g in connected_graphs(EnumerationTask(n)):
            core = kernel(g, 1)
            if 0 < core.n <= 5 and core.n < n:
                families.setdefault(canonical_form(core), []).append(canonical_form(g))
        expected += [(n, code, families[code]) for code in sorted(families)]
    seen = []
    check = verify._star_maximizes_s4

    def logged(h, family, n):
        seen.append((n, canonical_form(h), [canonical_form(g) for g in family]))
        return check(h, family, n)

    monkeypatch.setattr(verify, "_star_maximizes_s4", logged)
    # order 7 comes from its own tasks at n_max = 7 and from the order-8 tasks at 8
    for n_max, workers in ((7, 1), (7, 2), (8, 2)):
        seen.clear()
        assert not verify_lemma_suite(0, 10, n_max, workers).mismatches
        assert seen == expected


def test_theorem_mismatches_keep_every_witness(monkeypatch):
    import cliquex.verify as verify

    bound = verify.max_cliques_bound
    monkeypatch.setattr(verify, "max_cliques_bound", lambda m, n, s: bound(m, n, s) + 1)
    report = verify_max_cliques(7, {3})
    assert report.grid and report.mismatches == report.grid
    trees = next(c for c in report.grid if (c["n"], c["m"]) == (7, 6))
    assert (trees["predicted"], trees["observed"]) == (1, 0)
    assert len(trees["witnesses"]) == 11 > verify.WITNESS_CAP  # every tree of order 7
    assert {from_graph6(text).m for text in trees["witnesses"]} == {6}

    expected = {(c["n"], c["m"], c["s"]): c for c in verify_extremal_kernels(6, {3, 4}).grid}
    monkeypatch.setattr(verify, "_allowed_kernel_codes", lambda n, r, t, s: set())
    report = verify_extremal_kernels(6, {3, 4})
    assert report.grid and report.mismatches == report.grid
    assert max(cell["predicted"] for cell in report.grid) > verify.WITNESS_CAP
    for cell in report.grid:
        assert cell["observed"] == 0
        assert len(cell["witnesses"]) == cell["predicted"]
        match = expected[(cell["n"], cell["m"], cell["s"])]
        assert match["predicted"] == cell["predicted"]
        assert match["witnesses"] == cell["witnesses"][: verify.WITNESS_CAP]


def test_s_order_compares_a_yielded_class_by_its_own_code(monkeypatch):
    import cliquex.verify as verify

    fold = verify.argmax_fold

    def reversed_fold(*args):  # every attaining graph with its vertex order reversed
        return {n: {cell: (value, [g.relabel(list(reversed(range(g.n)))) for g in graphs])
                    for cell, (value, graphs) in cells.items()}
                for n, cells in fold(*args).items()}

    monkeypatch.setattr(verify, "argmax_fold", reversed_fold)
    report = verify_s_order_last(6)
    assert (len(report.grid), len(report.mismatches)) == (19, 16)
