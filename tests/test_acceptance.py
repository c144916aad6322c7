"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime against the stated budget.

Criterion 12 is a long-running optional job, gated behind the
ODDMINORS_LONG environment variable; a timeout there counts as a skip.
"""

import itertools
import os
import time

import pytest

from oddminors import constructions as cons
from oddminors import graphs as gr
from oddminors.errors import SearchTimeout
from oddminors.expansion import OddExpansionModel, odd_cycle_model, verify_odd_expansion
from oddminors.oracle import SearchBudget, has_odd_clique_minor, odd_hadwiger


def _report(number, budget_s, t0, description):
    elapsed = time.monotonic() - t0
    line = f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s / budget {budget_s}s): {description}"
    print(line)
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _check(host, model, order):
    assert model.clique_order == order, (model.clique_order, order)
    verdict = verify_odd_expansion(host, model, strict=True)
    assert verdict.passed, verdict.summary()


def test_criterion_01_complete_box_family():
    t0 = time.monotonic()
    for s in range(2, 9):
        for t in range(2, 9):
            base = cons.cartesian_complete_model(s, t)
            host = gr.product("cartesian", gr.complete(s), gr.complete(t))
            _check(host, base.model, s + t - 2)
    _report(1, 1, t0, "complete box products, orders s+t-2 for 2<=s,t<=8")


def test_criterion_02_direct_k3_family():
    t0 = time.monotonic()
    for t in range(6, 13):
        model = cons.direct_k3_model(t)
        host = gr.product("direct", gr.complete(t), gr.complete(3))
        _check(host, model, t + 2)
    small = cons.direct_k3_model(6)
    substitution = gr.norm_edge(gr.flatten(4, 1, 3), gr.flatten(5, 0, 3))
    assert small.connectors[(5, 7)] == substitution
    for t in range(6, 101):
        assert cons.direct_k3_upper_bound(t) == t + 2
    _report(2, 1, t0, "direct K_t x K_3 orders t+2 (strict), t=6 reroute, ceiling t+2 to 100")


def test_criterion_03_connector_catalogue_transcription():
    t0 = time.monotonic()
    t = 7
    host = gr.product("direct", gr.complete(t), gr.complete(3))
    model = cons.direct_k3_model(t)
    fl = lambda row, col: gr.flatten(row - 1, col - 1, 3)
    assert len(cons._K3_PAIR_EDGES) == 28
    for (a, b), ((r1, c1), (r2, c2)) in cons._K3_PAIR_EDGES.items():
        u, v = fl(r1, c1), fl(r2, c2)
        assert host.has_edge(u, v), f"catalogue edge for pair ({a},{b}) is not a host edge"
        assert model.coloring[u] == model.coloring[v], \
            f"catalogue edge for pair ({a},{b}) is not monochromatic"
        assert model.connectors[(a - 1, b - 1)] == gr.norm_edge(u, v)
    _report(3, 1, t0, "connector catalogue at t=7: all 28 edges present and monochromatic")


def test_criterion_04_direct_general_family():
    t0 = time.monotonic()
    for t in range(4, 9):
        for s in (3, 6, 7, 9):
            model = cons.direct_general_model(t, s)
            host = gr.product("direct", gr.complete(t), gr.complete(s))
            _check(host, model, t * (s // 3))
    special = cons.direct_general_model(6, 6)
    assert special.clique_order == 12
    _report(4, 5, t0, "direct K_t x K_s orders t*floor(s/3), incl. the (6,6) order-12 model")


@pytest.fixture(scope="module")
def cycle_k3_models():
    m5 = has_odd_clique_minor(gr.cycle(5), 3)
    m7 = has_odd_clique_minor(gr.cycle(7), 3)
    assert m5 is not None and m7 is not None
    return m5, m7


def test_criterion_05_strong_and_lexicographic(cycle_k3_models):
    t0 = time.monotonic()
    m5, m7 = cycle_k3_models
    c5, c7 = gr.cycle(5), gr.cycle(7)
    strong = cons.strong_model(c5, m5, c7, m7)
    _check(gr.product("strong", c5, c7), strong, 9)
    lex = cons.strong_model(c5, m5, c7, m7, kind="lexicographic")
    _check(gr.product("lexicographic", c5, c7), lex, 9)
    _report(5, 5, t0, "order-9 models on C_5 * C_7 for strong and lexicographic products")


def test_criterion_06_cartesian_lift_end_to_end(cycle_k3_models):
    t0 = time.monotonic()
    m5, m7 = cycle_k3_models
    c5, c7 = gr.cycle(5), gr.cycle(7)
    lifted = cons.cartesian_lift(c5, m5, c7, m7,
                                 base=cons.cartesian_complete_model(3, 3))
    _check(gr.product("cartesian", c5, c7), lifted, 4)
    _report(6, 5, t0, "order-4 lift onto C_5 box C_7 through the (3,3) base")


def test_criterion_07_star_family():
    t0 = time.monotonic()
    for r in range(1, 6):
        for t in range(1, 6):
            model = cons.star_model(r, t)
            host = gr.product("strong", gr.star(r), gr.star(t))
            expected = r + 1 if r == t else min(r, t) + 2
            _check(host, model, expected)
    _report(7, 1, t0, "star products, r+1 on the diagonal and min+2 elsewhere")


def test_criterion_08_hamming_family():
    t0 = time.monotonic()
    for n, d in [(3, 2), (3, 3), (4, 2), (2, 4)]:
        model = cons.hamming_model(n, d)
        _check(gr.hamming(n, d), model, d * (n - 2) + 2)
    assert cons.hamming_model(2, 4).clique_order == 2
    assert gr.is_bipartite(gr.hamming(2, 4)) is not None
    _report(8, 10, t0, "Hamming powers, orders d(n-2)+2; the (2,4) hypercube stays at 2")


BIPARTITE_INSTANCES = [
    gr.path(2),
    gr.path(5),
    gr.cycle(4),
    gr.cycle(8),
    gr.star(5),
    gr.graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),  # K_{2,3}
    gr.graph_from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]),   # K_{3,3}
    gr.product("cartesian", gr.path(2), gr.path(3)),                            # 2x3 grid
    gr.hamming(2, 3),                                                           # cube
    gr.graph_from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),  # binary tree
]


def test_criterion_09_oracle_ground_truth():
    t0 = time.monotonic()
    for n in range(1, 7):
        result = odd_hadwiger(gr.complete(n))
        assert result.status == "exact" and result.value == n
    assert len(BIPARTITE_INSTANCES) == 10
    for g in BIPARTITE_INSTANCES:
        assert g.m >= 1 and len(gr.components(g)) == 1
        result = odd_hadwiger(g)
        assert result.status == "exact" and result.value == 2, g
    for k in range(1, 5):
        result = odd_hadwiger(gr.cycle(2 * k + 1))
        assert result.status == "exact" and result.value == 3
    assert has_odd_clique_minor(gr.cycle(4), 3) is None
    _report(9, 60, t0, "exact values: cliques, ten bipartite instances, odd cycles, C_4 refutation")


def _small_construction_hosts():
    """Every construction host with at most 16 vertices from criteria 1-8."""
    out = []
    for s in range(2, 9):
        for t in range(2, 9):
            if s * t <= 16:
                host = gr.product("cartesian", gr.complete(s), gr.complete(t))
                out.append((f"K{s} box K{t}", host, s + t - 2))
    for t in range(4, 9):
        for s in (3, 6, 7, 9):
            if t * s <= 16:
                host = gr.product("direct", gr.complete(t), gr.complete(s))
                out.append((f"K{t} x K{s}", host, t * (s // 3)))
    for r in range(1, 6):
        for t in range(1, 6):
            if (r + 1) * (t + 1) <= 16:
                host = gr.product("strong", gr.star(r), gr.star(t))
                order = r + 1 if r == t else min(r, t) + 2
                out.append((f"S{r} strong S{t}", host, order))
    for n, d in [(3, 2), (4, 2), (2, 4)]:
        if n ** d <= 16:
            out.append((f"H({n},{d})", gr.hamming(n, d), d * (n - 2) + 2))
    return out


def test_criterion_10_oracle_cross_validation():
    t0 = time.monotonic()
    hosts = _small_construction_hosts()
    assert hosts
    budget = SearchBudget(time_limit=115.0)
    for name, host, order in hosts:
        found = has_odd_clique_minor(host, order, budget)
        assert found is not None, f"{name}: no order-{order} model found"
        assert verify_odd_expansion(host, found, strict=True).passed
    _report(10, 120, t0, f"search confirms every small construction host ({len(hosts)} instances)")


def _mutations():
    """Golden certificates and 50+ single-field mutations with the clause
    each one must trigger."""
    goldens = [
        (gr.product("cartesian", gr.complete(3), gr.complete(4)),
         cons.cartesian_complete_model(3, 4).model),
        (gr.product("direct", gr.complete(7), gr.complete(3)),
         cons.direct_k3_model(7)),
        (gr.product("strong", gr.star(2), gr.star(3)), cons.star_model(2, 3)),
        (gr.hamming(3, 2), cons.hamming_model(3, 2)),
        (gr.cycle(5), odd_cycle_model(gr.cycle(5))),
    ]
    cases = []
    for host, model in goldens:
        assert verify_odd_expansion(host, model, strict=True).passed
        has_tree_edge = {v for t in model.trees for e in t.edges for v in e}
        # color flips: properness when the vertex carries a tree edge,
        # otherwise the stored connector for that pair goes bichromatic
        for v in sorted(model.coloring):
            coloring = dict(model.coloring)
            coloring[v] = 3 - coloring[v]
            mutated = OddExpansionModel(model.trees, coloring, model.connectors)
            expected = "properness" if v in has_tree_edge else "connector_invalid"
            cases.append((host, mutated, expected))
        # tree-edge drops
        for i, tree in enumerate(model.trees):
            if not tree.edges:
                continue
            dropped = tree.sorted_edges[0]
            trees = list(model.trees)
            trees[i] = type(tree)(tree.vertices, tree.edges - {dropped})
            mutated = OddExpansionModel(tuple(trees), dict(model.coloring),
                                        model.connectors)
            cases.append((host, mutated, "tree_shape"))
        # connector endpoint swaps: point one endpoint at a third tree
        for (i, j) in sorted(model.connectors)[:6]:
            u, v = model.connectors[(i, j)]
            k = next(k for k in range(model.clique_order) if k not in (i, j))
            stranger = model.trees[k].sorted_vertices[0]
            if stranger in (u, v):
                continue
            connectors = dict(model.connectors)
            connectors[(i, j)] = (u if u in model.trees[i].vertices else v, stranger)
            mutated = OddExpansionModel(model.trees, dict(model.coloring), connectors)
            cases.append((host, mutated, "connector_invalid"))
    return cases


def test_criterion_11_mutation_suite():
    t0 = time.monotonic()
    cases = _mutations()
    assert len(cases) >= 50
    for host, mutated, expected_clause in cases[:max(50, len(cases))]:
        verdict = verify_odd_expansion(host, mutated, strict=True)
        assert not verdict.passed
        assert verdict.clause == expected_clause, \
            f"expected {expected_clause}, got {verdict.summary()}"
    _report(11, 5, t0, f"{len(cases)} mutations all rejected with the predicted clause")


@pytest.mark.skipif(not os.environ.get("ODDMINORS_LONG"),
                    reason="long-running refutation; set ODDMINORS_LONG=1 to run "
                           "(about a minute; ODDMINORS_LONG_TIME overrides the limit)")
def test_criterion_12_direct_k3_ceiling_refutation():
    t0 = time.monotonic()
    host = gr.product("direct", gr.complete(6), gr.complete(3))
    limit = float(os.environ.get("ODDMINORS_LONG_TIME", "3600"))
    budget = SearchBudget(max_vertices=18, time_limit=limit, node_limit=10 ** 12)
    model = cons.direct_k3_model(6)
    assert verify_odd_expansion(host, model, strict=True).passed  # order 8 exists
    try:
        found = has_odd_clique_minor(host, 9, budget)
    except SearchTimeout as exc:
        pytest.skip(f"budget exhausted after {exc.nodes} nodes; counted as skip")
    assert found is None, "an order-9 model would contradict the ceiling"
    print(f"ACCEPTANCE 12 PASS ({time.monotonic() - t0:.1f}s): "
          f"order 9 exhaustively refuted on K_6 x K_3, value is exactly 8")
