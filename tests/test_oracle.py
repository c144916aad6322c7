import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddminors import constructions as cons
from oddminors import graphs as gr
from oddminors import oracle
from oddminors.errors import ParameterError, SearchTimeout
from oddminors.expansion import serialize_model, verify_odd_expansion
from oddminors.oracle import (ExactResult, SearchBudget, _Search, has_odd_clique_minor,
                              odd_hadwiger)


def brute_connected_subsets(g, anchor, allowed_mask, max_size):
    """All connected subsets by raw enumeration, for cross-checking."""
    allowed = [v for v in range(g.n) if allowed_mask >> v & 1]
    out = set()
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(allowed, k):
            if anchor not in combo:
                continue
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if w in combo and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == k:
                out.add(sum(1 << v for v in combo))
    return out


@pytest.mark.parametrize("g", [gr.cycle(6), gr.complete(5), gr.star(4),
                               gr.product("direct", gr.complete(3), gr.complete(3))])
def test_connected_subset_enumeration_matches_brute_force(g):
    search = _Search(g, SearchBudget())
    for anchor in (0, 1):
        allowed = (1 << g.n) - 1 - 0b10 if anchor == 0 else (1 << g.n) - 2
        if not allowed >> anchor & 1:
            allowed |= 1 << anchor
        got = list(search._connected_subsets(anchor, allowed, 4))
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == brute_connected_subsets(g, anchor, allowed, 4)


def recursive_connected_subsets(adj, anchor, allowed, max_size):
    """`_Search._connected_subsets` written as a recursive generator: the
    reference for the order of the flat one's output."""
    def rec(cur, ext, forb, size):
        yield cur
        if size >= max_size:
            return
        cand = ext & ~forb
        local_forb = forb
        while cand:
            vb = cand & -cand
            cand ^= vb
            local_forb |= vb
            new_cur = cur | vb
            new_ext = (ext | (adj[vb.bit_length() - 1] & allowed)) & ~new_cur
            yield from rec(new_cur, new_ext, local_forb, size + 1)

    start = 1 << anchor
    yield from rec(start, adj[anchor] & allowed & ~start, 0, 1)


SUBSET_HOSTS = {
    "k4-direct-k4": gr.product("direct", gr.complete(4), gr.complete(4)),
    "c5-strong-c3": gr.product("strong", gr.cycle(5), gr.cycle(3)),
    "petersen": gr.Graph(10, nx.petersen_graph().edges()),
    "c7": gr.cycle(7),
    "s5": gr.star(5),
}


@pytest.mark.parametrize("g", SUBSET_HOSTS.values(), ids=SUBSET_HOSTS)
def test_connected_subsets_come_in_the_recursive_order(g):
    # The order decides which model is found first, so the certificate
    # bytes; the test above compares sets only.
    search = _Search(g, SearchBudget())
    rng = random.Random(g.n)
    for anchor in range(g.n):
        for _ in range(4):
            allowed = rng.getrandbits(g.n) | 1 << anchor
            for max_size in (0, 1, 2, 4, 6):
                expected = list(recursive_connected_subsets(search.adj, anchor, allowed, max_size))
                assert list(search._connected_subsets(anchor, allowed, max_size)) == expected


@pytest.mark.parametrize("g", SUBSET_HOSTS.values(), ids=SUBSET_HOSTS)
def test_budgeted_subsets_are_the_unbudgeted_ones_filtered(g):
    # `_place` passes one budget per placed tree; filtering the whole
    # sequence keeps the order, so the orbits and the first model too
    search = _Search(g, SearchBudget())
    rng = random.Random(g.n)
    for anchor in range(g.n):
        for _ in range(4):
            allowed = rng.getrandbits(g.n) | 1 << anchor
            budgets = [(rng.getrandbits(g.n), rng.randint(-1, 4))
                       for _ in range(rng.randint(1, 4))]
            for max_size in (1, 2, 4, 6):
                expected = [s for s in search._connected_subsets(anchor, allowed, max_size)
                            if all((s & mask).bit_count() <= limit for mask, limit in budgets)]
                got = list(search._connected_subsets(anchor, allowed, max_size, budgets))
                assert got == expected, (anchor, allowed, budgets, max_size)


def brute_tree_proper_colorings(g, verts):
    """Colorings proper on at least one spanning tree, by enumerating all
    spanning trees explicitly."""
    verts = sorted(verts)
    internal = [e for e in g.edges if e[0] in verts and e[1] in verts]
    k = len(verts)
    spanning = []
    for combo in itertools.combinations(internal, k - 1):
        seen = {verts[0]}
        changed = True
        while changed:
            changed = False
            for u, v in combo:
                if (u in seen) != (v in seen):
                    seen |= {u, v}
                    changed = True
        if len(seen) == k:
            spanning.append(combo)
    ok = set()
    for bits in range(1 << k):
        coloring = {v: 1 if bits >> i & 1 else 2 for i, v in enumerate(verts)}
        for tree in spanning:
            if all(coloring[u] != coloring[v] for u, v in tree):
                ok.add(frozenset(v for v in verts if coloring[v] == 1))
                break
    return ok


@pytest.mark.parametrize("g,verts", [
    (gr.cycle(5), [0, 1, 2]),
    (gr.complete(4), [0, 1, 2, 3]),
    (gr.cycle(6), [0, 1, 2, 3]),
    (gr.product("cartesian", gr.complete(2), gr.complete(3)), [0, 1, 2, 3, 4, 5]),
    (gr.star(3), [0, 1, 2, 3]),
])
def test_admissible_colorings_match_spanning_tree_enumeration(g, verts):
    # The search treats a coloring as usable iff its bichromatic edges span
    # the subset connectedly; that must coincide with properness on some
    # explicitly enumerated spanning tree.
    search = _Search(g, SearchBudget())
    mask = sum(1 << v for v in verts)
    dom = search._admissible_colorings(mask)
    got = {frozenset(v for v in verts if c[0] >> v & 1) for c in dom}
    assert got == brute_tree_proper_colorings(g, verts)
    # in pick order, pick p's swap is pick 2^k - 1 - p: the tuple reads the
    # same from either end with the colors swapped
    assert all(a == (b[2], b[3], b[0], b[1]) for a, b in zip(dom, reversed(dom)))


def test_has_odd_clique_minor_examples():
    k4 = gr.complete(4)
    model = has_odd_clique_minor(k4, 4)
    assert model is not None and model.clique_order == 4
    assert verify_odd_expansion(k4, model, strict=True).passed

    c5 = gr.cycle(5)
    model = has_odd_clique_minor(c5, 3)
    assert model is not None
    assert verify_odd_expansion(c5, model, strict=True).passed

    assert has_odd_clique_minor(gr.cycle(4), 3) is None


def test_has_odd_clique_minor_order_one_and_beyond_n():
    g = gr.path(2)
    assert has_odd_clique_minor(g, 1) is not None
    assert has_odd_clique_minor(g, 3) is None
    with pytest.raises(ParameterError):
        has_odd_clique_minor(g, 0)


def test_budget_cap_and_timeout():
    big = gr.product("cartesian", gr.complete(5), gr.complete(5))
    with pytest.raises(ParameterError):
        has_odd_clique_minor(big, 3)
    host = gr.product("cartesian", gr.complete(4), gr.complete(4))
    with pytest.raises(SearchTimeout):
        has_odd_clique_minor(host, 7, SearchBudget(node_limit=50))


@pytest.mark.parametrize("n", range(1, 7))
def test_odd_hadwiger_complete(n):
    result = odd_hadwiger(gr.complete(n))
    assert result.status == "exact" and result.value == n
    assert verify_odd_expansion(gr.complete(n), result.certificate).passed
    assert result.certificate.clique_order == result.value


def test_odd_hadwiger_fast_paths():
    r = odd_hadwiger(gr.Graph(3, frozenset()))
    assert r.status == "exact" and r.value == 1 and r.refutation_order is None
    r = odd_hadwiger(gr.cycle(6))
    assert r.status == "exact" and r.value == 2 and r.refutation_order is None
    r = odd_hadwiger(gr.star(5))
    assert r.value == 2
    with pytest.raises(ParameterError):
        odd_hadwiger(gr.Graph(0, frozenset()))


def test_odd_hadwiger_odd_cycles():
    # every odd cycle up to the default size cap sits exactly at 3
    for k in range(1, 8):
        r = odd_hadwiger(gr.cycle(2 * k + 1))
        assert r.status == "exact" and r.value == 3
        if 2 * k + 1 > 3:
            assert r.refutation_order == 4
        assert verify_odd_expansion(gr.cycle(2 * k + 1), r.certificate).passed


def test_odd_hadwiger_above_cap_gives_lower_bound():
    big = gr.product("strong", gr.cycle(5), gr.cycle(5))
    r = odd_hadwiger(big)
    assert r.status == "lower_bound_only" and r.value == 3
    assert verify_odd_expansion(big, r.certificate).passed
    # bipartite stays exact at any size
    huge = gr.product("cartesian", gr.cycle(6), gr.cycle(8))
    r = odd_hadwiger(huge)
    assert r.status == "exact" and r.value == 2


def test_odd_hadwiger_timeout_keeps_best():
    host = gr.product("cartesian", gr.complete(4), gr.complete(4))
    r = odd_hadwiger(host, SearchBudget(node_limit=10))
    assert r.status == "timeout" and r.value >= 3
    assert verify_odd_expansion(host, r.certificate).passed


@pytest.mark.parametrize("limit", [20, 3000])
def test_odd_hadwiger_timeout_keeps_its_node_count(limit):
    # C5 x C3's stabilizer chain takes 916 nodes: 20 runs out inside it,
    # 3000 inside a deepening round
    host = gr.product("strong", gr.cycle(5), gr.cycle(3))
    r = odd_hadwiger(host, SearchBudget(node_limit=limit))
    assert (r.status, r.nodes) == ("timeout", limit + 1)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return gr.Graph(n, edges)


def test_anti_monotonicity_on_seeded_instances():
    for seed in range(6):
        g = random_graph(7, 0.55, seed)
        value = odd_hadwiger(g).value
        rng = random.Random(100 + seed)
        sub_edges = [e for e in g.edges if rng.random() < 0.7]
        sub = gr.Graph(g.n, sub_edges)
        assert odd_hadwiger(sub).value <= value


def test_search_value_is_repeatable_and_certificate_canonical():
    host = gr.product("direct", gr.complete(4), gr.complete(3))
    a = has_odd_clique_minor(host, 4)
    b = has_odd_clique_minor(host, 4)
    assert a == b  # canonical first-in-order certificate


def test_constructions_cross_validate_on_tiny_hosts():
    cases = [
        (gr.product("cartesian", gr.complete(3), gr.complete(3)),
         cons.cartesian_complete_model(3, 3).model),
        (gr.product("strong", gr.star(2), gr.star(2)), cons.star_model(2, 2)),
        (gr.product("direct", gr.complete(4), gr.complete(3)),
         cons.direct_general_model(4, 3)),
    ]
    for host, model in cases:
        found = has_odd_clique_minor(host, model.clique_order)
        assert found is not None
        assert verify_odd_expansion(host, found, strict=True).passed


def brute_odd_hadwiger(n, edges):
    """The odd clique minor number by the definition alone: the most disjoint
    vertex sets, under some 2-coloring, each connected by its own
    bichromatic edges (so a proper spanning tree exists), with a
    monochromatic edge between every two."""
    best = 0
    for colors in itertools.product((1, 2), repeat=n):
        bichromatic = [(u, v) for u, v in edges if colors[u] != colors[v]]
        mono = {frozenset(e) for e in edges if colors[e[0]] == colors[e[1]]}

        def connected(block):
            seen, stack = {min(block)}, [min(block)]
            while stack:
                u = stack.pop()
                for a, b in bichromatic:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y in block and y not in seen:
                            seen.add(y)
                            stack.append(y)
            return seen == block

        blocks = [set(c) for k in range(1, n + 1)
                  for c in itertools.combinations(range(n), k) if connected(set(c))]

        def grow(chosen, start):
            nonlocal best
            best = max(best, len(chosen))
            for k in range(start, len(blocks)):
                b = blocks[k]
                if all(not b & c and any(frozenset((u, v)) in mono for u in b for v in c)
                       for c in chosen):
                    grow(chosen + [b], k + 1)

        grow([], 0)
    return best


ATLAS = nx.graph_atlas_g()


def check_against_brute_force(atlas):
    g = gr.Graph(len(atlas), atlas.edges)
    if g.n == 0:
        with pytest.raises(ParameterError):
            odd_hadwiger(g)
        return
    result = odd_hadwiger(g)
    assert result.status == "exact"
    assert result.value == brute_odd_hadwiger(g.n, sorted(g.edges))
    assert verify_odd_expansion(g, result.certificate).passed


# Every graph of at most five vertices in the networkx atlas: 53 graphs, the
# empty one included.
@pytest.mark.parametrize("index", [k for k, a in enumerate(ATLAS) if len(a) <= 5])
def test_odd_hadwiger_matches_brute_force_on_graph_atlas(index):
    check_against_brute_force(ATLAS[index])


@pytest.mark.skipif(not os.environ.get("ODDMINORS_LONG"),
                    reason="156 graphs, about 20 s; set ODDMINORS_LONG=1 to run")
def test_odd_hadwiger_matches_brute_force_on_six_vertex_atlas():
    for atlas in ATLAS:
        if len(atlas) == 6:
            check_against_brute_force(atlas)


def test_k4_box_k4_has_value_seven_under_the_default_budget():
    host = gr.product("cartesian", gr.complete(4), gr.complete(4))
    result = odd_hadwiger(host)
    assert (result.status, result.value, result.refutation_order) == ("exact", 7, 8)
    assert verify_odd_expansion(host, result.certificate, strict=True).passed


# ----------------------------------------------------------------------
# orbit pruning

# no automorphism but the identity
RIGID = gr.Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])


def networkx_automorphism_count(g):
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


LONG = pytest.mark.skipif(not os.environ.get("ODDMINORS_LONG"),
                          reason="networkx counts 77760 automorphisms in about 35 s; "
                                 "set ODDMINORS_LONG=1 to run")

# (host, |Aut| as networkx's GraphMatcher(g, g) counts it).  The counts are
# rerun below, C5 x C3's under ODDMINORS_LONG only; K4 x K4's 1152 was
# counted once (1.5 s) and is not rerun.
CHAIN_HOSTS = [
    pytest.param(lambda: gr.product("strong", gr.cycle(5), gr.cycle(3)), 77760,
                 marks=LONG, id="c5-strong-c3"),
    pytest.param(lambda: gr.product("direct", gr.complete(4), gr.complete(3)), 144,
                 id="k4-direct-k3"),
    pytest.param(lambda: gr.product("strong", gr.path(4), gr.cycle(3)), 2592,
                 id="p4-strong-c3"),
    pytest.param(lambda: gr.Graph(10, nx.petersen_graph().edges()), 120,
                 id="petersen"),
    pytest.param(lambda: RIGID, 1, id="rigid"),
]


@pytest.mark.parametrize("build, order", CHAIN_HOSTS)
def test_automorphism_counts_match_networkx(build, order):
    assert networkx_automorphism_count(build()) == order


@pytest.mark.parametrize("build, order", [
    *[pytest.param(*case.values, id=case.id) for case in CHAIN_HOSTS],
    pytest.param(lambda: gr.product("direct", gr.complete(4), gr.complete(4)), 1152,
                 id="k4-direct-k4"),
])
def test_stabilizer_chain_generates_the_automorphism_group(build, order):
    # Every generator at level k is an automorphism fixing 0..k-1, so each
    # level's orbit is at most the true one; the product of the orbit sizes
    # equalling |Aut| then makes every level exact.
    g = build()
    chain = _Search(g, SearchBudget())
    for k, level in enumerate(chain.levels):
        for perm in level:
            assert sorted(perm) == list(range(g.n))
            assert perm[:k] == tuple(range(k)) and perm[k] != k
            assert {gr.norm_edge(perm[u], perm[v]) for u, v in g.edges} == g.edges
    assert math.prod(chain.orbit_sizes) == order
    assert len(chain.groups) == g.n + 1 and chain.groups[g.n] == ()


# a random cubic graph on 20 vertices with no automorphism but the identity
CUBIC_20 = gr.Graph(20, [
    (0, 2), (0, 5), (0, 18), (1, 4), (1, 14), (1, 16), (2, 5), (2, 7), (3, 9), (3, 11),
    (3, 18), (4, 8), (4, 14), (5, 17), (6, 7), (6, 13), (6, 19), (7, 16), (8, 10), (8, 16),
    (9, 15), (9, 17), (10, 12), (10, 19), (11, 14), (11, 15), (12, 13), (12, 19), (13, 18),
    (15, 17)])


def test_stabilizer_chain_is_cheap_on_a_rigid_cubic_graph():
    # Mapping the vertices in index order instead of most-mapped-neighbours
    # first took 111k ticks here to show that no automorphism exists.
    chain = _Search(CUBIC_20, SearchBudget(max_vertices=20))
    assert chain.orbit_sizes == [1] * 20 and chain.nodes < 2000


def test_stabilizer_chain_ticks_the_shared_budget():
    host = gr.product("strong", gr.cycle(5), gr.cycle(3))
    with pytest.raises(SearchTimeout):
        _Search(host, SearchBudget(node_limit=20))


# ----------------------------------------------------------------------
# tree-count rule and complement halving

@st.composite
def graphs_and_subsets(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return gr.Graph(n, frozenset(edges)), draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=200, deadline=None)
@given(graphs_and_subsets())
def test_has_clique_matches_networkx(case):
    g, cand = case
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    _, omega = nx.max_weight_clique(h.subgraph(v for v in range(g.n) if cand >> v & 1),
                                    weight=None)
    search = _Search(g, SearchBudget())
    for q in range(g.n + 2):
        assert search._has_clique(cand, q) == (q <= omega), q


# odd_hadwiger's nodes on the exact hosts below, stabilizer chain included;
# before the tree-count rule K4 x K3 took 14,663, before the size bound
# from `allowed` 8,969 and before the placed-tree budgets 6,212
NODE_CEILINGS = {"c5-strong-c3": 5259, "k4-direct-k3": 3811, "c7-strong-k2": 5107,
                 "k3-cartesian-k4": 1396, "p4-strong-c3": 1225}


def test_tree_count_rule_keeps_node_counts_at_or_below_their_ceilings():
    for name, build, _, _ in PINNED_EXACT:
        assert odd_hadwiger(build()).nodes <= NODE_CEILINGS[name], name
    # the order-7 K4 x K4 witness: 37,811 nodes before the tree-count rule,
    # 26,858 before the size bound and 21,446 before the budgets
    host = gr.product("direct", gr.complete(4), gr.complete(4))
    search = _Search(host, SearchBudget(max_vertices=host.n))
    assert search.run(7) is not None
    assert search.nodes <= 13028


colorings = st.tuples(*[st.integers(0, 63)] * 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(colorings, min_size=1, max_size=4).map(tuple), max_size=4),
       st.lists(colorings, max_size=6).map(tuple))
def test_union_filters_match_the_pairwise_forms(domains, new_dom):
    compatible = _Search._compatible
    kept_new = tuple(c for c in new_dom
                     if all(any(compatible(ci, c) for ci in d) for d in domains))
    assert _Search._filter_new(_Search._unions(domains), new_dom) == kept_new
    kept_old = [tuple(ci for ci in d if any(compatible(ci, c) for c in new_dom))
                for d in domains]
    assert _Search._filter_old(domains, new_dom) == kept_old


@st.composite
def graphs_and_domains(draw):
    """A random graph on up to 9 vertices, its search, its connected subsets,
    and a few domains, as `_place` holds them: each a non-empty selection
    of the usable colorings of a subset disjoint from the others."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    search = _Search(gr.Graph(n, frozenset(edges)), SearchBudget())
    # every connected subset once, anchored at its least vertex
    subsets = [s for anchor in range(n)
               for s in search._connected_subsets(anchor, search.full >> anchor << anchor, n)]
    domains = []
    used = 0
    for _ in range(draw(st.integers(1, 4))):
        free = [s for s in subsets if not s & used]
        if not free:
            break
        mask = draw(st.sampled_from(free))
        used |= mask
        dom = search._admissible_colorings(mask)
        picks = draw(st.sets(st.integers(0, len(dom) - 1), min_size=1))
        domains.append(tuple(dom[i] for i in sorted(picks)))
    return search, subsets, domains


@settings(max_examples=200, deadline=None)
@given(graphs_and_domains())
def test_no_domain_runs_empty(case):
    # why `_place` need not test the domains of generated subsets or the
    # placed domains after `_filter_old` for emptiness
    search, subsets, domains = case
    assert all(search._admissible_colorings(mask) for mask in subsets)
    *placed, new_dom = domains
    kept = _Search._filter_new(_Search._unions(placed), new_dom)
    if kept:
        assert all(_Search._filter_old(placed, kept))


def test_importing_the_oracle_leaves_the_constructions_unloaded():
    # a witness decision imports the oracle alone, and runs without
    # bytecode; the constructions module was its largest import
    src = str(Path(oracle.__file__).resolve().parents[1])
    probe = "import sys, oddminors.oracle; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "oddminors.oracle" in proc.stdout
    assert "oddminors.constructions" not in proc.stdout


# SHA-256 of serialize_model(certificate, host.content_hash()) for the exact
# values and witnesses of the benchmark's search hosts, recorded before orbit
# pruning (the last three before the tree-count rule): pruning skips subsets
# that hold no model, never the first model.
PINNED_EXACT = [
    ("c5-strong-c3", lambda: gr.product("strong", gr.cycle(5), gr.cycle(3)), 9,
     "1ecd91e69ab3acd4c3cee6d1b6da8957fa624ca68c7ccd9b8713237ffa430851"),
    ("k4-direct-k3", lambda: gr.product("direct", gr.complete(4), gr.complete(3)), 6,
     "0d14de6f87de13fa530b691388fe9dc9903a10613575314e4fb2e9ca85214779"),
    ("c7-strong-k2", lambda: gr.product("strong", gr.cycle(7), gr.complete(2)), 6,
     "2d4e9b43d6998659ff74114b4378a2f3a797c13a0f6a2e989216dca55f4cbc95"),
    ("k3-cartesian-k4", lambda: gr.product("cartesian", gr.complete(3), gr.complete(4)), 6,
     "482b2610ec44e702da0baebafc44d8897d8f22af1c5d80382c067370b6422063"),
    ("p4-strong-c3", lambda: gr.product("strong", gr.path(4), gr.cycle(3)), 6,
     "6c4129d02bdc34d6136dd43fc3041f714adb8501f820e5616dada166efeecd17"),
]
PINNED_WITNESSES = [
    ("k4-direct-k4", lambda: gr.product("direct", gr.complete(4), gr.complete(4)), 7,
     "608fb282afb720b4c8ebc7005da1595cc4e8791e5dd93ef54aab42f35a11817c"),
    ("k5-direct-k3", lambda: gr.product("direct", gr.complete(5), gr.complete(3)), 7,
     "58d347c9a4f0b498811b755d7cae5dac0bdb6b8efba46bc3027418844793b099"),
    ("c5-cartesian-c3", lambda: gr.product("cartesian", gr.cycle(5), gr.cycle(3)), 5,
     "d7eff7c6c7e3ac9289f6a535c9fc6231136b1ba35b80a9b33a925d0884a1f3fd"),
    ("k4-cartesian-k4", lambda: gr.product("cartesian", gr.complete(4), gr.complete(4)), 7,
     "e411a675a3789d485db12dcabf00aea79cbc1a18416f32358eeb195d7510a035"),
    ("k6-direct-k3", lambda: gr.product("direct", gr.complete(6), gr.complete(3)), 7,
     "aefd3038fc2a987785d7a3c990612bc5b3003efb5c1593d012c72fe888e318c4"),
]


def certificate_digest(host, model):
    text = serialize_model(model, host.content_hash())
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name, build, value, digest", PINNED_EXACT,
                         ids=[case[0] for case in PINNED_EXACT])
def test_exact_certificate_bytes_are_pinned(name, build, value, digest):
    host = build()
    result = odd_hadwiger(host)
    assert (result.status, result.value, result.refutation_order) == ("exact", value, value + 1)
    assert certificate_digest(host, result.certificate) == digest


@pytest.mark.parametrize("name, build, order, digest", PINNED_WITNESSES,
                         ids=[case[0] for case in PINNED_WITNESSES])
def test_witness_certificate_bytes_are_pinned(name, build, order, digest):
    host = build()
    model = has_odd_clique_minor(host, order, SearchBudget(max_vertices=host.n))
    assert model is not None and certificate_digest(host, model) == digest


def test_odd_hadwiger_time_limit_is_read_every_256_nodes():
    # the clock is read at each 256th node, and the first reading is past
    # any deadline this short
    host = gr.product("strong", gr.cycle(5), gr.cycle(3))
    r = odd_hadwiger(host, SearchBudget(time_limit=1e-9))
    assert (r.status, r.nodes) == ("timeout", 256)
