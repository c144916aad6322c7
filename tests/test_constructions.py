import hashlib

import pytest

from oddminors import constructions as cons
from oddminors import graphs as gr
from oddminors.errors import ConsistencyError, FactorModelError, ParameterError
from oddminors.expansion import (BranchTree, OddExpansionModel, branch_tree,
                                 odd_cycle_model, serialize_model, single_edge_model,
                                 singleton_model, verify_odd_expansion)
from oddminors.oracle import odd_hadwiger

C5 = gr.cycle(5)
C5_K3 = OddExpansionModel(
    (branch_tree([0]), branch_tree([1, 2], [(1, 2)]), branch_tree([3, 4], [(3, 4)])),
    {0: 1, 1: 1, 2: 2, 3: 2, 4: 1},
)


def check_on(host, model, order=None):
    verdict = verify_odd_expansion(host, model, strict=True)
    assert verdict.passed, verdict.summary()
    if order is not None:
        assert model.clique_order == order


# ----------------------------------------------------------------------
# Small builders


def test_identity_model():
    k5 = gr.complete(5)
    model = cons.identity_model(k5)
    check_on(k5, model, 5)
    with pytest.raises(ParameterError):
        cons.identity_model(gr.cycle(4))


def test_singleton_and_edge_models():
    g = gr.path(3)
    check_on(g, singleton_model(g), 1)
    check_on(g, single_edge_model(g), 2)
    with pytest.raises(ParameterError):
        single_edge_model(gr.Graph(2, frozenset()))
    with pytest.raises(ParameterError, match="no vertices"):
        singleton_model(gr.Graph(0, frozenset()))


def test_odd_cycle_model_matches_hand_built_c5():
    model = odd_cycle_model(C5)
    assert model == OddExpansionModel(
        C5_K3.trees, dict(C5_K3.coloring),
        {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)})
    check_on(C5, model, 3)
    assert odd_cycle_model(gr.cycle(6)) is None
    for g in [gr.cycle(7), gr.cycle(9), gr.product("direct", gr.cycle(5), gr.cycle(5))]:
        check_on(g, odd_cycle_model(g), 3)


# ----------------------------------------------------------------------
# Combined coloring


def _swapped(model):
    """The certificate with every color swapped."""
    return OddExpansionModel(model.trees, {v: 3 - c for v, c in model.coloring.items()})


def test_witness_product_coloring_rule():
    # a cell vertex (a, b) takes 1 when the factor colors of a and b agree, 2 when they differ
    k1, k2 = gr.complete(1), gr.complete(2)
    one = OddExpansionModel((branch_tree([0]),), {0: 1})
    assert cons.product_grid_forest(k1, one, k1, one)[1] == {0: 1}
    assert cons.product_grid_forest(k1, one, k1, _swapped(one))[1] == {0: 2}
    edge = OddExpansionModel((branch_tree([0, 1], [(0, 1)]),), {0: 1, 1: 2})
    grid = cons.product_grid_forest(k2, edge, k2, edge)[1]
    assert [grid[i] for i in range(4)] == [1, 2, 2, 1]


def test_witness_product_coloring_swap_parity():
    g, h = gr.path(2), gr.path(3)
    mg = OddExpansionModel((branch_tree([0, 1], [(0, 1)]),), {0: 1, 1: 2})
    mh = OddExpansionModel((branch_tree([0, 1, 2], [(0, 1), (1, 2)]),), {0: 2, 1: 1, 2: 2})

    def coloring(first, second):
        return cons.product_grid_forest(g, first, h, second)[1]

    base = coloring(mg, mh)
    assert coloring(_swapped(mg), _swapped(mh)) == base
    flipped = {v: 3 - c for v, c in base.items()}
    assert coloring(_swapped(mg), mh) == flipped
    assert coloring(mg, _swapped(mh)) == flipped


# ----------------------------------------------------------------------
# Grid forest


def test_grid_forest_cells_and_cell_edges():
    cells, coloring, cell_edge = cons.product_grid_forest(C5, C5_K3, C5, C5_K3)
    assert list(cells) == [(i, j) for i in range(3) for j in range(3)]  # row-major
    box, strong = gr.product("cartesian", C5, C5), gr.product("strong", C5, C5)
    for a in cells:
        for b in cells:
            if a == b:
                continue
            u, v = cell_edge(a, b)
            assert u in cells[a].vertices and v in cells[b].vertices
            # every cell pair is joined by a monochromatic strong-product edge
            assert strong.has_edge(u, v)
            assert coloring[u] == coloring[v]
            # and a same-row or same-column pair by a box-product edge
            if a[0] == b[0] or a[1] == b[1]:
                assert box.has_edge(u, v)
    # combined coloring is proper on every cell tree
    for cell in cells.values():
        for u, v in cell.edges:
            assert coloring[u] != coloring[v]
            assert box.has_edge(u, v)
    # cell sizes multiply the factor tree sizes
    factor_sizes = [1, 2, 2]
    for (i, j), cell in cells.items():
        assert len(cell.vertices) == factor_sizes[i] * factor_sizes[j]
        assert len(cell.edges) == len(cell.vertices) - 1


def test_grid_forest_all_singleton_factors():
    k2 = gr.complete(2)
    mk2 = cons.identity_model(k2)
    cells, coloring, _ = cons.product_grid_forest(k2, mk2, k2, mk2)
    assert sorted(cells) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(len(c.vertices) == 1 for c in cells.values())
    assert set(coloring.values()) == {1}


def test_grid_forest_reads_tree_edges_in_either_orientation():
    # a library caller may store a tree edge high end first; the verifier
    # accepts it, and the cells must not depend on it
    flipped = OddExpansionModel(
        tuple(BranchTree(t.vertices, frozenset((v, u) for u, v in t.edges)) for t in C5_K3.trees),
        C5_K3.coloring)
    assert cons.strong_model(C5, flipped, C5, flipped) == cons.strong_model(C5, C5_K3, C5, C5_K3)


@pytest.mark.parametrize("kind", ["strong", "lexicographic"])
def test_grid_joints_put_each_trees_end_first(kind):
    # K3's identity certificate with its trees listed 2, 1, 0: the larger
    # end of each connector lies in the lower tree, so each joint must be
    # turned round; a Cartesian lift of the same factors would not notice
    k3 = gr.complete(3)
    identity = cons.identity_model(k3)
    rev = OddExpansionModel(identity.trees[::-1], identity.coloring)
    host = gr.product(kind, k3, k3)
    check_on(host, cons.strong_model(k3, rev, k3, identity, kind), 9)


def test_grid_forest_builds_one_product(monkeypatch):
    # every cell is a component of one box product of the factors' forests
    products = []
    product = cons.product

    def counted(kind, g, h):
        products.append((kind, g, h))
        return product(kind, g, h)
    monkeypatch.setattr(cons, "product", counted)
    k8 = gr.complete(8)
    identity = cons.identity_model(k8)
    cells, _, _ = cons.product_grid_forest(k8, identity, k8, identity)
    assert len(cells) == 64
    assert products == [("cartesian", gr.Graph(8, ()), gr.Graph(8, ()))]


def test_grid_forest_refuses_a_product_past_the_vertex_cap():
    # the grid has the host's 3201^2 vertices, more than MAX_EDGES, though
    # its four cells hold one vertex each: refused, as the host itself is
    s = gr.star(3200)
    edge = single_edge_model(s)
    with pytest.raises(ParameterError, match="vertices"):
        gr.product("strong", s, s)
    with pytest.raises(ParameterError, match="vertices"):
        cons.strong_model(s, edge, s, edge)
    with pytest.raises(ParameterError, match="vertices"):
        cons.cartesian_lift(s, edge, s, edge)


def test_grid_forest_rejects_invalid_factor():
    k2 = gr.complete(2)
    broken = OddExpansionModel((branch_tree([0]), branch_tree([1])), {0: 1, 1: 2})
    with pytest.raises(FactorModelError) as exc:
        cons.product_grid_forest(k2, broken, k2, cons.identity_model(k2))
    assert exc.value.verdict is not None and not exc.value.verdict.passed


# ----------------------------------------------------------------------
# Box products of cliques and lifting


@pytest.mark.parametrize("s,t", [(2, 2), (2, 5), (3, 3), (5, 7), (8, 2)])
def test_cartesian_complete_model(s, t):
    base = cons.cartesian_complete_model(s, t)
    host = gr.product("cartesian", gr.complete(s), gr.complete(t))
    check_on(host, base.model, s + t - 2)
    # the top-right corner stays unused
    corner = gr.flatten(0, t - 1, t)
    assert corner not in set().union(*(tree.vertices for tree in base.model.trees))


def test_cartesian_complete_rejects_small_params():
    with pytest.raises(ParameterError):
        cons.cartesian_complete_model(1, 5)
    with pytest.raises(ParameterError):
        cons.cartesian_complete_model(4, 1)


def test_cartesian_lift_order2_smallest_case():
    k2 = gr.complete(2)
    mk2 = cons.identity_model(k2)
    lifted = cons.cartesian_lift(k2, mk2, k2, mk2)
    host = gr.product("cartesian", k2, k2)
    check_on(host, lifted, 2)


def test_cartesian_lift_c5_c5():
    lifted = cons.cartesian_lift(C5, C5_K3, C5, C5_K3,
                                 base=cons.cartesian_complete_model(3, 3))
    host = gr.product("cartesian", C5, C5)
    check_on(host, lifted, 4)


def test_cartesian_lift_k4_k4():
    k4 = gr.complete(4)
    mk4 = cons.identity_model(k4)
    lifted = cons.cartesian_lift(k4, mk4, k4, mk4,
                                 base=cons.cartesian_complete_model(4, 4))
    check_on(gr.product("cartesian", k4, k4), lifted, 6)


def test_cartesian_lift_validates_base():
    with pytest.raises(ParameterError):
        cons.cartesian_lift(C5, C5_K3, C5, C5_K3,
                            base=cons.cartesian_complete_model(3, 4))
    fail_base = cons.BaseModel(3, 3, OddExpansionModel(
        (branch_tree([0]), branch_tree([4])), {0: 1, 4: 2}))
    with pytest.raises(FactorModelError):
        cons.cartesian_lift(C5, C5_K3, C5, C5_K3, base=fail_base)


@pytest.mark.parametrize("n,d,order", [(3, 1, 3), (3, 2, 4), (4, 2, 6), (2, 4, 2), (3, 3, 5)])
def test_hamming_model(n, d, order):
    model = cons.hamming_model(n, d)
    assert model.clique_order == d * (n - 2) + 2 == order
    check_on(gr.hamming(n, d), model)


def test_hamming_model_builds_each_lift_host_once(monkeypatch):
    """hamming_model(4, 4) lifts onto H(4, 2) and H(4, 3), each built once,
    from the one before.  The other products with K4 second are the hosts
    K_s x K4 of the default bases, s = 4, 6, 8, and one cell grid per lift,
    whose second factor is the edgeless forest of K4's identity
    certificate: told apart by the second factor's edge count."""
    products = []
    product = gr.product

    def counted(kind, g, h):
        products.append((kind, g.n, h.n, g.m, h.m))
        return product(kind, g, h)
    monkeypatch.setattr(gr, "product", counted)  # what graphs.hamming calls
    monkeypatch.setattr(cons, "product", counted)
    cons.hamming_model(4, 4)
    lift_hosts = [("cartesian", 4, 4, 6, 6), ("cartesian", 16, 4, 48, 6)]
    bases = [("cartesian", s, 4, s * (s - 1) // 2, 6) for s in (4, 6, 8)]
    assert sorted(p for p in products if p[2:5:2] == (4, 6)) == sorted(lift_hosts + bases)
    grids = [("cartesian", n, 4) for n in (4, 16, 64)]
    assert sorted(p[:3] for p in products if p[2:5:2] == (4, 0)) == grids
    assert len(products) == len(lift_hosts + bases + grids)


def test_hamming_model_params():
    with pytest.raises(ParameterError):
        cons.hamming_model(1, 2)
    with pytest.raises(ParameterError):
        cons.hamming_model(3, 0)


# ----------------------------------------------------------------------
# Strong, lexicographic, stars


def test_strong_model_k2_k2_is_k4():
    k2 = gr.complete(2)
    mk2 = cons.identity_model(k2)
    model = cons.strong_model(k2, mk2, k2, mk2)
    host = gr.product("strong", k2, k2)
    assert host.is_complete() and host.n == 4
    check_on(host, model, 4)


def test_strong_model_c5_c5():
    model = cons.strong_model(C5, C5_K3, C5, C5_K3)
    check_on(gr.product("strong", C5, C5), model, 9)
    lex = cons.strong_model(C5, C5_K3, C5, C5_K3, kind="lexicographic")
    check_on(gr.product("lexicographic", C5, C5), lex, 9)
    with pytest.raises(ParameterError, match="kind must be strong or lexicographic, got 'direct'"):
        cons.strong_model(C5, C5_K3, C5, C5_K3, kind="direct")


def test_strong_model_degenerate_factor_is_flagged():
    k2 = gr.complete(2)
    one = singleton_model(k2)
    model = cons.strong_model(k2, one, k2, cons.identity_model(k2))
    assert model.clique_order == 2
    assert model.notes
    check_on(gr.product("strong", k2, k2), model)
    # serialized form carries the flag
    text = serialize_model(model, gr.product("strong", k2, k2).content_hash())
    assert "meta:" in text


@pytest.mark.parametrize("r,t", [(1, 1), (2, 5), (3, 3), (5, 2), (4, 1)])
def test_star_model_case_split(r, t):
    model = cons.star_model(r, t)
    expected = r + 1 if r == t else min(r, t) + 2
    assert model.clique_order == expected
    check_on(gr.product("strong", gr.star(r), gr.star(t)), model)


def test_star_model_params():
    with pytest.raises(ParameterError):
        cons.star_model(0, 1)


# ----------------------------------------------------------------------
# Direct products of cliques


@pytest.mark.parametrize("t", range(6, 13))
def test_direct_k3_model(t):
    model = cons.direct_k3_model(t)
    host = gr.product("direct", gr.complete(t), gr.complete(3))
    check_on(host, model, t + 2)


def test_direct_k3_small_case_substitution():
    model = cons.direct_k3_model(6)
    # pair of trees 6 and 8 reroutes through row 6 when row 7 is absent
    e = model.connectors[(5, 7)]
    assert e == gr.norm_edge(gr.flatten(4, 1, 3), gr.flatten(5, 0, 3))
    assert model.clique_order == 8
    big = cons.direct_k3_model(7)
    e7 = big.connectors[(5, 7)]
    assert e7 == gr.norm_edge(gr.flatten(4, 1, 3), gr.flatten(6, 0, 3))


def test_direct_k3_tree_shapes():
    # six two-vertex trees, everything else a three-vertex path
    for t in (7, 10, 11):
        model = cons.direct_k3_model(t)
        sizes = sorted(len(tree.vertices) for tree in model.trees)
        assert sizes == [2] * 6 + [3] * (t - 4)


def test_direct_k3_params():
    with pytest.raises(ParameterError):
        cons.direct_k3_model(5)


def test_direct_k3_upper_bound_values():
    assert cons.direct_k3_upper_bound(6) == 8
    with pytest.raises(ParameterError, match="needs t >= 6, got 5"):
        cons.direct_k3_upper_bound(5)
    # individual terms at t = 9: (27-3)/3 + 3 and (27-12)/3 + 6 both hit 11
    assert (27 - 3) // 3 + 3 == 11
    assert (27 - 12) // 3 + 6 == 11
    for t in range(6, 101):
        assert cons.direct_k3_upper_bound(t) == t + 2
        assert cons.direct_k3_upper_bound(t) == cons.direct_k3_model(t).clique_order if t <= 12 else True


@pytest.mark.parametrize("t,s,order", [(4, 3, 4), (6, 6, 12), (5, 7, 10), (4, 9, 12)])
def test_direct_general_model(t, s, order):
    model = cons.direct_general_model(t, s)
    host = gr.product("direct", gr.complete(t), gr.complete(s))
    check_on(host, model, order)


def test_direct_general_ignores_trailing_columns():
    model = cons.direct_general_model(5, 7)
    used_cols = {v % 7 for tree in model.trees for v in tree.vertices}
    assert used_cols <= set(range(6))


def test_path_models_store_connectors_in_pair_order():
    # the sweep fills pairs out of order; `serialize_model` sorts them, which
    # is one linear pass only on input already in order
    for model in (cons.direct_k3_model(9), cons.direct_general_model(6, 6)):
        assert list(model.connectors) == sorted(model.connectors)


def test_path_model_names_the_first_pair_without_a_connector():
    # on the path 0-1-2-3, {0} and {3} have no edge between them; pair (1, 2)
    # comes after the missing pair (0, 1) and has its own connector 1-2
    specs = [([0], 0, 1), ([3], 3, 1), ([1], 1, 2), ([2], 2, 2)]
    with pytest.raises(ConsistencyError, match="between trees 0 and 1$"):
        cons._path_model(gr.path(4), specs, {})
    assert cons._path_model(gr.path(4), specs[2:], {}).connectors == {(0, 1): (1, 2)}


def test_direct_general_params():
    with pytest.raises(ParameterError):
        cons.direct_general_model(3, 6)
    with pytest.raises(ParameterError):
        cons.direct_general_model(6, 2)


# ----------------------------------------------------------------------
# Dispatcher


def test_best_lower_bound_strong_and_cartesian():
    model = cons.best_lower_bound(C5, C5_K3, C5, C5_K3, "strong")
    assert model.clique_order == 9
    check_on(gr.product("strong", C5, C5), model)
    model = cons.best_lower_bound(C5, C5_K3, C5, C5_K3, "cartesian")
    assert model.clique_order == 4
    check_on(gr.product("cartesian", C5, C5), model)
    model = cons.best_lower_bound(C5, C5_K3, C5, C5_K3, "lexicographic")
    assert model.clique_order == 9


def test_best_lower_bound_direct_cliques():
    k7, k3 = gr.complete(7), gr.complete(3)
    m7, m3 = cons.identity_model(k7), cons.identity_model(k3)
    model = cons.best_lower_bound(k7, m7, k3, m3, "direct")
    assert model.clique_order == 9  # max(7 + 2, 7 * 1)
    check_on(gr.product("direct", k7, k3), model)
    model = cons.best_lower_bound(k3, m3, k7, m7, "direct")
    assert model.clique_order == 9
    check_on(gr.product("direct", k3, k7), model)
    k6, k9 = gr.complete(6), gr.complete(9)
    model = cons.best_lower_bound(k6, cons.identity_model(k6),
                                  k9, cons.identity_model(k9), "direct")
    assert model.clique_order == 18  # 6 * 3 beats nothing else
    check_on(gr.product("direct", k6, k9), model)


def test_best_lower_bound_direct_fallbacks():
    k2 = gr.complete(2)
    mk2 = cons.identity_model(k2)
    model = cons.best_lower_bound(k2, mk2, k2, mk2, "direct")
    assert model.clique_order == 2  # bipartite product with an edge
    check_on(gr.product("direct", k2, k2), model)
    model = cons.best_lower_bound(C5, C5_K3, C5, C5_K3, "direct")
    assert model.clique_order == 3  # odd cycle in the product
    check_on(gr.product("direct", C5, C5), model)


def test_best_lower_bound_direct_edgeless_product():
    # K1 x K2 has two vertices and no edge: the order-1 singleton
    k1, k2 = gr.complete(1), gr.complete(2)
    model = cons.best_lower_bound(k1, cons.identity_model(k1), k2, cons.identity_model(k2),
                                  "direct")
    host = gr.product("direct", k1, k2)
    assert (host.n, host.m) == (2, 0)
    assert model == singleton_model(host)
    check_on(host, model, 1)


def test_best_lower_bound_cartesian_degenerate():
    k2 = gr.complete(2)
    one = singleton_model(k2)
    assert cons.best_lower_bound(k2, one, k2, cons.identity_model(k2), "cartesian") is None


@pytest.mark.parametrize("kind, calls", [("strong", 2), ("lexicographic", 2),
                                         ("cartesian", 3), ("direct", 2)])
def test_best_lower_bound_verifies_each_certificate_once(kind, calls, monkeypatch):
    # two factor certificates, plus the complete-product base for cartesian
    made = []
    verify = cons.verify_odd_expansion

    def counting(*args, **kwargs):
        made.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(cons, "verify_odd_expansion", counting)
    cons.best_lower_bound(C5, C5_K3, C5, C5_K3, kind)
    assert len(made) == calls


@pytest.mark.parametrize("kind", ["strong", "lexicographic", "cartesian", "direct"])
def test_best_lower_bound_rejects_invalid_factors(kind):
    broken = OddExpansionModel(C5_K3.trees, {**C5_K3.coloring, 0: 3 - C5_K3.coloring[0]},
                               C5_K3.connectors)
    assert not verify_odd_expansion(C5, broken).passed
    for first, second in [(broken, C5_K3), (C5_K3, broken)]:
        with pytest.raises(FactorModelError):
            cons.best_lower_bound(C5, first, C5, second, kind)


def test_best_lower_bound_rejects_bad_kind():
    with pytest.raises(ParameterError):
        cons.best_lower_bound(C5, C5_K3, C5, C5_K3, "tensorish")


# ----------------------------------------------------------------------
# Determinism


def test_constructions_are_byte_deterministic():
    host = gr.product("direct", gr.complete(8), gr.complete(3))
    h = host.content_hash()
    a = serialize_model(cons.direct_k3_model(8), h)
    b = serialize_model(cons.direct_k3_model(8), h)
    assert a == b
    host2 = gr.product("cartesian", C5, C5)
    a = serialize_model(cons.cartesian_lift(C5, C5_K3, C5, C5_K3), host2.content_hash())
    b = serialize_model(cons.cartesian_lift(C5, C5_K3, C5, C5_K3), host2.content_hash())
    assert a == b


def _c5_strong_c3_exact():
    host = gr.product("strong", gr.cycle(5), gr.cycle(3))
    return host, odd_hadwiger(host).certificate


# SHA-256 of serialize_model(model, host.content_hash()).  Connector
# selection may change how it searches, never which edge it picks, so these
# bytes stay fixed.
PINNED_CERTIFICATES = [
    (lambda: (gr.product("direct", gr.complete(12), gr.complete(3)), cons.direct_k3_model(12)),
     "6b905d60a92af07c44d62a6f54799081469b7a937214fd6f97139dd645a05e6d"),
    (lambda: (gr.product("direct", gr.complete(12), gr.complete(9)),
              cons.direct_general_model(12, 9)),
     "c0cd375ec9596baa19c72bb56cd6d7397bda823f2e556a8fa10957e9c827fe5a"),
    (_c5_strong_c3_exact,
     "1ecd91e69ab3acd4c3cee6d1b6da8957fa624ca68c7ccd9b8713237ffa430851"),
]
PINNED_IDS = ["direct-k3-12", "direct-general-12-9", "exact-c5-strong-c3"]


def _grid(kind, first, second):
    """`kind` product certificate of two certified factors (g, mg), (h, mh)."""
    (g, mg), (h, mh) = first, second
    if kind == "cartesian":
        return gr.product(kind, g, h), cons.cartesian_lift(g, mg, h, mh)
    return gr.product(kind, g, h), cons.strong_model(g, mg, h, mh, kind)


def _cycle(n):
    return gr.cycle(n), odd_cycle_model(gr.cycle(n))


def _base_3_3():
    base = cons.cartesian_complete_model(3, 3)
    return base.host, base.model


def _best_direct_k3_k7():
    k3, k7 = gr.complete(3), gr.complete(7)
    model = cons.best_lower_bound(k3, cons.identity_model(k3), k7, cons.identity_model(k7), "direct")
    return gr.product("direct", k3, k7), model


# Cells that are real grids, with same-row, same-column and diagonal joints,
# the t == 6 substitutions and the coordinate swaps.
PINNED_CERTIFICATES += [
    (lambda: _grid("strong", _cycle(9), _cycle(7)),
     "306a730851be0b283b3ea8210f07df58e33201cae9e994c484ee9f08f5d4d415"),
    (lambda: _grid("lexicographic", _cycle(9), _cycle(7)),
     "d6b6d1311c2cf269855906f4777e992de7828f567772f484802e6feb5b9272cf"),
    (lambda: _grid("strong", _base_3_3(), _cycle(5)),
     "886181e0a936554822c9c170ed7e128ad47aa8e18828d9249e839118e836537a"),
    (lambda: _grid("cartesian", _cycle(7), _cycle(9)),
     "d8adb70b8437024a7e3636214b19d8afa248f074589cec4e074eab7ea6b2d58d"),
    (lambda: (gr.hamming(4, 3), cons.hamming_model(4, 3)),
     "621d775203bf1738ff98a1709c658165af81d8f4619679da4848015c4dd32305"),
    (lambda: (gr.product("direct", gr.complete(6), gr.complete(3)), cons.direct_k3_model(6)),
     "c2fdd04506f89c04b94ef8148278619c86d68fb94fa2e62459293aedcafc886f"),
    (lambda: (gr.product("direct", gr.complete(9), gr.complete(3)), cons.direct_k3_model(9)),
     "860f27a5fc5297772bf3b9b4d70ea229b587d99f0c02a2da6277e4fec2cc8896"),
    (lambda: (gr.product("direct", gr.complete(57), gr.complete(3)), cons.direct_k3_model(57)),
     "2c32c1243ff75ddc8fa080721d6bd04b5289d5c7dba1d08e9d348d2eb3466bda"),
    (lambda: (gr.product("direct", gr.complete(5), gr.complete(7)),
              cons.direct_general_model(5, 7)),
     "7f56e82869b2cfe91cdc077576c77806beaedceff634fe6166519d9bccce9755"),
    (lambda: (gr.product("strong", gr.star(4), gr.star(7)), cons.star_model(4, 7)),
     "a9c35b41086dc42f1bdb2ea47369e1c70b24ae760a4561dbf71afe897161622c"),
    (lambda: (gr.product("strong", gr.star(7), gr.star(4)), cons.star_model(7, 4)),
     "f40006774f1a9193c08217565742b3a93a9673ffe8776f3b1aafda1130565100"),
    (_best_direct_k3_k7,
     "51e8b2193d0a7b5f5d7a4cdeb6dac3e42a4c84d256a5fe72668e9ac57efce53c"),
]
PINNED_IDS += ["strong-c9-c7", "lex-c9-c7", "strong-k3k3-c5", "lift-c7-c9", "hamming-4-3",
               "direct-k3-6", "direct-k3-9", "direct-k3-57", "direct-general-5-7", "stars-4-7",
               "stars-7-4", "best-direct-k3-k7"]


@pytest.mark.parametrize("build, digest", PINNED_CERTIFICATES, ids=PINNED_IDS)
def test_certificate_bytes_are_pinned(build, digest):
    host, model = build()
    text = serialize_model(model, host.content_hash())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
