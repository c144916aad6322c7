import itertools
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddminors import graphs as gr
from oddminors.errors import ParameterError, ParseError
from oddminors import expansion as ex
from oddminors.expansion import (BranchTree, OddExpansionModel, branch_tree,
                                 monochromatic_connector, odd_cycle_model, parse_model,
                                 serialize_model, verify_odd_expansion)
from oddminors.constructions import direct_general_model
from oddminors.oracle import has_odd_clique_minor

C5 = gr.cycle(5)
C5_MODEL = OddExpansionModel(
    (branch_tree([0]), branch_tree([1, 2], [(1, 2)]), branch_tree([3, 4], [(3, 4)])),
    {0: 1, 1: 1, 2: 2, 3: 2, 4: 1},
)


def naive_odd_expansion_check(g, model):
    """Independent re-check of every certificate clause by brute force."""
    trees = model.trees
    used = [v for t in trees for v in t.vertices]
    if len(used) != len(set(used)):
        return False
    for t in trees:
        verts = sorted(t.vertices)
        if not verts or any(not 0 <= v < g.n for v in verts):
            return False
        if len(t.edges) != len(verts) - 1:
            return False
        if any(u not in t.vertices or v not in t.vertices for u, v in t.edges):
            return False
        # connectivity by closure
        reach = {verts[0]}
        changed = True
        while changed:
            changed = False
            for u, v in t.edges:
                if (u in reach) != (v in reach):
                    reach |= {u, v}
                    changed = True
        if reach != set(verts):
            return False
        if any(not g.has_edge(u, v) for u, v in t.edges):
            return False
        if any(model.coloring.get(v) not in (1, 2) for v in verts):
            return False
        if any(model.coloring[u] == model.coloring[v] for u, v in t.edges):
            return False
    for i, j in itertools.combinations(range(len(trees)), 2):
        ok = any(g.has_edge(u, v) and model.coloring[u] == model.coloring[v]
                 for u in trees[i].vertices for v in trees[j].vertices)
        if not ok:
            return False
    return True


def test_c5_model_passes():
    verdict = verify_odd_expansion(C5, C5_MODEL)
    assert verdict.passed and verdict.summary() == "PASS order=3"
    assert naive_odd_expansion_check(C5, C5_MODEL)


def test_color_flip_on_path_breaks_properness_first():
    # Flipping vertex 4 makes tree 2's edge 3-4 monochromatic, which the
    # check order reports before any connector clause.
    flipped = OddExpansionModel(C5_MODEL.trees, {0: 1, 1: 1, 2: 2, 3: 2, 4: 2})
    verdict = verify_odd_expansion(C5, flipped)
    assert verdict.clause == "properness"
    assert verdict.trees == (2,) and verdict.edges == ((3, 4),)
    assert not naive_odd_expansion_check(C5, flipped)


def test_connector_missing_reports_lowest_pair():
    model = OddExpansionModel(
        (branch_tree([0]), branch_tree([1, 2], [(1, 2)]), branch_tree([4])),
        {0: 1, 1: 1, 2: 2, 4: 2})
    verdict = verify_odd_expansion(C5, model)
    assert verdict.clause == "connector_missing" and verdict.trees == (0, 2)


def test_k2_two_singletons_pass():
    k2 = gr.complete(2)
    model = OddExpansionModel((branch_tree([0]), branch_tree([1])), {0: 1, 1: 1})
    assert verify_odd_expansion(k2, model).passed


def test_clause_witnesses():
    overlap = OddExpansionModel((branch_tree([0, 1], [(0, 1)]), branch_tree([1])),
                                {0: 1, 1: 2})
    v = verify_odd_expansion(C5, overlap)
    assert v.clause == "disjointness" and v.trees == (0, 1) and v.vertices == (1,)

    bad_shape = OddExpansionModel((branch_tree([0, 1]),), {0: 1, 1: 2})
    v = verify_odd_expansion(C5, bad_shape)
    assert v.clause == "tree_shape" and v.trees == (0,)

    out_of_range = OddExpansionModel((branch_tree([9]),), {9: 1})
    assert verify_odd_expansion(C5, out_of_range).clause == "tree_shape"

    non_edge = OddExpansionModel((branch_tree([0, 2], [(0, 2)]),), {0: 1, 2: 2})
    v = verify_odd_expansion(C5, non_edge)
    assert v.clause == "edge_membership" and v.edges == ((0, 2),)

    uncolored = OddExpansionModel((branch_tree([0]), branch_tree([1])), {0: 1})
    v = verify_odd_expansion(C5, uncolored)
    assert v.clause == "coloring_missing" and v.vertices == (1,)

    stray = OddExpansionModel((branch_tree([0]), branch_tree([1])),
                              {0: 1, 1: 1, 7: 2})
    assert verify_odd_expansion(C5, stray).clause == "coloring_missing"

    bad_connector = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                                      {(0, 1): (0, 2)})
    v = verify_odd_expansion(C5, bad_connector)
    assert v.clause == "connector_invalid" and v.trees == (0, 1)

    empty = OddExpansionModel((), {})
    assert verify_odd_expansion(C5, empty).clause == "tree_shape"


@pytest.mark.parametrize("tree, summary", [
    (BranchTree(frozenset(), frozenset()), "FAIL tree_shape trees=0 tree 0 is empty"),
    (branch_tree([0, 1], [(0, 1), (1, 2)]),
     "FAIL tree_shape trees=0 edges=1-2 tree 0 edge 1-2 leaves its vertex set"),
], ids=["empty", "edge-leaves-its-vertex-set"])
def test_tree_shape_failures_are_named(tree, summary):
    model = OddExpansionModel((tree,), {0: 1, 1: 2, 2: 1})
    assert verify_odd_expansion(C5, model).summary() == summary


def test_stored_connectors_checked_literally():
    model = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                              {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)})
    assert verify_odd_expansion(C5, model, strict=True).passed
    # a bichromatic stored edge fails even though a search would succeed
    tampered = OddExpansionModel(model.trees, model.coloring,
                                 {(0, 1): (1, 0), (0, 2): (0, 4), (1, 2): (3, 2)})
    assert verify_odd_expansion(C5, tampered, strict=True).passed
    wrong = OddExpansionModel(model.trees, model.coloring,
                              {(0, 1): (0, 2), (0, 2): (0, 4), (1, 2): (2, 3)})
    v = verify_odd_expansion(C5, wrong)
    assert v.clause == "connector_invalid"


def test_strict_requires_all_connectors():
    v = verify_odd_expansion(C5, C5_MODEL, strict=True)
    assert v.clause == "connector_missing" and v.trees == (0, 1)
    partial = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                                {(0, 1): (0, 1)})
    v = verify_odd_expansion(C5, partial, strict=True)
    assert v.clause == "connector_missing" and v.trees == (0, 2)
    # non-strict mode searches the pairs that lack a stored edge
    assert verify_odd_expansion(C5, partial).passed


def test_plain_mode_reports_a_missing_pair_before_a_later_invalid_one():
    # pair (0, 1) has no stored connector and no monochromatic edge (0 and
    # 2 are not adjacent); the stored connector of pair (1, 2) is bichromatic
    model = OddExpansionModel((branch_tree([0]), branch_tree([2]), branch_tree([3])),
                              {0: 1, 2: 1, 3: 2}, {(1, 2): (2, 3)})
    v = verify_odd_expansion(C5, model)
    assert v.clause == "connector_missing" and v.trees == (0, 1)
    stored = OddExpansionModel(model.trees, model.coloring, {(0, 1): (0, 2), (1, 2): (2, 3)})
    v = verify_odd_expansion(C5, stored)
    assert v.clause == "connector_invalid" and v.trees == (0, 1)


def test_connector_table_is_built_only_for_a_pair_without_a_stored_connector(monkeypatch):
    calls = []
    table = ex.monochromatic_connector
    monkeypatch.setattr(ex, "monochromatic_connector",
                        lambda g, model: calls.append(model) or table(g, model))
    full = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                             {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)})
    assert verify_odd_expansion(C5, full, strict=True).passed
    assert verify_odd_expansion(C5, full).passed
    assert calls == []
    # plain mode builds it once, at the first pair that stores none
    partial = OddExpansionModel(full.trees, full.coloring, {(0, 1): (0, 1)})
    assert verify_odd_expansion(C5, partial).passed
    assert calls == [partial]


def test_color_swap_invariance():
    swapped = {v: 3 - c for v, c in C5_MODEL.coloring.items()}
    assert verify_odd_expansion(C5, OddExpansionModel(C5_MODEL.trees, swapped)).passed
    stored = OddExpansionModel(C5_MODEL.trees, swapped,
                               {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)})
    assert verify_odd_expansion(C5, stored, strict=True).passed


def test_monotone_embedding_into_supergraph():
    bigger = gr.graph_from_edges(6, list(C5.edges) + [(0, 2), (1, 4), (2, 5)])
    assert verify_odd_expansion(bigger, C5_MODEL).passed


def test_clique_order_matches_tree_count():
    assert C5_MODEL.clique_order == len(C5_MODEL.trees) == 3


def test_naive_checker_agrees_on_mutations():
    graphs = [C5, gr.complete(4), gr.product("cartesian", gr.complete(2), gr.complete(3))]
    models = [C5_MODEL,
              OddExpansionModel(tuple(branch_tree([v]) for v in range(4)),
                                {v: 1 for v in range(4)})]
    for g in graphs:
        for m in models:
            for flip in list(m.coloring):
                mutated = dict(m.coloring)
                mutated[flip] = 3 - mutated[flip]
                mm = OddExpansionModel(m.trees, mutated)
                assert verify_odd_expansion(g, mm).passed == naive_odd_expansion_check(g, mm)


# ----------------------------------------------------------------------
# Serialization


def test_round_trip_and_bit_exactness():
    h = C5.content_hash()
    text = serialize_model(C5_MODEL, h)
    model, parsed_hash = parse_model(text)
    assert model == C5_MODEL and parsed_hash == h
    assert serialize_model(model, parsed_hash) == text
    # equal models built in a different key order serialize identically
    other = OddExpansionModel(C5_MODEL.trees,
                              dict(reversed(list(C5_MODEL.coloring.items()))))
    assert serialize_model(other, h) == text


def test_round_trip_with_connectors_and_notes():
    model = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                              {(1, 2): (2, 3), (0, 1): (0, 1), (0, 2): (0, 4)},
                              ("flagged for review",))
    text = serialize_model(model, C5.content_hash())
    again, _ = parse_model(text)
    assert again == model and again.notes == ("flagged for review",)


def test_empty_connectors_line_differs_from_absent():
    h = C5.content_hash()
    absent = serialize_model(C5_MODEL, h)
    assert "connectors" not in absent
    present_empty = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring), {})
    text = serialize_model(present_empty, h)
    assert "connectors:" in text
    model, _ = parse_model(text)
    assert model.connectors == {}
    # empty map still lets non-strict search succeed
    assert verify_odd_expansion(C5, model).passed


def test_parse_accepts_unsorted_input():
    text = ("version: 1\n"
            "graph_hash: 00ff\n"
            "clique_order: 2\n"
            "trees: 2\n"
            "tree: 2 1\n"
            "edges: 2-1\n"
            "tree: 3\n"
            "edges:\n"
            "coloring: 3=2 1=1 2=2\n")
    model, h = parse_model(text)
    assert h == "00ff"
    assert model.trees[0].sorted_vertices == (1, 2)
    assert model.trees[0].sorted_edges == ((1, 2),)


def test_overlapping_trees_parse_then_fail_verification():
    bad = OddExpansionModel((branch_tree([0]), branch_tree([0])), {0: 1})
    text = serialize_model(bad, C5.content_hash())
    model, _ = parse_model(text)
    assert verify_odd_expansion(C5, model).clause == "disjointness"


@pytest.mark.parametrize("mutate", [
    lambda t: t[:40],
    lambda t: t.replace("version: 1", "version: 9"),
    lambda t: t.replace("clique_order: 3", "clique_order: 5"),
    lambda t: t.replace("coloring: ", "colouring: "),
    lambda t: t.replace("0=1", "0=7"),
    lambda t: t.replace("graph_hash: ", "graph_hash: ZZ"),
    lambda t: t + "surprise\n",
])
def test_parse_errors_carry_position(mutate):
    text = serialize_model(C5_MODEL, C5.content_hash())
    with pytest.raises(ParseError) as exc:
        parse_model(mutate(text))
    assert exc.value.offset is not None


# C5_MODEL's certificate: 11 lines and 200 characters, 'tree: 0' at 113
@pytest.mark.parametrize("mutate, field, line, offset", [
    (lambda t: t.replace("version: 1", "version: 9"), "version", 1, 0),
    (lambda t: t.replace("graph_hash: ", "graph_hash: ZZ"), "graph_hash", 2, 11),
    (lambda t: t.replace("tree: 0\n", "tree: 0 0\n"), "tree[0]", 5, 113),
    (lambda t: t.replace("tree: 0\n", "tree: 0 0\n").replace("\n", "\r\n"), "tree[0]", 5, 117),
    (lambda t: t + "\nsurprise\n", "trailer", 13, 201),
    (lambda t: t[:10], "graph_hash", 2, 10),
], ids=["version", "hash", "duplicate-vertex", "crlf", "trailing-after-blank", "end-of-input"])
def test_parse_errors_name_the_line_at_fault(mutate, field, line, offset):
    text = serialize_model(C5_MODEL, C5.content_hash())
    with pytest.raises(ParseError) as exc:
        parse_model(mutate(text))
    assert (exc.value.field, exc.value.line, exc.value.offset) == (field, line, offset)


@pytest.mark.parametrize("mutate, message, field, line, offset", [
    (lambda t: t.replace("clique_order: 3\ntrees: 3", "clique_order: 0\ntrees: 0"),
     "certificate must have at least one tree", "clique_order", 4, 104),
    (lambda t: t.replace("tree: 0\n", "tree: -1\n"), "negative vertex -1", "tree[0]", 5, 113),
    (lambda t: t.replace("edges: 1-2\n", "edges: 1-2 2-1\n"),
     "duplicate tree edge 2-1", "tree[1].edges", 8, 138),
    (lambda t: t.replace("0=1 ", "0=1=2 "),
     "expected 'v=c' token, found '0=1=2'", "coloring", 11, 170),
    (lambda t: t.replace("4=1\n", "4=1 0=2\n"),
     "duplicate color entry for vertex 0", "coloring", 11, 170),
], ids=["no-tree", "negative-vertex", "duplicate-edge", "bad-color-token", "duplicate-color"])
def test_parse_errors_name_their_fault(mutate, message, field, line, offset):
    text = serialize_model(C5_MODEL, C5.content_hash())
    with pytest.raises(ParseError) as exc:
        parse_model(mutate(text))
    assert str(exc.value) == f"{message} field={field} line={line} offset={offset}"
    assert (exc.value.field, exc.value.line, exc.value.offset) == (field, line, offset)


def test_parsed_ids_are_one_int_object_each():
    # ids above 256, which CPython does not cache: every tree vertex, tree
    # edge end, coloring key and connector end naming one vertex is one
    # object.  The second certificate's connector line (94k characters) is
    # read in two chunks.
    cases = [(gr.cycle(601), odd_cycle_model(gr.cycle(601))),
             (gr.product("direct", gr.complete(6), gr.complete(60)),
              direct_general_model(6, 60))]
    for g, model in cases:
        text = serialize_model(model, g.content_hash())
        model, _ = parse_model(text)
        ids = [*model.coloring, *itertools.chain.from_iterable(model.connectors.values())]
        for t in model.trees:
            ids += [*t.vertices, *itertools.chain.from_iterable(t.edges)]
        assert max(ids) > 256
        assert len({id(x) for x in ids}) == len(set(ids))
    assert len(text) - text.index("connectors:") > gr._CHUNK


def test_parse_rejects_out_of_range_connector_pairs():
    model = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                              {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)})
    text = serialize_model(model, C5.content_hash())
    with pytest.raises(ParseError):
        parse_model(text.replace("0,1=", "0,9="))


def test_connector_lookup_orientation():
    # no stored connector: each pair's least monochromatic edge, as (min, max)
    assert monochromatic_connector(C5, C5_MODEL) == {(0, 1): (0, 1), (0, 2): (0, 4),
                                                     (1, 2): (2, 3)}
    # the same trees, the last two swapped: pair (1, 2) still reads 2-3,
    # though 3 is tree 1's end
    swapped = OddExpansionModel((C5_MODEL.trees[0], C5_MODEL.trees[2], C5_MODEL.trees[1]),
                                C5_MODEL.coloring)
    assert monochromatic_connector(C5, swapped) == {(0, 1): (0, 4), (0, 2): (0, 1),
                                                    (1, 2): (2, 3)}
    # a stored connector is returned as the model stores it, (min, max)
    stored = OddExpansionModel(swapped.trees, swapped.coloring, {(1, 2): (4, 1)})
    assert monochromatic_connector(C5, stored)[1, 2] == (1, 4)
    # a pair with neither is left out
    broken = OddExpansionModel((branch_tree([0]), branch_tree([2])), {0: 1, 2: 1})
    assert monochromatic_connector(C5, broken) == {}


# ----------------------------------------------------------------------
# Connector table


@st.composite
def connector_cases(draw):
    """A host, 1-6 disjoint non-empty trees (vertex sets only: the table
    reads nothing else), a coloring of the tree vertices and a few stored
    connectors.  Hosts are small, or have 257-300 vertices so that ids are
    above 256, where CPython no longer shares int objects; the edges lie
    within a pool of up to 24 vertices, all of its pairs but a few (dense)
    or a few of them (sparse), so most vertices of a large host are
    isolated, and trees may take isolated vertices too."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(257, 300)))
    pool = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=24)))
    pairs = list(itertools.combinations(pool, 2))
    picked = draw(st.sets(st.sampled_from(pairs), max_size=40))
    edges = set(pairs) - picked if draw(st.booleans()) else picked
    extra = draw(st.sets(st.integers(0, n - 1), max_size=4))
    verts = draw(st.permutations(sorted(set(pool) | extra)))
    count = draw(st.integers(1, min(6, len(verts))))
    cuts = sorted(draw(st.sets(st.integers(1, len(verts) - 1), min_size=count - 1,
                               max_size=count - 1))) if count > 1 else []
    bounds = [0, *cuts, draw(st.integers(cuts[-1] + 1 if cuts else 1, len(verts)))]
    trees = tuple(branch_tree(verts[a:b]) for a, b in zip(bounds, bounds[1:]))
    coloring = {v: draw(st.sampled_from((1, 2))) for t in trees for v in t.vertices}
    stored = {}
    for i, j in draw(st.sets(st.sampled_from(list(itertools.combinations(range(count), 2))),
                             max_size=3)) if count > 1 else ():
        stored[i, j] = (draw(st.sampled_from(sorted(trees[i].vertices))),
                        draw(st.integers(0, n - 1)))
    return gr.Graph(n, edges), OddExpansionModel(trees, coloring, stored or None)


def brute_least_monochromatic_edge(g, a, b, coloring):
    return min((e for e in g.edges
                if {e[0] in a.vertices, e[1] in a.vertices} == {True, False}
                and (e[0] in b.vertices or e[1] in b.vertices)
                and coloring[e[0]] == coloring[e[1]]), default=None)


@settings(max_examples=200, deadline=None)
@given(connector_cases())
# a dense host with small trees
@example((gr.complete(6), OddExpansionModel((branch_tree([0, 4]), branch_tree([1, 5])),
                                            {0: 1, 4: 2, 1: 2, 5: 2})))
# a sparse host with large trees, the second tree below the first
@example((gr.path(8), OddExpansionModel((branch_tree([4, 5, 6, 7]), branch_tree([0, 1, 2, 3])),
                                        {v: 1 + v % 2 for v in range(8)})))
# as many host edges as pairs, so the sweep fills columns, and one pair
# left without a connector
@example((gr.complete(4), OddExpansionModel((branch_tree([0]), branch_tree([1]),
                                             branch_tree([2, 3])), {0: 1, 1: 2, 2: 1, 3: 2})))
# fewer host edges and stored connectors than pairs, so the sweep keeps
# what it finds in dicts, the trees out of vertex order
@example((gr.path(6), OddExpansionModel(tuple(branch_tree([v]) for v in (3, 0, 5, 1, 4, 2)),
                                        dict.fromkeys(range(6), 1), {(0, 2): (3, 0)})))
def test_connector_table_matches_brute_force(case):
    g, model = case
    trees, stored = model.trees, model.connectors or {}
    table = monochromatic_connector(g, model)
    for i, j in itertools.combinations(range(len(trees)), 2):
        # the least edge as g.edges holds it, (min, max)
        edge = stored.get((i, j)) or brute_least_monochromatic_edge(
            g, trees[i], trees[j], model.coloring)
        assert table.get((i, j)) == edge, (i, j)
    assert set(table) <= set(itertools.combinations(range(len(trees)), 2))


def test_connector_table_reads_no_row_after_the_last_pair_is_filled():
    # vertex 0's row fills pairs (0, 1) and (0, 2), vertex 1's pair (1, 2)
    g = gr.complete(300)
    model = OddExpansionModel(tuple(branch_tree([v]) for v in (0, 1, 2)),
                              dict.fromkeys((0, 1, 2), 1))
    seen = []

    class Host:
        m = g.m

        def rows(self):
            for u, row in g.rows():
                seen.append(u)
                yield u, row

    assert monochromatic_connector(Host(), model) == {(0, 1): (0, 1), (0, 2): (0, 2),
                                                      (1, 2): (1, 2)}
    assert seen == [0, 1]


def test_connector_table_comes_in_pair_order():
    # the sweep fills pairs out of order; the table is made in pair order,
    # so that `serialize_model`'s sort of it is one linear pass.  The trees
    # are an oracle model's and a path model's, with no stored connector
    # and with each model's own; the oracle's model keeps the table's
    # order.
    k4k3 = gr.product("direct", gr.complete(4), gr.complete(3))
    found = has_odd_clique_minor(k4k3, 6)
    paths = direct_general_model(6, 6)
    k6k6 = gr.product("direct", gr.complete(6), gr.complete(6))
    assert list(found.connectors) == sorted(found.connectors)
    for g, model in [(k4k3, found), (k6k6, paths)]:
        for stored in (None, model.connectors):
            table = monochromatic_connector(g, OddExpansionModel(model.trees, model.coloring,
                                                                 stored))
            assert list(table) == sorted(table)
            assert len(table) == len(model.trees) * (len(model.trees) - 1) // 2


def test_the_public_constructor_keeps_its_own_dicts():
    # a model made by the public constructor holds copies: a later change
    # to the caller's dicts does not reach it
    coloring = dict(C5_MODEL.coloring)
    connectors = {(0, 1): (1, 0), (0, 2): (0, 4), (1, 2): (2, 3)}
    model = OddExpansionModel(C5_MODEL.trees, coloring, connectors)
    assert model.connectors == {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)}
    assert connectors[0, 1] == (1, 0)  # normalised in the model's copy alone
    coloring[0] = 2
    connectors[0, 1] = (0, 4)
    connectors[1, 3] = (9, 9)
    del connectors[1, 2]
    assert model.coloring == C5_MODEL.coloring
    assert model.connectors == {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)}
    assert verify_odd_expansion(C5, model, strict=True).passed


K24_DIRECT = gr.product("direct", gr.complete(24), gr.complete(24))
K24_MODEL = direct_general_model(24, 24, K24_DIRECT)  # 192 trees, 18,336 pairs


def parsed_size(text):
    """The bytes that `parse_model` leaves alive, and its working peak
    above them."""
    tracemalloc.start()
    try:
        model, _ = parse_model(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return model, kept, peak - kept


def test_parse_model_working_peak_is_small(monkeypatch):
    # the model shares the table that the parser filled, and the parser
    # keeps no pair keys for a full table: the working peak above the
    # returned model stays under the 589,912 bytes of the one connector
    # dict a parse used to hold; small chunks keep the scanner's tokens
    # out of the peak
    text = serialize_model(K24_MODEL, K24_DIRECT.content_hash())
    monkeypatch.setattr(gr, "_CHUNK", 1 << 12)
    model, _, working = parsed_size(text)
    assert model == K24_MODEL
    assert working < 589_912


def test_parsed_table_takes_at_most_40_bytes_a_pair():
    # the connectors' share of a parsed model: the same certificate parsed
    # with and without its connector line; the ends are the tree vertices'
    # own int objects, so the table costs its columns alone
    text = serialize_model(K24_MODEL, K24_DIRECT.content_hash())
    bare = serialize_model(OddExpansionModel(K24_MODEL.trees, K24_MODEL.coloring),
                           K24_DIRECT.content_hash())
    model, kept, _ = parsed_size(text)
    _, bare_kept, _ = parsed_size(bare)
    assert len(model.connectors) == 18_336
    assert kept - bare_kept <= 40 * len(model.connectors)


def test_parsed_direct_general_30_model_is_at_most_2_5_mb():
    # the certificate that sets `construct`'s peak: 300 trees, 44,850 pairs
    host = gr.product("direct", gr.complete(30), gr.complete(30))
    text = serialize_model(direct_general_model(30, 30, host), host.content_hash())
    del host
    model, kept, _ = parsed_size(text)
    assert len(model.connectors) == 44_850
    assert kept <= 2_500_000


def test_connector_sweep_holds_about_one_table():
    # the sweep fills the returned table's columns in place: the working
    # peak above the table stays under the 589,912 bytes of the dict it
    # used to return
    bare = OddExpansionModel(K24_MODEL.trees, K24_MODEL.coloring)
    tracemalloc.start()
    try:
        table = monochromatic_connector(K24_DIRECT, bare)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {pair: tuple(sorted(end)) for pair, end in table.items()} == K24_MODEL.connectors
    assert peak - kept < 589_912


# ----------------------------------------------------------------------
# The pair table


def test_pair_table_is_a_read_only_mapping():
    table = OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring,
                              {(0, 2): (4, 0), (1, 2): (2, 3)}).connectors
    assert isinstance(table, Mapping) and len(table) == 2
    assert table[0, 2] == (0, 4) and (0, 1) not in table and table.get((0, 1)) is None
    assert list(table) == [(0, 2), (1, 2)] and list(table.values()) == [(0, 4), (2, 3)]
    assert dict(table) == {(0, 2): (0, 4), (1, 2): (2, 3)} == table
    assert table != {(0, 2): (0, 4)} and table != {(0, 2): (0, 4), (1, 2): (3, 2)}
    for absent in [(0, 1), (2, 1), (0, 3), (-1, 2), (0,), "ab", None, (0, 2.0)]:
        with pytest.raises(KeyError):
            table[absent]
        assert absent not in table
    with pytest.raises(TypeError):
        table[0, 1] = (0, 1)
    with pytest.raises(TypeError):
        del table[0, 2]
    with pytest.raises(AttributeError):
        table._us = []
    with pytest.raises(AttributeError, match="order"):
        del table.order
    assert table.order == 3
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)


def test_pair_table_is_shared_not_copied():
    model = K24_MODEL
    again = OddExpansionModel(model.trees, model.coloring, model.connectors, model.notes)
    assert again.connectors is model.connectors
    # a table with an end pair the other way round is copied as (min, max),
    # and one with an end that is not an int is refused
    reversed_ends = ex.PairTable(3, None, [0, 0, 3], [1, 4, 2])
    made = OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, reversed_ends)
    assert made.connectors is not reversed_ends
    assert made.connectors == {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)}
    with pytest.raises(ParameterError):
        OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring,
                          ex.PairTable(3, None, [0, 0, 2], [1, 4, 3.0]))
    # a table for another number of trees is checked and copied
    fewer = OddExpansionModel(C5_MODEL.trees[:2], C5_MODEL.coloring,
                              OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring,
                                                {(0, 1): (0, 1)}).connectors)
    assert fewer.connectors == {(0, 1): (0, 1)}
    with pytest.raises(ParameterError):
        OddExpansionModel(C5_MODEL.trees[:2], C5_MODEL.coloring,
                          OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring,
                                            {(1, 2): (1, 4)}).connectors)


def test_a_model_shares_the_sweeps_table():
    # the sweep's table is (min, max), as a model's is: the path builder
    # and the oracle hand it over with no copy
    swept = monochromatic_connector(K24_DIRECT, OddExpansionModel(K24_MODEL.trees,
                                                                  K24_MODEL.coloring))
    made = OddExpansionModel(K24_MODEL.trees, K24_MODEL.coloring, swept)
    assert made.connectors is swept and made.connectors == K24_MODEL.connectors


def test_the_sweep_returns_a_full_stored_table_as_is():
    assert monochromatic_connector(K24_DIRECT, K24_MODEL) is K24_MODEL.connectors
    full = OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring,
                             {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (3, 2)})
    assert monochromatic_connector(C5, full) is full.connectors


def test_plain_verify_of_many_trees_on_an_edgeless_host_stays_small():
    # 4,000 singleton trees, 7,998,000 pairs and no host edge: no pair can
    # have a connector, so the sweep allocates no pair-indexed columns
    r = 4000
    model = OddExpansionModel(tuple(branch_tree([v]) for v in range(r)),
                              dict.fromkeys(range(r), 1))
    host = gr.Graph(r, [])
    tracemalloc.start()
    try:
        verdict = verify_odd_expansion(host, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.summary() == ("FAIL connector_missing trees=0,1 "
                                 "no monochromatic edge between trees 0 and 1")
    assert peak <= 3_000_000


K4 = gr.complete(4)


# four singleton trees 0..3, all color 1; on C5 pairs (0, 2), (0, 3) and
# (1, 3) have no monochromatic edge, on K4 every pair has one
@pytest.mark.parametrize("g, stored, strict, expected", [
    # a pair without a connector before a bad stored one
    (C5, {(1, 2): (1, 3)}, True,
     "FAIL connector_missing trees=0,1 strict mode: no stored connector for pair (0,1)"),
    (C5, {(1, 2): (1, 3)}, False,
     "FAIL connector_missing trees=0,2 no monochromatic edge between trees 0 and 2"),
    (C5, {(0, 2): (0, 2)}, True,
     "FAIL connector_missing trees=0,1 strict mode: no stored connector for pair (0,1)"),
    # ... and after one
    (C5, {(0, 1): (0, 1), (0, 2): (0, 2)}, True,
     "FAIL connector_invalid trees=0,2 edges=0-2 stored connector 0-2 is not a host edge"),
    (C5, {(0, 1): (0, 1), (0, 2): (0, 2)}, False,
     "FAIL connector_invalid trees=0,2 edges=0-2 stored connector 0-2 is not a host edge"),
    # the sweep's table, built at pair (0, 1), has pair (0, 1) but not (0, 3)
    (C5, {(0, 2): (0, 2)}, False,
     "FAIL connector_invalid trees=0,2 edges=0-2 stored connector 0-2 is not a host edge"),
    # the sweep's table is full, so no pair is walked after it is built
    (K4, {(1, 2): (1, 3)}, False,
     "FAIL connector_invalid trees=1,2 edges=1-3 stored connector 1-3 does not join "
     "trees 1 and 2"),
    (K4, {(1, 2): (1, 3)}, True,
     "FAIL connector_missing trees=0,1 strict mode: no stored connector for pair (0,1)"),
])
def test_the_first_pair_that_fails_is_named(g, stored, strict, expected):
    model = OddExpansionModel(tuple(branch_tree([v]) for v in range(4)),
                              dict.fromkeys(range(4), 1), stored)
    assert verify_odd_expansion(g, model, strict).summary() == expected
    assert reference_connector_verdict(g, model, strict) == expected


def reference_connector_verdict(g, model, strict):
    """The connector clauses checked pair by pair, from a plain dict of
    the stored connectors, as the verifier did before it read columns."""
    owner = {v: k for k, t in enumerate(model.trees) for v in t.vertices}
    coloring = model.coloring
    stored = dict(model.connectors or {})
    table = None
    for i, j in itertools.combinations(range(len(model.trees)), 2):
        edge = stored.get((i, j))
        if edge is not None:
            u, v = edge
            ou, ov = owner.get(u), owner.get(v)
            if not (ou == i and ov == j or ou == j and ov == i):
                return f"FAIL connector_invalid trees={i},{j} edges={u}-{v} " \
                       f"stored connector {u}-{v} does not join trees {i} and {j}"
            if not g.has_edge(u, v):
                return f"FAIL connector_invalid trees={i},{j} edges={u}-{v} " \
                       f"stored connector {u}-{v} is not a host edge"
            if coloring.get(u) != coloring.get(v):
                return f"FAIL connector_invalid trees={i},{j} edges={u}-{v} " \
                       f"stored connector {u}-{v} is not monochromatic"
            continue
        if strict:
            return f"FAIL connector_missing trees={i},{j} " \
                   f"strict mode: no stored connector for pair ({i},{j})"
        if table is None:
            table = dict(monochromatic_connector(g, model))
        if (i, j) not in table:
            return f"FAIL connector_missing trees={i},{j} " \
                   f"no monochromatic edge between trees {i} and {j}"
    return f"PASS order={len(model.trees)}"


NOT_INTS = (True, 1.0, "a")


@st.composite
def connector_maps(draw):
    """Singleton trees on a small host, a coloring, and stored connectors
    for all the tree pairs or some of them, each end drawn from the tree
    vertices, a vertex in no tree, a negative id and 2**70, in either
    order; now and then one id is a bool, a float or a str."""
    n = draw(st.integers(2, 8))
    g = gr.Graph(n, draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))))))
    verts = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    trees = tuple(branch_tree([v]) for v in verts)
    coloring = {v: draw(st.sampled_from((1, 2))) for v in verts}
    pairs = list(itertools.combinations(range(len(trees)), 2))
    if not draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ends = st.one_of(st.sampled_from(verts), st.integers(-1, n), st.just(2 ** 70))
    connectors = {pair: (draw(ends), draw(ends)) for pair in pairs}
    if connectors and draw(st.integers(0, 4)) == 0:
        pair = draw(st.sampled_from(sorted(connectors)))
        bad = draw(st.sampled_from(NOT_INTS))
        place = draw(st.integers(0, 3))
        key = list(pair)
        end = list(connectors.pop(pair))
        (key if place < 2 else end)[place % 2] = bad
        connectors[tuple(key)] = tuple(end)
    return g, trees, coloring, connectors


@settings(max_examples=300, deadline=None)
@given(connector_maps())
@example((gr.path(2), (branch_tree([0]), branch_tree([1])), {0: 1, 1: 1},
          {(0, 1): (0, 2 ** 70)}))
def test_pair_table_round_trip(case):
    g, trees, coloring, connectors = case
    if any(type(x) is not int for x in itertools.chain(*connectors, *connectors.values())):
        with pytest.raises(ParameterError):
            OddExpansionModel(trees, coloring, connectors)
        return
    model = OddExpansionModel(trees, coloring, connectors)
    assert model.connectors == {pair: gr.norm_edge(*end) for pair, end in connectors.items()}
    assert list(model.connectors) == sorted(connectors)
    again = OddExpansionModel(model.trees, model.coloring, dict(model.connectors))
    assert again == model
    text = serialize_model(model, g.content_hash())
    assert serialize_model(again, g.content_hash()) == text
    # the parser refuses a negative id and a self-loop, which the model holds as claims
    parsed = again
    if all(0 <= u < v for u, v in model.connectors.values()):
        parsed, _ = parse_model(text)
        assert parsed == model and serialize_model(parsed, g.content_hash()) == text
    for strict in (False, True):
        verdict = verify_odd_expansion(g, model, strict).summary()
        assert verify_odd_expansion(g, again, strict).summary() == verdict
        assert verify_odd_expansion(g, parsed, strict).summary() == verdict
        assert verdict == reference_connector_verdict(g, model, strict)


def test_a_huge_end_fails_as_a_connector_that_joins_no_trees():
    model = OddExpansionModel((branch_tree([0]), branch_tree([1])), {0: 1, 1: 1},
                              {(0, 1): (2 ** 70, 0)})
    assert model.connectors == {(0, 1): (0, 2 ** 70)}
    assert verify_odd_expansion(gr.path(2), model).summary() == (
        f"FAIL connector_invalid trees=0,1 edges=0-{2 ** 70} "
        f"stored connector 0-{2 ** 70} does not join trees 0 and 1")


# ----------------------------------------------------------------------
# Verifier contract: a passing certificate survives its serialized form


@pytest.mark.parametrize("vertex", [0, 1])
def test_verifier_rejects_bool_colors(vertex):
    coloring = dict(C5_MODEL.coloring)
    coloring[vertex] = True  # equal to 1, but serializes as "True"
    verdict = verify_odd_expansion(C5, OddExpansionModel(C5_MODEL.trees, coloring))
    assert verdict.clause == "coloring_missing" and verdict.vertices == (vertex,)


def test_verifier_rejects_bool_color_outside_trees():
    model = OddExpansionModel((branch_tree([0]),), {0: 1, 3: True})
    assert verify_odd_expansion(C5, model).clause == "coloring_missing"


def _c5_with(trees=C5_MODEL.trees, coloring=C5_MODEL.coloring, connectors=None):
    return OddExpansionModel(trees, coloring, connectors)


# Ids that are not plain ints, and connector keys that are not tree pairs.
# Some equal a passing certificate by value but would serialize an id as
# "True" or "2.0"; some do not compare with ints at all.
@pytest.mark.parametrize("make", [
    lambda: _c5_with(trees=(C5_MODEL.trees[0], branch_tree([True, 2], [(1, 2)]),
                            C5_MODEL.trees[2])),
    lambda: _c5_with(trees=(C5_MODEL.trees[0], branch_tree([1, 2.0], [(1, 2)]),
                            C5_MODEL.trees[2])),
    lambda: _c5_with(trees=(C5_MODEL.trees[0], branch_tree([1, 2], [(True, 2)]),
                            C5_MODEL.trees[2])),
    lambda: _c5_with(coloring={0: 1, True: 1, 2: 2, 3: 2, 4: 1}),
    lambda: _c5_with(connectors={(0, 1): (0, True)}),
    lambda: _c5_with(connectors={(0, True): (0, 1)}),
    lambda: OddExpansionModel((branch_tree(["a", 1]),), {1: 1}),
    lambda: OddExpansionModel((BranchTree(frozenset({"a", 1, 2}), frozenset({(1, 2), ("a", 1)})),),
                              {1: 1, 2: 2}),
    lambda: OddExpansionModel((BranchTree(frozenset({"a", 1}), frozenset({("a", 1)})),), {1: 1}),
    lambda: OddExpansionModel((branch_tree([0]), branch_tree([2])), {0: 1, "x": 1, 2: 1}),
    lambda: _c5_with(connectors={(0, "b"): (0, 1)}),
    lambda: _c5_with(connectors={("b", 0): (0, 1), (7, 0): (0, 1)}),
    lambda: _c5_with(connectors={(0, 1): (0, "b")}),
    lambda: _c5_with(connectors={(0, 1): (0, 1), (0, "b"): (0, 1)}),
    lambda: _c5_with(coloring={**C5_MODEL.coloring, "x": 1}),
    lambda: _c5_with(connectors={(0, 7): (0, 1)}),
    lambda: _c5_with(connectors={(1, 0): (0, 1)}),
    lambda: _c5_with(connectors={(1, 1): (1, 2)}),
    lambda: _c5_with(connectors={(-1, 0): (0, 1)}),
], ids=["bool-tree-vertex", "float-tree-vertex", "bool-tree-edge-end", "bool-color-key",
        "bool-connector-end", "bool-connector-key", "str-tree-vertex", "str-tree-edge-as-stored",
        "str-tree-edge", "str-color-key", "str-connector-key", "connector-keys-str-and-int",
        "str-connector-end", "str-connector-key-among-ints", "str-color-key-among-ints",
        "connector-key-past-last-tree",
        "connector-key-reversed", "connector-key-one-tree", "connector-key-negative"])
def test_model_refuses_ids_that_are_not_ints(make):
    with pytest.raises(ParameterError):
        make()


@pytest.mark.parametrize("note", ["a\nb", "a\r\nb", "x\u2028y", "end\n", "\x0b", "\n"])
def test_note_with_a_line_break_is_refused(note):
    with pytest.raises(ParameterError):
        OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, (note,))


# the parser strips a `meta:` line, so such a note would not round-trip
@pytest.mark.parametrize("note", [" padded ", " lead", "trail\t", " ", "\tx"])
def test_note_with_whitespace_at_an_end_is_refused(note):
    with pytest.raises(ParameterError, match="leading or trailing whitespace"):
        OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, (note,))


def test_note_round_trips():
    model = OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, ("from: a = b", ""))
    assert parse_model(serialize_model(model, C5.content_hash()))[0] == model


def test_note_that_is_not_a_str_is_refused():
    with pytest.raises(ParameterError, match="is not a str"):
        OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, (5,))


def test_note_of_bytes_is_refused():
    # it would serialize as "meta: b'x'" and parse back as another model
    with pytest.raises(ParameterError, match="is not a str"):
        OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, (b"x",))


def test_notes_that_are_one_str_are_refused():
    # a bare str would become one note per character
    with pytest.raises(ParameterError, match="one str"):
        OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, "ab")


@st.composite
def perturbed_certificates(draw):
    """An oracle certificate on a small host with an odd cycle, then
    perturbed: stored connectors dropped or given keys out of range or of
    type str, colors replaced by values of other types, extra colored
    vertices (True and "x" among them), vertex 1 renamed True or "a", notes
    drawn with and without line breaks and spaces.  Returns the host, the
    model's fields, and whether they hold an id that is not an int or a
    connector key that is not a tree pair, since the model refuses those,
    and a note with a line break or with whitespace at an end, when it is
    made."""
    n = draw(st.integers(3, 7))
    extra = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    g = gr.graph_from_edges(n, extra | {(0, 1), (1, 2), (0, 2)})
    model = has_odd_clique_minor(g, draw(st.integers(1, 3)))
    r = model.clique_order
    coloring = dict(model.coloring)
    connectors = None if draw(st.booleans()) else dict(model.connectors)
    spoiled = False
    if connectors is not None and draw(st.booleans()):
        key = st.one_of(st.integers(0, r + 2), st.just("b"))
        i, j = draw(key), draw(key)
        connectors[(i, j)] = draw(st.sampled_from(sorted(g.edges)))
        spoiled = not (type(i) is type(j) is int and 0 <= i < j < r)
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.one_of(st.integers(-1, n + 1), st.sampled_from((True, "x"))))
        coloring[v] = draw(st.sampled_from((1, 2, True, False, 0, 3, 1.0)))
    trees = model.trees
    rename = draw(st.sampled_from((1, True, "a")))
    trees = tuple(BranchTree(frozenset(rename if v == 1 else v for v in t.vertices), t.edges)
                  for t in trees)
    notes = draw(st.lists(st.text(st.sampled_from("a :=\t\n\r\u2028\x85"), max_size=3),
                          max_size=2))
    # True drawn as a colored vertex next to vertex 1 keeps the int key 1
    ids = [*coloring, *(v for t in trees for v in t.vertices)]
    spoiled = spoiled or any(type(v) is not int for v in ids)
    return g, (trees, coloring, connectors, tuple(notes)), spoiled


@settings(max_examples=100, deadline=None)
@given(perturbed_certificates(), st.booleans())
def test_passing_certificate_survives_round_trip(case, strict):
    g, fields, spoiled = case
    refuse = spoiled or any(note.splitlines() not in ([], [note]) or note != note.strip()
                            for note in fields[3])
    try:
        model = OddExpansionModel(*fields)
    except ParameterError:
        assert refuse
        return
    assert not refuse
    if not verify_odd_expansion(g, model, strict).passed:
        return
    text = serialize_model(model, g.content_hash())
    parsed, graph_hash = parse_model(text)
    assert graph_hash == g.content_hash()
    assert parsed == model and serialize_model(parsed, graph_hash) == text
    assert verify_odd_expansion(g, parsed, strict).passed
