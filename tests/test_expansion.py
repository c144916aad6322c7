import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddminors import graphs as gr
from oddminors.errors import ParameterError, ParseError
from oddminors.expansion import (BranchTree, OddExpansionModel, branch_tree,
                                 least_monochromatic_edge,
                                 monochromatic_connector, parse_model,
                                 serialize_model, verify_odd_expansion)
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


def test_color_swap_invariance():
    assert verify_odd_expansion(C5, C5_MODEL.with_swapped_colors()).passed
    stored = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                               {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)})
    assert verify_odd_expansion(C5, stored.with_swapped_colors(), strict=True).passed


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


def test_parse_rejects_out_of_range_connector_pairs():
    model = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring),
                              {(0, 1): (0, 1), (0, 2): (0, 4), (1, 2): (2, 3)})
    text = serialize_model(model, C5.content_hash())
    with pytest.raises(ParseError):
        parse_model(text.replace("0,1=", "0,9="))


def test_connector_lookup_orientation():
    assert monochromatic_connector(C5, C5_MODEL, 0, 1) == (0, 1)
    assert monochromatic_connector(C5, C5_MODEL, 1, 0) == (1, 0)
    assert monochromatic_connector(C5, C5_MODEL, 0, 2) == (0, 4)
    with pytest.raises(LookupError):
        broken = OddExpansionModel(
            (branch_tree([0]), branch_tree([2])), {0: 1, 2: 1})
        monochromatic_connector(C5, broken, 0, 1)


# ----------------------------------------------------------------------
# Connector kernel


@st.composite
def connector_cases(draw):
    """A host on up to 10 vertices, two disjoint non-empty trees (vertex sets
    only: the kernel reads nothing else) and a coloring of the tree vertices."""
    n = draw(st.integers(2, 10))
    edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    order = draw(st.permutations(range(n)))
    size_a = draw(st.integers(1, n - 1))
    a, b = order[:size_a], order[size_a:size_a + draw(st.integers(1, n - size_a))]
    coloring = {v: draw(st.sampled_from((1, 2))) for v in a + b}
    return gr.Graph(n, frozenset(edges)), branch_tree(a), branch_tree(b), coloring


def brute_least_monochromatic_edge(g, a, b, coloring):
    return min((e for e in g.edges
                if {e[0] in a.vertices, e[1] in a.vertices} == {True, False}
                and (e[0] in b.vertices or e[1] in b.vertices)
                and coloring[e[0]] == coloring[e[1]]), default=None)


@settings(max_examples=200, deadline=None)
@given(connector_cases())
# a dense host with small trees: the pair scan
@example((gr.complete(6), branch_tree([0, 4]), branch_tree([1, 5]),
          {0: 1, 4: 2, 1: 2, 5: 2}))
# a sparse host with large trees: the neighbour walk
@example((gr.path(8), branch_tree([4, 5, 6, 7]), branch_tree([0, 1, 2, 3]),
          {v: 1 + v % 2 for v in range(8)}))
def test_least_monochromatic_edge_matches_brute_force(case):
    g, a, b, coloring = case
    want = brute_least_monochromatic_edge(g, a, b, coloring)
    assert least_monochromatic_edge(g, a, b, coloring) == want
    assert least_monochromatic_edge(g, b, a, coloring) == want
    # adjacency lists are built only by the neighbour walk, which is taken
    # when the larger tree has more vertices than the host's average degree
    walked = "_adj" in vars(g)
    assert walked == (max(len(a.vertices), len(b.vertices)) * g.n > 2 * g.m)


def test_connector_kernel_picks_its_loop_by_size():
    dense = gr.product("direct", gr.complete(6), gr.complete(6))
    pair = (branch_tree([0, 7]), branch_tree([14, 21]))
    assert least_monochromatic_edge(dense, *pair, {0: 1, 7: 2, 14: 1, 21: 2}) == (0, 14)
    assert "_adj" not in vars(dense)
    sparse = gr.cycle(40)
    halves = (branch_tree(range(20)), branch_tree(range(20, 40)))
    assert least_monochromatic_edge(sparse, *halves, {v: 1 for v in range(40)}) == (0, 39)
    assert "_adj" in vars(sparse)


# ----------------------------------------------------------------------
# Verifier contract: a passing certificate survives its serialized form


def test_verifier_rejects_connector_key_outside_tree_pairs():
    model = OddExpansionModel(C5_MODEL.trees, dict(C5_MODEL.coloring), {(0, 7): (0, 1)})
    verdict = verify_odd_expansion(C5, model)
    assert verdict.clause == "connector_invalid" and verdict.trees == (0, 7)
    with pytest.raises(ParseError):
        parse_model(serialize_model(model, C5.content_hash()))


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


# Each of these equals a passing certificate by value, but serializes an id
# as "True" or "2.0", which the parser rejects.
@pytest.mark.parametrize("model, clause", [
    (_c5_with(trees=(C5_MODEL.trees[0], branch_tree([True, 2], [(1, 2)]), C5_MODEL.trees[2])),
     "tree_shape"),
    (_c5_with(trees=(C5_MODEL.trees[0], branch_tree([1, 2.0], [(1, 2)]), C5_MODEL.trees[2])),
     "tree_shape"),
    (_c5_with(trees=(C5_MODEL.trees[0], branch_tree([1, 2], [(True, 2)]), C5_MODEL.trees[2])),
     "tree_shape"),
    (_c5_with(coloring={0: 1, True: 1, 2: 2, 3: 2, 4: 1}), "coloring_missing"),
    (_c5_with(connectors={(0, 1): (0, True)}), "connector_invalid"),
    (_c5_with(connectors={(0, True): (0, 1)}), "connector_invalid"),
])
def test_verifier_rejects_ids_that_are_not_plain_ints(model, clause):
    assert verify_odd_expansion(C5, model).clause == clause
    with pytest.raises(ParseError):
        parse_model(serialize_model(model, C5.content_hash()))


@pytest.mark.parametrize("note", ["a\nb", "a\r\nb", "x\u2028y", "end\n", "\x0b", "\n"])
def test_note_with_a_line_break_is_refused(note):
    with pytest.raises(ParameterError):
        OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, (note,))


def test_note_round_trips():
    model = OddExpansionModel(C5_MODEL.trees, C5_MODEL.coloring, None, ("from: a = b", ""))
    assert parse_model(serialize_model(model, C5.content_hash()))[0] == model


@st.composite
def perturbed_certificates(draw):
    """An oracle certificate on a small host with an odd cycle, then
    perturbed: stored connectors dropped or given keys out of range, colors
    replaced by values of other types, extra colored vertices, vertex 1
    renamed True, notes drawn with and without line breaks.  Returns the
    host and the model's fields, since a note with a line break is refused
    when the model is made."""
    n = draw(st.integers(3, 7))
    extra = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    g = gr.graph_from_edges(n, extra | {(0, 1), (1, 2), (0, 2)})
    model = has_odd_clique_minor(g, draw(st.integers(1, 3)))
    r = model.clique_order
    coloring = dict(model.coloring)
    connectors = None if draw(st.booleans()) else dict(model.connectors)
    if connectors is not None and draw(st.booleans()):
        i, j = draw(st.integers(0, r + 2)), draw(st.integers(0, r + 2))
        connectors[(i, j)] = draw(st.sampled_from(sorted(g.edges)))
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.one_of(st.integers(-1, n + 1), st.just(True)))
        coloring[v] = draw(st.sampled_from((1, 2, True, False, 0, 3, 1.0)))
    trees = model.trees
    if draw(st.booleans()):
        trees = tuple(BranchTree(frozenset(True if v == 1 else v for v in t.vertices), t.edges)
                      for t in trees)
    notes = draw(st.lists(st.text(st.sampled_from("a :=\n\r\u2028\x85"), max_size=3),
                          max_size=2))
    return g, (trees, coloring, connectors, tuple(notes))


@settings(max_examples=100, deadline=None)
@given(perturbed_certificates(), st.booleans())
def test_passing_certificate_survives_round_trip(case, strict):
    g, fields = case
    try:
        model = OddExpansionModel(*fields)
    except ParameterError:
        assert any(note.splitlines() not in ([], [note]) for note in fields[3])
        return
    if not verify_odd_expansion(g, model, strict).passed:
        return
    parsed, graph_hash = parse_model(serialize_model(model, g.content_hash()))
    assert graph_hash == g.content_hash()
    assert verify_odd_expansion(g, parsed, strict).passed
