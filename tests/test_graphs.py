import hashlib
import importlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddminors import graphs as gr
from oddminors.errors import ParameterError, ParseError, StructureError


def test_named_families_basic():
    k3 = gr.make_named_graph("complete", [3])
    assert k3.n == 3 and k3.m == 3
    s4 = gr.make_named_graph("star", [4])
    assert s4.n == 5 and s4.m == 4
    assert all(0 in e for e in s4.edges)
    c5 = gr.make_named_graph("cycle", [5])
    assert c5.m == 5 and all(len(c5.neighbors(v)) == 2 for v in range(5))
    p1 = gr.make_named_graph("path", [1])
    assert p1.n == 1 and p1.m == 0


def test_named_family_errors():
    with pytest.raises(ParameterError):
        gr.make_named_graph("cycle", [2])
    with pytest.raises(ParameterError):
        gr.make_named_graph("complete", [0])
    with pytest.raises(ParameterError):
        gr.make_named_graph("star", [-1])
    with pytest.raises(ParameterError):
        gr.make_named_graph("banana", [3])
    with pytest.raises(ParameterError):
        gr.make_named_graph("hamming", [3])
    with pytest.raises(ParameterError, match="path needs n >= 1, got 0"):
        gr.make_named_graph("path", [0])
    for n, d in [(0, 2), (2, 0)]:
        with pytest.raises(ParameterError, match=fr"hamming needs n >= 1 and d >= 1, got \({n}, {d}\)"):
            gr.make_named_graph("hamming", [n, d])


def test_graph_validation():
    with pytest.raises(ParameterError):
        gr.Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ParameterError):
        gr.Graph(3, [(1, 1)])
    g = gr.Graph(3, [(2, 0)])
    assert g.edges == frozenset({(0, 2)})


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 1)],
    [(1, 2), (0, 1), (1, 2), (0, 2), (1, 2)],
    [(300, 400), (5, 400), (300, 400), (5, 300), (5, 400)],  # ids above 256
])
def test_graph_counts_a_repeated_pair_once(edges):
    g = gr.Graph(401, edges)
    assert g == gr.Graph(401, set(edges)) and g.m == len(set(edges))
    assert g.canonical_text() == f"401 {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(set(edges)))
    assert gr.read_graph_text(g.canonical_text()) == g


def test_has_edges_agrees_with_has_edge():
    # ends out of range, negative, past every row and above 2**63 included
    g = gr.Graph(6, {(0, 1), (0, 5), (1, 2), (2, 5), (3, 4)})
    ends = [-1, *range(7), 2 ** 70]
    us, vs = zip(*[(u, v) for u in ends for v in ends if u <= v])
    assert list(g.has_edges(us, vs)) == [g.has_edge(u, v) for u, v in zip(us, vs)]
    assert sum(g.has_edges(us, vs)) == g.m


@pytest.mark.parametrize("n, edges", [
    (3, {(False, True)}),  # compares equal to (0, 1) but renders "False True"
    (3, {(0, True)}),
    (3, {(0.0, 1.5)}),
    (3, {(0, 2.0)}),
    (True, frozenset()),
    (2.0, frozenset()),
])
def test_graph_refuses_ids_that_are_not_ints(n, edges):
    with pytest.raises(ParameterError):
        gr.Graph(n, frozenset(edges))


@pytest.mark.parametrize("build", [gr.Graph])
@pytest.mark.parametrize("edge", [(0, 1, 2), 5, (1,), (1, 1)])
def test_graph_refuses_an_edge_that_is_not_a_pair(build, edge):
    with pytest.raises(ParameterError, match=r"bad edge .* \(need two distinct ints in 0\.\.n-1\)"):
        build(3, frozenset({edge}))


def one_object_per_id(g):
    """Whether the edges of g hold one int object per vertex id."""
    ends = [x for e in g.edges for x in e]
    return len({id(x) for x in ends}) == len(set(ends))


# CPython caches the ints up to 256 only, so these hosts need shared ids
@pytest.mark.parametrize("kind", gr.PRODUCT_KINDS)
def test_product_shares_one_int_per_vertex(kind):
    g = gr.product(kind, gr.complete(20), gr.complete(20))
    assert g.n == 400 and one_object_per_id(g)


def test_complete_shares_one_int_per_vertex():
    assert one_object_per_id(gr.complete(300))


def refuse(*args):
    raise AssertionError("switched off")


def read_in_bulk(text):
    """`read_graph_text(text)` with the line loop and the renderer switched
    off: only the bulk path can read it, and the graph must know its digest
    from the input, without a render."""
    with mock.patch.object(gr, "_read_lines", refuse), mock.patch.object(gr.Graph, "_pieces", refuse):
        g = gr.read_graph_text(text)
        assert g.content_hash() == hashlib.sha256(text.encode("ascii")).hexdigest()
    return g


def test_read_canonical_text_shares_one_int_per_vertex(monkeypatch):
    built = gr.product("direct", gr.complete(3), gr.complete(100))
    text = built.canonical_text()
    monkeypatch.setattr(gr, "_CHUNK", 64)  # about eight lines a chunk, so rows span chunks
    g = read_in_bulk(text)
    assert g == built and one_object_per_id(g)


def test_product_id_rows_grow_with_edges_not_vertices():
    # two edges on 8M vertices: a row per first-factor vertex with an entry
    # per second-factor vertex would take tens of MB here
    sparse = gr.Graph(4_000_000, frozenset({(0, 1)}))
    tracemalloc.start()
    try:
        g = gr.product("direct", gr.complete(2), sparse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 8_000_000 and g.edges == {(0, 4_000_001), (1, 4_000_000)}
    assert peak < 64 * 1024


def test_canonical_text_names_only_the_ends_of_edges():
    # two edges on 4M vertices: a decimal name per vertex would take about
    # 280 MB here
    g = gr.product("direct", gr.complete(2), gr.Graph(2_000_000, {(0, 1)}))
    tracemalloc.start()
    try:
        text = g.canonical_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "4000000 2\n0 2000001\n1 2000000\n"
    assert peak < 1024 * 1024


@st.composite
def edge_sets(draw):
    """A vertex count and a frozenset of (u, v) pairs with u < v, some of
    them with ids above 256, where CPython no longer shares int objects;
    most vertices of the larger graphs are isolated."""
    n = draw(st.one_of(st.integers(0, 30), st.integers(250, 270)))
    if n < 2:
        return n, frozenset()
    ends = st.integers(0, n - 1)
    pairs = st.tuples(ends, ends).filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
    return n, draw(st.frozensets(pairs, max_size=80))


def sorted_edges_text(n, edges):
    """The canonical text from one sort of all edge tuples."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


@settings(max_examples=60, deadline=None)
@given(edge_sets())
def test_row_storage_matches_a_frozenset_reference(case):
    n, ref = case
    g = gr.Graph(n, ref)
    assert g.edges == ref and g.m == len(ref)
    assert [g.has_edge(u, v) for u in range(n) for v in range(n)] == [
        (min(u, v), max(u, v)) in ref for u in range(n) for v in range(n)]
    nbrs = {v: set() for v in range(n)}
    for u, v in ref:
        nbrs[u].add(v)
        nbrs[v].add(u)
    assert [g.neighbors(v) for v in range(n)] == [tuple(sorted(nbrs[v])) for v in range(n)]
    text = g.canonical_text()
    assert text == sorted_edges_text(n, ref)
    again = read_in_bulk(text)
    assert again == g and hash(again) == hash(g)


def test_hamming_equals_iterated_cartesian_product():
    k3 = gr.complete(3)
    assert gr.hamming(3, 2).edges == gr.product("cartesian", k3, k3).edges
    p2 = gr.product("cartesian", gr.product("cartesian", k3, k3), k3)
    assert gr.hamming(3, 3).edges == p2.edges
    assert gr.hamming(3, 2).n == 9 and gr.hamming(3, 2).m == 18


def test_product_small_cases():
    k2 = gr.complete(2)
    c4 = gr.product("cartesian", k2, k2)
    assert sorted(c4.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    matching = gr.product("direct", k2, k2)
    assert sorted(matching.edges) == [(0, 3), (1, 2)]
    k3 = gr.complete(3)
    strong = gr.product("strong", k3, k3)
    lex = gr.product("lexicographic", k3, k3)
    assert strong.n == 9 and strong.m == 36
    assert lex.m == 36


def test_product_kind_error():
    with pytest.raises(ParameterError):
        gr.product("box", gr.complete(2), gr.complete(2))


# Each family and product knows its edge count before it builds an edge.
CAPPED = {
    "complete": lambda: gr.complete(9),
    "star": lambda: gr.star(7),
    "cycle": lambda: gr.cycle(7),
    "path": lambda: gr.path(8),
    "hamming": lambda: gr.hamming(3, 3),
    **{kind: (lambda kind=kind: gr.product(kind, gr.cycle(5), gr.path(3)))
       for kind in gr.PRODUCT_KINDS},
}


@pytest.mark.parametrize("build", CAPPED.values(), ids=CAPPED.keys())
def test_edge_cap_counts_exactly(monkeypatch, build):
    m = build().m
    monkeypatch.setattr(gr, "MAX_EDGES", m)
    assert build().m == m
    monkeypatch.setattr(gr, "MAX_EDGES", m - 1)
    with pytest.raises(ParameterError):
        build()


SAMPLE_FACTORS = [
    gr.complete(2), gr.complete(3), gr.cycle(4), gr.cycle(5),
    gr.path(3), gr.star(2),
]


@pytest.mark.parametrize("g,h", list(itertools.product(SAMPLE_FACTORS, repeat=2)))
def test_strong_is_union_of_cartesian_and_direct(g, h):
    cart = gr.product("cartesian", g, h)
    direct = gr.product("direct", g, h)
    strong = gr.product("strong", g, h)
    assert strong.edges == cart.edges | direct.edges
    assert strong.edges <= gr.product("lexicographic", g, h).edges


@pytest.mark.parametrize("kind", ["cartesian", "direct", "strong"])
@pytest.mark.parametrize("g,h", [(gr.cycle(4), gr.complete(3)),
                                 (gr.path(3), gr.star(2))])
def test_product_commutes_up_to_coordinate_swap(kind, g, h):
    gh = gr.product(kind, g, h)
    hg = gr.product(kind, h, g)
    swapped = set()
    for x, y in gh.edges:
        a1, b1 = divmod(x, h.n)
        a2, b2 = divmod(y, h.n)
        swapped.add(gr.norm_edge(gr.flatten(b1, a1, g.n), gr.flatten(b2, a2, g.n)))
    assert swapped == set(hg.edges)


def test_lexicographic_is_not_coordinate_symmetric():
    g, h = gr.path(3), gr.complete(2)
    gh = gr.product("lexicographic", g, h)
    hg = gr.product("lexicographic", h, g)
    assert gh.m != hg.m


def test_bipartite_examples():
    assert gr.find_odd_cycle(gr.cycle(4)) is None
    forest = gr._bfs_forest(gr.cycle(4), range(4))
    assert [v for v in range(4) if forest[v][1] & 1] == [1, 3]
    assert gr.find_odd_cycle(gr.cycle(5)) == [0, 1, 2, 3, 4]
    assert gr.find_odd_cycle(gr.Graph(3, frozenset())) is None


def nx_components(g):
    """g's connected components by networkx, the tests' reference, each
    sorted, in the order of their least vertices."""
    theirs = nx.empty_graph(g.n)
    theirs.add_edges_from(g.edges)
    return sorted(map(sorted, nx.connected_components(theirs)))


# One product host per kind on a bipartite and on a non-bipartite factor
# pair; the direct one of the bipartite pair is disconnected.
PRODUCT_HOSTS = [gr.product(kind, g, h) for kind in gr.PRODUCT_KINDS
                 for g, h in [(gr.path(3), gr.cycle(3)), (gr.cycle(4), gr.star(2))]]


@pytest.mark.parametrize("g", SAMPLE_FACTORS + [gr.hamming(2, 3), gr.star(5)] + PRODUCT_HOSTS)
def test_bipartition_has_no_intra_part_edges(g):
    cyc = gr.find_odd_cycle(g)
    if cyc is not None:
        assert len(cyc) % 2 == 1
        assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        return
    # None rests on this witness: the BFS forest's depth parities 2-colour g
    forest = gr._bfs_forest(g, range(g.n))
    assert set(forest) == set(range(g.n))
    for u, v in g.edges:
        assert forest[u][1] & 1 != forest[v][1] & 1


@pytest.mark.parametrize("g", [gr.cycle(4), gr.cycle(6), gr.path(4), gr.cycle(5),
                               gr.complete(4), gr.star(3)])
def test_double_cover_component_count(g):
    # Secondary cross-check: for connected g, the direct product with a
    # single edge doubles the component count exactly when g is bipartite.
    assert len(gr.spanning_tree(g, range(g.n))) == g.n - 1
    cover = gr.product("direct", g, gr.complete(2))
    expected = 2 if gr.find_odd_cycle(g) is None else 1
    assert len(nx_components(cover)) == expected


def test_find_odd_cycle_shape():
    for g in [gr.cycle(5), gr.cycle(7), gr.complete(4),
              gr.product("strong", gr.cycle(5), gr.path(2))]:
        cyc = gr.find_odd_cycle(g)
        assert cyc is not None and len(cyc) % 2 == 1 and len(cyc) >= 3
        assert len(set(cyc)) == len(cyc)
        for a, b in zip(cyc, cyc[1:]):
            assert g.has_edge(a, b)
        assert g.has_edge(cyc[-1], cyc[0])
    assert gr.find_odd_cycle(gr.cycle(8)) is None


def test_spanning_tree_examples():
    k3 = gr.complete(3)
    assert gr.spanning_tree(k3, [0, 1, 2]) == frozenset({(0, 1), (0, 2)})
    assert gr.spanning_tree(gr.path(6), [5]) == frozenset()
    assert gr.spanning_tree(gr.cycle(4), [0, 1, 2, 3]) == frozenset({(0, 1), (0, 3), (1, 2)})
    with pytest.raises(ParameterError, match="non-empty vertex set"):
        gr.spanning_tree(k3, [])
    for v in (-1, 3):
        with pytest.raises(ParameterError, match=f"vertex {v} outside host graph of order 3"):
            gr.spanning_tree(k3, [0, v])


@pytest.mark.parametrize("g,verts", [
    (gr.cycle(7), range(7)),
    (gr.complete(5), [1, 2, 4]),
    (gr.hamming(3, 2), range(9)),
    (gr.product("strong", gr.cycle(5), gr.complete(2)), range(10)),
] + [(g, comp) for g in PRODUCT_HOSTS for comp in nx_components(g)])
def test_spanning_tree_is_spanning_acyclic_connected(g, verts):
    verts = list(verts)
    tree = gr.spanning_tree(g, verts)
    assert len(tree) == len(verts) - 1
    assert tree <= g.edges
    seen = {verts[0]}
    frontier = [verts[0]]
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while frontier:
        u = frontier.pop()
        for w in adj.get(u, []):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert seen == set(verts)


def test_spanning_tree_disconnected_reports_separated_vertex():
    g = gr.Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(StructureError) as exc:
        gr.spanning_tree(g, [0, 1, 2, 3])
    assert "2" in str(exc.value)


def test_graph_text_round_trip_and_canonical_bytes():
    g = gr.product("strong", gr.cycle(5), gr.complete(2))
    text = gr.write_graph_text(g)
    again = gr.read_graph_text(text)
    assert again == g
    assert gr.write_graph_text(again) == text
    assert text.splitlines()[0] == f"{g.n} {g.m}"


def test_content_hash_is_computed_once():
    g = gr.complete(5)
    first = g.content_hash()
    assert first == hashlib.sha256(g.canonical_text().encode("ascii")).hexdigest()
    assert g.content_hash() is first


# a build without the interpreter's own SHA-256 modules: `graphs` takes
# `hashlib`'s, and a render and both read paths digest as before
FALLBACK_PROBE = """
import sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
import hashlib
from oddminors import graphs as gr
assert gr.sha256 is hashlib.sha256
text = gr.complete(150).canonical_text()
assert len(text) > 3 * gr._CHUNK
want = hashlib.sha256(text.encode()).hexdigest()
assert gr.complete(150).content_hash() == want
assert gr.read_graph_text(text).content_hash() == want
assert gr.read_graph_text(text.replace("\\n", "\\r\\n")).content_hash() == want
print("ok")
"""


def test_digests_use_the_interpreters_sha256_else_hashlibs():
    builtin = "_sha256" if sys.version_info < (3, 12) else "_sha2"
    assert gr.sha256 is importlib.import_module(builtin).sha256
    src = str(Path(gr.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FALLBACK_PROBE], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_graph_text_parse_errors():
    with pytest.raises(ParseError):
        gr.read_graph_text("")
    with pytest.raises(ParseError):
        gr.read_graph_text("3\n")
    with pytest.raises(ParseError):
        gr.read_graph_text("2 1\n0 0\n")
    with pytest.raises(ParseError):
        gr.read_graph_text("2 2\n0 1\n")
    with pytest.raises(ParseError):
        gr.read_graph_text("-1 0")
    err = None
    try:
        gr.read_graph_text("3 1\n0 5\n")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 2


@pytest.mark.parametrize("text, field, line, offset", [
    ("3 2\n\n0 1\n0 0\n", "edges[1]", 4, 9),
    ("3 2\r\n0 1\r\n0 0\r\n", "edges[1]", 3, 10),
    ("3 2\r\n0 1\r\n", "edges", 2, 5),
], ids=["after-blank-line", "crlf", "edge-count"])
def test_graph_text_errors_name_the_line_at_fault(text, field, line, offset):
    with pytest.raises(ParseError) as exc:
        gr.read_graph_text(text)
    assert (exc.value.field, exc.value.line, exc.value.offset) == (field, line, offset)
