"""Differential tests of `graphs` against networkx: the four products under
the flattening a*|V(H)| + b, Hamming graphs against a test-local reference,
and bipartiteness (by `find_odd_cycle`) and connectivity (by
`spanning_tree`) on the product hosts.  The canonical text of those graphs,
of the named families and of random graphs is checked against a test-local
reference renderer."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddminors import graphs as gr
from oddminors.errors import StructureError

NX_PRODUCTS = {
    "cartesian": nx.cartesian_product,
    "direct": nx.tensor_product,
    "lexicographic": nx.lexicographic_product,
    "strong": nx.strong_product,
}

# K1, an edgeless graph, complete, non-complete regular and non-regular
# factors (the paw is a triangle with a pendant vertex).
FACTORS = {
    "K1": gr.complete(1),
    "E3": gr.Graph(3, frozenset()),
    "K2": gr.complete(2),
    "K3": gr.complete(3),
    "P4": gr.path(4),
    "C5": gr.cycle(5),
    "S3": gr.star(3),
    "paw": gr.graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
}

PAIRS = list(itertools.product(FACTORS, repeat=2))

# Products on more than 257 vertices have ids that CPython does not cache,
# so only the per-row id tables share them; the paw with isolated vertices
# and the edgeless factor leave some rows and blocks empty.
LARGE_FACTORS = {
    "K17": gr.complete(17),
    "C17": gr.cycle(17),
    "S16": gr.star(16),
    "paw+13": gr.graph_from_edges(17, [(0, 1), (1, 2), (0, 2), (2, 16)]),
    "E150": gr.Graph(150, frozenset()),
    "P300": gr.path(300),
}
LARGE_PAIRS = [("K17", "paw+13"), ("paw+13", "C17"), ("C17", "S16"), ("S16", "K17"),
               ("E150", "K2"), ("K2", "E150"), ("K1", "P300"), ("P300", "K1")]
ALL_FACTORS = {**FACTORS, **LARGE_FACTORS}


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def flattened_edges(prod, nh):
    return {gr.norm_edge(a1 * nh + b1, a2 * nh + b2) for (a1, b1), (a2, b2) in prod.edges}


def reference_text(g):
    """The canonical text from one sort of all edge tuples."""
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


@pytest.mark.parametrize("kind", sorted(NX_PRODUCTS))
@pytest.mark.parametrize("first,second", PAIRS + LARGE_PAIRS)
def test_product_matches_networkx(kind, first, second):
    g, h = ALL_FACTORS[first], ALL_FACTORS[second]
    ours = gr.product(kind, g, h)
    theirs = NX_PRODUCTS[kind](to_nx(g), to_nx(h))
    assert ours.n == theirs.number_of_nodes() == g.n * h.n
    assert ours.edges == flattened_edges(theirs, h.n)
    assert ours.canonical_text() == reference_text(ours)


def hamming_reference(n, d):
    """Tuples over 0..n-1 of length d, adjacent at Hamming distance 1,
    flattened in mixed radix n with the first coordinate most significant."""
    words = list(itertools.product(range(n), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    edges = {(index[x], index[y]) for x, y in itertools.combinations(words, 2)
             if sum(a != b for a, b in zip(x, y)) == 1}
    return len(words), edges


@pytest.mark.parametrize("n,d", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)])
def test_hamming_matches_reference(n, d):
    g = gr.hamming(n, d)
    order, edges = hamming_reference(n, d)
    assert g.n == order
    assert g.edges == edges
    assert g.canonical_text() == reference_text(g)


HOSTS = {f"{kind}-{a}-{b}": gr.product(kind, FACTORS[a], FACTORS[b])
         for kind in sorted(NX_PRODUCTS) for a, b in PAIRS
         if FACTORS[a].n * FACTORS[b].n <= 16}


@pytest.mark.parametrize("name", HOSTS)
def test_structure_matches_networkx(name):
    g = HOSTS[name]
    theirs = to_nx(g)
    assert (gr.find_odd_cycle(g) is None) == nx.is_bipartite(theirs)
    comps = list(nx.connected_components(theirs))
    for comp in comps:
        assert len(gr.spanning_tree(g, comp)) == len(comp) - 1
    if len(comps) > 1:
        with pytest.raises(StructureError):
            gr.spanning_tree(g, range(g.n))


@pytest.mark.parametrize("g", [gr.Graph(0, frozenset()), gr.complete(1), gr.Graph(5, frozenset()),
                               gr.complete(12), gr.star(11), gr.cycle(13), gr.path(12)],
                         ids=["K0", "K1", "E5", "K12", "S11", "C13", "P12"])
def test_canonical_text_matches_reference(g):
    assert g.canonical_text() == reference_text(g)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(0, 40))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=120)) if pairs else set()
    return gr.Graph(n, frozenset(edges))


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_canonical_text_of_random_graphs_matches_reference(g):
    assert g.canonical_text() == reference_text(g)
