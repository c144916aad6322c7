"""Certified lower-bound constructions for odd clique minors in products.

Every operation returns an odd-expansion certificate that passes
`verify_odd_expansion` on the stated host product, with connectors stored
for every tree pair (strict verification applies).  Vertex ids follow the
fixed product flattening; the classical 1-based row/column names u_i, v_j
used in the docstrings map to 0-based ids i-1, j-1 at this module's
boundary only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .errors import (ColoringMissingError, ConsistencyError, FactorModelError,
                     ParameterError)
from .expansion import (BranchTree, OddExpansionModel, branch_tree,
                        monochromatic_connector, verify_odd_expansion)
from .graphs import (Edge, Graph, complete, flatten, hamming, norm_edge,
                     find_odd_cycle, product, spanning_tree, star)


# ----------------------------------------------------------------------
# Small certificate builders


def identity_model(g: Graph) -> OddExpansionModel:
    """The canonical certificate of order n on a complete graph: one
    singleton tree per vertex, everything colored 1."""
    if not g.is_complete() or g.n < 1:
        raise ParameterError("identity_model needs a non-empty complete graph")
    trees = tuple(branch_tree([v]) for v in range(g.n))
    coloring = {v: 1 for v in range(g.n)}
    connectors = {(i, j): (i, j) for i in range(g.n) for j in range(i + 1, g.n)}
    return OddExpansionModel(trees, coloring, connectors)


def singleton_model(g: Graph) -> OddExpansionModel:
    """Order-1 certificate on any non-empty graph."""
    if g.n < 1:
        raise ParameterError("host graph has no vertices")
    return OddExpansionModel((branch_tree([0]),), {0: 1})


def single_edge_model(g: Graph) -> OddExpansionModel:
    """Order-2 certificate from the least edge of the host."""
    if g.m == 0:
        raise ParameterError("host graph has no edges")
    u, v = min(g.edges)
    return OddExpansionModel((branch_tree([u]), branch_tree([v])),
                             {u: 1, v: 1}, {(0, 1): (u, v)})


def odd_cycle_model(g: Graph) -> Optional[OddExpansionModel]:
    """Order-3 certificate built on an odd cycle, or None if bipartite.

    The cycle splits into one anchor vertex and two paths; colors alternate
    along each path so that the three joining cycle edges stay monochromatic.
    """
    cyc = find_odd_cycle(g)
    if cyc is None:
        return None
    k = len(cyc) // 2
    anchor, left, right = cyc[0], cyc[1:k + 1], cyc[k + 1:]
    coloring = {anchor: 1}
    for pos, v in enumerate(left):
        coloring[v] = 1 if pos % 2 == 0 else 2
    for pos, v in enumerate(reversed(right)):
        coloring[v] = 1 if pos % 2 == 0 else 2
    trees = (
        branch_tree([anchor]),
        branch_tree(left, zip(left, left[1:])),
        branch_tree(right, zip(right, right[1:])),
    )
    connectors = {
        (0, 1): norm_edge(anchor, left[0]),
        (0, 2): norm_edge(anchor, right[-1]),
        (1, 2): norm_edge(left[-1], right[0]),
    }
    return OddExpansionModel(trees, coloring, connectors)


# ----------------------------------------------------------------------
# Product colorings and the cell grid


def witness_product_coloring(c_first: Mapping[int, int], c_second: Mapping[int, int],
                             domain, n_second: int) -> dict[int, int]:
    """Combine factor witness colorings over product vertices.

    A pair (a, b) receives color 1 when the factor colors agree and 2 when
    they differ.  `domain` iterates (a, b) pairs; the result is keyed by the
    flattened product id.  Swapping both factor colorings leaves the result
    unchanged; swapping exactly one flips it.
    """
    out = {}
    for a, b in sorted(domain):
        ca = c_first.get(a)
        cb = c_second.get(b)
        if ca is None:
            raise ColoringMissingError(f"first-factor vertex {a} is uncolored")
        if cb is None:
            raise ColoringMissingError(f"second-factor vertex {b} is uncolored")
        out[flatten(a, b, n_second)] = 1 if ca == cb else 2
    return out


@dataclass(frozen=True)
class GridForest:
    """The s x t family of cell trees inside a product of two certified hosts.

    Cell (i, j) spans tree i of the first factor times tree j of the second,
    connected through factor tree edges only; the coloring combines the two
    witness colorings; cross_edges stores one monochromatic host edge for
    every same-row or same-column cell pair, keyed by the sorted cell pair.
    """

    s: int
    t: int
    cells: Mapping[tuple[int, int], BranchTree]
    coloring: Mapping[int, int]
    cross_edges: Mapping[tuple[tuple[int, int], tuple[int, int]], Edge]

    def cell_pair_edge(self, a: tuple[int, int], b: tuple[int, int]) -> Edge:
        key = (a, b) if a < b else (b, a)
        return self.cross_edges[key]


def _require_valid_factor(g: Graph, model: OddExpansionModel, name: str):
    verdict = verify_odd_expansion(g, model)
    if not verdict.passed:
        raise FactorModelError(f"{name} factor model fails verification: {verdict.summary()}",
                               verdict=verdict)


def product_grid_forest(g: Graph, mg: OddExpansionModel,
                        h: Graph, mh: OddExpansionModel) -> GridForest:
    """Build the cell grid shared by the box-product and strong-product
    constructions.

    Each cell is the deterministic BFS spanning tree of the grid formed by
    the two factor trees (those edges exist in both product modes).  Cross
    edges for same-row pairs ride the second factor's connector at the
    lowest first-factor vertex of the row, and symmetrically for columns;
    both choices realize the lexicographically least monochromatic edge of
    their candidate family.
    """
    _require_valid_factor(g, mg, "first")
    _require_valid_factor(h, mh, "second")
    s, t = mg.clique_order, mh.clique_order
    nh = h.n
    n_host = g.n * h.n

    cells = {}
    for i, si in enumerate(mg.trees):
        for j, tj in enumerate(mh.trees):
            verts = frozenset(flatten(a, b, nh)
                              for a in si.vertices for b in tj.vertices)
            grid_edges = set()
            for a in si.vertices:
                for b1, b2 in tj.edges:
                    grid_edges.add(norm_edge(flatten(a, b1, nh), flatten(a, b2, nh)))
            for a1, a2 in si.edges:
                for b in tj.vertices:
                    grid_edges.add(norm_edge(flatten(a1, b, nh), flatten(a2, b, nh)))
            grid = Graph(n_host, frozenset(grid_edges))
            cells[(i, j)] = BranchTree(verts, spanning_tree(grid, verts))

    domain = [(a, b) for i, si in enumerate(mg.trees) for a in si.vertices
              for j, tj in enumerate(mh.trees) for b in tj.vertices]
    coloring = witness_product_coloring(mg.coloring, mh.coloring, domain, nh)

    cross = {}
    for i, si in enumerate(mg.trees):
        row_anchor = min(si.vertices)
        for j1 in range(t):
            for j2 in range(j1 + 1, t):
                b1, b2 = monochromatic_connector(h, mh, j1, j2)
                e = norm_edge(flatten(row_anchor, b1, nh), flatten(row_anchor, b2, nh))
                cross[((i, j1), (i, j2))] = e
    for j, tj in enumerate(mh.trees):
        col_anchor = min(tj.vertices)
        for i1 in range(s):
            for i2 in range(i1 + 1, s):
                a1, a2 = monochromatic_connector(g, mg, i1, i2)
                e = norm_edge(flatten(a1, col_anchor, nh), flatten(a2, col_anchor, nh))
                cross[((i1, j), (i2, j))] = e
    for key, (u, v) in cross.items():
        if coloring[u] != coloring[v]:
            raise ConsistencyError(f"cell cross edge {u}-{v} for {key} is not monochromatic")
    return GridForest(s, t, cells, coloring, cross)


# ----------------------------------------------------------------------
# Box products of complete graphs, lifting, Hamming powers


@dataclass(frozen=True)
class BaseModel:
    """A certificate on the box product of two complete graphs, kept with
    its factor sizes so it can seed the lifting construction."""

    s: int
    t: int
    model: OddExpansionModel

    def host(self) -> Graph:
        return product("cartesian", complete(self.s), complete(self.t))


def cartesian_complete_model(s: int, t: int) -> BaseModel:
    """Order s+t-2 certificate on the box product of complete graphs.

    The first t-1 trees are the single vertices (u_1, v_k), k < t; the other
    s-1 trees are stars centered at (u_i, v_t) with leaves (u_i, v_j), j < t.
    Star centers get color 2, every other used vertex color 1; the vertex
    (u_1, v_t) stays unused.
    """
    if s < 2 or t < 2:
        raise ParameterError(f"needs s >= 2 and t >= 2, got ({s}, {t})")
    fl = lambda a, b: flatten(a, b, t)
    trees = []
    coloring = {}
    for k in range(t - 1):
        v = fl(0, k)
        trees.append(branch_tree([v]))
        coloring[v] = 1
    for a in range(1, s):
        center = fl(a, t - 1)
        leaves = [fl(a, j) for j in range(t - 1)]
        trees.append(branch_tree([center, *leaves], [(center, l) for l in leaves]))
        coloring[center] = 2
        coloring.update((l, 1) for l in leaves)

    order = s + t - 2
    connectors = {}
    for k1 in range(order):
        for k2 in range(k1 + 1, order):
            if k2 <= t - 2:
                e = (fl(0, k1), fl(0, k2))
            elif k1 <= t - 2:
                e = (fl(0, k1), fl(k2 - (t - 2), k1))
            else:
                e = (fl(k1 - (t - 2), t - 1), fl(k2 - (t - 2), t - 1))
            connectors[(k1, k2)] = e
    return BaseModel(s, t, OddExpansionModel(tuple(trees), coloring, connectors))


def cartesian_lift(g: Graph, mg: OddExpansionModel,
                   h: Graph, mh: OddExpansionModel,
                   base: Optional[BaseModel] = None) -> OddExpansionModel:
    """Lift a certificate on the box product of complete factor-order
    cliques to the box product of the actual factors.

    Each base tree pulls back to the union of its grid cells, joined by the
    stored monochromatic cross edges (base trees only use box-product edges,
    so every joint is a same-row or same-column pair).  A cell keeps the
    combined coloring where its base vertex is colored 1 and takes the
    swapped coloring where it is colored 2, which makes the joining edges
    bichromatic and the pair connectors monochromatic again.
    """
    gf = product_grid_forest(g, mg, h, mh)
    s, t = gf.s, gf.t
    if base is None:
        base = cartesian_complete_model(s, t)
    if base.s != s or base.t != t:
        raise ParameterError(
            f"base is for factor orders ({base.s}, {base.t}), models have ({s}, {t})")
    base_host = base.host()
    verdict = verify_odd_expansion(base_host, base.model)
    if not verdict.passed:
        raise FactorModelError(f"base model fails verification: {verdict.summary()}",
                               verdict=verdict)

    cell_of = lambda x: (x // t, x % t)
    trees = []
    coloring: dict[int, int] = {}
    for rk in base.model.trees:
        verts: set[int] = set()
        edges: set[Edge] = set()
        for x in rk.sorted_vertices:
            cell = gf.cells[cell_of(x)]
            verts |= cell.vertices
            edges |= cell.edges
            keep = base.model.coloring[x] == 1
            for v in cell.vertices:
                coloring[v] = gf.coloring[v] if keep else 3 - gf.coloring[v]
        for x, y in rk.sorted_edges:
            edges.add(gf.cell_pair_edge(cell_of(x), cell_of(y)))
        trees.append(BranchTree(frozenset(verts), frozenset(edges)))

    m = base.model.clique_order
    connectors = {}
    for k1 in range(m):
        for k2 in range(k1 + 1, m):
            x, y = monochromatic_connector(base_host, base.model, k1, k2)
            connectors[(k1, k2)] = gf.cell_pair_edge(cell_of(x), cell_of(y))
    return OddExpansionModel(tuple(trees), coloring, connectors)


def hamming_model(n: int, d: int) -> OddExpansionModel:
    """Order d(n-2)+2 certificate on the d-fold box power of the complete
    graph on n vertices, built by repeated lifting from the identity
    certificate."""
    if n < 2 or d < 1:
        raise ParameterError(f"needs n >= 2 and d >= 1, got ({n}, {d})")
    kn = complete(n)
    model = identity_model(kn)
    host = kn
    for _ in range(d - 1):
        model = cartesian_lift(host, model, kn, identity_model(kn),
                               base=cartesian_complete_model(model.clique_order, n))
        host = product("cartesian", host, kn)
    return model


# ----------------------------------------------------------------------
# Strong and lexicographic products


def strong_model(g: Graph, mg: OddExpansionModel,
                 h: Graph, mh: OddExpansionModel,
                 kind: str = "strong") -> OddExpansionModel:
    """Order s*t certificate on the strong (or lexicographic) product.

    All s*t grid cells become trees under the combined coloring.  Same-row
    and same-column pairs use the grid cross edges; for pairs differing in
    both coordinates the two factor connectors combine into one diagonal
    edge whose endpoints agree in color.  The strong-product edge set is
    contained in the lexicographic one, so the same certificate serves both.
    """
    if kind not in ("strong", "lexicographic"):
        raise ParameterError(f"kind must be strong or lexicographic, got {kind!r}")
    gf = product_grid_forest(g, mg, h, mh)
    s, t = gf.s, gf.t
    nh = h.n
    trees = tuple(gf.cells[(i, j)] for i in range(s) for j in range(t))
    connectors = {}
    for i1 in range(s):
        for j1 in range(t):
            k1 = i1 * t + j1
            for i2 in range(s):
                for j2 in range(t):
                    k2 = i2 * t + j2
                    if k2 <= k1:
                        continue
                    if i1 == i2 or j1 == j2:
                        connectors[(k1, k2)] = gf.cell_pair_edge((i1, j1), (i2, j2))
                    else:
                        a1, a2 = monochromatic_connector(g, mg, i1, i2)
                        b1, b2 = monochromatic_connector(h, mh, j1, j2)
                        connectors[(k1, k2)] = norm_edge(flatten(a1, b1, nh),
                                                         flatten(a2, b2, nh))
    notes = ()
    if s < 2 or t < 2:
        notes = ("degenerate factor: an input certificate has order below 2",)
    return OddExpansionModel(trees, dict(gf.coloring), connectors, notes)


def star_model(r: int, t: int) -> OddExpansionModel:
    """Certificate on the strong product of two stars (centers at id 0).

    With r <= t leaves, each of the r paths walks (u_i, v_0), (u_i, v_i),
    (u_0, v_i) with the middle colored 1 and the ends 2; the center pair
    (u_0, v_0) joins as a singleton colored 2, and for t > r so does
    (u_0, v_t).  Order r+1 on the diagonal, min(r, t)+2 otherwise.
    """
    if r < 1 or t < 1:
        raise ParameterError(f"needs r >= 1 and t >= 1, got ({r}, {t})")
    if r > t:
        return _swap_product_model(star_model(t, r), t + 1, r + 1)
    n2 = t + 1
    fl = lambda a, b: flatten(a, b, n2)
    trees = []
    coloring = {}
    for i in range(1, r + 1):
        arm, mid, leg = fl(i, 0), fl(i, i), fl(0, i)
        trees.append(branch_tree([arm, mid, leg], [(arm, mid), (mid, leg)]))
        coloring[mid] = 1
        coloring[arm] = 2
        coloring[leg] = 2
    center = fl(0, 0)
    trees.append(branch_tree([center]))
    coloring[center] = 2
    if t > r:
        spare = fl(0, t)
        trees.append(branch_tree([spare]))
        coloring[spare] = 2

    connectors = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            connectors[(i - 1, j - 1)] = norm_edge(fl(i, 0), fl(0, j))
        connectors[(i - 1, r)] = norm_edge(fl(i, 0), center)
        if t > r:
            connectors[(i - 1, r + 1)] = norm_edge(fl(i, 0), fl(0, t))
    if t > r:
        connectors[(r, r + 1)] = norm_edge(center, fl(0, t))
    return OddExpansionModel(tuple(trees), coloring, connectors)


def _swap_product_model(model: OddExpansionModel, n1: int, n2: int) -> OddExpansionModel:
    """Transport a certificate across the coordinate swap between A * B and
    B * A (valid for the coordinate-symmetric products)."""
    remap = lambda x: (x % n2) * n1 + (x // n2)
    trees = tuple(BranchTree(frozenset(remap(v) for v in t.vertices),
                             frozenset(norm_edge(remap(u), remap(v)) for u, v in t.edges))
                  for t in model.trees)
    coloring = {remap(v): c for v, c in model.coloring.items()}
    connectors = None
    if model.connectors is not None:
        connectors = {pair: norm_edge(remap(u), remap(v))
                      for pair, (u, v) in model.connectors.items()}
    return OddExpansionModel(trees, coloring, connectors, model.notes)


# ----------------------------------------------------------------------
# Direct products of complete graphs
#
# The order t+2 construction on K_t x K_3 is transcribed as data: eight
# fixed trees with one prescribed color each (colors extend along each path
# by alternation), a hand-checked connector catalogue for the fixed trees,
# and parity rows that fill in trees 9..t+2.  Rows and columns are the
# classical 1-based names; conversion to flat ids happens in one place.
#
# Two entries are corrected against the obvious slips in the source
# catalogue: the left endpoints of the second tree's row read (2,1), its
# actual vertex, and the sixth tree's prescription colors (5,2) with 1,
# which is what every catalogued edge incident to that tree requires.

_K3_FIXED_TREES = (
    (((1, 1), (2, 2)), (1, 1), 1),
    (((2, 1), (3, 2)), (2, 1), 2),
    (((1, 3), (3, 1)), (1, 3), 1),
    (((3, 3), (4, 1)), (4, 1), 1),
    (((4, 2), (5, 3)), (5, 3), 1),
    (((5, 2), (6, 3)), (5, 2), 1),
    (((1, 2), (2, 3), (5, 1)), (2, 3), 1),
    (((7, 1), (4, 3), (6, 2)), (4, 3), 2),
)

# Tree 8 when t == 6: vertex (7,1) does not exist, reroute through (6,1).
_K3_TREE8_SMALL = (((6, 1), (4, 3), (6, 2)), (4, 3), 2)

_K3_PAIR_EDGES = {
    (1, 2): ((1, 1), (3, 2)),
    (1, 3): ((2, 2), (3, 1)),
    (1, 4): ((2, 2), (3, 3)),
    (1, 5): ((1, 1), (5, 3)),
    (1, 6): ((1, 1), (5, 2)),
    (1, 7): ((1, 1), (2, 3)),
    (1, 8): ((1, 1), (6, 2)),
    (2, 3): ((3, 2), (1, 3)),
    (2, 4): ((2, 1), (3, 3)),
    (2, 5): ((2, 1), (4, 2)),
    (2, 6): ((2, 1), (6, 3)),
    (2, 7): ((2, 1), (1, 2)),
    (2, 8): ((2, 1), (4, 3)),
    (3, 4): ((1, 3), (4, 1)),
    (3, 5): ((3, 1), (4, 2)),
    (3, 6): ((1, 3), (5, 2)),
    (3, 7): ((3, 1), (1, 2)),
    (3, 8): ((1, 3), (6, 2)),
    (4, 5): ((4, 1), (5, 3)),
    (4, 6): ((4, 1), (5, 2)),
    (4, 7): ((4, 1), (2, 3)),
    (4, 8): ((4, 1), (6, 2)),
    (5, 6): ((4, 2), (6, 3)),
    (5, 7): ((4, 2), (5, 1)),
    (5, 8): ((5, 3), (6, 2)),
    (6, 7): ((6, 3), (5, 1)),
    (6, 8): ((5, 2), (7, 1)),
    (7, 8): ((5, 1), (4, 3)),
}

# Pair (6, 8) when t == 6: (7,1) does not exist, use (5,2)-(6,1), both color 1.
_K3_PAIR_68_SMALL = ((5, 2), (6, 1))


def _k3_parity_tree(i: int, t: int):
    """Path and prescription for tree i in 9..t+2 on K_t x K_3."""
    if i == t + 2:
        if i % 2 == 1:
            return ((t, 2), (t - 1, 1), (t, 3)), (t - 1, 1), 2
        return ((t, 1), (t - 1, 2), (t, 3)), (t - 1, 2), 2
    if i % 2 == 1:
        return ((i - 1, 2), (i - 3, 1), (i - 2, 3)), (i - 3, 1), 2
    return ((i - 1, 1), (i - 3, 2), (i - 2, 3)), (i - 3, 2), 2


def _alternate_path_coloring(ids: list[int], anchor: int, color: int) -> dict[int, int]:
    at = ids.index(anchor)
    return {v: color if (k - at) % 2 == 0 else 3 - color for k, v in enumerate(ids)}


def direct_k3_model(t: int) -> OddExpansionModel:
    """Order t+2 certificate on the direct product K_t x K_3, t >= 6.

    Eight catalogued trees cover the first rows; trees 9..t+2 are paths laid
    out by parity (odd rows route through column 1, even rows through column
    2, the last row doubles back on row t).  Connectors: the catalogue for
    pairs among the first eight, the inner vertices for parity paths of
    different parity, and the least monochromatic cross edge otherwise,
    which is an end-to-end edge for equal parity and realizes the prose
    rules for mixed pairs.
    """
    if t < 6:
        raise ParameterError(f"construction needs t >= 6, got {t}")
    fl = lambda row, col: flatten(row - 1, col - 1, 3)
    host = product("direct", complete(t), complete(3))

    specs = list(_K3_FIXED_TREES)
    if t == 6:
        specs[7] = _K3_TREE8_SMALL
    for i in range(9, t + 3):
        specs.append(_k3_parity_tree(i, t))

    trees = []
    coloring: dict[int, int] = {}
    mids = {}
    for idx, (pairs, anchor, color) in enumerate(specs):
        ids = [fl(*p) for p in pairs]
        trees.append(branch_tree(ids, zip(ids, ids[1:])))
        coloring.update(_alternate_path_coloring(ids, fl(*anchor), color))
        if len(ids) == 3:
            mids[idx + 1] = ids[1]

    order = t + 2
    connectors: dict[tuple[int, int], Edge] = {}
    for (a, b), (x, y) in _K3_PAIR_EDGES.items():
        if t == 6 and (a, b) == (6, 8):
            x, y = _K3_PAIR_68_SMALL
        connectors[(a - 1, b - 1)] = norm_edge(fl(*x), fl(*y))

    interim = OddExpansionModel(tuple(trees), coloring)
    for a in range(1, order + 1):
        for b in range(a + 1, order + 1):
            if b <= 8:
                continue
            if a >= 9 and (a % 2) != (b % 2):
                e = norm_edge(mids[a], mids[b])
            else:
                try:
                    u, v = monochromatic_connector(host, interim, a - 1, b - 1)
                except LookupError:
                    raise ConsistencyError(f"no monochromatic edge between trees {a} and {b}")
                e = norm_edge(u, v)
            connectors[(a - 1, b - 1)] = e
    return OddExpansionModel(tuple(trees), coloring, connectors)


def direct_k3_upper_bound(t: int) -> int:
    """Tree-count ceiling matching the K_t x K_3 construction order.

    With S singleton trees (at most 3), D two-vertex trees (at most 6-2S),
    and every other tree on at least three vertices, the tree count is at
    most floor((3t - 2D - S)/3) + D + S; the maximum over the feasible
    (S, D) range evaluates to t+2.  Exact integer arithmetic only.
    """
    if t < 6:
        raise ParameterError(f"needs t >= 6, got {t}")
    best = 0
    for s_count in range(0, 4):
        for d_count in range(0, 6 - 2 * s_count + 1):
            best = max(best, (3 * t - 2 * d_count - s_count) // 3 + d_count + s_count)
    return best


def direct_general_model(t: int, s: int) -> OddExpansionModel:
    """Order t*floor(s/3) certificate on the direct product K_t x K_s,
    t >= 4, s >= 3.

    The first 3*floor(s/3) columns split into consecutive column triples.
    The first triple hosts two singletons, one two-vertex tree and t-3
    paths; every further triple hosts t-2 paths of its own plus two bridge
    paths reaching back into the previous triple.  Path ends and singletons
    are colored 1 and path middles 2, except the two-vertex tree which is
    colored 1 at (u_2, v_2) and 2 at (u_3, v_1).  Trailing columns beyond
    the last full triple stay unused.  Connectors are the least
    monochromatic cross edges, one `least_monochromatic_edge` call per
    pair: every tree has at most three vertices and the host is dense, so a
    call tests at most nine vertex pairs against the host edge set.
    """
    if t < 4 or s < 3:
        raise ParameterError(f"needs t >= 4 and s >= 3, got ({t}, {s})")
    m = s // 3
    fl = lambda row, col: flatten(row - 1, col - 1, s)
    col = lambda ell, j: j + 3 * (ell - 1)
    host = product("direct", complete(t), complete(s))

    paths: list[list[tuple[int, int]]] = []
    for ell in range(1, m + 1):
        for i in range(1, t + 1):
            if ell == 1:
                if i in (1, 3):
                    paths.append([(i, i)])
                elif i == 2:
                    paths.append([(3, 1), (2, 2)])
                elif i == 4:
                    paths.append([(2, 1), (1, 2), (4, 3)])
                else:
                    paths.append([(i - 1, 1), (i - 2, 2), (i, 3)])
            else:
                if i == 1:
                    paths.append([(1, col(ell, 3)), (t, col(ell - 1, 1)), (t - 1, col(ell - 1, 2))])
                elif i == 2:
                    paths.append([(t, col(ell - 1, 2)), (1, col(ell, 1)), (2, col(ell, 3))])
                else:
                    paths.append([(i, col(ell, 3)), (i - 2, col(ell, 2)), (i - 1, col(ell, 1))])

    trees = []
    coloring: dict[int, int] = {}
    for pidx, pairs in enumerate(paths):
        ids = [fl(*p) for p in pairs]
        trees.append(branch_tree(ids, zip(ids, ids[1:])))
        if pidx == 1:  # the two-vertex tree of the first triple
            coloring[fl(3, 1)] = 2
            coloring[fl(2, 2)] = 1
        elif len(ids) == 1:
            coloring[ids[0]] = 1
        else:
            coloring[ids[0]] = 1
            coloring[ids[1]] = 2
            coloring[ids[2]] = 1

    order = t * m
    interim = OddExpansionModel(tuple(trees), coloring)
    connectors = {}
    for a in range(order):
        for b in range(a + 1, order):
            try:
                u, v = monochromatic_connector(host, interim, a, b)
            except LookupError:
                raise ConsistencyError(f"no monochromatic edge between trees {a} and {b}")
            connectors[(a, b)] = norm_edge(u, v)
    return OddExpansionModel(tuple(trees), coloring, connectors)


# ----------------------------------------------------------------------
# Dispatcher


def best_lower_bound(g: Graph, mg: OddExpansionModel,
                     h: Graph, mh: OddExpansionModel,
                     kind: str) -> Optional[tuple[int, OddExpansionModel]]:
    """Largest certified order the constructions reach for the given product.

    cartesian: lift through the default complete-product base, order s+t-2,
    needing both factor orders >= 2.  strong and lexicographic: the full
    grid, order s*t.  direct: for complete factors, the best applicable of
    the K_t x K_3 and column-triple constructions (transported across the
    coordinate swap when needed); otherwise only what bipartiteness or an
    odd cycle of the product yields.  Returns None when nothing applies.
    """
    if kind not in ("cartesian", "direct", "lexicographic", "strong"):
        raise ParameterError(f"unknown product kind {kind!r}")
    _require_valid_factor(g, mg, "first")
    _require_valid_factor(h, mh, "second")
    s, t = mg.clique_order, mh.clique_order

    if kind == "cartesian":
        if s < 2 or t < 2:
            return None
        model = cartesian_lift(g, mg, h, mh)
        return model.clique_order, model

    if kind in ("strong", "lexicographic"):
        model = strong_model(g, mg, h, mh, kind)
        return model.clique_order, model

    # direct product
    if g.is_complete() and h.is_complete() and g.n >= 1 and h.n >= 1:
        a, b = g.n, h.n
        candidates: list[tuple[int, Callable[[], OddExpansionModel]]] = []
        if b == 3 and a >= 6:
            candidates.append((a + 2, lambda: direct_k3_model(a)))
        if a == 3 and b >= 6:
            candidates.append((b + 2, lambda: _swap_product_model(direct_k3_model(b), b, 3)))
        if a >= 4 and b >= 3:
            candidates.append((a * (b // 3), lambda: direct_general_model(a, b)))
        if b >= 4 and a >= 3:
            candidates.append((b * (a // 3), lambda: _swap_product_model(direct_general_model(b, a), b, a)))
        if candidates:
            pick = max(range(len(candidates)), key=lambda k: (candidates[k][0], -k))
            order, build = candidates[pick]
            return order, build()

    host = product("direct", g, h)
    if host.n == 0:
        return None
    if host.m == 0:
        return 1, singleton_model(host)
    cyc_model = odd_cycle_model(host)
    if cyc_model is not None:
        return 3, cyc_model
    return 2, single_edge_model(host)


# ----------------------------------------------------------------------
# Theorem registry: the construction families by their command-line ids


@dataclass(frozen=True)
class Theorem:
    """One construction family as `construct` and `table` name it.

    `build` takes the certified factors (g, mg, h, mh) first when `factors`
    is set, then one value per name in `params`, and returns the
    certificate and its host.  It builds the certificate first, so that the
    family's preconditions are reported before any host is built; `best`
    returns (None, None) when no construction applies.  `base` marks the
    family whose `build` also takes `base=`, a certificate on the box
    product of the factor-order cliques.  `table` holds the default 'a..b'
    range of each param for the families `table` reproduces.

    Builders call the construction functions and `product` through this
    module's globals at call time, so that patching them (as the
    benchmark's tracer does) reaches every theorem.
    """

    params: tuple[str, ...]
    build: Callable[..., tuple[Optional[OddExpansionModel], Optional[Graph]]]
    factors: bool = False
    base: bool = False
    table: tuple[str, ...] = ()


def _complete_host(kind: str, a: int, b: int) -> Graph:
    return product(kind, complete(a), complete(b))


def _grid_theorem(kind: str) -> Theorem:
    return Theorem((), lambda g, mg, h, mh: (strong_model(g, mg, h, mh, kind),
                                             product(kind, g, h)), factors=True)


def _best(g, mg, h, mh, kind):
    found = best_lower_bound(g, mg, h, mh, kind)
    if found is None:
        return None, None
    return found[1], product(kind, g, h)


THEOREMS: dict[str, Theorem] = {
    "cartesian-complete": Theorem(
        ("s", "t"), lambda s, t: (cartesian_complete_model(s, t).model,
                                  _complete_host("cartesian", s, t)),
        table=("2..6", "2..6")),
    "cartesian-lift": Theorem(
        (), lambda g, mg, h, mh, base=None: (cartesian_lift(g, mg, h, mh, base),
                                             product("cartesian", g, h)),
        factors=True, base=True),
    "strong": _grid_theorem("strong"),
    "lex": _grid_theorem("lexicographic"),
    "stars": Theorem(
        ("r", "t"), lambda r, t: (star_model(r, t), product("strong", star(r), star(t))),
        table=("1..4", "1..4")),
    "direct-k3": Theorem(
        ("t",), lambda t: (direct_k3_model(t), _complete_host("direct", t, 3)),
        table=("6..10",)),
    "direct-general": Theorem(
        ("t", "s"), lambda t, s: (direct_general_model(t, s), _complete_host("direct", t, s)),
        table=("4..6", "3..6")),
    "hamming": Theorem(("n", "d"), lambda n, d: (hamming_model(n, d), hamming(n, d))),
    "best": Theorem(("kind",), _best, factors=True),
}
