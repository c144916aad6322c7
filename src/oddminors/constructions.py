"""Certified lower-bound constructions for odd clique minors in products.

Every operation returns an odd-expansion certificate that passes
`verify_odd_expansion` on the stated host product, with connectors stored
for every tree pair (strict verification applies).  Vertex ids follow the
fixed product flattening; the classical 1-based row/column names u_i, v_j
used in the docstrings map to 0-based ids i-1, j-1 at this module's
boundary only.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Callable, Mapping, Optional

from .errors import ConsistencyError, FactorModelError, ParameterError
from .expansion import (BranchTree, OddExpansionModel, _alternate_path_coloring,
                        branch_tree, monochromatic_connector, odd_cycle_model,
                        single_edge_model, singleton_model, verify_odd_expansion)
from .graphs import (PRODUCT_KINDS, Edge, Frozen, Graph, complete, flatten, hamming,
                     product, spanning_tree, star)


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


# ----------------------------------------------------------------------
# The cell grid of a product


def _require_valid(g: Graph, model: OddExpansionModel, name: str):
    verdict = verify_odd_expansion(g, model)
    if not verdict.passed:
        raise FactorModelError(f"{name} model fails verification: {verdict.summary()}",
                               verdict=verdict)


def _joints(g: Graph, model: OddExpansionModel) -> dict[tuple[int, int], Edge]:
    """The joint table of one factor: one connector per tree pair, stored in
    both orientations, the first tree's end first, and the least vertex
    twice for a tree with itself."""
    joints = {}
    for i, tree in enumerate(model.trees):
        low = min(tree.vertices)
        joints[i, i] = (low, low)
    for (i, j), (u, v) in monochromatic_connector(g, model).items():
        if u not in model.trees[i].vertices:
            u, v = v, u
        joints[i, j], joints[j, i] = (u, v), (v, u)
    return joints


def _ranked(tree: BranchTree) -> tuple[tuple[int, ...], Graph]:
    """The tree's vertices ascending, and the tree relabelled to their ranks."""
    verts = tree.sorted_vertices
    rank = {v: k for k, v in enumerate(verts)}
    return verts, Graph(len(verts), ((rank[u], rank[v]) for u, v in tree.edges))


def product_grid_forest(g: Graph, mg: OddExpansionModel, h: Graph, mh: OddExpansionModel
                        ) -> tuple[dict[tuple[int, int], BranchTree], dict[int, int],
                                   Callable[..., Edge]]:
    """Build the cell grid shared by the box-product, strong-product and
    lexicographic constructions: its cells, their coloring and `cell_edge`.

    Cell (i, j) spans tree i of the first factor times tree j of the second,
    connected through factor tree edges only: the deterministic BFS spanning
    tree of the box product of its two factor trees, built on the trees
    relabelled to ranks and mapped back to host ids.  Ranks keep the order
    of the flattened ids, so the BFS is the one the host would run on the
    cell.  The coloring gives vertex (a, b) color 1 when the factor colors
    of a and b agree, else 2, so swapping every color of one factor's
    certificate flips every cell color, and swapping both changes none.

    `cell_edge(a, b)` is the monochromatic host edge joining cell a to cell
    b, cell a's end first.  It pairs the joint of the cells' first-factor
    trees with the joint of their second-factor trees, so one rule joins
    every two cells, whether they share a row, a column or neither: a
    box-product edge in the first two cases, a strong-product edge in every
    case.  Each factor's joints come from one `monochromatic_connector`
    table of its verified certificate, so the two ends of a joint have one
    factor color, and the two ends of a cell edge, each colored by whether
    its two factor colors agree, have one color.
    """
    _require_valid(g, mg, "first factor")
    _require_valid(h, mh, "second factor")
    nh = h.n
    rows = [_ranked(tree) for tree in mg.trees]
    cols = [_ranked(tree) for tree in mh.trees]
    cells = {}
    for i, (va, ta) in enumerate(rows):
        for j, (vb, tb) in enumerate(cols):
            ids = [flatten(a, b, nh) for a in va for b in vb]
            grid = product("cartesian", ta, tb)
            cells[i, j] = BranchTree(frozenset(ids), frozenset(
                (ids[x], ids[y]) for x, y in spanning_tree(grid, range(grid.n))))
    cg, ch = mg.coloring, mh.coloring
    seconds = sorted([b for vb, _ in cols for b in vb])
    coloring = {flatten(a, b, nh): 1 if cg[a] == ch[b] else 2
                for a in sorted([a for va, _ in rows for a in va]) for b in seconds}
    first, second = _joints(g, mg), _joints(h, mh)

    def cell_edge(a: tuple[int, int], b: tuple[int, int]) -> Edge:
        (a1, a2), (b1, b2) = first[a[0], b[0]], second[a[1], b[1]]
        return flatten(a1, b1, nh), flatten(a2, b2, nh)

    return cells, coloring, cell_edge


# ----------------------------------------------------------------------
# Box products of complete graphs, lifting, Hamming powers


class BaseModel(Frozen):
    """A certificate on the box product of two complete graphs, kept with
    its factor sizes so it can seed the lifting construction."""

    _fields = ("s", "t", "model")
    s: int
    t: int
    model: OddExpansionModel

    def __init__(self, s: int, t: int, model: OddExpansionModel):
        self.__dict__.update(s=s, t=t, model=model)

    @cached_property
    def host(self) -> Graph:
        """K_s box K_t, built on first use and kept with the certificate, so
        that checking a loaded base's hash and verifying it share one host.
        With complete factors and the default base, `construct
        cartesian-lift` builds this graph twice, once as the theorem's host:
        no host is cached between calls."""
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
    grid's `cell_edge`s, which also serve as the pair connectors (base trees
    and connectors only use box-product edges, so every pair of cells is a
    same-row or same-column pair).  A cell keeps the combined coloring where
    its base vertex is colored 1 and takes the swapped coloring where it is
    colored 2, which makes the joining edges bichromatic and the pair
    connectors monochromatic again.
    """
    cells, grid_coloring, cell_edge = product_grid_forest(g, mg, h, mh)
    s, t = mg.clique_order, mh.clique_order
    if base is None:
        base = cartesian_complete_model(s, t)
    if base.s != s or base.t != t:
        raise ParameterError(
            f"base is for factor orders ({base.s}, {base.t}), models have ({s}, {t})")
    _require_valid(base.host, base.model, "base")

    cell_of = lambda x: divmod(x, t)
    trees = []
    coloring: dict[int, int] = {}
    for rk in base.model.trees:
        verts: set[int] = set()
        edges: set[Edge] = set()
        for x in rk.sorted_vertices:
            cell = cells[cell_of(x)]
            verts |= cell.vertices
            edges |= cell.edges
            keep = base.model.coloring[x] == 1
            for v in cell.vertices:
                coloring[v] = grid_coloring[v] if keep else 3 - grid_coloring[v]
        edges.update(cell_edge(cell_of(x), cell_of(y)) for x, y in rk.edges)
        trees.append(branch_tree(verts, edges))

    joins = monochromatic_connector(base.host, base.model)
    connectors = {}
    for k1, k2 in combinations(range(base.model.clique_order), 2):
        x, y = joins[k1, k2]
        connectors[k1, k2] = cell_edge(cell_of(x), cell_of(y))
    return OddExpansionModel(tuple(trees), coloring, connectors)


def hamming_model(n: int, d: int) -> OddExpansionModel:
    """Order d(n-2)+2 certificate on the d-fold box power of the complete
    graph on n vertices, built by repeated lifting from the identity
    certificate.  Each lift's host, the power hamming(n, k), is made once,
    from the power before it."""
    if n < 2 or d < 1:
        raise ParameterError(f"needs n >= 2 and d >= 1, got ({n}, {d})")
    host = kn = complete(n)
    model = kn_model = identity_model(kn)
    for k in range(1, d):
        if k > 1:
            host = product("cartesian", host, kn)
        model = cartesian_lift(host, model, kn, kn_model)
    return model


# ----------------------------------------------------------------------
# Strong and lexicographic products


def strong_model(g: Graph, mg: OddExpansionModel,
                 h: Graph, mh: OddExpansionModel,
                 kind: str = "strong") -> OddExpansionModel:
    """Order s*t certificate on the strong (or lexicographic) product.

    All s*t grid cells become trees under the combined coloring, in row-major
    order, and every pair of cells is joined by the grid's `cell_edge`: a
    same-row or same-column edge, or a diagonal one whose endpoints agree in
    color.  The strong-product edge set is contained in the lexicographic
    one, so the same certificate serves both.
    """
    if kind not in ("strong", "lexicographic"):
        raise ParameterError(f"kind must be strong or lexicographic, got {kind!r}")
    cells, coloring, cell_edge = product_grid_forest(g, mg, h, mh)
    order = sorted(cells)
    trees = tuple(cells[c] for c in order)
    connectors = {(k1, k2): cell_edge(a, b)
                  for (k1, a), (k2, b) in combinations(enumerate(order), 2)}
    notes = ()
    if mg.clique_order < 2 or mh.clique_order < 2:
        notes = ("degenerate factor: an input certificate has order below 2",)
    return OddExpansionModel(trees, coloring, connectors, notes)


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
            connectors[(i - 1, j - 1)] = (fl(i, 0), fl(0, j))
        connectors[(i - 1, r)] = (fl(i, 0), center)
        if t > r:
            connectors[(i - 1, r + 1)] = (fl(i, 0), fl(0, t))
    if t > r:
        connectors[(r, r + 1)] = (center, fl(0, t))
    return OddExpansionModel(tuple(trees), coloring, connectors)


def _swap_product_model(model: OddExpansionModel, n1: int, n2: int) -> OddExpansionModel:
    """Transport a certificate across the coordinate swap between A * B and
    B * A (valid for the coordinate-symmetric products)."""
    remap = lambda x: (x % n2) * n1 + (x // n2)
    trees = tuple(branch_tree(map(remap, t.vertices),
                              ((remap(u), remap(v)) for u, v in t.edges))
                  for t in model.trees)
    coloring = {remap(v): c for v, c in model.coloring.items()}
    connectors = None
    if model.connectors is not None:
        connectors = {pair: (remap(u), remap(v)) for pair, (u, v) in model.connectors.items()}
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


def _path_model(host: Graph, specs, fixed: Mapping[tuple[int, int], Edge]) -> OddExpansionModel:
    """Certificate whose trees are the paths of `specs`, (ids, anchor, color)
    each, colored by alternation from the anchor's color.  Connectors are
    the entries of `fixed`, keyed by 0-based tree pair, then the least
    monochromatic edge for every other pair, all from one
    `monochromatic_connector` table; a pair with none raises
    ConsistencyError."""
    trees = []
    coloring: dict[int, int] = {}
    for ids, anchor, color in specs:
        trees.append(branch_tree(ids, zip(ids, ids[1:])))
        coloring.update(_alternate_path_coloring(ids, anchor, color))
    model = OddExpansionModel(tuple(trees), coloring, fixed)
    table = monochromatic_connector(host, model)
    if len(table) < len(trees) * (len(trees) - 1) // 2:
        a, b = next(pair for pair in combinations(range(len(trees)), 2) if pair not in table)
        raise ConsistencyError(f"no monochromatic edge between trees {a} and {b}")
    return OddExpansionModel(model.trees, model.coloring, table)


def direct_k3_model(t: int, host: Optional[Graph] = None) -> OddExpansionModel:
    """Order t+2 certificate on the direct product K_t x K_3, t >= 6, whose
    connectors are searched on `host`, that product, built here when None.

    Eight catalogued trees cover the first rows; trees 9..t+2 are paths laid
    out by parity (odd rows route through column 1, even rows through column
    2, the last row doubles back on row t).  Connectors, fixed before the
    shared path builder fills in the rest: the catalogue for pairs among
    the first eight.  Every other pair takes the least monochromatic cross
    edge.  For two parity paths that is an end-to-end edge when their
    parities are equal and the edge between their inner vertices when they
    differ, the mixed-parity rule; for a catalogued tree and a parity path
    it realizes the prose rules.
    """
    if t < 6:
        raise ParameterError(f"construction needs t >= 6, got {t}")
    fl = lambda row, col: flatten(row - 1, col - 1, 3)
    if host is None:
        host = product("direct", complete(t), complete(3))

    specs = list(_K3_FIXED_TREES)
    if t == 6:
        specs[7] = _K3_TREE8_SMALL
    for i in range(9, t + 3):
        specs.append(_k3_parity_tree(i, t))
    specs = [([fl(*p) for p in pairs], fl(*anchor), color) for pairs, anchor, color in specs]

    fixed = {(a - 1, b - 1): (fl(*x), fl(*y)) for (a, b), (x, y) in _K3_PAIR_EDGES.items()}
    if t == 6:
        fixed[5, 7] = tuple(fl(*p) for p in _K3_PAIR_68_SMALL)
    return _path_model(host, specs, fixed)


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


def direct_general_model(t: int, s: int, host: Optional[Graph] = None) -> OddExpansionModel:
    """Order t*floor(s/3) certificate on the direct product K_t x K_s,
    t >= 4, s >= 3, whose connectors are searched on `host`, that product,
    built here when None.

    The first 3*floor(s/3) columns split into consecutive column triples.
    The first triple hosts two singletons, one two-vertex tree and t-3
    paths; every further triple hosts t-2 paths of its own plus two bridge
    paths reaching back into the previous triple.  Path ends and singletons
    are colored 1 and path middles 2, except the two-vertex tree which is
    colored 1 at (u_2, v_2) and 2 at (u_3, v_1).  Trailing columns beyond
    the last full triple stay unused.  The shared path builder colors the
    paths by alternation and takes the least monochromatic cross edge for
    every pair, all from one sweep over the host's rows.
    """
    if t < 4 or s < 3:
        raise ParameterError(f"needs t >= 4 and s >= 3, got ({t}, {s})")
    m = s // 3
    fl = lambda row, col: flatten(row - 1, col - 1, s)
    col = lambda ell, j: j + 3 * (ell - 1)
    if host is None:
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

    # the two-vertex tree of the first triple is colored 1 at (u_2, v_2)
    specs = [([fl(*p) for p in pairs], fl(2, 2) if k == 1 else fl(*pairs[0]), 1)
             for k, pairs in enumerate(paths)]
    return _path_model(host, specs, {})


# ----------------------------------------------------------------------
# Dispatcher


def best_lower_bound(g: Graph, mg: OddExpansionModel,
                     h: Graph, mh: OddExpansionModel,
                     kind: str, host: Optional[Graph] = None) -> Optional[OddExpansionModel]:
    """The certificate of the largest order the constructions reach for the
    given product.

    cartesian: lift through the default complete-product base, order s+t-2,
    needing both factor orders >= 2.  strong and lexicographic: the full
    grid, order s*t.  direct: for complete factors, the best applicable of
    the K_t x K_3 and column-triple constructions (transported across the
    coordinate swap when needed); otherwise only what bipartiteness or an
    odd cycle of the product yields.  Returns None when nothing applies.
    `host` is the product of g and h when the caller has built it; a direct
    construction searches it unless its factors are swapped.
    """
    if kind not in PRODUCT_KINDS:
        raise ParameterError(f"unknown product kind {kind!r}")
    s, t = mg.clique_order, mh.clique_order

    # strong_model and cartesian_lift verify the factor certificates
    # themselves; every other path verifies them here
    if kind in ("strong", "lexicographic"):
        return strong_model(g, mg, h, mh, kind)
    if kind == "cartesian" and s >= 2 and t >= 2:
        return cartesian_lift(g, mg, h, mh)
    _require_valid(g, mg, "first factor")
    _require_valid(h, mh, "second factor")
    if kind == "cartesian":
        return None

    # direct product
    if g.is_complete() and h.is_complete():
        a, b = g.n, h.n
        candidates: list[tuple[int, Callable[[], OddExpansionModel]]] = []
        if b == 3 and a >= 6:
            candidates.append((a + 2, lambda: direct_k3_model(a, host)))
        if a == 3 and b >= 6:
            candidates.append((b + 2, lambda: _swap_product_model(direct_k3_model(b), b, 3)))
        if a >= 4 and b >= 3:
            candidates.append((a * (b // 3), lambda: direct_general_model(a, b, host)))
        if b >= 4 and a >= 3:
            candidates.append((b * (a // 3), lambda: _swap_product_model(direct_general_model(b, a), b, a)))
        if candidates:  # the first of the largest orders
            return max(candidates, key=itemgetter(0))[1]()

    if host is None:
        host = product("direct", g, h)
    if host.m == 0:
        return singleton_model(host)
    return odd_cycle_model(host) or single_edge_model(host)


# ----------------------------------------------------------------------
# Theorem registry: the construction families by their command-line ids


class Theorem(Frozen):
    """One construction family as `construct` and `table` name it.

    `host` takes the certified factors (g, mg, h, mh) first when `factors`
    is set, then one value per name in `params`; `model` takes the host
    first and then the same values, and also `base=`, a certificate on the
    box product of the factor-order cliques, when `base` is set.
    `construct` and `table` build the host once, first, for every family,
    so that the edge cap refuses an oversized host before any certificate
    is made, and hand it to `model`, which checks the family's own
    preconditions.  `best`'s `model` returns None when no construction
    applies.  `table` holds the default 'a..b' range of each param for the
    families `table` reproduces.

    Builders call the construction functions and `product` through this
    module's globals at call time, so that patching them (as the
    benchmark's tracer does) reaches every theorem.
    """

    _fields = ("params", "host", "model", "factors", "base", "table")
    params: tuple[str, ...]
    host: Callable[..., Graph]
    model: Callable[..., Optional[OddExpansionModel]]
    factors: bool
    base: bool
    table: tuple[str, ...]

    def __init__(self, params: tuple[str, ...], host: Callable[..., Graph],
                 model: Callable[..., Optional[OddExpansionModel]], factors: bool = False,
                 base: bool = False, table: tuple[str, ...] = ()):
        self.__dict__.update(params=params, host=host, model=model, factors=factors,
                             base=base, table=table)


def _grid_theorem(kind: str) -> Theorem:
    return Theorem((), lambda g, mg, h, mh: product(kind, g, h),
                   lambda host, g, mg, h, mh: strong_model(g, mg, h, mh, kind), factors=True)


THEOREMS: dict[str, Theorem] = {
    "cartesian-complete": Theorem(
        ("s", "t"), lambda s, t: product("cartesian", complete(s), complete(t)),
        lambda host, s, t: cartesian_complete_model(s, t).model, table=("2..6", "2..6")),
    "cartesian-lift": Theorem(
        (), lambda g, mg, h, mh: product("cartesian", g, h),
        lambda host, g, mg, h, mh, base=None: cartesian_lift(g, mg, h, mh, base),
        factors=True, base=True),
    "strong": _grid_theorem("strong"),
    "lex": _grid_theorem("lexicographic"),
    "stars": Theorem(
        ("r", "t"), lambda r, t: product("strong", star(r), star(t)),
        lambda host, r, t: star_model(r, t), table=("1..4", "1..4")),
    "direct-k3": Theorem(
        ("t",), lambda t: product("direct", complete(t), complete(3)),
        lambda host, t: direct_k3_model(t, host), table=("6..10",)),
    "direct-general": Theorem(
        ("t", "s"), lambda t, s: product("direct", complete(t), complete(s)),
        lambda host, t, s: direct_general_model(t, s, host), table=("4..6", "3..6")),
    "hamming": Theorem(("n", "d"), hamming, lambda host, n, d: hamming_model(n, d)),
    "best": Theorem(
        ("kind",), lambda g, mg, h, mh, kind: product(kind, g, h),
        lambda host, g, mg, h, mh, kind: best_lower_bound(g, mg, h, mh, kind, host),
        factors=True),
}
