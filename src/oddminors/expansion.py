"""Odd-expansion certificates: the data model, the verifier, and the
canonical text serialization.

A certificate for "the host graph contains a clique of order r as an odd
minor" consists of r vertex-disjoint branch trees, a 2-coloring (colors 1
and 2) that is proper on every tree, and, for every pair of trees, a host
edge between them whose endpoints receive equal colors.  Connector edges may
be stored explicitly or left to the verifier to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import ParameterError, ParseError
from .graphs import Edge, Graph, norm_edge

FAIL_CLAUSES = (
    "disjointness",
    "tree_shape",
    "edge_membership",
    "coloring_missing",
    "properness",
    "connector_missing",
    "connector_invalid",
)


@dataclass(frozen=True)
class BranchTree:
    """One branch tree: a vertex set plus the tree edges inside it.

    Structural validity (spanning-tree shape, host membership) is checked by
    the verifier, not here, so that parsed certificates can carry arbitrary
    claims.
    """

    vertices: frozenset[int]
    edges: frozenset[Edge]

    @property
    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))


def branch_tree(vertices: Iterable[int], edges: Iterable[Edge] = ()) -> BranchTree:
    return BranchTree(frozenset(vertices), frozenset(norm_edge(u, v) for u, v in edges))


@dataclass(frozen=True, eq=True)
class OddExpansionModel:
    """An odd-expansion certificate.

    trees: ordered branch trees, one per clique vertex.
    coloring: partial map vertex -> color in {1, 2}; must cover tree vertices.
    connectors: optional map (i, j) with i < j -> stored host edge for that
        tree pair.  When a pair has a stored edge the verifier checks exactly
        that edge; otherwise it searches all cross edges.
    notes: free-text provenance flags carried into the serialized form, one
        `meta:` line each, so a note may not contain a line break.
    """

    trees: tuple[BranchTree, ...]
    coloring: Mapping[int, int]
    connectors: Optional[Mapping[tuple[int, int], Edge]] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coloring", dict(self.coloring))
        if self.connectors is not None:
            fixed = {}
            for (i, j), (u, v) in self.connectors.items():
                if i > j:
                    i, j = j, i
                fixed[(i, j)] = norm_edge(u, v)
            object.__setattr__(self, "connectors", fixed)
        object.__setattr__(self, "notes", tuple(self.notes))
        for note in self.notes:
            if note.splitlines() not in ([], [note]):
                raise ParameterError(f"note {note!r} contains a line break")

    @property
    def clique_order(self) -> int:
        return len(self.trees)

    def used_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for t in self.trees:
            out |= t.vertices
        return frozenset(out)

    def with_swapped_colors(self) -> "OddExpansionModel":
        flipped = {v: 3 - c for v, c in self.coloring.items()}
        return OddExpansionModel(self.trees, flipped, self.connectors, self.notes)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification run; failures carry a concrete witness."""

    status: str  # "pass" or "fail"
    clause: Optional[str] = None
    trees: tuple[int, ...] = ()
    vertices: tuple[int, ...] = ()
    edges: tuple[Edge, ...] = ()
    message: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def summary(self) -> str:
        if self.passed:
            return f"PASS {self.message}".rstrip()
        bits = [f"FAIL {self.clause}"]
        if self.trees:
            bits.append("trees=" + ",".join(map(str, self.trees)))
        if self.vertices:
            bits.append("vertices=" + ",".join(map(str, self.vertices)))
        if self.edges:
            bits.append("edges=" + ",".join(f"{u}-{v}" for u, v in self.edges))
        if self.message:
            bits.append(self.message)
        return " ".join(bits)


def _fail(clause, trees=(), vertices=(), edges=(), message=""):
    return Verdict("fail", clause, tuple(trees), tuple(vertices), tuple(edges), message)


# Vertex ids, colors and connector keys must be plain ints.  True == 1 and
# 1.0 == 1 pass every check by value, but serialize as "True" and "1.0",
# which the parser rejects.
def _is_color(c) -> bool:
    return type(c) is int and c in (1, 2)


def _is_vertex(v, g: Graph) -> bool:
    return type(v) is int and 0 <= v < g.n


def _tree_connected(tree: BranchTree) -> bool:
    verts = tree.sorted_vertices
    if not verts:
        return False
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def verify_odd_expansion(g: Graph, model: OddExpansionModel, strict: bool = False) -> Verdict:
    """Check a certificate against a host graph.

    Checks run in a fixed order and the first failure is reported, with the
    lowest tree/vertex/edge ids first: disjointness, tree shape, tree-edge
    membership in the host, coloring totality on used vertices, properness
    on every tree edge, stored connector keys in range, then connectors pair
    by pair.  Vertex ids and connector keys must be plain ints: a bool or a
    float fails the clause that checks it.

    strict=True additionally requires a stored connector for every pair;
    stored connectors are always checked literally.
    """
    trees = model.trees
    r = len(trees)
    if r < 1:
        return _fail("tree_shape", message="certificate has no branch trees")

    owner: dict[int, int] = {}
    for i, t in enumerate(trees):
        for v in t.sorted_vertices:
            if v in owner:
                return _fail("disjointness", trees=(owner[v], i), vertices=(v,),
                             message=f"vertex {v} appears in trees {owner[v]} and {i}")
            owner[v] = i

    for i, t in enumerate(trees):
        if not t.vertices:
            return _fail("tree_shape", trees=(i,), message=f"tree {i} is empty")
        for v in t.sorted_vertices:
            if not _is_vertex(v, g):
                return _fail("tree_shape", trees=(i,), vertices=(v,),
                             message=f"tree {i} uses vertex {v!r} outside host of order {g.n}")
        for u, v in t.sorted_edges:
            if not (type(u) is type(v) is int and u in t.vertices and v in t.vertices):
                return _fail("tree_shape", trees=(i,), edges=((u, v),),
                             message=f"tree {i} edge {u!r}-{v!r} leaves its vertex set")
        if len(t.edges) != len(t.vertices) - 1 or not _tree_connected(t):
            return _fail("tree_shape", trees=(i,),
                         message=f"tree {i} edges do not form a spanning tree of its vertex set")

    for i, t in enumerate(trees):
        for u, v in t.sorted_edges:
            if not g.has_edge(u, v):
                return _fail("edge_membership", trees=(i,), edges=((u, v),),
                             message=f"tree {i} edge {u}-{v} is not a host edge")

    coloring = model.coloring
    for i, t in enumerate(trees):
        for v in t.sorted_vertices:
            if not _is_color(coloring.get(v)):
                return _fail("coloring_missing", trees=(i,), vertices=(v,),
                             message=f"vertex {v} of tree {i} has no valid color")
    for v in sorted(coloring):
        if not _is_vertex(v, g):
            return _fail("coloring_missing", vertices=(v,),
                         message=f"colored vertex {v!r} is outside the host")
        if not _is_color(coloring[v]):
            return _fail("coloring_missing", vertices=(v,),
                         message=f"vertex {v} has color {coloring[v]!r}, expected 1 or 2")

    for i, t in enumerate(trees):
        for u, v in t.sorted_edges:
            if coloring[u] == coloring[v]:
                return _fail("properness", trees=(i,), edges=((u, v),),
                             message=f"tree {i} edge {u}-{v} is monochromatic")

    stored = model.connectors or {}
    bad_key = min((key for key in stored if not (type(key[0]) is type(key[1]) is int
                                                 and 0 <= key[0] < key[1] < r)),
                  default=None)
    if bad_key is not None:
        i, j = bad_key
        return _fail("connector_invalid", trees=(i, j), edges=(stored[i, j],),
                     message=f"stored connector key ({i},{j}) is not a pair of the {r} trees")
    for i in range(r):
        for j in range(i + 1, r):
            edge = stored.get((i, j))
            if edge is not None:
                u, v = edge
                if not type(u) is type(v) is int:
                    return _fail("connector_invalid", trees=(i, j), edges=(edge,),
                                 message=f"stored connector {u!r}-{v!r} is not a pair of int ids")
                in_i = u in trees[i].vertices and v in trees[j].vertices
                in_j = v in trees[i].vertices and u in trees[j].vertices
                if not (in_i or in_j):
                    return _fail("connector_invalid", trees=(i, j), edges=(edge,),
                                 message=f"stored connector {u}-{v} does not join trees {i} and {j}")
                if not g.has_edge(u, v):
                    return _fail("connector_invalid", trees=(i, j), edges=(edge,),
                                 message=f"stored connector {u}-{v} is not a host edge")
                if coloring.get(u) != coloring.get(v):
                    return _fail("connector_invalid", trees=(i, j), edges=(edge,),
                                 message=f"stored connector {u}-{v} is not monochromatic")
                continue
            if strict:
                return _fail("connector_missing", trees=(i, j),
                             message=f"strict mode: no stored connector for pair ({i},{j})")
            if least_monochromatic_edge(g, trees[i], trees[j], coloring) is None:
                return _fail("connector_missing", trees=(i, j),
                             message=f"no monochromatic edge between trees {i} and {j}")

    return Verdict("pass", message=f"order={r}")


def least_monochromatic_edge(g: Graph, tree_a: BranchTree, tree_b: BranchTree,
                             coloring: Mapping[int, int]) -> Optional[Edge]:
    """The lexicographically least host edge with one endpoint in each tree
    and equal colors at both ends, or None when there is none.

    Takes whichever loop does fewer set lookups.  When the larger tree has at
    most the host's average degree 2m/n vertices, it tests the |Ta|*|Tb|
    vertex pairs against the host edge set, without building adjacency
    lists.  Otherwise it walks the neighbours of the smaller tree's vertices
    and tests membership in the other tree, so large trees in a sparse host
    cost their degree sum, not the product of their sizes.
    """
    small, large = sorted((tree_a.vertices, tree_b.vertices), key=len)
    pair_scan = len(large) * g.n <= 2 * g.m
    best = None
    for u in small:
        cu = coloring[u]
        for v in large if pair_scan else g.neighbors(u):
            # the pair scan needs only the edge test and the walk only the
            # membership test; testing both keeps one loop body
            if v in large and coloring[v] == cu:
                e = norm_edge(u, v)
                if e in g.edges and (best is None or e < best):
                    best = e
    return best


def monochromatic_connector(g: Graph, model: OddExpansionModel, i: int, j: int) -> tuple[int, int]:
    """Connector edge for tree pair (i, j), oriented tree-i endpoint first.

    Prefers the stored connector; otherwise returns the
    `least_monochromatic_edge` of the two trees.  Raises LookupError when no
    such edge exists.
    """
    trees = model.trees
    edge = (model.connectors or {}).get((min(i, j), max(i, j)))
    if edge is None:
        edge = least_monochromatic_edge(g, trees[i], trees[j], model.coloring)
    if edge is None:
        raise LookupError(f"no monochromatic edge between trees {i} and {j}")
    u, v = edge
    return (u, v) if u in trees[i].vertices else (v, u)


# ----------------------------------------------------------------------
# Canonical serialization
#
# Line-oriented key-value text.  Two structurally equal models serialize to
# identical bytes: vertex and edge lists are sorted, coloring is sorted by
# vertex, connectors by tree pair.  Tree order is semantic and preserved.


def serialize_model(model: OddExpansionModel, graph_hash: str) -> str:
    lines = [
        "version: 1",
        f"graph_hash: {graph_hash}",
        f"clique_order: {model.clique_order}",
        f"trees: {model.clique_order}",
    ]
    for t in model.trees:
        vs = " ".join(str(v) for v in t.sorted_vertices)
        es = " ".join(f"{u}-{v}" for u, v in t.sorted_edges)
        lines.append(f"tree: {vs}" if vs else "tree:")
        lines.append(f"edges: {es}" if es else "edges:")
    cs = " ".join(f"{v}={c}" for v, c in sorted(model.coloring.items()))
    lines.append(f"coloring: {cs}" if cs else "coloring:")
    if model.connectors is not None:
        ks = " ".join(f"{i},{j}={u}-{v}"
                      for (i, j), (u, v) in sorted(model.connectors.items()))
        lines.append(f"connectors: {ks}" if ks else "connectors:")
    for note in model.notes:
        lines.append(f"meta: {note}")
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.offsets = []
        pos = 0
        for ln in self.lines:
            self.offsets.append(pos)
            pos += len(ln) + 1
        self.idx = 0

    def peek_key(self):
        if self.idx >= len(self.lines):
            return None
        line = self.lines[self.idx]
        if ":" not in line:
            return None
        return line.split(":", 1)[0].strip()

    def take(self, key: str, field: str) -> str:
        if self.idx >= len(self.lines):
            raise ParseError(f"unexpected end of input, expected '{key}:'",
                             field=field, offset=self.offsets[-1] + len(self.lines[-1]) + 1
                             if self.lines else 0, line=len(self.lines) + 1)
        line = self.lines[self.idx]
        off = self.offsets[self.idx]
        if ":" not in line:
            raise ParseError(f"expected '{key}:' line", field=field,
                             offset=off, line=self.idx + 1)
        k, rest = line.split(":", 1)
        if k.strip() != key:
            raise ParseError(f"expected '{key}:' but found '{k.strip()}:'",
                             field=field, offset=off, line=self.idx + 1)
        self.idx += 1
        return rest.strip()

    def error(self, message: str, field: str) -> ParseError:
        line_idx = min(self.idx, len(self.lines) - 1) if self.lines else 0
        off = self.offsets[line_idx] if self.lines else 0
        return ParseError(message, field=field, offset=off, line=line_idx + 1)


def _parse_int(token: str, reader: _LineReader, field: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise reader.error(f"expected integer, found {token!r}", field)


def _parse_edge_token(token: str, reader: _LineReader, field: str) -> Edge:
    parts = token.split("-")
    if len(parts) != 2:
        raise reader.error(f"expected 'u-v' edge token, found {token!r}", field)
    u = _parse_int(parts[0], reader, field)
    v = _parse_int(parts[1], reader, field)
    if u == v:
        raise reader.error(f"edge token {token!r} is a self-loop", field)
    return norm_edge(u, v)


def parse_model(text: str) -> tuple[OddExpansionModel, str]:
    """Parse a certificate; returns (model, graph_hash).

    Parsing checks structure only (field shapes, counts, value ranges); the
    semantic certificate clauses are left to the verifier.  Unsorted lists
    are accepted and normalized.
    """
    reader = _LineReader(text)
    version = reader.take("version", "version")
    if version != "1":
        raise reader.error(f"unsupported version {version!r}", "version")
    graph_hash = reader.take("graph_hash", "graph_hash")
    if not graph_hash or any(c not in "0123456789abcdef" for c in graph_hash):
        raise reader.error("graph_hash must be lowercase hex", "graph_hash")
    order = _parse_int(reader.take("clique_order", "clique_order"), reader, "clique_order")
    count = _parse_int(reader.take("trees", "trees"), reader, "trees")
    if order != count:
        raise reader.error(f"clique_order {order} does not match tree count {count}", "trees")
    if order < 1:
        raise reader.error("certificate must have at least one tree", "clique_order")

    trees = []
    for k in range(count):
        vtokens = reader.take("tree", f"tree[{k}]").split()
        verts = set()
        for tok in vtokens:
            v = _parse_int(tok, reader, f"tree[{k}]")
            if v < 0:
                raise reader.error(f"negative vertex {v}", f"tree[{k}]")
            if v in verts:
                raise reader.error(f"duplicate vertex {v}", f"tree[{k}]")
            verts.add(v)
        etokens = reader.take("edges", f"tree[{k}].edges").split()
        edges = set()
        for tok in etokens:
            e = _parse_edge_token(tok, reader, f"tree[{k}].edges")
            if e in edges:
                raise reader.error(f"duplicate tree edge {tok}", f"tree[{k}].edges")
            edges.add(e)
        trees.append(BranchTree(frozenset(verts), frozenset(edges)))

    coloring = {}
    for tok in reader.take("coloring", "coloring").split():
        parts = tok.split("=")
        if len(parts) != 2:
            raise reader.error(f"expected 'v=c' token, found {tok!r}", "coloring")
        v = _parse_int(parts[0], reader, "coloring")
        c = _parse_int(parts[1], reader, "coloring")
        if c not in (1, 2):
            raise reader.error(f"color for vertex {v} must be 1 or 2, found {c}", "coloring")
        if v in coloring:
            raise reader.error(f"duplicate color entry for vertex {v}", "coloring")
        coloring[v] = c

    connectors = None
    if reader.peek_key() == "connectors":
        connectors = {}
        for tok in reader.take("connectors", "connectors").split():
            parts = tok.split("=")
            if len(parts) != 2:
                raise reader.error(f"expected 'i,j=u-v' token, found {tok!r}", "connectors")
            pair = parts[0].split(",")
            if len(pair) != 2:
                raise reader.error(f"expected 'i,j' pair in {tok!r}", "connectors")
            i = _parse_int(pair[0], reader, "connectors")
            j = _parse_int(pair[1], reader, "connectors")
            if not (0 <= i < j < count):
                raise reader.error(f"connector pair ({i},{j}) out of range", "connectors")
            if (i, j) in connectors:
                raise reader.error(f"duplicate connector for pair ({i},{j})", "connectors")
            connectors[(i, j)] = _parse_edge_token(parts[1], reader, "connectors")

    notes = []
    while reader.peek_key() == "meta":
        notes.append(reader.take("meta", "meta"))
    if reader.idx < len(reader.lines) and any(ln.strip() for ln in reader.lines[reader.idx:]):
        raise reader.error(f"unexpected trailing content", "trailer")

    model = OddExpansionModel(tuple(trees), coloring, connectors, tuple(notes))
    return model, graph_hash
