"""Odd-expansion certificates: the data model, the verifier, and the
canonical text serialization.

A certificate for "the host graph contains a clique of order r as an odd
minor" consists of r vertex-disjoint branch trees, a 2-coloring (colors 1
and 2) that is proper on every tree, and, for every pair of trees, a host
edge between them whose endpoints receive equal colors.  Connector edges may
be stored explicitly or left to the verifier to find.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import ItemsView, Mapping
from itertools import chain, combinations, compress, islice, repeat
from operator import add, le, lt, mul
from typing import Iterable, Optional, Sequence

from .errors import ParameterError, ParseError
from .graphs import Edge, Frozen, Graph, _decimal_chunks, find_odd_cycle, norm_edge


class BranchTree(Frozen):
    """One branch tree: a vertex set plus the tree edges inside it.

    Structural validity (spanning-tree shape, host membership) is checked by
    the verifier, not here, so that parsed certificates can carry arbitrary
    claims; the model that holds the tree refuses ids that are not ints.
    """

    _fields = ("vertices", "edges")
    vertices: frozenset[int]
    edges: frozenset[Edge]

    def __init__(self, vertices: frozenset[int], edges: frozenset[Edge]):
        self.__dict__.update(vertices=vertices, edges=edges)

    @property
    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))


def branch_tree(vertices: Iterable[int], edges: Iterable[Edge] = ()) -> BranchTree:
    return BranchTree(frozenset(vertices), frozenset(norm_edge(u, v) for u, v in edges))


class PairTable(Mapping):
    """The connectors of a certificate's tree pairs: an immutable map from
    (i, j), 0 <= i < j < `order`, to an edge (u, v), in pair order.

    It keeps flat columns, not a tuple per key and per value: `_us` and
    `_vs`, one end each per pair in pair order, lists of ints that the
    table shares with whatever made them, and `_keys`, None when every
    pair of the `order` trees has an entry, else the ascending i * order +
    j of the pairs that have one.  So a full table costs 16 bytes a pair
    and `table[i, j]` is arithmetic; a partial one costs 24 and a lookup is
    one bisection.  The package's makers, the model and
    `monochromatic_connector`, store each end pair as (min, max).  The
    constructor takes over the lists it is given; those makers build them
    for it alone.
    """

    __slots__ = ("order", "_keys", "_us", "_vs")

    def __init__(self, order: int, keys: Optional[Sequence[int]], us: list[int], vs: list[int]):
        """`keys` (None when every pair has an entry) are distinct pairs
        in range, i * order + j each, in any order, with their ends at the
        same places in `us` and `vs`."""
        if keys is not None:
            if not all(map(lt, keys, islice(keys, 1, None))):
                at = sorted(range(len(keys)), key=keys.__getitem__)
                keys = list(map(keys.__getitem__, at))
                us, vs = list(map(us.__getitem__, at)), list(map(vs.__getitem__, at))
            keys = None if len(keys) == order * (order - 1) // 2 else array("q", keys)
        for name, value in (("order", order), ("_keys", keys), ("_us", us), ("_vs", vs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _position(self, pair) -> Optional[int]:
        """Where the pair's ends are in the columns, or None when it has none."""
        try:
            i, j = pair
        except (TypeError, ValueError):
            return None
        if not (type(i) is type(j) is int and 0 <= i < j < self.order):
            return None
        if self._keys is None:
            return i * (2 * self.order - i - 3) // 2 + j - 1
        key = i * self.order + j
        k = bisect_left(self._keys, key)
        return k if k < len(self._keys) and self._keys[k] == key else None

    def __getitem__(self, pair) -> Edge:
        k = self._position(pair)
        if k is None:
            raise KeyError(pair)
        return self._us[k], self._vs[k]

    def __contains__(self, pair) -> bool:
        return self._position(pair) is not None

    def __iter__(self):
        if self._keys is None:
            return combinations(range(self.order), 2)
        return map(divmod, self._keys, repeat(self.order))

    def __len__(self) -> int:
        return len(self._us)

    def items(self):
        return _PairItems(self)

    def __repr__(self):
        return f"PairTable({self.order}, {dict(self.items())!r})"


class _PairItems(ItemsView):
    """A table's items, read off its columns."""

    __slots__ = ()

    def __iter__(self):
        table = self._mapping
        return zip(table, zip(table._us, table._vs))


def _pair_table(r: int, connectors: Mapping[tuple[int, int], Edge]) -> PairTable:
    """The model's table of `connectors` for r trees, each end pair as
    (min, max).  A PairTable for r trees whose ends are ints with u <= v is
    shared as it is; any other map is checked and copied into new columns,
    and ParameterError names its first entry that has an id that is not an
    int or a key that is not a tree pair."""
    if type(connectors) is PairTable and connectors.order == r:
        us, vs = connectors._us, connectors._vs
        if set(map(type, chain(us, vs))) <= {int} and all(map(le, us, vs)):
            return connectors
    keys, us, vs = [], [], []
    for key, end in connectors.items():
        u, v = end
        i, j = key
        if not (type(i) is type(j) is type(u) is type(v) is int and 0 <= i < j < r):
            raise ParameterError(f"connector {i!r},{j!r}={u!r}-{v!r} needs int ids "
                                 f"and a tree pair 0 <= i < j < {r}")
        keys.append(i * r + j)
        us.append(u)
        vs.append(v)
    if not all(map(le, us, vs)):
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
    return PairTable(r, keys, us, vs)


class OddExpansionModel(Frozen):
    """An odd-expansion certificate.

    trees: ordered branch trees, one per clique vertex.
    coloring: partial map vertex -> color in {1, 2}; must cover tree vertices.
    connectors: optional map (i, j) with 0 <= i < j < len(trees) -> stored
        host edge for that tree pair.  When a pair has a stored edge the
        verifier checks exactly that edge; otherwise it searches all cross
        edges.
    notes: free-text provenance flags carried into the serialized form, one
        `meta:` line each, so a note may not contain a line break, nor
        start or end with whitespace.

    Every id (tree vertex, tree-edge end, coloring key, connector key and
    end) must be a plain int, the rule `Graph` and `parse_model` apply, and
    every connector key a pair of trees; the model refuses anything else
    with ParameterError when it is made.  Everything else it holds is a
    claim for the verifier.

    The model holds a copy of the `coloring` it is given, and its
    connectors, when it has any, as one `PairTable` for its trees, each end
    pair (min, max).  The table is immutable, so a table given for as many
    trees, with its ends in that order (as `monochromatic_connector` gives
    them), is shared as it is, not copied; any other map is checked and
    copied into a new table.
    """

    _fields = ("trees", "coloring", "connectors", "notes")
    trees: tuple[BranchTree, ...]
    coloring: dict[int, int]
    connectors: Optional[PairTable]
    notes: tuple[str, ...]

    def __init__(self, trees: tuple[BranchTree, ...], coloring: Mapping[int, int],
                 connectors: Optional[Mapping[tuple[int, int], Edge]] = None,
                 notes: Iterable[str] = ()):
        coloring = dict(coloring)
        ids = [coloring]
        for t in trees:
            ids.append(t.vertices)
            ids.extend(t.edges)
        if not set(map(type, chain.from_iterable(ids))) <= {int}:
            bad = next(x for x in chain.from_iterable(ids) if type(x) is not int)
            raise ParameterError(f"vertex id {bad!r} is not an int")
        if connectors is not None:
            connectors = _pair_table(len(trees), connectors)
        if isinstance(notes, str):
            raise ParameterError(f"notes {notes!r} is one str, not a sequence of notes")
        notes = tuple(notes)
        for note in notes:
            if not isinstance(note, str):
                raise ParameterError(f"note {note!r} is not a str")
            if note.splitlines() not in ([], [note]):
                raise ParameterError(f"note {note!r} contains a line break")
            if note != note.strip():  # the parser strips each `meta:` line
                raise ParameterError(f"note {note!r} has leading or trailing whitespace")
        self.__dict__.update(trees=trees, coloring=coloring, connectors=connectors, notes=notes)

    @property
    def clique_order(self) -> int:
        return len(self.trees)


class Verdict(Frozen):
    """Outcome of a verification run; failures carry a concrete witness."""

    _fields = ("status", "clause", "trees", "vertices", "edges", "message")
    status: str  # "pass" or "fail"
    clause: Optional[str]
    trees: tuple[int, ...]
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    message: str

    def __init__(self, status: str, clause: Optional[str] = None, trees: tuple[int, ...] = (),
                 vertices: tuple[int, ...] = (), edges: tuple[Edge, ...] = (),
                 message: str = ""):
        self.__dict__.update(status=status, clause=clause, trees=trees, vertices=vertices,
                             edges=edges, message=message)

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


# Colors must be plain ints.  True == 1 and 1.0 == 1 pass every check by
# value, but serialize as "True" and "1.0", which the parser rejects.  Ids
# are plain ints by construction of the model.
def _is_color(c) -> bool:
    return type(c) is int and c in (1, 2)


def _is_vertex(v, g: Graph) -> bool:
    return 0 <= v < g.n


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
    on every tree edge, then connectors pair by pair.  One walk over the
    stored connectors' columns, with no `Graph.has_edge` call per
    connector, finds the first that fails and why.  The pairs are walked
    one by one only when some pair has no stored connector, to find one
    before that failure that has no connector at all; in plain mode those
    pairs are looked up in one `monochromatic_connector` table, built at
    the first of them and not walked when it is full.
    The model has already refused ids that are not plain ints and connector
    keys that are not tree pairs; a color that is not the int 1 or 2 (a
    bool, a float) fails `coloring_missing`.

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
            if not (u in t.vertices and v in t.vertices):
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

    stored = model.connectors or PairTable(r, [], [], [])
    # one walk over the stored connectors' columns names the first that
    # fails, and why
    bad = failure = None
    us, vs = stored._us, stored._vs
    for (i, j), u, v, edge in zip(stored, us, vs, g.has_edges(us, vs)):
        ou, ov = owner.get(u), owner.get(v)
        if not (ou == i and ov == j or ou == j and ov == i):
            why = f"does not join trees {i} and {j}"
        elif not edge:
            why = "is not a host edge"
        elif coloring.get(u) != coloring.get(v):
            why = "is not monochromatic"
        else:
            continue
        bad = i, j
        failure = _fail("connector_invalid", trees=bad, edges=((u, v),),
                        message=f"stored connector {u}-{v} {why}")
        break
    # a pair before that one may have no connector: none stored (strict),
    # or none in the sweep's table, built at the first pair without a
    # stored one and not walked when it is full (plain)
    pairs = r * (r - 1) // 2
    table = stored if strict else None
    if len(stored) < pairs:
        for pair in combinations(range(r), 2):
            if pair == bad:
                break
            if table is None:
                if pair in stored:
                    continue
                table = monochromatic_connector(g, model)
                if len(table) == pairs:
                    break
            if pair not in table:
                i, j = pair
                return _fail("connector_missing", trees=pair, message=(
                    f"strict mode: no stored connector for pair ({i},{j})" if strict
                    else f"no monochromatic edge between trees {i} and {j}"))
    return failure or Verdict("pass", message=f"order={r}")


def monochromatic_connector(g: Graph, model: OddExpansionModel) -> PairTable:
    """The connector of every tree pair i < j, in pair order, its ends
    (min, max) as in every table: the stored connector when the model has
    one, otherwise the lexicographically least host edge with one end in
    each tree and equal colors at both ends.  A pair with neither is left
    out, and a model whose own table has every pair gets that table back.
    The trees must be disjoint and their vertices colored, as the verifier
    checks before it asks.

    One sweep finds every least edge.  `g.rows()` ascends in (u, v) order,
    so the first same-colored edge that crosses a pair of trees is that
    pair's least.  A row is read only when u is a tree vertex, and C-level
    passes map its ends to their trees and keep the least end per tree; the
    sweep stops once every pair is filled.  Each filled pair takes a stored
    connector or a host edge of its own, so only when there are as many of
    those as pairs does the sweep fill two pair-indexed columns of ends in
    place, which become the returned `PairTable` as they are when every
    pair is filled; otherwise the filled places are picked out of them
    once.  With fewer, it keeps the filled pairs in two dicts, at most one
    entry per stored connector and host edge.
    """
    trees = model.trees
    r = len(trees)
    pairs = r * (r - 1) // 2
    stored = model.connectors or PairTable(r, [], [], [])
    if len(stored) == pairs:
        return stored
    if pairs <= len(stored) + g.m:
        # pair (i, j) is place base[i] + j of two columns
        base = [i * (2 * r - i - 3) // 2 - 1 for i in range(r)]
        us, vs = [None] * pairs, [None] * pairs
    else:
        # pair (i, j) is key base[i] + j = i * r + j; reading a key adds it
        # as None, and the sweep fills every key it reads as None at once
        base = list(range(0, r * r, r))
        us, vs = defaultdict(type(None)), {}
    for (i, j), u, v in zip(stored, stored._us, stored._vs):
        k = base[i] + j
        us[k], vs[k] = u, v
    missing = pairs - len(stored)
    coloring = model.coloring
    owner = {v: k for k, t in enumerate(trees) for v in t.vertices}
    same: dict[int, dict[int, int]] = {1: {}, 2: {}}  # color -> its tree vertices' owners
    for v, k in owner.items():
        same[coloring[v]][v] = k
    for u, row in g.rows():
        a = owner.get(u)
        if a is None:
            continue
        down = row[::-1]  # descending, so the least end of each tree is kept
        ends = dict(zip(map(same[coloring[u]].get, down), down))
        ends.pop(None, None)
        ends.pop(a, None)
        mine = base[a]
        for b, v in ends.items():
            k = mine + b if a < b else base[b] + a
            if us[k] is None:
                us[k], vs[k] = u, v
                missing -= 1
        if not missing:
            return PairTable(r, None, us, vs)
    if type(us) is not list:
        return PairTable(r, list(us), list(us.values()), list(vs.values()))
    found = [u is not None for u in us]
    keys = [i * r + j for i, j in compress(combinations(range(r), 2), found)]
    return PairTable(r, keys, list(compress(us, found)), list(compress(vs, found)))


# ----------------------------------------------------------------------
# The certificates of orders 1 to 3 that every host with a vertex, an edge
# or an odd cycle has


def singleton_model(g: Graph) -> OddExpansionModel:
    """Order-1 certificate on any non-empty graph."""
    if g.n < 1:
        raise ParameterError("host graph has no vertices")
    return OddExpansionModel((branch_tree([0]),), {0: 1})


def single_edge_model(g: Graph) -> OddExpansionModel:
    """Order-2 certificate from the least edge of the host."""
    if g.m == 0:
        raise ParameterError("host graph has no edges")
    u, row = next(iter(g.rows()))
    v = row[0]
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
        (0, 1): (anchor, left[0]),
        (0, 2): (anchor, right[-1]),
        (1, 2): (left[-1], right[0]),
    }
    return OddExpansionModel(trees, coloring, connectors)


# ----------------------------------------------------------------------
# Canonical serialization
#
# Line-oriented key-value text.  Two structurally equal models serialize to
# identical bytes: vertex and edge lists are sorted, coloring is sorted by
# vertex, connectors by tree pair; every id is an int, so one plain sort
# orders each.  Tree order is semantic and preserved.


_JOIN = 4096  # connector tokens joined at a time


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
        lines.append(_connector_line(model.connectors))
    for note in model.notes:
        lines.append(f"meta: {note}")
    lines.append("")  # the final line feed, without a copy of the text to add it
    return "\n".join(lines)


def _connector_line(connectors: PairTable) -> str:
    """The `connectors:` line, its tokens in pair order, read off the
    table's columns and joined `_JOIN` at a time, so that no list holds a
    string per token."""
    tokens = zip(connectors, connectors._us, connectors._vs)
    chunks = ["connectors:"]
    for _ in range(0, len(connectors), _JOIN):
        chunks.append(" ".join([f"{i},{j}={u}-{v}" for (i, j), u, v in islice(tokens, _JOIN)]))
    return " ".join(chunks)


def parse_model(text: str) -> tuple[OddExpansionModel, str]:
    """Parse a certificate; returns (model, graph_hash).

    Parsing checks structure only (field shapes, counts, value ranges); the
    semantic certificate clauses are left to the verifier.  Unsorted lists
    are accepted and normalized.  A `ParseError` names the line just read,
    the line found in place of an expected key, or the first non-blank
    trailing line.

    A connector line as `serialize_model` writes it ('i,j=u-v' tokens
    joined by single spaces, the pairs ascending with 0 <= i < j < count,
    and u < v) is read in place, in chunks, by the scanner
    `_decimal_chunks`.  Any other connector line goes, whole, to the token
    loop, the one that raises ParseError, so the two read every line
    alike.
    """
    lines = text.splitlines(keepends=True)
    index = -1  # the line just read
    ids: dict[str, int] = {}  # token -> int, so that each id is one int object

    def error(message: str, field: str) -> ParseError:
        return ParseError.at(lines, index, message, field)

    def number(token: str, field: str) -> int:
        v = ids.get(token)
        if v is None:
            try:
                v = ids[token] = int(token)
            except ValueError:
                raise error(f"expected integer, found {token!r}", field)
        return v

    def edge(token: str, field: str) -> Edge:
        parts = token.split("-")
        if len(parts) != 2:
            raise error(f"expected 'u-v' edge token, found {token!r}", field)
        u = number(parts[0], field)
        v = number(parts[1], field)
        if u == v:
            raise error(f"edge token {token!r} is a self-loop", field)
        return norm_edge(u, v)

    # the key and value of a line are read by offset, not split off: a
    # certificate's connector line is most of its text

    def next_key() -> str | None:
        if index + 1 < len(lines):
            colon = lines[index + 1].find(":")
            if colon >= 0:
                return lines[index + 1][:colon].strip()
        return None

    def take_line(key: str, field: str) -> int:
        """Move to the next line, which must be a `key:` line; returns where
        its value starts."""
        nonlocal index
        index += 1
        if index == len(lines):
            raise error(f"unexpected end of input, expected '{key}:'", field)
        line = lines[index]
        colon = line.find(":")
        if colon < 0:
            raise error(f"expected '{key}:' line", field)
        if line[:colon].strip() != key:
            raise error(f"expected '{key}:' but found '{line[:colon].strip()}:'", field)
        return colon + 1

    def take(key: str, field: str) -> str:
        start = take_line(key, field)
        return lines[index][start:].strip()

    version = take("version", "version")
    if version != "1":
        raise error(f"unsupported version {version!r}", "version")
    graph_hash = take("graph_hash", "graph_hash")
    if not graph_hash or any(c not in "0123456789abcdef" for c in graph_hash):
        raise error("graph_hash must be lowercase hex", "graph_hash")
    order = number(take("clique_order", "clique_order"), "clique_order")
    count = number(take("trees", "trees"), "trees")
    if order != count:
        raise error(f"clique_order {order} does not match tree count {count}", "trees")
    if order < 1:
        raise error("certificate must have at least one tree", "clique_order")

    trees = []
    for k in range(count):
        vtokens = take("tree", f"tree[{k}]").split()
        verts = set()
        for tok in vtokens:
            v = number(tok, f"tree[{k}]")
            if v < 0:
                raise error(f"negative vertex {v}", f"tree[{k}]")
            if v in verts:
                raise error(f"duplicate vertex {v}", f"tree[{k}]")
            verts.add(v)
        etokens = take("edges", f"tree[{k}].edges").split()
        edges = set()
        for tok in etokens:
            e = edge(tok, f"tree[{k}].edges")
            if e in edges:
                raise error(f"duplicate tree edge {tok}", f"tree[{k}].edges")
            edges.add(e)
        trees.append(BranchTree(frozenset(verts), frozenset(edges)))

    coloring = {}
    for tok in take("coloring", "coloring").split():
        parts = tok.split("=")
        if len(parts) != 2:
            raise error(f"expected 'v=c' token, found {tok!r}", "coloring")
        v = number(parts[0], "coloring")
        c = number(parts[1], "coloring")
        if c not in (1, 2):
            raise error(f"color for vertex {v} must be 1 or 2, found {c}", "coloring")
        if v in coloring:
            raise error(f"duplicate color entry for vertex {v}", "coloring")
        coloring[v] = c

    connectors = None
    if next_key() == "connectors":
        start = take_line("connectors", "connectors")
        us, vs = [], []  # the table's columns of ends
        last = -1  # i * count + j of the last pair read
        try:
            if lines[index][start:start + 1] != " ":
                raise ValueError("no space after the key")
            line = lines[index]
            stop = len(line) - line.endswith("\n")
            for ends in _decimal_chunks(line, start + 1, ",=- ", ids, stop):
                i, j, u, v = ends[0::4], ends[1::4], ends[2::4], ends[3::4]
                # j < count, so the keys ascend as the pairs do
                pairs = list(map(add, map(mul, i, repeat(count)), j))
                if not (all(map(lt, i, j)) and max(j) < count and last < pairs[0]
                        and all(map(lt, pairs, pairs[1:])) and all(map(lt, u, v))):
                    raise ValueError("connectors out of order or out of range")
                us.extend(u)
                vs.extend(v)
                last = pairs[-1]
            keys = None  # as many ascending pairs in range as there are pairs: all of them
            if len(us) < count * (count - 1) // 2:  # some: their keys, read again
                keys = []
                for ends in _decimal_chunks(line, start + 1, ",=- ", ids, stop):
                    keys.extend(map(add, map(mul, ends[0::4], repeat(count)), ends[1::4]))
        except ValueError:  # not as `serialize_model` writes it: the token loop reads it all
            keys, us, vs = [], [], []
            seen = set()
            for tok in lines[index][start:].split():
                parts = tok.split("=")
                if len(parts) != 2:
                    raise error(f"expected 'i,j=u-v' token, found {tok!r}", "connectors")
                pair = parts[0].split(",")
                if len(pair) != 2:
                    raise error(f"expected 'i,j' pair in {tok!r}", "connectors")
                i = number(pair[0], "connectors")
                j = number(pair[1], "connectors")
                if not (0 <= i < j < count):
                    raise error(f"connector pair ({i},{j}) out of range", "connectors")
                key = i * count + j
                if key in seen:
                    raise error(f"duplicate connector for pair ({i},{j})", "connectors")
                seen.add(key)
                u, v = edge(parts[1], "connectors")
                keys.append(key)
                us.append(u)
                vs.append(v)
        connectors = PairTable(count, keys, us, vs)

    notes = []
    while next_key() == "meta":
        notes.append(take("meta", "meta"))
    for index in range(index + 1, len(lines)):
        if lines[index].strip():
            raise error("unexpected trailing content", "trailer")
    del lines  # the text's lines are not kept while the model is made

    return OddExpansionModel(tuple(trees), coloring, connectors, tuple(notes)), graph_hash
