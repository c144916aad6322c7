"""Immutable simple graphs, named families, the four graph products (one
edge rule; `hamming` is the iterated Cartesian product), structural routines
read off one deterministic BFS forest (bipartiteness, components, odd cycles,
spanning trees) and the canonical text format.

Vertices are the integers 0..n-1.  Product vertices (a, b) are flattened to
a * |V(H)| + b, with the first factor most significant; every certificate in
this package relies on that fixed flattening.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from functools import cached_property
from itertools import chain, compress
from operator import lt, ne, or_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParameterError, ParseError, StructureError

Edge = tuple[int, int]

PRODUCT_KINDS = ("cartesian", "direct", "lexicographic", "strong")

# The most edges a named family or a product may have.  In a graph's rows an
# edge costs about 8 bytes, one pointer in its smaller end's tuple, and a
# vertex with a row 120-145 bytes: its dict entry, its tuple and its int
# (CPython 3.11, tracemalloc over K1500, K2000, K30 x K30, K40 x K40 and the
# 1M-cycle).  So the cap is under 300 MB for a dense graph, before the
# adjacency lists a command may add, and it admits K60 x K60 direct (6.3M
# edges).  A graph keeps no canonical text: a whole render, 8-14 bytes an
# edge, lives only while its caller holds it (twice that while it is
# joined), and `content_hash` hashes one piece at a time.  The cap also
# bounds the vertex count of a product or of a graph read from text: a
# vertex with an edge costs more than an edge, and a ten-byte file can
# claim any number of them.
MAX_EDGES = 10_000_000


def norm_edge(u: int, v: int) -> Edge:
    """Order an edge's endpoints as (min, max)."""
    return (u, v) if u < v else (v, u)


def _require_size(count: int, what: str, unit: str = "edges"):
    """Refuse a graph with more than MAX_EDGES edges (or vertices) before
    building it."""
    if count > MAX_EDGES:
        raise ParameterError(f"{what} would have at least {count} {unit}, more than {MAX_EDGES}")


def _bad_edge(e, n: int) -> ParameterError:
    return ParameterError(f"bad edge {e!r} for n={n} (need ints 0 <= u < v < n)")


class Frozen:
    """Base of the package's immutable values.

    A subclass names its fields in `_fields` and stores them in its own
    `__init__` through the instance dict, so that assigning or deleting an
    attribute afterwards raises AttributeError.  Two values are equal when
    they are of one class and their fields are equal; `hash` and `repr`
    read the same fields.  (`cached_property` writes the instance dict too,
    so it works on these values.)
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Graph(Frozen):
    """Simple loopless undirected graph on vertices 0..n-1.

    Immutable value: safe to share freely.  It is stored as upper-adjacency
    rows: for each vertex u that has a larger neighbour, in ascending order
    of u, the ascending tuple of those neighbours.  An isolated vertex costs
    nothing, the canonical text is the rows written out in order, and
    `has_edge` is one bisection in one row.  The graph caches the SHA-256
    digest of its canonical text, never the text, which is rendered anew
    when asked for.  `edges`, the frozenset of (u, v) pairs with u < v, is
    built from the rows when first asked for; no routine in this package
    asks for it, and `repr` builds it without caching it.  A pair given
    twice counts once.
    """

    _fields = ("n", "edges")  # what repr shows; equality and hash read the rows
    n: int
    m: int
    _rows: dict[int, tuple[int, ...]]

    def __init__(self, n: int, edges: Iterable[Edge]):
        # plain ints only: True or 1.0 would compare equal to an int id but
        # render as different text, and so hash differently
        if type(n) is not int or n < 0:
            raise ParameterError(f"vertex count must be a non-negative int, got {n!r}")
        later: dict[int, list[int]] = {}
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):  # not a pair
                raise _bad_edge(e, n) from None
            if not (type(u) is type(v) is int and 0 <= u < v < n):
                raise _bad_edge(e, n)
            if u in later:
                later[u].append(v)
            else:
                later[u] = [v]
        rows = {u: tuple(sorted(later[u])) for u in sorted(later)}
        for u, row in rows.items():
            if not all(map(lt, row, row[1:])):  # a pair given twice counts once
                rows[u] = tuple(sorted(set(row)))
        self.__dict__.update(n=n, m=sum(map(len, rows.values())), _rows=rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash((self.n, tuple(self._rows.items())))

    def __repr__(self):
        # `edges` built for the text alone: one repr of a large host (a
        # failing test's message) must not leave the set cached
        return f"Graph(n={self.n!r}, edges={Graph.edges.func(self)!r})"

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The (u, v) pairs with u < v, built from the rows once."""
        return frozenset([(u, v) for u, row in self._rows.items() for v in row])

    def rows(self):
        """(u, the ascending neighbours of u above u) for each vertex u that
        has a larger neighbour, in ascending order of u: a read-only view."""
        return self._rows.items()

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        # each vertex with a neighbour -> all its neighbours, ascending: the
        # rows visit the smaller ends in ascending order
        rows = self._rows
        lower: dict[int, list[int]] = {}
        for u, row in rows.items():
            for v in row:
                if v in lower:
                    lower[v].append(u)
                else:
                    lower[v] = [u]
        return {v: (*lower.get(v, ()), *rows.get(v, ())) for v in sorted(lower.keys() | rows.keys())}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj.get(v, ())

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        row = self._rows.get(u, ())
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def has_edges(self, us: Iterable[int], vs: Iterable[int]) -> Iterator[bool]:
        """`has_edge(u, v)` for the pairs of two columns of ends, u <= v in
        each, lazily and without a method call per pair."""
        rows = self._rows
        for u, v in zip(us, vs):
            row = rows.get(u, ())
            k = bisect_left(row, v)
            yield k < len(row) and row[k] == v

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def canonical_text(self) -> str:
        """Canonical text form: 'n m' then one 'u v' line per edge, ascending;
        rendered anew on each call.  The graph keeps the text's digest, not
        the text: a render also fixes `content_hash`, so a caller that writes
        the text and then hashes the graph renders it once."""
        text = "".join(self._pieces())
        if "_digest" not in self.__dict__:
            self.__dict__["_digest"] = hashlib.sha256(text.encode("ascii")).hexdigest()
        return text

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical text form, computed once per
        graph: taken from the text when a render or `read_graph_text` has
        had it, else hashed from a render a piece at a time, never whole."""
        digest = self.__dict__.get("_digest")
        if digest is None:
            sha = hashlib.sha256()
            for piece in self._pieces():
                sha.update(piece.encode("ascii"))
            digest = self.__dict__["_digest"] = sha.hexdigest()
        return digest

    def _pieces(self):
        """The canonical text, rendered on demand: the header, then the
        lines of a run of rows at a time, each piece about `_CHUNK`
        characters or one row."""
        # a decimal name for each id 0..n-1 when there are at most two ids
        # an edge, else for the ends of the edges only: an isolated vertex
        # costs nothing here either
        rows = self._rows
        if self.n <= 2 * self.m:
            names = list(map(str, range(self.n)))
        else:
            ends = set(rows).union(*rows.values())
            names = dict(zip(ends, map(str, ends)))
        yield f"{self.n} {self.m}\n"
        parts, size = [], 0
        for u, row in rows.items():
            prefix = names[u] + " "
            parts.append(prefix + ("\n" + prefix).join(map(names.__getitem__, row)) + "\n")
            size += len(parts[-1])
            if size >= _CHUNK:
                yield "".join(parts)
                parts, size = [], 0
        if parts:
            yield "".join(parts)


def _from_rows(n: int, m: int, rows: dict[int, tuple[int, ...]]) -> Graph:
    """The Graph with these rows, made without the checks of `Graph`: each
    caller builds its rows ascending, in range and m in number."""
    g = object.__new__(Graph)
    g.__dict__.update(n=n, m=m, _rows=rows)
    return g


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph, normalizing edge orientation and rejecting loops."""
    out = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):  # not a pair
            raise _bad_edge(e, n) from None
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        out.add(norm_edge(u, v))
    return Graph(n, out)


# ----------------------------------------------------------------------
# Named families


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"complete graph needs n >= 1, got {n}")
    _require_size(n * (n - 1) // 2, f"complete:{n}")
    ids = tuple(range(n))  # one int object per vertex, shared by the rows' slices
    return _from_rows(n, n * (n - 1) // 2, {u: ids[u + 1:] for u in ids[:-1]})


def star(k: int) -> Graph:
    """Star with k leaves; the center is vertex 0, leaves are 1..k."""
    if k < 0:
        raise ParameterError(f"star needs k >= 0 leaves, got {k}")
    _require_size(k, f"star:{k}")
    return _from_rows(k + 1, k, {0: tuple(range(1, k + 1))} if k else {})


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    _require_size(n, f"cycle:{n}")
    ids = tuple(range(n))
    rows = dict(zip(ids, zip(ids[1:])))  # u -> (u + 1,), as in `path`
    rows[0] = (ids[1], ids[-1])
    return _from_rows(n, n, rows)


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"path needs n >= 1, got {n}")
    _require_size(n - 1, f"path:{n}")
    ids = tuple(range(n))
    # u -> (u + 1,): zip makes the 1-tuples of the ids after the first
    return _from_rows(n, n - 1, dict(zip(ids, zip(ids[1:]))))


def hamming(n: int, d: int) -> Graph:
    """d-fold Cartesian power of K_n, built as the iterated
    `product("cartesian", ., K_n)`: vertices are d-tuples over 0..n-1
    flattened in mixed radix n with the first coordinate most significant.
    """
    if n < 1 or d < 1:
        raise ParameterError(f"hamming needs n >= 1 and d >= 1, got ({n}, {d})")
    # d(n-1)n^d/2 edges; n^64 alone exceeds the cap for n >= 2, so a larger
    # power need not be computed
    _require_size(d * (n - 1) * n ** min(d, 64) // 2, f"hamming:{n},{d}")
    if n == 1:
        return complete(1)  # every power of K1 is K1, and has no edge to cap
    g = k = complete(n)
    for _ in range(d - 1):
        g = product("cartesian", g, k)
    return g


# family -> (builder, number of integer parameters)
_FAMILIES = {"complete": (complete, 1), "star": (star, 1), "cycle": (cycle, 1),
             "path": (path, 1), "hamming": (hamming, 2)}

NAMED_FAMILIES = tuple(_FAMILIES)


def make_named_graph(family: str, params: Sequence[int]) -> Graph:
    """Build a named graph; see each family builder for vertex numbering."""
    if family not in _FAMILIES:
        raise ParameterError(f"unknown graph family {family!r} (expected one of {NAMED_FAMILIES})")
    build, count = _FAMILIES[family]
    params = list(params)
    if len(params) != count:
        raise ParameterError(f"{family} takes {count} parameter(s), got {params!r}")
    return build(*params)


# ----------------------------------------------------------------------
# Products


def flatten(a: int, b: int, n_second: int) -> int:
    return a * n_second + b


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Product of g and h on |V(g)|*|V(h)| vertices under the fixed flattening.

    One rule serves all four kinds.  Across each edge a1 < a2 of g, (a1, b)
    joins (a2, b') for each of the kind's columns b' of b in `across`: b
    itself (cartesian), the neighbours of b (direct), both (strong) or every
    vertex of h (lexicographic).  Every kind except direct also joins (a, b)
    to (a, b') for each edge b < b' of h.  So the row of (a, b) comes out
    ascending from the factors' rows: (a, b') for b' in the row of b, then
    the columns of b in block a' for each a' in the row of a.  No pair is
    produced twice, so the vertex and edge counts are checked against
    MAX_EDGES before any row is built.

    Each flattened id is one int object, shared by every row that holds it:
    `ids` gives each first-factor vertex the ids of the columns its blocks
    use, every column joined across when it has an edge in g and the
    columns with an edge in h when it has none.  That is at most two ids an
    edge, however many isolated vertices either factor has.
    """
    if kind not in PRODUCT_KINDS:
        raise ParameterError(f"unknown product kind {kind!r} (expected one of {PRODUCT_KINDS})")
    nh = h.n
    _require_size(g.n * nh, f"{kind} product", "vertices")
    direct = kind == "direct"
    # the columns joined across one edge of g, summed over the columns of h
    width = {"cartesian": nh, "direct": 2 * h.m, "lexicographic": nh * nh,
             "strong": nh + 2 * h.m}[kind]
    m = g.m * width + (0 if direct else g.n * h.m)
    _require_size(m, f"{kind} product")
    inner = {} if direct else h._rows
    if not g.m:
        across = {}
    elif direct:
        across = h._adj
    elif kind == "cartesian":
        across = {b: (b,) for b in range(nh)}
    elif kind == "strong":
        across = {b: tuple(sorted((b, *h.neighbors(b)))) for b in range(nh)}
    else:
        across = dict.fromkeys(range(nh), tuple(range(nh)))
    if g.n * nh <= 257:
        # CPython keeps one object for each int up to 256: arithmetic shares them
        ids = {a: list(range(a * nh, a * nh + nh)) for a in range(g.n)}
    else:
        touched = g._rows.keys() | set(chain.from_iterable(g._rows.values()))  # have an edge
        columns = inner.keys() | set(chain.from_iterable(inner.values()))
        ids = {a: _id_row(a * nh, nh, across if a in touched else columns)
               for a in (range(g.n) if inner else sorted(touched))}
    rows = {}
    for a, ida in ids.items():
        ups = [ids[x] for x in g._rows.get(a, ())]  # the id rows of the blocks above a that a joins
        for b in across if ups else inner:
            own = inner.get(b)
            cross = [idx[c] for idx in ups for c in across[b]]
            rows[ida[b]] = (*map(ida.__getitem__, own), *cross) if own else tuple(cross)
    return _from_rows(g.n * nh, m, rows)


def _id_row(base: int, nh: int, columns) -> Sequence[int]:
    """The ids base + b of the given columns b of one block, indexed by b: a
    list when the columns are all of 0..nh-1, a dict otherwise."""
    if len(columns) == nh:
        return list(range(base, base + nh))
    return {b: base + b for b in columns}


# ----------------------------------------------------------------------
# Structural routines


def _bfs_forest(g: Graph, vertices: Sequence[int]) -> dict[int, tuple[Optional[int], int]]:
    """BFS forest of the subgraph induced on the ascending `vertices`: each
    tree is rooted at the lowest vertex not yet reached and visits neighbors
    in ascending order.  Returns {vertex: (parent, depth)} in visit order; a
    root's parent is None."""
    inside = set(vertices)
    reach: dict[int, tuple[Optional[int], int]] = {}
    for root in vertices:
        if root in reach:
            continue
        reach[root] = (None, 0)
        queue = [root]
        for u in queue:
            depth = reach[u][1] + 1
            for w in g.neighbors(u):
                if w not in reach and w in inside:
                    reach[w] = (u, depth)
                    queue.append(w)
    return reach


def _odd_edge(g: Graph) -> tuple[dict[int, tuple[Optional[int], int]], Optional[Edge]]:
    """The BFS forest of g and its least edge whose ends have depths of equal
    parity, or None in its place when there is none (g is bipartite)."""
    forest = _bfs_forest(g, range(g.n))
    for u, row in g.rows():
        side = forest[u][1] & 1
        for w in row:
            if forest[w][1] & 1 == side:
                return forest, (u, w)
    return forest, None


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by lowest vertex."""
    comps: list[list[int]] = []
    for v, (parent, _) in _bfs_forest(g, range(g.n)).items():
        if parent is None:
            comps.append([])
        comps[-1].append(v)
    return [tuple(sorted(c)) for c in comps]


def is_bipartite(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Return a bipartition (part1, part2) or None if an odd cycle exists.

    Deterministic: the parts are the even and odd depths of the BFS forest
    (lowest-id root of each component, neighbors in ascending order), so
    component roots and isolated vertices are in part 1.
    """
    forest, edge = _odd_edge(g)
    if edge is not None:
        return None
    return (tuple(v for v in range(g.n) if not forest[v][1] & 1),
            tuple(v for v in range(g.n) if forest[v][1] & 1))


def find_odd_cycle(g: Graph) -> Optional[list[int]]:
    """Return an odd cycle as an ordered vertex list, or None if bipartite.

    Deterministic: BFS forest from lowest roots, then the first conflicting
    edge in ascending edge order; the cycle is closed through the nearest
    common ancestor.
    """
    forest, edge = _odd_edge(g)
    if edge is None:
        return None
    # The ends of an edge differ in BFS depth by at most one, so a conflict
    # edge joins equal depths: climb both ends in step to their ancestor.
    u, v = edge
    up_u, up_v = [], []
    while u != v:
        up_u.append(u)
        up_v.append(v)
        u, v = forest[u][0], forest[v][0]
    # Ancestor, down to u, across the conflict edge, back up from v.
    return [u] + up_u[::-1] + up_v


def spanning_tree(g: Graph, vertices: Iterable[int]) -> frozenset[Edge]:
    """Deterministic BFS spanning tree of the induced subgraph on `vertices`.

    BFS starts at the lowest id and visits neighbors in ascending order.
    Raises StructureError naming a separated vertex if the induced subgraph
    is disconnected.
    """
    verts = sorted(set(vertices))
    if not verts:
        raise ParameterError("spanning_tree needs a non-empty vertex set")
    for v in verts:
        if not (0 <= v < g.n):
            raise ParameterError(f"vertex {v} outside host graph of order {g.n}")
    forest = _bfs_forest(g, verts)
    roots = [v for v, (parent, _) in forest.items() if parent is None]
    if len(roots) > 1:
        raise StructureError(f"vertex {roots[1]} is separated from {roots[0]} within the requested set")
    return frozenset(norm_edge(parent, w) for w, (parent, _) in forest.items() if parent is not None)


# ----------------------------------------------------------------------
# Text formats


def write_graph_text(g: Graph) -> str:
    return g.canonical_text()


# Canonical number lists (the graph text, a certificate's connector line)
# are read this many characters at a time, so that only one chunk's tokens
# are alive at once.  A canonical edge line is at most 16 characters (n <=
# MAX_EDGES) and a connector token little more, so a stretch this long
# without a separator is not canonical.
_CHUNK = 1 << 16


def _decimal_chunks(text: str, start: int, unit: str, ids: dict[str, int],
                    stop: Optional[int] = None):
    """The ints of text[start:stop], a chunk at a time, when that text is a
    canonical number list: each number the decimal form of its int (no
    sign, no leading zero), each followed by one separator, and the
    separators `unit` over and over; `stop` (the end of the text when None)
    may stand in for the last one.  Raises ValueError, at the first chunk
    that is not, to decline the list.  The list is read where it lies in
    `text`: only a chunk at a time is copied.

    A chunk ends after the last `unit[-1]` within `_CHUNK` characters, or
    at `stop`.  C-level passes check its shape: deleting the digits leaves
    `unit` once per len(unit) numbers.  Each distinct token is converted
    once through `ids`, so every int yielded for one token is one object.
    """
    # the separators become spaces for `split`, which already splits at white space
    blank = None if unit.isspace() else str.maketrans(unit, " " * len(unit))
    shape = unit.encode("ascii")
    final = unit[-1]
    stop = len(text) if stop is None else stop
    while start < stop:
        end = start + _CHUNK
        if end < stop:
            end = text.rfind(final, start, end) + 1
            if end <= start:
                raise ValueError(f"no {final!r} within a chunk")
        else:
            end = stop
        chunk = text[start:end]
        tokens = (chunk.translate(blank) if blank else chunk).split()
        # UnicodeEncodeError, a ValueError, refuses a character beyond ASCII
        seps = chunk.encode("ascii").translate(None, b"0123456789")
        if chunk[-1] != final:  # `stop`
            seps += shape[-1:]
        # as many numbers as separators: one right before each
        if seps != shape * (len(tokens) // len(unit)):
            raise ValueError("not a canonical number list")
        ends = tuple(map(ids.get, tokens))
        if None in ends:  # a token not met before
            for token in set(tokens).difference(ids):
                ids[token] = v = int(token)  # also refuses a token past int's digit limit
                if str(v) != token:  # a leading zero
                    raise ValueError("not a canonical number list")
            ends = tuple(map(ids.__getitem__, tokens))
        del chunk, tokens  # only the ints stay alive while the caller reads them
        yield ends
        start = end


def read_graph_text(text: str) -> Graph:
    """Parse the canonical text format; tolerant of unsorted edge lines.

    Two paths, picked by the input itself.  Text that is byte for byte the
    canonical text of a graph (what `canonical_text` and every writer in
    this package produce) is read by `_canonical_graph` straight into the
    graph's rows; the graph takes its digest from the input, so
    `content_hash` never renders it, and keeps no text.  Any other input
    goes, whole, through the tolerant line loop, the only path that accepts
    unsorted lines, signs, leading zeros, tabs, CRLF or blank lines, and the
    one that raises `ParseError`; the bulk path only ever declines.  Both
    refuse a vertex count above MAX_EDGES.
    """
    try:
        g = _canonical_graph(text)
    except ValueError:
        return _read_lines(text)
    sha = hashlib.sha256()  # text is its render; hashed a chunk at a time, not copied whole
    for start in range(0, len(text), _CHUNK):
        sha.update(text[start:start + _CHUNK].encode("ascii"))
    g.__dict__["_digest"] = sha.hexdigest()
    return g


def _canonical_graph(text: str) -> Graph:
    """The graph whose canonical text is `text`; raises ValueError when
    `text` is not in that form or its vertex count is above MAX_EDGES.

    The header and the edge lines are read by `_decimal_chunks` with the
    separators space and line feed, one chunk of lines at a time.  Each run
    of lines with one first token is one row; C-level passes over the first
    and second tokens check that the lines strictly ascend and that
    0 <= u < v < n on each, and no edge tuple is built.
    """
    start = text.find("\n") + 1
    ids: dict[str, int] = {}
    (n, m), = _decimal_chunks(text, 0, " \n", ids, start)
    if n > MAX_EDGES or not text.endswith("\n"):
        raise ValueError("vertex count above MAX_EDGES or no final line end")
    rows: dict[int, tuple[int, ...]] = {}
    last = (-1, -1)  # the last line of the chunks before
    count = 0
    for ends in _decimal_chunks(text, start, " \n", ids):
        us, vs = ends[0::2], ends[1::2]
        starts = [0, *compress(range(1, len(us)), map(ne, us, us[1:]))]  # of the runs
        keys = list(map(us.__getitem__, starts))
        # ascending keys make the first tokens non-decreasing; within a run
        # the second tokens must ascend
        if not (last < (us[0], vs[0]) and all(map(lt, keys, keys[1:]))
                and all(map(or_, map(ne, us, us[1:]), map(lt, vs, vs[1:])))
                and all(map(lt, us, vs)) and max(vs) < n):
            raise ValueError("edge lines out of order or out of range")
        runs = map(vs.__getitem__, map(slice, starts, starts[1:] + [len(us)]))
        if keys[0] == last[0]:  # the last chunk's last row goes on
            rows[keys.pop(0)] += next(runs)
        rows.update(zip(keys, runs))
        last = (us[-1], vs[-1])
        count += len(vs)
    if count != m:
        raise ValueError("edge count differs from the header")
    return _from_rows(n, m, rows)


def _read_lines(text: str) -> Graph:
    """The tolerant line loop behind `read_graph_text`."""
    lines = text.splitlines(keepends=True)
    if not lines or not lines[0].strip():
        raise ParseError.at(lines, 0, "empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError.at(lines, 0, "header must be 'n m'", "header")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError.at(lines, 0, "header values must be integers", "header")
    if n < 0:
        raise ParseError.at(lines, 0, f"vertex count must be non-negative, got {n}", "header")
    if n > MAX_EDGES:
        raise ParseError.at(lines, 0, f"vertex count {n} is more than {MAX_EDGES}", "header")
    body = [index for index in range(1, len(lines)) if lines[index].strip()]
    if len(body) != m:
        raise ParseError.at(lines, 1, f"expected {m} edge lines, found {len(body)}", "edges")
    edges = set()
    for i, index in enumerate(body):
        parts = lines[index].split()
        if len(parts) != 2:
            raise ParseError.at(lines, index, "edge line must be 'u v'", f"edges[{i}]")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError.at(lines, index, "edge endpoints must be integers", f"edges[{i}]")
        if u == v:
            raise ParseError.at(lines, index, f"self-loop at {u}", f"edges[{i}]")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError.at(lines, index, f"edge ({u},{v}) outside vertex range", f"edges[{i}]")
        e = norm_edge(u, v)
        if e in edges:
            raise ParseError.at(lines, index, f"duplicate edge ({u},{v})", f"edges[{i}]")
        edges.add(e)
    return Graph(n, edges)
