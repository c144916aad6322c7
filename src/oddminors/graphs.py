"""Immutable simple graphs, named families, the four graph products, and
basic structural routines (bipartiteness, components, deterministic BFS
spanning trees), plus the canonical text format and a graph6 reader.

Vertices are the integers 0..n-1.  Product vertices (a, b) are flattened to
a * |V(H)| + b, with the first factor most significant; every certificate in
this package relies on that fixed flattening.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import ParameterError, ParseError, StructureError

Edge = tuple[int, int]
ProductVertex = tuple[int, int]

PRODUCT_KINDS = ("cartesian", "direct", "lexicographic", "strong")

NAMED_FAMILIES = ("complete", "star", "cycle", "path", "hamming")


def norm_edge(u: int, v: int) -> Edge:
    """Order an edge's endpoints as (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple loopless undirected graph on vertices 0..n-1.

    Immutable value: safe to share freely.  Edges are stored as a frozenset
    of (u, v) pairs with u < v.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ParameterError(f"vertex count must be a non-negative int, got {self.n!r}")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ParameterError(f"bad edge {e!r} for n={self.n} (need 0 <= u < v < n)")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges if u != v else False

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def canonical_text(self) -> str:
        """Canonical text form: 'n m' then one 'u v' line per edge, ascending."""
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.sorted_edges)
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical text form, computed once per
        graph."""
        return self._content_hash

    @cached_property
    def _content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("ascii")).hexdigest()


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph, normalizing edge orientation and rejecting loops."""
    out = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        out.add(norm_edge(u, v))
    return Graph(n, frozenset(out))


# ----------------------------------------------------------------------
# Named families


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def star(k: int) -> Graph:
    """Star with k leaves; the center is vertex 0, leaves are 1..k."""
    if k < 0:
        raise ParameterError(f"star needs k >= 0 leaves, got {k}")
    return Graph(k + 1, frozenset((0, i) for i in range(1, k + 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    return Graph(n, frozenset(norm_edge(i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"path needs n >= 1, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def hamming(n: int, d: int) -> Graph:
    """d-fold Cartesian power of the complete graph on n vertices.

    Vertices are d-tuples over 0..n-1 flattened in mixed radix n with the
    first coordinate most significant, matching iterated `product`.
    """
    if n < 1 or d < 1:
        raise ParameterError(f"hamming needs n >= 1 and d >= 1, got ({n}, {d})")
    total = n ** d
    edges = set()
    for x in range(total):
        digits = []
        y = x
        for _ in range(d):
            digits.append(y % n)
            y //= n
        digits.reverse()
        for pos in range(d):
            weight = n ** (d - 1 - pos)
            for val in range(digits[pos] + 1, n):
                edges.add((x, x + (val - digits[pos]) * weight))
    return Graph(total, frozenset(edges))


def make_named_graph(family: str, params: Sequence[int]) -> Graph:
    """Build a named graph; see each family builder for vertex numbering."""
    if family == "complete":
        (n,) = _take_params(family, params, 1)
        return complete(n)
    if family == "star":
        (k,) = _take_params(family, params, 1)
        return star(k)
    if family == "cycle":
        (n,) = _take_params(family, params, 1)
        return cycle(n)
    if family == "path":
        (n,) = _take_params(family, params, 1)
        return path(n)
    if family == "hamming":
        n, d = _take_params(family, params, 2)
        return hamming(n, d)
    raise ParameterError(f"unknown graph family {family!r} (expected one of {NAMED_FAMILIES})")


def _take_params(family, params, count):
    params = list(params)
    if len(params) != count:
        raise ParameterError(f"{family} takes {count} parameter(s), got {params!r}")
    return params


# ----------------------------------------------------------------------
# Products


def flatten(a: int, b: int, n_second: int) -> int:
    return a * n_second + b


def unflatten(x: int, n_second: int) -> ProductVertex:
    return divmod(x, n_second)


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Product of g and h on |V(g)|*|V(h)| vertices under the fixed flattening.

    cartesian: one coordinate fixed, the other moves along a factor edge.
    direct: both coordinates move along factor edges.
    strong: union of the cartesian and direct edge sets.
    lexicographic: first coordinates adjacent, or equal with the second
    coordinates adjacent.
    """
    if kind not in PRODUCT_KINDS:
        raise ParameterError(f"unknown product kind {kind!r} (expected one of {PRODUCT_KINDS})")
    nh = h.n
    edges: set[Edge] = set()
    if kind in ("cartesian", "strong"):
        for a in range(g.n):
            for b1, b2 in h.edges:
                edges.add(norm_edge(flatten(a, b1, nh), flatten(a, b2, nh)))
        for a1, a2 in g.edges:
            for b in range(h.n):
                edges.add(norm_edge(flatten(a1, b, nh), flatten(a2, b, nh)))
    if kind in ("direct", "strong"):
        for a1, a2 in g.edges:
            for b1, b2 in h.edges:
                edges.add(norm_edge(flatten(a1, b1, nh), flatten(a2, b2, nh)))
                edges.add(norm_edge(flatten(a1, b2, nh), flatten(a2, b1, nh)))
    if kind == "lexicographic":
        for a1, a2 in g.edges:
            for b1 in range(h.n):
                for b2 in range(h.n):
                    edges.add(norm_edge(flatten(a1, b1, nh), flatten(a2, b2, nh)))
        for a in range(g.n):
            for b1, b2 in h.edges:
                edges.add(norm_edge(flatten(a, b1, nh), flatten(a, b2, nh)))
    return Graph(g.n * h.n, frozenset(edges))


# ----------------------------------------------------------------------
# Structural routines


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by lowest vertex."""
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return out


def is_bipartite(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Return a bipartition (part1, part2) or None if an odd cycle exists.

    Deterministic: BFS from the lowest-id vertex of each component, neighbors
    in ascending order, component roots (and isolated vertices) in part 1.
    """
    side = [0] * g.n  # 0 unvisited, 1 or 2
    for root in range(g.n):
        if side[root]:
            continue
        side[root] = 1
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in g.neighbors(u):
                if side[w] == 0:
                    side[w] = 3 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    part1 = tuple(v for v in range(g.n) if side[v] == 1)
    part2 = tuple(v for v in range(g.n) if side[v] == 2)
    return part1, part2


def find_odd_cycle(g: Graph) -> Optional[list[int]]:
    """Return an odd cycle as an ordered vertex list, or None if bipartite.

    Deterministic: BFS forest from lowest roots, then the first conflicting
    edge in ascending edge order; the cycle is closed through the nearest
    common ancestor.
    """
    side = [0] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    for root in range(g.n):
        if side[root]:
            continue
        side[root] = 1
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in g.neighbors(u):
                if side[w] == 0:
                    side[w] = 3 - side[u]
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
    for u, v in sorted(g.edges):
        if side[u] != side[v]:
            continue
        # Same BFS color: close an odd cycle through the common ancestor.
        cu, cv = u, v
        up_u, up_v = [], []
        while depth[cu] > depth[cv]:
            up_u.append(cu)
            cu = parent[cu]
        while depth[cv] > depth[cu]:
            up_v.append(cv)
            cv = parent[cv]
        while cu != cv:
            up_u.append(cu)
            up_v.append(cv)
            cu = parent[cu]
            cv = parent[cv]
        # Ancestor, down to u, across the conflict edge, back up from v.
        return [cu] + up_u[::-1] + up_v
    return None


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
    vset = set(verts)
    root = verts[0]
    seen = {root}
    queue = [root]
    tree: set[Edge] = set()
    while queue:
        u = queue.pop(0)
        for w in g.neighbors(u):
            if w in vset and w not in seen:
                seen.add(w)
                tree.add(norm_edge(u, w))
                queue.append(w)
    if len(seen) != len(verts):
        missing = min(v for v in verts if v not in seen)
        raise StructureError(f"vertex {missing} is separated from {root} within the requested set")
    return frozenset(tree)


# ----------------------------------------------------------------------
# Text formats


def write_graph_text(g: Graph) -> str:
    return g.canonical_text()


def read_graph_text(text: str) -> Graph:
    """Parse the canonical text format; tolerant of unsorted edge lines."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty graph text", line=1, offset=0)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n m'", field="header", line=1, offset=0)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header values must be integers", field="header", line=1, offset=0)
    if n < 0:
        raise ParseError(f"vertex count must be non-negative, got {n}", field="header",
                         line=1, offset=0)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}", field="edges", line=2)
    edges = set()
    offset = len(lines[0]) + 1
    for i, ln in enumerate(body):
        parts = ln.split()
        lineno = i + 2
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", field=f"edges[{i}]", line=lineno, offset=offset)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", field=f"edges[{i}]", line=lineno, offset=offset)
        if u == v:
            raise ParseError(f"self-loop at {u}", field=f"edges[{i}]", line=lineno, offset=offset)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) outside vertex range", field=f"edges[{i}]", line=lineno, offset=offset)
        e = norm_edge(u, v)
        if e in edges:
            raise ParseError(f"duplicate edge ({u},{v})", field=f"edges[{i}]", line=lineno, offset=offset)
        edges.add(e)
        offset += len(ln) + 1
    return Graph(n, frozenset(edges))


def read_graph6(line: str) -> Graph:
    """Decode one graph in graph6 format (small test corpora)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 input", offset=0)
    data = []
    for i, ch in enumerate(s):
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise ParseError(f"invalid graph6 character {ch!r}", offset=i)
        data.append(val)
    if data[0] < 63:
        n = data[0]
        rest = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        rest = data[4:]
    elif len(data) >= 8:
        n = 0
        for v in data[2:8]:
            n = (n << 6) | v
        rest = data[8:]
    else:
        raise ParseError("truncated graph6 size block", offset=0)
    need = n * (n - 1) // 2
    bits = []
    for v in rest:
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    if len(bits) < need:
        raise ParseError(f"graph6 body too short: need {need} bits, have {len(bits)}", offset=len(s))
    edges = set()
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.add((u, v))
            idx += 1
    return Graph(n, frozenset(edges))
